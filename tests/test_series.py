import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcong import series as series_module
from qcong.series import (
    EXACT,
    Mod,
    NonUnitConstantTerm,
    Ring,
    Series,
    binomial_product,
)
from qcong.genfun import phi_series
from references import f_series, one_plus

MODULI = [2, 4, 8, 12, 64]

# moduli and orders for the Newton middle product: orders near _FFT_MIN_LEN,
# where the first FFT step and a one- or two-term last step occur, and orders
# whose last step is short (N + 1 not a power of two)
NEWTON_MODULI = [2, 3, 8, 12, 64, 2**32, 2**40 + 3, 2**61, 2**61 + 1]
NEWTON_ORDERS = [255, 256, 257, 511, 512, 513, 3000]

# moduli up to the cap; 2**40 and above need more than one FFT limb
WIDE_MODULI = st.one_of(
    st.sampled_from([2, 9, 64, 2**31 - 1, 2**32, 2**40, 2**61, 2**61 + 1, 2**62 - 1]),
    st.integers(min_value=2, max_value=2**62 - 1),
)


def random_coeffs(seed, m, length):
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, m, length, dtype=np.int64)]


def python_product(a, b, m):
    """Truncated product of two coefficient lists mod m, in Python integers."""
    out = [0] * len(a)
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += ai * b[j]
    return [c % m for c in out]


def series_strategy(order_max=64, ring=EXACT, coeff_max=9):
    def build(draw):
        order = draw(st.integers(min_value=0, max_value=order_max))
        coeffs = draw(
            st.lists(
                st.integers(min_value=-coeff_max, max_value=coeff_max),
                min_size=order + 1,
                max_size=order + 1,
            )
        )
        return Series(ring, order, coeffs)

    return st.composite(build)()


def paired_series(order_max=64, coeff_max=9):
    @st.composite
    def build(draw):
        order = draw(st.integers(min_value=0, max_value=order_max))
        mk = lambda: [
            draw(st.integers(min_value=-coeff_max, max_value=coeff_max))
            for _ in range(order + 1)
        ]
        return order, mk(), mk(), mk()

    return build()


class TestConstruction:
    def test_length_must_match_order(self):
        with pytest.raises(ValueError):
            Series(EXACT, 3, [1, 2])

    def test_mod_values_reduced(self):
        s = Series(Mod(5), 2, [7, -1, 10])
        assert s.tolist() == [2, 4, 0]

    def test_big_int_reduction(self):
        s = Series(Mod(7), 1, [10**30, -(10**30)])
        assert s.tolist() == [(10**30) % 7, (-(10**30)) % 7]

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Ring(1)
        with pytest.raises(ValueError):
            Ring(2**62)

    def test_immutability(self):
        s = Series(EXACT, 1, [1, 2])
        with pytest.raises(AttributeError):
            s.order = 5

    def test_coeff_range(self):
        s = Series(EXACT, 2, [1, 2, 3])
        assert s.coeff(2) == 3
        with pytest.raises(IndexError):
            s.coeff(3)
        with pytest.raises(IndexError):
            s.coeff(-1)

    def test_ring_order_mismatch(self):
        a = Series(EXACT, 2, [1, 0, 0])
        with pytest.raises(ValueError):
            a.add(Series(EXACT, 3, [1, 0, 0, 0]))
        with pytest.raises(ValueError):
            a.mul(Series(Mod(4), 2, [1, 0, 0]))


class TestFSeries:
    def test_prefix(self):
        assert f_series(1, 4).tolist() == [1, 2, 2, 2, 2]

    def test_substituted(self):
        assert f_series(3, 7).tolist() == [1, 0, 0, 2, 0, 0, 2, 0]

    def test_square_mod_four(self):
        s = f_series(2, 5, Mod(4))
        assert s.pow(2).tolist() == [1, 0, 0, 0, 0, 0]


class TestArithmetic:
    def test_mul_difference_of_squares(self):
        a = Series(EXACT, 2, [1, 1, 0])
        b = Series(EXACT, 2, [1, -1, 0])
        assert a.mul(b).tolist() == [1, 0, -1]

    def test_mul_identity(self):
        s = f_series(1, 6)
        assert s.mul(Series.one(EXACT, 6)) == s

    def test_pow_zero_is_one(self):
        s = Series(EXACT, 5, [3, 1, 4, 1, 5, 9])
        assert s.pow(0) == Series.one(EXACT, 5)

    def test_pow_binomial(self):
        s = Series(EXACT, 4, [1, 2, 0, 0, 0])
        assert s.pow(2).tolist() == [1, 4, 4, 0, 0]

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            Series.one(EXACT, 2).pow(-1)

    @pytest.mark.parametrize("ring", [EXACT, Mod(8), Mod(12), Mod(2**61 + 1)], ids=repr)
    @pytest.mark.parametrize("e,products", [(0, 0), (1, 0), (2, 1), (13, 5)])
    def test_pow_starts_from_its_base(self, monkeypatch, ring, e, products):
        order = 300 if ring.modulus else 40
        s = Series(ring, order, [(7 * i * i + 3 * i + 1) % 11 - 5 for i in range(order + 1)])
        want = Series.one(ring, order)
        for _ in range(e):
            want = want.mul(s)
        calls = []
        mul = Series.mul

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Series, "mul", counted)
        assert s.pow(e) == want
        assert len(calls) == products

    def test_inverse_geometric(self):
        s = Series(EXACT, 4, [1, -1, 0, 0, 0])
        assert s.inverse_of_unit().tolist() == [1, 1, 1, 1, 1]

    def test_inverse_of_one(self):
        one = Series.one(EXACT, 5)
        assert one.inverse_of_unit() == one

    def test_inverse_of_f(self):
        f = f_series(1, 30)
        assert f.mul(f.inverse_of_unit()) == Series.one(EXACT, 30)

    def test_nonunit_exact(self):
        with pytest.raises(NonUnitConstantTerm):
            Series(EXACT, 2, [2, 0, 0]).inverse_of_unit()

    def test_nonunit_mod(self):
        with pytest.raises(NonUnitConstantTerm):
            Series(Mod(4), 2, [2, 0, 0]).inverse_of_unit()
        inv = Series(Mod(9), 2, [2, 0, 0]).inverse_of_unit()
        assert inv[0] == 5  # 2*5 = 10 = 1 mod 9


class TestConstants:
    """Modular one and zero are built with numpy; they equal the list forms."""

    @pytest.mark.parametrize("modulus", [2, 3, 4, 12, 2**40, 2**61 + 1])
    @pytest.mark.parametrize("order", [0, 1, 7, 1000])
    def test_match_list_built(self, modulus, order):
        ring = Mod(modulus)
        one = Series.one(ring, order)
        zero = Series.zero(ring, order)
        assert one == Series(ring, order, [1] + [0] * order)
        assert zero == Series(ring, order, [0] * (order + 1))
        for s in (one, zero):
            assert s._c.dtype == np.int64 and not s._c.flags.writeable

    def test_exact_constants(self):
        assert Series.one(EXACT, 3).tolist() == [1, 0, 0, 0]
        assert Series.zero(EXACT, 0).tolist() == [0]

    @pytest.mark.parametrize("ring", [EXACT, Mod(4)], ids=repr)
    def test_negative_order_rejected(self, ring):
        for make in (Series.one, Series.zero):
            with pytest.raises(ValueError, match="order must be >= 0"):
                make(ring, -1)


class TestModularProducts:
    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(min_value=0, max_value=1200),
        m=WIDE_MODULI,
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_mul_matches_python_product(self, order, m, seed):
        ca = random_coeffs(seed, m, order + 1)
        cb = random_coeffs(seed + 1, m, order + 1)
        a, b = Series(Mod(m), order, ca), Series(Mod(m), order, cb)
        assert a.mul(b).tolist() == python_product(ca, cb, m)
        assert a.mul(a).tolist() == python_product(ca, ca, m)

    @pytest.mark.parametrize("m", [2**40, 2**61 + 1])
    def test_long_product_splits_limbs(self, m):
        order = 999
        assert series_module._limb_width(m.bit_length(), order + 1, 46) < m.bit_length()
        ca, cb = random_coeffs(5, m, order + 1), random_coeffs(6, m, order + 1)
        got = Series(Mod(m), order, ca).mul(Series(Mod(m), order, cb))
        assert got.tolist() == python_product(ca, cb, m)

    def test_rounding_check_falls_back_to_convolve(self, monkeypatch):
        m, order = 2**61 + 1, 600
        ca, cb = random_coeffs(7, m, order + 1), random_coeffs(8, m, order + 1)
        a, b = np.array(ca, dtype=np.int64), np.array(cb, dtype=np.int64)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *x, **kw: irfft(*x, **kw) + 0.3)
        size = series_module._fft_size(2 * order + 1)
        sa, sb = (series_module._spectra(x, m, 16, size) for x in (a, b))
        assert series_module._spectral_product(sa, sb, m, 16, size, order + 1) is None
        got = Series(Mod(m), order, ca).mul(Series(Mod(m), order, cb))
        assert got.tolist() == python_product(ca, cb, m)

    def test_pow_rounding_check_falls_back_to_convolve(self, monkeypatch):
        m, order = 2**61 + 1, 600
        s = Series(Mod(m), order, random_coeffs(9, m, order + 1))
        want = s
        for _ in range(6):
            want = want.mul(s)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *x, **kw: irfft(*x, **kw) + 0.3)
        # 7 = 111b: two squares and two multiplies, each falling back
        assert s.pow(7) == want

    @pytest.mark.parametrize("exact_calls", [1, 3, 6])
    def test_rounding_failure_after_a_limb_shift(self, monkeypatch, exact_calls):
        # 4 limbs of 2^61 + 1 make 7 shifts; a product fails part way through
        m, order = 2**61 + 1, 600
        ca, cb = random_coeffs(10, m, order + 1), random_coeffs(11, m, order + 1)
        g, inverse = exact_unit("phi", order)
        irfft = np.fft.irfft
        calls = []

        def late_failure(*x, **kw):
            calls.append(1)
            return irfft(*x, **kw) + (0.3 if len(calls) > exact_calls else 0.0)

        monkeypatch.setattr(np.fft, "irfft", late_failure)
        got = Series(Mod(m), order, ca).mul(Series(Mod(m), order, cb))
        assert got.tolist() == python_product(ca, cb, m)
        calls.clear()
        got = Series(Mod(m), order, g).inverse_of_unit()
        assert got.tolist() == [c % m for c in inverse]

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(min_value=0, max_value=1500),
        m=WIDE_MODULI,
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_newton_inverse(self, order, m, seed):
        coeffs = random_coeffs(seed, m, order + 1)
        coeffs[0] = 1
        a = Series(Mod(m), order, coeffs)
        inv = a.inverse_of_unit()
        one = Series.one(Mod(m), order)
        assert a.mul(inv) == one and inv.mul(a) == one

    @pytest.mark.parametrize("m, unit", [(9, 2), (12, 5), (2**40 + 3, 7), (2**61 + 1, 5)])
    def test_newton_inverse_non_prime_modulus(self, m, unit):
        order = 700
        coeffs = random_coeffs(m, m, order + 1)
        coeffs[0] = unit
        a = Series(Mod(m), order, coeffs)
        inv = a.inverse_of_unit()
        assert inv[0] == pow(unit, -1, m)
        assert a.mul(inv) == Series.one(Mod(m), order)


@functools.lru_cache(maxsize=None)
def exact_unit(kind, order):
    """Exact coefficients of a unit with constant term +/-1, and of its inverse."""
    if kind == "phi":
        g = phi_series(-1, order)._c
    else:
        # sparse, so the exact recurrence stays cheap at order 3000
        rng = np.random.default_rng(order)
        g = [0] * (order + 1)
        g[0] = -1 if order % 2 else 1
        for j in rng.choice(np.arange(1, order + 1), size=12, replace=False):
            g[j] = int(rng.integers(-3, 4))
    return tuple(g), series_module._sparse_power(g, -1)


class TestNewtonMiddleProduct:
    """The modular Newton inverse against the exact inverse recurrence."""

    @pytest.mark.parametrize("m", NEWTON_MODULI)
    @pytest.mark.parametrize("order", NEWTON_ORDERS)
    @pytest.mark.parametrize("kind", ["phi", "random"])
    def test_matches_exact_inverse(self, kind, order, m):
        g, inverse = exact_unit(kind, order)
        got = Series(Mod(m), order, g).inverse_of_unit()
        assert got.tolist() == [c % m for c in inverse]

    @pytest.mark.parametrize("m", [12, 64, 2**61 + 1])
    def test_overpartitions_at_20000(self, m):
        g, inverse = exact_unit("phi", 20000)
        got = Series(Mod(m), 20000, g).inverse_of_unit()
        assert got.tolist() == [c % m for c in inverse]

    @pytest.mark.parametrize("m", [64, 2**61 + 1])
    def test_fft_steps_make_no_plain_products(self, monkeypatch, m):
        # only the steps from p < _FFT_MIN_LEN take the _mul_mod pair
        calls = []
        mul_mod = series_module._mul_mod

        def counted(a, b, m, n):
            calls.append(1)
            return mul_mod(a, b, m, n)

        monkeypatch.setattr(series_module, "_mul_mod", counted)
        g, inverse = exact_unit("phi", 3000)
        got = Series(Mod(m), 3000, g).inverse_of_unit()
        assert got.tolist() == [c % m for c in inverse]
        small_steps = series_module._FFT_MIN_LEN.bit_length() - 1
        assert len(calls) == 2 * small_steps

    def test_rounding_check_falls_back_to_convolve(self, monkeypatch):
        m, order = 2**61 + 1, 1000
        g, inverse = exact_unit("phi", order)
        spectral, convolved = [], []
        spectral_product = series_module._spectral_product
        limb_product = series_module._limb_product

        def spy_spectral(sa, sb, m, w, size, n, lo=0):
            out = spectral_product(sa, sb, m, w, size, n, lo)
            spectral.append((lo, out is not None))
            return out

        def spy_limbs(a, b, m, n):
            convolved.append(1)
            return limb_product(a, b, m, n)

        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *x, **kw: irfft(*x, **kw) + 0.3)
        monkeypatch.setattr(series_module, "_spectral_product", spy_spectral)
        monkeypatch.setattr(series_module, "_limb_product", spy_limbs)
        got = Series(Mod(m), order, g).inverse_of_unit()
        assert got.tolist() == [c % m for c in inverse]
        # the middle products (lo = p) ran, failed the check, and every
        # step's two products were then made by convolution
        assert {lo for lo, ok in spectral if lo} == {256, 512}
        assert not any(ok for _, ok in spectral)
        assert len(convolved) == 2 * (order + 1).bit_length()


class TestToList:
    @pytest.mark.parametrize("ring", [EXACT, Mod(12), Mod(2**61 + 1)], ids=repr)
    def test_python_ints_unchanged(self, ring):
        coeffs = [(-1) ** i * 7**i for i in range(300)]
        s = Series(ring, 299, coeffs)
        got = s.tolist()
        assert all(type(c) is int for c in got)
        want = coeffs if ring.exact else [c % ring.modulus for c in coeffs]
        assert got == want
        assert got == [s[i] for i in range(300)]


def signed_factor(sign, n, e):
    """(1 + sign*q^n)^e as kernel factors."""
    return one_plus(n, e) if sign > 0 else [(n, e)]


def times_factor(s, sign, n, e):
    """s * (1 + sign*q^n)^e by the kernel, starting from s."""
    return binomial_product(s.ring, s.order, signed_factor(sign, n, e), s)


@st.composite
def gate_boundary(draw):
    """(order, n, e) with order // (stride*n) within 2 of 16|e|, stride 1 or 2.

    16|e| <= order // n is the cut-off of the division passes by 1 - q^n,
    and 16|e| <= order // (2n) that of the division by 1 - q^(2n) in
    1/(1+q^n)^k = (1-q^n)^k / (1-q^(2n))^k.
    """
    e = draw(st.integers(min_value=-8, max_value=8))
    stride = draw(st.sampled_from([1, 2]))
    cap = max(1, 16 * abs(e) + draw(st.integers(min_value=-2, max_value=2)))
    n = draw(st.integers(min_value=1, max_value=600 // (stride * cap)))
    base = stride * n * cap
    order = base + draw(st.integers(min_value=0, max_value=min(stride * n, 601 - base) - 1))
    return order, n, e


class TestBinomialKernel:
    def test_geometric(self):
        assert binomial_product(EXACT, 3, [(1, -1)]).tolist() == [1, 1, 1, 1]

    def test_f_as_two_factors(self):
        one = Series.one(EXACT, 6)
        built = binomial_product(EXACT, 6, [*one_plus(1, 1), (1, -1)], one)
        assert built == f_series(1, 6)

    def test_factor_beyond_order_is_identity(self):
        s = Series(EXACT, 4, [1, 2, 3, 4, 5])
        assert times_factor(s, 1, 5, 3) == s

    def test_bad_arguments(self):
        # the start must be over the ring at the order
        for start in (Series.one(EXACT, 5), Series.one(Mod(8), 4)):
            with pytest.raises(ValueError, match="start must be a series over Z"):
                binomial_product(EXACT, 4, [(1, 1)], start)
        with pytest.raises(ValueError, match="over Z/4 at order 4"):
            binomial_product(Mod(4), 4, [], Series.one(Mod(8), 4))

    @settings(max_examples=150, deadline=None)
    @given(
        data=paired_series(order_max=48, coeff_max=9),
        n=st.integers(min_value=1, max_value=50),
        e=st.integers(min_value=-6, max_value=6),
        sign=st.sampled_from([1, -1]),
        modulus=st.sampled_from([None, 2, 4, 12, 64, 2**40, 2**61 + 1]),
    )
    def test_matches_dense_multiplication(self, data, n, e, sign, modulus):
        order, coeffs, _, _ = data
        ring = EXACT if modulus is None else Mod(modulus)
        s = Series(ring, order, coeffs)
        got = times_factor(s, sign, n, e)
        dense = [0] * (order + 1)
        dense[0] = 1
        if n <= order:
            dense[n] = sign
        factor = Series(ring, order, dense)
        if e >= 0:
            want = s.mul(factor.pow(e))
        else:
            want = s.mul(factor.pow(-e).inverse_of_unit())
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(
        case=gate_boundary(),
        sign=st.sampled_from([1, -1]),
        modulus=st.sampled_from([None, 2, 4, 7, 12, 64, 3037000500, 3037000501,
                                 2**32, 2**40 + 3, 2**61, 2**61 + 1]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    # 16|e| against order // n: at 16 the passes, at 15 the term loop
    @example(case=(160, 10, -1), sign=-1, modulus=7, seed=1)
    @example(case=(159, 10, -1), sign=-1, modulus=7, seed=1)
    # 16|e| against order // (2n) for the 1 - q^(2n) of 1/(1+q^n)^k
    @example(case=(320, 10, -1), sign=1, modulus=12, seed=2)
    @example(case=(319, 10, -1), sign=1, modulus=12, seed=2)
    # |e| against order // (2n) over Z, where the passes need only |e| <= N/s
    @example(case=(30, 5, -3), sign=1, modulus=None, seed=3)
    @example(case=(29, 5, -3), sign=1, modulus=None, seed=3)
    # (m-1)^2 + m against 2^63: int64 terms, then Python integers
    @example(case=(300, 3, -5), sign=1, modulus=3037000500, seed=4)
    @example(case=(300, 3, -5), sign=1, modulus=3037000501, seed=4)
    def test_gate_boundaries_match_dense(self, case, sign, modulus, seed):
        # the dense product is taken over Z and then reduced
        order, n, e = case
        coeffs = random_coeffs(seed, modulus or 19, order + 1)
        dense = [1] + [0] * order
        if n <= order:
            dense[n] = sign
        factor = Series(EXACT, order, dense).pow(abs(e))
        want = (factor if e >= 0 else factor.inverse_of_unit()).mul(Series(EXACT, order, coeffs))
        ring = EXACT
        if modulus is not None:
            ring, want = Mod(modulus), want.reduce_mod(modulus)
        assert times_factor(Series(ring, order, coeffs), sign, n, e) == want

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(min_value=0, max_value=400),
        n=st.integers(min_value=1, max_value=8),
        e=st.integers(min_value=-4, max_value=-1),
        sign=st.sampled_from([1, -1]),
        modulus=st.sampled_from([2, 4, 12, 64, 2**40]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_division_passes_match_dense_inverse(self, order, n, e, sign, modulus, seed):
        # small n and |e| against long series: the stride-pass division
        ring = Mod(modulus)
        s = Series(ring, order, random_coeffs(seed, modulus, order + 1))
        dense = [1] + [0] * order
        if n <= order:
            dense[n] = sign
        want = s.mul(Series(ring, order, dense).pow(-e).inverse_of_unit())
        assert times_factor(s, sign, n, e) == want

    @pytest.mark.parametrize("order,n,e", [(1000, 60, -1), (2000, 100, -1), (3000, 90, -2)])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("modulus", [7, 12, 2**40])
    def test_large_part_divides_by_passes(self, monkeypatch, order, n, e, sign, modulus):
        # n above sqrt(order), yet 16*|e| <= order // n: passes, no expansion
        # into order // n binomial terms.  1/(1+q^n)^k is (1-q^n)^k, k
        # terms, and a division at stride 2n, which its own order // (2n)
        # gates
        ring = Mod(modulus)
        s = Series(ring, order, random_coeffs(n, modulus, order + 1))
        dense = [1] + [0] * order
        dense[n] = sign
        want = s.mul(Series(ring, order, dense).pow(-e).inverse_of_unit())
        terms = series_module._binomial_terms

        def few_terms(term_e, t_max):
            assert t_max < order // n, "binomial terms used"
            return terms(term_e, t_max)

        monkeypatch.setattr(series_module, "_binomial_terms", few_terms)
        assert times_factor(s, sign, n, e) == want


def divide_reference(values, stride):
    """values / (1 - q^stride) in Python integers, one coefficient at a time."""
    out = list(values)
    for j in range(stride, len(out)):
        out[j] += out[j - stride]
    return out


class TestDivideOneMinus:
    """The shared (1 - q^s) pass of the kernel and the class route."""

    @settings(max_examples=300, deadline=None)
    @given(
        length=st.integers(min_value=0, max_value=400),
        stride=st.integers(min_value=1, max_value=450),
        words=st.sampled_from(["int64", "uint8", "uint16"]),
        m=st.sampled_from([2, 4, 12, 64, 2**40]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @example(length=5, stride=7, words="int64", m=12, seed=1)
    @example(length=7, stride=7, words="uint8", m=4, seed=2)
    @example(length=8, stride=7, words="int64", m=64, seed=3)
    @example(length=23, stride=5, words="uint16", m=4, seed=4)
    @example(length=400, stride=3, words="int64", m=2**40, seed=5)
    @example(length=399, stride=200, words="uint8", m=4, seed=6)
    @example(length=0, stride=1, words="int64", m=2, seed=7)
    def test_matches_loop(self, length, stride, words, m, seed):
        # int64 buffers hold residues and are reduced afterwards, as in
        # _apply_mod; unsigned buffers wrap modulo their 2^w, as in the
        # class route
        top = m if words == "int64" else 1 << (8 * np.dtype(words).itemsize)
        values = random_coeffs(seed, top, length)
        buf = np.array(values, dtype=words)
        series_module._divide_one_minus(buf, stride)
        got = [int(x) % top for x in buf]
        assert got == [x % top for x in divide_reference(values, stride)]

    def test_divides_a_view_in_place(self):
        buf = np.arange(1, 11, dtype=np.int64)
        series_module._divide_one_minus(buf[:7], 3)
        assert buf.tolist() == [1, 2, 3, 5, 7, 9, 12, 8, 9, 10]


class TestSparsePower:
    """One exact recurrence serves the inverse and over^k."""

    @settings(max_examples=80, deadline=None)
    @given(
        order=st.integers(min_value=0, max_value=120),
        a=st.integers(min_value=-6, max_value=6),
        g0=st.sampled_from([1, -1]),
        data=st.data(),
    )
    def test_matches_products(self, order, a, g0, data):
        tail = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
                                  min_size=order, max_size=order))
        g = Series(EXACT, order, [g0] + tail)
        got = Series(EXACT, order, series_module._sparse_power(g._c, a))
        if a >= 0:
            assert got == g.pow(a)
        else:
            assert got.mul(g.pow(-a)) == Series.one(EXACT, order)

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(min_value=0, max_value=200), data=st.data())
    def test_inverse_with_constant_minus_one(self, order, data):
        tail = data.draw(st.lists(st.integers(min_value=-9, max_value=9),
                                  min_size=order, max_size=order))
        a = Series(EXACT, order, [-1] + tail)
        inv = a.inverse_of_unit()
        one = Series.one(EXACT, order)
        assert inv[0] == -1
        assert a.mul(inv) == one and inv.mul(a) == one


INT64_EDGES = [-(2**63), -1, 0, 2**63 - 1]


class TestReduce:
    """``_reduce``, a mask for powers of two and a remainder otherwise."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40),
        m=st.sampled_from([2, 4, 8, 64, 2**31, 2**32, 2**61,
                           3, 12, 2**31 - 1, 3037000500, 2**61 + 1]),
    )
    def test_matches_python_remainder(self, values, m):
        values = INT64_EDGES + values
        want = [v % m for v in values]
        x = np.array(values, dtype=np.int64)
        assert series_module._reduce(x, m).tolist() == want
        assert x.tolist() == values
        out = series_module._reduce(x, m, out=x)
        assert out is x and x.tolist() == want


class TestReduceMod:
    def test_plane_prefix(self):
        s = Series(EXACT, 3, [1, 2, 6, 16])
        assert s.reduce_mod(4).tolist() == [1, 2, 2, 0]

    def test_chain_must_divide(self):
        s = Series(Mod(8), 1, [1, 5])
        assert s.reduce_mod(4).tolist() == [1, 1]
        with pytest.raises(ValueError):
            s.reduce_mod(3)

    def test_exact_to_mod(self):
        s = Series(EXACT, 2, [-1, 9, 4])
        assert s.reduce_mod(4).tolist() == [3, 1, 0]


class TestHomomorphism:
    @settings(max_examples=120, deadline=None)
    @given(data=paired_series(order_max=64), m=st.sampled_from(MODULI))
    def test_reduce_commutes_with_ops(self, data, m):
        order, ca, cb, _ = data
        a = Series(EXACT, order, ca)
        b = Series(EXACT, order, cb)
        am, bm = a.reduce_mod(m), b.reduce_mod(m)
        assert a.add(b).reduce_mod(m) == am.add(bm)
        assert a.mul(b).reduce_mod(m) == am.mul(bm)
        assert a.pow(3).reduce_mod(m) == am.pow(3)

    @settings(max_examples=100, deadline=None)
    @given(data=paired_series(order_max=64))
    def test_mul_commutative_associative(self, data):
        order, ca, cb, cc = data
        a = Series(EXACT, order, ca)
        b = Series(EXACT, order, cb)
        c = Series(EXACT, order, cc)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))

    @settings(max_examples=60, deadline=None)
    @given(data=paired_series(order_max=48, coeff_max=6))
    def test_inverse_is_two_sided(self, data):
        order, ca, _, _ = data
        coeffs = [1] + ca[1:]
        a = Series(EXACT, order, coeffs)
        inv = a.inverse_of_unit()
        one = Series.one(EXACT, order)
        assert a.mul(inv) == one
        assert inv.mul(a) == one


class TestTwoAdicLemmas:
    @settings(max_examples=50, deadline=None)
    @given(
        tail=st.lists(st.integers(min_value=-20, max_value=20), min_size=16, max_size=16),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_one_plus_twice_series_power(self, tail, k):
        # (1 + 2*S)^(2^k) = 1 (mod 2^(k+1)) for any integer series S
        modulus = 2 ** (k + 1)
        order = 128
        coeffs = [1] + [2 * tail[i % len(tail)] for i in range(order)]
        s = Series(Mod(modulus), order, coeffs)
        assert s.pow(2**k) == Series.one(Mod(modulus), order)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_f_power_collapses(self, k):
        modulus = 2 ** (k + 1)
        for n in range(1, 17):
            f = f_series(n, 128, Mod(modulus))
            assert f.pow(2**k) == Series.one(Mod(modulus), 128), (n, k)


class TestLargeModulusFallbacks:
    def test_mul_large_modulus_matches_exact(self):
        m = 2**45
        rng = np.random.default_rng(3)
        coeffs_a = [int(x) for x in rng.integers(0, m, 20)]
        coeffs_b = [int(x) for x in rng.integers(0, m, 20)]
        a_exact = Series(EXACT, 19, coeffs_a)
        b_exact = Series(EXACT, 19, coeffs_b)
        want = a_exact.mul(b_exact).reduce_mod(m)
        got = Series(Mod(m), 19, coeffs_a).mul(Series(Mod(m), 19, coeffs_b))
        assert got == want

    def test_binomial_large_modulus_matches_exact(self):
        m = 2**50
        coeffs = list(range(1, 32))
        want = times_factor(Series(EXACT, 30, coeffs), -1, 2, -5).reduce_mod(m)
        got = times_factor(Series(Mod(m), 30, coeffs), -1, 2, -5)
        assert got == want


# The kernel's int64 headroom edges: (m-1)^2 * (t_max + 2) reaches 2^63 at
# t_max = 1 between the first two moduli (one reduction at the end, then one
# per term), and (m-1)^2 + m reaches it between the last two (int64 terms,
# then Python integers).
HEADROOM_MODULI = [1753413057, 1753413058, 3037000500, 3037000501]
HEADROOM_ORDER = 60


def headroom_factors():
    """Factors that reach every path of the kernel at HEADROOM_ORDER.

    Both signs with e = -3..3 at n = 1 (division passes), 7 (terms) and 31
    (t_max = 1), and (+/-1, n, +/-n), as (sign, n, e) for (1 + sign*q^n)^e.
    At n = 31, (1 - q^n)^-1 has the coefficient 1 and (1 - q^n)^1 the
    coefficient m - 1.
    """
    for sign in (1, -1):
        for n in (1, 7, 31):
            for e in range(-3, 4):
                yield sign, n, e
        for n in (2, 5, 10):
            yield sign, n, n
            yield sign, n, -n


class TestKernelHeadroom:
    """Each kernel path against the exact kernel reduced mod m, at the edges."""

    @pytest.mark.parametrize("m", HEADROOM_MODULI)
    @pytest.mark.parametrize("fill", ["top", "random"])
    def test_mul_binomial_power(self, m, fill):
        # one factor at a time on a start series; residues m - 1 everywhere
        # make every term as large as it can be
        coeffs = ([m - 1] * (HEADROOM_ORDER + 1) if fill == "top"
                  else random_coeffs(m, m, HEADROOM_ORDER + 1))
        exact = Series(EXACT, HEADROOM_ORDER, coeffs)
        modular = Series(Mod(m), HEADROOM_ORDER, coeffs)
        for factor in headroom_factors():
            want = times_factor(exact, *factor).reduce_mod(m)
            assert times_factor(modular, *factor) == want, factor

    @pytest.mark.parametrize("m", HEADROOM_MODULI)
    def test_binomial_product(self, m):
        factors = [f for factor in headroom_factors() for f in signed_factor(*factor)]
        want = binomial_product(EXACT, HEADROOM_ORDER, factors).reduce_mod(m)
        assert binomial_product(Mod(m), HEADROOM_ORDER, factors) == want


def test_binomial_product_overpartition_prefix():
    def factors():
        for n in range(1, 5):
            yield from one_plus(n, 1)
            yield (n, -1)

    assert binomial_product(EXACT, 4, factors()).tolist() == [1, 2, 4, 8, 14]


@settings(max_examples=80, deadline=None)
@given(
    data=paired_series(order_max=40, coeff_max=3),
    modulus=st.sampled_from([None, 4, 12, 64]),
    stride=st.integers(min_value=1, max_value=4),
)
def test_comparisons_and_maps_match_loops(data, modulus, stride):
    order, ca, cb, _ = data
    ring = EXACT if modulus is None else Mod(modulus)
    a, b = Series(ring, order, ca), Series(ring, order, cb)
    la, lb = a.tolist(), b.tolist()
    mismatches = [i for i in range(order + 1) if la[i] != lb[i]]
    assert (a == b) == (not mismatches)
    assert a.first_mismatch(b) == (mismatches[0] if mismatches else None)
    inflated = [la[j // stride] if j % stride == 0 else 0 for j in range(order + 1)]
    assert a.inflate(stride, order).tolist() == inflated
    assert a.reduce_mod(4).tolist() == [c % 4 for c in la]


def test_inflate():
    s = Series(EXACT, 4, [1, 2, 3, 4, 5])
    assert s.inflate(2, 4).tolist() == [1, 0, 2, 0, 3]
    assert s.inflate(1) == s
