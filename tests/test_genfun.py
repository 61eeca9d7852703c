import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcong import genfun, periodicity
from qcong.congruence import (
    Claim,
    Equivalent,
    SeriesStore,
    builtin_suite,
    reference_bound,
    verify_claim,
)
from qcong.genfun import Family, build_series, phi_series
from qcong.periodicity import kwong_period
from qcong.series import EXACT, Mod, Series, binomial_product
from references import (
    EXPONENTS,
    closed_form,
    jacobi_specializations,
    kernel_series,
    one_plus,
    phi_factorizations,
    phi_product_approx,
    r_form_factors,
    sum_of_squares_series,
    two_adic_overpartition,
)


class TestMultiset:
    # a restricted family holds its part multiset as a sorted tuple
    def test_merges_and_sorts(self):
        fam = Family.restricted([3, 1, 3, 2, 2])
        assert fam.parts == (1, 2, 2, 3, 3)
        assert fam == Family.restricted((1, 2, 2, 3, 3))
        assert hash(fam) == hash(Family.restricted(iter([2, 3, 1, 2, 3])))
        assert fam.token == "restricted:1,2,2,3,3"

    def test_from_parts(self):
        assert Family.restricted([2, 1, 2]).parts == (1, 2, 2)
        assert Family("restricted", parts=[2, 1, 2]) == Family.restricted([1, 2, 2])

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            Family.restricted([0])
        with pytest.raises(ValueError, match=">= 1"):
            Family.restricted([3, -1])
        with pytest.raises(ValueError, match="nonempty"):
            Family.restricted(())

    def test_lcm(self):
        # the l-free part of lcm(1, 2, 4, 5) = 20 is all of it for l = 3
        parts = [1, 1, 2, 2, 2, 4, 4, 5]
        assert kwong_period(parts, 3, 1).m_value == 20

    def test_one_factor_per_part_with_repeats(self):
        fam = Family.restricted([3, 1, 3])
        assert list(genfun._family_factors(fam, 10)) == [(1, -1), (3, -1), (3, -1)]
        for ring in (EXACT, Mod(8)):
            merged = binomial_product(ring, 40, [(1, -1), (3, -2)])
            assert build_series(fam, 40, ring).tolist() == merged.tolist()


class TestFamily:
    def test_tokens_round_trip(self):
        fams = [
            Family.overpartitions(),
            Family.odd_overpartitions(),
            Family.plane(),
            Family.ncolor(),
            Family.k_rowed(4),
            Family.restricted([1, 2, 2, 3, 3]),
        ]
        for fam in fams:
            assert Family.from_token(fam.token) == fam

    def test_validation(self):
        with pytest.raises(ValueError):
            Family("plk")
        with pytest.raises(ValueError):
            Family("over", k=2)
        with pytest.raises(ValueError):
            Family("restricted")
        with pytest.raises(ValueError):
            Family("nonsense")

    @pytest.mark.parametrize(
        "token,message",
        [
            (5, "must be a string"),
            (None, "must be a string"),
            ("plk", "plk needs a row count"),
            ("plkx", "plk needs a row count"),
            ("plk-3", "plk needs a row count"),
            ("restricted:", "restricted needs comma-separated parts"),
            ("restricted:1,,2", "restricted needs comma-separated parts"),
            ("plk0", "k >= 1"),
            ("restricted:0", ">= 1"),
        ],
    )
    def test_from_token_rejects_malformed(self, token, message):
        with pytest.raises(ValueError, match=message):
            Family.from_token(token)


class TestBuildSeries:
    def test_overpartition_prefix(self):
        assert build_series(Family.overpartitions(), 4).tolist() == [1, 2, 4, 8, 14]

    def test_restricted_examples(self):
        s = build_series(Family.restricted([1, 2, 5, 8]), 5)
        assert s[5] == 4
        s = build_series(Family.restricted([1, 2, 2, 3, 3]), 4)
        assert s[4] == 8

    def test_one_rowed_is_overpartition(self):
        for order in (0, 5, 40):
            assert build_series(Family.k_rowed(1), order) == build_series(
                Family.overpartitions(), order
            )

    def test_plane_prefix(self):
        assert build_series(Family.plane(), 3)[3] == 16

    def test_ncolor_equals_plane(self):
        for order in (0, 7, 33):
            assert build_series(Family.ncolor(), order) == build_series(
                Family.plane(), order
            )

    def test_k_rowed_agrees_with_plane_below_k(self):
        # a plane overpartition of n has at most n rows
        pl = build_series(Family.plane(), 30)
        for k in (2, 5, 9):
            plk = build_series(Family.k_rowed(k), 30)
            for n in range(k + 1):
                assert plk[n] == pl[n]

    def test_constant_term_and_parity(self):
        # every family except restricted is = 1 (mod 2)
        fams = [
            Family.overpartitions(),
            Family.odd_overpartitions(),
            Family.plane(),
            Family.ncolor(),
            Family.k_rowed(3),
        ]
        for fam in fams:
            s = build_series(fam, 40)
            assert s[0] == 1
            assert all(s[n] % 2 == 0 for n in range(1, 41)), fam

    def test_restricted_constant_term(self):
        assert build_series(Family.restricted([2, 3]), 10)[0] == 1


THETA_FAMILIES = [Family.overpartitions(), Family.odd_overpartitions()] + [
    Family.k_rowed(k) for k in range(1, 14)
]


class TestThetaRoute:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(THETA_FAMILIES),
        order=st.integers(min_value=0, max_value=2000),
        modulus=st.one_of(
            st.none(),
            st.sampled_from([2, 4, 8, 64, 2**40, 2**61 + 1]),
            st.integers(min_value=2, max_value=2**40),
        ),
    )
    @example(family=Family.k_rowed(13), order=2000, modulus=None)
    @example(family=Family.overpartitions(), order=2000, modulus=2**61 + 1)
    @example(family=Family.odd_overpartitions(), order=2000, modulus=2**40)
    def test_matches_binomial_kernel(self, family, order, modulus):
        ring = EXACT if modulus is None else Mod(modulus)
        got = build_series(family, order, ring)
        want = kernel_series(family, order, ring)
        assert got == want, got.first_mismatch(want)

    @pytest.mark.parametrize("ring", [EXACT, Mod(4), Mod(12), Mod(2**61 + 1)], ids=repr)
    @pytest.mark.parametrize("family", THETA_FAMILIES, ids=str)
    def test_every_family_against_kernel(self, family, ring):
        for order in (0, 1, 2, 13, 300):
            assert build_series(family, order, ring) == kernel_series(family, order, ring)

    def test_negative_order_rejected(self):
        for family in (Family.overpartitions(), Family.plane()):
            with pytest.raises(ValueError):
                build_series(family, -1)


def no_inverse(*args, **kwargs):
    raise AssertionError("inverse_of_unit called")


class TestResidueExponents:
    """plk over Z/2^r against the kernel, whatever the route.

    From Z/8 on every exponent is reduced modulo M = 2^(r-1); over Z/2 and
    Z/4 plk, plk1 aside, takes the expansion route, which these draws check
    at large k and long heads too.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=1, max_value=40),
        order=st.integers(min_value=0, max_value=2000),
    )
    @example(bits=5, k=5, order=2000)  # k < M: no exponent of over changes
    @example(bits=4, k=8, order=2000)  # k = 0 (mod M): over^k is 1
    @example(bits=3, k=12, order=2000)
    @example(bits=3, k=6, order=2000)  # k = M/2 (mod M): the tie, phi(-q)^2
    @example(bits=4, k=36, order=1999)
    @example(bits=3, k=40, order=2000)  # k = 0 (mod M) again
    @example(bits=1, k=13, order=2000)  # m = 2: plk is 1
    @example(bits=2, k=40, order=2000)
    def test_matches_binomial_kernel(self, bits, k, order):
        ring = Mod(2**bits)
        family = Family.k_rowed(k)
        got = build_series(family, order, ring)
        want = kernel_series(family, order, ring)
        assert got == want, got.first_mismatch(want)

    @pytest.mark.parametrize("ring", [EXACT, Mod(12), Mod(2**40)], ids=repr)
    @pytest.mark.parametrize("k", [1, 2, 4, 7, 13, 20])
    def test_theta_rings_unchanged(self, ring, k):
        family = Family.k_rowed(k)
        for order in (0, 1, 2, 13, 500):
            assert build_series(family, order, ring) == kernel_series(family, order, ring)

    @pytest.mark.parametrize(
        "modulus,half",
        [(2, 1), (4, 2), (8, 4), (2**40, 2**39), (12, None), (3, None),
         (2**61 + 1, None), (None, None)],
    )
    def test_route_depends_on_the_ring_alone(self, modulus, half):
        ring = EXACT if modulus is None else Mod(modulus)
        assert genfun._two_power_half(ring) == half

    @pytest.mark.parametrize(
        "e,half,want",
        [(5, None, 5), (-3, None, -3), (13, 1, 0), (1, 2, -1), (2, 2, 0),
         (1, 4, 1), (2, 4, -2), (3, 4, -1), (4, 4, 0), (5, 4, 1), (6, 4, -2),
         (12, 8, -4), (11, 8, 3), (3, 8, 3), (-4, 8, -4), (-5, 8, 3)],
    )
    def test_balanced_residue(self, e, half, want):
        assert genfun._balanced(e, half) == want

    @pytest.mark.parametrize("half", [1, 2, 4, 8, 128])
    def test_balanced_never_grows(self, half):
        for e in range(-300, 301):
            got = genfun._balanced(e, half)
            assert abs(got) <= abs(e) and (got - e) % half == 0
            assert -half / 2 <= got < half / 2

    def test_no_newton_inverse_mod_4_and_8(self, monkeypatch):
        order = 600
        families = [Family.overpartitions(), Family.odd_overpartitions()]
        families += [Family.k_rowed(k) for k in range(1, 14)]
        moduli = (4, 8, 16, 32)
        want = {
            (f, m): kernel_series(f, order, Mod(m)) for f in families for m in moduli
        }
        monkeypatch.setattr(Series, "inverse_of_unit", no_inverse)
        for family in families:
            for m in (4, 8):
                got = build_series(family, order, Mod(m))
                assert got == want[family, m], (family, m)
            # mod 16 and 32 a positive power of over is the Newton inverse,
            # and mod 64 every one is: the pin is not vacuous
            for m in (16, 32):
                k = 1 if family.k is None else genfun._balanced(family.k, m // 2)
                if k > 0:
                    with pytest.raises(AssertionError, match="inverse_of_unit"):
                        build_series(family, order, Mod(m))
                else:
                    got = build_series(family, order, Mod(m))
                    assert got == want[family, m], (family, m)
            with pytest.raises(AssertionError, match="inverse_of_unit"):
                build_series(family, order, Mod(64))

    @pytest.mark.parametrize("modulus", [2, 3, 4, 12, 2**40, 2**61 + 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_modular_phi_matches_list_built(self, modulus, sign):
        ring = Mod(modulus)
        for order in (0, 1, 3, 4, 99, 100, 1000):
            coeffs = [0] * (order + 1)
            coeffs[0] = 1
            for n in range(1, math.isqrt(order) + 1):
                coeffs[n * n] = 2 * sign**n
            assert phi_series(sign, order, ring) == Series(ring, order, coeffs)

    def test_phi_rejects_negative_order(self):
        for ring in (EXACT, Mod(8)):
            with pytest.raises(ValueError, match="order must be >= 0"):
                phi_series(-1, -1, ring)

    def test_equivalence_claims_compare_independent_builds(self, monkeypatch):
        # thm1.5, thm1.6 and thm1.9 equate plk with over.  They must hold with
        # plk taken from the kernel, which never builds over; and mod 4 the
        # theta route builds plk from phi(-q) without the inverse behind over
        claims = [
            c for c in builtin_suite()
            if isinstance(c, Claim) and c.family.kind == "plk"
            and isinstance(c.kind, Equivalent)
        ]
        assert {c.label.split("-")[0] for c in claims} == {"thm1.5", "thm1.6", "thm1.9"}
        assert all(c.kind.other == Family.overpartitions() for c in claims)
        stores = {}
        for claim in claims:
            bound = reference_bound(claim)
            store = stores.setdefault(bound, SeriesStore(bound))
            assert verify_claim(claim, store, bound).passed, claim.label
            kernel_store = SeriesStore(bound)
            ring = Mod(claim.modulus)
            kernel_store.put(claim.family, claim.modulus,
                             kernel_series(claim.family, bound, ring))
            kernel_store.put(claim.kind.other, claim.modulus,
                             store.get(claim.kind.other, claim.modulus))
            report = verify_claim(claim, kernel_store, bound)
            assert report.passed and report.members > 0, claim.label
            if claim.modulus == 4:
                with monkeypatch.context() as patch:
                    patch.setattr(Series, "inverse_of_unit", no_inverse)
                    plk = build_series(claim.family, bound, ring)
                assert plk == kernel_store.get(claim.family, 4), claim.label


LIFT_FAMILIES = [Family.overpartitions(), Family.odd_overpartitions()] + [
    Family.k_rowed(k) for k in range(1, 14)
]


class TestTwoAdicLift:
    """over over Z/2^r, r <= 3, lifted from over = phi(q) (mod 4).

    Z/16 and Z/32 build over as the Newton inverse, like Z/64.
    """

    @pytest.mark.parametrize("modulus", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("family", LIFT_FAMILIES, ids=str)
    def test_matches_binomial_kernel(self, family, modulus):
        ring = Mod(modulus)
        want = kernel_series(family, 1000, ring)
        for order in (0, 1, 2, 3, 4, 7, 8, 100, 1000):
            got = build_series(family, order, ring)
            assert got == Series(ring, order, want._c[: order + 1]), order

    @pytest.mark.parametrize("modulus", [4, 8, 16, 32])
    def test_matches_newton_inverse_at_scale(self, modulus):
        # mod 16 and 32 over is the Newton inverse itself, so those are
        # checked against the unrolled theta product instead
        ring = Mod(modulus)
        order = 10**5
        got = build_series(Family.overpartitions(), order, ring)
        if modulus <= 8:
            want = phi_series(-1, order, ring).inverse_of_unit()
        else:
            want = phi_product_approx(modulus.bit_length() - 1, order)
        assert got == want, got.first_mismatch(want)

    @pytest.mark.parametrize("modulus,lifted", [(2, True), (4, True), (8, True),
                                                (16, False), (32, False), (64, False),
                                                (12, False), (3, False)])
    def test_route_rule(self, modulus, lifted, monkeypatch):
        monkeypatch.setattr(Series, "inverse_of_unit", no_inverse)
        if lifted:
            assert build_series(Family.overpartitions(), 50, Mod(modulus)) == (
                kernel_series(Family.overpartitions(), 50, Mod(modulus)))
        else:
            with pytest.raises(AssertionError, match="inverse_of_unit"):
                build_series(Family.overpartitions(), 50, Mod(modulus))

    def test_one_builder_call(self, monkeypatch):
        calls = []
        original = genfun.build_series

        def counted(*args):
            calls.append(args)
            return original(*args)

        # mod 8 is lifted over Z/2, Z/4, Z/8, with no Newton inverse
        monkeypatch.setattr(genfun, "build_series", counted)
        monkeypatch.setattr(Series, "inverse_of_unit", no_inverse)
        counted(Family.overpartitions(), 5000, Mod(8))
        assert len(calls) == 1


PLANE_FAMILIES = [Family.plane(), Family.ncolor()]


class TestClassRoute:
    """plane/ncolor over Z/2^r, r >= 4, by residue classes, against the kernel.

    Over Z/2, Z/4 and Z/8 plane and ncolor take the expansion route instead.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(PLANE_FAMILIES),
        bits=st.integers(min_value=4, max_value=8),
        order=st.integers(min_value=0, max_value=1500),
    )
    @example(family=Family.plane(), bits=4, order=1500)
    @example(family=Family.plane(), bits=5, order=1500)
    @example(family=Family.ncolor(), bits=6, order=1024)
    @example(family=Family.plane(), bits=6, order=1023)
    @example(family=Family.plane(), bits=4, order=1499)  # odd order, squared at 749
    @example(family=Family.plane(), bits=5, order=1025)
    @example(family=Family.ncolor(), bits=4, order=1023)  # odd at every level
    # mod 16 on both sides of the cut-off half^2 <= order: kernel at 63, classes at 64
    @example(family=Family.plane(), bits=4, order=63)
    @example(family=Family.plane(), bits=4, order=64)
    @example(family=Family.ncolor(), bits=4, order=63)
    @example(family=Family.ncolor(), bits=4, order=64)
    def test_matches_binomial_kernel(self, family, bits, order):
        ring = Mod(2**bits)
        got = build_series(family, order, ring)
        want = kernel_series(family, order, ring)
        assert got == want, got.first_mismatch(want)

    @pytest.mark.parametrize(
        "modulus,order,route",
        [
            # mod 2 at order 0 is 1 by either route; the rule sends it to the kernel
            (2, 0, False), (2, 5, True),
            (4, 3, False), (4, 4, True),
            (8, 15, False), (8, 16, True),
            (256, 16383, False), (256, 16384, True),
            (12, 10**6, False), (2**40, 10**6, False), (None, 10**6, False),
        ],
    )
    def test_route_rule(self, modulus, order, route):
        ring = EXACT if modulus is None else Mod(modulus)
        assert genfun._class_route(order, ring) is route

    @pytest.mark.parametrize("ring", [EXACT, Mod(12), Mod(2**40), Mod(2**61 + 1)], ids=repr)
    @pytest.mark.parametrize("family", PLANE_FAMILIES, ids=str)
    def test_kernel_rings_unchanged(self, family, ring):
        for order in (0, 1, 2, 13, 200):
            assert build_series(family, order, ring) == kernel_series(family, order, ring)

    def test_independent_of_theta_builders_and_kernel(self, monkeypatch):
        # thm1.2-pl-eq-oddover-mod4 and cor3.2-pl-2n+1-eq-over-mod4 compare
        # plane with oddover and over: both sides must be built apart, by the
        # expansion mod 4 and 8 and by the classes mod 16
        build = genfun.build_series

        def only_plane(family, order, ring=EXACT):
            if family.kind != "plane":
                raise AssertionError(f"plane must not build {family}")
            return build(family, order, ring)

        def broken(*args, **kwargs):
            raise AssertionError("plane mod 2^r must not use this builder")

        monkeypatch.setattr(genfun, "build_series", only_plane)
        for name in ("phi_series", "_over_power", "binomial_product"):
            monkeypatch.setattr(genfun, name, broken)
        got = {m: only_plane(Family.plane(), 2000, Mod(m)) for m in (4, 8, 16)}
        monkeypatch.undo()
        for m, series in got.items():
            assert series == kernel_series(Family.plane(), 2000, Mod(m))

    def test_words_wrap_exactly_or_raise(self):
        assert genfun._wrap_words(2) is np.uint8
        assert genfun._wrap_words(2**8) is np.uint8
        assert genfun._wrap_words(2**9) is np.uint16
        assert genfun._wrap_words(2**33) is np.uint64
        for m in (12, 3, 2**61 + 1):
            with pytest.raises(ValueError, match="wraps exactly"):
                genfun._wrap_words(m)
        with pytest.raises(ValueError, match="wraps exactly"):
            genfun._class_product(1, 2, 50, 12)

    def test_wrapped_class_product_is_exact(self):
        # the true coefficients overflow every word many times over
        order = 1200
        factors = [f for n in range(3, order + 1, 4) for f in (*one_plus(n, 1), (n, -1))]
        for m in (2**8, 2**16, 2**32):
            want = binomial_product(Mod(m), order, factors)
            got = Series(Mod(m), order, genfun._class_product(3, 4, order, m))
            assert got == want, got.first_mismatch(want)


class TestExactPlane:
    """plane/ncolor over Z by the logarithmic-derivative recurrence."""

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(PLANE_FAMILIES),
        order=st.integers(min_value=0, max_value=400),
    )
    @example(family=Family.plane(), order=400)
    @example(family=Family.ncolor(), order=0)
    def test_matches_binomial_kernel(self, family, order):
        got = build_series(family, order)
        want = kernel_series(family, order, EXACT)
        assert got == want, got.first_mismatch(want)

    def test_does_not_use_the_kernel(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("exact plane must not use the kernel")

        monkeypatch.setattr(genfun, "binomial_product", broken)
        assert build_series(Family.plane(), 5).tolist() == [1, 2, 6, 16, 38, 88]


def _multisets(max_part, max_size):
    return [parts for size in range(1, max_size + 1)
            for parts in itertools.combinations_with_replacement(
                range(1, max_part + 1), size)]


def _kernel_orders(monkeypatch):
    """Patch the kernel that genfun calls to record the order of each build."""
    orders = []

    def recorded(ring, order, factors):
        orders.append(order)
        return binomial_product(ring, order, factors)

    monkeypatch.setattr(genfun, "binomial_product", recorded)
    return orders


class TestPeriodTiling:
    """restricted over Z/2^r tiled from one Kwong period, against the kernel."""

    @pytest.mark.parametrize("bits", range(1, 7))
    def test_matches_binomial_kernel(self, bits):
        # orders P+D-2 (kernel), P+D-1 (tiled from the shortest head), P+D, 3P
        ring = Mod(2**bits)
        for parts in _multisets(8, 4):
            family = Family.restricted(parts)
            period = kwong_period(parts, 2, bits).period
            depth = sum(parts)
            top = max(3 * period, period + depth)
            want = kernel_series(family, top, ring)._c
            for order in (period + depth - 2, period + depth - 1,
                          period + depth, 3 * period):
                if order < 0:
                    continue
                got = build_series(family, order, ring)
                assert np.array_equal(got._c, want[: order + 1]), (parts, order)

    @pytest.mark.parametrize("parts,bits", [((1, 2, 2, 3, 3), 3), ((3, 5, 7), 4),
                                            ((2,), 2)])
    def test_route_rule(self, parts, bits, monkeypatch):
        period = kwong_period(parts, 2, bits).period
        depth = sum(parts)
        orders = _kernel_orders(monkeypatch)
        for order in (period + depth - 2, period + depth - 1, 5 * period):
            build_series(Family.restricted(parts), order, Mod(2**bits))
        # the head has P + D terms, order P + D - 1
        assert orders == [period + depth - 2, period + depth - 1,
                          period + depth - 1]

    @pytest.mark.parametrize("wrong", [lambda p: p - 1, lambda p: p // 2,
                                       lambda p: p + 1, lambda p: 2 * p + 3],
                             ids=["P-1", "P/2", "P+1", "2P+3"])
    def test_wrong_period_falls_back_to_the_kernel(self, wrong, monkeypatch):
        parts, ring = (1, 2, 2, 3, 3), Mod(8)
        real = periodicity.kwong_period
        period = real(parts, 2, 3).period  # 96
        order = 10 * period
        monkeypatch.setattr(
            periodicity, "kwong_period",
            lambda *args: replace(real(*args), period=wrong(real(*args).period)))
        orders = _kernel_orders(monkeypatch)
        got = build_series(Family.restricted(parts), order, ring)
        assert orders == [wrong(period) + sum(parts) - 1, order]
        assert got == kernel_series(Family.restricted(parts), order, ring)

    @pytest.mark.parametrize("index", [0, 1, 10])
    def test_check_reads_every_one_of_the_d_terms(self, index, monkeypatch):
        # a head changed at term P + index, index < D = 11, must be refused
        parts, ring, order = (1, 2, 2, 3, 3), Mod(8), 1000
        period = kwong_period(parts, 2, 3).period
        orders = []

        def changed_head(ring, size, factors):
            orders.append(size)
            out = binomial_product(ring, size, factors)
            if size == order:
                return out
            c = out._c.copy()
            c[period + index] += 1
            return Series(ring, size, c)

        monkeypatch.setattr(genfun, "binomial_product", changed_head)
        got = build_series(Family.restricted(parts), order, ring)
        assert orders == [period + sum(parts) - 1, order]
        assert got == kernel_series(Family.restricted(parts), order, ring)

    def test_refused_period_falls_back_to_the_kernel(self):
        # the first 1500 primes: lcm has more than 4300 digits, so
        # kwong_period refuses it and the kernel builds the series
        primes = [p for p in range(2, 12554)
                  if all(p % d for d in range(2, math.isqrt(p) + 1))]
        assert len(primes) == 1500
        with pytest.raises(ValueError, match="digits"):
            kwong_period(primes, 2, 3)
        family = Family.restricted(primes)
        got = build_series(family, 10, Mod(8))
        assert got == kernel_series(family, 10, Mod(8))

    @pytest.mark.parametrize("ring", [EXACT, Mod(12), Mod(3), Mod(2**61 + 1)],
                             ids=repr)
    def test_other_rings_keep_the_kernel(self, ring, monkeypatch):
        def refused(*args):
            raise AssertionError("only Z/2^r consults kwong_period")

        monkeypatch.setattr(periodicity, "kwong_period", refused)
        for parts in ((1, 2, 2, 3, 3), (3, 5, 7), (2,)):
            family = Family.restricted(parts)
            for order in (0, 1, 40, 400):
                assert build_series(family, order, ring) == (
                    kernel_series(family, order, ring))


CLOSED_FORM_FAMILIES = [Family.overpartitions(), Family.odd_overpartitions(),
                        Family.plane(), Family.ncolor(),
                        *(Family.k_rowed(k) for k in range(1, 14))]


class TestClosedForms:
    """Every non-restricted family mod 4 and 8 against its divisor-sum form.

    The closed forms need no theta series, lift, balanced exponent, Newton
    inverse, class route or kernel, so they reach orders the kernel cannot.
    """

    @pytest.mark.parametrize("modulus", [4, 8])
    @pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=str)
    def test_reference_matches_the_kernel(self, family, modulus):
        want = kernel_series(family, 200, Mod(modulus))
        assert closed_form(family, 200, modulus) == want

    def test_exponent_table_matches_the_reference(self):
        n = np.arange(1, 101)
        for family in CLOSED_FORM_FAMILIES:
            want = EXPONENTS[family.kind](n, family.k).tolist()
            assert [family.exponent(i) for i in n.tolist()] == want, family
        with pytest.raises(ValueError, match="restricted"):
            Family.restricted([1, 2]).exponent(1)

    @pytest.mark.parametrize("modulus,order", [(4, 10**5), (8, 2 * 10**4)])
    @pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=str)
    def test_build_matches(self, family, modulus, order):
        got = build_series(family, order, Mod(modulus))
        want = closed_form(family, order, modulus)
        assert got == want, got.first_mismatch(want)


EXPANSION_CASES = [(family, m) for family in CLOSED_FORM_FAMILIES for m in (2, 4)]
EXPANSION_CASES += [(family, 8) for family in PLANE_FAMILIES]
EXPANSION_ORDER = 600


def expansion_case_id(case):
    return f"{case[0]}-mod{case[1]}"


class TestExpansionRoute:
    """Every family but over mod 2 and 4, and plane/ncolor mod 8, by divisor sums.

    Checked against the binomial kernel over Z, reduced: that reference
    shares neither the expansion nor the exponent table with the route.
    over and plk1, the same series, keep the lift from phi(q) there and
    are drawn here all the same.
    """

    @settings(max_examples=120, deadline=None)
    @given(case=st.sampled_from(EXPANSION_CASES),
           order=st.integers(min_value=0, max_value=EXPANSION_ORDER))
    @example(case=(Family.plane(), 8), order=576)  # N = 24^2
    @example(case=(Family.plane(), 8), order=577)
    @example(case=(Family.ncolor(), 8), order=575)
    @example(case=(Family.ncolor(), 8), order=578)  # N = 2 * 17^2
    @example(case=(Family.plane(), 4), order=578)
    @example(case=(Family.odd_overpartitions(), 4), order=512)  # N = 2 * 16^2
    @example(case=(Family.overpartitions(), 4), order=577)
    @example(case=(Family.k_rowed(13), 4), order=12)  # order < k
    @example(case=(Family.k_rowed(12), 4), order=11)
    @example(case=(Family.k_rowed(8), 4), order=2)
    @example(case=(Family.k_rowed(2), 4), order=1)
    @example(case=(Family.k_rowed(13), 2), order=0)
    @example(case=(Family.plane(), 8), order=0)
    @example(case=(Family.plane(), 8), order=1)
    def test_matches_exact_kernel(self, case, order):
        family, m = case
        want = Series(Mod(m), order, _exact_kernel(family, EXPANSION_ORDER)[: order + 1])
        got = build_series(family, order, Mod(m))
        assert got == want, (order, got.first_mismatch(want))

    @pytest.mark.parametrize("case", EXPANSION_CASES, ids=expansion_case_id)
    def test_every_case_at_full_order(self, case):
        family, m = case
        want = Series(Mod(m), EXPANSION_ORDER, _exact_kernel(family, EXPANSION_ORDER))
        got = build_series(family, EXPANSION_ORDER, Mod(m))
        assert got == want, got.first_mismatch(want)

    def test_uses_no_other_builder(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("the expansion route must not use this builder")

        for name in ("_lift", "_class_product", "binomial_product", "_over_power"):
            monkeypatch.setattr(genfun, name, broken)
        monkeypatch.setattr(Series, "inverse_of_unit", broken)
        monkeypatch.setattr(Series, "mul", broken)
        cases = [(f, m) for f, m in EXPANSION_CASES if f.kind != "over" and f.k != 1]
        got = {(f, m): build_series(f, 300, Mod(m)) for f, m in cases}
        monkeypatch.undo()
        for (family, m), series in got.items():
            assert series == kernel_series(family, 300, Mod(m)), (family, m)

    @pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=str)
    def test_exponents_are_the_scalar_table(self, family):
        got = family.exponents(60)
        assert got.dtype == np.int64
        assert got.tolist() == [family.exponent(n) for n in range(61)]
        assert got[0] == 0
        assert got[1:].tolist() == EXPONENTS[family.kind](np.arange(1, 61), family.k).tolist()

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 14, 60])
    @pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=str)
    def test_parity_pattern(self, family, order):
        # the pattern the table follows for large d, and the finite head
        # where it departs: any pattern gives the same sums, a wrong one
        # only a longer head
        c0, c1, head = genfun._parity_pattern(family.exponents(order))
        e = EXPONENTS[family.kind](np.arange(order + 1), family.k)
        for d in range(1, order + 1):
            assert e[d] % 2 == (c0 + c1 * (d % 2) + (d in head)) % 2, d
        k = 1 if family.kind == "over" else family.k or order
        if order < 2:  # one d or none: nothing to tell patterns apart
            return
        if order > k and k % 2:
            assert (c0, c1, head) == (1, 0, list(range(2, k, 2)))
        elif order > k:
            assert (c0, c1, head) == (0, 0, list(range(1, k, 2)))
        else:  # oddover, plane, ncolor and plk up to k: e_d = d (mod 2)
            assert (c0, c1, head) == (0, 1, [])

    @pytest.mark.parametrize("m", [2, 4])
    def test_rows_beyond_int64(self, m):
        # k above the order changes nothing: plk is plane up to k rows
        huge = Family.k_rowed(10**30)
        assert huge.exponents(40).tolist() == list(range(41))
        assert build_series(huge, 40, Mod(m)) == build_series(Family.plane(), 40, Mod(m))

    def test_restricted_has_no_exponents(self):
        with pytest.raises(ValueError, match="restricted"):
            Family.restricted([1, 2]).exponents(5)


class TestKernelFactors:
    """genfun's one factor (1 - q^s)^(k_s) per s, against the R-form pairs.

    The kernel routes and the exact plane recurrence read the same factor
    list, so both are checked against pairs written out from ``EXPONENTS``.
    """

    @pytest.mark.parametrize("ring", [EXACT, Mod(4), Mod(8), Mod(12), Mod(2**61)], ids=repr)
    @pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=str)
    def test_build_matches_r_form_pairs(self, family, ring):
        for order in (0, 1, 2, 17, 300):
            got = build_series(family, order, ring)
            want = binomial_product(ring, order, r_form_factors(family, order))
            assert got == want, (order, got.first_mismatch(want))

    @pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=str)
    def test_one_factor_per_part_size(self, family):
        factors = list(genfun._family_factors(family, 60))
        sizes = [s for s, _ in factors]
        assert sizes == sorted(set(sizes))
        assert all(k for _, k in factors)
        assert binomial_product(EXACT, 60, factors) == kernel_series(family, 60, EXACT)


CUTOFF_MODULI = sorted({*(2**r for r in range(1, 7)), *(3 * 2**r for r in range(5)),
                        3, 9, 27, 5, 7, 2**32, 2**61, 3037000500, 3037000501})
FREE_ORDER = 300  # orders drawn where no order cut-off applies
PLANE_ORDER = 34**2  # above every plane class-route cut-off drawn, M^2 <= 32^2


@functools.lru_cache(maxsize=None)
def _exact_kernel(family, order):
    return kernel_series(family, order, EXACT).tolist()


def _order_cutoffs(family, modulus):
    """The orders at which ``build_series`` changes route over Z/modulus.

    plk's correction list grows up to order k - 1, the last R(q^i), and
    ends at 2k - 2, its last factor 1 - q^(2i).  plane and ncolor take the
    class route once M^2 <= order, M = modulus/2, from Z/16 on; a
    restricted family is tiled once P + D <= order + 1.  Both need a power
    of two; empty where no order cut-off applies below 10^4.
    """
    if family.kind == "plk":
        return [family.k - 1, 2 * family.k - 2]
    if modulus & (modulus - 1):
        return []
    if family.kind in ("plane", "ncolor") and modulus >= 16:
        cutoff = (modulus // 2) ** 2
        return [cutoff] if cutoff + 2 <= PLANE_ORDER else []
    if family.kind == "restricted":
        period = kwong_period(family.parts, 2, modulus.bit_length() - 1).period
        cutoff = period + sum(family.parts) - 1
        return [cutoff] if cutoff + 2 <= 10**4 else []
    return []


class TestRouteCutoffs:
    """Every family within 2 of each route cut-off, and at a drawn order,
    against the exact kernel.

    The moduli include both sides of over's M <= 4 and of the kernel's
    (m-1)^2 + m >= 2^63 (3037000500 and 3037000501), moduli with an odd
    factor and 2^32 and 2^61, whose class-route and tiling cut-offs lie far
    beyond any order built here.  The plk examples put an exponent on
    ``_balanced``'s tie, k - e_i or k = M/2 (mod M).
    """

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.one_of(
            st.sampled_from(CLOSED_FORM_FAMILIES),
            st.lists(st.integers(1, 6), min_size=1, max_size=4).map(Family.restricted),
        ),
        modulus=st.sampled_from(CUTOFF_MODULI),
        offset=st.integers(-2, 2),
        free=st.integers(0, FREE_ORDER),
    )
    @example(family=Family.plane(), modulus=64, offset=-1, free=0)
    @example(family=Family.plane(), modulus=64, offset=0, free=0)
    @example(family=Family.ncolor(), modulus=16, offset=-1, free=0)
    @example(family=Family.ncolor(), modulus=16, offset=0, free=0)
    @example(family=Family.restricted([1, 2, 2, 3, 3]), modulus=64, offset=-1, free=0)
    @example(family=Family.restricted([1, 2, 2, 3, 3]), modulus=64, offset=0, free=0)
    @example(family=Family.plane(), modulus=3037000500, offset=0, free=FREE_ORDER)
    @example(family=Family.plane(), modulus=3037000501, offset=0, free=FREE_ORDER)
    # k = 6 = M/2 (mod M = 4), and k - e_4 = 2
    @example(family=Family.k_rowed(6), modulus=8, offset=0, free=0)
    # k - e_i = 4 = M/2 (mod M = 8) at i = 1 and 9; and k = 12 = M/2 (mod 8)
    @example(family=Family.k_rowed(13), modulus=16, offset=-2, free=0)
    @example(family=Family.k_rowed(12), modulus=16, offset=2, free=0)
    # k - e_5 = 8 = M/2 (mod M = 16)
    @example(family=Family.k_rowed(13), modulus=32, offset=1, free=0)
    @example(family=Family.k_rowed(13), modulus=3037000500, offset=0, free=FREE_ORDER)
    @example(family=Family.k_rowed(13), modulus=3037000501, offset=0, free=FREE_ORDER)
    def test_matches_exact_kernel(self, family, modulus, offset, free):
        cutoffs = _order_cutoffs(family, modulus)
        for order in [*(max(c + offset, 0) for c in cutoffs), free]:
            if family.kind == "restricted":
                exact = _exact_kernel(family, order)
            else:
                top = PLANE_ORDER if family.kind in ("plane", "ncolor") else FREE_ORDER
                exact = _exact_kernel(family, top)[: order + 1]
            want = Series(Mod(modulus), order, exact)
            got = build_series(family, order, Mod(modulus))
            assert got == want, (order, got.first_mismatch(want))


class TestPhi:
    def test_plus_prefix(self):
        assert phi_series(1, 9).tolist() == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]

    def test_minus_prefix(self):
        assert phi_series(-1, 4).tolist() == [1, -2, 0, 0, 2]

    def test_minus_inverts_overpartitions(self):
        order = 120
        prod = phi_series(-1, order).mul(build_series(Family.overpartitions(), order))
        assert prod == Series.one(EXACT, order)

    def test_inverse_of_phi_minus_is_overpartition_series(self):
        inv = phi_series(-1, 4).inverse_of_unit()
        assert inv.tolist() == [1, 2, 4, 8, 14]


class TestSumOfSquares:
    def test_k_one_is_square_indicator(self):
        s = sum_of_squares_series(1, 20)
        assert [n for n in range(21) if s[n]] == [1, 4, 9, 16]
        assert all(s[n * n] == 1 for n in range(1, 5))

    def test_small_values(self):
        s = sum_of_squares_series(2, 10)
        assert s[5] == 2  # 1+4 and 4+1
        assert s[3] == 0
        assert s[2] == 1

    def test_k_validation(self):
        with pytest.raises(ValueError):
            sum_of_squares_series(0, 5)


class TestTwoAdic:
    def test_k2_is_theta_mod_four(self):
        order = 80
        got = two_adic_overpartition(order, 2)
        assert got == phi_series(1, order, Mod(4))

    def test_k3_is_phi_phi2_squared(self):
        order = 120
        got = two_adic_overpartition(order, 3)
        phi1 = phi_series(1, order, Mod(8))
        phi2 = phi_series(1, order // 2, Mod(8)).inflate(2, order)
        assert got == phi1.mul(phi2).mul(phi2)

    @pytest.mark.parametrize("bits", range(2, 7))
    def test_matches_product_construction(self, bits):
        order = 500
        want = build_series(Family.overpartitions(), order, Mod(2**bits))
        assert two_adic_overpartition(order, bits) == want
        assert phi_product_approx(bits, order) == want

    def test_modular_build_equals_exact_reduction(self):
        order = 300
        exact = build_series(Family.overpartitions(), order)
        for bits in (2, 4, 6):
            assert (
                build_series(Family.overpartitions(), order, Mod(2**bits))
                == exact.reduce_mod(2**bits)
            )

    @pytest.mark.parametrize("bits", range(2, 7))
    def test_odd_parts_product(self, bits):
        order = 500
        want = build_series(Family.odd_overpartitions(), order, Mod(2**bits))
        assert phi_product_approx(bits, order, odd_parts=True) == want

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            two_adic_overpartition(10, 1)


class TestTailProducts:
    def test_plane_factorizes_through_tails(self):
        # plane = over * prod_{n>=1} prod_{i>n} (1+q^i)/(1-q^i)
        order = 100
        acc = build_series(Family.overpartitions(), order)
        for n in range(1, order + 1):
            tail = [f for i in range(n + 1, order + 1) for f in (*one_plus(i, 1), (i, -1))]
            acc = acc.mul(binomial_product(EXACT, order, tail))
        assert acc == build_series(Family.plane(), order)


class TestIdentityChecks:
    def test_phi_factorizations_pass(self):
        for label, lhs, rhs in phi_factorizations(200):
            assert lhs == rhs, (label, lhs.first_mismatch(rhs))

    def test_phi_factorizations_do_not_use_build_series(self, monkeypatch):
        def broken(*args):
            raise AssertionError("the identity check must not use build_series")

        monkeypatch.setattr(genfun, "build_series", broken)
        for label, lhs, rhs in phi_factorizations(60):
            assert lhs == rhs, (label, lhs.first_mismatch(rhs))

    def test_jacobi_specializations_pass(self):
        for label, lhs, rhs in jacobi_specializations(100):
            assert lhs == rhs, (label, lhs.first_mismatch(rhs))

    def test_order_zero_trivially_passes(self):
        for label, lhs, rhs in phi_factorizations(0) + jacobi_specializations(0):
            assert lhs == rhs, label
