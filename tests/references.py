"""Reference series that several test files compare qcong's builders against.

None of them goes through ``genfun.build_series``: the binomial kernel
applied to a family's factors as written out here, the two sides of the
theta identities, the square-count series, the 2-adic expansion and the
finite theta product of the overpartition series, and the factor
(1+q^n)/(1-q^n).  Also the shift-by-shift period scan that
``periodicity.empirical_period`` replaced, a restricted family whose Kwong
period is too long to print, and the divisor-sum closed forms of the other
families modulo 4, 8 and 16.
"""

import functools
import math

import numpy as np

from qcong.genfun import Family, phi_series
from qcong.series import EXACT, Mod, Ring, Series, binomial_product


def one_plus(n, e):
    """(1 + q^n)^e as kernel factors: (1 - q^(2n))^e times (1 - q^n)^(-e)."""
    return [(2 * n, e), (n, -e)]


def r_form_factors(family, order):
    """The family's kernel factors, written out apart from ``genfun``.

    (1 - q^a)^-1 per part a of a restricted family; otherwise the product
    of R(q^n)^(e_n) as it reads, (1 + q^n)^(e_n) and (1 - q^n)^(-e_n) for
    each n <= order with e_n from ``EXPONENTS``.  genfun hands the kernel
    one (1 - q^s)^(k_s) per s instead.
    """
    if family.kind == "restricted":
        return [(part, -1) for part in family.parts]
    e = EXPONENTS[family.kind](np.arange(order + 1), family.k).tolist()
    return [factor for n in range(1, order + 1) if e[n]
            for factor in (*one_plus(n, e[n]), (n, -e[n]))]


def kernel_series(family, order, ring):
    """The family through the binomial kernel, the independent reference."""
    return binomial_product(ring, order, r_form_factors(family, order))


def phi_factorizations(order: int):
    """(label, lhs, rhs) for the theta refactorings of the overpartition series.

    P(q) = phi(q) * P(q^2)^2 and P_odd(q) = phi(q) * P(q^2), with both
    families built by the binomial kernel: build_series itself uses these
    identities.
    """
    over = kernel_series(Family.overpartitions(), order, EXACT)
    odd = kernel_series(Family.odd_overpartitions(), order, EXACT)
    phi = phi_series(+1, order)
    over_q2 = over.inflate(2)
    return [
        ("over = phi * over(q^2)^2", over, phi.mul(over_q2).mul(over_q2)),
        ("oddover = phi * over(q^2)", odd, phi.mul(over_q2)),
    ]


def jacobi_specializations(order: int):
    """(label, lhs, rhs) for the z = +/-1 cases of the triple product identity.

    prod (1-q^(2n))(1 +/- q^(2n-1))^2 equals the theta series phi(+/-q).
    """

    def product(sign: int) -> Series:
        def factors():
            for n in range(1, order + 1):
                if 2 * n <= order:
                    yield (2 * n, 1)
                if 2 * n - 1 <= order:
                    yield from one_plus(2 * n - 1, 2) if sign > 0 else [(2 * n - 1, 2)]

        return binomial_product(EXACT, order, factors())

    return [
        ("triple product, z=+1", product(+1), phi_series(+1, order)),
        ("triple product, z=-1", product(-1), phi_series(-1, order)),
    ]


def f_series(n: int, order: int, ring: Ring = EXACT) -> Series:
    """The factor (1+q^n)/(1-q^n) = 1 + 2*sum_{m>=1} q^(n*m), truncated."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for j in range(n, order + 1, n):
        coeffs[j] = 2
    return Series(ring, order, coeffs)


def _positive_square_series(order: int, ring: Ring, stride: int = 1) -> Series:
    """sum_{n>=1} q^(stride * n^2), truncated."""
    coeffs = [0] * (order + 1)
    n = 1
    while stride * n * n <= order:
        coeffs[stride * n * n] = 1
        n += 1
    return Series(ring, order, coeffs)


def sum_of_squares_series(k: int, order: int, ring: Ring = EXACT) -> Series:
    """Series of c_k(n): ordered representations of n as k positive squares."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _positive_square_series(order, ring).pow(k)


def two_adic_overpartition(order: int, bits: int) -> Series:
    """Overpartition series mod 2^bits from its 2-adic square-count expansion.

    Returns 1 + sum_{j=1}^{bits-1} 2^j sum_n (-1)^(n+j) c_j(n) q^n over
    Z/2^bits; equal to the product form of the overpartition series.
    """
    if bits < 2:
        raise ValueError("bits must be >= 2")
    ring = Mod(2**bits)
    base = _positive_square_series(order, ring)
    acc = [0] * (order + 1)
    acc[0] = 1
    c_j = None
    for j in range(1, bits):
        c_j = base if c_j is None else c_j.mul(base)
        scale = 2**j
        for n in range(1, order + 1):
            parity = -1 if (n + j) % 2 else 1
            acc[n] += scale * parity * c_j[n]
    return Series(ring, order, acc)


def phi_product_approx(bits: int, order: int, odd_parts: bool = False) -> Series:
    """Finite theta product congruent to the (odd-parts) overpartition series.

    mod 2^bits:  prod_{j=0..bits-2} phi(q^(2^j))^(2^j)  for overpartitions;
    with odd_parts, phi(q) * prod_{j=1..bits-1} phi(q^(2^j))^(2^(j-1)) for
    overpartitions into odd parts.
    """
    if bits < 2:
        raise ValueError("bits must be >= 2")
    ring = Mod(2**bits)
    if odd_parts:
        layers = [(1, 1)] + [(2**j, 2 ** (j - 1)) for j in range(1, bits)]
    else:
        layers = [(2**j, 2**j) for j in range(bits - 1)]
    out = Series.one(ring, order)
    for stride, exponent in layers:
        theta = _positive_square_series(order, ring, stride=stride)
        factor = Series.one(ring, order).add(theta).add(theta)  # 1 + 2*theta
        out = out.mul(factor.pow(exponent))
    return out


def byte_scan_period(series: Series, max_period: int) -> int | None:
    """Smallest d <= max_period with coeff(n + d) = coeff(n) for all n, or None.

    One byte compare of the whole coefficient buffer per candidate shift.
    """
    arr = series._c
    buf = memoryview(arr.tobytes())
    step = arr.itemsize
    for d in range(1, max_period + 1):
        if buf[d * step :] == buf[: -d * step]:
            return d
    return None


# Parts 1 and the first 1200 primes from 1009: the 2-free part of their lcm
# has about 4443 digits, so ``kwong_period`` refuses every period mod 2^r.
UNPRINTABLE_LCM_PARTS = [1] + [
    p for p in range(1009, 11318) if all(p % d for d in range(2, math.isqrt(p) + 1))
]


@functools.lru_cache(maxsize=2)
def _divisor_pairs(order: int):
    """(d, j) for every product d*j <= order of positive integers, as arrays."""
    quotients = [np.arange(1, order // d + 1) for d in range(1, order + 1)]
    d = np.repeat(np.arange(1, order + 1), [len(q) for q in quotients])
    return d, np.concatenate(quotients)


# e_n of F = prod_n R(q^n)^(e_n) per family kind, for an array n and the row
# count k of plk.  Written out here, not read from ``Family.exponent``, so the
# kernel reference and the closed forms stay independent of the code they check.
EXPONENTS = {
    "over": lambda n, k: np.ones_like(n),
    "oddover": lambda n, k: n % 2,
    "plk": lambda n, k: np.minimum(n, k),
    "plane": lambda n, k: n,
    "ncolor": lambda n, k: n,
}


def _parity_square(bits):
    """(sum_N bits[N] q^N)^2 truncated, exactly, for a 0/1 int64 array.

    When the ones are few, O(sqrt N) as for over, oddover, plane and
    ncolor, their pair sums are counted; otherwise one ``_fft_product``.
    """
    order = len(bits) - 1
    ones = np.flatnonzero(bits)
    if len(ones) <= 2 * math.isqrt(order + 1):
        sums = (ones[:, None] + ones[None, :]).ravel()
        return np.bincount(sums[sums <= order], minlength=order + 1)
    return _fft_product(bits, bits)


def _fft_product(a, b):
    """a*b truncated at len(a) - 1, exactly, for small nonnegative int64 arrays.

    One float FFT product, rounded with a check that no value used lies
    1/4 or more from an integer.
    """
    order = len(a) - 1
    size = 1 << (2 * order + 1).bit_length()
    spectrum = np.fft.rfft(a.astype(np.float64), size) * np.fft.rfft(b.astype(np.float64), size)
    product = np.fft.irfft(spectrum, size)[: order + 1]
    rounded = np.rint(product)
    assert np.abs(product - rounded).max() < 0.25, "FFT product rounding"
    return rounded.astype(np.int64)


def closed_form(family: Family, order: int, modulus: int) -> Series:
    """A non-restricted family modulo 4, 8 or 16 from divisor sums alone.

    Every such family is F = prod_n R(q^n)^(e_n) with
    R(x) = (1+x)/(1-x) = 1 + 2L(x), L(x) = x/(1-x), and e_n from
    ``EXPONENTS``.  Since
    (1+2L)^e = 1 + 2eL + 4*C(e,2)*L^2 (mod 8) for every integer e,
    F = 1 + 2S (mod 4) and F = 1 + 2S + 2S^2 - 2T (mod 8), where
    S = sum_n e_n*L(q^n) has coefficients s(N) = sum_{d|N} e_d and
    T = sum_n e_n*L(q^n)^2 has t(N) = sum_{d|N} e_d*(N/d - 1).  S^2 is
    needed mod 4, where it equals (S mod 2)^2 (``_parity_square``).
    Modulo 16 see ``_closed_form_16``.
    """
    if modulus not in (4, 8, 16):
        raise ValueError(f"closed forms are mod 4, 8 and 16, not {modulus}")
    e = EXPONENTS[family.kind](np.arange(order + 1), family.k)
    d, j = _divisor_pairs(order)

    def divisor_sum(weights):
        # weights reduced mod 16 keep the float64 sums far below 2^53, exact
        total = np.bincount(d * j, weights=weights % 16, minlength=order + 1)
        return np.rint(total).astype(np.int64)

    s = divisor_sum(e[d])
    if modulus == 4:
        out = 2 * s
    elif modulus == 8:
        out = 2 * s + 2 * _parity_square(s % 2) - 2 * divisor_sum(e[d] * (j - 1))
    else:
        out = _closed_form_16(s, divisor_sum(e[d] * (j - 1)),
                              divisor_sum(e[d] * ((j - 1) * (j - 2) // 2 % 16)))
    out[0] = 1
    return Series(Mod(modulus), order, out % modulus)


def _closed_form_16(p1, p2, p3):
    """F mod 16 from the power sums p_i(N) = sum_{d|N} e_d*C(N/d - 1, i - 1).

    F = E(2) for E(t) = prod_n (1 + t*L(q^n))^(e_n) = sum_j E_j*t^j, so
    F = 1 + 2*E_1 + 4*E_2 + 8*E_3 (mod 16), and Newton's identities give
    E_1 = p_1, 2*E_2 = p_1^2 - p_2 and 3*E_3 = E_2*p_1 - E_1*p_2 + p_3.
    E_2 is needed mod 4, so p_1^2 mod 8, one dense FFT square; E_3 mod 2
    is p_1*(E_2 + p_2) + p_3, one FFT product of parities.
    """
    e2 = (_fft_product(p1 % 8, p1 % 8) - p2) % 8 // 2
    e3 = _fft_product(p1 % 2, (e2 + p2) % 2) + p3
    return 2 * p1 + 4 * e2 + 8 * e3
