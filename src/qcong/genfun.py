"""Named generating functions for the partition families.

Every non-restricted family is prod_n R(q^n)^(e_n), R(x) = (1+x)/(1-x), with
e_n from ``Family.exponent``.  As R(x)^e = (1-x^2)^e / (1-x)^(2e),
``_r_form_factors`` gives it as prod_s (1-q^s)^(k_s) with
k_s = e_(s/2)*[s even] - 2*e_s; restricted is prod_a 1/(1-q^a) over its
parts.  The binomial kernel truncates either product at factor index
s = order, exact because factor s only contributes from degree s on, and
stays the independent reference of the faster routes ``build_series`` takes.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

from .series import EXACT, Ring, Series, binomial_product, lazy_import
from .series import _divide_one_minus, _sparse_power

np = lazy_import("numpy")

FAMILY_KINDS = ("over", "oddover", "plane", "plk", "restricted", "ncolor")


@dataclass(frozen=True)
class Family:
    """Identifier for one of the partition families with generating functions.

    kind 'plk' is the k-rowed plane overpartition family and needs k >= 1;
    'restricted' is partitions into parts from a multiset, held as the sorted
    tuple of its parts with repeats.  ``exponent`` and ``exponents`` give the
    products of the other kinds.
    """

    kind: str
    k: int | None = None
    parts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "plk":
            if self.k is None or self.k < 1:
                raise ValueError("plk family needs k >= 1")
        elif self.k is not None:
            raise ValueError(f"family {self.kind!r} does not take k")
        if self.kind == "restricted":
            if self.parts is None:
                raise ValueError("restricted family needs a part multiset")
            parts = tuple(sorted(int(p) for p in self.parts))
            if not parts:
                raise ValueError("multiset must be nonempty")
            if parts[0] < 1:
                raise ValueError(f"parts must be >= 1, got {parts[0]}")
            object.__setattr__(self, "parts", parts)
        elif self.parts is not None:
            raise ValueError(f"family {self.kind!r} does not take parts")

    @classmethod
    def overpartitions(cls) -> "Family":
        return cls("over")

    @classmethod
    def odd_overpartitions(cls) -> "Family":
        return cls("oddover")

    @classmethod
    def plane(cls) -> "Family":
        return cls("plane")

    @classmethod
    def k_rowed(cls, k: int) -> "Family":
        return cls("plk", k=k)

    @classmethod
    def restricted(cls, parts) -> "Family":
        """Partitions into parts from an iterable of ints, repeats kept."""
        return cls("restricted", parts=parts)

    @classmethod
    def ncolor(cls) -> "Family":
        return cls("ncolor")

    @functools.cached_property
    def token(self) -> str:
        """Compact stable string form, e.g. 'plk4' or 'restricted:1,2,2'."""
        if self.kind == "plk":
            return f"plk{self.k}"
        if self.kind == "restricted":
            return "restricted:" + ",".join(map(str, self.parts))
        return self.kind

    @classmethod
    def from_token(cls, token: str) -> "Family":
        """Inverse of ``token``; a malformed token raises ValueError."""
        if not isinstance(token, str):
            raise ValueError(f"family token must be a string, got {token!r}")
        if token.startswith("plk"):
            digits = token[3:]
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(
                    f"family token {token!r}: plk needs a row count, e.g. plk4"
                )
            return cls.k_rowed(int(digits))
        if token.startswith("restricted:"):
            body = token.split(":", 1)[1]
            if not all(p.isascii() and p.isdigit() for p in body.split(",")):
                raise ValueError(
                    f"family token {token!r}: restricted needs comma-separated "
                    "parts, e.g. restricted:1,2,2"
                )
            return cls.restricted([int(p) for p in body.split(",")])
        return cls(token)

    def _exponent_rule(self, n, minimum):
        """e_n of the family as prod_n R(q^n)^(e_n), R(x) = (1+x)/(1-x).

        e_n = 1 (over), [n odd] (oddover), min(k, n) (plk) and n (plane, the
        Corteel-Savelief-Vuletic product; ncolor shares it by definition, as
        checked against the enumeration oracle), for n >= 1, and e_0 = 0;
        over is min(1, n), plk with k = 1.
        ``n`` is an int or an int64 array with its ``minimum``, so
        ``exponent`` and ``exponents`` are one table, which every
        construction route reads.  restricted has none and raises ValueError.
        """
        if self.kind == "restricted":
            raise ValueError("restricted family has no exponents of R(q^n)")
        if self.kind == "oddover":
            return n & 1
        if self.kind in ("over", "plk"):
            return minimum(n, 1 if self.k is None else self.k)
        return n

    def exponent(self, n: int) -> int:
        """e_n, the scalar view of ``_exponent_rule``."""
        return self._exponent_rule(n, min)

    def exponents(self, order: int) -> np.ndarray:
        """e_0, ..., e_order as an int64 array, the array view of ``_exponent_rule``.

        A bound k above the order is cut to it, so any k fits in int64.
        """
        n = np.arange(order + 1, dtype=np.int64)
        return self._exponent_rule(n, lambda n, k: np.minimum(n, min(k, order), out=n))

    def __str__(self) -> str:
        return self.token

    # the token is injective on valid families and cached, so keys stay cheap
    def __eq__(self, other) -> bool:
        return self.token == other.token if isinstance(other, Family) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.token)


def _r_form_factors(exponent, top: int):
    """Nonzero (s, k_s), s <= top: prod_n R(q^n)^exponent(n) = prod_s (1-q^s)^(k_s)."""
    for s in range(1, top + 1):
        if k := (s % 2 == 0 and exponent(s // 2)) - 2 * exponent(s):
            yield s, k


def _family_factors(family: Family, order: int):
    if family.kind == "restricted":
        return ((part, -1) for part in family.parts)
    return _r_form_factors(family.exponent, order)


def build_series(family: Family, order: int, ring: Ring = EXACT) -> Series:
    """Truncated generating function of the family over the given ring.

    With e_n = ``family.exponent(n)`` and M = 2^(r-1) over Z/2^r: over, and
    plk1 with the same exponents outside Z, is 1/phi(-q) by Newton
    inversion, or over Z/2, Z/4 and Z/8 the ``_lift`` of over = phi(q)
    (mod 4).  Every other
    non-restricted family over Z/2 and Z/4, and plane and ncolor over Z/8,
    is read off the divisor sums of its exponents (``_expansion``).
    Otherwise oddover is phi(q) * over(q^2); plk is
    over^k * prod_{i<k} R(q^i)^(e_i - k), each exponent reduced by
    ``_balanced`` modulo M since R(x)^M = 1 (mod 2M), and a negative power of
    over is one of phi(-q), so no plk modulo 8 needs an inverse.  plane
    and ncolor take the ``_lift`` of their residue classes when
    ``_class_route`` allows it, and over Z ``_log_derivative_exact``.
    restricted over Z/2^r is tiled from one checked Kwong period that fits
    the order (``_restricted_by_period``).  The rest goes through the kernel.
    """
    if not 0 <= order <= sys.maxsize // 8:  # int64 words, addressable in bytes
        raise ValueError(f"order must be between 0 and {sys.maxsize // 8}, got {order}")
    half = _two_power_half(ring)  # 2^(r-1) over Z/2^r, else None
    if family.kind == "over" or family.k == 1 and not ring.exact:  # plk1 is over
        if half is not None and half <= 4:  # above Z/8 Newton is faster
            return _lift(order, ring, half, lambda n, r, _: phi_series(+1, n, r))
        return phi_series(-1, order, ring).inverse_of_unit()
    if half is not None and family.kind != "restricted" and (
            half <= 2 or half == 4 and family.kind in ("plane", "ncolor")):
        return _expansion(family, order, ring)
    if family.kind == "oddover":
        over_q2 = build_series(Family.overpartitions(), order // 2, ring)
        return phi_series(+1, order, ring).mul(over_q2.inflate(2, order))
    if family.kind == "plk":
        k = family.k
        # R(q^i)^(e_i - k), the exponent balanced mod M with ties going
        # positive; it is 0 from i = k on, so no factor lies beyond 2k
        corrections = _r_form_factors(
            lambda i: -_balanced(k - family.exponent(i), half), min(2 * k, order))
        return binomial_product(ring, order, corrections,
                                _over_power(_balanced(k, half), order, ring))
    if family.kind in ("plane", "ncolor"):
        if ring.exact:
            return _log_derivative_exact(family, order)
        if _class_route(order, ring):
            return _lift(order, ring, half, functools.partial(_class_odd_part, family))
    if family.kind == "restricted" and half is not None:
        tiled = _restricted_by_period(family, order, ring)
        if tiled is not None:
            return tiled
    return binomial_product(ring, order, _family_factors(family, order))


def _expansion(family: Family, order: int, ring: Ring) -> Series:
    """A non-restricted family over Z/2, Z/4 or Z/8 from divisor sums.

    R(x) = 1 + 2L(x), L(x) = x/(1-x), and (1+2L)^e = 1 + 2eL + 4*C(e,2)*L^2
    (mod 8) for every integer e, so F = prod_n R(q^n)^(e_n) is
    F = 1 + 2S (mod 4) and F = 1 + 2S + 2S^2 - 2T (mod 8), where S has
    coefficients s(N) = sum_{d|N} e_d and T has t(N) = sum_{d|N} e_d*(N/d - 1)
    (arXiv 1706.03617).  Modulo 2, F is 1.  Modulo 8 only S mod 2 enters
    S^2; it must have few ones (O(sqrt N) for plane and ncolor), since the
    square is taken pair by pair (``_sparse_square``).
    """
    m = ring.modulus
    if m == 2:
        return Series.one(ring, order)
    e = family.exponents(order)
    if m == 4:
        out = _divisor_sum_parity(e)
        out <<= 1
    else:
        s, t = _divisor_sums(e)
        odd = np.flatnonzero(s & 1)
        out = (s - t + _sparse_square(odd, order)).astype(np.int64)
        out <<= 1
        out &= m - 1
    out[0] = 1
    return Series._wrap(ring, out)


def _divisor_sum_parity(e: np.ndarray) -> np.ndarray:
    """s(N) = sum_{d|N} e_d mod 2 for N = 0..order, as an int64 array.

    With e_d = c0 + c1*[d odd] (mod 2) outside the head H of
    ``_parity_pattern``: d has an odd number of divisors iff N is a square,
    and of odd divisors iff N = x^2 or 2x^2, so
    s(N) = (c0 + c1)*[N = x^2] + c1*[N = 2x^2] + #{h in H : h | N} (mod 2),
    each h one strided XOR.
    """
    order = len(e) - 1
    c0, c1, head = _parity_pattern(e)
    out = np.zeros(order + 1, dtype=np.int64)
    if c0 ^ c1:
        x = np.arange(1, math.isqrt(order) + 1)
        out[x * x] = 1
    if c1:
        x = np.arange(1, math.isqrt(order // 2) + 1)
        out[2 * x * x] = 1
    for h in head:
        out[h::h] ^= 1
    return out


def _parity_pattern(e: np.ndarray):
    """(c0, c1, head) with e_d = c0 + c1*[d odd] + [d in head] (mod 2), d >= 1.

    c0 and c1 are read off the two largest d, so the head is the finite set
    of d where the table leaves that pattern: the d < k with d != k (mod 2)
    for plk, and none for the other families.
    """
    order = len(e) - 1
    head = e.astype(np.uint8)  # e mod 256 keeps the parity
    head &= 1
    c0 = int(head[order - order % 2]) if order > 1 else 0  # at the largest even d
    c1 = int(head[order - 1 + order % 2]) ^ c0 if order else 0  # and odd d
    head[2::2] ^= c0
    head[1::2] ^= c0 ^ c1
    return c0, c1, np.flatnonzero(head).tolist()


def _divisor_sums(e: np.ndarray):
    """s(N) = sum_{d|N} e_d and t(N) = sum_{d|N} e_d*(N/d - 1) mod 256.

    One sieve over the pairs d*j = N with d <= j: the squares N = d*d add
    e_d and e_d*(d-1) at once, and for each d <= sqrt(order) the N = d*j,
    j = d+1..order//d, are one stride-d slice, where the pair adds
    e_d + e_j to s and e_d*(j-1) + e_j*(d-1) to t.  uint8 words wrap
    modulo 256, which 4 divides, so sums mod 4 stay exact.  O(N log N) word
    operations in O(sqrt N) numpy calls.
    """
    order = len(e) - 1
    w = e.astype(np.uint8)
    less_one = np.arange(-1, order).astype(np.uint8)  # n - 1 at index n
    s = np.zeros(order + 1, dtype=np.uint8)
    t = np.zeros(order + 1, dtype=np.uint8)
    roots = np.arange(1, math.isqrt(order) + 1)
    s[roots * roots] = w[roots]
    t[roots * roots] = w[roots] * less_one[roots]
    for d in roots.tolist():
        top = order // d + 1
        ed, ej = w[d], w[d + 1 : top]
        sv, tv = s[d * (d + 1) :: d], t[d * (d + 1) :: d]
        np.add(sv, ej, out=sv)
        np.add(sv, ed, out=sv)
        np.add(tv, ej * less_one[d], out=tv)
        np.add(tv, less_one[d + 1 : top] * ed, out=tv)
    return s, t


def _sparse_square(ones: np.ndarray, order: int) -> np.ndarray:
    """(sum_{p in ones} q^p)^2 truncated at ``order``, mod 256, as uint8.

    Each block of rows adds at most order + 1 pair sums, so the pairs never
    take more memory than the series.
    """
    out = np.zeros(order + 1, dtype=np.uint8)
    rows = max(1, (order + 1) // max(1, len(ones)))
    for i in range(0, len(ones), rows):
        sums = (ones[i : i + rows, None] + ones[None, :]).ravel()
        out += np.bincount(sums[sums <= order], minlength=order + 1).astype(np.uint8)
    return out


def _restricted_by_period(family: Family, order: int, ring: Ring) -> Series | None:
    """A restricted family's series over ``ring`` = Z/2^r, tiled from one period.

    Kwong's period P is trusted only once the kernel's first P + D terms,
    D the sum of the parts, show it: prod_a (1-q^a) has degree D and
    constant term 1, so a(n) and a(n+P) obey the same order-D recurrence
    for n >= D, and a(n+P) = a(n) for n < D makes them equal for every n.
    Cost O(P*|parts| + order).  None when P + D exceeds order + 1, when
    ``kwong_period`` refuses the period or when the check fails; the caller
    then builds the whole order with the kernel.
    """
    from .periodicity import _two_adic_period  # only restricted builds pay for it

    period = _two_adic_period(family.parts, ring.modulus)
    depth = sum(family.parts)
    if period is None or period + depth > order + 1:
        return None
    head = binomial_product(ring, period + depth - 1,
                            _family_factors(family, order))._c
    if not np.array_equal(head[period:], head[:depth]):
        return None
    reps = -(-(order + 1) // period)
    return Series._wrap(ring, np.tile(head[:period], reps)[: order + 1])


def _log_derivative_exact(family: Family, order: int) -> Series:
    """The family's series over Z from its logarithmic derivative.

    q*d/dq log prod_s (1-q^s)^(k_s) = sum_N c_N q^N, c_N = -sum_{s|N} s*k_s
    over ``_family_factors``, so n*a_n = sum_{N=1..n} c_N*a_(n-N): O(N^2)
    big-integer products in C-level loops, and no binomial passes.
    """
    c = [0] * (order + 1)
    for s, k in _family_factors(family, order):
        for j in range(s, order + 1, s):
            c[j] -= s * k
    a = [1] + [0] * order
    for n in range(1, order + 1):
        a[n] = sum(map(operator.mul, c[1 : n + 1], reversed(a[:n]))) // n
    return Series(EXACT, order, a)


def _two_power_half(ring: Ring) -> int | None:
    """M = 2^(r-1) when ``ring`` is Z/2^r, else None.

    R(x) = (1+x)/(1-x) = 1 + 2x/(1-x), so R(x)^M = 1 (mod 2M): over Z/2^r
    an exponent of R(q^n) matters only modulo M.  The exact ring and
    moduli with an odd factor have no such period.
    """
    m = ring.modulus
    if m is None or m & (m - 1):
        return None
    return m // 2


def _balanced(e: int, half: int | None) -> int:
    """e reduced modulo ``half`` into [-half/2, half/2); e itself for None.

    The residue of least absolute value, ties going negative, so |result|
    <= |e| and a negative power of over becomes a power of phi(-q).
    """
    if half is None:
        return e
    return (e + half // 2) % half - half // 2


def _class_route(order: int, ring: Ring) -> bool:
    """Whether the plane series over ``ring`` is built by residue classes.

    Over Z/2^r with M = 2^(r-1) the class route does O(N^1.5 * sqrt(M))
    word operations and O(M) series products; the kernel costs O(N^2 log N)
    whatever M is.  Up to M = isqrt(N) the class route measured 1.2x (tiny
    N) to over 100x faster, so it is taken there; larger M, moduli with an
    odd factor and the exact ring stay on the kernel.  ``build_series``
    asks only from Z/16 on (M >= 8): Z/2, Z/4 and Z/8 take ``_expansion``.
    """
    half = _two_power_half(ring)
    if half is None:
        return False
    return half * half <= order


def _lift(order: int, ring: Ring, half: int, odd_part) -> Series:
    """A series F over ``ring`` = Z/2^r, half = 2^(r-1), by a 2-adic lift.

    F = odd_part(q) * F(q^2)^2 with F = 1 (mod 2): if A = A' (mod 2^s), s >= 1,
    then A^2 = A'^2 (mod 2^(s+1)), so F(q^2) is needed only modulo half and
    each level gains one bit.  ``odd_part(order, ring, half)`` is the odd
    part modulo 2*half; F(q^2)^2 is squared at order // 2, then inflated.
    Modulo 2 F is 1, and modulo 4 it is the odd part.  For over the odd part
    is phi(q): Gauss's phi(q)*phi(-q) = phi(-q^2)^2 gives
    over(q) = phi(q) * over(q^2)^2; for plane it is ``_class_odd_part``.
    """
    if half == 1:
        return Series.one(ring, order)
    out = odd_part(order, ring, half)
    if half > 2:
        low = _lift(order // 2, ring, half // 2, odd_part)
        out = out.mul(low.mul(low).inflate(2, order))
    return out


def _class_odd_part(family: Family, order: int, ring: Ring, half: int) -> Series:
    """The odd part prod_{n odd} R(q^n)^(e_n) of the family, mod 2*half.

    The family must meet e_2n = 2*e_n, so that it is the odd part times
    F(q^2)^2 as ``_lift`` needs, and e_n mod half must depend only on
    n mod half; of the families only plane and ncolor do.  Since
    R(x)^half = 1 (mod 2*half), the odd part is then prod_{j odd} C_j^(e_j
    mod half) over the classes C_j = prod_{n = j (mod half)} R(q^n).
    """
    m = ring.modulus
    out = run = None
    # Horner over t = half-1 .. 1: C_j enters ``run`` at t = e_j mod half and
    # ``out`` t times; its half^2/2 exponent reads cost about one mul
    for t in range(half - 1, 0, -1):
        for j in range(1, half, 2):
            if family.exponent(j) % half == t:
                c = Series(ring, order, _class_product(j, half, order, m))
                run = c if run is None else run.mul(c)
        out = run if out is None else out.mul(run)
    return out


def _wrap_words(m: int):
    """The narrowest unsigned dtype whose wrapping sums are exact modulo m.

    Sums of w-bit words are exact modulo 2^w, so modulo every m dividing
    2^w; the class passes then need neither reductions nor headroom.  Any
    other modulus raises.
    """
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if (1 << (8 * np.dtype(dtype).itemsize)) % m == 0:
            return dtype
    raise ValueError(f"no machine word wraps exactly modulo {m}")


def _class_product(j: int, step: int, order: int, m: int) -> np.ndarray:
    """prod_{n = j (mod step), n >= 1} (1+q^n)/(1-q^n) mod m, as int64 residues.

    Parts up to S = isqrt(order * step) are applied one at a time: divide
    by (1-q^n) with the kernel's ``_divide_one_minus`` pass, then multiply
    by (1+q^n).  The parts a, a+step, ... above S
    come from the recurrence on the number of parts k: partitions into k
    parts of the progression satisfy D_k = q^a * D_(k-1) / (1-q^(step*k)),
    and into k distinct parts the shift is a + step*(k-1).  Started from
    D_0 = P, the product of the small parts, sum_k D_k is P times the
    partitions into large parts; the distinct pass starts from that sum, so
    no series product is needed.  Each D_k is kept divided by its lowest
    power of q, and only its terms up to the order are computed.
    Cost O(order * S / step + order^2 / S) word operations.
    """
    n1 = order + 1
    buf = np.zeros(n1, dtype=_wrap_words(m))
    buf[0] = 1
    small = math.isqrt(order * step)
    a = j
    while a <= min(small, order):
        _divide_one_minus(buf, a)
        np.add(buf[a:], buf[: n1 - a], out=buf[a:])
        a += step
    for distinct in (False, True):
        total = buf.copy()
        offset, k = a, 1
        while offset <= order:
            _divide_one_minus(buf[: n1 - offset], step * k)
            total[offset:] += buf[: n1 - offset]
            offset += a + step * k if distinct else a
            k += 1
        buf = total
    return buf.astype(np.int64)


def _over_power(k: int, order: int, ring: Ring) -> Series:
    """over^k = phi(-q)^(-k) for any integer k; the series 1 for k = 0.

    In a modular ring a positive k powers over as ``build_series`` makes
    it (the 2-adic lift modulo 8, else the Newton inverse) and a
    negative k powers phi(-q) itself, with no inverse.  Exact coefficients
    come from ``_sparse_power`` over the O(sqrt N) nonzero terms of
    phi(-q), O(N^1.5) in all.
    """
    if not ring.exact:
        if k > 0:
            return build_series(Family.overpartitions(), order, ring).pow(k)
        return phi_series(-1, order, ring).pow(-k)
    return Series._wrap(EXACT, _sparse_power(phi_series(-1, order)._c, -k))


def phi_series(sign: int, order: int, ring: Ring = EXACT) -> Series:
    """Theta series phi(+/-q) = 1 + 2*sum_{n>=1} (+/-1)^n q^(n^2)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if ring.exact:
        coeffs = [0] * (order + 1)
        coeffs[0] = 1
        for n in range(1, math.isqrt(order) + 1):
            coeffs[n * n] = 2 if (sign > 0 or n % 2 == 0) else -2
        return Series(ring, order, coeffs)
    m = ring.modulus
    n = np.arange(1, math.isqrt(order) + 1)
    arr = np.zeros(order + 1, dtype=np.int64)
    arr[0] = 1
    arr[n * n] = 2 % m if sign > 0 else np.where(n % 2, -2 % m, 2 % m)
    return Series._wrap(ring, arr)
