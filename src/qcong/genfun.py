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
from .series import _I64_CAP, _mul_mod, _sparse_power, _wrap_words

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
    plk1 with the same exponents outside Z, is ``_over_power`` with k = 1:
    over Z/2 to Z/64 a theta closed form, else 1/phi(-q).  Every other
    non-restricted family over Z/2 and Z/4, and plane and ncolor over Z/2^r
    where ``_expansion_route`` allows it, is read off the power sums of its
    exponents (``_expansion``).
    Otherwise oddover is phi(q) * over(q^2); plk is
    over^k * prod_{i<k} R(q^i)^(e_i - k), each exponent reduced by
    ``_balanced`` modulo M since R(x)^M = 1 (mod 2M), and a negative power of
    over is one of phi(-q), so no plk modulo 2^r, r <= 6, needs an inverse.
    phi(q) * over(q^2) modulo a divisor of 2^16 is a sparse product.  plane
    and ncolor take ``_log_derivative_exact`` over Z and, reduced, modulo
    an m the kernel would run in Python integers.
    restricted over Z/2^r is tiled from one checked Kwong period that fits
    the order (``_restricted_by_period``).  The rest goes through the kernel.
    """
    if not 0 <= order <= sys.maxsize // 8:  # int64 words, addressable in bytes
        raise ValueError(f"order must be between 0 and {sys.maxsize // 8}, got {order}")
    half = _two_power_half(ring)  # 2^(r-1) over Z/2^r, else None
    if family.kind == "over" or family.k == 1 and not ring.exact:  # plk1 is over
        return _over_power(1, order, ring)
    if _expansion_route(family, order, ring):
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
        m = ring.modulus
        if (m - 1) * (m - 1) + m >= _I64_CAP:  # the kernel would run in Python integers
            return _log_derivative_exact(family, order).reduce_mod(m)
    if family.kind == "restricted" and half is not None:
        tiled = _restricted_by_period(family, order, ring)
        if tiled is not None:
            return tiled
    return binomial_product(ring, order, _family_factors(family, order))


def _expansion_route(family: Family, order: int, ring: Ring) -> bool:
    """Whether ``build_series`` reads the family off its power sums.

    Every non-restricted family over Z/2 and Z/4 (over and plk1 return
    before), and plane and ncolor over Z/2^r when r <= 3, or when r <= 16
    and 4(r-1)(r-2) <= order.  From r = 4 on ``_expansion`` takes
    (r-1)(r-2)/2 series products, while the kernel's cost does not grow
    with r: the kernel measured faster below that order and at r = 24 and
    31.  Other families keep their theta routes.
    """
    half = _two_power_half(ring)  # 2^(r-1)
    if half is None or family.kind == "restricted":
        return False
    r = half.bit_length()
    return r <= 2 or family.kind in ("plane", "ncolor") and (
        r <= 3 or r <= 16 and 4 * (r - 1) * (r - 2) <= order)


def _expansion(family: Family, order: int, ring: Ring) -> Series:
    """A non-restricted family over Z/2^r from the power sums of its exponents.

    R(x) = 1 + 2L(x), L(x) = x/(1-x), so F = prod_n R(q^n)^(e_n) is E(2)
    for E(t) = prod_n (1 + t*L(q^n))^(e_n) = sum_j E_j*t^j, whose E_j are
    the elementary symmetric functions of the L(q^n), n taken e_n times.
    They are integer series, so modulo 2^r only j < r matter.  The power
    sums p_i = sum_n e_n*L(q^n)^i have coefficients
    p_i(N) = sum_{d|N} e_d*C(N/d - 1, i - 1) (``_power_sums``), and
    Newton's identities give j*E_j = sum_{i=1..j} (-1)^(i-1)*E_(j-i)*p_i
    (Macdonald, Symmetric Functions and Hall Polynomials, I.2).  Dividing
    by j loses v_2(j) bits, so E_j is known modulo 2^(r - v_2(j!)); F needs
    it modulo 2^(r-j), and v_2(j!) <= j - 1.

    For r <= 3 that is F = 1 + 2S (mod 4) and F = 1 + 2S + 2S^2 - 2T
    (mod 8), S = p_1 and T = p_2 (arXiv 1706.03617); modulo 2, F is 1.
    Modulo 4 only S mod 2 enters (``_divisor_sum_parity``), and modulo 8
    only S mod 2 enters S^2; it must have few ones (O(sqrt N) for plane and
    ncolor), since the square is taken pair by pair (``_pair_sums``).
    From r = 4 on each product E_(j-i)*p_i is one ``_mul_mod``.
    """
    m = ring.modulus
    if m == 2:
        return Series.one(ring, order)
    e = family.exponents(order)
    if m == 4:
        out = _divisor_sum_parity(e)
        out <<= 1
    elif m == 8:
        s, t = _power_sums(e, 2, _wrap_words(m))
        odd = np.flatnonzero(s & 1)
        out = (s - t + _pair_sums(odd, odd, order)).astype(np.int64)
        out <<= 1
    else:
        # p_1 .. p_(r-1) reduced mod m: _mul_mod sizes its FFT limbs by m
        p = [x.astype(np.int64) & (m - 1)
             for x in _power_sums(e, m.bit_length() - 2, _wrap_words(m))]
        elementary = [None, p[0]]  # E_0 = 1 enters as p_j itself
        out = p[0] << 1
        for j in range(2, len(p) + 1):
            elem_j = (-1) ** (j - 1) * p[j - 1]
            for i in range(1, j):
                elem_j += (-1) ** (i - 1) * _mul_mod(elementary[j - i], p[i - 1], m, order + 1)
            elem_j &= m - 1
            shift = (j & -j).bit_length() - 1  # v_2(j)
            elem_j >>= shift
            elem_j *= pow(j >> shift, -1, m)
            elem_j &= m - 1
            elementary.append(elem_j)
            out += elem_j << j
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


def _power_sums(e: np.ndarray, count: int, dtype) -> list:
    """p_i(N) = sum_{d|N} e_d*C(N/d - 1, i - 1), i = 1..count, in ``dtype`` words.

    One sieve per i over the pairs d*j = N with d <= j: the squares N = d*d
    add e_d*C(d-1, i-1), and for each d <= sqrt(order) the N = d*j,
    j = d+1..order//d, are one stride-d slice, where the pair adds
    e_d*C(j-1, i-1) + e_j*C(d-1, i-1).  The column C(n-1, i-1) is the sum
    of column i-1 below n.  Unsigned w-bit words wrap modulo 2^w, so every
    sum stays exact modulo each power of two up to 2^w (``_wrap_words``).
    O(count * N log N) word operations in O(count * sqrt N) numpy calls.
    """
    order = len(e) - 1
    w = e.astype(dtype)
    column = np.ones(order + 1, dtype=dtype)  # C(n-1, 0) for n >= 1
    column[0] = 0
    roots = np.arange(1, math.isqrt(order) + 1)
    sums = []
    for i in range(count):
        if i:
            column[1:] = np.cumsum(column[:-1], dtype=dtype)
        p = np.zeros(order + 1, dtype=dtype)
        p[roots * roots] = w[roots] * column[roots]
        for d in roots.tolist():
            top = order // d + 1
            pv = p[d * (d + 1) :: d]
            np.add(pv, w[d + 1 : top] * column[d], out=pv)
            np.add(pv, column[d + 1 : top] * w[d], out=pv)
        sums.append(p)
    return sums


def _pair_sums(p: np.ndarray, q: np.ndarray, order: int) -> np.ndarray:
    """#{(i, j) : p_i + q_j = N} mod 256 for N = 0..order, as uint8.

    The coefficients of (sum_i q^(p_i)) * (sum_j q^(q_j)) truncated at
    ``order``.  Each block of rows adds at most order + 1 pair sums, so the
    pairs never take more memory than the series.
    """
    out = np.zeros(order + 1, dtype=np.uint8)
    rows = max(1, (order + 1) // max(1, len(q)))
    for i in range(0, len(p), rows):
        sums = (p[i : i + rows, None] + q[None, :]).ravel()
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


def _over_power(k: int, order: int, ring: Ring) -> Series:
    """over^k = phi(-q)^(-k) for any integer k; the series 1 for k = 0.

    Over Z/2^r, r <= 6, it is a closed form: phi(-q) = 1 + 2X with
    X = sum_{n>=1} (-1)^n q^(n^2), so (1 + 2X)^p = sum_{j<r} C(p, j)*2^j*X^j
    (mod 2^r) for every integer p, p = -k, and X^j is needed only modulo
    2^(r-j).  A = X^2 has A(N) = (-1)^N * #{a, b >= 1 : a^2 + b^2 = N}
    (Jacobi: (-1)^N * (d_1(N) - d_3(N) - [N a square])), the pair sums of
    the squares; A = X(q^2) (mod 2), so A^2 = A(q^2) (mod 4).  Hence
    X^3 = X*X(q^2) (mod 2), else the product A*X with X's O(sqrt N) terms;
    X^4 = X(q^4) (mod 2) and A(q^2) (mod 4); and X^5 = X*X(q^4) (mod 2).
    Up to Z/8 that is two index writes, X and X(q^2), with no product.
    In another modular ring a positive k powers the Newton inverse of
    phi(-q) and a negative k powers phi(-q) itself, with no inverse.  Exact
    coefficients come from ``_sparse_power`` over the O(sqrt N) nonzero
    terms of phi(-q), O(N^1.5) in all.
    """
    if ring.exact:
        return Series._wrap(EXACT, _sparse_power(phi_series(-1, order)._c, -k))
    m = ring.modulus
    if m & (m - 1) or m > 64:
        if k > 0:
            return phi_series(-1, order, ring).inverse_of_unit().pow(k)
        return phi_series(-1, order, ring).pow(-k)
    r = m.bit_length() - 1
    c = [1]  # C(p, j) * 2^j, j < r
    for j in range(1, r):
        c.append(c[-1] * 2 * (-k - j + 1) // j)
    c = [x % m for x in c]
    n = np.arange(1, math.isqrt(order) + 1)
    squares = n * n
    # uint8 words wrap modulo 256, so modulo m; up to Z/8 the index writes
    # go straight into the int64 result
    out = np.zeros(order + 1, dtype=np.int64 if r <= 3 else np.uint8)

    def theta(s, coeff):  # coeff * X(q^s), by index writes
        t = np.arange(1, math.isqrt(order // s) + 1)
        out[s * t * t] += np.where(t & 1, m - coeff, coeff).astype(out.dtype)

    if r > 1:
        theta(1, c[1])
    if r == 3:
        theta(2, c[2])  # A = X(q^2) (mod 2)
    if r > 3:
        a = _theta_square(order)
        out += c[2] * a
        if r == 4:  # X^3 = X*X(q^2) (mod 2)
            out += c[3] * _pair_sums(squares, 2 * squares, order)
        else:  # X^3 = A*X modulo 2^(r-3)
            low = m // 8 - 1
            x = np.zeros(order + 1, dtype=np.int64)
            x[squares] = np.where(n & 1, low, 1)
            out += c[3] * _mul_mod(a & low, x, low + 1, order + 1).astype(np.uint8)
        if r == 5:
            theta(4, c[4])  # X^4 = X(q^4) (mod 2)
        if r == 6:
            out[::2] += c[4] * a[: order // 2 + 1]  # X^4 = A(q^2) (mod 4)
            out += c[5] * _pair_sums(squares, 4 * squares, order)  # X^5 = X*X(q^4) (mod 2)
    out = out.astype(np.int64, copy=False)
    out &= m - 1
    out[0] = 1
    return Series._wrap(ring, out)


def _theta_square(order: int) -> np.ndarray:
    """A = X^2 mod 256 as uint8, X = sum_{n>=1} (-1)^n q^(n^2), truncated.

    A(N) = (-1)^N * #{a, b >= 1 : a^2 + b^2 = N}, since a + b = N (mod 2):
    the pair sums of the squares, with every odd N negated.
    """
    squares = np.arange(1, math.isqrt(order) + 1) ** 2
    a = _pair_sums(squares, squares, order)
    np.negative(a[1::2], out=a[1::2])
    return a


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
