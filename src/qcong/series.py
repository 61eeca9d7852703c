"""Truncated formal power series over exact or modular integer rings.

The exact ring carries arbitrary-precision integers (plane-overpartition
counts overflow 64 bits well below weight 100).  The modular ring keeps fully
reduced machine-word residues in an int64 numpy array, because congruence
verification over Z/2^k is the hot path and must never touch big integers.

Series are immutable; every operation returns a new value, and binary
operations insist on an identical ring and truncation order rather than
silently aligning precision.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import operator
import sys
from dataclasses import dataclass


def lazy_import(name: str):
    """Module ``name``, executed on its first attribute access, not here.

    Exact-ring work never touches numpy, so a process that needs no
    modular series does not pay for importing it.  A module already in
    ``sys.modules`` (loaded or lazy) is returned as it is.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


np = lazy_import("numpy")

# Residues live in [0, m).  Adding two of them must stay inside int64, so the
# modulus is capped one bit below the type; scaled passes additionally need
# (m-1)^2 to fit, which the kernels check per call before falling back to
# plain Python integers.
_MOD_CAP = 2**62
_I64_CAP = 2**63


class NonUnitConstantTerm(ValueError):
    """Constant term is not invertible in the coefficient ring."""


@dataclass(frozen=True)
class Ring:
    """Coefficient ring: exact integers when ``modulus`` is None, else Z/m."""

    modulus: int | None = None

    def __post_init__(self) -> None:
        m = self.modulus
        if m is not None and not (2 <= m < _MOD_CAP):
            raise ValueError(f"modulus must satisfy 2 <= m < 2**62, got {m}")

    @property
    def exact(self) -> bool:
        return self.modulus is None

    def __repr__(self) -> str:
        return "Z" if self.exact else f"Z/{self.modulus}"


EXACT = Ring()


def Mod(m: int) -> Ring:
    """The ring of integers modulo m."""
    return Ring(m)


def _normalize_exact(coeffs) -> tuple[int, ...]:
    return tuple(operator.index(c) for c in coeffs)


def _reduce(x, m: int, out=None):
    """numpy's ``x % m`` for an int64 array, by a mask when m is a power of two.

    Every 2^r below the cap divides 2^64, so the low r bits of an int64 in
    two's complement are its residue, for negative values too; the mask
    vectorises where the division does not.
    """
    if m & (m - 1):
        return np.remainder(x, m, out=out)
    return np.bitwise_and(x, m - 1, out=out)


def _normalize_mod(coeffs, m: int) -> np.ndarray:
    if isinstance(coeffs, np.ndarray) and coeffs.dtype == np.int64:
        arr = _reduce(coeffs, m)
    else:
        # Big or negative Python ints reduce before entering int64 storage.
        arr = np.fromiter(
            (operator.index(c) % m for c in coeffs), dtype=np.int64
        )
    arr.flags.writeable = False
    return arr


class Series:
    """A truncated power series c0 + c1*q + ... + cN*q^N over a Ring."""

    __slots__ = ("ring", "order", "_c")

    def __init__(self, ring: Ring, order: int, coeffs):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need exactly {order + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        if ring.exact:
            object.__setattr__(self, "_c", _normalize_exact(coeffs))
        else:
            object.__setattr__(self, "_c", _normalize_mod(coeffs, ring.modulus))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Series is immutable")

    @classmethod
    def _wrap(cls, ring: Ring, storage) -> "Series":
        """Adopt already-normalized storage without copying (internal)."""
        s = object.__new__(cls)
        object.__setattr__(s, "ring", ring)
        object.__setattr__(s, "order", len(storage) - 1)
        if not ring.exact:
            storage.flags.writeable = False
        object.__setattr__(s, "_c", storage)
        return s

    @classmethod
    def zero(cls, ring: Ring, order: int) -> "Series":
        if ring.exact or order < 0:
            return cls(ring, order, [0] * (order + 1))
        return cls._wrap(ring, np.zeros(order + 1, dtype=np.int64))

    @classmethod
    def one(cls, ring: Ring, order: int) -> "Series":
        if ring.exact or order < 0:
            return cls(ring, order, [1] + [0] * order)
        arr = np.zeros(order + 1, dtype=np.int64)
        arr[0] = 1
        return cls._wrap(ring, arr)

    # -- access ------------------------------------------------------------

    def coeff(self, i: int) -> int:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside [0, {self.order}]")
        return int(self._c[i])

    __getitem__ = coeff

    def tolist(self) -> list[int]:
        return list(self._c) if self.ring.exact else self._c.tolist()

    def __len__(self) -> int:
        return self.order + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.ring != other.ring or self.order != other.order:
            return False
        if self.ring.exact:
            return self._c == other._c
        return bool(np.array_equal(self._c, other._c))

    __hash__ = None

    def __repr__(self) -> str:
        head = ", ".join(str(int(c)) for c in self._c[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series({self.ring!r}, order={self.order}, [{head}{tail}])"

    def first_mismatch(self, other: "Series") -> int | None:
        """Smallest index where the two series differ, or None."""
        self._compat(other)
        if self.ring.exact:
            pairs = zip(self._c, other._c)
            return next((i for i, (x, y) in enumerate(pairs) if x != y), None)
        diff = np.flatnonzero(self._c != other._c)
        return int(diff[0]) if diff.size else None

    def _compat(self, other: "Series") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    # -- ring operations -----------------------------------------------------

    def add(self, other: "Series") -> "Series":
        self._compat(other)
        if self.ring.exact:
            return Series._wrap(
                self.ring, tuple(a + b for a, b in zip(self._c, other._c))
            )
        total = self._c + other._c
        return Series._wrap(self.ring, _reduce(total, self.ring.modulus, out=total))

    def mul(self, other: "Series") -> "Series":
        """Cauchy product truncated at the common order."""
        self._compat(other)
        n = self.order
        m = self.ring.modulus
        if m is not None:
            return Series._wrap(self.ring, _mul_mod(self._c, other._c, m, n + 1))
        b = other._c
        out = [0] * (n + 1)
        for i, ai in enumerate(self._c):
            if ai == 0:
                continue
            for k in range(i, n + 1):
                out[k] += ai * b[k - i]
        return Series._wrap(self.ring, tuple(out))

    __add__ = add
    __mul__ = mul

    def pow(self, e: int) -> "Series":
        """Square-and-multiply power; ``pow(a, 0)`` is one, ``pow(a, 1)`` is a."""
        if e < 0:
            raise ValueError("negative exponent: use inverse_of_unit")
        if e == 0:
            return Series.one(self.ring, self.order)
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result.mul(base)
            e >>= 1
            if not e:
                return result
            base = base.mul(base)

    __pow__ = pow

    def inverse_of_unit(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term.

        Modular rings use Newton doubling b <- b*(2 - a*b), each step two
        FFT middle products at one length (``_newton_step``); the exact ring
        is ``_sparse_power`` with exponent -1, O(N^1.5) for a theta series.
        """
        n = self.order
        m = self.ring.modulus
        u = int(self._c[0])
        if m is None:
            if u not in (1, -1):
                raise NonUnitConstantTerm(f"constant term {u} is not a unit in Z")
            return Series._wrap(self.ring, _sparse_power(self._c, -1))
        try:
            uinv = pow(u, -1, m)
        except ValueError:
            raise NonUnitConstantTerm(
                f"constant term {u} is not a unit mod {m}"
            ) from None
        b = np.zeros(n + 1, dtype=np.int64)
        b[0] = uinv
        p = 1
        while p <= n:
            p2 = min(2 * p, n + 1)
            b[p:p2] = _newton_step(self._c, b[:p], m, p2)
            p = p2
        return Series._wrap(self.ring, b)

    def reduce_mod(self, m: int) -> "Series":
        """Ring homomorphism onto Z/m (the modulus chain must divide)."""
        ring = Mod(m)
        cur = self.ring.modulus
        if cur is None:
            return Series(ring, self.order, self._c)
        if cur % m != 0:
            raise ValueError(f"cannot reduce mod {m}: {m} does not divide {cur}")
        return Series._wrap(ring, _reduce(self._c, m))

    def inflate(self, stride: int, order: int | None = None) -> "Series":
        """Substitute q -> q^stride, truncating at ``order`` (default: same)."""
        if stride < 1:
            raise ValueError("stride must be >= 1")
        order = self.order if order is None else order
        if self.order < order // stride:
            raise ValueError(
                f"need base order >= {order // stride}, have {self.order}"
            )
        head = self._c[: order // stride + 1]
        if self.ring.exact:
            out = [0] * (order + 1)
            out[::stride] = head
            return Series._wrap(self.ring, tuple(out))
        out = np.zeros(order + 1, dtype=np.int64)
        out[::stride] = head
        return Series._wrap(self.ring, out)


# Products of modular series run through float64 FFTs on limbs of w bits.  A
# product coefficient is at most k*len*(2^w - 1)^2 (k limb pairs meet at one
# shift), and w is chosen to keep that below 2^_FFT_BITS, far enough below
# 2^53 that rounding errors stay tiny; every product still checks them at run
# time.  (The check needs that bound: above 2^53 every float is an integer.)
# Shorter inputs, and products that fail the check, use exact int64
# np.convolve on limbs narrow enough for int64.  Every FFT product is one
# ``_spectra`` per operand and one ``_spectral_product``, so a square and
# the Newton inverse can reuse an operand's transform.
_FFT_BITS = 46
_FFT_MIN_LEN = 256
_FFT_ODD = (1, 3, 5, 9, 15, 25, 27, 45, 75, 81, 125)


def _mul_mod(a: np.ndarray, b: np.ndarray, m: int, n: int) -> np.ndarray:
    """First n coefficients of a*b mod m, for reduced int64 coefficient arrays."""
    square = b is a
    a = a[:n]
    b = a if square else b[:n]
    shortest = min(len(a), len(b))
    if shortest >= _FFT_MIN_LEN:
        w = _limb_width((m - 1).bit_length(), shortest, _FFT_BITS)
        size = _fft_size(len(a) + len(b) - 1)
        sa = _spectra(a, m, w, size)
        sb = sa if square else _spectra(b, m, w, size)
        out = _spectral_product(sa, sb, m, w, size, n)
        if out is not None:
            return out
    return _limb_product(a, b, m, n)


def _limb_width(bits: int, length: int, budget: int) -> int:
    """Widest limb w with k*length*(2^w - 1)^2 < 2^budget, k = ceil(bits/w)."""
    w = bits
    while w > 1 and -(-bits // w) * length * ((1 << w) - 1) ** 2 >= 1 << budget:
        w -= 1
    return w


def _limb_product(a, b, m, n) -> np.ndarray:
    """First n coefficients of a*b mod m by int64 convolutions of limbs."""
    w = _limb_width((m - 1).bit_length(), min(len(a), len(b)), 63)
    out = np.zeros(n, dtype=np.int64)
    la = _limbs(a, w, _limb_count(m, w))
    lb = la if b is a else _limbs(b, w, len(la))
    for s, (first, *rest) in _limb_shifts(len(la)):
        c = np.convolve(la[first], lb[s - first])[:n]
        for i in rest:
            c += np.convolve(la[i], lb[s - i])[:n]
        _horner_step(out, c, w, m, s == 2 * len(la) - 2)
    return out


def _spectra(x: np.ndarray, m: int, w: int, size: int) -> list:
    """Real FFTs at length ``size`` of the w-bit limbs of x (residues mod m)."""
    from numpy.fft import rfft

    return [rfft(limb, size) for limb in _limbs(x, w, _limb_count(m, w))]


def _spectral_product(sa, sb, m, w, size, n, lo=0) -> np.ndarray | None:
    """Coefficients lo, ..., lo+n-1 of a*b mod m, or None on a rounding failure.

    ``sa`` and ``sb`` are the ``_spectra`` of a and b at ``size``, so the
    product is cyclic: a coefficient of index i >= size lands on i - size.
    The product fails if any value used rounds with an error of 1/4 or more.
    """
    from numpy.fft import irfft

    out = np.zeros(n, dtype=np.int64)
    for s, (first, *rest) in _limb_shifts(len(sa)):
        spectrum = sa[first] * sb[s - first]
        for i in rest:
            spectrum += sa[i] * sb[s - i]
        x = irfft(spectrum, size)[lo : lo + n]
        del spectrum
        c = np.rint(x)
        x -= c
        if np.abs(x, out=x).max() >= 0.25:
            return None
        _horner_step(out, c.astype(np.int64), w, m, s == 2 * len(sa) - 2)
    return out


def _limb_shifts(k: int):
    """(s, limb indices i pairing with s - i) for k limbs, highest s first."""
    for s in range(2 * k - 2, -1, -1):
        yield s, range(max(0, s - k + 1), min(s, k - 1) + 1)


def _horner_step(out, c, w, m, top) -> None:
    """out <- out * 2^w + c mod m in place; at the top shift out is still 0."""
    if top:
        _reduce(c, m, out=out[: len(c)])
        return
    _shift_mod(out, w, m)
    _reduce(c, m, out=c)
    out[: len(c)] += c
    _reduce(out, m, out=out)


def _newton_step(a: np.ndarray, b: np.ndarray, m: int, p2: int) -> np.ndarray:
    """Coefficients p..p2-1 of 1/a mod m, from its first p = len(b) in b.

    a*b = 1 + q^p*h, and the next coefficients are -(b*h) mod q^(p2-p).
    Both products are taken at one transform length L >= p2 on one
    spectrum of b.  The cyclic a[:p2]*b has linear length p2 + p - 1, so it
    wraps only onto indices below p, which h skips.  b*h truncated at
    p2 - p has degree below p2 - 1 < L, so it does not wrap.  Each cyclic
    coefficient sums at most p products per limb pair, so the limbs are
    those of a length-p product.  If either product fails its rounding
    check, the step is the pair of ``_mul_mod`` products instead.
    """
    p = len(b)
    n = p2 - p
    if p >= _FFT_MIN_LEN:
        w = _limb_width((m - 1).bit_length(), p, _FFT_BITS)
        size = _fft_size(p2)
        sb = _spectra(b, m, w, size)
        h = _spectral_product(_spectra(a[:p2], m, w, size), sb, m, w, size, n, p)
        if h is not None:
            bh = _spectral_product(_spectra(h, m, w, size), sb, m, w, size, n)
            if bh is not None:
                return _reduce(np.negative(bh, out=bh), m, out=bh)
    h = _mul_mod(a[:p2], b, m, p2)[p:]
    bh = _mul_mod(b, h, m, n)
    return _reduce(np.negative(bh, out=bh), m, out=bh)


def _limb_count(m: int, w: int) -> int:
    """Number of w-bit limbs of a residue mod m."""
    return max(1, -(-(m - 1).bit_length() // w))


def _limbs(x: np.ndarray, w: int, k: int) -> list:
    """x split into k limbs of w bits, least significant first."""
    if k == 1:
        return [x]
    mask = (1 << w) - 1
    return [(x >> (w * i)) & mask for i in range(k)]


def _shift_mod(x: np.ndarray, w: int, m: int) -> None:
    """In place x <- x * 2^w mod m, in steps that stay inside int64."""
    step = 63 - m.bit_length()
    while w > 0 and x.any():
        t = min(step, w)
        np.left_shift(x, t, out=x)
        _reduce(x, m, out=x)
        w -= t


def _fft_size(n: int) -> int:
    """A transform length >= n of the form odd * 2^p, with a small 3,5-smooth odd."""
    return min(b << (-(-n // b) - 1).bit_length() for b in _FFT_ODD)


def binomial_product(ring: Ring, order: int, factors,
                     start: Series | None = None) -> Series:
    """``start`` (default 1) times the binomial factors (1 - q^s)^k.

    ``factors`` yields (s, k) pairs, s >= 1 and any integer k, applied in
    place to one copy of ``start``, a series over ``ring`` at ``order``.
    The kernel's one entry point: it builds the restricted families, the
    modular plane families off the class route and plk's finite
    correction, and is the reference for every faster route.
    """
    if start is None:
        start = Series.one(ring, order)
    elif start.ring != ring or start.order != order:
        raise ValueError(f"start must be a series over {ring!r} at order {order}")
    m = ring.modulus
    buf = list(start._c) if m is None else start._c.copy()
    apply = _apply_exact if m is None else functools.partial(_apply_mod, m=m)
    for s, k in factors:
        apply(buf, s, k)
    return Series._wrap(ring, tuple(buf) if m is None else buf)


def _binomial_terms(e: int, t_max: int) -> list[int]:
    """Exact coefficients c_t of (1 - q^n)^e at q^(n*t), t = 0..t_max."""
    out = [1]
    for t in range(1, t_max + 1):
        # (-1)^t * C(e, t); the division is exact for negative e too
        out.append(-out[-1] * (e - t + 1) // t)
    return out


def _apply_exact(buf: list, n: int, e: int) -> None:
    """In-place multiply of an exact coefficient buffer by (1 - q^n)^e."""
    top = len(buf) - 1
    t_cap = top // n
    if e == 0 or t_cap == 0:
        return
    if 0 < e <= t_cap:
        for _ in range(e):
            # the right-hand slices are copies, so every read is pre-pass
            buf[n:] = map(operator.sub, buf[n:], buf[:-n])
        return
    if 0 < -e <= t_cap:
        for _ in range(-e):
            # b[j] = a[j] + b[j-n]: running sums down the n residue lanes
            # mod n, or row by row down the t_cap rows of n, whichever is fewer
            if n <= t_cap:
                for r in range(n):
                    buf[r::n] = itertools.accumulate(buf[r::n])
            else:
                for j in range(n, top + 1, n):
                    buf[j : j + n] = map(operator.add, buf[j : j + n], buf[j - n : j])
        return
    t_max = min(e, t_cap) if e > 0 else t_cap
    terms = _binomial_terms(e, t_max)
    snap = buf[:]
    for t in range(1, t_max + 1):
        ct = terms[t]
        base = n * t
        for j in range(base, top + 1):
            buf[j] += ct * snap[j - base]


def _apply_mod(arr: np.ndarray, n: int, e: int, m: int) -> None:
    """In-place multiply of a reduced int64 buffer by (1 - q^n)^e mod m."""
    top = arr.shape[0] - 1
    t_cap = top // n
    if e == 0 or t_cap == 0:
        return
    # |e| division passes against t_cap binomial terms, each a sweep of half
    # the buffer on average; measured break-evens t_cap/|e| ran from 8 to 27
    if e < 0 and -16 * e <= t_cap and m * (t_cap + 2) < _I64_CAP:
        for _ in range(-e):
            _divide_one_minus(arr, n)
            _reduce(arr, m, out=arr)
        return
    if (m - 1) * (m - 1) + m >= _I64_CAP:
        # enormous modulus: do it with Python integers
        buf = [int(x) for x in arr]
        _apply_exact(buf, n, e)
        arr[:] = np.fromiter((c % m for c in buf), dtype=np.int64, count=top + 1)
        return
    t_max = t_cap if e < 0 else min(e, t_cap)
    terms = _binomial_terms(e, t_max)
    # a term adds at most (m-1)^2 in absolute value; reduce after each one
    # only when the sum of all of them could leave int64
    each = (m - 1) * (m - 1) * (t_max + 2) >= _I64_CAP
    # one term reads the buffer itself: numpy evaluates overlapping operands
    # as if they were copied
    snap = arr if t_max == 1 else arr.copy()
    for t in range(1, t_max + 1):
        # c_t balanced into (-m/2, m/2], so m - 1 is a subtraction
        ct = terms[t] % m
        if ct > m // 2:
            ct -= m
        if ct:
            view = arr[n * t :]
            src = snap[: top + 1 - n * t]
            if ct == -1:
                view -= src
            else:
                view += src if ct == 1 else ct * src
            if each:
                _reduce(view, m, out=view)
    if not each:
        _reduce(arr, m, out=arr)


def _divide_one_minus(buf: np.ndarray, stride: int) -> None:
    """Divide ``buf`` by (1 - q^stride) in place, without reducing.

    The quotient is a running sum down each residue lane mod stride: one
    cumulative sum down the whole rows of the (rows, stride) view, then the
    last whole row added into the partial row after it.  Sums of int64
    residues below m grow to at most m * (len/stride + 1); wrapping
    unsigned words stay exact modulo their 2^w.
    """
    rows, tail = divmod(len(buf), stride)
    whole = rows * stride
    if rows > 1:
        view = buf[:whole].reshape(rows, stride)
        np.cumsum(view, axis=0, dtype=buf.dtype, out=view)
    if rows and tail:
        buf[whole:] += buf[whole - stride : whole - stride + tail]


def _sparse_power(g, a: int) -> tuple[int, ...]:
    """Exact coefficients of g^a for integer coefficients g with g_0 = +/-1.

    y = g^a satisfies g*y' = a*g'*y, so
    g_0*n*y_n = sum_j (a*j - (n-j))*g_j*y_(n-j) over the nonzero g_j,
    j >= 1: O(N * nonzeros), O(N^1.5) for a theta series.  Any integer a
    works; a = -1 is the inverse.
    """
    g0 = g[0]
    # (a*j - (n-j))*g_j = w_j - n*g_j with w_j = (a+1)*j*g_j fixed per term
    terms = [(j, c, (a + 1) * j * c) for j, c in enumerate(g) if j and c]
    y = [g0 ** (a % 2)] + [0] * (len(g) - 1)
    for n in range(1, len(g)):
        acc = 0
        for j, c, w in terms:
            if j > n:
                break
            acc += (w - n * c) * y[n - j]
        y[n] = g0 * acc // n
    return tuple(y)
