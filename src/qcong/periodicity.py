"""Minimum periods of restricted-partition series modulo prime powers.

Kwong's closed form: for a prime l, a finite multiset S of positive parts and
N >= 1, the series of partitions into parts from S is purely periodic modulo
l^N with minimum period l^(N + b - 1) * m, where l^b is the least power of l
at least sum_{s in S} l^ord_l(s) (multiplicity-weighted) and m is the l-free
part of lcm(S).  An empirical detector cross-validates the formula on
explicitly built series.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .genfun import Family, build_series
from .series import Mod, Series


class InsufficientOrder(ValueError):
    """Series is too short for a trustworthy period scan."""


# Deterministic Miller-Rabin: the first 13 prime bases decide primality
# exactly below the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 2017).  The first 12 alone pass the composite
# 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# Leading terms on which every candidate shift of ``empirical_period`` is
# tested before any is compared over the whole series.
_LEADING_TERMS = 64

# Python converts an int of more than 4300 digits to text only on request
# (sys.set_int_max_str_digits), so a longer period could not be printed.
_PERIOD_DIGITS = 4300


@dataclass(frozen=True)
class PeriodReport:
    """Kwong parameters for one (S, ell, N), plus an optional empirical check.

    The closed form is the *minimum* period for non-degenerate S; for
    singleton multisets it can overshoot the true pure period, so agreement
    is recorded rather than assumed.
    """

    prime: int
    power: int
    parts: tuple[int, ...]
    b_value: int
    m_value: int
    period: int
    empirical_period: int | None = None
    agreement: bool | None = None

    def to_json(self) -> dict:
        return {**asdict(self), "parts": list(self.parts)}


def kwong_period(parts, ell: int, power: int) -> PeriodReport:
    """Closed-form minimum period of the parts-from-S series mod ell^power.

    ell must be a prime below 3.3 * 10^24, where Miller-Rabin over the
    first 13 prime bases is exact; anything else raises ValueError, and so
    does a period of more than 4300 digits, before it is computed.
    """
    parts = Family.restricted(parts).parts
    if power < 1:
        raise ValueError("power must be >= 1")
    if ell >= _MR_LIMIT:
        raise ValueError(f"prime {ell} is not below {_MR_LIMIT}, the limit of "
                         "the primality test")
    if ell < 2 or not _strong_probable_prime(ell):
        raise ValueError(f"{ell} is not prime")
    # l^b is the least power of l at least sum_S l^ord_l(s); m is the
    # l-free part of lcm(S)
    total = 0
    for part in parts:
        weight = 1
        while part % ell == 0:
            part //= ell
            weight *= ell
        total += weight
    b = 0
    while ell**b < total:
        b += 1
    m = math.lcm(*parts)
    while m % ell == 0:
        m //= ell
    exponent = power + b - 1
    # the period has floor(size) + 1 digits; near the limit, compare exactly
    size = exponent * math.log10(ell) + math.log10(m)
    if size > _PERIOD_DIGITS + 1 or (
        size > _PERIOD_DIGITS - 1 and ell**exponent * m >= 10**_PERIOD_DIGITS
    ):
        # an m of more than 4300 digits cannot be printed either
        m_text = m if m < 10**_PERIOD_DIGITS else (
            f"(an integer of about {int(math.log10(m)) + 1} digits)")
        raise ValueError(f"the period {ell}^{exponent} * {m_text} has about "
                         f"{int(size) + 1} digits, more than the limit of "
                         f"{_PERIOD_DIGITS}")
    return PeriodReport(
        prime=ell,
        power=power,
        parts=parts,
        b_value=b,
        m_value=m,
        period=ell**exponent * m,
    )


def _two_adic_period(parts, modulus: int) -> int | None:
    """Kwong's period of the parts mod ``modulus`` = 2^r, or None when refused.

    ``kwong_period`` refuses a period of more than 4300 digits; a build or a
    scan then goes without one.
    """
    try:
        return kwong_period(parts, 2, modulus.bit_length() - 1).period
    except ValueError:
        return None


def _strong_probable_prime(n: int) -> bool:
    """Whether n >= 2 passes Miller-Rabin to every base in ``_MR_BASES``."""
    if n in _MR_BASES:
        return True
    if any(n % p == 0 for p in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_guard(guard: int) -> None:
    if guard < 3:
        raise ValueError(f"guard must be >= 3, got {guard}")


def empirical_period(series: Series, max_period: int, guard: int = 3) -> int | None:
    """Smallest pure period d <= max_period of the coefficients, or None.

    Requires order >= guard * max_period (guard >= 3) so a match cannot be a
    short-window coincidence.  d qualifies when coeff(n + d) = coeff(n) for
    every n with n + d inside the truncation.
    """
    if series.ring.exact:
        raise ValueError("empirical_period needs a series over a modular ring")
    _check_guard(guard)
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if series.order < guard * max_period:
        raise InsufficientOrder(
            f"order {series.order} < guard*max_period = {guard * max_period}"
        )
    arr = series._c
    shifts = np.arange(1, max_period + 1)
    # every shift is tested at once on the leading terms, until at most one
    # is left; the survivors are confirmed in ascending order over the whole
    # truncation
    for i in range(min(_LEADING_TERMS, arr.size - max_period)):
        if shifts.size < 2:
            break
        shifts = shifts[arr[shifts + i] == arr[i]]
    for d in shifts.tolist():
        if np.array_equal(arr[d:], arr[:-d]):
            return d
    return None


def cross_check(parts, ell: int, power: int, guard: int = 3) -> PeriodReport:
    """Kwong report with the empirically detected period filled in.

    Builds the restricted-partition series mod ell^power just long enough for
    the detector and records whether formula and detection agree.  A guard
    below 3 is refused before anything is built.
    """
    _check_guard(guard)
    report = kwong_period(parts, ell, power)
    order = guard * report.period + report.period // 2 + 8
    series = build_series(
        Family.restricted(report.parts), order, Mod(ell**report.power)
    )
    found = empirical_period(series, report.period, guard)
    return replace(report, empirical_period=found,
                   agreement=found == report.period)
