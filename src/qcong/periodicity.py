"""Minimum periods of restricted-partition series modulo prime powers.

Kwong's closed form: for a prime l, a finite multiset S of positive parts and
N >= 1, the series of partitions into parts from S is purely periodic modulo
l^N with minimum period l^(N + b - 1) * m, where l^b is the least power of l
at least sum_{s in S} l^ord_l(s) (multiplicity-weighted) and m is the l-free
part of lcm(S).  An empirical detector cross-validates the formula on
explicitly built series.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .genfun import Family, Multiset, build_series
from .series import Mod, Series


class InsufficientOrder(ValueError):
    """Series is too short for a trustworthy period scan."""


def is_prime(n: int) -> bool:
    """Trial division; intended for moduli up to about 10^6."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_prime(ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")


def ord_prime(n: int, ell: int) -> int:
    """Exponent of the prime ell in n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_prime(ell)
    e = 0
    while n % ell == 0:
        n //= ell
        e += 1
    return e


def ell_free_part(n: int, ell: int) -> int:
    """The cofactor m in n = ell^e * m with ell not dividing m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_prime(ell)
    while n % ell == 0:
        n //= ell
    return n


def _as_multiset(parts) -> Multiset:
    return parts if isinstance(parts, Multiset) else Multiset.from_parts(parts)


def b_value(parts, ell: int) -> int:
    """Least b with ell^b >= sum over the multiset of ell^ord_ell(part)."""
    ms = _as_multiset(parts)
    _check_prime(ell)
    total = sum(mult * ell ** ord_prime(part, ell) for part, mult in ms.entries)
    b = 0
    while ell**b < total:
        b += 1
    return b


def m_value(parts, ell: int) -> int:
    """The ell-free part of lcm over the multiset."""
    ms = _as_multiset(parts)
    return ell_free_part(ms.lcm(), ell)


@dataclass(frozen=True)
class PeriodReport:
    """Kwong parameters for one (S, ell, N), plus an optional empirical check.

    The closed form is the *minimum* period for non-degenerate S; for
    singleton multisets it can overshoot the true pure period, so agreement
    is recorded rather than assumed.
    """

    prime: int
    power: int
    multiset: Multiset
    b_value: int
    m_value: int
    period: int
    empirical_period: int | None = None
    agreement: bool | None = None

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "power": self.power,
            "parts": list(self.multiset.parts),
            "b_value": self.b_value,
            "m_value": self.m_value,
            "period": self.period,
            "empirical_period": self.empirical_period,
            "agreement": self.agreement,
        }


def kwong_period(parts, ell: int, power: int) -> PeriodReport:
    """Closed-form minimum period of the parts-from-S series mod ell^power."""
    ms = _as_multiset(parts)
    if power < 1:
        raise ValueError("power must be >= 1")
    b = b_value(ms, ell)
    m = m_value(ms, ell)
    return PeriodReport(
        prime=ell,
        power=power,
        multiset=ms,
        b_value=b,
        m_value=m,
        period=ell ** (power + b - 1) * m,
    )


def empirical_period(series: Series, max_period: int, guard: int = 3) -> int | None:
    """Smallest pure period d <= max_period of the coefficients, or None.

    Requires order >= guard * max_period (guard >= 3) so a match cannot be a
    short-window coincidence.  d qualifies when coeff(n + d) = coeff(n) for
    every n with n + d inside the truncation.
    """
    if series.ring.exact:
        raise ValueError("empirical_period needs a series over a modular ring")
    if guard < 3:
        raise ValueError("guard must be >= 3")
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if series.order < guard * max_period:
        raise InsufficientOrder(
            f"order {series.order} < guard*max_period = {guard * max_period}"
        )
    arr = np.ascontiguousarray(series._c)
    buf = memoryview(arr.tobytes())
    step = arr.itemsize
    for d in range(1, max_period + 1):
        if buf[d * step :] == buf[: -d * step]:
            return d
    return None


def cross_check(parts, ell: int, power: int, guard: int = 3) -> PeriodReport:
    """Kwong report with the empirically detected period filled in.

    Builds the restricted-partition series mod ell^power just long enough for
    the detector and records whether formula and detection agree.
    """
    report = kwong_period(parts, ell, power)
    order = guard * report.period + report.period // 2 + 8
    series = build_series(
        Family.restricted(report.multiset), order, Mod(ell**report.power)
    )
    found = empirical_period(series, report.period, guard)
    return replace(report, empirical_period=found,
                   agreement=found == report.period)
