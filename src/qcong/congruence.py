"""Arithmetic-progression congruence claims, the checker, and the built-in suite.

A claim states that a family's counting function, sampled along l*n + b for
n >= n_start, has a constant residue, equals another family's function, or
matches a number-theoretic predicate, all modulo m.  The built-in suite
encodes the congruence catalog for overpartitions and (k-rowed) plane
overpartitions modulo 4, 8, 12 and 64 under stable labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .genfun import Family, build_series
from .series import Ring, Series, _reduce

# numpy after the package modules: importing it first raises the peak RSS
# (ru_maxrss) of ``import qcong.congruence`` by about 2 MB
import numpy as np


class SeriesOrderTooSmall(ValueError):
    """A verification bound exceeds the truncation order of a series."""


# -- number-theoretic predicates ----------------------------------------------


def _square_table(top: int) -> np.ndarray:
    """Boolean table t with t[k] = (k is a perfect square) for 0 <= k <= top."""
    table = np.zeros(top + 1, dtype=bool)
    table[np.arange(math.isqrt(top) + 1) ** 2] = True
    return table


def _top(args: np.ndarray) -> int:
    return int(args.max()) if args.size else 0


def _square_split(args: np.ndarray):
    squares = _square_table(_top(args))
    hit = squares[args] | ((args % 2 == 0) & squares[args // 2])
    return 2 * hit.astype(np.int64), None


def _nonsquare_odd(args: np.ndarray):
    keep = (args % 2 == 1) & ~_square_table(_top(args))[args]
    return np.zeros(args.size, dtype=np.int64), keep


def _odd_divisor_counts(args: np.ndarray) -> np.ndarray:
    """Odd-divisor counts of arguments >= 1: divisor counts of their odd parts.

    The sieve adds 2 to every odd multiple m >= k^2 of each odd k <= sqrt(top)
    (the divisor pair k, m/k) and 1 at m = k^2.
    """
    odd = args // (args & -args)
    counts = np.zeros(_top(odd) + 1, dtype=np.int64)
    for k in range(1, math.isqrt(counts.size - 1) + 1, 2):
        counts[k * k :: 2 * k] += 2
        counts[k * k] -= 1
    return counts[odd]


def _odd_divisor_formula(args: np.ndarray):
    return 2 * _odd_divisor_counts(args), None


# Each predicate maps an int64 array of arguments >= 0 to (expected, keep):
# the expected values before reduction, and a mask of the arguments it
# applies to (None: all of them).
PREDICATES = {
    "square-or-twice-square": _square_split,
    "nonsquare-odd": _nonsquare_odd,
    "odd-divisor-formula": _odd_divisor_formula,
}


# -- claim model ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Constant:
    residue: int


@dataclass(frozen=True, slots=True)
class Equivalent:
    other: Family


@dataclass(frozen=True, slots=True)
class Predicate:
    name: str


@dataclass(frozen=True, slots=True)
class Claim:
    """family(l*n + b) compared modulo ``modulus`` for n >= n_start."""

    label: str
    family: Family
    modulus: int
    l: int
    b: int
    kind: Constant | Equivalent | Predicate
    n_start: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not 0 <= self.b < self.l:  # so l >= 1
            raise ValueError("need l >= 1 and 0 <= b < l")
        if self.n_start < 0:
            raise ValueError("n_start must be >= 0")
        kind = self.kind
        if isinstance(kind, Constant):
            if not 0 <= kind.residue < self.modulus:
                raise ValueError("constant residue must be reduced")
        elif isinstance(kind, Predicate):
            if kind.name not in PREDICATES:
                raise ValueError(f"unknown predicate {kind.name!r}")
            first = self.l * self.n_start + self.b
            if kind.name == "odd-divisor-formula" and first < 2:
                raise ValueError(
                    f"predicate odd-divisor-formula needs arguments >= 2, but "
                    f"ap.n_start and ap.b give a first argument l*n_start + b = {first}"
                )

    def to_json(self) -> dict:
        if isinstance(self.kind, Constant):
            kind = {"type": "constant", "residue": self.kind.residue}
        elif isinstance(self.kind, Equivalent):
            kind = {"type": "equivalent", "other": self.kind.other.token}
        else:
            kind = {"type": "predicate", "id": self.kind.name}
        return {
            "label": self.label,
            "family": self.family.token,
            "ap": {"l": self.l, "b": self.b, "n_start": self.n_start},
            "modulus": self.modulus,
            "kind": kind,
        }


@dataclass(frozen=True, slots=True)
class SumClaim:
    """sum_i family_i(l*n + b_i) has a constant residue modulo ``modulus``."""

    label: str
    terms: tuple[tuple[Family, int], ...]  # (family, offset b_i)
    modulus: int
    l: int
    residue: int
    n_start: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if self.l < 1:
            raise ValueError("need l >= 1")
        if self.n_start < 0:
            raise ValueError("n_start must be >= 0")
        if any(b < 0 for _, b in self.terms):
            raise ValueError("term offsets must be >= 0")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("constant residue must be reduced")

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "family": [f.token for f, _ in self.terms],
            "ap": {
                "l": self.l,
                "b": [b for _, b in self.terms],
                "n_start": self.n_start,
            },
            "modulus": self.modulus,
            "kind": {
                "type": "sum",
                "terms": [{"family": f.token, "b": b} for f, b in self.terms],
                "residue": self.residue,
            },
        }


@dataclass(frozen=True, slots=True)
class Report:
    """Outcome of checking one claim up to a bound.

    ``counterexample`` is (n, arg, got, expected) for the first failing
    member.  For a Claim, arg = l*n + b; for a SumClaim, arg is the first
    term's argument l*n + b_1 and got is the sum's residue.
    """

    claim: Claim | SumClaim
    bound: int
    members: int
    outcome: str  # "pass" | "counterexample" | "vacuous" (no members)
    counterexample: tuple[int, int, int, int] | None = None  # n, arg, got, want
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_json(self) -> dict:
        out = {
            **self.claim.to_json(),
            "outcome": self.outcome,
            "members": self.members,
            "bound": self.bound,
        }
        if self.counterexample is not None:
            n, arg, got, want = self.counterexample
            out["counterexample"] = {"n": n, "arg": arg, "got": got, "expected": want}
        if self.note:
            out["note"] = self.note
        return out


_MISSING = object()
_JSON_TYPES = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _field(obj, key: str, kind: type, path: str, default=_MISSING):
    """obj[key] of the given JSON type, or ``default`` when it is absent."""
    if not isinstance(obj, dict):
        raise ValueError(f"claim field {path} must be an object" if path
                         else "a claim must be a JSON object")
    value = obj.get(key, default)
    name = f"{path}.{key}" if path else key
    if value is _MISSING:
        raise ValueError(f"claim field {name} is missing")
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"claim field {name} must be {_JSON_TYPES[kind]}")
    return value


def claim_from_json(raw) -> Claim | SumClaim:
    """Decode the claim fields of ``Report.to_json()`` (or hand-written ones).

    ``label`` defaults to "custom" ("custom-sum"), ``ap.l`` to 1, ``ap.b``
    and ``ap.n_start`` to 0, and ``kind.type`` to "constant".  A sum claim
    takes its families and offsets from ``kind.terms``.  A missing or
    ill-typed field raises ValueError naming the field.
    """
    ap = _field(raw, "ap", dict, "", {})
    kind = _field(raw, "kind", dict, "", {})
    ktype = _field(kind, "type", str, "kind", "constant")
    modulus = _field(raw, "modulus", int, "")
    l = _field(ap, "l", int, "ap", 1)
    n_start = _field(ap, "n_start", int, "ap", 0)
    if ktype == "sum":
        terms = []
        for i, term in enumerate(_field(kind, "terms", list, "kind")):
            path = f"kind.terms[{i}]"
            family = Family.from_token(_field(term, "family", str, path))
            terms.append((family, _field(term, "b", int, path)))
        return SumClaim(_field(raw, "label", str, "", "custom-sum"), tuple(terms),
                        modulus, l, _field(kind, "residue", int, "kind"), n_start)
    if ktype == "constant":
        claim_kind = Constant(_field(kind, "residue", int, "kind"))
    elif ktype == "equivalent":
        claim_kind = Equivalent(Family.from_token(_field(kind, "other", str, "kind")))
    elif ktype == "predicate":
        claim_kind = Predicate(_field(kind, "id", str, "kind"))
    else:
        raise ValueError(f"unknown claim kind {ktype!r}")
    return Claim(_field(raw, "label", str, "", "custom"),
                 Family.from_token(_field(raw, "family", str, "")),
                 modulus, l, _field(ap, "b", int, "ap", 0), claim_kind, n_start)


class SeriesStore:
    """Builds each (family, modulus) series once at a fixed order.

    Claims share expensive series; verification functions consume the store
    instead of constructing anything themselves.
    """

    def __init__(self, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        self._cache: dict[tuple[Family, int | None], Series] = {}

    def get(self, family: Family, modulus: int | None = None) -> Series:
        key = (family, modulus)
        got = self._cache.get(key)
        if got is None:
            got = build_series(family, self.order, Ring(modulus))
            self._cache[key] = got
        return got

    def put(self, family: Family, modulus: int | None, series: Series) -> None:
        if series.order != self.order:
            raise ValueError("series order does not match the store")
        if series.ring != Ring(modulus):
            raise ValueError(
                f"series ring {series.ring!r} does not match modulus {modulus}"
            )
        self._cache[(family, modulus)] = series


def _require_order(series: Series, bound: int, noun: str = "verification") -> None:
    if series.order < bound:
        raise SeriesOrderTooSmall(
            f"series order {series.order} < {noun} bound {bound}"
        )


def _report(claim, bound: int, got, want, b: int, args=None) -> Report:
    """Compare the members ``got`` with ``want``, an array or one residue.

    Member i is n = n_start + i at argument l*n + b, unless ``args`` lists
    the arguments.  The first mismatch is the counterexample (n, arg, got,
    want); no members is vacuous; otherwise the claim passes.
    """
    bad = got != want
    if np.count_nonzero(bad):  # a third of the cost of bad.any()
        i = int(bad.argmax())
        if args is None:
            n = claim.n_start + i
        else:
            n = (int(args[i]) - b) // claim.l
        expected = want[i] if np.ndim(want) else want
        return Report(claim, bound, i + 1, "counterexample",
                      (n, claim.l * n + b, int(got[i]), int(expected)))
    if got.size == 0:
        return Report(claim, bound, 0, "vacuous",
                      note="no progression members within bound")
    return Report(claim, bound, got.size, "pass")


def verify_claim(claim: Claim, store: SeriesStore, bound: int) -> Report:
    """Check every progression member l*n + b <= bound with n >= n_start."""
    series = store.get(claim.family, claim.modulus)
    _require_order(series, bound)
    m = claim.modulus
    ap = slice(claim.l * claim.n_start + claim.b, bound + 1, claim.l)
    got = series._c[ap]
    if isinstance(claim.kind, Constant):
        return _report(claim, bound, got, claim.kind.residue, claim.b)
    if isinstance(claim.kind, Equivalent):
        other = store.get(claim.kind.other, m)
        _require_order(other, bound)
        return _report(claim, bound, got, other._c[ap], claim.b)
    args = np.arange(ap.start, ap.stop, ap.step, dtype=np.int64)
    want, keep = PREDICATES[claim.kind.name](args)
    _reduce(want, m, out=want)
    if keep is not None:
        args, got, want = args[keep], got[keep], want[keep]
    return _report(claim, bound, got, want, claim.b, args)


def verify_sum_claim(claim: SumClaim, store: SeriesStore, bound: int) -> Report:
    """Check sum_i a_i(l*n + b_i) = residue (mod m) for all members <= bound."""
    if not claim.terms:
        return Report(claim, bound, 0, "vacuous", note="no terms")
    series = [store.get(f, claim.modulus) for f, _ in claim.terms]
    for s in series:
        _require_order(s, bound)
    l, m, n0 = claim.l, claim.modulus, claim.n_start
    offsets = [b for _, b in claim.terms]
    count = max(0, (bound - max(offsets)) // l - n0 + 1)
    total = np.zeros(count, dtype=np.int64)
    for s, b in zip(series, offsets):
        start = l * n0 + b
        # both summands are below m < 2^62, so the sum cannot overflow int64
        total += s._c[start : start + l * count : l]
        _reduce(total, m, out=total)
    # a sum claim reports the first term's argument l*n + b_1
    return _report(claim, bound, total, claim.residue, offsets[0])


def verify(claims, store: SeriesStore, bound: int) -> list[Report]:
    """Verify many claims at one bound, reports returned in label order."""
    reports = []
    for c in sorted(claims, key=lambda c: c.label):
        if isinstance(c, SumClaim):
            reports.append(verify_sum_claim(c, store, bound))
        else:
            reports.append(verify_claim(c, store, bound))
    return reports


# Verification bound per modulus.  A bound is never below 2*l, so a row
# whose first member exceeds the base (the 3465n rows) is not passed empty.
BASE = {4: 2000, 8: 4620, 12: 4000, 64: 4000}


def reference_bound(claim: Claim | SumClaim) -> int:
    """The bound a claim is verified at when none is given."""
    if claim.modulus not in BASE:
        raise ValueError(
            f"no reference bound for modulus {claim.modulus} "
            f"(known: {', '.join(map(str, BASE))}); pass a bound"
        )
    return max(BASE[claim.modulus], 2 * claim.l)


def verify_at_reference(claims) -> list[Report]:
    """Verify each claim at its reference bound, reports in label order.

    Claims sharing a bound share one SeriesStore sized to it, so every
    series is built to the bound its claims need rather than to the largest
    bound of the selection (the mod 4 claims need 2000, the 3465n rows 6930).
    """
    groups: dict[int, list] = {}
    for c in claims:
        groups.setdefault(reference_bound(c), []).append(c)
    reports = [
        r for bound, group in groups.items()
        for r in verify(group, SeriesStore(bound), bound)
    ]
    return sorted(reports, key=lambda r: r.claim.label)


# -- the built-in suite ---------------------------------------------------------


def _odd_primes_below(k: int) -> list[int]:
    return [p for p in range(3, k, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


def _even_k_rows(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Progressions (b, residue) modulo lcm of odd j < k, per the parity rule.

    The l*n row has residue 0 for k = 0 (mod 4) and 2 for k = 2 (mod 4); the
    l*n + p^r rows have residue 0 for odd r and 2 for even r.
    """
    odd_js = list(range(1, k, 2))
    l = math.lcm(*odd_js)
    rows = [(0, 0 if k % 4 == 0 else 2)]
    for p in _odd_primes_below(k):
        e = 0
        rest = l
        while rest % p == 0:
            rest //= p
            e += 1
        for r in range(1, e + 1):
            rows.append((p**r, 0 if r % 2 == 1 else 2))
    return l, rows


def _ap_text(l: int, b: int) -> str:
    return f"{l}n+{b}" if b else f"{l}n"


def _canonical_ap(l: int, offset: int, n_start: int) -> tuple[int, int]:
    """Fold an offset >= l into the progression start: same argument set."""
    return offset % l, n_start + offset // l


def builtin_suite() -> list[Claim | SumClaim]:
    """The deterministic catalog of congruence claims, with stable labels."""
    plane = Family.plane()
    over = Family.overpartitions()
    oddover = Family.odd_overpartitions()
    claims: list[Claim | SumClaim] = []
    # Mod 4 and 8 over is genfun._over_power's theta closed form, and oddover
    # mod 8 phi(q)*over(q^2), so those rows follow from the identities; oddover
    # mod 4 comes from genfun._expansion.  Kernel and Newton tests check both.

    # square/twice-square residue split mod 4, and the family equivalence
    claims.append(
        Claim("thm1.2-pl-square-split-mod4", plane, 4, 1, 0,
              Predicate("square-or-twice-square"), n_start=1)
    )
    claims.append(
        Claim("thm1.2-pl-eq-oddover-mod4", plane, 4, 1, 0,
              Equivalent(oddover), n_start=1)
    )
    claims.append(
        Claim("thm2.6-oddover-square-split-mod4", oddover, 4, 1, 0,
              Predicate("square-or-twice-square"), n_start=1)
    )
    # odd-divisor-count formula mod 4, n >= 2
    claims.append(
        Claim("thm1.3-pl-odd-divisor-mod4", plane, 4, 1, 0,
              Predicate("odd-divisor-formula"), n_start=2)
    )

    # even-k rowed families: l*n and l*n + p^r rows mod 4, each followed by
    # the same row restated as the corollary's explicit instance where it is one
    cor33 = {4: [0], 6: None, 8: None, 10: None, 12: None}  # None = all rows
    for k in (2, 4, 6, 8, 10, 12):
        fam = Family.k_rowed(k)
        l, rows = _even_k_rows(k)
        keep = cor33.get(k, [])
        for offset, residue in rows:
            b, n0 = _canonical_ap(l, offset, 1)
            restated = keep is None or offset in keep
            for source in ("thm1.4", "cor3.3") if restated else ("thm1.4",):
                claims.append(
                    Claim(f"{source}-pl{k}-{_ap_text(l, offset)}-mod4", fam, 4, l, b,
                          Constant(residue), n_start=n0)
                )

    # odd-rowed families agree with overpartitions on odd arguments mod 4
    for half in range(0, 7):
        k = 2 * half + 1
        claims.append(
            Claim(f"thm1.5-pl{k}-2n+1-eq-over-mod4", Family.k_rowed(k), 4, 2, 1,
                  Equivalent(over), n_start=0)
        )
    claims.append(
        Claim("cor3.2-pl-2n+1-eq-over-mod4", plane, 4, 2, 1,
              Equivalent(over), n_start=0)
    )

    # odd-rowed families agree with overpartitions along lcm-of-evens rows
    for half in (2, 3, 4):
        k = 2 * half + 1
        l = math.lcm(*range(2, 2 * half + 1, 2))
        fam = Family.k_rowed(k)
        for j in range(2, half.bit_length() + 2, 2):
            if 2 ** (j - 1) > half:
                continue
            b, n0 = _canonical_ap(l, 2**j, 1)
            claims.append(
                Claim(f"thm1.6-pl{k}-{l}n+{2**j}-eq-over-mod4", fam, 4, l, b,
                      Equivalent(over), n_start=n0)
            )
        if half % 2 == 0:
            claims.append(
                Claim(f"thm1.6-pl{k}-{l}n-eq-over-mod4", fam, 4, l, 0,
                      Equivalent(over), n_start=0)
            )

    # 4- and 8-rowed rows that vanish mod 8
    for k, l, b in ((4, 12, 0), (4, 6, 3), (8, 210, 0), (8, 210, 3),
                    (8, 210, 9), (8, 210, 105)):
        claims.append(
            Claim(f"thm1.7-pl{k}-{_ap_text(l, b)}-mod8", Family.k_rowed(k), 8,
                  l, b, Constant(0), n_start=1)
        )

    claims.append(
        Claim("thm1.8-over-nonsquare-odd-mod8", over, 8, 2, 1,
              Predicate("nonsquare-odd"), n_start=0)
    )
    for b in (1, 5):
        claims.append(
            Claim(f"thm1.9-pl5-12n+{b}-eq-over-mod8", Family.k_rowed(5), 8,
                  12, b, Equivalent(over), n_start=0)
        )

    claims.append(Claim("cor3.1-pl-4n+3-mod4", plane, 4, 4, 3, Constant(0)))

    # arguments 9^alpha*(54n+45) are odd nonsquares: everything vanishes mod 4
    for fam in [plane] + [Family.k_rowed(2 * j + 1) for j in range(0, 7)]:
        tag = "pl" if fam.kind == "plane" else fam.token.replace("plk", "pl")
        for l, b in ((54, 45), (486, 405)):
            claims.append(
                Claim(f"cor3.4-{tag}-{l}n+{b}-mod4", fam, 4, l, b, Constant(0))
            )

    claims.append(
        SumClaim("cor3.5-pl4-sum-4n+123-mod4",
                 ((Family.k_rowed(4), 1), (Family.k_rowed(4), 2),
                  (Family.k_rowed(4), 3)),
                 modulus=4, l=4, residue=0, n_start=0)
    )

    # overpartition congruences mod 8 along 2^a*3^b progressions, offset 5
    for l in (8, 16, 24, 48):
        claims.append(
            Claim(f"cor3.10-over-{l}n+5-mod8", over, 8, l, 5, Constant(0))
        )
    claims.append(Claim("cor3.11-over-4n+3-mod8", over, 8, 4, 3, Constant(0)))
    # 5-rowed analog: needs the factor 3 in the progression modulus (the
    # 8n+5 and 16n+5 variants are false: pl_5(21) = 4 mod 8)
    for l in (24, 48):
        claims.append(
            Claim(f"cor3.12-pl5-{l}n+5-mod8", Family.k_rowed(5), 8, l, 5,
                  Constant(0))
        )

    # classical overpartition congruences restated as claims
    claims.append(Claim("ext-over-9n+6-mod8", over, 8, 9, 6, Constant(0)))
    claims.append(Claim("ext-over-8n+7-mod64", over, 64, 8, 7, Constant(0)))
    claims.append(Claim("ext-over-27n+18-mod12", over, 12, 27, 18, Constant(0)))
    claims.append(Claim("ext-over-243n+162-mod12", over, 12, 243, 162, Constant(0)))

    return claims


def claims_by_label(prefixes) -> list[Claim | SumClaim]:
    """Suite claims whose label starts with any of the given prefixes."""
    wanted = tuple(prefixes)
    return [c for c in builtin_suite() if c.label.startswith(wanted)]
