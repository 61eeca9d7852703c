"""Search for arithmetic-progression congruences modulo powers of two.

The scanner sweeps every progression l*n + b with l <= l_max over a family's
series modulo 2^r and reports progressions whose members all share one
residue.  Findings implied by an already-reported coarser progression are
pruned, and findings matching the built-in claim catalog are tagged as known
rather than candidates.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .congruence import Claim, Constant, _require_order, builtin_suite
from .genfun import Family, build_series
from .series import Mod, Series


@dataclass(frozen=True)
class ScanConfig:
    family: Family
    modulus: int          # a power of two, 2^r with r >= 1
    l_max: int
    bound: int
    min_support: int = 20

    def __post_init__(self) -> None:
        m = self.modulus
        if m < 2 or m & (m - 1):
            raise ValueError("modulus must be a power of two >= 2")
        if self.min_support < 10:
            raise ValueError("min_support must be >= 10")
        if self.l_max < 1 or self.bound < 1:
            raise ValueError("l_max and bound must be >= 1")


@dataclass(frozen=True)
class Finding:
    """One constant-residue progression observed up to a bound.

    A Candidate carries no proof; MatchesKnown points at the catalog label
    it reproduces.
    """

    claim: Claim
    support: int
    bound: int
    status: str  # "candidate" | "matches-known:<label>"

    def to_json(self) -> dict:
        return {
            "family": self.claim.family.token,
            "l": self.claim.l,
            "b": self.claim.b,
            "c": self.claim.kind.residue,
            "modulus": self.claim.modulus,
            "support": self.support,
            "bound": self.bound,
            "status": self.status,
        }


def _scan_claim(family: Family, modulus: int, l: int, b: int, residue: int) -> Claim:
    """The claim a finding states; progressions with b = 0 start at n = 1."""
    return Claim(f"scan-{family.token}-mod{modulus}-{l}n+{b}", family, modulus,
                 l, b, Constant(residue), n_start=1 if b == 0 else 0)


def _finding(cfg: ScanConfig, l: int, b: int, residue: int, support: int,
             known: dict) -> Finding:
    claim = _scan_claim(cfg.family, cfg.modulus, l, b, residue)
    label = known.get((l, b, residue))
    status = "candidate" if label is None else f"matches-known:{label}"
    return Finding(claim, support, cfg.bound, status)


@functools.cache
def _known_constant_claims() -> dict:
    """Catalog labels of the constant claims: (family, modulus) -> (l, b, c) -> label."""
    known: dict = {}
    for c in builtin_suite():
        if isinstance(c, Claim) and isinstance(c.kind, Constant):
            rows = known.setdefault((c.family, c.modulus), {})
            rows.setdefault((c.l, c.b, c.kind.residue), c.label)
    return known


# Rows of the (row, b) table read before a column's whole progression is.
_PREFIX_ROWS = 8


def _check_ring(series: Series, modulus: int) -> None:
    if series.ring != Mod(modulus):
        raise ValueError(f"series ring {series.ring!r} is not Z/{modulus}")


def _checked_period(cfg: ScanConfig, arr: np.ndarray) -> int | None:
    """Kwong's period of a restricted family mod 2^r, if the coefficients have it.

    The period is trusted only after the truncation shows it: it fits in the
    coefficients read and every one repeats after it.  A series that fails
    (a caller's ``series=`` need not be the family's) gets None.
    """
    if cfg.family.kind != "restricted":
        return None
    from .periodicity import kwong_period  # only restricted scans pay for it

    period = kwong_period(cfg.family.parts, 2, cfg.modulus.bit_length() - 1).period
    if period > arr.size or not np.array_equal(arr[period:], arr[:-period]):
        return None
    return period


def _constant_columns(arr: np.ndarray, bound: int, l: int, lo: int,
                      zero: bool) -> np.ndarray:
    """The constant columns b >= lo of the table for l, and b = 0 when zero.

    The first rows are read for every column; a column whose values already
    differ there is dropped, and only the survivors are read to the bound.
    """
    head = arr[: _PREFIX_ROWS * l].reshape(_PREFIX_ROWS, l)
    alive = (head[2:] == head[1]).all(axis=0)
    alive[1:] &= head[0, 1:] == head[1, 1:]  # row 0 of b = 0 is a(0)
    alive[1:lo] = False
    alive[0] &= zero
    b = np.flatnonzero(alive)
    if not b.size:
        return b
    rows = (bound + 1) // l
    table = arr[: rows * l].reshape(rows, l)[:, b]
    residue = table[1]
    same = (table[2:] == residue).all(axis=0)
    same &= (table[0] == residue) | (b == 0)
    tail = arr[rows * l :]  # the last, partial row
    inside = b < tail.size
    same[inside] &= tail[b[inside]] == residue[inside]
    return b[same]


def scan_ap_congruences(cfg: ScanConfig, series: Series | None = None) -> list[Finding]:
    """All unsubsumed constant-residue progressions of the configured family.

    Progressions start at n = 1 when b = 0 (the constant term is excluded)
    and at n = 0 otherwise.  A progression is reported only when it has at
    least min_support members below the bound, all with equal residue, and
    no coarser reported progression already implies it.

    For each l the coefficients are read as a table with one row per n and
    one column per b.  A column whose first rows already differ is dropped;
    only the surviving columns are compared over their whole progression.

    A restricted family's series is purely periodic with Kwong's period P
    (checked on the coefficients, see ``_checked_period``).  Then column b of
    l repeats with period T = P/gcd(l, P) in n, and once it has T members it
    has run through every coefficient of one period in class b mod gcd(l, P):
    it is constant exactly when that class is, and no row of it is read.
    """
    if series is None:
        series = build_series(cfg.family, cfg.bound, Mod(cfg.modulus))
    _check_ring(series, cfg.modulus)
    _require_order(series, cfg.bound, "scan")
    bound = cfg.bound
    arr = series._c[: bound + 1]
    period = _checked_period(cfg, arr)
    classes: dict[int, np.ndarray] = {}  # gcd(l, P) -> its constant classes
    known = _known_constant_claims().get((cfg.family, cfg.modulus), {})
    reported: dict[int, np.ndarray] = {}  # l -> residue reported at each b, or -1
    findings: list[Finding] = []
    for l in range(1, cfg.l_max + 1):
        # b = 1 has the most members; support only shrinks as l grows, and
        # min_support >= 10 leaves at least 9 > _PREFIX_ROWS full rows here
        if (bound - 1) // l + 1 < cfg.min_support:
            break
        lo, zero = 1, True  # the columns b >= lo, and b = 0 if zero, are read
        b = None
        if period is not None:
            g = math.gcd(l, period)
            t = period // g
            # b >= 1 has t members up to b = bound - (t - 1) l; b = 0, whose
            # members start at n = l, has them when bound >= t l
            lo = min(l, max(1, bound - (t - 1) * l + 1))
            zero = bound < t * l
            if g not in classes:
                one = arr[:period].reshape(t, g)
                classes[g] = np.flatnonzero((one == one[0]).all(axis=0))
            if classes[g].size:
                b = (np.arange(0, lo, g)[:, None] + classes[g]).ravel()
                b = b[(b < lo) & ((b > 0) | (not zero))]
        if lo < l or zero:
            read = _constant_columns(arr, bound, l, lo, zero)
            b = read if b is None else np.sort(np.concatenate([b, read]))
        if b is None or not b.size:
            continue
        first = np.where(b == 0, l, b)  # each column's first member
        support = (bound - first) // l + 1
        residue = arr[first]
        new = support >= cfg.min_support
        for d, residues in reported.items():
            if l % d == 0:  # (l, b, c) is implied by (d, b mod d, c)
                new &= residues[b % d] != residue
        b, residue, support = b[new], residue[new], support[new]
        if not b.size:
            continue
        reported[l] = np.full(l, -1)
        reported[l][b] = residue
        findings.extend(_finding(cfg, l, col, res, sup, known) for col, res, sup
                        in zip(b.tolist(), residue.tolist(), support.tolist()))
    return findings


def empirical_density(family: Family, modulus: int, bound: int,
                      series: Series | None = None) -> float:
    """Fraction of 1 <= n <= bound with a(n) = 0 (mod modulus)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if series is None:
        series = build_series(family, bound, Mod(modulus))
    _check_ring(series, modulus)
    _require_order(series, bound, "density")
    zeros = int(np.count_nonzero(series._c[1 : bound + 1] == 0))
    return zeros / bound


# json.dumps(obj, sort_keys=True) builds this same encoder on every call
_encode = json.JSONEncoder(sort_keys=True).encode


def persist_findings(findings, path) -> None:
    """Append findings to a JSONL file, one per line, in one write."""
    text = "".join(_encode(f.to_json()) + "\n" for f in findings)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)


def _decoded_family(token, families: dict) -> Family:
    """The family a token names, decoded once per ``families`` cache."""
    family = families.get(token) if isinstance(token, str) else None
    if family is None:
        family = families[token] = Family.from_token(token)
    return family


def load_findings(path) -> list[Finding]:
    """Round-trip JSONL findings; malformed lines carry their line number."""
    findings: list[Finding] = []
    seen: set[str] = set()
    families: dict[str, Family] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                claim = _scan_claim(_decoded_family(raw["family"], families), raw["modulus"],
                                    raw["l"], raw["b"], raw["c"])
                finding = Finding(claim, raw["support"], raw["bound"], raw["status"])
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}: malformed finding on line {lineno}: {exc}") from exc
            if claim.label in seen:
                warnings.warn(f"{path}: duplicate finding {claim.label} on line {lineno}")
                continue
            seen.add(claim.label)
            findings.append(finding)
    return findings
