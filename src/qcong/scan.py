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
import operator
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


@dataclass(frozen=True, slots=True)
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


# Findings share a few residues below a small modulus: one Constant each
_constant = functools.lru_cache(maxsize=256, typed=True)(Constant)


def _scan_claim(family: Family, modulus: int, l: int, b: int, residue: int) -> Claim:
    """The claim a finding states; progressions with b = 0 start at n = 1."""
    return Claim(f"scan-{family.token}-mod{modulus}-{l}n+{b}", family, modulus,
                 l, b, _constant(residue), 0 if b else 1)


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
    (a caller's ``series=`` need not be the family's) gets None, and so
    does a family whose period ``kwong_period`` refuses.
    """
    if cfg.family.kind != "restricted":
        return None
    from .periodicity import _two_adic_period  # only restricted scans pay for it

    period = _two_adic_period(cfg.family.parts, cfg.modulus)
    if period is None or period > arr.size:
        return None
    return period if np.array_equal(arr[period:], arr[:-period]) else None


def _constant_columns(arr: np.ndarray, bound: int, l: int, lo: int) -> np.ndarray:
    """The constant columns b = 0 and b >= lo of the table for l.

    The first rows are read for every column; a column whose values already
    differ there is dropped, and only the survivors are read to the bound.
    """
    head = arr[: _PREFIX_ROWS * l].reshape(_PREFIX_ROWS, l)
    same = head == head[1]
    same[0, 0] = True  # row 0 of b = 0 is a(0), not a member
    alive = np.logical_and.reduce(same, axis=0)  # .all(axis=0) costs twice as much
    if lo > 1:
        alive[1:lo] = False
    b = alive.nonzero()[0]
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


def _live_progressions(arr: np.ndarray, bound: int, l_top: int, period: int | None):
    """(l, lo, known) for each l <= l_top whose table may hold a constant column.

    The columns b = 0 and b >= lo are to be read, none when lo is None;
    known are the other columns that the period proves constant (None: no
    period).  Without a period every column of every l is read.
    """
    if period is None:
        for l in range(1, l_top + 1):
            yield l, 1, None
        return
    ls = np.arange(1, l_top + 1)
    gs = np.gcd(ls, period)
    ts = period // gs
    # b >= 1 has t members up to b = bound - (t - 1) l; b = 0, whose
    # members start at n = l, has them when bound >= t l.  So lo < l only
    # when b = 0 is read too (no int64 overflow: l_top < bound and
    # period <= bound + 1)
    los = np.minimum(ls, np.maximum(1, bound - (ts - 1) * ls + 1))
    reads = bound < ts * ls
    classes = {}  # gcd(l, P) -> its constant classes
    for g in set(gs.tolist()):
        one = arr[:period].reshape(period // g, g)
        classes[g] = np.flatnonzero((one == one[0]).all(axis=0))
    has_class = np.zeros(period + 1, dtype=bool)
    has_class[[g for g, c in classes.items() if c.size]] = True
    live = reads | has_class[gs]
    for l, g, lo, read in zip(ls[live].tolist(), gs[live].tolist(),
                              los[live].tolist(), reads[live].tolist()):
        known = None
        if classes[g].size:
            known = (np.arange(0, lo, g)[:, None] + classes[g]).ravel()
            known = known[(known < lo) & ((known > 0) | (not read))]
        yield l, lo if read else None, known


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
    The l with no column left to read and no constant class are skipped
    before the loop (``_live_progressions``).
    """
    if series is None:
        series = build_series(cfg.family, cfg.bound, Mod(cfg.modulus))
    _check_ring(series, cfg.modulus)
    _require_order(series, cfg.bound, "scan")
    family, modulus, bound = cfg.family, cfg.modulus, cfg.bound
    arr = series._c[: bound + 1]
    # b = 1 has the most members, (bound - 1) // l + 1; support only shrinks
    # as l grows, and min_support >= 10 leaves at least 9 > _PREFIX_ROWS
    # full rows for every l read
    l_top = min(cfg.l_max, (bound - 1) // (cfg.min_support - 1))
    # the residues in the narrowest dtype that holds them, cheaper to compare
    narrow = arr.astype(np.min_scalar_type(modulus - 1))
    period = _checked_period(cfg, narrow)
    known = _known_constant_claims().get((family, modulus), {})
    reported: dict[int, np.ndarray] = {}  # l -> residue reported at each b, or -1
    findings: list[Finding] = []
    for l, lo, b in _live_progressions(narrow, bound, l_top, period):
        if lo is not None:
            read = _constant_columns(narrow, bound, l, lo)
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
        for col, res, sup in zip(b.tolist(), residue.tolist(), support.tolist()):
            label = known.get((l, col, res))
            status = "candidate" if label is None else f"matches-known:{label}"
            findings.append(Finding(_scan_claim(family, modulus, l, col, res),
                                    sup, bound, status))
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


# -- the findings file: one JSON object per line --------------------------------

_INT_FIELDS = ("modulus", "l", "b", "c", "support", "bound")


def _ill_typed(fields: dict) -> str:
    """Which of a finding's fields is not an int (or, last, a string status)."""
    for key in _INT_FIELDS:
        if type(fields[key]) is not int:
            return f"field {key!r} must be an integer, got {fields[key]!r}"
    return f"field 'status' must be a string, got {fields['status']!r}"


# json.dumps(f.to_json(), sort_keys=True) for a finding whose numbers are
# ints: the fields in sorted order, each string quoted by json.dumps (tests
# check it against ``Finding.to_json``)
_LINE = ('{"b": %d, "bound": %d, "c": %d, "family": %s, "l": %d, "modulus": %d, '
         '"status": %s, "support": %d}\n')


class _Quoted(dict):
    """JSON string literals, each encoded on first use."""

    def __missing__(self, value):
        self[value] = quoted = json.dumps(value)
        return quoted


def persist_findings(findings, path) -> None:
    """Append findings to a JSONL file, one per line, in one write.

    Every finding must load back: numbers that are not ints, or a status
    that is not a string, raise ValueError and nothing is written.
    """
    quoted = _Quoted()  # the family tokens and statuses of this call
    lines = []
    for f in findings:
        c = f.claim
        b, residue, l, modulus, support, bound = (c.b, c.kind.residue, c.l, c.modulus,
                                                  f.support, f.bound)
        if not (type(b) is type(residue) is type(l) is type(modulus) is type(support)
                is type(bound) is int and type(f.status) is str):
            raise ValueError(f"finding {c.label}: {_ill_typed(f.to_json())}")
        lines.append(_LINE % (b, bound, residue, quoted[c.family.token], l, modulus,
                              quoted[f.status], support))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("".join(lines))


# json.loads(s) is raw_decode plus a check that nothing follows the value
_decode = json.JSONDecoder().raw_decode
_fields = operator.itemgetter("family", *_INT_FIELDS, "status")


def load_findings(path) -> list[Finding]:
    """Round-trip JSONL findings; malformed lines carry their line number.

    Each line is one JSON object; ``b``, ``bound``, ``c``, ``l``, ``modulus``
    and ``support`` must be integers (not booleans) and ``status`` a string.
    """
    findings: list[Finding] = []
    seen: set[str] = set()
    families: dict[str, Family] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw, end = _decode(line)
                if end != len(line):
                    raise ValueError(f"unexpected data after column {end}")
                token, modulus, l, b, c, support, bound, status = _fields(raw)
                if not (type(modulus) is type(l) is type(b) is type(c) is type(support)
                        is type(bound) is int and type(status) is str):
                    raise ValueError(_ill_typed(raw))
                # each token is decoded once per file
                family = families.get(token) if isinstance(token, str) else None
                if family is None:
                    family = families[token] = Family.from_token(token)
                claim = _scan_claim(family, modulus, l, b, c)
                finding = Finding(claim, support, bound, status)
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}: malformed finding on line {lineno}: {exc}") from exc
            if claim.label in seen:
                warnings.warn(f"{path}: duplicate finding {claim.label} on line {lineno}")
                continue
            seen.add(claim.label)
            findings.append(finding)
    return findings
