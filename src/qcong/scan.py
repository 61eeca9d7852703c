"""Search for arithmetic-progression congruences modulo powers of two.

The scanner sweeps every progression l*n + b with l <= l_max over a family's
series modulo 2^r and reports progressions whose members all share one
residue.  Findings implied by an already-reported coarser progression are
pruned, and findings matching the built-in claim catalog are tagged as known
rather than candidates.
"""

from __future__ import annotations

import json
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
    status = "candidate"
    key = (cfg.family, cfg.modulus, l, b, residue)
    if key in known:
        status = f"matches-known:{known[key]}"
    return Finding(claim, support, cfg.bound, status)


def _known_constant_claims() -> dict:
    known: dict = {}
    for c in builtin_suite():
        if isinstance(c, Claim) and isinstance(c.kind, Constant):
            key = (c.family, c.modulus, c.l, c.b, c.kind.residue)
            known.setdefault(key, c.label)
    return known


# Rows of the (row, b) table read before a column's whole progression is.
_PREFIX_ROWS = 8


def _check_ring(series: Series, modulus: int) -> None:
    if series.ring != Mod(modulus):
        raise ValueError(f"series ring {series.ring!r} is not Z/{modulus}")


def scan_ap_congruences(cfg: ScanConfig, series: Series | None = None) -> list[Finding]:
    """All unsubsumed constant-residue progressions of the configured family.

    Progressions start at n = 1 when b = 0 (the constant term is excluded)
    and at n = 0 otherwise.  A progression is reported only when it has at
    least min_support members below the bound, all with equal residue, and
    no coarser reported progression already implies it.

    For each l the coefficients are read as a table with one row per n and
    one column per b.  A column whose first rows already differ is dropped;
    only the surviving columns are compared over their whole progression.
    """
    if series is None:
        series = build_series(cfg.family, cfg.bound, Mod(cfg.modulus))
    _check_ring(series, cfg.modulus)
    _require_order(series, cfg.bound, "scan")
    bound = cfg.bound
    arr = series._c[: bound + 1]
    known = _known_constant_claims()
    reported: set[tuple[int, int, int]] = set()
    findings: list[Finding] = []
    for l in range(1, cfg.l_max + 1):
        # b = 1 has the most members; support only shrinks as l grows, and
        # min_support >= 10 leaves at least 9 > _PREFIX_ROWS full rows here
        if (bound - 1) // l + 1 < cfg.min_support:
            break
        head = arr[: _PREFIX_ROWS * l].reshape(_PREFIX_ROWS, l)
        alive = (head[2:] == head[1]).all(axis=0)
        alive[1:] &= head[0, 1:] == head[1, 1:]  # row 0 of b = 0 is a(0)
        b = np.flatnonzero(alive)
        if not b.size:
            continue
        support = (bound - np.where(b == 0, l, b)) // l + 1
        keep = support >= cfg.min_support
        b, support = b[keep], support[keep]
        rows = (bound + 1) // l
        table = arr[: rows * l].reshape(rows, l)[:, b]
        residue = table[1]
        same = (table[2:] == residue).all(axis=0)
        same &= (table[0] == residue) | (b == 0)
        tail = arr[rows * l :]  # the last, partial row
        inside = b < tail.size
        same[inside] &= tail[b[inside]] == residue[inside]
        divisors = [d for d in range(1, l) if l % d == 0]
        for col, res, sup in zip(b[same].tolist(), residue[same].tolist(),
                                 support[same].tolist()):
            if any((d, col % d, res) in reported for d in divisors):
                continue
            reported.add((l, col, res))
            findings.append(_finding(cfg, l, col, res, sup, known))
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


def persist_findings(findings, path) -> None:
    """Append findings to a JSONL file, one per line."""
    with open(path, "a", encoding="utf-8") as fh:
        for finding in findings:
            fh.write(json.dumps(finding.to_json(), sort_keys=True) + "\n")


def load_findings(path) -> list[Finding]:
    """Round-trip JSONL findings; malformed lines carry their line number."""
    findings: list[Finding] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                claim = _scan_claim(Family.from_token(raw["family"]), raw["modulus"],
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
