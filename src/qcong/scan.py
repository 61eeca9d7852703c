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

from .congruence import Claim, Constant, SeriesOrderTooSmall, builtin_suite
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


def scan_ap_congruences(cfg: ScanConfig, series: Series | None = None) -> list[Finding]:
    """All unsubsumed constant-residue progressions of the configured family.

    Progressions start at n = 1 when b = 0 (the constant term is excluded)
    and at n = 0 otherwise.  A progression is reported only when it has at
    least min_support members below the bound, all with equal residue, and
    no coarser reported progression already implies it.
    """
    if series is None:
        series = build_series(cfg.family, cfg.bound, Mod(cfg.modulus))
    if series.order < cfg.bound:
        raise SeriesOrderTooSmall(
            f"series order {series.order} < scan bound {cfg.bound}"
        )
    known = _known_constant_claims()
    reported: set[tuple[int, int, int]] = set()
    findings: list[Finding] = []
    for l in range(1, cfg.l_max + 1):
        for b in range(l):
            start = l if b == 0 else b  # skip the constant term
            members = range(start, cfg.bound + 1, l)
            support = len(members)
            if support < cfg.min_support:
                continue
            residue = series[members[0]]
            if any(series[arg] != residue for arg in members):
                continue
            implied = any(
                (d, b % d, residue) in reported
                for d in range(1, l)
                if l % d == 0
            )
            if implied:
                continue
            reported.add((l, b, residue))
            findings.append(_finding(cfg, l, b, residue, support, known))
    return findings


def empirical_density(family: Family, modulus: int, bound: int,
                      series: Series | None = None) -> float:
    """Fraction of 1 <= n <= bound with a(n) = 0 (mod modulus)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if series is None:
        series = build_series(family, bound, Mod(modulus))
    if series.order < bound:
        raise SeriesOrderTooSmall(
            f"series order {series.order} < density bound {bound}"
        )
    zeros = sum(1 for n in range(1, bound + 1) if series[n] == 0)
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
