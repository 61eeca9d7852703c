"""The four benchmark workloads: inputs, body and output checks.

Each workload has ``setup(seed, size, root)``, which makes its inputs, and
``body(inputs, tr, ops)``, which drives qcong's public API (or the ``qcong``
command) once, records spans on ``tr`` around every call into a qcong layer
and reports every output check to ``ops``.  ``size`` is "full" for measured
runs and "smoke" for the quick self-test; expected outputs for both sizes are
committed in ``expected.json`` (the values the package gave when this
benchmark was written).

Only ``sweep`` draws its inputs from the seed.  ``catalog``, ``density`` and
``session`` are fixed computations and ignore it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from qcong import congruence, genfun, periodicity, scan
from qcong.genfun import Family
from qcong.series import Mod, Series

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


class Ops:
    """Output checks: every check is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


WORK = ".bench_work"  # scratch files and traces, under the checkout root


def qcong_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def qcong_command(root: Path, argv, env) -> subprocess.CompletedProcess:
    """One ``qcong`` process, run from the checkout root, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "qcong.cli", *argv],
        cwd=root, env=env, capture_output=True, timeout=120,
    )


# -- catalog ---------------------------------------------------------------------

# Reference bounds per group of the catalog: mod 4 at 2000 except the 3465n
# rows (their first member is 3465, so 6930 gives the base row two members),
# mod 8 at 210*22 = 4620, mod 12 and mod 64 at 4000.
CATALOG_BOUNDS = {
    "full": {4: 2000, "3465": 6930, 8: 4620, 12: 4000, 64: 4000},
    "smoke": {4: 500, "3465": 3500, 8: 1155, 12: 1000, 64: 1000},
}


def _reference_bound(claim, bounds) -> int:
    if claim.modulus == 4 and "3465" in claim.label:
        return bounds["3465"]
    return bounds[claim.modulus]


def _claim_families(claim):
    if isinstance(claim, congruence.SumClaim):
        return [f for f, _ in claim.terms]
    if isinstance(claim.kind, congruence.Equivalent):
        return [claim.family, claim.kind.other]
    return [claim.family]


def _kind_name(claim) -> str:
    return type(claim.kind).__name__.lower()


def catalog_setup(seed, size, root):
    bounds = CATALOG_BOUNDS[size]
    groups: dict[int, list] = {}
    for claim in congruence.builtin_suite():
        groups.setdefault(_reference_bound(claim, bounds), []).append(claim)
    return {"groups": sorted(groups.items()), "members": EXPECTED[size]["catalog_members"]}


def catalog_body(inputs, tr, ops):
    members = 0
    for bound, claims in inputs["groups"]:
        store = congruence.SeriesStore(bound)
        for claim in claims:
            for family in _claim_families(claim):
                with tr.span("congruence.store.get", family=family.kind):
                    store.get(family, claim.modulus)
            if isinstance(claim, congruence.SumClaim):
                with tr.span("congruence.verify_sum_claim"):
                    report = congruence.verify_sum_claim(claim, store, bound)
            else:
                with tr.span("congruence.verify_claim", type=_kind_name(claim)) as a:
                    report = congruence.verify_claim(claim, store, bound)
                    a["members"] = report.members
            with tr.span("congruence.report.to_json"):
                doc = report.to_json()
            ops.check(report.passed and report.members > 0
                      and doc["outcome"] == "pass" and doc["members"] == report.members,
                      f"{claim.label}: {report.outcome} with {report.members} members")
            members += report.members
    ops.check(members == inputs["members"],
              f"catalog members {members} != {inputs['members']}")


# -- density ---------------------------------------------------------------------

DENSITY_SIZES = {
    "full": {"order": 20000, "inverse_order": 3000},
    "smoke": {"order": 2000, "inverse_order": 300},
}


def density_setup(seed, size, root):
    return {**DENSITY_SIZES[size], "densities": EXPECTED[size]["densities"]}


def density_body(inputs, tr, ops):
    n, ring, over = inputs["order"], Mod(64), Family.overpartitions()
    series = genfun.build_series(over, n, ring)
    phi_minus = genfun.phi_series(-1, n, ring)
    phi_plus = genfun.phi_series(+1, n, ring)
    with tr.span("series.mul"):
        product = series.mul(phi_minus)
    ops.check(product == Series.one(ring, n), "over * phi(-q) != 1")
    with tr.span("series.inflate"):
        over_q2 = series.inflate(2)
    with tr.span("series.mul"):
        rhs = phi_plus.mul(over_q2)
    with tr.span("series.mul"):
        rhs = rhs.mul(over_q2)
    ops.check(rhs == series, "phi(q) * over(q^2)^2 != over")
    k = inputs["inverse_order"]
    theta = genfun.phi_series(-1, k, ring)
    with tr.span("series.inverse_of_unit"):
        inverse = theta.inverse_of_unit()
    ops.check(inverse.tolist() == series.tolist()[: k + 1],
              "1/phi(-q) differs from the overpartition prefix")
    for bits, want in enumerate(inputs["densities"], start=1):
        with tr.span("series.reduce_mod"):
            reduced = series.reduce_mod(2**bits)
        with tr.span("scan.empirical_density", coeffs=n):
            got = scan.empirical_density(over, 2**bits, n, series=reduced)
        ops.check(got == want, f"density mod 2^{bits}: {got} != {want}")


# -- sweep -----------------------------------------------------------------------

# Each draw has a fixed Kwong period P, so the seed changes the multisets but
# not the amount of scanning.  Draws are further limited to multisets of
# distinct parts whose series mod 2^r (r = 2, 3, 4) has no constant residue
# class modulo a proper divisor of P.  Where such a class exists, every
# progression inside it is constant to the bound, so the scanner reads it to
# the end; those extra reads made one draw cost up to ten times another of
# the same period.  Without them the scanner's reads differ by at most a
# fifth between draws of one period.
SWEEP_SIZES = {
    "full": {"order": 100000, "periods": [240, 288, 336, 384]},
    "smoke": {"order": 10000, "periods": [48, 96]},
}
MIN_SUPPORT = 20


def _progressions(l_max: int, bound: int) -> int:
    """Number of (l, b) the scanner examines: those with min_support members."""
    total = 0
    for l in range(1, l_max + 1):
        total += bound // l >= MIN_SUPPORT  # b = 0 starts at l
        total += max(0, min(l - 1, bound - (MIN_SUPPORT - 1) * l))
    return total


def _constant_class(parts, modulus: int, period: int) -> bool:
    """Whether a(n) mod modulus is constant on n = c (mod period/p), p prime.

    The series is purely periodic with this period, so one period of
    coefficients, counted here independently of qcong, decides it.
    """
    a = [1] + [0] * (period - 1)
    for part in parts:
        for n in range(part, period):
            a[n] = (a[n] + a[n - part]) % modulus
    primes = [p for p in range(2, period + 1)
              if period % p == 0 and all(p % d for d in range(2, math.isqrt(p) + 1))]
    return any(len(set(a[c::period // p])) == 1
               for p in primes for c in range(period // p))


def sweep_setup(seed, size, root):
    cfg = SWEEP_SIZES[size]
    wanted = set(cfg["periods"])
    pool: dict[int, list] = {p: [] for p in wanted}
    for k in (2, 3, 4):
        for parts in itertools.combinations(range(1, 13), k):
            for r in (2, 3, 4):
                period = periodicity.kwong_period(parts, 2, r).period
                if period in wanted and not _constant_class(parts, 2**r, period):
                    pool[period].append((parts, r))
    rng = random.Random(seed)
    draws = []
    for period in cfg["periods"]:
        parts, r = rng.choice(pool[period])
        draws.append({"parts": parts, "power": r, "period": period,
                      "progressions": _progressions(2 * period, cfg["order"])})
    return {"order": cfg["order"], "draws": draws, "work": root / WORK}


def sweep_body(inputs, tr, ops):
    n = inputs["order"]
    for i, draw in enumerate(inputs["draws"]):
        parts, r, period = draw["parts"], draw["power"], draw["period"]
        family, modulus = Family.restricted(parts), 2**r
        series = genfun.build_series(family, n, Mod(modulus))
        with tr.span("periodicity.cross_check") as a:
            report = periodicity.cross_check(parts, 2, r)
            a["agreement"] = bool(report.agreement)
        ops.check(report.agreement and report.period == period,
                  f"Kwong cross-check {parts} mod 2^{r}: {report.to_json()}")
        with tr.span("periodicity.empirical_period"):
            found = periodicity.empirical_period(series, period)
        ops.check(found == period, f"empirical period {found} != {period} for {parts}")
        cfg = scan.ScanConfig(family, modulus, 2 * period, n, min_support=MIN_SUPPORT)
        with tr.span("scan.scan_ap_congruences",
                     progressions=draw["progressions"]) as a:
            findings = scan.scan_ap_congruences(cfg, series=series)
            a["findings"] = len(findings)
        ops.check(bool(findings), f"no findings for {parts} mod 2^{r}")
        store = congruence.SeriesStore(n)
        store.put(family, modulus, series)
        for finding in findings:
            with tr.span("congruence.verify_claim", type="constant") as a:
                report = congruence.verify_claim(finding.claim, store, n)
                a["members"] = report.members
            ops.check(report.passed and report.members > 0,
                      f"{finding.claim.label} does not re-verify: {report.outcome}")
        with tr.span("scan.empirical_density", coeffs=n):
            density = scan.empirical_density(family, modulus, n, series=series)
        ops.check(0.0 <= density <= 1.0, f"density {density} outside [0, 1]")
        path = inputs["work"] / f"sweep-findings-{i}.jsonl"
        path.unlink(missing_ok=True)
        with tr.span("scan.persist_findings") as a:
            scan.persist_findings(findings, path)
        a["bytes"] = path.stat().st_size
        with tr.span("scan.load_findings"):
            loaded = scan.load_findings(path)
        ops.check(loaded == findings, f"findings of {parts} do not round-trip")
        path.unlink()


# -- session ---------------------------------------------------------------------

SAVE = f"{WORK}/session-findings.jsonl"

# (name, argv): the smallest command (its time is process start and import),
# exact and modular expansion in text, json and csv, catalog verifications,
# an empirical period, the enumeration oracles, a saved scan and a density,
# run one after another as separate processes.
START = ("start", ["expand", "over", "--order", "4"])
SESSION = {
    "full": [
        START,
        ("expand-plane", ["expand", "plane", "--order", "600"]),
        ("expand-over-json", ["expand", "over", "--order", "3000", "--mod", "64",
                              "--format", "json"]),
        ("expand-plk4-csv", ["expand", "plk", "--k", "4", "--order", "2000",
                             "--mod", "8", "--format", "csv"]),
        ("expand-oddover-json", ["expand", "oddover", "--order", "1000",
                                 "--format", "json"]),
        ("expand-restricted-csv", ["expand", "restricted", "--parts", "1,2,2,3,3",
                                   "--order", "2000", "--format", "csv"]),
        ("verify-pl8", ["verify", "--label", "thm1.7-pl8", "--bound", "4620"]),
        ("verify-mod64-json", ["verify", "--suite", "mod64", "--bound", "4000",
                               "--format", "json"]),
        ("period", ["period", "--parts", "5,7", "--prime", "2", "--power", "3",
                    "--empirical"]),
        ("enumerate-plane", ["enumerate", "plane", "--n", "10"]),
        ("enumerate-over", ["enumerate", "over", "--n", "14"]),
        ("scan-save", ["scan", "plk", "--k", "4", "--mod", "8", "--lmax", "12",
                       "--bound", "4000", "--save", SAVE]),
        ("density", ["density", "over", "--mod", "4", "--bound", "10000"]),
    ],
    "smoke": [
        START,
        ("expand-plane", ["expand", "plane", "--order", "60"]),
        ("expand-over-json", ["expand", "over", "--order", "300", "--mod", "64",
                              "--format", "json"]),
        ("expand-plk4-csv", ["expand", "plk", "--k", "4", "--order", "200",
                             "--mod", "8", "--format", "csv"]),
        ("expand-oddover-json", ["expand", "oddover", "--order", "100",
                                 "--format", "json"]),
        ("expand-restricted-csv", ["expand", "restricted", "--parts", "1,2,2,3,3",
                                   "--order", "200", "--format", "csv"]),
        ("verify-pl8", ["verify", "--label", "thm1.7-pl8", "--bound", "630"]),
        ("verify-mod64-json", ["verify", "--suite", "mod64", "--bound", "500",
                               "--format", "json"]),
        ("period", ["period", "--parts", "3,5", "--prime", "2", "--power", "2",
                    "--empirical"]),
        ("enumerate-plane", ["enumerate", "plane", "--n", "6"]),
        ("enumerate-over", ["enumerate", "over", "--n", "8"]),
        ("scan-save", ["scan", "plk", "--k", "4", "--mod", "8", "--lmax", "6",
                       "--bound", "600", "--save", SAVE]),
        ("density", ["density", "over", "--mod", "4", "--bound", "1000"]),
    ],
}


def session_setup(seed, size, root):
    return {"commands": SESSION[size], "digests": EXPECTED[size]["session"],
            "root": root, "env": qcong_env(root)}


def session_body(inputs, tr, ops):
    root, env = inputs["root"], inputs["env"]
    saved = root / SAVE
    saved.unlink(missing_ok=True)
    out = {}
    for name, argv in inputs["commands"]:
        with tr.span(f"cli.{argv[0]}", command=name) as a:
            proc = qcong_command(root, argv, env)
            a["bytes"] = len(proc.stdout)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        ops.check(proc.returncode == 0 and digest == inputs["digests"][name],
                  f"qcong {' '.join(argv)}: exit {proc.returncode}, "
                  f"stdout sha256 {digest}, stderr {proc.stderr[-200:]!r}")
        out[name] = (argv, proc.stdout.decode())
    argv, text = out["enumerate-plane"]
    n = int(argv[argv.index("--n") + 1])
    coefficients = out["expand-plane"][1].split()
    ops.check(text.strip() == coefficients[n],
              f"enumerate plane --n {n} = {text.strip()}, series gives {coefficients[n]}")
    saved_lines = saved.read_text().count("\n") if saved.exists() else 0
    ops.check(saved_lines == out["scan-save"][1].count("\n"),
              f"scan --save wrote {saved_lines} findings")
    saved.unlink(missing_ok=True)


WORKLOADS = {
    "catalog": (catalog_setup, catalog_body),
    "density": (density_setup, density_body),
    "sweep": (sweep_setup, sweep_body),
    "session": (session_setup, session_body),
}
SEEDED = {"sweep"}
