"""Per-layer metrics computed from the spans of a traced run.

The layers are qcong's modules.  Each metric is the median, over the traced
repetitions of one run, of that repetition's total; a layer a workload does
not touch reads 0.  ``.s`` metrics are inclusive span time (a store ``get``
includes the build it triggers); the self-time table printed alongside
subtracts child spans.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import children_of, duration, self_times

KINDS = ("over", "oddover", "plane", "plk", "restricted")
CLI_COMMANDS = ("expand", "verify", "period", "enumerate", "scan", "density")
SERIES_OPS = ("mul", "inverse_of_unit", "reduce_mod", "inflate")
CLI_SPANS = {f"cli.{cmd}" for cmd in CLI_COMMANDS}

TIMED = [
    "genfun.build_series",
    "congruence.store.get",
    "congruence.verify_claim",
    "congruence.verify_sum_claim",
    "congruence.report.to_json",
    "scan.scan_ap_congruences",
    "scan.empirical_density",
    "scan.persist_findings",
    "scan.load_findings",
    "periodicity.cross_check",
    "periodicity.empirical_period",
    *(f"series.{op}" for op in SERIES_OPS),
    *CLI_SPANS,
]
COUNTED = ["genfun.build_series", "congruence.verify_claim",
           *(f"series.{op}" for op in SERIES_OPS)]

METRICS = [
    "genfun.build_series.s",
    "genfun.build_series.calls",
    "genfun.build_series.coeffs",
    *(f"genfun.build_series.{k}.{r}.s" for k in KINDS for r in ("mod", "exact")),
    "congruence.store.hits",
    "congruence.store.misses",
    "congruence.store.hit_ratio",
    "congruence.store.get.s",
    "congruence.verify_claim.s",
    "congruence.verify_claim.calls",
    "congruence.verify_claim.members",
    *(f"congruence.verify_claim.{t}.s" for t in ("constant", "equivalent", "predicate")),
    "congruence.verify_sum_claim.s",
    "congruence.report.to_json.s",
    "scan.scan_ap_congruences.s",
    "scan.scan_ap_congruences.progressions",
    "scan.scan_ap_congruences.findings",
    "scan.scan_ap_congruences.useful_ratio",
    "scan.empirical_density.s",
    "scan.empirical_density.coeffs",
    "scan.persist_findings.s",
    "scan.load_findings.s",
    "scan.findings.bytes",
    "periodicity.cross_check.s",
    "periodicity.empirical_period.s",
    "periodicity.agreements",
    *(f"series.{op}.{x}" for op in SERIES_OPS for x in ("s", "calls")),
    "cli.import_s",
    "cli.start_s",
    *(f"cli.{cmd}.s" for cmd in CLI_COMMANDS),
    "cli.stdout.bytes",
    "trace.wall_s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
]

# Which end-to-end metric each layer should move, on which workload.
MOVES = [
    ("genfun.", "wall_s on catalog, density, session; not sweep"),
    ("congruence.store.", "wall_s on catalog"),
    ("congruence.report.", "wall_s on catalog"),
    ("congruence.verify", "wall_s on sweep; not catalog"),
    ("scan.", "wall_s on sweep; the densities on density"),
    ("periodicity.", "wall_s on sweep"),
    ("series.", "wall_s and peak_rss_mb on density"),
    ("cli.", "wall_s on session"),
    ("trace.", "tracing overhead; no end-to-end metric"),
]


def moves(name: str) -> str:
    return next(text for prefix, text in MOVES if name.startswith(prefix))


def _one_rep(spans) -> dict:
    kids = children_of(spans)
    m: dict[str, float] = defaultdict(float)
    for s in spans:
        name, a, d = s["name"], s["attrs"], duration(s)
        if name in TIMED:
            m[f"{name}.s"] += d
        if name in COUNTED:
            m[f"{name}.calls"] += 1
        if name == "genfun.build_series":
            m["genfun.build_series.coeffs"] += a["coeffs"]
            m[f"genfun.build_series.{a['kind']}.{a['ring']}.s"] += d
        elif name == "congruence.store.get":
            built = any(c["name"] == "genfun.build_series" for c in kids.get(s["id"], ()))
            m["congruence.store.misses" if built else "congruence.store.hits"] += 1
        elif name == "congruence.verify_claim":
            m["congruence.verify_claim.members"] += a["members"]
            m[f"congruence.verify_claim.{a['type']}.s"] += d
        elif name == "scan.scan_ap_congruences":
            m["scan.scan_ap_congruences.progressions"] += a["progressions"]
            m["scan.scan_ap_congruences.findings"] += a["findings"]
        elif name == "scan.empirical_density":
            m["scan.empirical_density.coeffs"] += a["coeffs"]
        elif name == "scan.persist_findings":
            m["scan.findings.bytes"] += a["bytes"]
        elif name == "periodicity.cross_check":
            m["periodicity.agreements"] += a["agreement"]
        elif name in CLI_SPANS:
            m["cli.stdout.bytes"] += a["bytes"]
            if a["command"] == "start":
                m["cli.start_s"] += d
    gets = m["congruence.store.hits"] + m["congruence.store.misses"]
    m["congruence.store.hit_ratio"] = m["congruence.store.hits"] / gets if gets else 0.0
    examined = m["scan.scan_ap_congruences.progressions"]
    m["scan.scan_ap_congruences.useful_ratio"] = (
        m["scan.scan_ap_congruences.findings"] / examined if examined else 0.0)
    unknown = set(m) - set(METRICS)
    if unknown:
        raise ValueError(f"spans produced undeclared metrics: {sorted(unknown)}")
    return m


def median(values) -> float:
    """Median, or 0 when a crashed run left no samples."""
    return statistics.median(values) if values else 0.0


def per_layer(tracer, walls) -> dict:
    """Median per-layer metrics over the traced repetitions of one run."""
    reps = [_one_rep(tracer.of_run(run)) for run in range(0, 2 * len(walls[True]), 2)]
    out = {name: median([r.get(name, 0.0) for r in reps]) for name in METRICS}
    imports = [duration(s) for s in tracer.of_run("setup") if s["name"] == "cli.import"]
    out["cli.import_s"] = median(imports)
    out["trace.wall_s"] = median(walls[True])
    out["trace.untraced_wall_s"] = median(walls[False])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def print_self_times(tracer, traced_walls) -> None:
    """Per-span-name calls, inclusive and self time, per traced repetition."""
    runs = sorted({s["run"] for s in tracer.spans if isinstance(s["run"], int)})
    spans = [s for s in tracer.spans if s["run"] in runs]
    n = max(len(runs), 1)
    covered = sum(duration(s) for s in spans if s["parent"] is None)
    print(f"  spans cover {covered / max(sum(traced_walls), 1e-9):.1%} of traced wall time;"
          f" per traced repetition ({len(runs)}): {'calls':>8} {'total s':>10} {'self s':>10}")
    for name, (calls, total, own) in sorted(self_times(spans).items(),
                                            key=lambda kv: -kv[1][1]):
        print(f"    {name:<38} {calls / n:>12.1f} {total / n:>10.4f} {own / n:>10.4f}")
