#!/usr/bin/env python3
"""qcong's benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (qcong's sources under ``src/``)::

    python3 bench/run.py --workload catalog --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --smoke          # every workload at tiny sizes

One process drives the public API (and, for ``session``, one ``qcong``
process at a time).  Set-up and the workload body are repeated until
``--seconds`` is used up (at least three times), each timed on its own, and
medians are reported.  With ``--trace 0`` the last line of standard output
carries the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the
repetitions alternate traced and untraced, and it carries the per-layer
metrics, including the tracing overhead.  Every output is checked: the result's
``failed`` counts checks that failed, and ``correct`` is true only when none
did.  The spans of a traced run are written to
``.bench_work/trace-<workload>-seed<seed>.json``.

Only ``sweep`` uses the seed; the other workloads are deterministic.  Claims
made with seeds tried while developing a change must also hold on the
held-out seed below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HELD_OUT_SEED = 7919
ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3


def _load_qcong():
    if not (ROOT / "src" / "qcong" / "__init__.py").is_file():
        sys.exit(f"error: no qcong sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def environment() -> dict:
    """Where the numbers come from: code, interpreter and machine."""
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"l{level}"] = (index / "size").read_text().strip()
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **caches,
    }


def _peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def _patch_build_series(tracer):
    """Route every module's ``build_series`` through a traced wrapper.

    The store, scanner and period cross-check call it internally, so this is
    the only way to see those builds from outside.  Returns an undo function.
    """
    from qcong import congruence, genfun, periodicity, scan

    original = genfun.build_series
    traced = tracer.wrap(original, "genfun.build_series",
                         lambda family, order, ring=None: {
                             "kind": family.kind,
                             "ring": "exact" if ring is None or ring.exact else "mod",
                             "coeffs": order + 1,
                         })
    modules = [m for m in (genfun, congruence, periodicity, scan)
               if getattr(m, "build_series", None) is original]
    for m in modules:
        m.build_series = traced

    def undo():
        for m in modules:
            m.build_series = original

    return undo


def run_workload(name, seed, seconds, traced, size, log):
    """Repeat set-up and body; return metrics, checks, spans and body times."""
    import layers
    import tracing
    import workloads

    setup, body = workloads.WORKLOADS[name]
    ops = workloads.Ops()
    tracer = tracing.Tracer()
    rec = tracer if traced else tracing.NULL
    env = workloads.qcong_env(ROOT)
    (ROOT / workloads.WORK).mkdir(exist_ok=True)

    # Every repetition is set up afresh, so the set-up samples are spread
    # over the run like the body's and one slow moment is one sample.
    setup_times = []
    walls = {True: [], False: []}
    reps = 0
    start = time.perf_counter()
    last = 0.0
    while reps < (MIN_REPS if size == "full" else 2 if traced else 1) or (
            time.perf_counter() - start + last <= seconds):
        t0 = time.perf_counter()
        tracer.run = "setup"
        with rec.span("cli.import"):
            proc = subprocess.run([sys.executable, "-c", "import qcong"], env=env,
                                  capture_output=True, timeout=120)
        ops.check(proc.returncode == 0, f"import qcong failed: {proc.stderr[-300:]!r}")
        inputs = setup(seed, size, ROOT)
        setup_times.append(time.perf_counter() - t0)

        traced_rep = traced and reps % 2 == 0
        tracer.run = reps
        undo = _patch_build_series(tracer) if traced_rep else None
        t1 = time.perf_counter()
        try:
            body(inputs, tracer if traced_rep else tracing.NULL, ops)
        except Exception:  # a crash of the program under test is a failed check
            ops.check(False, f"{name} raised:\n{traceback.format_exc()}")
            break
        finally:
            wall = time.perf_counter() - t1
            last = time.perf_counter() - t0
            if undo:
                undo()
        walls[traced_rep].append(wall)
        reps += 1
        log(f"rep {reps}{' traced' if traced_rep else ''}: {wall:.3f} s")

    end_to_end = {
        "wall_s": layers.median(walls[False]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(with_children=name == "session"),
    }
    per_layer = layers.per_layer(tracer, walls) if traced else None
    return end_to_end, per_layer, ops, tracer, walls


def _print_table(metrics: dict, units: dict, note=lambda name: "") -> None:
    for key, value in metrics.items():
        print(f"  {key:<44} {value:>16.6g} {units[key]:<6} {note(key)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes and check it")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 0 if args.smoke else args.seconds or spec["run_seconds"]
    _load_qcong()
    import layers
    import workloads

    names = list(workloads.WORKLOADS)
    if not args.smoke and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    env = environment()
    # One process at a time does the work, so pin the benchmark and its
    # children to one CPU: no migrations, and numpy's BLAS starts one thread.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["pinned_cpu"] = cpu
    print("env " + json.dumps(env, sort_keys=True))
    attempted = failed = 0
    result = {}
    for name in names if args.smoke else [args.workload]:
        seeded = name in workloads.SEEDED
        print(f"workload {name}: seed {args.seed if seeded else 'unused (deterministic)'}"
              f", held-out seed {HELD_OUT_SEED}")
        traced_runs = (False, True) if args.smoke else (bool(args.trace),)
        for traced in traced_runs:
            e2e, per_layer, ops, tracer, walls = run_workload(
                name, args.seed, seconds, traced, "smoke" if args.smoke else "full",
                log)
            attempted += ops.attempted
            failed += len(ops.failures)
            for failure in ops.failures[:20]:
                print(f"CHECK FAILED [{name}]: {failure}")
            fail_ratio = len(ops.failures) / max(ops.attempted, 1)
            reps = len(walls[True]) + len(walls[False])
            print(f"  {reps} repetitions, {ops.attempted} checks, fail_ratio {fail_ratio:.6g}")
            if traced:
                tracer.write(ROOT / workloads.WORK / f"trace-{name}-seed{args.seed}.json",
                             {"workload": name, "seed": args.seed, "env": env})
                _print_table(per_layer, units, layers.moves)
                layers.print_self_times(tracer, walls[True])
                result = per_layer
            else:
                _print_table(e2e, units)
                result = e2e
    if args.smoke:
        result = {}
    else:
        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        differ = sorted(set(wanted) ^ set(result))
        if differ:
            sys.exit(f"error: metrics differ from BENCHMARK.json: {differ}")
        result = {k: result[k] for k in wanted}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.items()},
    }))
    return 1 if args.smoke and failed else 0


if __name__ == "__main__":
    sys.exit(main())
