"""Command-line front end: expand, verify, period, enumerate, scan, density.

Exit codes: 0 success, 2 a mathematical counterexample was found, 1 usage or
I/O error (including a verify bound that reaches no member of a claim), so
scripts can tell a falsified claim from a crash.

Each subcommand imports the modules it uses when it runs, and numpy loads on
the first modular operation, so ``expand`` over Z and ``enumerate`` start
without either.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys

from . import genfun
from .genfun import FAMILY_KINDS, Family
from .series import Ring


def _parse_parts(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise SystemExit(f"error: cannot parse parts list {text!r}")


def _family_from_args(args) -> Family:
    kind = "over" if args.family == "overpartition" else args.family
    if kind == "plk":
        if args.k is None:
            raise SystemExit("error: plk family needs --k")
        return Family.k_rowed(args.k)
    if kind == "restricted":
        if not args.parts:
            raise SystemExit("error: restricted family needs --parts")
        return Family.restricted(_parse_parts(args.parts))
    return Family(kind)


def _emit(args, text_lines, payload, csv_rows=None) -> None:
    """Write the command result in the selected format."""
    fmt = args.format
    if fmt == "text":
        out = "\n".join(text_lines) + "\n"
    elif fmt == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows or []:
            writer.writerow(row)
        out = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _cmd_expand(args) -> int:
    family = _family_from_args(args)
    series = genfun.build_series(family, args.order, Ring(args.mod))
    coeffs = series.tolist()
    payload = {
        "family": family.token,
        "order": args.order,
        "modulus": args.mod,
        "coefficients": coeffs,
    }
    rows = itertools.chain([("n", "coefficient")], enumerate(coeffs))
    _emit(args, map(str, coeffs), payload, rows)
    return 0


def _select_claims(args):
    from . import congruence

    if args.claim:
        raw = args.claim
        if raw.startswith("@"):
            with open(raw[1:], encoding="utf-8") as fh:
                raw = fh.read()
        return [congruence.claim_from_json(json.loads(raw))]
    if args.label:
        chosen = congruence.claims_by_label(args.label)
        if not chosen:
            raise SystemExit(f"error: no suite claim matches labels {args.label}")
        return chosen
    suite = congruence.builtin_suite()
    if args.suite == "all":
        return suite
    modulus = int(args.suite.removeprefix("mod"))
    return [c for c in suite if c.modulus == modulus]


def _report_line(r) -> str:
    if r.passed:
        return f"PASS {r.claim.label}  members={r.members} bound={r.bound}"
    if r.outcome == "vacuous":
        return f"VACUOUS {r.claim.label}  members=0 bound={r.bound}"
    n, arg, got, want = r.counterexample
    return (
        f"FAIL {r.claim.label}  counterexample n={n} arg={arg} "
        f"got={got} expected={want}"
    )


def _cmd_verify(args) -> int:
    from . import congruence

    if args.bound is not None and args.bound < 0:
        raise ValueError(f"--bound must be >= 0, got {args.bound}")
    claims = _select_claims(args)
    if args.bound is None:
        reports = congruence.verify_at_reference(claims)
    else:
        store = congruence.SeriesStore(args.bound)
        reports = congruence.verify(claims, store, args.bound)
    rows = [("label", "outcome", "members", "bound", "cx_n", "cx_arg", "cx_got",
             "cx_expected")]
    for r in reports:
        cx = r.counterexample or ("", "", "", "")
        rows.append((r.claim.label, r.outcome, r.members, r.bound, *cx))
    _emit(args, [_report_line(r) for r in reports],
          [r.to_json() for r in reports], rows)
    if any(r.outcome == "counterexample" for r in reports):
        return 2
    vacuous = sum(r.outcome == "vacuous" for r in reports)
    if vacuous:
        # a bound too small to reach any member is a usage error
        print(f"error: {vacuous} claim(s) have no progression members within "
              f"the bound", file=sys.stderr)
        return 1
    return 0


def _cmd_period(args) -> int:
    from . import periodicity

    parts = _parse_parts(args.parts)
    if args.empirical:
        report = periodicity.cross_check(parts, args.prime, args.power,
                                         guard=args.guard)
    else:
        report = periodicity.kwong_period(parts, args.prime, args.power)
    payload = report.to_json()
    lines = [f"{k}: {v}" for k, v in payload.items()]
    rows = [tuple(payload.keys()), tuple(payload.values())]
    _emit(args, lines, payload, rows)
    return 0


# Plane overpartition counts never decrease with n: every plane family is
# 1/(1-q) times (1+q) * prod_{n>=2} ((1+q^n)/(1-q^n))^e with e >= 0, a series
# with nonnegative coefficients, so each count is a partial sum of them.  The
# count at this order thus bounds the count at any larger n from below.
_COUNT_ORDER = 200


def _count_exceeds(n: int, family: Family, budget: int) -> bool:
    """Whether plane or plk ``family`` has more than ``budget`` objects of size n.

    The oracle charges one budget step per object it yields, so such a run
    can only end with the budget exhausted; its count decides that at once.
    """
    order = min(n, _COUNT_ORDER)
    return genfun.build_series(family, order)[order] > budget


def _cmd_enumerate(args) -> int:
    from . import oracles

    family = _family_from_args(args)
    n = args.n
    if n < 0:
        raise ValueError(f"--n must be >= 0, got {n}")
    max_rows = family.k
    budget = oracles.DEFAULT_BUDGET if args.budget is None else args.budget
    diagrams: list[str] = []
    if family.kind in ("plane", "plk") and _count_exceeds(n, family, budget):
        raise ValueError("enumeration budget exceeded")
    try:
        if family.kind in ("plane", "plk"):
            if args.diagrams:
                objs = list(oracles.plane_overpartitions(n, max_rows, budget))
                count = len(objs)
                diagrams = [oracles.render(p) for p in objs]
            else:
                count = oracles.count_plane_overpartitions(n, max_rows, budget)
        elif family.kind in ("over", "oddover"):
            count = oracles.count_overpartitions(n, family.kind == "oddover", budget)
        elif family.kind == "ncolor":
            count = oracles.count_ncolor_overpartitions(n, budget)
        else:
            count = oracles.count_partitions_multiset(n, family.parts, budget)
    except oracles.BudgetExceeded as exc:
        raise ValueError(exc) from None
    lines = [str(count)]
    for d in diagrams:
        lines.append("")
        lines.append(d)
    payload = {"family": family.token, "n": n, "max_rows": max_rows, "count": count}
    if diagrams:
        payload["diagrams"] = diagrams
    _emit(args, lines, payload, [("family", "n", "count"), (family.token, n, count)])
    return 0


def _cmd_scan(args) -> int:
    from . import scan

    family = _family_from_args(args)
    cfg = scan.ScanConfig(family, args.mod, args.lmax, args.bound,
                          min_support=args.min_support)
    findings = scan.scan_ap_congruences(cfg)
    if args.save:
        scan.persist_findings(findings, args.save)
    lines = [
        f"{f.status}  {f.claim.family.token} mod {f.claim.modulus}: "
        f"a({f.claim.l}n+{f.claim.b}) = {f.claim.kind.residue}  support={f.support}"
        for f in findings
    ]
    payload = [f.to_json() for f in findings]
    rows = [("family", "l", "b", "c", "modulus", "support", "bound", "status")]
    rows += [tuple(j.values()) for j in payload]
    _emit(args, lines or ["no findings"], payload, rows)
    return 0


def _cmd_density(args) -> int:
    from . import scan

    family = _family_from_args(args)
    value = scan.empirical_density(family, args.mod, args.bound)
    zeros = round(value * args.bound)
    lines = [f"zeros={zeros} bound={args.bound} density={value:.6f}"]
    payload = {"family": family.token, "modulus": args.mod, "bound": args.bound,
               "zeros": zeros, "density": value}
    rows = [tuple(payload), tuple(payload.values())]
    _emit(args, lines, payload, rows)
    return 0


def _add_family_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=(*FAMILY_KINDS, "overpartition"))
    p.add_argument("--k", type=int, help="row bound for the plk family")
    p.add_argument("--parts", help="comma-separated parts, e.g. 1,2,2,3,3")


def _add_output_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", help="write the result to this path")


class _Parser(argparse.ArgumentParser):
    """Exit code 1 on usage errors; 2 is reserved for counterexamples."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcong",
        description="q-series expansion and congruence toolkit for "
                    "overpartition and plane-overpartition families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print series coefficients")
    _add_family_arguments(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mod", type=int, help="reduce modulo m (default exact)")
    _add_output_arguments(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", help="verify congruence claims")
    p.add_argument("--suite", default="all",
                   choices=("all", "mod4", "mod8", "mod12", "mod64"))
    p.add_argument("--label", action="append",
                   help="select suite claims by label prefix (repeatable)")
    p.add_argument("--claim", help="single claim as JSON (or @file)")
    p.add_argument("--bound", type=int,
                   help="check members up to this argument "
                        "(default: each claim's reference bound)")
    _add_output_arguments(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("period", help="minimum period modulo a prime power")
    p.add_argument("--parts", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--empirical", action="store_true",
                   help="also detect the period from an explicit series")
    p.add_argument("--guard", type=int, default=3)
    _add_output_arguments(p)
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("enumerate", help="brute-force count small objects")
    _add_family_arguments(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diagrams", action="store_true",
                   help="render each plane overpartition")
    p.add_argument("--budget", type=int)
    _add_output_arguments(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("scan", help="search progressions for congruences")
    _add_family_arguments(p)
    p.add_argument("--mod", type=int, required=True, help="power of two")
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--min-support", type=int, default=20)
    p.add_argument("--save", help="append findings to this JSONL file")
    _add_output_arguments(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("density", help="fraction of coefficients divisible by m")
    _add_family_arguments(p)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    _add_output_arguments(p)
    p.set_defaults(func=_cmd_density)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError):
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
