#!/usr/bin/env python3
"""Tabulate the fraction of coefficients divisible by 2^r at finite bounds.

Overpartition counts are conjectured to be divisible by any fixed power of
two for almost all n, but convergence is extremely slow; this prints the
finite-bound fractions so the drift is visible (e.g. mod 64: 0.36 at 10^4,
0.43 at 10^5).
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from qcong.genfun import Family, build_series
from qcong.scan import empirical_density
from qcong.series import Mod


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="over")
    parser.add_argument("--k", type=int)
    parser.add_argument("--bits", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    parser.add_argument("--bound", type=int, default=10**4)
    args = parser.parse_args()

    try:
        if min(args.bits) < 1:
            raise ValueError(f"--bits must be >= 1, got {min(args.bits)}")
        if args.bound < 1:
            raise ValueError(f"--bound must be >= 1, got {args.bound}")
        if args.family == "plk":
            family = Family.k_rowed(args.k)
        else:
            family = Family.from_token(args.family)
        top = 2 ** max(args.bits)
        t0 = time.time()
        series = build_series(family, args.bound, Mod(top))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"built {family} mod {top} to order {args.bound} in {time.time()-t0:.1f}s")
    for bits in sorted(args.bits):
        value = empirical_density(
            family, 2**bits, args.bound, series=series.reduce_mod(2**bits)
        )
        print(f"mod {2**bits:>3}: {value:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
