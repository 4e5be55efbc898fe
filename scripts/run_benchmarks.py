#!/usr/bin/env python3
"""Run the synthesizer over the bundled benchmark corpus.

Writes one JSON report (plus a .timings.json sidecar) per benchmark into an
output directory and prints a one-line summary per mechanism.  Intended as
the long-form experiment driver; expect roughly 2-15 minutes per benchmark
at default budgets.

Usage:
    python scripts/run_benchmarks.py [--outdir reports] [--seed 0]
                                     [--only sum,svt] [--paper-scale]
"""

import argparse
import sys
import time
from pathlib import Path

from mechsynth import RunConfig, synth
from mechsynth.cli import benchmark_names, load_sketch, write_outcome


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--only", default="",
                    help="comma-separated benchmark names (default: all)")
    ap.add_argument("--paper-scale", action="store_true",
                    help="raise statistical budgets 5x")
    args = ap.parse_args()

    names = benchmark_names()
    if args.only:
        wanted = [w.strip().lower() for w in args.only.split(",")]
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            sys.exit(f"unknown benchmarks: {', '.join(unknown)}")
        names = [n for n in names if n in wanted]

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name in names:
        sketch = load_sketch(name)
        cfg = RunConfig(seed=args.seed)
        if args.paper_scale:
            cfg = cfg.scaled(5)
        t0 = time.time()
        outcome = synth(sketch, cfg)
        elapsed = time.time() - t0
        write_outcome(outcome, str(outdir / f"{name}.json"))
        survivors = [s["completion"] for s in outcome.report["survivors"]]
        top = survivors[0] if survivors else "-- none --"
        if not survivors:
            failures += 1
        print(f"{name:12s} {elapsed:7.1f}s  rank-1: {top}   "
              f"({len(survivors)} verified)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
