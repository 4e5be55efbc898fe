#!/usr/bin/env python3
"""Run the synthesizer over the bundled benchmark corpus.

Writes one JSON report (plus a .timings.json sidecar) per benchmark into an
output directory and prints a one-line summary per mechanism: wall time,
rank-1 survivor and the number of verified completions.  Exits 1 when some
benchmark has no verified completion.  Budgets are ``RunConfig``'s
defaults; expect roughly 2-15 minutes per benchmark.

Example: python scripts/run_benchmarks.py --outdir reports --only sum,svt
"""

import argparse
import sys
import time
from pathlib import Path

from mechsynth import RunConfig, synth
from mechsynth.cli import benchmark_names, load_sketch, write_outcome


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--only", default="",
                    help="comma-separated benchmark names (default: all)")
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
        t0 = time.time()
        outcome = synth(sketch, RunConfig(seed=args.seed))
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
