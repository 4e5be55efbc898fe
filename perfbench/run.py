"""mechsynth benchmark: one workload, measured for a fixed time.

Usage, from the root of a mechsynth checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is imported from the checkout's ``src/``.  The run
repeats the workload's operation, at least twice, until ``--seconds`` would
be exceeded and checks every output.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced operations and reports
the per-layer split of the traced ones.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's inputs and environment.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from workloads import BROKEN, MISSED_VIOLATION, WORKLOADS, Runner, failed_frac

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# per-layer figures that come from the run, not from the tracer
RUN_FIGURES = ("synth.candidates", "synth.survivors",
               "tester.missed_violations", "failed_frac",
               "trace.wall_s", "trace.untraced_s", "trace.overhead_s")
PER_LAYER = tuple(layers.layer_metrics(layers.Tracer(), {})) + RUN_FIGURES

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name == "failed_frac":
        return "ratio"
    return "count"


def better(name: str) -> str:
    return "higher" if name.endswith("_per_s") or \
        name == "synth.survivors" else "lower"


def check_metrics(metrics: dict, expected) -> None:
    """Raise unless ``metrics`` holds exactly the expected, valid names."""
    bad = [n for n in metrics if not NAME.fullmatch(n)]
    missing = [n for n in expected if n not in metrics]
    extra = [n for n in metrics if n not in expected]
    if bad or missing or extra:
        raise ValueError(f"metric names: invalid {bad}, missing {missing}, "
                         f"unexpected {extra}")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def openblas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def commit():
    """The checkout's commit, when it is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "openblas_threads": openblas_threads(),
        "commit": commit(),
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def probe(workload) -> None:
    """Set up as an operation would, then say so: the body of a set-up run."""
    from mechsynth.cli import load_sketch
    for sketch in workload.sketches:
        load_sketch(sketch)
    print("ready", flush=True)


def setup_seconds(workload) -> float:
    """Seconds from starting a fresh interpreter until it could start an
    operation: interpreter start, ``import mechsynth`` and sketch loading."""
    argv = [sys.executable, __file__, "--probe", "--workload", workload.name]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up run exited {proc.returncode}")
    return seconds


def measure(runner: Runner, seconds: float, trace: bool):
    """Repeat the operation while the next one fits in ``seconds``, at least
    twice so that the median is not the first operation alone; with
    ``trace`` alternate untraced and traced operations, at least one each."""
    untraced, traced = [], []
    least = 1 if trace else 2
    start = time.perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            with layers.traced() as tracer:
                op = runner.run_op()
            op.layers = layers.layer_metrics(tracer, op.phases)
            traced.append(op)
        else:
            op = runner.run_op()
            untraced.append(op)
        enough = len(untraced) >= least and (traced or not trace)
        if enough and time.perf_counter() - start + op.wall > seconds:
            return untraced, traced


def median(values) -> float:
    return float(statistics.median(values))


def missed(op) -> int:
    return sum(k == MISSED_VIOLATION for k in op.kinds)


def layer_figures(untraced, traced, kinds) -> dict:
    out = {name: median(op.layers[name] for op in traced)
           for name in traced[0].layers}
    wall = median(op.wall for op in traced)
    base = median(op.wall for op in untraced)
    out.update({
        "synth.candidates": median(op.candidates for op in traced),
        "synth.survivors": median(op.survivors for op in traced),
        "tester.missed_violations": median(missed(op) for op in traced),
        "failed_frac": failed_frac(kinds),
        "trace.wall_s": wall,
        "trace.untraced_s": base,
        "trace.overhead_s": wall - base,
    })
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="internal: time set-up in a fresh interpreter")
    return ap.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    if not (SRC / "mechsynth" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mechsynth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.probe:
        probe(workload)
        return

    setup = [] if args.trace else [setup_seconds(workload)
                                   for _ in range(SETUP_RUNS)]
    import mechsynth.cli
    if SRC not in Path(mechsynth.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: mechsynth was not imported from {SRC}")
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=build) as wd:
        runner = Runner(workload, args.seed, Path(wd))
        untraced, traced = measure(runner, args.seconds, bool(args.trace))

    ops = untraced + traced
    kinds = [k for op in ops for k in op.kinds]
    if args.trace:
        metrics = layer_figures(untraced, traced, kinds)
        check_metrics(metrics, PER_LAYER)
        units = {name: unit(name) for name in metrics}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"op_s": median(op.wall for op in untraced),
                   "setup_s": median(setup),
                   "peak_rss_mb": peak_kib / 1024}
        check_metrics(metrics, END_TO_END)
        units = END_TO_END
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "calls": [" ".join(c) for c in workload.calls(args.seed)],
        "op_walls": [round(op.wall, 4) for op in untraced],
        "traced_op_walls": [round(op.wall, 4) for op in traced],
        "setup_samples": [round(s, 4) for s in setup],
        "failures": sorted(set(runner.failures)),
        "environment": environment(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not any(k in BROKEN for k in kinds),
        "attempted": len(kinds),
        "failed": sum(k is not None for k in kinds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
