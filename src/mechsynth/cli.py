"""Command-line front end.

Three subcommands cover the pipeline:

* ``synth``  -- run the full synthesis loop on a sketch and write a report;
* ``test``   -- run the statistical tester on one concrete completion;
* ``grid``   -- emit the optimization objective over a 2-D lattice of scales
  for two chosen holes (plot data for objective landscapes).

Each command takes only the options it reads, with ``RunConfig``'s
defaults, and runs the sketch under the fixed binding that
``synth.fix_params`` builds: ``eps``, ``qlen`` and a value for each argument
the sketch declares.  Reports are deterministic for a fixed seed and config;
wall-clock timings go to a ``.timings.json`` sidecar so the main report
stays byte-identical.  Exit codes: 0 ok; 1 violation found (``test``), no
candidate survived (``synth``) or no challenging example found (``grid``);
2 usage error, such as an ``--out`` path that cannot be written; 3 a sketch
argument without a fixed value, a runtime fault while running the sketch,
such as an out-of-range index, a read of an unassigned variable, an int64
overflow or exhausted noise draws, an allocation that runs out of memory,
or (``synth``) any other failure inside a synthesis phase.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from .config import VERIFY_ALPHA, RunConfig
from .dist import make_dist
from .lang import LangError, MechanismSketch, parse_sketch
from .search import batch_objective, select_examples
from .synth import (SynthError, fix_params, optimizer_bank, report_to_json,
                    synth)
from .tester import (FisherMemo, counterexample_record, decision_p,
                     test_mechanism)

__all__ = ["main", "load_sketch", "benchmark_names", "write_outcome"]


# ---------------------------------------------------------------------------
# Sketch loading
# ---------------------------------------------------------------------------

def _corpus_dir():
    return importlib.resources.files("mechsynth") / "benchmarks"


def benchmark_names() -> list:
    """Names of the bundled benchmark sketches (stem of each .dpm file)."""
    return sorted(p.name[:-len(".dpm")] for p in _corpus_dir().iterdir()
                  if p.name.endswith(".dpm"))


def load_sketch(ref: str) -> MechanismSketch:
    """Load a sketch from a file path or a bundled benchmark name."""
    path = Path(ref)
    if path.is_file():
        return parse_sketch(path.read_text())
    name = ref.lower().removesuffix(".dpm")
    res = _corpus_dir() / f"{name}.dpm"
    if res.is_file():
        return parse_sketch(res.read_text())
    raise click.UsageError(
        f"sketch {ref!r} is neither a file nor a bundled benchmark "
        f"(available: {', '.join(benchmark_names())})")


def _parse_eps(_ctx, _param, value):
    # Fraction builds 10 ** |exponent| exactly, so a decimal exponent that no
    # float reaches (1e10000000) is refused first; float() rounds alike
    with contextlib.suppress(ValueError):
        if "e" in value.lower() and not 0 < abs(float(value)) < math.inf:
            raise click.UsageError(
                "epsilon must be positive and finite as a float")
    try:
        eps = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot parse epsilon {value!r}")
    return eps


def _parse_noise(value: str, holes) -> list:
    """One scale, or None for 'bot', per hole of ``holes``; a scale that
    the hole's noise family rejects is a usage error."""
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != len(holes):
        raise click.UsageError(
            f"noise assignment has {len(parts)} entries, sketch has "
            f"{len(holes)} hole(s)")
    out = []
    for p, hole in zip(parts, holes):
        if p in ("bot", "none", "_"):
            out.append(None)
        else:
            try:
                scale = float(p)
            except ValueError:
                raise click.UsageError(f"cannot parse noise scale {p!r}")
            if not (math.isfinite(scale) and scale > 0):
                raise click.UsageError(
                    f"noise scale {p!r} must be finite and positive")
            _check_family_scale(hole.family, scale)
            out.append(scale)
    return out


def _check_family_scale(family: str, scale: float):
    try:
        make_dist(family, scale)
    except ValueError as exc:
        raise click.UsageError(str(exc))


# ---------------------------------------------------------------------------
# Shared options
# ---------------------------------------------------------------------------

def _writable(path: str) -> str:
    """``path``, refused as a usage error unless it is empty (stdout) or
    names a file in an existing directory."""
    # os.path keeps a trailing separator that Path would drop
    if path and (os.path.isdir(path)
                 or not os.path.isdir(os.path.dirname(path) or ".")):
        raise click.UsageError(
            f"cannot write {path!r}: not a file in an existing directory")
    return path


def _budget_options(*names):
    """The named budget options, in that order, then ``--out``.  Each
    option's destination is the RunConfig field it sets, whose default it
    shows."""
    d = RunConfig()

    def opt(*decls, **attrs):
        return click.option(*decls, show_default=True, **attrs)
    opts = {
        "epsilon": opt("--epsilon", default=str(d.epsilon),
                       callback=_parse_eps, help="Target privacy budget."),
        "seed": opt("--seed", default=d.seed, type=int),
        "trials": opt("--trials", default=d.trials, type=int,
                      help="Tester runs per (pair, side)."),
        "presamples": opt("--presamples", default=d.presamples, type=int,
                          help="Importance-sampling bank size."),
        "lambda": opt("--lambda", "lam", default=d.lam, type=float,
                      help="Sparsity regularizer weight."),
        "population": opt("--population", default=d.population, type=int),
        "steps": opt("--steps", "steps_per_hole", default=d.steps_per_hole,
                     type=int, help="Optimizer generations per hole."),
        "radius": opt("--radius", default=d.radius, type=float,
                      help="Neighborhood L1 radius for pruning."),
        "qlen": opt("--qlen", default=d.qlen, type=int,
                    help="Answer-vector length at the fixed binding."),
    }

    def decorate(f):
        f = click.option("--out", default="",
                         callback=lambda _ctx, _param, out: _writable(out),
                         help="Output path (default stdout).")(f)
        for name in reversed(names):
            f = opts[name](f)
        return f
    return decorate


def _make_config(**fields) -> RunConfig:
    """A validated RunConfig from the fields a command's options set."""
    try:
        return RunConfig(**fields).validate()
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _emit(text: str, out: str):
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@contextlib.contextmanager
def _faults_exit_3():
    """Report a synthesis-phase error, a sketch runtime fault or an
    allocation failure on stderr and exit 3."""
    try:
        yield
    except SynthError as exc:
        click.echo(f"error in phase {exc.phase}: {exc}", err=True)
        sys.exit(3)
    except LangError as exc:
        click.echo(f"runtime error in sketch: {exc}", err=True)
        sys.exit(3)
    except MemoryError as exc:
        click.echo(f"out of memory: {exc}", err=True)
        sys.exit(3)


def write_outcome(outcome, out: str):
    """Write a synthesis report to ``out`` (stdout when empty) and, with an
    ``out`` path, its wall-clock timings and work counters to
    ``<out>.timings.json``."""
    _emit(report_to_json(outcome.report), out)
    if out:
        sidecar = {"seconds": {k: round(v, 3) for k, v in
                               outcome.timings.items()},
                   "counters": outcome.counters}
        Path(out + ".timings.json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Complete noise-scale holes in randomized mechanisms so the result
    satisfies epsilon-differential privacy."""


@main.command("synth")
@click.option("--sketch", required=True, help="Sketch file or benchmark name.")
@_budget_options("epsilon", "seed", "trials", "presamples", "lambda",
                 "population", "steps", "radius", "qlen")
def cmd_synth(sketch, out, **kw):
    """Synthesize noise expressions for every hole of a sketch."""
    _writable(out and out + ".timings.json")
    cfg = _make_config(**kw)
    sk = _load_or_usage(sketch)
    with _faults_exit_3():
        outcome = synth(sk, cfg)
    write_outcome(outcome, out)
    sys.exit(0 if outcome.survivors else 1)


@main.command("test")
@click.option("--sketch", required=True, help="Sketch file or benchmark name.")
@click.option("--noise", required=True,
              help="Comma-separated scale per hole; 'bot' = no noise.")
@click.option("--max-records", default=100, show_default=True,
              type=click.IntRange(min=0),
              help="Cap on printed counterexample records.")
@_budget_options("epsilon", "seed", "trials", "qlen")
def cmd_test(sketch, noise, max_records, out, **kw):
    """Test one concrete completion for privacy-loss violations."""
    cfg = _make_config(**kw)
    sk = _load_or_usage(sketch)
    vec = _parse_noise(noise, sk.holes)
    with _faults_exit_3():
        cands = test_mechanism(sk, fix_params(sk, cfg), vec,
                               trials=cfg.trials, seed=cfg.seed,
                               limit=max_records)
    dp = decision_p(cands)
    lines = [json.dumps(counterexample_record(cx, cfg.seed), sort_keys=True)
             for cx in cands[:max_records]]
    lines.append(json.dumps({
        "decision_p": dp, "violation": dp < VERIFY_ALPHA,
        "epsilon": str(cfg.epsilon), "candidates": len(cands)},
        sort_keys=True))
    _emit("\n".join(lines) + "\n", out)
    sys.exit(1 if dp < VERIFY_ALPHA else 0)


# Largest lattice ``mechsynth grid`` scores: a 200 x 200 sweep.
_GRID_MAX_POINTS = 40_000


@main.command("grid")
@click.option("--sketch", required=True, help="Sketch file or benchmark name.")
@click.option("--holes", default="1,2", show_default=True,
              help="The two 1-based hole indices to sweep.")
@click.option("--fix", multiple=True,
              help="Fix another hole, e.g. --fix 3=bot or --fix 3=2.5.")
@click.option("--grid", "grid_spec", default="1:12", show_default=True,
              help="Lattice lo:hi[:step] applied to both axes; lo > 0 "
                   "and at most 200 values per axis.")
@_budget_options("epsilon", "seed", "trials", "presamples", "lambda", "qlen")
def cmd_grid(sketch, holes, fix, grid_spec, out, **kw):
    """Emit the optimization objective over a 2-D lattice of noise scales."""
    cfg = _make_config(**kw)
    sk = _load_or_usage(sketch)
    try:
        i, j = (int(h) for h in holes.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse hole indices {holes!r}")
    for h in (i, j):
        if not 1 <= h <= sk.n_holes:
            raise click.UsageError(
                f"hole {h} out of range for a {sk.n_holes}-hole sketch")
    if i == j:
        raise click.UsageError("the two swept holes must differ")
    fixed = {}
    for item in fix:
        k, _, v = item.partition("=")
        try:
            idx = int(k)
        except ValueError:
            raise click.UsageError(f"cannot parse --fix {item!r}")
        if not 1 <= idx <= sk.n_holes:
            raise click.UsageError(
                f"hole {idx} out of range for a {sk.n_holes}-hole sketch")
        if idx in (i, j) or idx in fixed:
            raise click.UsageError(
                f"--fix {item!r}: hole {idx} is swept or already fixed")
        fixed[idx] = _parse_noise(v, [sk.holes[idx - 1]])[0]
    free = {i, j}
    missing = [h for h in range(1, sk.n_holes + 1)
               if h not in free and h not in fixed]
    if missing:
        raise click.UsageError(
            f"holes {missing} are neither swept nor fixed (use --fix)")

    parts = grid_spec.split(":")
    if len(parts) not in (2, 3):
        raise click.UsageError(f"cannot parse grid spec {grid_spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise click.UsageError(f"cannot parse grid spec {grid_spec!r}")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise click.UsageError("grid bounds and step must be finite")
    if step <= 0 or hi < lo:
        raise click.UsageError("grid requires lo <= hi and step > 0")
    if lo <= 0:
        raise click.UsageError("grid scales must be positive")
    # the lattice holds its values to 9 decimals
    if round(lo, 9) == 0:
        raise click.UsageError(
            f"grid lo {parts[0]} rounds to 0 at the lattice's 1e-9 "
            "resolution; grid scales must be positive")
    span = (hi - lo + 1e-9) / step
    # count ** 2 points, count = floor(span) + 1; span may be inf
    if not span < math.isqrt(_GRID_MAX_POINTS):
        raise click.UsageError(
            f"grid {grid_spec!r} has more than {_GRID_MAX_POINTS} points")
    axis = [round(lo + i * step, 9) for i in range(math.floor(span) + 1)]
    for h in (i, j):
        for scale in (axis[0], axis[-1]):
            _check_family_scale(sk.holes[h - 1].family, scale)

    points = [(a, b) for a in axis for b in axis]
    cands = []
    for a, b in points:
        vec = [None] * sk.n_holes
        vec[i - 1], vec[j - 1] = a, b
        for idx, val in fixed.items():
            vec[idx - 1] = val
        cands.append(vec)
    with _faults_exit_3():
        binding = fix_params(sk, cfg)
        examples = select_examples(
            sk, binding, scale_grid=cfg.scale_grid, trials=cfg.trials,
            seed=cfg.seed, memo=FisherMemo())
        if not examples:
            click.echo("no challenging examples found", err=True)
            sys.exit(1)
        bank = optimizer_bank(sk, binding, cfg)
        objs = batch_objective(bank, examples, cands, float(cfg.epsilon),
                               lam=cfg.lam)
    rows = [f"scale{i},scale{j},objective"]
    rows += [f"{a:g},{b:g},{o:.6f}" for (a, b), o in zip(points, objs)]
    _emit("\n".join(rows) + "\n", out)
    sys.exit(0)


def _load_or_usage(ref: str) -> MechanismSketch:
    try:
        return load_sketch(ref)
    except click.UsageError:
        raise
    except Exception as exc:
        raise click.UsageError(f"cannot parse sketch {ref!r}: {exc}")


if __name__ == "__main__":
    main()
