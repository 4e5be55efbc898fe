"""Command-line front end.

Three subcommands cover the pipeline:

* ``synth``  -- run the full synthesis loop on a sketch and write a report;
* ``test``   -- run the statistical tester on one concrete completion;
* ``grid``   -- emit the optimization objective over a 2-D lattice of scales
  for two chosen holes (plot data for objective landscapes).

Every command runs the sketch under the fixed argument binding that
``synth.fix_params`` builds from the options: ``eps``, ``qlen`` and a value
for each argument the sketch declares.  Reports are deterministic for a fixed
seed and config; wall-clock timings go to a ``.timings.json`` sidecar so the
main report stays byte-identical.  Exit codes: 0 ok; 1 violation found
(``test``), no candidate survived (``synth``) or no challenging example
found (``grid``); 2 usage error; 3 a sketch argument without a fixed value,
a runtime fault while running the sketch, such as an out-of-range index, a
read of an unassigned variable, an int64 overflow or exhausted noise draws,
or (``synth``) any other failure inside a synthesis phase.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import click

from .config import RunConfig
from .lang import LangError, MechanismSketch, parse_sketch
from .search import PresampleBank, batch_objective, select_examples
from .synth import SynthError, fix_params, report_to_json, synth
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
    if path.exists():
        return parse_sketch(path.read_text())
    name = ref.lower().removesuffix(".dpm")
    res = _corpus_dir() / f"{name}.dpm"
    if res.is_file():
        return parse_sketch(res.read_text())
    raise click.UsageError(
        f"sketch {ref!r} is neither a file nor a bundled benchmark "
        f"(available: {', '.join(benchmark_names())})")


def _parse_eps(_ctx, _param, value):
    try:
        eps = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot parse epsilon {value!r}")
    if eps <= 0:
        raise click.UsageError("epsilon must be positive")
    return eps


def _parse_noise(value: str, n_holes: int) -> list:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != n_holes:
        raise click.UsageError(
            f"noise assignment has {len(parts)} entries, sketch has "
            f"{n_holes} hole(s)")
    out = []
    for p in parts:
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
            out.append(scale)
    return out


# ---------------------------------------------------------------------------
# Shared options
# ---------------------------------------------------------------------------

def _budget_options(f):
    d = RunConfig()
    opts = [
        click.option("--epsilon", default=str(d.epsilon),
                     callback=_parse_eps, show_default=True,
                     help="Target privacy budget."),
        click.option("--seed", default=d.seed, show_default=True, type=int),
        click.option("--trials", default=d.trials, show_default=True,
                     type=int, help="Tester runs per (pair, side)."),
        click.option("--presamples", default=d.presamples, show_default=True,
                     type=int, help="Importance-sampling bank size."),
        click.option("--lambda", "lam", default=d.lam, show_default=True,
                     type=float, help="Sparsity regularizer weight."),
        click.option("--population", default=d.population, show_default=True,
                     type=int),
        click.option("--steps", default=d.steps_per_hole, show_default=True,
                     type=int, help="Optimizer generations per hole."),
        click.option("--radius", default=d.radius, show_default=True,
                     type=float, help="Neighborhood L1 radius for pruning."),
        click.option("--qlen", default=d.qlen, show_default=True, type=int,
                     help="Answer-vector length at the fixed binding."),
        click.option("--paper-scale", is_flag=True,
                     help="Raise trials and presamples 5x."),
        click.option("--out", default=d.out,
                     help="Output path (default stdout)."),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


def _make_config(epsilon, seed, trials, presamples, lam, population, steps,
                 radius, qlen, paper_scale, out) -> RunConfig:
    cfg = RunConfig(seed=seed, epsilon=epsilon, qlen=qlen, trials=trials,
                    presamples=presamples, lam=lam, population=population,
                    steps_per_hole=steps, radius=radius, out=out)
    if paper_scale:
        cfg = cfg.scaled(5)
    try:
        cfg.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return cfg


def _emit(text: str, out: str):
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@contextlib.contextmanager
def _faults_exit_3():
    """Report a synthesis-phase error or a sketch runtime fault on stderr
    and exit 3."""
    try:
        yield
    except SynthError as exc:
        click.echo(f"error in phase {exc.phase}: {exc}", err=True)
        sys.exit(3)
    except LangError as exc:
        click.echo(f"runtime error in sketch: {exc}", err=True)
        sys.exit(3)


def write_outcome(outcome, out: str):
    """Write a synthesis report to ``out`` (stdout when empty) and, with an
    ``out`` path, its wall-clock timings to ``<out>.timings.json``."""
    _emit(report_to_json(outcome.report), out)
    if out:
        sidecar = {"seconds": {k: round(v, 3) for k, v in
                               outcome.timings.items()}}
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
@_budget_options
def cmd_synth(sketch, **kw):
    """Synthesize noise expressions for every hole of a sketch."""
    cfg = _make_config(**kw)
    sk = _load_or_usage(sketch)
    with _faults_exit_3():
        outcome = synth(sk, cfg)
    write_outcome(outcome, cfg.out)
    sys.exit(0 if outcome.survivors else 1)


@main.command("test")
@click.option("--sketch", required=True, help="Sketch file or benchmark name.")
@click.option("--noise", required=True,
              help="Comma-separated scale per hole; 'bot' = no noise.")
@click.option("--max-records", default=100, show_default=True,
              type=click.IntRange(min=0),
              help="Cap on printed counterexample records.")
@_budget_options
def cmd_test(sketch, noise, max_records, **kw):
    """Test one concrete completion for privacy-loss violations."""
    cfg = _make_config(**kw)
    sk = _load_or_usage(sketch)
    vec = _parse_noise(noise, sk.n_holes)
    with _faults_exit_3():
        cands = test_mechanism(sk, fix_params(sk, cfg), vec,
                               trials=cfg.trials, seed=cfg.seed)
    dp = decision_p(cands)
    lines = [json.dumps(counterexample_record(cx, cfg.seed), sort_keys=True)
             for cx in cands[:max_records]]
    lines.append(json.dumps({
        "decision_p": dp, "violation": dp < cfg.verify_alpha,
        "epsilon": str(cfg.epsilon), "candidates": len(cands)},
        sort_keys=True))
    _emit("\n".join(lines) + "\n", cfg.out)
    sys.exit(1 if dp < cfg.verify_alpha else 0)


@main.command("grid")
@click.option("--sketch", required=True, help="Sketch file or benchmark name.")
@click.option("--holes", default="1,2", show_default=True,
              help="The two 1-based hole indices to sweep.")
@click.option("--fix", multiple=True,
              help="Fix another hole, e.g. --fix 3=bot or --fix 3=2.5.")
@click.option("--grid", "grid_spec", default="1:12", show_default=True,
              help="Lattice lo:hi[:step] applied to both axes.")
@_budget_options
def cmd_grid(sketch, holes, fix, grid_spec, **kw):
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
        fixed[idx] = _parse_noise(v, 1)[0]
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
    axis = []
    v = lo
    while v <= hi + 1e-9:
        axis.append(round(v, 9))
        v += step

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
            seed=cfg.seed, zone=cfg.zone, memo=FisherMemo())
        if not examples:
            click.echo("no challenging examples found", err=True)
            sys.exit(1)
        bank = PresampleBank(sk, binding, m=cfg.presamples,
                             proposal_scale=cfg.proposal_scale, seed=cfg.seed)
        objs = batch_objective(bank, examples, cands, float(cfg.epsilon),
                               cfg.lam, floor=cfg.event_floor)
    rows = [f"scale{i},scale{j},objective"]
    rows += [f"{a:g},{b:g},{o:.6f}" for (a, b), o in zip(points, objs)]
    _emit("\n".join(rows) + "\n", cfg.out)
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
