"""Run configuration shared by the CLI and the synthesis pipeline:
``RunConfig`` holds what a command can set, the constants what every run
shares."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

ZONE = (0.05, 0.9)              # zone of confusion (p-value band)
PROPOSAL_SCALE = 4.0            # optimizer bank proposal at the fixed binding
COEFF_RANGE = (1, 4)            # grammar: coefficient range
QLEN_EXP_RANGE = (0, 2)         # grammar: exponents of qlen
INVEPS_EXP_RANGE = (1, 2)       # grammar: exponents of 1/eps
EVENT_FLOOR = 1e-4              # min resolvable event probability
VERIFY_ALPHA = 0.05             # final tester rejection level
FIXED_ARGS = {"M": 2, "N": 1, "T": 2}  # values of the sketches' arguments

_CONSTANTS = dict(  # as RunConfig.echo prints them
    zone=ZONE, proposal_scale=PROPOSAL_SCALE, coeff_range=COEFF_RANGE,
    qlen_exp_range=QLEN_EXP_RANGE, inveps_exp_range=INVEPS_EXP_RANGE,
    event_floor=EVENT_FLOOR, verify_alpha=VERIFY_ALPHA, fixed_args=FIXED_ARGS)


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


@dataclass
class RunConfig:
    """Knobs for the whole pipeline.  Defaults are desk-scale budgets."""

    seed: int = 0
    epsilon: Fraction = Fraction(1, 2)     # target eps at the fixed binding
    qlen: int = 5                          # answer-vector length at the fixed binding
    trials: int = 20000                    # tester runs per (pair, side)
    presamples: int = 50000                # importance-sampling bank size
    lam: float = 1.0                       # L0 regularizer weight
    population: int = 50
    steps_per_hole: int = 500              # DE generations = this * #holes
    radius: float = 3.0                    # neighborhood L1 radius for pruning
    scale_grid: tuple = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)
    examples_cap: int = 12                 # per-binding test-example cap
    test_eps: tuple = (Fraction(1, 5), Fraction(1, 2), Fraction(3, 2))
    test_qlens: tuple = (5, 10)

    def validate(self):
        positive = ["trials", "presamples", "lam", "steps_per_hole", "radius",
                    "examples_cap", "qlen"]
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"config field {name} must be positive")
        for name in ("lam", "radius"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"config field {name} must be finite")
        # numpy takes no negative seed; below 2^64, the seed and two stream
        # indices fit SeedSequence's four-word pool
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must lie in [0, 2^64)")
        # the tester and the optimiser read epsilon as a float: it must
        # neither overflow nor round to 0 there
        try:
            eps = float(self.epsilon)
        except OverflowError:
            eps = math.inf
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError("epsilon must be positive and finite as a float")
        if self.trials < 1000:
            raise ValueError("trials must be at least 1000")
        # rand/1/bin mutates each member with three distinct other members
        if self.population < 4:
            raise ValueError("population must be at least 4")
        return self

    def echo(self) -> dict:
        """Effective values of every field and of the module constants,
        JSON-ready: rationals rendered exactly, tuples as lists, ``lam`` as
        ``lambda``."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["epsilon"] = _frac_str(self.epsilon)
        out = {}
        for name, value in {**values, **_CONSTANTS}.items():
            if isinstance(value, tuple):
                value = [_frac_str(v) if isinstance(v, Fraction) else v
                         for v in value]
            elif isinstance(value, dict):
                value = dict(sorted(value.items()))
            out["lambda" if name == "lam" else name] = value
        return out
