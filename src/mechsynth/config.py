"""Run configuration shared by the CLI and the synthesis pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


@dataclass
class RunConfig:
    """Knobs for the whole pipeline.  Defaults are desk-scale budgets; the
    ``scaled`` helper raises the statistical budgets for longer runs."""

    seed: int = 0
    epsilon: Fraction = Fraction(1, 2)     # target eps at the fixed binding
    qlen: int = 5                          # answer-vector length at the fixed binding
    trials: int = 20000                    # tester runs per (pair, side)
    presamples: int = 50000                # importance-sampling bank size
    lam: float = 1.0                       # L0 regularizer weight
    population: int = 50
    steps_per_hole: int = 500              # DE generations = this * #holes
    radius: float = 3.0                    # neighborhood L1 radius for pruning
    zone: tuple = (0.05, 0.9)              # zone of confusion (p-value band)
    proposal_scale: float = 4.0            # bank proposal at the fixed binding
    scale_grid: tuple = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)
    coeff_range: tuple = (1, 4)
    qlen_exp_range: tuple = (0, 2)
    inveps_exp_range: tuple = (1, 2)
    event_floor: float = 1e-4              # min resolvable event probability
    verify_alpha: float = 0.05             # final tester rejection level
    examples_cap: int = 12                 # per-binding test-example cap
    test_eps: tuple = (Fraction(1, 5), Fraction(1, 2), Fraction(3, 2))
    test_qlens: tuple = (5, 10)
    fixed_args: dict = field(default_factory=lambda: {"T": 2, "N": 1, "M": 2})
    out: str = ""

    def validate(self):
        positive = ["trials", "presamples", "lam", "population", "steps_per_hole",
                    "radius", "proposal_scale", "verify_alpha",
                    "examples_cap", "qlen"]
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"config field {name} must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.trials < 1000:
            raise ValueError("trials must be at least 1000")
        if not (0 < self.zone[0] < self.zone[1] < 1):
            raise ValueError("zone bounds must satisfy 0 < lo < hi < 1")
        if not 0 <= self.event_floor < 0.5:
            raise ValueError("event_floor must lie in [0, 0.5)")
        return self

    def scaled(self, factor: int) -> "RunConfig":
        """Budget multiplier (e.g. 5 for long runs); other knobs unchanged."""
        cfg = RunConfig(**{f.name: getattr(self, f.name) for f in fields(self)})
        cfg.trials = self.trials * factor
        cfg.presamples = self.presamples * factor
        return cfg

    def steps(self, n_holes: int) -> int:
        return self.steps_per_hole * n_holes

    def echo(self) -> dict:
        """Effective values of every field but ``out``, JSON-ready:
        rationals rendered exactly, tuples as lists, ``lam`` as ``lambda``."""
        out = {}
        for f in fields(self):
            if f.name == "out":
                continue
            value = getattr(self, f.name)
            if f.type == "Fraction":
                value = _frac_str(value)
            elif isinstance(value, tuple):
                value = [_frac_str(v) if isinstance(v, Fraction) else v
                         for v in value]
            elif isinstance(value, dict):
                value = dict(sorted(value.items()))
            out["lambda" if f.name == "lam" else f.name] = value
        return out
