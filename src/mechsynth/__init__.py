"""Synthesis of differentially private mechanisms from sketches.

A *sketch* is a small imperative program whose noise scales are left as
holes.  This package completes the holes with symbolic expressions (or
removes the noise term) so the resulting mechanism satisfies epsilon-DP:
a statistical tester hunts for privacy-loss counterexamples, an evolutionary
search locates a promising region of concrete noise scales, and enumerative
search over a small expression grammar produces ranked, verified candidates.
"""

from .config import RunConfig
from .dist import DiscreteExponential, DiscreteLaplace, make_dist
from .lang import MechanismSketch, parse_sketch
from .search import (Example, NoiseRegion, PresampleBank, get_noise_region,
                     select_examples)
from .synth import (NoiseExpr, RankedCandidate, SynthError, SynthOutcome,
                    final_verify, rank_candidates, synth)
from .tester import (Counterexample, FisherMemo, decision_p, gen_events,
                     gen_input_pairs, hypothesis_test, test_mechanism)

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "DiscreteLaplace", "DiscreteExponential", "make_dist",
    "MechanismSketch", "parse_sketch",
    "Example", "NoiseRegion", "PresampleBank", "get_noise_region",
    "select_examples",
    "NoiseExpr", "RankedCandidate", "SynthError", "SynthOutcome",
    "final_verify", "rank_candidates", "synth",
    "Counterexample", "FisherMemo", "decision_p", "gen_events",
    "gen_input_pairs",
    "hypothesis_test", "test_mechanism",
    "__version__",
]
