"""Statistical detector of privacy-loss violations.

Given a concrete mechanism (a sketch plus per-hole noise scales), the tester
searches for a counterexample to epsilon-DP: an adjacent input pair (d1, d2)
and an output event E whose probabilities differ by more than e^eps under a
one-sided hypothesis test.  The workflow per input pair:

1. run the mechanism n/2 times per side (pilot), derive candidate events
   from the observed outputs, and screen them by the empirical probability
   gap |rho1 - rho2| (keeping at most ``event_cap``);
2. run n/2 fresh trials per side and count each surviving event;
3. for each event and each orientation, thin the larger count by e^(-eps)
   (Binomial quantile coupling, 20 shared uniform draws) and apply a
   one-sided Fisher exact test to the thinned 2x2 table; the reported
   p-value is the mean over the 20 thinnings.

Small p-values indicate a likely violation at the tested epsilon.  All
randomness derives from an explicit seed, so repeated calls are bit-stable.

The minimum p over every (pair, event, orientation) cell is useful for
harvesting challenging examples but is biased by multiplicity: with
thousands of cells, a genuinely private mechanism shows min-p around
0.01-0.05.  Accept/reject decisions therefore read only the *decision*
cells -- one event per (pair, orientation), selected on pilot counts alone
-- via :func:`decision_p`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy.stats import binom, hypergeom

from .dist import make_dist
from .lang import MechanismSketch, compile_sketch, count_hole_draws

__all__ = [
    "AdjacencyPattern", "PATTERN_SETS",
    "ValueEvent", "HalfLineEvent", "PrefixEvent", "CoordEvent",
    "Counterexample", "gen_input_pairs", "gen_events",
    "hypothesis_test", "test_mechanism", "counterexample_record",
    "decision_p",
]


# ---------------------------------------------------------------------------
# Adjacent input pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdjacencyPattern:
    """A named generator of adjacent answer-vector pairs at a given length."""

    name: str
    make: Callable[[int], list]

    def pairs(self, length: int) -> list:
        out = self.make(length)
        for d1, d2 in out:
            assert len(d1) == len(d2) == length
            assert all(abs(x - y) <= 1 for x, y in zip(d1, d2)), (self.name, d1, d2)
        return out


def _ones(length):
    return (1,) * length


def _p_all_above(L):
    return [((0,) * L, (1,) * L)]


def _p_one_above(L):
    return [(_ones(L), (2,) + (1,) * (L - 1))]


def _p_one_below(L):
    return [(_ones(L), (0,) + (1,) * (L - 1))]


def _p_one_above_rest_below(L):
    return [(_ones(L), (2,) + (0,) * (L - 1))]


def _p_one_below_rest_above(L):
    return [(_ones(L), (0,) + (2,) * (L - 1))]


def _p_half_half(L):
    k = L // 2
    return [(_ones(L), (2,) * k + (0,) * (L - k))]


def _p_x_shape(L):
    d2 = tuple(2 if i % 2 == 0 else 0 for i in range(L))
    return [(_ones(L), d2)]


def _p_single_bumps(L):
    pairs = []
    for i in range(L):
        up = tuple(1 + (j == i) for j in range(L))
        down = tuple(1 - (j == i) for j in range(L))
        pairs.append((_ones(L), up))
        pairs.append((_ones(L), down))
    return pairs


# "one": at most one answer changes between neighbors (sums, histograms);
# "all": every answer may shift together (counting-query workloads).
PATTERN_SETS = {
    "one": (
        AdjacencyPattern("single-bump", _p_single_bumps),
    ),
    "all": (
        AdjacencyPattern("all-above", _p_all_above),
        AdjacencyPattern("one-above", _p_one_above),
        AdjacencyPattern("one-below", _p_one_below),
        AdjacencyPattern("one-above-rest-below", _p_one_above_rest_below),
        AdjacencyPattern("one-below-rest-above", _p_one_below_rest_above),
        AdjacencyPattern("half-half", _p_half_half),
        AdjacencyPattern("x-shape", _p_x_shape),
    ),
}


def gen_input_pairs(pattern_set, length: int) -> list:
    """All adjacent ordered pairs for the named pattern set at this length.

    Both orientations of every pair are emitted; duplicates are removed with
    order preserved, so the result is deterministic.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if isinstance(pattern_set, str):
        patterns = PATTERN_SETS[pattern_set]
    else:
        patterns = tuple(pattern_set)
    seen = set()
    ordered = []
    for pat in patterns:
        for d1, d2 in pat.pairs(length):
            for pair in ((d1, d2), (d2, d1)):
                if pair not in seen and pair[0] != pair[1]:
                    seen.add(pair)
                    ordered.append(pair)
    return ordered


# ---------------------------------------------------------------------------
# Output events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueEvent:
    """Membership in a finite set of output values."""

    values: frozenset

    def contains(self, out) -> bool:
        return out in self.values

    def describe(self) -> dict:
        return {"kind": "value", "values": sorted(self.values)}


@dataclass(frozen=True)
class HalfLineEvent:
    """{out >= v} or {out <= v} for integer outputs."""

    threshold: int
    op: str  # "ge" | "le"

    def contains(self, out) -> bool:
        return out >= self.threshold if self.op == "ge" else out <= self.threshold

    def describe(self) -> dict:
        return {"kind": "halfline", "op": self.op, "threshold": self.threshold}


@dataclass(frozen=True)
class PrefixEvent:
    """List outputs beginning with a fixed true/false pattern."""

    pattern: tuple

    def contains(self, out) -> bool:
        k = len(self.pattern)
        return len(out) >= k and tuple(out[:k]) == self.pattern

    def describe(self) -> dict:
        return {"kind": "prefix", "pattern": list(self.pattern)}


@dataclass(frozen=True)
class CoordEvent:
    """Output-value sets of the form {out : out[i] >= v} (or <=) for integer
    list outputs; i is 0-based."""

    coord: int
    threshold: int
    op: str

    def contains(self, out) -> bool:
        if self.coord >= len(out):
            return False
        v = out[self.coord]
        return v >= self.threshold if self.op == "ge" else v <= self.threshold

    def describe(self) -> dict:
        return {"kind": "coord", "coord": self.coord, "op": self.op,
                "threshold": self.threshold}


class _OutputStats:
    """Counters over a batch of outputs, enough to count any event quickly."""

    def __init__(self, outputs):
        self.n = len(outputs)
        self.full = Counter(outputs)
        self.coord = {}
        self.prefix = {}
        first = outputs[0] if outputs else None
        if isinstance(first, tuple):
            if first and all(isinstance(x, bool) for x in first):
                for k in (1, 2, 3):
                    self.prefix[k] = Counter(
                        tuple(o[:k]) for o in outputs if len(o) >= k)
            else:
                width = max((len(o) for o in outputs), default=0)
                for i in range(width):
                    self.coord[i] = Counter(
                        o[i] for o in outputs if len(o) > i)

    def count(self, event) -> int:
        if isinstance(event, ValueEvent):
            return sum(c for v, c in self.full.items() if v in event.values)
        if isinstance(event, PrefixEvent):
            k = len(event.pattern)
            return self.prefix.get(k, Counter()).get(event.pattern, 0)
        if isinstance(event, CoordEvent):
            ctr = self.coord.get(event.coord)
            if ctr is None:
                return sum(c for o, c in self.full.items() if event.contains(o))
            if event.op == "ge":
                return sum(c for v, c in ctr.items() if v >= event.threshold)
            return sum(c for v, c in ctr.items() if v <= event.threshold)
        if isinstance(event, HalfLineEvent):
            if event.op == "ge":
                return sum(c for v, c in self.full.items() if v >= event.threshold)
            return sum(c for v, c in self.full.items() if v <= event.threshold)
        return sum(c for o, c in self.full.items() if event.contains(o))


_SINGLETON_CAP = 40
_COORD_CAP = 8
_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


def _quantile_thresholds(values):
    arr = np.sort(np.asarray(values))
    return sorted({int(arr[min(len(arr) - 1, int(q * len(arr)))]) for q in _QUANTILES})


def gen_events(sketch, args, sample_outputs) -> list:
    """Candidate output events derived from observed outputs.

    Integer outputs get singleton events over the observed support (most
    frequent first, capped) plus half-lines at observed quantiles; boolean
    list outputs get all prefix patterns up to length 3; integer list
    outputs get per-coordinate threshold events at marginal quantiles.
    """
    if not sample_outputs:
        raise ValueError("need at least one sample output to derive events")
    first = sample_outputs[0]
    events: list = []
    counts = Counter(sample_outputs)

    if isinstance(first, tuple) and first and all(isinstance(x, bool) for x in first):
        for k in (1, 2, 3):
            for bits in range(1 << k):
                pat = tuple(bool((bits >> j) & 1) for j in range(k))
                events.append(PrefixEvent(pat))
        for v, _ in counts.most_common(_SINGLETON_CAP):
            events.append(ValueEvent(frozenset([v])))
    elif isinstance(first, tuple):
        width = max(len(o) for o in sample_outputs)
        for i in range(min(width, _COORD_CAP)):
            marginal = [o[i] for o in sample_outputs if len(o) > i]
            for t in _quantile_thresholds(marginal):
                events.append(CoordEvent(i, t, "ge"))
                events.append(CoordEvent(i, t, "le"))
        for v, _ in counts.most_common(_SINGLETON_CAP):
            events.append(ValueEvent(frozenset([v])))
    else:
        for v, _ in counts.most_common(_SINGLETON_CAP):
            events.append(ValueEvent(frozenset([v])))
        for t in _quantile_thresholds(list(sample_outputs)):
            events.append(HalfLineEvent(t, "ge"))
            events.append(HalfLineEvent(t, "le"))

    seen = set()
    unique = []
    for e in events:
        if e not in seen:
            seen.add(e)
            unique.append(e)
    return unique


# ---------------------------------------------------------------------------
# Hypothesis test
# ---------------------------------------------------------------------------

_N_THINNINGS = 20
# Shared across every call and every tested epsilon: quantile coupling makes
# the per-draw (hence mean) p-value monotone in epsilon.
_THINNING_U = np.clip(np.random.default_rng(20200817).random(_N_THINNINGS),
                      1e-12, 1 - 1e-12)


def _mean_fisher_p(c1_arr, c2_arr, n: int, eps: float):
    """Vectorized mean-of-thinnings p-value; counts are same-shape arrays."""
    c1_arr = np.asarray(c1_arr, dtype=np.int64)
    c2_arr = np.asarray(c2_arr, dtype=np.int64)
    c1_thin = binom.ppf(_THINNING_U, c1_arr[..., None],
                        math.exp(-eps)).astype(np.int64)
    # P[X >= c1'] with X hypergeometric: population 2n, successes c1'+c2, draws n
    ps = hypergeom.sf(c1_thin - 1, 2 * n, c1_thin + c2_arr[..., None], n)
    return ps.mean(axis=-1)


def hypothesis_test(c1: int, c2: int, n: int, test_epsilon) -> float:
    """p-value for the null rho1 <= e^eps * rho2 given counts from n trials
    per side.

    The c1 side is thinned by e^(-eps) via the Binomial quantile over 20
    shared uniforms; each thinned table gets a one-sided Fisher exact
    (hypergeometric tail) test and the mean p is returned.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not (0 <= c1 <= n and 0 <= c2 <= n):
        raise ValueError("counts must lie in [0, n]")
    return float(_mean_fisher_p(c1, c2, n, float(test_epsilon)))


# ---------------------------------------------------------------------------
# Whole-mechanism testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Counterexample:
    d1: tuple
    d2: tuple
    event: object
    p_value: float
    test_epsilon: float
    rho1: float
    rho2: float
    c1: int = 0
    c2: int = 0
    n_side: int = 0
    # True for the one cell per (pair, orientation) picked from pilot data
    # alone; accept/reject decisions must read only these cells, because the
    # minimum p over every derived event is multiplicity-biased.
    decision: bool = False


def counterexample_record(cx: Counterexample, seed) -> dict:
    """JSON-ready record of one counterexample."""
    return {
        "d1": [int(v) for v in cx.d1],
        "d2": [int(v) for v in cx.d2],
        "event": cx.event.describe(),
        "p": cx.p_value,
        "test_epsilon": float(cx.test_epsilon),
        "rho1": cx.rho1,
        "rho2": cx.rho2,
        "trials": cx.n_side,
        "seed": seed,
    }


def _sample_outputs(runner, sketch, args, answers, scales, n_runs, rng):
    """Run the compiled mechanism n_runs times on fresh noise."""
    caps = count_hole_draws(sketch, args, len(answers))
    draw_cols = []
    for h, hole in enumerate(sketch.holes):
        if scales[h] is None or caps[h] == 0:
            draw_cols.append([()] * n_runs)
        else:
            d = make_dist(hole.family, float(scales[h]))
            draw_cols.append(d.sample_array(rng, (n_runs, caps[h])).tolist())
    answers = list(answers)
    outputs = []
    for j in range(n_runs):
        out, _ = runner(args, answers, [col[j] for col in draw_cols])
        outputs.append(out)
    return outputs


def _count_floor(n_side: int) -> int:
    return max(20, math.ceil(0.003 * n_side))


def test_mechanism(sketch: MechanismSketch, args: dict, noise_vector,
                   target_epsilon, trials: int = 20000, seed: int = 0,
                   event_cap: int = 64, qlen: Optional[int] = None,
                   return_all: bool = False):
    """Search all pattern pairs and derived events for the strongest
    counterexample at ``target_epsilon``.

    ``noise_vector`` holds one scale per hole (``None`` = the hole's noise
    term is absent).  Returns the minimum-p :class:`Counterexample`, or
    ``None`` when no event passes the count floor; with ``return_all`` the
    full candidate list rides along.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful test")
    if len(noise_vector) != sketch.n_holes:
        raise ValueError("noise vector length must match the hole count")
    seed_words = [seed] if isinstance(seed, int) else list(seed)
    qlen = 5 if qlen is None else qlen
    target_eps = float(target_epsilon)

    bottoms = [s is None for s in noise_vector]
    runner = compile_sketch(sketch, bottoms)
    ordered_pairs = gen_input_pairs(sketch.adjacency, qlen)
    # each unordered pair is sampled once; both orientations share the runs
    unordered = []
    seen = set()
    for d1, d2 in ordered_pairs:
        key = frozenset((d1, d2))
        if key not in seen:
            seen.add(key)
            unordered.append((d1, d2))

    n_half = trials // 2
    floor = _count_floor(n_half)
    candidates = []

    for pair_idx, (d1, d2) in enumerate(unordered):
        sides = (d1, d2)
        pilot = []
        for s, answers in enumerate(sides):
            rng = np.random.default_rng(seed_words + [pair_idx, s, 0])
            pilot.append(_OutputStats(_sample_outputs(
                runner, sketch, args, answers, noise_vector, n_half, rng)))
        merged = list(pilot[0].full.elements()) + list(pilot[1].full.elements())
        events = gen_events(sketch, args, merged)
        pcounts = [(pilot[0].count(e), pilot[1].count(e)) for e in events]
        gaps = sorted((-abs(p1 - p2), e_idx)
                      for e_idx, (p1, p2) in enumerate(pcounts))
        keep = [i for _, i in gaps[:event_cap]]
        survivors = [events[i] for i in keep]
        # one decision event per orientation, chosen on pilot counts alone so
        # the final-phase p-value for it is selection-free
        pa = np.array([pcounts[i][0] for i in keep], dtype=np.int64)
        pb = np.array([pcounts[i][1] for i in keep], dtype=np.int64)
        decision_event = {}
        if keep:
            for orient, (ca_arr, cb_arr) in ((0, (pa, pb)), (1, (pb, pa))):
                pilot_p = _mean_fisher_p(ca_arr, cb_arr, n_half, target_eps)
                decision_event[orient] = survivors[int(np.argmin(pilot_p))]

        final = []
        for s, answers in enumerate(sides):
            rng = np.random.default_rng(seed_words + [pair_idx, s, 1])
            final.append(_OutputStats(_sample_outputs(
                runner, sketch, args, answers, noise_vector, n_half, rng)))
        for event in survivors:
            c1 = final[0].count(event)
            c2 = final[1].count(event)
            if max(c1, c2) < floor:
                continue
            for orient, (da, db, ca, cb) in enumerate(
                    ((d1, d2, c1, c2), (d2, d1, c2, c1))):
                if ca < cb:
                    continue
                candidates.append(Counterexample(
                    d1=da, d2=db, event=event,
                    p_value=hypothesis_test(ca, cb, n_half, target_eps),
                    test_epsilon=target_eps,
                    rho1=ca / n_half, rho2=cb / n_half,
                    c1=ca, c2=cb, n_side=n_half,
                    decision=decision_event.get(orient) == event))

    candidates.sort(key=lambda cx: cx.p_value)
    best = candidates[0] if candidates else None
    if return_all:
        return best, candidates
    return best


def decision_p(candidates) -> float:
    """Multiplicity-safe p-value: the minimum over decision cells only."""
    return min((cx.p_value for cx in candidates if cx.decision), default=1.0)
