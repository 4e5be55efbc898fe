"""Statistical detector of privacy-loss violations.

Given a concrete mechanism (a sketch plus per-hole noise scales) under one
argument binding (``eps``, ``qlen`` and the sketch's own arguments), the
tester searches for a counterexample to epsilon-DP: an adjacent input pair
(d1, d2) and an output event E whose probabilities differ by more than e^eps
under a one-sided hypothesis test.  Input pairs are unordered: each is
sampled once and tested in both orientations.  The workflow per input pair:

1. run the mechanism n/2 times per side (pilot), derive candidate events
   from the observed outputs, and screen them by the empirical probability
   gap |rho1 - rho2| (keeping at most 64);
2. run n/2 fresh trials per side and count each surviving event;
3. for each event and each orientation, thin the larger count by e^(-eps)
   (Binomial quantile coupling, 20 shared uniform draws) and apply a
   one-sided Fisher exact test to the thinned 2x2 table; the reported
   p-value is the mean over the 20 thinnings.

Small p-values indicate a likely violation at the tested epsilon.  All
randomness derives from an explicit seed, so repeated calls are bit-stable.
The pilot and final runs of one input side are one lane-kernel call and
events are counted with array comparisons (:meth:`hits`).  A call makes two
batched :func:`hypothesis_test` calls: one over every pilot cell, which
picks the decision events, then one over the final cells -- all of them, or
the decision cells alone when the caller reads nothing else.  A
:class:`FisherMemo` shared by the calls of one operation computes each
thinning and each Fisher table once.

The minimum p over every (pair, event, orientation) cell is useful for
harvesting challenging examples but is biased by multiplicity: with
thousands of cells, a genuinely private mechanism shows min-p around
0.01-0.05.  Accept/reject decisions therefore read only the *decision*
cells -- one event per (pair, orientation), selected on pilot counts alone
-- via :func:`decision_p`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom, hypergeom

from .dist import make_dist
from .lang import MechanismSketch, Outputs, compile_sketch, count_hole_draws

__all__ = [
    "PATTERN_SETS", "ValueEvent", "HalfLineEvent", "PrefixEvent", "CoordEvent",
    "Counterexample", "gen_input_pairs", "gen_events", "FisherMemo",
    "hypothesis_test", "test_mechanism", "counterexample_record",
    "decision_p",
]


# ---------------------------------------------------------------------------
# Adjacent input pairs
# ---------------------------------------------------------------------------

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


# Pair generators per adjacency, each a function of the answer-vector
# length.  "one": at most one answer changes between neighbors (sums,
# histograms); "all": every answer may shift together (counting-query
# workloads).  New adjacent pairs belong here.
PATTERN_SETS = {
    "one": (_p_single_bumps,),
    "all": (_p_all_above, _p_one_above, _p_one_below, _p_one_above_rest_below,
            _p_one_below_rest_above, _p_half_half, _p_x_shape),
}


def gen_input_pairs(adjacency: str, length: int) -> list:
    """The adjacent pairs of the named adjacency at this length.

    Pairs are unordered: each appears once, in the orientation and order
    the patterns first produce it, and the tester runs both orientations
    from one sample.  The result is deterministic.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    seen = set()
    pairs = []
    for make in PATTERN_SETS[adjacency]:
        for d1, d2 in make(length):
            assert len(d1) == len(d2) == length
            assert all(abs(x - y) <= 1 for x, y in zip(d1, d2)), (d1, d2)
            key = frozenset((d1, d2))
            if d1 != d2 and key not in seen:
                seen.add(key)
                pairs.append((d1, d2))
    return pairs


# ---------------------------------------------------------------------------
# Output events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueEvent:
    """Membership in a finite set of output values."""

    values: frozenset

    def contains(self, out) -> bool:
        return out in self.values

    def hits(self, outputs: Outputs) -> np.ndarray:
        vals = outputs.values
        if outputs.lengths is None:
            members = [v for v in self.values if not isinstance(v, tuple)]
            if len(members) == 1:
                return vals == members[0]
            return np.isin(vals, members)
        hit = np.zeros(len(vals), dtype=bool)
        for v in self.values:
            if isinstance(v, tuple):
                hit |= _rows_start_with(outputs, v) & (outputs.lengths == len(v))
        return hit

    def describe(self) -> dict:
        return {"kind": "value", "values": sorted(self.values)}


@dataclass(frozen=True)
class HalfLineEvent:
    """{out >= v} or {out <= v} for integer outputs."""

    threshold: int
    op: str  # "ge" | "le"

    def contains(self, out) -> bool:
        return out >= self.threshold if self.op == "ge" else out <= self.threshold

    def hits(self, outputs: Outputs) -> np.ndarray:
        vals = outputs.values
        return vals >= self.threshold if self.op == "ge" else vals <= self.threshold

    def describe(self) -> dict:
        return {"kind": "halfline", "op": self.op, "threshold": self.threshold}


@dataclass(frozen=True)
class PrefixEvent:
    """List outputs beginning with a fixed true/false pattern."""

    pattern: tuple

    def contains(self, out) -> bool:
        k = len(self.pattern)
        return len(out) >= k and tuple(out[:k]) == self.pattern

    def hits(self, outputs: Outputs) -> np.ndarray:
        return _rows_start_with(outputs, self.pattern)

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

    def hits(self, outputs: Outputs) -> np.ndarray:
        if self.coord >= outputs.values.shape[1]:
            return np.zeros(len(outputs), dtype=bool)
        v = outputs.values[:, self.coord]
        inside = v >= self.threshold if self.op == "ge" else v <= self.threshold
        return inside & (outputs.lengths > self.coord)

    def describe(self) -> dict:
        return {"kind": "coord", "coord": self.coord, "op": self.op,
                "threshold": self.threshold}


def _rows_start_with(outputs: Outputs, prefix: tuple) -> np.ndarray:
    """Lanes whose list output begins with ``prefix``."""
    k = len(prefix)
    if k > outputs.values.shape[1]:
        return np.zeros(len(outputs), dtype=bool)
    head = (outputs.values[:, :k] == np.array(prefix, dtype=np.int64)).all(axis=1)
    return head & (outputs.lengths >= k)


_SINGLETON_CAP = 40
_COORD_CAP = 8
_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


def _quantile_thresholds(values):
    arr = np.sort(np.asarray(values))
    return sorted({int(arr[min(len(arr) - 1, int(q * len(arr)))]) for q in _QUANTILES})


def _most_common(outputs: Outputs, cap: int) -> list:
    """The ``cap`` most frequent output values, ties in order of first
    appearance (as ``Counter.most_common`` orders them)."""
    if outputs.lengths is None:
        keys = outputs.values
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    else:
        keys = np.column_stack([outputs.lengths, outputs.values])
        _, first, counts = np.unique(keys, axis=0, return_index=True,
                                     return_counts=True)
    order = np.lexsort((first, -counts))[:cap]
    return [outputs[int(first[i])] for i in order]


def gen_events(outputs: Outputs) -> list:
    """Candidate output events derived from observed outputs.

    Integer outputs get singleton events over the observed support (most
    frequent first, capped) plus half-lines at observed quantiles; boolean
    list outputs get all prefix patterns up to length 3; integer list
    outputs get per-coordinate threshold events at marginal quantiles.
    """
    if not len(outputs):
        raise ValueError("need at least one sample output to derive events")
    events: list = []

    if outputs.lengths is not None and outputs.boolean:
        for k in (1, 2, 3):
            for bits in range(1 << k):
                pat = tuple(bool((bits >> j) & 1) for j in range(k))
                events.append(PrefixEvent(pat))
    elif outputs.lengths is not None:
        for i in range(min(int(outputs.lengths.max()), _COORD_CAP)):
            marginal = outputs.values[outputs.lengths > i, i]
            for t in _quantile_thresholds(marginal):
                events.append(CoordEvent(i, t, "ge"))
                events.append(CoordEvent(i, t, "le"))
    for v in _most_common(outputs, _SINGLETON_CAP):
        events.append(ValueEvent(frozenset([v])))
    if outputs.lengths is None:
        for t in _quantile_thresholds(outputs.values):
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


class FisherMemo:
    """The thinning rows and Fisher tail values computed so far in one
    operation.

    The tester calls of one synthesis run see the same counts and the same
    thinned tables again and again; :func:`hypothesis_test` given a memo
    computes each only once.  Thinning rows are kept per epsilon and count,
    tail values per n and table, each store as sorted int64 keys and their
    values.  A value comes from the same scipy call on the same arguments
    as a fresh computation, so sharing a memo changes no p-value.  Keep one
    memo per operation (one ``synth`` call, one command), not per process.
    """

    def __init__(self):
        self._rows = {}    # eps -> (counts, (counts, 20) thinned counts)
        self._tails = {}   # n -> (tables k * (2n + 1) + K, P[X >= k])

    def thinned(self, counts, test_epsilon) -> np.ndarray:
        """The 20 thinned counts of each sorted distinct count."""
        def thin(c):
            return binom.ppf(_THINNING_U, c[:, None],
                             math.exp(-float(test_epsilon))).astype(np.int64)
        return _recall(self._rows, float(test_epsilon), counts, thin)

    def tails(self, n: int, tables) -> np.ndarray:
        """P[X >= k] of each sorted distinct table ``k * (2n + 1) + K``, X
        hypergeometric with population 2n, K successes and n draws."""
        def fisher(t):
            k, K = np.divmod(t, 2 * n + 1)
            return hypergeom.sf(k - 1, 2 * n, K, n)
        return _recall(self._tails, n, tables, fisher)


def _recall(store: dict, key, wanted, compute) -> np.ndarray:
    """The values of the sorted distinct int64 ``wanted`` in ``store[key]``,
    a pair (sorted keys, values); ``compute`` fills in the missing ones."""
    keys, values = store.get(key, (None, None))
    if keys is None:
        store[key] = wanted, compute(wanted)
        return store[key][1]
    at = np.searchsorted(keys, wanted)
    known = at < len(keys)
    known[known] = keys[at[known]] == wanted[known]
    if not known.all():
        new = wanted[~known]
        keys = np.insert(keys, at[~known], new)
        values = np.insert(values, at[~known], compute(new), axis=0)
        store[key] = keys, values
        at = np.searchsorted(keys, wanted)
    return values[at]


def hypothesis_test(c1, c2, n: int, test_epsilon, *, memo=None):
    """p-value for the null rho1 <= e^eps * rho2 given counts from n trials
    per side.

    The c1 side is thinned by e^(-eps) via the Binomial quantile over 20
    shared uniforms; each thinned table gets a one-sided Fisher exact
    (hypergeometric tail) test and the mean p is returned.  ``c1`` and
    ``c2`` may be same-shape arrays of counts, one cell each, for an array
    of p-values: each distinct count is thinned once and each distinct
    thinned table tested once, and every cell's p-value equals the one its
    own call would return.  ``memo``, a :class:`FisherMemo`, carries the
    thinnings and tables over to later calls; without one the call starts
    from a fresh memo.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    c1 = np.asarray(c1, dtype=np.int64)
    c2 = np.asarray(c2, dtype=np.int64)
    if c1.shape != c2.shape:
        raise ValueError("count arrays must share one shape")
    if ((c1 < 0) | (c1 > n) | (c2 < 0) | (c2 > n)).any():
        raise ValueError("counts must lie in [0, n]")
    if memo is None:
        memo = FisherMemo()
    counts, which = np.unique(c1.ravel(), return_inverse=True)
    thin = memo.thinned(counts, test_epsilon)[which]
    # a table is keyed by k * span + K: the thinned count k and the
    # successes K = k + c2
    span = 2 * n + 1
    tables, where = np.unique(thin * span + thin + c2.reshape(-1, 1),
                              return_inverse=True)
    ps = memo.tails(n, tables)[where].reshape(thin.shape)
    p = ps.mean(axis=-1).reshape(c1.shape)
    return float(p) if p.ndim == 0 else p


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


def _draw_matrices(sketch, scales, caps, n_runs: int, rng) -> list:
    """Each hole's (n_runs, cap) noise from ``rng``, holes in order; a hole
    without noise draws nothing and gets (n_runs, 0)."""
    mats = []
    for h, hole in enumerate(sketch.holes):
        if scales[h] is None or caps[h] == 0:
            mats.append(np.zeros((n_runs, 0), dtype=np.int64))
        else:
            d = make_dist(hole.family, float(scales[h]))
            mats.append(d.sample_array(rng, (n_runs, caps[h])))
    return mats


_EVENT_CAP = 64   # events per input pair kept after the pilot


def _count_floor(n_side: int) -> int:
    return max(20, math.ceil(0.003 * n_side))


def test_mechanism(sketch: MechanismSketch, binding: dict, noise_vector, *,
                   trials: int, seed, decision_only: bool = False,
                   memo=None) -> list:
    """Every counterexample cell over the adjacent pairs and derived events,
    sorted by p-value (the strongest first).

    ``binding`` holds ``eps``, the tested epsilon, ``qlen``, the
    answer-vector length, and every argument of the sketch; the sketch
    receives only its own arguments.  ``noise_vector`` holds one scale per
    hole (``None`` = the hole's noise term is absent).  The list is empty
    when no event passes the count floor.  With ``decision_only`` the list
    holds the decision cells alone, exactly as the full list has them.
    ``memo`` carries Fisher work over from earlier calls of the operation.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful test")
    if len(noise_vector) != sketch.n_holes:
        raise ValueError("noise vector length must match the hole count")
    seed_words = [seed] if isinstance(seed, int) else list(seed)
    qlen = binding["qlen"]
    target_eps = float(binding["eps"])
    args = {a: binding[a] for a in sketch.args}
    if memo is None:
        memo = FisherMemo()

    runner = compile_sketch(sketch, [s is None for s in noise_vector])
    pairs = gen_input_pairs(sketch.adjacency, qlen)
    n_half = trials // 2
    floor = _count_floor(n_half)
    caps = count_hole_draws(sketch, qlen)

    # per pair: its events kept after the pilot, their pilot counts of
    # shape (2 sides, events) and the final outputs of both sides
    sampled = []
    for pair_idx, (d1, d2) in enumerate(pairs):
        pilot, final = [], []
        for s, answers in enumerate((d1, d2)):
            # pilot (phase 0) and final (phase 1) runs share one kernel call
            phases = [_draw_matrices(
                sketch, noise_vector, caps, n_half,
                np.random.default_rng(seed_words + [pair_idx, s, phase]))
                for phase in (0, 1)]
            outputs, _ = runner(args, answers,
                                [np.concatenate(m) for m in zip(*phases)])
            pilot.append(outputs[:n_half])
            final.append(outputs[n_half:])
        events = gen_events(Outputs.concat(pilot))
        pcounts = np.array([[e.hits(out).sum() for e in events]
                            for out in pilot], dtype=np.int64)
        keep = np.argsort(-np.abs(pcounts[0] - pcounts[1]),
                          kind="stable")[:_EVENT_CAP]
        sampled.append((d1, d2, [events[i] for i in keep], pcounts[:, keep],
                        final))

    # the pilot cells of both orientations pick one decision event per
    # (pair, orientation)
    pilots = [pc for _, _, _, pc, _ in sampled]
    p = hypothesis_test(
        np.concatenate([pc[o] for pc in pilots for o in (0, 1)]),
        np.concatenate([pc[1 - o] for pc in pilots for o in (0, 1)]),
        n_half, target_eps, memo=memo)
    decisions = []
    at = 0
    for pc in pilots:
        width = pc.shape[1]
        decisions.append([int(np.argmin(p[at + o * width:at + (o + 1) * width]))
                          for o in (0, 1)])
        at += 2 * width

    # the final cells that pass the count floor, larger count first
    cells = []
    for pair_no, ((_, _, survivors, _, final), picks) in enumerate(
            zip(sampled, decisions)):
        ks = sorted(set(picks)) if decision_only else range(len(survivors))
        for k in ks:
            c1, c2 = (int(survivors[k].hits(out).sum()) for out in final)
            if max(c1, c2) < floor:
                continue
            for orient, (ca, cb) in enumerate(((c1, c2), (c2, c1))):
                if ca >= cb and (picks[orient] == k or not decision_only):
                    cells.append((pair_no, k, orient, ca, cb))
    p = hypothesis_test(np.array([c[3] for c in cells], dtype=np.int64),
                        np.array([c[4] for c in cells], dtype=np.int64),
                        n_half, target_eps, memo=memo)

    candidates = []
    for (pair_no, k, orient, ca, cb), p_value in zip(cells, p.tolist()):
        d1, d2, survivors, _, _ = sampled[pair_no]
        candidates.append(Counterexample(
            d1=d1 if orient == 0 else d2, d2=d2 if orient == 0 else d1,
            event=survivors[k], p_value=p_value, test_epsilon=target_eps,
            rho1=ca / n_half, rho2=cb / n_half, c1=ca, c2=cb, n_side=n_half,
            decision=decisions[pair_no][orient] == k))

    candidates.sort(key=lambda cx: cx.p_value)
    return candidates


def decision_p(candidates) -> float:
    """Multiplicity-safe p-value: the minimum over decision cells only."""
    return min((cx.p_value for cx in candidates if cx.decision), default=1.0)
