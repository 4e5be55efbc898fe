"""Example discovery and noise-region search over concrete noise vectors.

Two phases feed the synthesizer:

* ``select_examples`` line-searches scale multiples of a small direction set
  (all unit vectors plus all-ones), runs the statistical tester on each
  concretization, and keeps counterexamples whose p-value lands in the "zone
  of confusion" — neither clear violations nor clearly safe, hence the
  informative boundary cases.  The tester samples each unordered input pair
  once; an example is one orientation (d1, d2) of such a pair.

* ``get_noise_region`` minimizes an L0-regularized privacy-loss objective
  over concrete noise vectors with differential evolution (rand/1/bin).  All
  probability estimates ride on one shared :class:`PresampleBank`: noise is
  drawn once, mechanism outputs are memoized per input side, and each
  candidate vector is scored by importance-reweighting those runs.  Per run
  the log-weight for hole h is N*alpha + S*beta, where N counts consumed
  draws, S sums their magnitudes, and (alpha, beta) depend only on the
  candidate and reference scales.  Runs with equal (N, S) statistics have
  equal weights, so the bank groups them into distinct rows: scoring a
  population is one matrix product over those rows, and each event's
  estimate is its hit count per row against the row weights.

Both phases run the sketch under one argument binding (``eps``, ``qlen`` and
the sketch's own arguments, as ``synth.fix_params`` builds it).  Candidates
may switch off a hole entirely (scales below the snap threshold become "no
noise"); runs are re-simulated once per distinct off-mask since dropping a
noise term changes control flow, each with the kernel that
:func:`~mechsynth.lang.compile_sketch` keeps for that off-mask.

Every bank draws from a mixture of proposal scales, one component picked per
run and hole; the optimizer's single proposal is a one-component mixture.
Weights are expressed against the first component.  The mixture's
log-density is itself a function of the (N, S) statistics, so it is cached
as one more column of the rows with coefficient -1 and reweighting stays one
matrix product.  Wide mixtures keep the weights bounded when candidate
scales sit far from any single proposal, which matters when one bank scores
candidates whose scales spread over an order of magnitude.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp, ndtr

from .config import EVENT_FLOOR, ZONE
from .dist import log_weight_coeffs, make_dist
from .lang import MechanismSketch, compile_sketch, count_hole_draws
from .tester import event_hits, test_mechanism

__all__ = [
    "Example", "PresampleBank", "StatRows", "NoiseRegion",
    "directions", "select_examples", "batch_objective", "example_losses",
    "example_losses_with_se", "get_noise_region",
    "SNAP_THRESHOLD", "BOX_MAX",
]

SNAP_THRESHOLD = 0.25
BOX_MAX = 16.0


@dataclass(frozen=True)
class Example:
    """A challenging counterexample with its discovery provenance."""

    d1: tuple
    d2: tuple
    event: object
    direction: tuple
    scale: float
    p_value: float


def directions(n_holes: int) -> list:
    """All-ones plus the unit vectors (deduplicated for n = 1)."""
    dirs = [(1,) * n_holes]
    for i in range(n_holes):
        u = tuple(1 if j == i else 0 for j in range(n_holes))
        if u not in dirs:
            dirs.append(u)
    return dirs


def select_examples(sketch: MechanismSketch, binding: dict, *, scale_grid,
                    trials: int, seed: int, memo=None) -> list:
    """Line-search multiples of the :func:`directions` through the tester;
    keep hits in the zone of confusion :data:`~mechsynth.config.ZONE` plus
    every decision cell that the tester flagged as a violation.

    ``binding`` is the fixed binding: ``eps``, ``qlen`` and the sketch's
    arguments.  Every distinct zone hit is kept: the set needs both the
    scale-sensitive tail cells (which steer the optimizer toward the right
    magnitude) and the weakly-discriminating mode/half-line cells (which
    blow up when a hole's noise is removed and so keep the L0 reward
    honest).  Decision cells below the zone are kept as well — an
    under-provisioned sweep vector (too little noise, or a hole swept at
    no-noise) produces its strongest separations at p near zero, and those
    cells are exactly the anchors that stop the optimizer from drifting
    into a non-private pattern.  When nothing qualifies, the zone widens to
    [0.01, 0.99] and the trial count doubles, once.  Every tester call
    gets ``memo``, the operation's :class:`~mechsynth.tester.FisherMemo`,
    and the zone as its ``band``: only the cells this reads get exact
    p-values.
    """
    if not scale_grid:
        raise ValueError("scale grid must be nonempty")

    def sweep(zone_lo, zone_hi, n_trials):
        found = {}
        for direction in directions(sketch.n_holes):
            for scale in scale_grid:
                vec = [scale * u if u else None for u in direction]
                for cx in test_mechanism(sketch, binding, vec,
                                         trials=n_trials, seed=seed,
                                         band=(zone_lo, zone_hi),
                                         memo=memo):
                    anchor = cx.decision and cx.p_value < zone_lo
                    if not (zone_lo <= cx.p_value <= zone_hi or anchor):
                        continue
                    key = (cx.d1, cx.d2, cx.event)
                    if key not in found:
                        found[key] = Example(
                            d1=cx.d1, d2=cx.d2, event=cx.event,
                            direction=tuple(direction), scale=scale,
                            p_value=cx.p_value)
        return list(found.values())

    examples = sweep(ZONE[0], ZONE[1], trials)
    if not examples:
        examples = sweep(0.01, 0.99, 2 * trials)
    return examples


# ---------------------------------------------------------------------------
# Shared presamples + importance-sampling estimator
# ---------------------------------------------------------------------------

def _as_mask(candidate) -> tuple:
    return tuple(c is None for c in candidate)


def snap_vector(raw) -> tuple:
    """Map a raw box point to a noise vector: tiny scales mean "no noise"."""
    return tuple(None if x < SNAP_THRESHOLD else float(x) for x in raw)


class StatRows(NamedTuple):
    """The distinct draw-statistics rows of one input side's runs.

    ``rows`` is (u, 2n + 1): per-hole draw counts N_1..N_n, magnitude sums
    S_1..S_n, and the mixture's log-density M against the first component,
    in lexicographic order of (N, S).  Run i has the statistics
    ``rows[index[i]]``; ``mult`` counts the runs of each row.  ``fp`` is a
    digest of the runs' draw counts, which fix ``rows`` and ``index``:
    sides with equal digests consumed identical draws, so they share one
    :class:`StatRows`, its importance weights and joint groups."""

    rows: np.ndarray
    index: np.ndarray
    mult: np.ndarray
    fp: bytes


class PresampleBank:
    """m noise traces drawn once from a mixture of proposal ``scales``; runs
    memoized per (input side, off-mask), grouped by their distinct
    draw-statistics rows for reweighting.

    Each run draws every hole's trace from one uniformly chosen component,
    so a single scale is a one-component mixture that draws from that scale
    alone.  Importance weights are expressed against the first component:
    the candidate's log-density relative to it, minus the mixture's.  A
    run's weight depends only on its statistics row, so the bank weighs
    each distinct row once and counts runs and event hits per row;
    ``runs_grouped`` and ``stat_rows`` sum m and the row count over every
    side the bank has run.  The bank keeps three caches: outputs and
    statistics rows per side (``_runs``), event hits per side and event
    set (``_counts``), and statistics rows per pattern of draw counts
    (``_groups``, keyed by a digest of the kernel's (m, n) count matrix),
    so sides that consumed identical draws share one :class:`StatRows`.
    The joint groups of two sides are built where the standard error
    reads them (:func:`_log_loss_se`).

    ``draws`` holds one read-only (m, cap) int64 matrix per hole: row i is
    the noise run i consumes, in order, on every side and off-mask."""

    def __init__(self, sketch: MechanismSketch, binding: dict, *, m: int,
                 scales, seed: int):
        self.sketch = sketch
        self.args = {a: binding[a] for a in sketch.args}
        self.m = m
        self.scales = tuple(float(s) for s in scales)
        self.caps = count_hole_draws(sketch, binding["qlen"])
        comp = np.random.default_rng([seed, 999]).integers(
            0, len(self.scales), size=(m, sketch.n_holes))
        draws = []
        self._cum_abs = []      # per hole: (m, cap+1) int64 prefix sums of |v|
        self._mix_coeffs = []   # per hole: (2, K) coeffs against scales[0]
        for h, hole in enumerate(sketch.holes):
            cap = self.caps[h]
            arr = np.empty((m, cap), dtype=np.int64)
            for k, scale in enumerate(self.scales):
                rows = np.flatnonzero(comp[:, h] == k)
                arr[rows] = make_dist(hole.family, scale).sample_array(
                    np.random.default_rng([seed, 1000 + h, k]),
                    (rows.size, cap))
            ab = np.array([log_weight_coeffs(hole.family, scale,
                                             self.scales[0])
                           for scale in self.scales])
            self._mix_coeffs.append(ab.T.copy())
            arr.flags.writeable = False
            draws.append(arr)
            cum = np.zeros((m, cap + 1), dtype=np.int64)
            np.cumsum(np.abs(arr), axis=1, out=cum[:, 1:])
            self._cum_abs.append(cum)
        self.draws = tuple(draws)
        self.runs_grouped = 0
        self.stat_rows = 0
        self._runs = {}         # (answers, mask) -> (Outputs, StatRows)
        self._counts = {}       # (answers, mask, events) -> (E, u) hits
        self._groups = {}       # digest of (m, n) draw counts -> StatRows

    def runs_for(self, answers: tuple, mask: tuple):
        """The :class:`Outputs` of the m presampled runs on this input side
        under this off-mask (one kernel call), plus their :class:`StatRows`.

        The statistics rows are a function of the runs' draw counts alone:
        S reads the bank's prefix sums at the counts, M the bank's mixture
        coefficients, and a switched-off hole consumes no draw.  Sides whose
        kernel calls consumed identical counts therefore share one
        :class:`StatRows` object, cached under its ``fp``, a digest of the
        (m, n) count matrix, and only a new count pattern is grouped
        (:meth:`_group`)."""
        key = (tuple(answers), mask)
        hit = self._runs.get(key)
        if hit is not None:
            return hit
        kernel = compile_sketch(self.sketch, mask)
        outputs, counts = kernel(self.args, answers, self.draws)
        fp = hashlib.blake2b(counts.tobytes(), digest_size=16).digest()
        groups = self._groups.get(fp)
        if groups is None:
            groups = self._groups[fp] = StatRows(*self._group(counts), fp)
        self._runs[key] = (outputs, groups)
        self.runs_grouped += self.m
        self.stat_rows += len(groups.mult)
        return outputs, groups

    def _group(self, counts) -> tuple:
        """``rows``, ``index`` and ``mult`` of the :class:`StatRows` of runs
        that consumed ``counts`` draws.

        Runs are grouped by one ``lexsort`` over the integer (N, S) columns;
        the mixture column M, a function of (N, S), is computed on the
        distinct rows only."""
        n = self.sketch.n_holes
        ns = np.empty((self.m, 2 * n), dtype=np.int64)
        ns[:, :n] = counts
        runs = np.arange(self.m)
        for h in range(n):
            ns[:, n + h] = self._cum_abs[h][runs, counts[:, h]]
        order = np.lexsort(ns.T[::-1])
        ns = ns[order]
        first = np.empty(self.m, dtype=bool)
        first[:1] = True
        np.any(ns[1:] != ns[:-1], axis=1, out=first[1:])
        index = np.empty(self.m, dtype=np.int64)
        index[order] = np.cumsum(first) - 1
        u = int(first.sum())
        rows = np.empty((u, 2 * n + 1), dtype=np.float64)
        rows[:, :2 * n] = ns[first]
        logk = math.log(len(self.scales))
        mix = np.zeros(u)
        for h in range(n):
            per_comp = rows[:, [h, n + h]] @ self._mix_coeffs[h]
            mix += logsumexp(per_comp, axis=1) - logk
        rows[:, 2 * n] = mix
        return rows, index, np.bincount(index, minlength=u).astype(np.float64)

    def event_counts(self, answers: tuple, mask: tuple, events: tuple):
        """(E, u) hits of each event per statistics row of this side."""
        key = (tuple(answers), mask, events)
        hit = self._counts.get(key)
        if hit is None:
            outputs, groups = self.runs_for(answers, mask)
            u = len(groups.mult)
            hit = self._counts[key] = np.stack([
                np.bincount(groups.index, weights=f, minlength=u)
                for f in event_hits(events, outputs)])
        return hit

    def weight_coeffs(self, candidates) -> np.ndarray:
        """(2n + 1, B) coefficient matrix over the :class:`StatRows`
        columns: column b is candidate b's log-density against the first
        component, minus the mixture's (the last row, all -1).  Rows h and
        n + h hold hole h's :func:`~mechsynth.dist.log_weight_coeffs`
        (alpha, beta) from the first component to the candidate's scale."""
        n = self.sketch.n_holes
        coeffs = np.zeros((2 * n + 1, len(candidates)))
        coeffs[2 * n] = -1.0
        for b, cand in enumerate(candidates):
            for h, hole in enumerate(self.sketch.holes):
                if cand[h] is not None:
                    coeffs[h, b], coeffs[n + h, b] = log_weight_coeffs(
                        hole.family, float(cand[h]), self.scales[0])
        return coeffs

    @property
    def clamp(self):
        lo = 1.0 / (10 * self.m)
        return lo, 1.0 - lo

    def estimate(self, side_events: dict, candidates) -> tuple:
        """Self-normalized importance estimates of event probabilities.

        ``side_events`` maps each input side to the events estimated on it;
        ``candidates`` are noise vectors sharing one off-mask.  Returns
        ``(est, weights)``: ``est[(side, event)]`` is the (B,) row of
        estimates, clamped to :attr:`clamp`, and ``weights[side]`` is the
        pair of (u, B) importance weights, one per statistics row of the
        side's :meth:`runs_for`, and their (B,) sums over all m runs.  An
        estimate is the event's hits per row, weighted, over that sum.
        Sides with equal :attr:`StatRows.fp` share one pair object,
        computed once."""
        candidates = [tuple(c) for c in candidates]
        if any(len(c) != self.sketch.n_holes for c in candidates):
            raise ValueError("candidate length must match the hole count")
        mask = _as_mask(candidates[0])
        if any(_as_mask(c) != mask for c in candidates):
            raise ValueError("candidates must share one off-mask")
        coeffs = self.weight_coeffs(candidates)
        lo, hi = self.clamp
        by_fp, weights, est = {}, {}, {}
        for side, events in side_events.items():
            events = tuple(events)
            _, groups = self.runs_for(side, mask)
            if groups.fp not in by_fp:
                logw = groups.rows @ coeffs
                logw -= logw.max(axis=0, keepdims=True)
                w = np.exp(logw, out=logw)
                by_fp[groups.fp] = (w, groups.mult @ w)
            w, den = weights[side] = by_fp[groups.fp]
            counts = self.event_counts(side, mask, events)
            for event, row in zip(events, np.clip((counts @ w) / den, lo, hi)):
                est[(side, event)] = row
        return est, weights


_CHUNK = 256


def example_losses(bank: PresampleBank, examples, candidates) -> np.ndarray:
    """Two-sided loss estimate per (candidate, example), shape (B, n_ex).

    Candidates are grouped by off-mask and chunked; within a group each
    (input side, event) estimate is computed once and shared across the
    examples that reference it, and sides whose runs consumed identical
    draw patterns share one importance-weight computation.

    An example only contributes when the candidate's own estimate of the
    event reaches ``EVENT_FLOOR`` on at least one side; below it the ratio
    is dominated by Monte-Carlo noise and the loss is reported as the
    neutral 1.0 — the estimator-side analogue of the tester's minimum count
    rule.  :func:`example_losses_with_se` adds standard errors."""
    return _example_losses(bank, examples, candidates, None)[0]


def example_losses_with_se(bank: PresampleBank, examples, candidates,
                           z: float) -> tuple:
    """The losses of :func:`example_losses` plus the delta-method standard
    error of each log-loss, both shape (B, n_ex), from the same pass.

    ``log(loss) - z * se`` is a lower confidence bound on the true log-loss
    at one-sided level Phi(-z).  The error is that of log(r1 / r2) for the
    two self-normalized importance estimates, covariance included, since
    both sides reweight the same draws (Owen, *Monte Carlo theory, methods
    and examples*, ch. 9).  A side that never reaches the event sits at the
    clamp, where the delta method says nothing; its probability is bounded
    instead by -ln(Phi(-z)) / ESS, the zero-count bound at its Kish
    effective sample size, and ``se`` carries that bound's distance from
    the clamp.  Examples below the floor or dry on both sides have loss 1
    and ``se`` 0."""
    return _example_losses(bank, examples, candidates, float(z))


def _example_losses(bank, examples, candidates, z):
    candidates = [tuple(c) for c in candidates]
    by_mask = {}
    for idx, cand in enumerate(candidates):
        by_mask.setdefault(_as_mask(cand), []).append(idx)
    losses = np.zeros((len(candidates), len(examples)))
    se = None if z is None else np.zeros_like(losses)
    side_events = {}
    for ex in examples:
        for side in (ex.d1, ex.d2):
            side_events.setdefault(side, set()).add(ex.event)
    side_events = {side: tuple(sorted(events, key=repr))
                   for side, events in side_events.items()}
    for mask, idxs in by_mask.items():
        for lo in range(0, len(idxs), _CHUNK):
            chunk = idxs[lo:lo + _CHUNK]
            est, weights = bank.estimate(side_events,
                                         [candidates[i] for i in chunk])
            r1 = np.stack([est[(ex.d1, ex.event)] for ex in examples])
            r2 = np.stack([est[(ex.d2, ex.event)] for ex in examples])
            resolved = np.maximum(r1, r2) >= EVENT_FLOOR
            loss_block = np.where(resolved, np.maximum(r1 / r2, r2 / r1), 1.0)
            cells = np.ix_(chunk, range(len(examples)))
            losses[cells] = loss_block.T
            if z is not None:
                se_block = _log_loss_se(bank, examples, mask, weights,
                                        r1, r2, z)
                se[cells] = np.where(resolved, se_block, 0.0).T
    return losses, se


def _influence_dot(cab, ca, cb, mult, q, ra, rb) -> np.ndarray:
    """sum_i q_i (fa_i - ra)(fb_i - rb) / (ra rb) per (row, candidate) over
    runs i with indicators fa, fb, from per-group sums: ``cab``, ``ca`` and
    ``cb`` are (k, G) hits of fa * fb, fa and fb in each group, ``mult``
    the group sizes and ``q`` the (G, B) per-group product of the two
    sides' unnormalized weights."""
    k = len(ca)
    s = np.vstack([cab, ca, cb]) @ q
    return (s[:k] - rb * s[k:2 * k] - ra * s[2 * k:]
            + ra * rb * (mult @ q)) / (ra * rb)


def _log_loss_se(bank, examples, mask, weights, r1, r2, z):
    """Standard error of log(r1 / r2) per (example, candidate); see
    :func:`example_losses_with_se`.  ``weights`` is the per-side weight
    map of :meth:`PresampleBank.estimate`.

    Draw i moves log r_k by a_ki = w_ki (f_ki - r_k) / (den_k r_k), so the
    variance of the difference is sum_i (a_1i - a_2i)^2 = v11 + v22 - 2 v12,
    each term an :func:`_influence_dot` over the joint groups of the two
    sides' statistics rows, within which both weights are constant.  The
    examples whose sides share weights (equal :attr:`StatRows.fp`) form one
    block, whose joint groups are built here once: group g holds the
    ``mult[g]`` runs that share one row on d1 and one on d2, and each
    example's event hits are counted per group."""
    v11, v22, v12, ess1, ess2 = (np.zeros_like(r1) for _ in range(5))
    blocks = {}
    for j, ex in enumerate(examples):
        w1, w2 = weights[ex.d1], weights[ex.d2]
        blocks.setdefault((id(w1), id(w2)), (w1, w2, []))[2].append(j)
    for (w1, den1), (w2, den2), js in blocks.values():
        sides = [(bank.runs_for(examples[j].d1, mask),
                  bank.runs_for(examples[j].d2, mask)) for j in js]
        (_, s1), (_, s2) = sides[0]
        _, first, inverse, mult = np.unique(
            s1.index * len(s2.mult) + s2.index, return_index=True,
            return_inverse=True, return_counts=True)
        mult = mult.astype(np.float64)
        c = []
        for j, ((out1, _), (out2, _)) in zip(js, sides):
            f1, f2 = (event_hits([examples[j].event], out)[0]
                      for out in (out1, out2))
            c.append([np.bincount(inverse, weights=f, minlength=len(mult))
                      for f in (f1 & f2, f1, f2)])
        c12, c1, c2 = np.array(c).transpose(1, 0, 2)
        a, b = r1[js], r2[js]
        p1, p2 = w1[s1.index[first]], w2[s2.index[first]]
        v12[js] = _influence_dot(c12, c1, c2, mult, p1 * p2, a, b) \
            / (den1 * den2)
        for f, r, p, den, v, ess in ((c1, a, p1, den1, v11, ess1),
                                     (c2, b, p2, den2, v22, ess2)):
            q = p * p
            v[js] = _influence_dot(f, f, f, mult, q, r, r) / den ** 2
            ess[js] = den ** 2 / (mult @ q)
    se = np.sqrt(np.maximum(v11 + v22 - 2 * v12, 0.0))
    # a dry side: the wet side's own error plus the width from the clamp up
    # to the dry side's zero-count bound
    clamp_lo = bank.clamp[0]
    dry1, dry2 = r1 <= clamp_lo, r2 <= clamp_lo
    neg_log_alpha = -math.log(ndtr(-z))
    for dry, v_wet, r_dry, ess_dry in ((dry1, v22, r1, ess1),
                                       (dry2, v11, r2, ess2)):
        p_up = np.minimum(neg_log_alpha / ess_dry, 1.0)
        one_sided = np.sqrt(np.maximum(v_wet, 0.0)) \
            + np.maximum(np.log(p_up / r_dry), 0.0) / z
        se = np.where(dry, one_sided, se)
    return np.where(dry1 & dry2, 0.0, se)


def batch_objective(bank: PresampleBank, examples, candidates, target_eps,
                    *, lam: float) -> np.ndarray:
    """Objective for many candidates: |worst loss - e^eps| + lam * ||c||_0,
    the worst loss from :func:`example_losses`."""
    if not examples:
        raise ValueError("need at least one example to score candidates")
    candidates = [tuple(c) for c in candidates]
    worst = example_losses(bank, examples, candidates).max(axis=1)
    l0 = np.array([sum(c is not None for c in cand) for cand in candidates],
                  dtype=np.float64)
    return np.abs(worst - math.exp(float(target_eps))) + lam * l0


# ---------------------------------------------------------------------------
# Differential evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseRegion:
    """Final population (noise vector, objective), sorted best-first.

    ``champions`` holds the best vector evaluated for every no-noise mask
    the search ever visited, sorted best-first.  The final population
    usually collapses into a single basin; when two masks are equally good
    (e.g. either of two holes alone suffices), the champions preserve the
    losing basin so that enumeration can still reach it.
    """

    entries: tuple
    target_eps: float
    lam: float
    seed: int
    population: int
    steps: int
    champions: tuple = ()

    def best(self):
        return self.entries[0]

    def to_json(self) -> dict:
        def vec_json(vec):
            return [None if v is None else float(v) for v in vec]

        return {
            "entries": [
                {"vector": vec_json(vec), "objective": float(obj)}
                for vec, obj in self.entries
            ],
            "champions": [
                {"vector": vec_json(vec), "objective": float(obj)}
                for vec, obj in self.champions
            ],
            "target_eps": self.target_eps,
            "lam": self.lam,
            "seed": self.seed,
            "population": self.population,
            "steps": self.steps,
        }


# rand/1/bin's differential weight and crossover rate
_F = 0.7
_CR = 0.9


def get_noise_region(bank: PresampleBank, examples, target_eps, *,
                     lam: float, population: int, steps: int,
                     seed: int) -> NoiseRegion:
    """rand/1/bin differential evolution over the [0, 16]^n box.

    Each generation mutates every member (x_r1 + _F*(x_r2 - x_r3),
    clipped), binomially crosses with rate _CR, and keeps the trial on an
    objective tie or improvement.  Coordinates below the snap threshold
    execute as "no noise" and count zero toward the L0 term.  Alongside the
    population the search records a champion (best vector evaluated) per
    no-noise mask.
    """
    if population < 4:
        raise ValueError("rand/1/bin needs a population of at least 4")
    if steps < 1:
        raise ValueError("steps must be positive")
    rng = np.random.default_rng([seed, 2])
    n_holes = bank.sketch.n_holes
    champs = {}

    def score(rows):
        snapped = [snap_vector(r) for r in rows]
        out = batch_objective(bank, examples, snapped, target_eps, lam=lam)
        for vec, o in zip(snapped, out):
            mask = _as_mask(vec)
            if mask not in champs or o < champs[mask][1]:
                champs[mask] = (vec, float(o))
        return out

    x = rng.uniform(0.0, BOX_MAX, (population, n_holes))
    obj = score(x)
    idx = np.arange(population)
    for _ in range(steps):
        donors = np.empty((population, 3), dtype=np.int64)
        for i in range(population):
            picks = rng.choice(population - 1, size=3, replace=False)
            picks += picks >= i
            donors[i] = picks
        r1, r2, r3 = donors[:, 0], donors[:, 1], donors[:, 2]
        mutant = np.clip(x[r1] + _F * (x[r2] - x[r3]), 0.0, BOX_MAX)
        cross = rng.random((population, n_holes)) < _CR
        forced = rng.integers(0, n_holes, population)
        cross[idx, forced] = True
        trial = np.where(cross, mutant, x)
        tobj = score(trial)
        better = tobj <= obj
        x[better] = trial[better]
        obj[better] = tobj[better]
    order = np.argsort(obj, kind="stable")
    entries = tuple((snap_vector(x[i]), float(obj[i])) for i in order)
    champions = tuple(sorted(champs.values(), key=lambda e: e[1]))
    return NoiseRegion(entries=entries, target_eps=float(target_eps),
                       lam=lam, seed=seed, population=population, steps=steps,
                       champions=champions)
