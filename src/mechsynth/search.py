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
  drawn once from a fixed proposal scale, mechanism outputs are memoized per
  input side, and each candidate vector is scored by importance-reweighting
  those runs.  Per run the log-weight for hole h is N*alpha + S*beta, where N
  counts consumed draws, S sums their magnitudes, and (alpha, beta) depend
  only on candidate vs proposal scale — so scoring a population is a single
  matrix product.

Both phases run the sketch under one argument binding (``eps``, ``qlen`` and
the sketch's own arguments, as ``synth.fix_params`` builds it).  Candidates
may switch off a hole entirely (scales below the snap threshold become "no
noise"); runs are re-simulated once per distinct off-mask since dropping a
noise term changes control flow, each with the kernel that
:func:`~mechsynth.lang.compile_sketch` keeps for that off-mask.

A bank may instead draw from a *mixture* of proposal scales (one component
picked per run and hole).  The mixture log-density is itself a function of
the cached (N, S) statistics, so reweighting stays a matrix product; wide
mixtures keep the weights bounded when candidate scales sit far from any
single proposal, which matters when one bank scores candidates whose scales
spread over an order of magnitude.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp, ndtr

from .dist import log_weight_coeffs, make_dist
from .lang import MechanismSketch, compile_sketch, count_hole_draws
from .tester import test_mechanism

__all__ = [
    "Example", "PresampleBank", "NoiseRegion",
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
                    trials: int = 20000, seed: int = 0, zone,
                    memo=None) -> list:
    """Line-search multiples of the :func:`directions` through the tester;
    keep zone hits plus every decision cell that the tester flagged as a
    violation.

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
    gets ``memo``, the operation's :class:`~mechsynth.tester.FisherMemo`.
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

    examples = sweep(zone[0], zone[1], trials)
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


class PresampleBank:
    """m noise traces drawn once from the proposal; runs memoized per
    (input side, off-mask); per-run draw statistics cached for reweighting.

    With ``mixture`` set (a tuple of scales), each run draws every hole's
    trace from one uniformly chosen component instead of the single proposal;
    the proposal scale then only serves as the reference density that both
    the candidate and the mixture are expressed against."""

    def __init__(self, sketch: MechanismSketch, binding: dict, m: int = 50000,
                 *, proposal_scale: float, seed: int = 0, mixture=None):
        self.sketch = sketch
        self.args = {a: binding[a] for a in sketch.args}
        self.m = m
        self.proposal_scale = float(proposal_scale)
        self.seed = seed
        self.mixture = tuple(float(s) for s in mixture) if mixture else None
        self.caps = count_hole_draws(sketch, binding["qlen"])
        n = sketch.n_holes
        comp = None
        if self.mixture is not None:
            comp = np.random.default_rng([seed, 999]).integers(
                0, len(self.mixture), size=(m, n))
        self._draws = []        # per hole: (m, cap) int64 draws
        self._cum_abs = []      # per hole: (m, cap+1) int64 prefix sums of |v|
        self._mix_coeffs = []   # per hole: (2, K) reference-relative coeffs
        for h, hole in enumerate(sketch.holes):
            cap = self.caps[h]
            if cap == 0:
                self._draws.append(np.zeros((m, 0), dtype=np.int64))
                self._cum_abs.append(np.zeros((m, 1), dtype=np.int64))
                self._mix_coeffs.append(None)
                continue
            if self.mixture is None:
                d = make_dist(hole.family, self.proposal_scale)
                arr = d.sample_array(np.random.default_rng([seed, 1000 + h]),
                                     (m, cap))
                self._mix_coeffs.append(None)
            else:
                arr = np.empty((m, cap), dtype=np.int64)
                for k, scale in enumerate(self.mixture):
                    rows = np.flatnonzero(comp[:, h] == k)
                    if rows.size:
                        dk = make_dist(hole.family, scale)
                        arr[rows] = dk.sample_array(
                            np.random.default_rng([seed, 1000 + h, k]),
                            (rows.size, cap))
                ab = np.array([log_weight_coeffs(hole.family, scale,
                                                 self.proposal_scale)
                               for scale in self.mixture])
                self._mix_coeffs.append(ab.T.copy())
            self._draws.append(arr)
            cum = np.zeros((m, cap + 1), dtype=np.int64)
            np.cumsum(np.abs(arr), axis=1, out=cum[:, 1:])
            self._cum_abs.append(cum)
        self._runs = {}         # (answers, mask) -> (Outputs, stats m x 2n)
        self._stats_fp = {}     # (answers, mask) -> digest of stats
        self._mixrel = {}       # (answers, mask) -> (m,) mixture log-density
        self._indicators = {}   # (answers, mask, event) -> float32 (m,)
        self._ind_mats = {}     # (answers, mask, events key) -> float32 (E, m)

    def runs_for(self, answers: tuple, mask: tuple):
        """The :class:`Outputs` of the m presampled runs on this input side
        under this off-mask (one kernel call), plus the (m, 2n) matrix of
        per-hole draw statistics [N_1..N_n, S_1..S_n]."""
        key = (tuple(answers), mask)
        hit = self._runs.get(key)
        if hit is not None:
            return hit
        n = self.sketch.n_holes
        kernel = compile_sketch(self.sketch, mask)
        outputs, counts = kernel(self.args, answers, self._draws)
        stats = np.empty((self.m, 2 * n), dtype=np.float64)
        stats[:, :n] = counts
        rows = np.arange(self.m)
        for h in range(n):
            stats[:, n + h] = self._cum_abs[h][rows, counts[:, h]]
        self._runs[key] = (outputs, stats)
        # sides with identical consumption patterns share importance weights
        self._stats_fp[key] = hashlib.blake2b(
            stats.tobytes(), digest_size=16).digest()
        if self.mixture is not None:
            logk = math.log(len(self.mixture))
            mixrel = np.zeros(self.m)
            for h in range(n):
                if self._mix_coeffs[h] is None:
                    continue
                per_comp = stats[:, [h, n + h]] @ self._mix_coeffs[h]
                mixrel += logsumexp(per_comp, axis=1) - logk
            self._mixrel[key] = mixrel
        return outputs, stats

    def indicator(self, answers: tuple, mask: tuple, event) -> np.ndarray:
        key = (tuple(answers), mask, event)
        hit = self._indicators.get(key)
        if hit is None:
            outputs, _ = self.runs_for(answers, mask)
            hit = event.hits(outputs).astype(np.float32)
            self._indicators[key] = hit
        return hit

    def weight_coeffs(self, candidates) -> np.ndarray:
        """(2n, B) coefficient matrix: column b scores candidate b's draws."""
        n = self.sketch.n_holes
        coeffs = np.zeros((2 * n, len(candidates)))
        for b, cand in enumerate(candidates):
            for h, hole in enumerate(self.sketch.holes):
                if cand[h] is None:
                    continue
                alpha, beta = log_weight_coeffs(
                    hole.family, float(cand[h]), self.proposal_scale)
                coeffs[h, b] = alpha
                coeffs[n + h, b] = beta
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
        pair of (m, B) float32 importance weights and their (B,) column
        sums.  Sides whose runs consumed identical draws share one pair
        object, computed once."""
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
            key = (side, mask)
            _, stats = self.runs_for(side, mask)
            fp = self._stats_fp[key]
            if fp not in by_fp:
                logw = stats @ coeffs
                if key in self._mixrel:
                    logw -= self._mixrel[key][:, None]
                logw -= logw.max(axis=0, keepdims=True)
                w = np.exp(logw, out=logw).astype(np.float32)
                by_fp[fp] = (w, w.sum(axis=0, dtype=np.float64))
            w, den = weights[side] = by_fp[fp]
            ind = self._ind_mats.get(key + (events,))
            if ind is None:
                ind = self._ind_mats[key + (events,)] = np.stack(
                    [self.indicator(side, mask, e) for e in events])
            for event, row in zip(events, np.clip((ind @ w) / den, lo, hi)):
                est[(side, event)] = row
        return est, weights


_CHUNK = 256


def example_losses(bank: PresampleBank, examples, candidates,
                   floor: float = 0.0) -> np.ndarray:
    """Two-sided loss estimate per (candidate, example), shape (B, n_ex).

    Candidates are grouped by off-mask and chunked; within a group each
    (input side, event) estimate is computed once and shared across the
    examples that reference it, and sides whose runs consumed identical
    draw patterns share one importance-weight computation.

    With ``floor`` > 0 an example only contributes when the candidate's own
    estimate of the event reaches the floor on at least one side; below it
    the ratio is dominated by Monte-Carlo noise and the loss is reported as
    the neutral 1.0 — the estimator-side analogue of the tester's minimum
    count rule.  :func:`example_losses_with_se` adds standard errors."""
    return _example_losses(bank, examples, candidates, floor, None)[0]


def example_losses_with_se(bank: PresampleBank, examples, candidates,
                           z: float, floor: float = 0.0) -> tuple:
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
    the clamp.  Examples neutralized by ``floor`` or dry on both sides have
    loss 1 and ``se`` 0."""
    return _example_losses(bank, examples, candidates, floor, float(z))


def _example_losses(bank, examples, candidates, floor, z):
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
            loss_block = np.maximum(r1 / r2, r2 / r1)
            resolved = np.maximum(r1, r2) >= floor
            if floor > 0.0:
                loss_block = np.where(resolved, loss_block, 1.0)
            cells = np.ix_(chunk, range(len(examples)))
            losses[cells] = loss_block.T
            if z is not None:
                se_block = _log_loss_se(bank, examples, mask, weights,
                                        r1, r2, z)
                se[cells] = np.where(resolved, se_block, 0.0).T
    return losses, se


def _influence_dot(fa, fb, q, ra, rb) -> np.ndarray:
    """sum_i q_i (fa_i - ra)(fb_i - rb) / (ra rb) per (row, candidate), with
    q the product of the two sides' unnormalized weights."""
    k = len(fa)
    s = (np.vstack([fa * fb, fa, fb]) @ q).astype(np.float64)
    total = q.sum(axis=0, dtype=np.float64)
    return (s[:k] - rb * s[k:2 * k] - ra * s[2 * k:]
            + ra * rb * total) / (ra * rb)


def _log_loss_se(bank, examples, mask, weights, r1, r2, z):
    """Standard error of log(r1 / r2) per (example, candidate); see
    :func:`example_losses_with_se`.  ``weights`` is the per-side weight
    map of :meth:`PresampleBank.estimate`.

    Draw i moves log r_k by a_ki = w_ki (f_ki - r_k) / (den_k r_k), so the
    variance of the difference is sum_i (a_1i - a_2i)^2 = v11 + v22 - 2 v12,
    each term an :func:`_influence_dot`."""
    v11, v22, v12, ess1, ess2 = (np.zeros_like(r1) for _ in range(5))
    groups = {}
    for j, ex in enumerate(examples):
        w1, w2 = weights[ex.d1], weights[ex.d2]
        groups.setdefault((id(w1), id(w2)), (w1, w2, []))[2].append(j)
    for (w1, den1), (w2, den2), js in groups.values():
        f1 = np.stack([bank.indicator(examples[j].d1, mask, examples[j].event)
                       for j in js])
        f2 = np.stack([bank.indicator(examples[j].d2, mask, examples[j].event)
                       for j in js])
        a, b = r1[js], r2[js]
        q = w1 * w2
        v12[js] = _influence_dot(f1, f2, q, a, b) / (den1 * den2)
        for f, r, w, den, v, ess in ((f1, a, w1, den1, v11, ess1),
                                     (f2, b, w2, den2, v22, ess2)):
            if w1 is not w2:
                q = w * w
            v[js] = _influence_dot(f, f, q, r, r) / den ** 2
            ess[js] = den ** 2 / q.sum(axis=0, dtype=np.float64)
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
                    lam: float = 1.0, floor: float = 0.0) -> np.ndarray:
    """Objective for many candidates: |worst loss - e^eps| + lam * ||c||_0.

    ``floor`` is forwarded to :func:`example_losses` so sub-resolution
    events score neutrally."""
    if not examples:
        raise ValueError("need at least one example to score candidates")
    candidates = [tuple(c) for c in candidates]
    worst = example_losses(bank, examples, candidates, floor=floor).max(axis=1)
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


def get_noise_region(bank: PresampleBank, examples, n_holes: int, target_eps,
                     lam: float = 1.0, population: int = 50, steps: int = 500,
                     seed: int = 0, F: float = 0.7, CR: float = 0.9,
                     floor: float = 0.0,
                     history: Optional[list] = None) -> NoiseRegion:
    """rand/1/bin differential evolution over the [0, 16]^n box.

    Each generation mutates every member (x_r1 + F*(x_r2 - x_r3), clipped),
    binomially crosses with rate CR, and keeps the trial on an objective tie
    or improvement.  Coordinates below the snap threshold execute as "no
    noise" and count zero toward the L0 term.  Alongside the population the
    search records a champion (best vector evaluated) per no-noise mask.
    ``history``, when supplied, collects the best objective after each
    generation.
    """
    if population < 4:
        raise ValueError("rand/1/bin needs a population of at least 4")
    if steps < 1:
        raise ValueError("steps must be positive")
    rng = np.random.default_rng([seed, 2])
    champs = {}

    def score(rows):
        snapped = [snap_vector(r) for r in rows]
        out = batch_objective(bank, examples, snapped, target_eps, lam,
                              floor=floor)
        for vec, o in zip(snapped, out):
            mask = _as_mask(vec)
            if mask not in champs or o < champs[mask][1]:
                champs[mask] = (vec, float(o))
        return out

    x = rng.uniform(0.0, BOX_MAX, (population, n_holes))
    obj = score(x)
    if history is not None:
        history.append(float(obj.min()))
    idx = np.arange(population)
    for _ in range(steps):
        donors = np.empty((population, 3), dtype=np.int64)
        for i in range(population):
            picks = rng.choice(population - 1, size=3, replace=False)
            picks += picks >= i
            donors[i] = picks
        r1, r2, r3 = donors[:, 0], donors[:, 1], donors[:, 2]
        mutant = np.clip(x[r1] + F * (x[r2] - x[r3]), 0.0, BOX_MAX)
        cross = rng.random((population, n_holes)) < CR
        forced = rng.integers(0, n_holes, population)
        cross[idx, forced] = True
        trial = np.where(cross, mutant, x)
        tobj = score(trial)
        better = tobj <= obj
        x[better] = trial[better]
        obj[better] = tobj[better]
        if history is not None:
            history.append(float(obj.min()))
    order = np.argsort(obj, kind="stable")
    entries = tuple((snap_vector(x[i]), float(obj[i])) for i in order)
    champions = tuple(sorted(champs.values(), key=lambda e: e[1]))
    return NoiseRegion(entries=entries, target_eps=float(target_eps),
                       lam=lam, seed=seed, population=population, steps=steps,
                       champions=champions)
