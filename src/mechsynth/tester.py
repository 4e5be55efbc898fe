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
2. run n/2 fresh trials per side and count the surviving events on them:
   every event, or the decision events alone when the caller reads
   nothing else;
3. for each counted event and each orientation, thin the larger count by
   e^(-eps) (Binomial quantile coupling, 20 shared uniform draws) and
   apply a one-sided Fisher exact test to the thinned 2x2 table; the
   reported p-value is the mean over the 20 thinnings.  Both steps use
   boost's kernels in ``scipy.special._ufuncs`` directly: the thinned
   count is boost's binomial quantile (``_binom_ppf``), found by stepping
   its ``_binom_cdf`` from a Cornish-Fisher guess (:func:`_binom_quantiles`),
   and the Fisher tail is ``_hypergeom_sf`` with
   ``scipy.stats.hypergeom.sf``'s edge rule (1 below the support, 0 at
   and above its top, see :func:`_fisher_sf`), so every value is the
   ``scipy.stats`` one to the bit without importing ``scipy.stats``.
   Exact tails go only to the cells that can be read: :func:`_may_rank`
   keeps those whose screened bounds (:func:`_screen_bounds`) let them
   rank among the k least p of their segment, k = 1 per (pair,
   orientation) for its decision event, the pilot cell of least p, and
   k = ``limit`` over the final cells for a caller that reads the first
   ``limit``; one that reads a ``band`` of p gets the cells whose bounds
   overlap it.  The decision cells always get exact tails, the rest read
   p = inf, and each pick and p-value is the one exact p-values give.
   The bounds come in two stages: every cell gets one-term bounds, and
   only the cells whose verdict those leave open (lo at most the
   segment's k-th least hi, or an interval across a band edge) get the
   screen's refined ones.  Each one-term interval holds the refined one,
   so the exact-tail set is the one refined bounds on every cell give.
   One kernel pass may run on several threads (:func:`_spread`): an
   exact-tail pass of at least two ``_FISHER_CHUNK`` tables is cut into
   contiguous chunks over the process's CPUs, on threads started and
   joined within that pass.  The kernel is elementwise, so a value does
   not depend on the cut.

Small p-values indicate a likely violation at the tested epsilon.  All
randomness derives from an explicit seed, so repeated calls are bit-stable.
Each input pair runs in one block of lanes: pilot d1, pilot d2, final
d1, final d2, each part n/2 lanes from a seed stream of its own.  Whole
pairs share one lane-kernel call of at most max(2 * trials, 2^13) lanes,
each part on its own answer rows; lanes are independent, so the streams
and outputs are those of one call per pair.  Events are counted by
:func:`event_hits`, one array pass per event class over both sides of a
stage (pilot or final).  A call makes two batched
:func:`hypothesis_test` calls: one over the pilot cells the screen leaves
where a pick needs them, which picks the decision events, then one over
the final cells that step 3 reads.  A :class:`FisherMemo` shared by the
calls of one operation computes each thinning and each exact Fisher table
once.

The minimum p over every (pair, event, orientation) cell is useful for
harvesting challenging examples but is biased by multiplicity: with
thousands of cells, a genuinely private mechanism shows min-p around
0.01-0.05.  Accept/reject decisions therefore read only the *decision*
cells -- one event per (pair, orientation), selected on pilot counts alone
-- via :func:`decision_p`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtri
from scipy.special._ufuncs import _binom_cdf, _hypergeom_sf

from .dist import make_dist
from .lang import MechanismSketch, Outputs, compile_sketch, count_hole_draws

__all__ = [
    "PATTERN_SETS", "ValueEvent", "HalfLineEvent", "PrefixEvent", "CoordEvent",
    "Counterexample", "gen_input_pairs", "gen_events", "event_hits",
    "FisherMemo",
    "hypothesis_test", "test_mechanism", "counterexample_record",
    "decision_p",
]


# ---------------------------------------------------------------------------
# Adjacent input pairs
# ---------------------------------------------------------------------------

def _shifted_pairs(L):
    """All-zeros against all-ones, then all-ones against six d2 rows: the
    first answer above (below) the rest, the first above and the rest
    below (and the reverse), the first half above and the rest below, and
    above and below in turn."""
    ones, rest = (1,) * L, L - 1
    rows = [(2,) + (1,) * rest, (0,) + (1,) * rest, (2,) + (0,) * rest,
            (0,) + (2,) * rest, (2,) * (L // 2) + (0,) * (L - L // 2),
            tuple(2 - 2 * (i % 2) for i in range(L))]
    return [((0,) * L, ones)] + [(ones, d2) for d2 in rows]


def _single_bumps(L):
    """All-ones against each single answer moved up, then down."""
    ones = (1,) * L
    return [(ones, ones[:i] + (v,) + ones[i + 1:])
            for i in range(L) for v in (2, 0)]


# The pair generator of each adjacency, a function of the answer-vector
# length.  "one": at most one answer changes between neighbors (sums,
# histograms); "all": every answer may shift together (counting-query
# workloads).  New adjacent pairs belong here.
PATTERN_SETS = {"one": _single_bumps, "all": _shifted_pairs}


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
    for d1, d2 in PATTERN_SETS[adjacency](length):
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
    """One output value: an int, a bool, or a tuple of either for list
    outputs."""

    value: object

    def contains(self, out) -> bool:
        return out == self.value

    def describe(self) -> dict:
        return {"kind": "value", "values": [self.value]}


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


# Elements of one event-counting temporary: an (events, lanes) block.
_COUNT_CHUNK = 1 << 18


def event_hits(events, outputs: Outputs) -> np.ndarray:
    """(events, lanes) bool: row i flags the lanes whose output lies in
    ``events[i]``, as ``events[i].contains`` would say.

    The events of each class, and of each ``op`` within a class, are
    counted in one array pass: scalar values and half-lines as one
    broadcast comparison, list values and prefixes column by column,
    coordinates as one gather.  Blocks of ``_COUNT_CHUNK`` elements bound
    the temporaries."""
    hits = np.empty((len(events), len(outputs)), dtype=bool)
    by_class = {}
    for i, e in enumerate(events):
        by_class.setdefault((type(e), getattr(e, "op", None)), []).append(i)
    rows = max(1, _COUNT_CHUNK // max(1, len(outputs)))
    for (cls, _), idx in by_class.items():
        for at in range(0, len(idx), rows):
            block = idx[at:at + rows]
            hits[block] = _CLASS_HITS[cls]([events[i] for i in block],
                                           outputs)
    return hits


def _column(items) -> np.ndarray:
    return np.array(items, dtype=np.int64)[:, None]


def _side_of(vals, events) -> np.ndarray:
    """``vals >= t`` or ``vals <= t`` per event row, for events of one
    ``op``."""
    thresholds = _column([e.threshold for e in events])
    return vals >= thresholds if events[0].op == "ge" else vals <= thresholds


def _value_hits(events, outputs: Outputs) -> np.ndarray:
    if outputs.lengths is None:
        return outputs.values == _column([e.value for e in events])
    return _start_hits([e.value for e in events], outputs, exact=True)


def _prefix_hits(events, outputs: Outputs) -> np.ndarray:
    return _start_hits([e.pattern for e in events], outputs, exact=False)


def _start_hits(patterns, outputs: Outputs, *, exact: bool) -> np.ndarray:
    """Lanes whose list output begins with each pattern (``exact``: is the
    pattern).  A lane's length is at most the width, so a pattern longer
    than the width matches nothing."""
    vals, lengths = outputs.values, outputs.lengths
    k = _column([len(p) for p in patterns])
    hit = lengths == k if exact else lengths >= k
    for j in range(min(int(k.max()), vals.shape[1])):
        want = _column([p[j] if j < len(p) else 0 for p in patterns])
        hit &= (vals[:, j] == want) | (k <= j)
    return hit


def _halfline_hits(events, outputs: Outputs) -> np.ndarray:
    return _side_of(outputs.values, events)


def _coord_hits(events, outputs: Outputs) -> np.ndarray:
    vals, lengths = outputs.values, outputs.lengths
    if not vals.shape[1]:
        return np.zeros((len(events), len(outputs)), dtype=bool)
    coord = _column([e.coord for e in events])
    # a coordinate past the width is past every lane's length
    picked = vals[:, np.minimum(coord[:, 0], vals.shape[1] - 1)].T
    return _side_of(picked, events) & (lengths > coord)


_CLASS_HITS = {ValueEvent: _value_hits, HalfLineEvent: _halfline_hits,
               PrefixEvent: _prefix_hits, CoordEvent: _coord_hits}


_SINGLETON_CAP = 40
_COORD_CAP = 8
_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


def _quantile_thresholds(values):
    arr = np.sort(np.asarray(values))
    return sorted({int(arr[min(len(arr) - 1, int(q * len(arr)))]) for q in _QUANTILES})


def _most_common(outputs: Outputs, cap: int) -> list:
    """The ``cap`` most frequent output values, ties in order of first
    appearance (as ``Counter.most_common`` orders them)."""
    # a stable sort puts each group's first lane at its start
    keys = np.vstack([outputs.values.T] if outputs.lengths is None
                     else [outputs.values.T, outputs.lengths])
    order = np.lexsort(keys)
    ranked = keys[:, order]
    start = np.empty(len(order), dtype=bool)
    start[:1] = True
    np.any(ranked[:, 1:] != ranked[:, :-1], axis=0, out=start[1:])
    starts = np.flatnonzero(start)
    first = order[starts]
    counts = np.diff(starts, append=len(order))
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
    events += [ValueEvent(v) for v in _most_common(outputs, _SINGLETON_CAP)]
    if outputs.lengths is None:
        for t in _quantile_thresholds(outputs.values):
            events.append(HalfLineEvent(t, "ge"))
            events.append(HalfLineEvent(t, "le"))
    return events


# ---------------------------------------------------------------------------
# Hypothesis test
# ---------------------------------------------------------------------------

_N_THINNINGS = 20
# Shared across every call and every tested epsilon: quantile coupling makes
# the per-draw (hence mean) p-value monotone in epsilon.
_THINNING_U = np.clip(np.random.default_rng(20200817).random(_N_THINNINGS),
                      1e-12, 1 - 1e-12)
_THINNING_Z = ndtri(_THINNING_U)

# Threads besides the caller's that may share one exact-tail pass: one
# fewer than the CPUs the process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) - 1
# Least tables of one chunk of a split exact-tail pass.  numpy runs a ufunc
# loop without the GIL only over more than 500 elements, so a smaller chunk
# runs no faster beside another.  One Fisher tail costs 7.8 us at n = 500
# (the tester's least), so a 501-table chunk far outweighs starting a
# thread for it.
_FISHER_CHUNK = 501


def _spread(x, K, n: int) -> np.ndarray:
    """``_hypergeom_sf(x, K, n, 2n)`` for 1-d int64 ``x`` and ``K`` of one
    length.

    With c CPUs and at least 2 * ``_FISHER_CHUNK`` tables, the tables are
    cut into min(c, tables // ``_FISHER_CHUNK``) contiguous chunks, and each
    chunk is evaluated into its slice of one result (``out=``): the first
    by the calling thread, the others by threads started for this pass and
    joined before it returns or raises.  Each value is the kernel's on that
    table alone, so it is the same whichever chunk holds it."""
    parts = min(_WORKERS + 1, len(x) // _FISHER_CHUNK)
    if parts < 2:
        return _hypergeom_sf(x, K, n, 2 * n)
    # imported here: a process that never splits loads no more modules
    from concurrent.futures import ThreadPoolExecutor
    out = np.empty(len(x))
    cuts = [len(x) * i // parts for i in range(parts + 1)]

    def run(lo, hi):
        _hypergeom_sf(x[lo:hi], K[lo:hi], n, 2 * n, out=out[lo:hi])
    with ThreadPoolExecutor(parts - 1) as pool:
        rest = [pool.submit(run, lo, hi)
                for lo, hi in zip(cuts[1:-1], cuts[2:])]
        run(cuts[0], cuts[1])
        for chunk in rest:
            chunk.result()
    return out


class FisherMemo:
    """The thinning rows and Fisher tail values computed so far in one
    operation.

    The tester calls of one synthesis run see the same counts and the same
    thinned tables again and again; :func:`hypothesis_test` given a memo
    computes each only once.  Thinning rows are kept per epsilon and count,
    tail values per n and table, each store as sorted int64 keys and their
    values.  A thinned count is boost's binomial quantile of a shared
    uniform (:func:`_binom_quantiles`, ``_binom_ppf``'s value from
    ``_binom_cdf``) and a tail is :func:`_fisher_sf` (boost's
    ``_hypergeom_sf`` inside the support, 1 below it, 0 at and above its
    top), each computed from the same arguments as a fresh computation, so
    sharing a memo changes no p-value.  ``thinned_counts`` and
    ``fisher_tables`` count the quantiles and the exact tails computed.
    An exact-tail pass of at least two ``_FISHER_CHUNK`` tables is cut
    into contiguous chunks, at most one per CPU the process may run on,
    that threads started and joined within the pass evaluate into one
    result (:func:`_spread`); smaller passes, every pass in a one-CPU
    process and every thinning pass run on the calling thread.  Each
    value is the kernel's on its own arguments, so the cut changes none.

    The tester bounds exact p-values in two stages (see
    :func:`_screen_bounds`) from the same thinning rows and a table of
    ln j! for j <= 2n, computed once per call: every cell gets one-term
    bounds, and :meth:`refine` gives the cells those leave open
    error-bounded p-values, refining each of their tables to
    ``_SCREEN_RHO / 8`` of its tail; ``screen_refined`` counts the tables
    it refines.  Screening values and tables are not kept: only exact
    tails are ever reported.  Keep one memo per operation (one ``synth``
    call, one command), not per process.
    """

    def __init__(self):
        self._rows = {}      # eps -> (counts, (counts, 20) thinned counts)
        self._tails = {}     # n -> (tables k * (2n + 1) + K, P[X >= k])
        self.thinned_counts = 0   # binomial quantiles computed
        self.fisher_tables = 0    # exact tails computed
        self.screen_refined = 0   # tables the screen refined

    def thinned(self, counts, test_epsilon) -> np.ndarray:
        """The 20 thinned counts of each sorted distinct count; a NaN or
        negative ``test_epsilon`` is a ValueError."""
        eps = float(test_epsilon)
        if not eps >= 0:
            raise ValueError(f"test epsilon must be non-negative, got {eps}")

        def thin(c):
            self.thinned_counts += c.size * _N_THINNINGS
            return _binom_quantiles(c, math.exp(-eps))
        return _recall(self._rows, eps, counts, thin)

    def tails(self, n: int, tables) -> np.ndarray:
        """P[X >= k] of each sorted distinct table ``k * (2n + 1) + K``, X
        hypergeometric with population 2n, K successes and n draws."""
        def fisher(t):
            self.fisher_tables += t.size
            k, K = np.divmod(t, 2 * n + 1)
            return _fisher_sf(k, K, n)
        return _recall(self._tails, n, tables, fisher)

    def refine(self, k, K, where, n: int, log_fact) -> np.ndarray:
        """Screening p-values of the cells whose 20 tables are the rows of
        ``where``, indices into the tables (``k``, ``K``) that
        :func:`_screen_setup` returns: each within
        ``_SCREEN_RHO * p + _SCREEN_ALPHA`` of the p that
        :func:`hypothesis_test` returns, or NaN where :func:`_screen_tails`
        makes no claim.  This is the second stage of
        :func:`_screen_bounds`, which passes the rows of the cells that
        the first stage leaves open."""
        used, at = np.unique(where, return_inverse=True)
        self.screen_refined += used.size
        tails = _screen_tails(k[used], K[used], n, log_fact)
        return tails[at.reshape(where.shape)].mean(axis=-1)


def _binom_quantiles(counts, p: float) -> np.ndarray:
    """(counts, 20) int64: boost's ``_binom_ppf(_THINNING_U, c, p)`` per
    count c, the least k with u <= cdf(k) for cdf boost's ``_binom_cdf``
    of Binomial(c, p).

    A Cornish-Fisher guess, c p + sd z + (1 - 2p)(z^2 - 1)/6 rounded and
    clipped to [0, c], steps down while cdf(k - 1) >= u, then up while
    cdf(k) < u, so it ends at cdf(k - 1) < u <= cdf(k).  Each cdf pass
    is one vectorised call, and at most one step each way was needed on
    the check below, where ``_binom_ppf``'s root finder costs about 2.7 us
    per quantile.  Every count 0..20,000 at 20 uniforms and 9 epsilons
    from 0.001 to 10 gives ``_binom_ppf``'s value."""
    n = np.repeat(counts.astype(np.float64), _N_THINNINGS)
    u = np.tile(_THINNING_U, len(counts))
    z = np.tile(_THINNING_Z, len(counts))
    mean = n * p
    k = np.clip(np.ceil(mean + np.sqrt(mean * (1 - p)) * z
                        + (1 - 2 * p) * (z * z - 1) / 6 - 0.5), 0, n)
    live = np.flatnonzero(k > 0)
    live = live[_binom_cdf(k[live] - 1, n[live], p) >= u[live]]
    while len(live):
        k[live] -= 1
        live = live[k[live] > 0]
        live = live[_binom_cdf(k[live] - 1, n[live], p) >= u[live]]
    live = np.flatnonzero(k < n)
    live = live[_binom_cdf(k[live], n[live], p) < u[live]]
    while len(live):
        k[live] += 1
        live = live[k[live] < n[live]]
        live = live[_binom_cdf(k[live], n[live], p) < u[live]]
    return k.astype(np.int64).reshape(len(counts), _N_THINNINGS)


def _fisher_sf(k, K, n: int) -> np.ndarray:
    """P[X >= k] for X ~ Hypergeom(2n, K, n), per element of the int64
    arrays ``k`` and ``K`` (0 <= K <= 2n): boost's tail kernel inside the
    support, with ``scipy.stats.hypergeom.sf(k - 1, 2n, K, n)``'s edge rule
    around it, so every value is that call's to the bit."""
    lo, hi = np.maximum(0, K - n), np.minimum(K, n)
    out = np.where(k - 1 < lo, 1.0, 0.0)
    inside = (k - 1 >= lo) & (k - 1 < hi)
    out[inside] = np.clip(_spread(k[inside] - 1, K[inside], n), 0, 1)
    return out


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


def _thinned_tables(c1, c2, n: int, test_epsilon, memo):
    """The sorted distinct thinned tables ``k * (2n + 1) + K`` of the cells
    and, per cell, the index of each of its 20 tables among them."""
    counts, which = np.unique(c1.ravel(), return_inverse=True)
    thin = memo.thinned(counts, test_epsilon)[which]
    # a table is keyed by k * span + K: the thinned count k and the
    # successes K = k + c2
    span = 2 * n + 1
    tables, where = np.unique(thin * span + thin + c2.reshape(-1, 1),
                              return_inverse=True)
    return tables, where.reshape(thin.shape)


def _screen_setup(c1, c2, n: int, test_epsilon, memo):
    """What both screening stages read of the cells (``c1``, ``c2``): the
    distinct thinned tables as arrays k and K, per cell the index of each
    of its 20 tables among them (:func:`_thinned_tables`), and ln j! for
    j = 0 .. 2n."""
    tables, where = _thinned_tables(c1, c2, n, test_epsilon, memo)
    k, K = np.divmod(tables, 2 * n + 1)
    return k, K, where, gammaln(np.arange(1.0, 2 * n + 2))


# The screen's error bound: |p~ - p| <= _SCREEN_RHO * p + _SCREEN_ALPHA.
_SCREEN_RHO = 1e-7
_SCREEN_ALPHA = 1e-300
_SCREEN_CHUNK = 1 << 13   # elements of one screening temporary
_UNIT_ROUNDOFF = 2.0 ** -53


def _screen_tails(k, K, n: int, log_fact) -> np.ndarray:
    """P[X >= k] for X ~ Hypergeom(2n, K, n), per element of the int64
    arrays ``k`` and ``K`` (0 <= K <= 2n), from ``log_fact[j] = ln j!``.

    Every value t~ lies within ``rho * t + alpha`` of the exact tail t
    (``rho = _SCREEN_RHO``, ``alpha = _SCREEN_ALPHA``), or is NaN when
    that cannot be shown; for k <= max(0, K - n) it is exactly 1, for
    k > min(K, n) exactly 0.

    *Method.*  With N = 2n the distribution is symmetric about K / 2 (the
    n undrawn items are a uniform draw too), so t(k) = 1 - t(K - k + 1).
    Each table is therefore computed from the upper tail at
    k' = max(k, K - k + 1) > K / 2, with t = 1 - t(k') when k' != k; that
    t(k') <= 1/2 keeps t >= 1/2 in the flipped case.  t(k') is summed
    directly from k', so a tiny tail keeps its relative accuracy:
    t(k') = f(k') * sum_i w_i, w_0 = 1, w_{i+1} = w_i * r(k' + i), with
    the pmf f(k') = exp(A_K - B), A_K = ln K! + ln (N-K)! + 2 ln n! - ln N!,
    B = ln k'! + ln (K-k')! + ln (n-k')! + ln (n-K+k')!, and the ratio
    r(j) = f(j+1) / f(j) = (K-j)(n-j) / ((j+1)(n-K+j+1)), 0 from
    min(K, n) on.  Beyond the mode r decreases in j, so the mass after M
    terms is at most f(k') * w_M / (1 - r(k' + M - 1)).  The sums run over
    M = 1, 8, 64, ... terms, and a table is settled at the first M whose
    remainder is at most rho/8 of its tail; a sum that reaches the end of
    the support has no remainder.  Chunks of ``_SCREEN_CHUNK`` elements
    bound the temporaries.

    *Error bound*, u = 2^-53, L = ln N!:
    - log-factorial rounding: take ``gammaln`` to 8u relative, above the
      3.3u worst seen against 120-bit ``loggamma`` on ln j! for j up to
      6e5 (Cephes documents a 3.5e-16 peak).  The nine entries of A_K - B sum
      to at most 4L in magnitude (ln a! + ln b! <= ln (a+b)!), so the
      table puts at most 32u L into the exponent; its eight additions,
      each of magnitude at most 2L, add at most 16u L.  With exp's own
      rounding the pmf is within e^(48u L) (1 + 2u) - 1 <= 49u L + 2u
      relative while 48u L < 1/100;
    - the sum: K-j, ..., n-K+j+1 and both products are exact integers
      below 2^53 (2n^2 < 2^53), so r(j) carries one rounding and w_i at
      most 2iu; summing M terms adds Mu, so the sum is within 3Mu with
      M <= n + 1;
    - the truncated remainder: at most rho/8 of the tail, as checked;
    - the final product, the flip and the mean over 20 thinnings: below
      25u;
    - underflow: when f(k') is below the normal range (2^-1022) the
      whole tail is below (n + 1) 2^-1022, within alpha.
    So each tail is within (49u L + 3(n + 1)u + 27u) t + rho/8 t + alpha.
    When the first term exceeds rho/4 (n above about 1.9e5, i.e. more
    than 3.8e5 trials) every value is NaN; otherwise the total stays
    below rho/2, which leaves rho/2 for the exact reference's own
    rounding (boost's tails agree with this screen to about 1e-8, the
    truncation allowance) and for the rounding of the comparisons that
    read the bound.
    """
    if _screen_rounding(n, log_fact) > _SCREEN_RHO / 4:
        return np.full(k.shape, np.nan)
    flip, kk, hi, live, pmf = _first_terms(k, K, n, log_fact)
    upper = np.zeros(k.shape)
    kl, Kl = kk[live], K[live]
    m = 1
    while len(live):
        # the support has hi - kk + 1 terms left: a sum over all of them
        # has no remainder
        m = min(m, int((hi[live] - kl).max()) + 1)
        sums, rest = _tail_sums(kl, Kl, n, m)
        upper[live] = pmf * sums
        tail = np.where(flip[live], 1.0 - upper[live], upper[live])
        open_ = pmf * rest > _SCREEN_RHO / 8 * tail
        live, kl, Kl, pmf = (a[open_] for a in (live, kl, Kl, pmf))
        m *= 8
    return np.where(flip, 1.0 - upper, upper)


def _screen_rounding(n: int, log_fact) -> float:
    """The relative rounding bound of :func:`_screen_tails`' sums at this
    n, without the truncation: 49u L + 3(n + 1)u + 27u."""
    return (49 * float(log_fact[2 * n]) + 3 * (n + 1) + 27) * _UNIT_ROUNDOFF


def _first_terms(k, K, n: int, log_fact):
    """What :func:`_screen_tails` reads of each table before it sums:
    whether the tail is flipped, k' = max(k, K - k + 1), the top of the
    support min(K, n), the indices of the tables with k' inside it (the
    rest have an upper tail of 0) and their pmf f(k')."""
    hi = np.minimum(K, n)
    flip = 2 * k <= K
    kk = np.where(flip, K - k + 1, k)
    live = np.flatnonzero(kk <= hi)
    kl, Kl = kk[live], K[live]
    pmf = np.exp(log_fact[Kl] + log_fact[2 * n - Kl] + 2 * log_fact[n]
                 - log_fact[2 * n]
                 - (log_fact[kl] + log_fact[Kl - kl] + log_fact[n - kl]
                    + log_fact[n - Kl + kl]))
    return flip, kk, hi, live, pmf


def _coarse_tails(k, K, n: int, log_fact):
    """Bounds lo <= t <= hi on each table's tail P[X >= k], as
    :func:`_screen_tails` takes its arguments, from the first term alone:
    the upper tail at k' lies in [f(k'), f(k') / (1 - r(k'))], the bound
    on the terms after the first being :func:`_screen_tails`' remainder at
    M = 1, and a flipped tail in [1 - f(k') / (1 - r(k')), 1 - f(k')].
    The values carry :func:`_screen_tails`' rounding, which its caller
    widens them by; both are NaN where :func:`_screen_tails` makes no
    claim."""
    if _screen_rounding(n, log_fact) > _SCREEN_RHO / 4:
        return np.full(k.shape, np.nan), np.full(k.shape, np.nan)
    flip, kk, _, live, pmf = _first_terms(k, K, n, log_fact)
    kl, Kl = kk[live], K[live]
    r = ((Kl - kl) * (n - kl)) / ((kl + 1) * (n - Kl + kl + 1))
    least, most = np.zeros(k.shape), np.zeros(k.shape)
    least[live] = pmf
    most[live] = pmf / (1.0 - r)
    return (np.where(flip, 1.0 - most, least),
            np.where(flip, 1.0 - least, most))


def _tail_sums(kk, K, n: int, m: int):
    """Per table, sum_{i<m} w_i (w_0 = 1, w_{i+1} = w_i r(kk + i)) and the
    bound w_m / (1 - r(kk + m - 1)) on the sum of the terms after them,
    both relative to the pmf at ``kk``; see :func:`_screen_tails`."""
    sums = np.empty(len(kk))
    rest = np.empty(len(kk))
    rows = max(1, _SCREEN_CHUNK // m)
    for at in range(0, len(kk), rows):
        j = kk[at:at + rows, None] + np.arange(m)
        K_ = K[at:at + rows, None]
        r = (np.maximum(K_ - j, 0) * np.maximum(n - j, 0)) \
            / ((j + 1) * (n - K_ + j + 1))
        w = np.cumprod(r, axis=1)
        sums[at:at + rows] = 1.0 + w[:, :-1].sum(axis=1)
        rest[at:at + rows] = w[:, -1] / (1.0 - r[:, -1])
    return sums, rest


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
    tables, where = _thinned_tables(c1, c2, n, test_epsilon, memo)
    p = memo.tails(n, tables)[where].mean(axis=-1).reshape(c1.shape)
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


def _draw_matrices(dists, caps, n_runs: int, rng) -> list:
    """Each hole's (n_runs, cap) noise from ``rng``, holes in order; a hole
    whose distribution is None draws nothing and gets (n_runs, 0)."""
    return [np.zeros((n_runs, 0), dtype=np.int64) if d is None
            else d.sample_array(rng, (n_runs, cap))
            for d, cap in zip(dists, caps)]


_EVENT_CAP = 64   # events per input pair kept after the pilot
# Lanes of one kernel call that packs several whole input pairs, unless one
# pair alone runs more (2 * trials lanes): enough to amortise numpy's
# per-operation cost over 1,000-trial pairs while bounding the kernel's
# temporaries.
_LANE_CAP = 1 << 13


def _count_floor(n_side: int) -> int:
    return max(20, math.ceil(0.003 * n_side))


def _screen_bounds(c1, c2, n: int, test_epsilon, memo, undecided):
    """Per cell, bounds lo <= p <= hi on its exact p, in two stages that
    share the cells' tables (:func:`_screen_setup`).

    Stage 1 bounds every cell from the first term of each of its tables
    (:func:`_coarse_tails`): each bound's mean over the cell's 20 tables,
    widened by 10 rho relative and 3 alpha.  ``undecided(lo, hi)`` marks
    the cells whose verdict those bounds leave open, and stage 2 gives
    them the screen's bounds (:meth:`FisherMemo.refine`):
    |p~ - p| <= rho p + alpha gives lo = (p~ - alpha) / (1 + rho) and
    hi = (p~ + alpha) / (1 - rho).  Where the screen makes no claim, both
    stages give lo = -inf and hi = inf.  The stage-2 interval lies within
    about 1.5 rho of the cell's p (the screen's rho / 2, see
    :func:`_screen_tails`, and the rho of its bounds), and the one-term
    bounds carry the screen's pmf rounding, below rho / 4, so the widened
    stage-1 interval holds the stage-2 one.  A rule that reads the mixed
    bounds, and whose verdict on a cell ``undecided`` leaves closed holds
    for any interval inside that cell's, therefore gives the verdict it
    would give on stage-2 bounds for every cell (see :func:`_may_rank`
    and :func:`_final_p`)."""
    k, K, where, log_fact = _screen_setup(c1, c2, n, test_epsilon, memo)
    least, most = (t[where].mean(axis=-1)
                   for t in _coarse_tails(k, K, n, log_fact))
    width = 10 * _SCREEN_RHO
    lo = least * (1 - width) - 3 * _SCREEN_ALPHA
    hi = most * (1 + width) + 3 * _SCREEN_ALPHA
    lo[np.isnan(lo)], hi[np.isnan(hi)] = -np.inf, np.inf
    refine = np.flatnonzero(undecided(lo, hi))
    if len(refine):
        screen = memo.refine(k, K, where[refine], n, log_fact)
        known = ~np.isnan(screen)
        lo[refine] = np.where(
            known, (screen - _SCREEN_ALPHA) / (1 + _SCREEN_RHO), -np.inf)
        hi[refine] = np.where(
            known, (screen + _SCREEN_ALPHA) / (1 - _SCREEN_RHO), np.inf)
    return lo, hi


def _may_rank(lo, hi, starts, k: int) -> np.ndarray:
    """Per cell, whether its exact p, bounded by lo <= p <= hi, can rank
    among the ``k`` least p of its segment, first in a stable sort;
    segment s runs from ``starts[s]`` to the next start and holds at
    least ``k`` cells.  With U its ``k``-th least hi, at least ``k`` cells
    have p <= U, so a cell with lo > U has p above the ``k``-th least p:
    the cells with lo <= U hold every cell at or below it, ties included,
    and their exact p-values alone give the stable sort's first ``k``.

    The rule also picks the cells whose stage-2 bounds need computing
    (:func:`_screen_bounds`).  Stage-1 intervals hold stage-2 ones, so
    their k-th least hi, U1, is at least U, and every cell with lo <= U on
    stage-2 bounds has lo <= U1 on stage-1 ones.  On the mixed bounds the
    k cells whose stage-2 hi are the k least are among those, and every
    other hi is at least U, so U is again the k-th least; a cell left at
    its stage-1 bounds has lo > U1 >= U.  Each cell is marked as stage-2
    bounds throughout would mark it."""
    segment = np.repeat(np.arange(len(starts)),
                        np.diff(starts, append=len(hi)))
    bound = hi[np.lexsort((hi, segment))][starts + k - 1]
    return lo <= bound[segment]


def _decision_events(pilots, n: int, test_epsilon, memo) -> list:
    """Per pair, the decision event of each orientation: the index of the
    first event with the least exact p among its pilot cells, as
    ``np.argmin`` over every cell's :func:`hypothesis_test` would pick it.

    ``pilots`` holds each pair's pilot counts, shape (2 sides, events);
    orientation o tests side o against side 1 - o.  Only the cells that
    :func:`_may_rank` first in their (pair, orientation) can be the pick.
    Of those, a cell whose counts repeat an earlier one's has its p and
    cannot be first, so it is dropped.  A segment left with one cell picks
    it without an exact tail: it has the counts of the cell whose upper
    bound is the segment's least, U, and every other cell has p > U.  The
    other segments' cells get exact p-values, and the first exact minimum
    among them is the pick.
    """
    c1 = np.concatenate([pc[o] for pc in pilots for o in (0, 1)])
    c2 = np.concatenate([pc[1 - o] for pc in pilots for o in (0, 1)])
    widths = np.repeat([pc.shape[1] for pc in pilots], 2)
    starts = np.cumsum(widths) - widths
    # the (pair, orientation) of each cell
    segment = np.repeat(np.arange(len(widths)), widths)

    def may_pick(lo, hi):
        return _may_rank(lo, hi, starts, 1)
    near = np.flatnonzero(may_pick(
        *_screen_bounds(c1, c2, n, test_epsilon, memo, may_pick)))
    _, first_seen = np.unique(
        np.stack([segment[near], c1[near], c2[near]]), axis=1,
        return_index=True)
    near = near[np.sort(first_seen)]
    seg = segment[near]
    tested = near[np.bincount(seg)[seg] > 1]
    p = np.zeros(len(c1))
    p[tested] = hypothesis_test(c1[tested], c2[tested], n, test_epsilon,
                                memo=memo)
    # per segment, its marked cells by exact p, ties in cell order
    ranked = near[np.lexsort((near, p[near], seg))]
    _, first = np.unique(segment[ranked], return_index=True)
    picks = (ranked[first] - starts).tolist()
    return [picks[i:i + 2] for i in range(0, len(picks), 2)]


def _side_counts(events, outputs: Outputs, n: int) -> np.ndarray:
    """(2 sides, events) hits of each event on the first ``n`` lanes of
    ``outputs``, side d1, and on the next ``n``, side d2, from one
    :func:`event_hits` pass."""
    hits = event_hits(events, outputs).reshape(len(events), 2, n)
    return np.count_nonzero(hits, axis=2).T


def _band_rules(band):
    """Two rules on bounds lo <= p <= hi for ``band`` = (lo, hi): the cells
    that overlap it, and of those the cells that straddle an edge, the only
    ones whose verdict an interval inside theirs can change."""
    def overlaps(lo, hi):
        return (hi >= band[0]) & (lo <= band[1])

    def straddles(lo, hi):
        return overlaps(lo, hi) & ((lo < band[0]) | (hi > band[1]))
    return overlaps, straddles


def _final_p(c1, c2, decision, limit, band, n: int, test_epsilon,
             memo) -> np.ndarray:
    """The p-values of the final cells: all exact; with ``limit`` set and
    more cells than that, exact for the decision cells and the ``limit``
    cells of least p, first in a stable sort; with ``band`` = (lo, hi),
    exact for the decision cells and the cells with lo <= p <= hi.  The
    rest read inf.

    Exact tails go only to the decision cells and the cells that can be
    read: with ``limit``, those that :func:`_may_rank` among the ``limit``
    least p; with ``band``, those whose :func:`_screen_bounds` overlap
    it, as a cell whose p lies in the band lies within its bounds.  Only
    the cells whose stage-1 bounds straddle an edge of the band get
    stage-2 bounds: an interval inside the band or clear of it holds only
    intervals that are, so the overlap rule reads the same on them."""
    if band is None and (limit is None or len(c1) <= limit):
        return hypothesis_test(c1, c2, n, test_epsilon, memo=memo)
    exact = decision.copy()
    if band is not None or limit:
        if band is None:
            def read(lo, hi):
                return _may_rank(lo, hi, np.zeros(1, dtype=np.int64), limit)
            undecided = read
        else:
            read, undecided = _band_rules(band)
        exact |= read(*_screen_bounds(c1, c2, n, test_epsilon, memo,
                                      undecided))
    p = np.full(len(c1), np.inf)
    p[exact] = hypothesis_test(c1[exact], c2[exact], n, test_epsilon,
                               memo=memo)
    if band is None:
        read = decision.copy()
        read[np.argsort(p, kind="stable")[:limit]] = True
    else:
        read = decision | ((band[0] <= p) & (p <= band[1]))
    p[~read] = np.inf
    return p


def test_mechanism(sketch: MechanismSketch, binding: dict, noise_vector, *,
                   trials: int, seed, decision_only: bool = False,
                   limit: int | None = None, band: tuple | None = None,
                   memo=None) -> list:
    """Every counterexample cell over the adjacent pairs and derived events,
    sorted by p-value (the strongest first).

    ``binding`` holds ``eps``, the tested epsilon, ``qlen``, the
    answer-vector length, and every argument of the sketch; the sketch
    receives only its own arguments.  ``noise_vector`` holds one scale per
    hole (``None`` = the hole's noise term is absent).  The list is empty
    when no event passes the count floor.  With ``decision_only`` the list
    holds the decision cells alone, exactly as the full list has them.
    With ``limit`` only the decision cells and the ``limit`` cells of
    least p, the first ``limit`` of the list, carry exact p-values (see
    :func:`_may_rank`); every other cell, never read by a caller that
    reads those, has p-value inf, and the list keeps its length.  With
    ``band`` = (lo, hi) the same holds for the decision cells and the
    cells with lo <= p <= hi; a call takes ``limit`` or ``band``, not
    both.  ``memo`` carries Fisher work over from earlier calls of the
    operation.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful test")
    if len(noise_vector) != sketch.n_holes:
        raise ValueError("noise vector length must match the hole count")
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    if band is not None and (limit is not None or not band[0] <= band[1]):
        raise ValueError("band must be (lo, hi) with lo <= hi, and no "
                         "limit")
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
    # each hole's distribution, built once for every stream of the call
    dists = [None if scale is None or cap == 0
             else make_dist(hole.family, float(scale))
             for hole, scale, cap in zip(sketch.holes, noise_vector, caps)]

    # Each pair runs in one block of 4 * n_half lanes: pilot d1, pilot d2,
    # final d1, final d2, each part from its own stream; whole pairs share
    # one kernel call of at most max(2 * trials, _LANE_CAP) lanes.  Per
    # pair, ``sampled`` holds its events kept after the pilot, their pilot
    # counts of shape (2 sides, events) and the final outputs of both sides
    block = 4 * n_half
    per_call = max(2 * trials, _LANE_CAP) // block
    sampled = []
    for at in range(0, len(pairs), per_call):
        batch = pairs[at:at + per_call]
        draws = [np.concatenate(m) for m in zip(*[_draw_matrices(
            dists, caps, n_half,
            np.random.default_rng(seed_words + [at + i, s, phase]))
            for i in range(len(batch)) for phase in (0, 1) for s in (0, 1)])]
        rows = np.tile(np.array(batch, dtype=np.int64), (1, 2, 1))
        outputs, _ = runner(args, np.repeat(rows.reshape(-1, qlen), n_half,
                                            axis=0), draws)
        for i, (d1, d2) in enumerate(batch):
            pilot = outputs[i * block:i * block + 2 * n_half]
            events = gen_events(pilot)
            pcounts = _side_counts(events, pilot, n_half)
            keep = np.argsort(-np.abs(pcounts[0] - pcounts[1]),
                              kind="stable")[:_EVENT_CAP]
            sampled.append((d1, d2, [events[k] for k in keep],
                            pcounts[:, keep],
                            outputs[i * block + 2 * n_half:(i + 1) * block]))

    decisions = _decision_events([pc for _, _, _, pc, _ in sampled],
                                 n_half, target_eps, memo)

    # the final cells that pass the count floor, larger count first
    cells = []
    for pair_no, ((_, _, survivors, _, final), picks) in enumerate(
            zip(sampled, decisions)):
        ks = sorted(set(picks)) if decision_only else range(len(survivors))
        counts = _side_counts([survivors[k] for k in ks], final, n_half)
        for k, (c1, c2) in zip(ks, counts.T.tolist()):
            if max(c1, c2) < floor:
                continue
            for orient, (ca, cb) in enumerate(((c1, c2), (c2, c1))):
                if ca >= cb and (picks[orient] == k or not decision_only):
                    cells.append((pair_no, k, orient, ca, cb,
                                  picks[orient] == k))
    c1 = np.array([c[3] for c in cells], dtype=np.int64)
    c2 = np.array([c[4] for c in cells], dtype=np.int64)
    decision = np.array([c[5] for c in cells], dtype=bool)
    p = _final_p(c1, c2, decision, limit, band, n_half, target_eps, memo)

    candidates = []
    for (pair_no, k, orient, ca, cb, dec), p_value in zip(cells, p.tolist()):
        d1, d2, survivors, _, _ = sampled[pair_no]
        candidates.append(Counterexample(
            d1=d1 if orient == 0 else d2, d2=d2 if orient == 0 else d1,
            event=survivors[k], p_value=p_value, test_epsilon=target_eps,
            rho1=ca / n_half, rho2=cb / n_half, c1=ca, c2=cb, n_side=n_half,
            decision=dec))

    candidates.sort(key=lambda cx: cx.p_value)
    return candidates


def decision_p(candidates) -> float:
    """Multiplicity-safe p-value: the minimum over decision cells only."""
    return min((cx.p_value for cx in candidates if cx.decision), default=1.0)
