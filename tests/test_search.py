"""Example discovery, importance-sampling estimator, and optimizer tests.

Estimator oracles compare against closed-form discrete-Laplace masses from
the dist module; the one-sided-event loss oracle uses the fact that a
single Laplace draw shifted by one unit has exactly e^(1/b) probability
ratio on the event {out <= 0}.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp, ndtr

from mechsynth import search
from mechsynth.config import PROPOSAL_SCALE as PROPOSAL, ZONE
from mechsynth.dist import log_weight_coeffs, make_dist
from mechsynth.lang import Outputs, compile_sketch, parse_sketch
from mechsynth.search import (BOX_MAX, SNAP_THRESHOLD, Example,
                              PresampleBank, batch_objective, directions,
                              example_losses, example_losses_with_se,
                              get_noise_region, select_examples, snap_vector)
from mechsynth.tester import (HalfLineEvent, PrefixEvent, ValueEvent,
                              event_hits)
from tests.conftest import MICRO_SCALAR, load_benchmark

EPS = 0.5
D1 = (0, 0, 0, 0, 0)
D2 = (1, 0, 0, 0, 0)
SHIFT_EXAMPLE = None  # filled by fixture below


def _shift_example():
    # single Laplace draw on a[1]; the pair differs by one unit there
    return Example(d1=D1, d2=D2, event=HalfLineEvent(0, "le"),
                   direction=(1,), scale=1.0, p_value=0.5)


def _estimate(bank, d, event, candidate):
    est, _ = bank.estimate({d: (event,)}, [candidate])
    return float(est[(d, event)][0])


@pytest.fixture(scope="module")
def bank(micro_scalar):
    return PresampleBank(micro_scalar, {"qlen": 5}, m=50000,
                         scales=(PROPOSAL,), seed=3)


@pytest.fixture(scope="module")
def mixture_bank(micro_scalar):
    return PresampleBank(micro_scalar, {"qlen": 5}, m=50000,
                         scales=(0.5, 1.0, 2.0, 4.0, 8.0, 12.0), seed=3)


# ---------------------------------------------------------------------------
# Directions and snapping
# ---------------------------------------------------------------------------

def test_directions_small_cases():
    assert directions(1) == [(1,)]
    assert directions(2) == [(1, 1), (1, 0), (0, 1)]
    assert directions(3) == [(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_snap_vector_threshold():
    assert snap_vector((0.1, 0.3)) == (None, 0.3)
    assert snap_vector((SNAP_THRESHOLD,)) == (SNAP_THRESHOLD,)
    assert snap_vector((0.0, BOX_MAX)) == (None, BOX_MAX)


# ---------------------------------------------------------------------------
# Importance-sampling estimator
# ---------------------------------------------------------------------------

def test_estimate_center_mass_across_scales(bank):
    for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
        want = make_dist("lap", scale).pmf(0)
        got = _estimate(bank, D1, ValueEvent(0), (scale,))
        assert got == pytest.approx(want, rel=0.05)


def test_estimate_at_proposal_equals_plain_frequency(bank, micro_scalar):
    # weight of the proposal against itself is one, so the estimate is the
    # raw frequency of the event among the memoized runs
    outputs, _ = compile_sketch(micro_scalar, (False,))(bank.args, D1,
                                                        bank.draws)
    event = ValueEvent(0)
    freq = sum(event.contains(o) for o in outputs) / bank.m
    got = _estimate(bank, D1, event, (bank.scales[0],))
    assert got == pytest.approx(freq, rel=1e-9)


def test_estimate_certain_event_clamps(bank):
    got = _estimate(bank, D1, HalfLineEvent(-(10 ** 9), "ge"),
                              (2.0,))
    assert got == 1.0 - 1.0 / (10 * bank.m)


def test_estimate_impossible_event_clamps(bank):
    got = _estimate(bank, D1, HalfLineEvent(10 ** 9, "ge"), (2.0,))
    assert got == 1.0 / (10 * bank.m)


def test_estimate_validates_candidate_length(bank):
    with pytest.raises(ValueError):
        _estimate(bank, D1, ValueEvent(0), (2.0, 2.0))
    with pytest.raises(ValueError):
        bank.estimate({D1: (ValueEvent(0),)}, [(2.0,), (None,)])


def test_no_noise_candidate_is_deterministic(bank):
    # the off-mask path re-simulates runs without consuming the trace
    assert _estimate(bank, D2, ValueEvent(1), (None,)) \
        == 1.0 - 1.0 / (10 * bank.m)
    assert _estimate(bank, D2, ValueEvent(2), (None,)) == 1.0 / (10 * bank.m)


def test_mixture_bank_accurate_far_from_proposal(mixture_bank):
    for scale in (0.5, 2.0, 12.0):
        want = make_dist("lap", scale).pmf(0)
        got = _estimate(mixture_bank, D1, ValueEvent(0), (scale,))
        assert got == pytest.approx(want, rel=0.05)


def test_estimates_are_deterministic(micro_scalar):
    a = PresampleBank(micro_scalar, {"qlen": 5}, m=20000,
                      scales=(PROPOSAL,), seed=9)
    b = PresampleBank(micro_scalar, {"qlen": 5}, m=20000,
                      scales=(PROPOSAL,), seed=9)
    ev = ValueEvent(0)
    assert (_estimate(a, D1, ev, (1.5,))
            == _estimate(b, D1, ev, (1.5,)))


def test_weight_coeffs_shape(bank):
    coeffs = bank.weight_coeffs([(2.0,), (None,), (4.0,)])
    assert coeffs.shape == (3, 3)


LAP_EXP = """mechanism LapExp
private a
adjacency one

x <- a[1] + Lap(?1)
y <- a[2] + Exp(?2)
return x + y
"""


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_one_component_bank_draws_the_single_scale_stream(seed):
    # a one-component bank draws hole h from [seed, 1000 + h, 0], which
    # numpy's SeedSequence pads to the same state as [seed, 1000 + h]
    sketch = parse_sketch(LAP_EXP)
    bank = PresampleBank(sketch, {"qlen": 5}, m=500, scales=(3.0,),
                         seed=seed)
    assert [hole.family for hole in sketch.holes] == ["lap", "exp"]
    for h, hole in enumerate(sketch.holes):
        want = make_dist(hole.family, 3.0).sample_array(
            np.random.default_rng([seed, 1000 + h]), (500, bank.caps[h]))
        assert bank.caps[h] > 0
        assert np.array_equal(bank.draws[h], want)
        # every side and off-mask replays these draws, so none may change
        assert not bank.draws[h].flags.writeable


def test_one_component_bank_has_a_zero_mixture_column(bank):
    # the component is the reference, so the mixture's log-density is 0
    _, groups, _ = bank.runs_for(D1, (False,), ())
    stats = groups.rows[groups.index]
    assert stats.shape == (bank.m, 3)
    assert (stats[:, 2] == 0.0).all()


# ---------------------------------------------------------------------------
# Example losses and the resolution floor
# ---------------------------------------------------------------------------

def test_one_sided_event_loss_oracle(bank):
    losses = example_losses(bank, [_shift_example()], [(2.0,)])
    assert losses.shape == (1, 1)
    assert losses[0, 0] == pytest.approx(math.exp(0.5), rel=0.05)


def test_losses_are_at_least_one(bank):
    cands = [(0.5,), (1.0,), (2.0,), (4.0,), (8.0,), (None,)]
    losses = example_losses(bank, [_shift_example()], cands)
    assert (losses >= 1.0).all()


def test_event_floor_neutralizes_unresolvable_examples(bank, monkeypatch):
    ex = _shift_example()
    monkeypatch.setattr(search, "EVENT_FLOOR", 0.9)
    with_floor = example_losses(bank, [ex], [(2.0,)])
    assert with_floor[0, 0] == 1.0
    monkeypatch.setattr(search, "EVENT_FLOOR", 0.0)
    without = example_losses(bank, [ex], [(2.0,)])
    assert without[0, 0] > 1.5


def test_event_floor_keeps_resolvable_examples(bank, monkeypatch):
    ex = _shift_example()
    # the event has probability ~1/2 on both sides, far above the floor
    a = example_losses(bank, [ex], [(2.0,)])
    monkeypatch.setattr(search, "EVENT_FLOOR", 0.0)
    b = example_losses(bank, [ex], [(2.0,)])
    assert a[0, 0] == b[0, 0]


def test_losses_with_se_match_example_losses(bank):
    ex = [_shift_example()]
    cands = [(0.5,), (2.0,), (None,)]
    losses, se = example_losses_with_se(bank, ex, cands, 2.0)
    assert (losses == example_losses(bank, ex, cands)).all()
    assert se.shape == losses.shape and (se >= 0.0).all()


# sides reach the second hole a different number of times, so their
# importance weights differ and the cross term pairs two weight sets
STOP = """mechanism Stop
private a
adjacency one

x <- a[1] + Lap(?1)
i <- 1
while i <= 2 and x > 0:
    x <- x + Lap(?2)
    i <- i + 1
return x
"""


@pytest.mark.parametrize("source,event,cand,mixture", [
    ("micro", ValueEvent(4), (2.0,), None),
    ("micro", HalfLineEvent(0, "le"), (2.0,), (0.5, 2.0, 8.0)),
    ("stop", ValueEvent(2), (2.0, 3.0), None),
])
def test_log_loss_se_matches_spread_over_banks(micro_scalar, source, event,
                                               cand, mixture):
    # the delta-method error of one bank's log-loss should match the spread
    # of the log-loss over independent banks; with 40 banks the spread
    # itself is known to about 11%, so 30% is ~2.7 of its standard errors
    sketch = micro_scalar if source == "micro" else parse_sketch(STOP)
    ex = Example(d1=D1, d2=D2, event=event, direction=(1,), scale=1.0,
                 p_value=0.5)
    log_losses, ses = [], []
    for seed in range(40):
        bank = PresampleBank(sketch, {"qlen": 5}, m=4000,
                             scales=mixture or (PROPOSAL,), seed=100 + seed)
        loss, se = example_losses_with_se(bank, [ex], [cand], 2.0)
        log_losses.append(math.log(loss[0, 0]))
        ses.append(se[0, 0])
    if source == "stop":
        mask = (False, False)
        rows1 = bank.runs_for(D1, mask, (event,))[1].rows
        assert not np.array_equal(
            rows1, bank.runs_for(D2, mask, (event,))[1].rows)
    assert np.mean(ses) == pytest.approx(np.std(log_losses, ddof=1), rel=0.3)


# ---------------------------------------------------------------------------
# Per-run oracle of the grouped estimator
# ---------------------------------------------------------------------------

MIXTURE8 = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)


def _oracle_run_weights(bank, side, cand):
    """Outputs and float64 log-weights of ``cand`` for each of the m runs on
    ``side``, from the log-pmf of every draw the run consumed against the
    bank's mixture."""
    mask = tuple(c is None for c in cand)
    outputs, counts = compile_sketch(bank.sketch, mask)(bank.args, side,
                                                        bank.draws)
    logw = np.zeros(bank.m)
    for h, hole in enumerate(bank.sketch.holes):
        if cand[h] is None:
            continue
        draws = bank.draws[h]
        used = np.arange(draws.shape[1]) < counts[:, h, None]

        def total(scale):
            return np.where(used, make_dist(hole.family, scale).logpmf(draws),
                            0.0).sum(axis=1)

        mix = logsumexp([total(s) for s in bank.scales], axis=0)
        logw += total(cand[h]) - mix + math.log(len(bank.scales))
    return outputs, logw


def _oracle_example(bank, ex, cand, z):
    """(estimates, loss, se, spread) of one example, summing over every
    run, at the floor the estimator reads; ``spread`` is the root of both
    sides' own variances, the size of the terms whose difference the
    variance of the log-ratio is."""
    lo, hi = bank.clamp
    est, infl, ess = [], [], []
    for side in (ex.d1, ex.d2):
        outputs, logw = _oracle_run_weights(bank, side, cand)
        w = np.exp(logw - logw.max())
        f = event_hits([ex.event], outputs)[0]
        den = w.sum()
        r = float(np.clip((w * f).sum() / den, lo, hi))
        est.append(r)
        infl.append(w * (f - r) / (den * r))
        ess.append(den ** 2 / (w ** 2).sum())
    r1, r2 = est
    spread = math.sqrt((infl[0] ** 2).sum() + (infl[1] ** 2).sum())
    if max(r1, r2) < search.EVENT_FLOOR or max(r1, r2) <= lo:
        return est, 1.0, 0.0, spread
    se = math.sqrt(((infl[0] - infl[1]) ** 2).sum())
    for k in (0, 1):
        if est[k] <= lo:
            wet = math.sqrt((infl[1 - k] ** 2).sum())
            p_up = min(-math.log(ndtr(-z)) / ess[k], 1.0)
            se = wet + max(math.log(p_up / est[k]), 0.0) / z
    return est, max(r1 / r2, r2 / r1), se, spread


LAP3 = """mechanism Lap3
private a
adjacency one

x <- a[1] + Lap(?1)
y <- x + Lap(?2)
if y > 1:
    y <- y + Lap(?3)
return y
"""

ORACLE_SKETCHES = {     # name -> (sketch, binding beyond qlen)
    "micro": (parse_sketch(MICRO_SCALAR), {}),
    "lapexp": (parse_sketch(LAP_EXP), {}),
    "stop": (parse_sketch(STOP), {}),
    "lap3": (parse_sketch(LAP3), {}),
    "expnoisymax": (load_benchmark("expnoisymax"), {}),
    "abovet2": (load_benchmark("abovet2"), {"T": 2}),
}


@pytest.mark.parametrize("scales", [(PROPOSAL,), MIXTURE8],
                         ids=["one", "eight"])
@pytest.mark.parametrize("name", sorted(ORACLE_SKETCHES))
def test_grouped_estimates_match_the_per_run_oracle(name, scales,
                                                    monkeypatch):
    sketch, extra = ORACLE_SKETCHES[name]
    bank = PresampleBank(sketch, {"qlen": 5, **extra}, m=3000, scales=scales,
                         seed=5)
    n = sketch.n_holes
    cands = [(2.0,) * n, tuple(1.0 + h for h in range(n)), (7.5,) * n]
    if n > 1:
        cands.append((None,) + (3.0,) * (n - 1))
    d1, d2 = (0, 0, 0, 0, 0), (1, 0, 0, 0, 0)
    if sketch.adjacency == "all":
        d2 = (1, 1, 0, 1, 1)
    events = [HalfLineEvent(0, "le"), HalfLineEvent(3, "ge"),
              ValueEvent(1), ValueEvent(10 ** 6)]
    examples = [Example(d1=a, d2=b, event=e, direction=(1,) * n, scale=1.0,
                        p_value=0.5)
                for e in events for a, b in ((d1, d2), (d2, d1))]
    z = 2.5
    monkeypatch.setattr(search, "EVENT_FLOOR", 1e-3)
    losses, se = example_losses_with_se(bank, examples, cands, z)
    for b, cand in enumerate(cands):
        est, _ = bank.estimate({d1: events, d2: events}, [cand])
        for j, ex in enumerate(examples):
            (r1, r2), loss, want_se, spread = _oracle_example(
                bank, ex, cand, z)
            assert est[(ex.d1, ex.event)][0] == pytest.approx(r1, rel=1e-12)
            assert est[(ex.d2, ex.event)][0] == pytest.approx(r2, rel=1e-12)
            assert losses[b, j] == pytest.approx(loss, rel=1e-12)
            # the variance of log(r1 / r2) is v11 + v22 - 2 v12, so its
            # rounding scales with the sides' own spread, not with se
            assert abs(se[b, j] - want_se) <= 1e-12 * max(want_se, spread)


def _assert_stat_rows_oracle(bank, answers, mask):
    """The side's :class:`StatRows` against its runs' own (N, S, M)."""
    sketch = bank.sketch
    n = sketch.n_holes
    _, groups, _ = bank.runs_for(answers, mask, ())
    _, counts = compile_sketch(sketch, mask)(bank.args, answers, bank.draws)
    sums = np.stack([
        np.where(np.arange(d.shape[1]) < counts[:, h, None], np.abs(d),
                 0).sum(axis=1) for h, d in enumerate(bank.draws)], axis=1)
    stats = np.hstack([counts, sums])
    assert np.array_equal(groups.rows[groups.index, :2 * n], stats)
    assert np.array_equal(groups.mult, np.bincount(groups.index))
    assert len(groups.rows) == len(np.unique(stats, axis=0))
    # the mixture column is a function of the row, on the rows only
    coeffs = [np.array([log_weight_coeffs(hole.family, s, bank.scales[0])
                        for s in bank.scales]) for hole in sketch.holes]
    mix = sum(logsumexp(np.outer(stats[:, h], coeffs[h][:, 0])
                        + np.outer(stats[:, n + h], coeffs[h][:, 1]),
                        axis=1) - math.log(len(bank.scales))
              for h in range(n))
    assert groups.rows[groups.index, 2 * n] == pytest.approx(mix, rel=1e-12)
    return counts, groups


def test_stat_rows_rebuild_every_run():
    # abovet2 draws a whole noise vector per run, so under an
    # eight-component mixture most runs have magnitude sums of their own
    sketch = load_benchmark("abovet2")
    bank = PresampleBank(sketch, {"qlen": 10, "T": 2}, m=12000,
                         scales=MIXTURE8, seed=0)
    answers = (1, 0, 2, 1, 0, 1, 2, 0, 1, 1)
    _, groups = _assert_stat_rows_oracle(bank, answers, (False,) * 3)
    assert bank.m // 2 < len(groups.rows) < bank.m
    assert (bank.runs_grouped, bank.stat_rows) == (bank.m, len(groups.rows))
    # svt stops at its first answer above the threshold, so the draws a
    # side consumes depend on its answers: a second side with counts of
    # its own is grouped afresh
    sketch = load_benchmark("svt")
    bank = PresampleBank(sketch, {"qlen": 10, "T": 2, "N": 1}, m=12000,
                         scales=MIXTURE8, seed=0)
    mask = (False, False)
    counts1, groups1 = _assert_stat_rows_oracle(bank, (0,) * 10, mask)
    counts2, groups2 = _assert_stat_rows_oracle(
        bank, (1, 2, 1, 0, 2, 1, 0, 1, 2, 0), mask)
    assert not np.array_equal(counts1, counts2)
    assert groups1.fp != groups2.fp
    assert (bank.runs_grouped, bank.stat_rows) == (
        2 * bank.m, len(groups1.rows) + len(groups2.rows))


def test_sides_with_equal_draw_counts_share_stat_rows():
    # noisymax1 draws one noise per answer whatever the answers are, so
    # every side consumes the same counts and reuses the first grouping
    sketch = load_benchmark("noisymax1")
    bank = PresampleBank(sketch, {"qlen": 5}, m=3000, scales=MIXTURE8,
                         seed=0)
    mask = (False,)
    kernel = compile_sketch(sketch, mask)
    out1, _ = kernel(bank.args, (1, 1, 1, 1, 1), bank.draws)
    _, g1, _ = bank.runs_for((1, 1, 1, 1, 1), mask, ())
    assert (bank.runs_grouped, bank.stat_rows) == (bank.m, len(g1.rows))
    out2, _ = kernel(bank.args, (2, 0, 1, 1, 0), bank.draws)
    _, g2, _ = bank.runs_for((2, 0, 1, 1, 0), mask, ())
    assert not np.array_equal(out1.values, out2.values)
    assert g2 is g1
    # the counters grow per side, hit or miss
    assert (bank.runs_grouped, bank.stat_rows) == (2 * bank.m,
                                                   2 * len(g1.rows))
    _assert_stat_rows_oracle(bank, (2, 0, 1, 1, 0), mask)


def test_grouping_runs_once_per_draw_count_pattern(monkeypatch):
    sketch = load_benchmark("svt")
    bank = PresampleBank(sketch, {"qlen": 5, "T": 2, "N": 1}, m=2000,
                         scales=MIXTURE8, seed=0)
    patterns = []
    group = PresampleBank._group

    def counted(self, counts):
        patterns.append(counts.tobytes())
        return group(self, counts)

    monkeypatch.setattr(PresampleBank, "_group", counted)
    sides = [(0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (0, 0, 0, 0, 0),
             (2, 2, 2, 2, 2), (5, 5, 5, 5, 5), (6, 6, 6, 6, 6),
             (2, 0, 1, 0, 2)]
    masks = [(False, False), (True, False), (False, True), (True, True)]
    want = set()
    for mask in masks:
        for answers in sides:
            bank.runs_for(answers, mask, ())
            _, counts = compile_sketch(sketch, mask)(bank.args, answers,
                                                     bank.draws)
            want.add(counts.tobytes())
    # (0, 0, 0, 0, 0) twice per mask is one side; far above the threshold
    # every run stops at the first answer, so those sides share counts, and
    # with both holes off no side draws at all
    distinct_sides = len(masks) * (len(sides) - 1)
    assert len(patterns) == len(set(patterns)) == len(want) < distinct_sides
    assert bank.runs_grouped == bank.m * distinct_sides


def _reachable(obj):
    yield obj
    items = obj.values() if isinstance(obj, dict) else obj
    if isinstance(obj, (dict, tuple, list)):
        for item in items:
            yield from _reachable(item)


def test_bank_keeps_event_hits_not_outputs(monkeypatch):
    # a bank counts each side's hits once per off-mask, in the kernel call
    # that makes them, and keeps the hits instead of the kernel's outputs
    sketch = load_benchmark("svt")
    bank = PresampleBank(sketch, {"qlen": 5, "T": 2, "N": 1}, m=2000,
                         scales=MIXTURE8, seed=0)
    d1, d2, d3 = (0, 0, 0, 0, 0), (1, 1, 0, 1, 1), (1, 1, 1, 1, 1)
    events = [PrefixEvent((False,)), PrefixEvent((False, True)),
              ValueEvent((False,) * 5), ValueEvent((True,))]
    examples = [Example(d1=a, d2=b, event=e, direction=(1, 1), scale=1.0,
                        p_value=0.5)
                for e in events for a, b in ((d1, d2), (d2, d1), (d2, d3))]
    cands = [(2.0, 4.0), (None, 4.0), (3.0, 6.0), (2.0, None)]
    calls = []
    real = search.event_hits

    def counted(events, outputs):
        calls.append(events)
        return real(events, outputs)

    monkeypatch.setattr(search, "event_hits", counted)
    example_losses_with_se(bank, examples, cands, 2.0)
    assert len(calls) == len(bank._runs) == 3 * 3    # sides x off-masks
    for (answers, mask, events), (hits, groups, per_row) in bank._runs.items():
        outputs, _ = compile_sketch(sketch, mask)(bank.args, answers,
                                                  bank.draws)
        want = real(events, outputs)
        assert hits.dtype == bool and np.array_equal(hits, want)
        assert np.array_equal(per_row, [
            np.bincount(groups.index, weights=f, minlength=len(groups.mult))
            for f in want])
    assert not any(isinstance(obj, Outputs)
                   for obj in _reachable(vars(bank)))


def test_weight_coeffs_match_log_weight_coeffs_to_the_bit():
    sketch = parse_sketch(LAP_EXP)
    grid = [SNAP_THRESHOLD, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.25, 12.0,
            BOX_MAX, 1e6]
    for scales in ((PROPOSAL,), (3.0, 0.5, 8.0), (0.7,)):
        bank = PresampleBank(sketch, {"qlen": 5}, m=100, scales=scales,
                             seed=0)
        cands = [(a, b) for a in grid + [None] for b in grid + [None]]
        coeffs = bank.weight_coeffs(cands)
        for b, cand in enumerate(cands):
            for h, hole in enumerate(sketch.holes):
                if cand[h] is None:
                    assert coeffs[h, b] == coeffs[2 + h, b] == 0.0
                    continue
                alpha, beta = log_weight_coeffs(hole.family, cand[h],
                                                scales[0])
                assert coeffs[h, b] == alpha and coeffs[2 + h, b] == beta
            assert coeffs[4, b] == -1.0
    with pytest.raises(ValueError, match="too large"):
        bank.weight_coeffs([(1e17, 1.0)])


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def test_objective_minimized_near_inverse_epsilon(bank):
    ex = [_shift_example()]
    # loss of the one-sided event is exactly e^(1/b): the main term vanishes
    # at b = 1/eps = 2 and only the sparsity charge remains
    at_two = batch_objective(bank, ex, [(2.0,)], EPS, lam=1.0)[0]
    assert at_two == pytest.approx(1.0, abs=0.15)
    assert at_two < batch_objective(bank, ex, [(0.5,)], EPS, lam=1.0)[0]
    assert at_two < batch_objective(bank, ex, [(8.0,)], EPS, lam=1.0)[0]


def test_objective_no_noise_on_separating_example(bank):
    assert batch_objective(bank, [_shift_example()], [(None,)], EPS,
                           lam=1.0)[0] > 1000.0


def test_objective_deterministic_with_shared_bank(bank):
    ex = [_shift_example()]
    assert (batch_objective(bank, ex, [(1.3,)], EPS, lam=0.0)[0]
            == batch_objective(bank, ex, [(1.3,)], EPS, lam=0.0)[0])


def test_objective_lower_bound(bank):
    ex = [_shift_example()]
    cands = [(0.7,), (3.0,), (None,), (12.0,)]
    lam = 2.5
    objs = batch_objective(bank, ex, cands, EPS, lam=lam)
    l0 = np.array([sum(v is not None for v in c) for c in cands])
    assert (objs >= lam * l0 - 1e-12).all()


def test_objective_requires_examples(bank):
    with pytest.raises(ValueError):
        batch_objective(bank, [], [(2.0,)], EPS, lam=1.0)


# ---------------------------------------------------------------------------
# Differential evolution
# ---------------------------------------------------------------------------

def test_region_validation(bank):
    ex = [_shift_example()]
    with pytest.raises(ValueError):
        get_noise_region(bank, ex, EPS, lam=1.0, population=3,
                         steps=500, seed=0)
    with pytest.raises(ValueError):
        get_noise_region(bank, ex, EPS, lam=1.0, population=50, steps=0,
                         seed=0)


@pytest.fixture(scope="module")
def micro_region(bank):
    return get_noise_region(bank, [_shift_example()], EPS, lam=1.0,
                            population=20, steps=60, seed=5)


def test_region_population_and_order(micro_region):
    region = micro_region
    assert len(region.entries) == 20
    objs = [obj for _, obj in region.entries]
    assert objs == sorted(objs)
    assert region.best() == region.entries[0]


def test_best_objective_never_worsens(bank, micro_region):
    # DE at k steps is a prefix of DE at k + 1 steps at one seed
    best = [get_noise_region(bank, [_shift_example()], EPS, lam=1.0,
                             population=20, steps=steps, seed=5).best()[1]
            for steps in (1, 5, 20)] + [micro_region.best()[1]]
    assert all(b <= a + 1e-12 for a, b in zip(best, best[1:]))


def test_optimizer_finds_inverse_epsilon_scale(micro_region):
    region = micro_region
    best_vec, best_obj = region.best()
    assert best_vec[0] is not None
    assert 1.5 <= best_vec[0] <= 2.6
    assert best_obj == pytest.approx(1.0, abs=0.15)


def test_region_deterministic(bank):
    ex = [_shift_example()]
    a = get_noise_region(bank, ex, EPS, lam=1.0, population=8, steps=5,
                         seed=11)
    b = get_noise_region(bank, ex, EPS, lam=1.0, population=8, steps=5,
                         seed=11)
    assert a.entries == b.entries


def test_region_json_round_trip(micro_region):
    region = micro_region
    d = region.to_json()
    assert set(d) == {"entries", "champions", "target_eps", "lam", "seed",
                      "population", "steps"}
    assert len(d["entries"]) == 20
    assert d["entries"][0]["objective"] == pytest.approx(region.best()[1])


def test_region_champions_cover_visited_masks(micro_region):
    region = micro_region
    masks = {tuple(v is None for v in vec) for vec, _ in region.champions}
    assert len(masks) == len(region.champions)
    # the single-hole box is sampled on both sides of the snap threshold,
    # so both the noisy and the no-noise mask get a champion
    assert masks == {(False,), (True,)}
    # the best champion can never beat the best population member
    assert region.champions[0][1] >= region.best()[1] - 1e-12


# ---------------------------------------------------------------------------
# Example discovery
# ---------------------------------------------------------------------------

def test_select_examples_zone_and_provenance(micro_scalar):
    args = {"eps": 0.5, "qlen": 5}
    found = select_examples(micro_scalar, args, scale_grid=(0.5, 2.0, 8.0),
                            trials=2000, seed=0)
    assert found
    keys = [(ex.d1, ex.d2, ex.event) for ex in found]
    assert len(set(keys)) == len(keys)
    for ex in found:
        # either an ambiguity-zone hit or a flagged decision cell (anchor)
        assert ex.p_value <= 0.9
        assert ex.direction == (1,)
        assert ex.scale in (0.5, 2.0, 8.0)
        assert all(abs(x - y) <= 1 for x, y in zip(ex.d1, ex.d2))
    # the 0.5-scale sweep is far too little noise for eps = 1/2, so its
    # violating decision cells must appear as anchors below the zone
    assert any(ex.p_value < 0.05 and ex.scale == 0.5 for ex in found)


def test_select_examples_deterministic(micro_scalar):
    args = {"eps": 0.5, "qlen": 5}
    a = select_examples(micro_scalar, args, scale_grid=(2.0,), trials=2000,
                        seed=4)
    b = select_examples(micro_scalar, args, scale_grid=(2.0,), trials=2000,
                        seed=4)
    assert a == b


def test_select_examples_rejects_empty_grid(micro_scalar):
    with pytest.raises(ValueError):
        select_examples(micro_scalar, {"eps": 0.5, "qlen": 5}, scale_grid=(),
                        trials=20000, seed=0)


def test_select_examples_widens_the_zone_once_when_nothing_qualifies(
        micro_scalar, monkeypatch):
    # the first sweep finds no cell, so the second reads the band
    # [0.01, 0.99] at twice the trials
    calls = []
    real = search.test_mechanism

    def first_sweep_empty(sketch, binding, vec, *, trials, band, **kw):
        calls.append((tuple(vec), trials, band))
        if band == ZONE:
            return []
        return real(sketch, binding, vec, trials=trials, band=band, **kw)

    monkeypatch.setattr(search, "test_mechanism", first_sweep_empty)
    found = select_examples(micro_scalar, {"eps": 0.5, "qlen": 5},
                            scale_grid=(2.0,), trials=1000, seed=0)
    assert calls == [((2.0,), 1000, ZONE), ((2.0,), 2000, (0.01, 0.99))]
    assert found
    assert all(0.01 <= ex.p_value <= 0.99 for ex in found)
    assert any(ex.p_value > ZONE[1] for ex in found)
