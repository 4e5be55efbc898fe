"""Example discovery, importance-sampling estimator, and optimizer tests.

Estimator oracles compare against closed-form discrete-Laplace masses from
the dist module; the one-sided-event loss oracle uses the fact that a
single Laplace draw shifted by one unit has exactly e^(1/b) probability
ratio on the event {out <= 0}.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechsynth.config import RunConfig
from mechsynth.dist import make_dist
from mechsynth.lang import parse_sketch
from mechsynth.search import (BOX_MAX, SNAP_THRESHOLD, Example, NoiseRegion,
                              PresampleBank, batch_objective, directions,
                              example_losses, example_losses_with_se,
                              get_noise_region, select_examples, snap_vector)
from mechsynth.tester import HalfLineEvent, ValueEvent

EPS = 0.5
PROPOSAL = RunConfig().proposal_scale
ZONE = RunConfig().zone
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
                         proposal_scale=PROPOSAL, seed=3)


@pytest.fixture(scope="module")
def mixture_bank(micro_scalar):
    return PresampleBank(micro_scalar, {"qlen": 5}, m=50000,
                         proposal_scale=PROPOSAL, seed=3,
                         mixture=(0.5, 1.0, 2.0, 4.0, 8.0, 12.0))


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
        got = _estimate(bank, D1, ValueEvent(frozenset([0])),
                                  (scale,))
        assert got == pytest.approx(want, rel=0.05)


def test_estimate_at_proposal_equals_plain_frequency(bank, micro_scalar):
    # weight of the proposal against itself is one, so the estimate is the
    # raw frequency of the event among the memoized runs
    outputs, _ = bank.runs_for(D1, (False,))
    event = ValueEvent(frozenset([0]))
    freq = sum(event.contains(o) for o in outputs) / bank.m
    got = _estimate(bank, D1, event, (bank.proposal_scale,))
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
        _estimate(bank, D1, ValueEvent(frozenset([0])), (2.0, 2.0))
    with pytest.raises(ValueError):
        bank.estimate({D1: (ValueEvent(frozenset([0])),)}, [(2.0,), (None,)])


def test_no_noise_candidate_is_deterministic(bank):
    # the off-mask path re-simulates runs without consuming the trace
    assert _estimate(bank, D2, ValueEvent(frozenset([1])),
                               (None,)) == 1.0 - 1.0 / (10 * bank.m)
    assert _estimate(bank, D2, ValueEvent(frozenset([2])),
                               (None,)) == 1.0 / (10 * bank.m)


def test_mixture_bank_accurate_far_from_proposal(mixture_bank):
    for scale in (0.5, 2.0, 12.0):
        want = make_dist("lap", scale).pmf(0)
        got = _estimate(mixture_bank, D1,
                                  ValueEvent(frozenset([0])), (scale,))
        assert got == pytest.approx(want, rel=0.05)


def test_estimates_are_deterministic(micro_scalar):
    a = PresampleBank(micro_scalar, {"qlen": 5}, m=20000,
                      proposal_scale=PROPOSAL, seed=9)
    b = PresampleBank(micro_scalar, {"qlen": 5}, m=20000,
                      proposal_scale=PROPOSAL, seed=9)
    ev = ValueEvent(frozenset([0]))
    assert (_estimate(a, D1, ev, (1.5,))
            == _estimate(b, D1, ev, (1.5,)))


def test_weight_coeffs_shape(bank):
    coeffs = bank.weight_coeffs([(2.0,), (None,), (4.0,)])
    assert coeffs.shape == (2, 3)


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


def test_event_floor_neutralizes_unresolvable_examples(bank):
    ex = _shift_example()
    with_floor = example_losses(bank, [ex], [(2.0,)], floor=0.9)
    assert with_floor[0, 0] == 1.0
    without = example_losses(bank, [ex], [(2.0,)], floor=0.0)
    assert without[0, 0] > 1.5


def test_event_floor_keeps_resolvable_examples(bank):
    ex = _shift_example()
    # the event has probability ~1/2 on both sides, far above the floor
    a = example_losses(bank, [ex], [(2.0,)], floor=1e-4)
    b = example_losses(bank, [ex], [(2.0,)], floor=0.0)
    assert a[0, 0] == b[0, 0]


def test_losses_with_se_match_example_losses(bank):
    ex = [_shift_example()]
    cands = [(0.5,), (2.0,), (None,)]
    losses, se = example_losses_with_se(bank, ex, cands, 2.0, floor=1e-4)
    assert (losses == example_losses(bank, ex, cands, floor=1e-4)).all()
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
    ("micro", ValueEvent(frozenset([4])), (2.0,), None),
    ("micro", HalfLineEvent(0, "le"), (2.0,), (0.5, 2.0, 8.0)),
    ("stop", ValueEvent(frozenset([2])), (2.0, 3.0), None),
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
                             proposal_scale=PROPOSAL, seed=100 + seed,
                             mixture=mixture)
        loss, se = example_losses_with_se(bank, [ex], [cand], 2.0)
        log_losses.append(math.log(loss[0, 0]))
        ses.append(se[0, 0])
    if source == "stop":
        mask = (False, False)
        assert bank._stats_fp[(D1, mask)] != bank._stats_fp[(D2, mask)]
    assert np.mean(ses) == pytest.approx(np.std(log_losses, ddof=1), rel=0.3)


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def test_objective_minimized_near_inverse_epsilon(bank):
    ex = [_shift_example()]
    # loss of the one-sided event is exactly e^(1/b): the main term vanishes
    # at b = 1/eps = 2 and only the sparsity charge remains
    at_two = batch_objective(bank, ex, [(2.0,)], EPS)[0]
    assert at_two == pytest.approx(1.0, abs=0.15)
    assert at_two < batch_objective(bank, ex, [(0.5,)], EPS)[0]
    assert at_two < batch_objective(bank, ex, [(8.0,)], EPS)[0]


def test_objective_no_noise_on_separating_example(bank):
    assert batch_objective(bank, [_shift_example()], [(None,)], EPS)[0] > 1000.0


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
        batch_objective(bank, [], [(2.0,)], EPS)


# ---------------------------------------------------------------------------
# Differential evolution
# ---------------------------------------------------------------------------

def test_region_validation(bank):
    ex = [_shift_example()]
    with pytest.raises(ValueError):
        get_noise_region(bank, ex, 1, EPS, population=3)
    with pytest.raises(ValueError):
        get_noise_region(bank, ex, 1, EPS, steps=0)


@pytest.fixture(scope="module")
def micro_region(bank):
    history = []
    region = get_noise_region(bank, [_shift_example()], 1, EPS,
                              population=20, steps=60, seed=5,
                              history=history)
    return region, history


def test_region_population_and_order(micro_region):
    region, _ = micro_region
    assert len(region.entries) == 20
    objs = [obj for _, obj in region.entries]
    assert objs == sorted(objs)
    assert region.best() == region.entries[0]


def test_best_objective_never_worsens(micro_region):
    _, history = micro_region
    assert len(history) == 61
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_optimizer_finds_inverse_epsilon_scale(micro_region):
    region, _ = micro_region
    best_vec, best_obj = region.best()
    assert best_vec[0] is not None
    assert 1.5 <= best_vec[0] <= 2.6
    assert best_obj == pytest.approx(1.0, abs=0.15)


def test_region_deterministic(bank):
    ex = [_shift_example()]
    a = get_noise_region(bank, ex, 1, EPS, population=8, steps=5, seed=11)
    b = get_noise_region(bank, ex, 1, EPS, population=8, steps=5, seed=11)
    assert a.entries == b.entries


def test_region_json_round_trip(micro_region):
    region, _ = micro_region
    d = region.to_json()
    assert set(d) == {"entries", "champions", "target_eps", "lam", "seed",
                      "population", "steps"}
    assert len(d["entries"]) == 20
    assert d["entries"][0]["objective"] == pytest.approx(region.best()[1])


def test_region_champions_cover_visited_masks(micro_region):
    region, _ = micro_region
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
                            trials=2000, seed=0, zone=ZONE)
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
                        seed=4, zone=ZONE)
    b = select_examples(micro_scalar, args, scale_grid=(2.0,), trials=2000,
                        seed=4, zone=ZONE)
    assert a == b


def test_select_examples_rejects_empty_grid(micro_scalar):
    with pytest.raises(ValueError):
        select_examples(micro_scalar, {"eps": 0.5, "qlen": 5}, scale_grid=(),
                        zone=ZONE)
