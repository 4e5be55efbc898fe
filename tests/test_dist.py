"""Distribution oracles and invariants.

Frozen expected values were computed from the closed forms independently of
the module under test (geometric series algebra; tanh identity for the
center mass)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from mechsynth.dist import (DiscreteExponential, DiscreteLaplace,
                            log_norm_const, log_weight_coeffs, make_dist)

SCALES = (0.5, 1.0, 2.0, 4.0)


# ---------------------------------------------------------------------------
# pmf / normalizer / tail oracles
# ---------------------------------------------------------------------------

def test_dlap_center_mass_oracle():
    # (1-q)/(1+q) = tanh(1/(2b))
    assert DiscreteLaplace(1.0).pmf(0) == pytest.approx(0.462117157260, abs=1e-12)
    assert DiscreteLaplace(2.0).pmf(0) == pytest.approx(0.244918662404, abs=1e-12)
    assert DiscreteLaplace(2.0).pmf(0) == pytest.approx(math.tanh(0.25), abs=1e-15)


def test_dlap_normalizer_closed_form():
    # sum_k q^|k| = (1+q)/(1-q); norm_const stores its reciprocal C(b)
    expected = {0.5: 1.313035285499, 1: 2.163953413739,
                2: 4.082988165074, 4: 8.041623328376}
    for b, norm in expected.items():
        assert 1.0 / DiscreteLaplace(b).norm_const == pytest.approx(
            norm, abs=1e-12)


def test_dlap_pmf_sums_to_one_with_tail():
    for b in SCALES:
        d = DiscreteLaplace(b)
        center = sum(d.pmf(k) for k in range(-60, 61))
        tails = d.tail(61) * 2  # symmetric
        assert center + tails == pytest.approx(1.0, abs=1e-9)


def test_dlap_tail_oracle():
    assert DiscreteLaplace(2.0).tail(5) == pytest.approx(0.051094573345, abs=1e-12)


def test_dexp_pmf_and_tail_oracle():
    d = DiscreteExponential(3.0)
    assert d.pmf(2) == pytest.approx(0.145537677861, abs=1e-12)
    assert d.tail(4) == pytest.approx(0.263597138116, abs=1e-12)
    assert d.pmf(-1) == 0.0
    total = sum(d.pmf(k) for k in range(0, 80)) + d.tail(80)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_make_dist_families():
    assert isinstance(make_dist("lap", 2.0), DiscreteLaplace)
    assert isinstance(make_dist("exp", 2.0), DiscreteExponential)
    assert make_dist("exp", 3.0) == DiscreteExponential(3.0)
    with pytest.raises(ValueError):
        make_dist("gauss", 2.0)
    with pytest.raises(ValueError):
        make_dist("lap", 0.0)


@pytest.mark.parametrize("cls", [DiscreteLaplace, DiscreteExponential])
def test_scales_whose_q_rounds_to_one_are_refused(cls):
    # e^(-1/b) rounds to 1 from b = 2^54 on, where no draw is defined
    for scale in (2.0 ** 54, 1e17, math.inf):
        with pytest.raises(ValueError, match="too large"):
            cls(scale)
    d = cls(2.0 ** 53)
    assert 0 < d.q < 1
    draws = d.sample_array(np.random.default_rng(0), 100)
    assert draws.dtype == np.int64


# ---------------------------------------------------------------------------
# adjacent-shift ratio invariant
# ---------------------------------------------------------------------------

@given(b=st.sampled_from(SCALES), k=st.integers(-30, 30))
def test_dlap_adjacent_mean_ratio_bound(b, k):
    # noise added to 0 against noise added to 1: P[0 + X = k] / P[1 + X = k]
    d = DiscreteLaplace(b)
    ratio = d.pmf(k) / d.pmf(k - 1)
    bound = math.exp(1.0 / b)
    assert ratio <= bound * (1 + 1e-12)
    if k <= 0:
        assert ratio == pytest.approx(bound, rel=1e-12)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_sampler_chi_square_against_pmf():
    d = DiscreteLaplace(2.0)
    rng = np.random.default_rng(7)
    draws = d.sample_array(rng, 100000)
    lo, hi = -8, 8
    obs = np.array([(draws == k).sum() for k in range(lo, hi + 1)], dtype=float)
    obs = np.append(obs, (draws < lo).sum() + (draws > hi).sum())
    exp = np.array([d.pmf(k) for k in range(lo, hi + 1)])
    exp = np.append(exp, 2 * d.tail(hi + 1)) * len(draws)
    stat, p = chisquare(obs, exp)
    assert p > 1e-3


def test_dexp_sampler_matches_pmf():
    d = DiscreteExponential(2.0)
    rng = np.random.default_rng(3)
    draws = d.sample_array(rng, 100000)
    assert draws.min() >= 0
    obs = np.array([(draws == k).sum() for k in range(0, 12)], dtype=float)
    obs = np.append(obs, (draws >= 12).sum())
    exp = np.array([d.pmf(k) for k in range(0, 12)])
    exp = np.append(exp, d.tail(12)) * len(draws)
    stat, p = chisquare(obs, exp)
    assert p > 1e-3


# p = 1 - e^(-1/b) crosses 1/3, where numpy's geometric switches from
# inversion to search, at b = 1/ln 1.5 ~ 2.4663
@pytest.mark.parametrize("scale", [0.5, 2.0, 2.466, 2.467, 4.0, 100.0, 1e6,
                                   1e15])
@pytest.mark.parametrize("size", [(500, 5), 7])
def test_samplers_are_numpy_geometric_draws(scale, size):
    # a draw is defined by Generator.geometric, and a block leaves the
    # generator where those calls leave it
    p = 1.0 - math.exp(-1.0 / scale)
    reference = {
        "lap": lambda r: (r.geometric(p, size).astype(np.int64)
                          - r.geometric(p, size)),
        "exp": lambda r: r.geometric(p, size).astype(np.int64) - 1}
    for family, draw in reference.items():
        ours, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = make_dist(family, scale).sample_array(ours, size)
        want = draw(ref)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == ref.bit_generator.state


def test_sampling_is_deterministic_per_seed():
    d = DiscreteLaplace(3.0)
    a = d.sample_array(np.random.default_rng(42), 100)
    b = d.sample_array(np.random.default_rng(42), 100)
    assert (a == b).all()


# ---------------------------------------------------------------------------
# importance weights
# ---------------------------------------------------------------------------

def test_log_weight_coeffs_oracle():
    alpha, beta = log_weight_coeffs("lap", 2.0, 4.0)
    assert alpha == pytest.approx(0.677801855578, abs=1e-12)
    assert beta == pytest.approx(-0.25, abs=1e-15)


def test_log_norm_const_is_the_distributions_to_the_bit():
    for family in ("lap", "exp"):
        for scale in (0.25, 0.3, 0.5, 1.0, 1.5, 2.0, 7.25, 16.0, 1e6, 1e15):
            assert (log_norm_const(family, scale)
                    == math.log(make_dist(family, scale).norm_const))
        with pytest.raises(ValueError, match="too large"):
            log_norm_const(family, 1e17)
    with pytest.raises(ValueError, match="unknown noise family"):
        log_norm_const("gauss", 1.0)


# alpha + beta * |v| is the log pmf ratio target / proposal at v

@given(v=st.integers(-20, 20), t=st.sampled_from(SCALES),
       p=st.sampled_from(SCALES))
def test_weight_ratio_consistent_with_pmfs(v, t, p):
    expected = (DiscreteLaplace(t).logpmf(v)
                - DiscreteLaplace(p).logpmf(v))
    alpha, beta = log_weight_coeffs("lap", t, p)
    assert alpha + beta * abs(v) == pytest.approx(expected, rel=1e-10,
                                                  abs=1e-12)


@given(v=st.integers(0, 20), t=st.sampled_from(SCALES), p=st.sampled_from(SCALES))
def test_weight_ratio_exp_consistent(v, t, p):
    expected = (DiscreteExponential(t).logpmf(v)
                - DiscreteExponential(p).logpmf(v))
    alpha, beta = log_weight_coeffs("exp", t, p)
    assert alpha + beta * v == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_weight_ratio_bottom_target_rejected():
    # a no-noise hole draws nothing, so it has no weight to reweight to
    with pytest.raises(ValueError):
        log_weight_coeffs("lap", None, 4.0)


def test_weight_ratio_out_of_support():
    # exponential draws below 0 have no mass at any scale, so the
    # weight identity covers v >= 0 only
    assert DiscreteExponential(2.0).logpmf(-1) == -np.inf
    assert DiscreteExponential(4.0).logpmf(-1) == -np.inf


@given(t=st.sampled_from(SCALES))
def test_weight_ratio_identity_when_target_is_proposal(t):
    for family in ("lap", "exp"):
        alpha, beta = log_weight_coeffs(family, t, t)
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert beta == pytest.approx(0.0, abs=1e-12)
