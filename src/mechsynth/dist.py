"""Integer noise distributions used by the mechanism runtime.

Two families, both parameterized by a positive ``scale`` b with q = e^(-1/b):

* two-sided geometric ("discrete Laplace"), centred at 0:
  pmf(k) = C(b) q^|k| over all integers, C(b) = (1 - q) / (1 + q);
* one-sided geometric ("discrete exponential"), starting at 0:
  pmf(k) = (1 - q) q^k for k >= 0.

Both expose exact pmf/logpmf/tail (the oracles the samplers and the
estimator are tested against) and vectorized sampling.  A draw is defined
by numpy's ``Generator.geometric`` with p = 1 - q: a Laplace block of
``size`` is ``geometric(p, size) - geometric(p, size)``, an exponential
block ``geometric(p, size) - 1``.  For p < 1/3 numpy computes each
geometric value as ceil(-E / log1p(-p)) from one ``standard_exponential``
E, so the samplers draw those exponentials in one call and finish the
arithmetic on whole arrays (:func:`_geometric`): the same values and the
same generator state afterwards, at about half the cost.  Closed-form
importance-weight pieces reweight draws from one scale to another: per draw
v the log weight is ``alpha + beta * |v|`` with coefficients depending only
on the two scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteLaplace", "DiscreteExponential", "make_dist", "log_weight_coeffs",
]


def _check_scale(scale):
    if scale is None or not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    # from b = 2^54 (about 1.8e16) on, e^(-1/b) rounds to 1 and no draw is
    # defined
    if math.exp(-1.0 / scale) == 1.0:
        raise ValueError(f"scale {scale:g} is too large: e^(-1/scale) "
                         "rounds to 1")


@dataclass(frozen=True)
class DiscreteLaplace:
    """Symmetric integer noise: pmf(k) = C q^|k|, C = (1-q)/(1+q)."""

    scale: float

    def __post_init__(self):
        _check_scale(self.scale)

    @property
    def q(self) -> float:
        return math.exp(-1.0 / self.scale)

    @property
    def norm_const(self) -> float:
        q = self.q
        return (1.0 - q) / (1.0 + q)

    def pmf(self, value):
        k = np.abs(np.asarray(value))
        return (self.norm_const * np.exp(-k / self.scale))[()]

    def logpmf(self, value):
        k = np.abs(np.asarray(value))
        return (math.log(self.norm_const) - k / self.scale)[()]

    def tail(self, k: int) -> float:
        """One-sided tail mass P[X >= k] for k >= 1 (left side equal)."""
        if k < 1:
            raise ValueError("tail() covers offsets k >= 1 from the mean")
        q = self.q
        return self.norm_const * q**k / (1.0 - q)

    def sample_array(self, rng: np.random.Generator, size) -> np.ndarray:
        g = _geometric(rng, 1.0 - self.q, (2, *np.broadcast_shapes(size)))
        return g[0] - g[1]


@dataclass(frozen=True)
class DiscreteExponential:
    """One-sided integer noise: pmf(k) = (1-q) q^k for k >= 0."""

    scale: float

    def __post_init__(self):
        _check_scale(self.scale)

    @property
    def q(self) -> float:
        return math.exp(-1.0 / self.scale)

    @property
    def norm_const(self) -> float:
        return 1.0 - self.q

    def pmf(self, value):
        k = np.asarray(value)
        out = self.norm_const * np.exp(-k / self.scale)
        return np.where(k >= 0, out, 0.0)[()]

    def logpmf(self, value):
        k = np.asarray(value)
        out = math.log(self.norm_const) - k / self.scale
        return np.where(k >= 0, out, -np.inf)[()]

    def tail(self, k: int) -> float:
        """Tail mass P[X >= k]."""
        if k < 0:
            return 1.0
        return self.q**k

    def sample_array(self, rng: np.random.Generator, size) -> np.ndarray:
        return _geometric(rng, 1.0 - self.q, size) - 1


def _geometric(rng: np.random.Generator, p: float, size) -> np.ndarray:
    """``rng.geometric(p, size)`` as int64, value for value, leaving ``rng``
    in the same state.  A leading axis splits the block into the draws of
    consecutive ``geometric`` calls.

    Below p = 1/3 numpy draws ceil(-E / log1p(-p)) per value, E from
    ``standard_exponential`` (and clamps values from 2^63 on, which no
    scale ``_check_scale`` admits reaches: p >= 2^-53 and E < 45); from
    1/3 on it searches the cdf with one uniform per value and is called
    as is."""
    if p >= 1.0 / 3.0:
        return rng.geometric(p, size).astype(np.int64)
    return np.ceil(rng.standard_exponential(size) / -math.log1p(-p)) \
        .astype(np.int64)


_FAMILIES = {"lap": DiscreteLaplace, "exp": DiscreteExponential}


def make_dist(family: str, scale: float):
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown noise family {family!r}") from None
    return cls(scale)


def log_weight_coeffs(family: str, target_scale: float, proposal_scale: float):
    """Coefficients (alpha, beta) of the per-draw log importance weight.

    For a centered draw v sampled at ``proposal_scale`` and reweighted to
    ``target_scale``, log w(v) = alpha + beta * |v| (the Laplace pmf depends
    on |v|; exponential draws are nonnegative, so |v| = v there).
    """
    target = make_dist(family, target_scale)
    proposal = make_dist(family, proposal_scale)
    alpha = math.log(target.norm_const) - math.log(proposal.norm_const)
    beta = 1.0 / proposal_scale - 1.0 / target_scale
    return alpha, beta

