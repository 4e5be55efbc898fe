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
block ``geometric(p, size) - 1``.  The samplers replay both of numpy's
algorithms on whole arrays (:class:`_Geometric`), with the same values and
the same generator state afterwards.  Below p = 1/3 numpy computes each
value as ceil(-E / log1p(-p)) from one ``standard_exponential`` E; from 1/3
on it searches the cdf, comparing one ``next_double`` u per value against
running sums of the pmf, which a guide table replays.  In one case numpy's
search never ends: where the running sums stop growing below the largest u,
1 - 2^-53 (at scale 2 they stop at 1 - 3 * 2^-53), a u above the last sum
loops forever; the replay returns one more than the number of distinct
sums there.  Closed-form importance-weight pieces reweight draws
from one scale to another: per draw v the log weight is
``alpha + beta * |v|`` with coefficients depending only on the two scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DiscreteLaplace", "DiscreteExponential", "make_dist", "log_norm_const",
    "log_weight_coeffs",
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

    @cached_property
    def _geometric(self):
        return _Geometric(1.0 - self.q)

    def sample_array(self, rng: np.random.Generator, size) -> np.ndarray:
        g = self._geometric(rng, (2, *np.broadcast_shapes(size)))
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

    @cached_property
    def _geometric(self):
        return _Geometric(1.0 - self.q)

    def sample_array(self, rng: np.random.Generator, size) -> np.ndarray:
        return self._geometric(rng, size) - 1


# numpy's geometric searches the cdf from p = 1/3 on (the double nearest it)
_SEARCH_FROM = 1.0 / 3.0
_GUIDE = 256          # equal buckets of [0, 1) in the guide table
# terms of the running sums: they stop growing once p q^j is at most 2^-54,
# half an ulp of a sum near 1, within 90 terms from p = 1/3 on
_SUM_TERMS = 128


class _Geometric:
    """``rng.geometric(p, size)`` as int64, value for value, leaving
    ``rng`` in the same state.  A leading axis splits the block into the
    draws of consecutive ``geometric`` calls.

    Below p = 1/3 numpy draws ceil(-E / log1p(-p)) per value, E from
    ``standard_exponential`` (and clamps values from 2^63 on, which no
    scale ``_check_scale`` admits reaches: p >= 2^-53 and E < 45), which
    is replayed on the whole block in place.  From 1/3 on numpy draws one
    u = ``next_double`` per value and returns the least j with
    u <= s_j, the running sums s_1 = p, s_{j+1} = s_j + p q^j computed as
    ``prod *= q; sum += prod``: that is 1 + #{sums < u}.  The replay
    computes the sums by the same float operations (``cumprod`` and
    ``cumsum`` accumulate in order) and the count through a guide table
    (Chen & Asau 1974; Devroye 1986, III.2.4): ``_guide[b]`` is
    1 + #{sums < b / _GUIDE}, and a bucket that holds at most one sum adds
    1 when u passes it.  The few tail buckets that hold several sums, from
    ``_tail`` on, are searched."""

    def __init__(self, p: float):
        self.p = p
        if p < _SEARCH_FROM:
            return
        f = np.full(_SUM_TERMS, 1.0 - p)
        f[0] = p
        sums = np.cumsum(np.cumprod(f))
        # up to the first sum that reaches the last, largest value
        self._sums = sums[:np.searchsorted(sums, sums[-1]) + 1]
        below = np.searchsorted(self._sums, np.arange(_GUIDE + 1) / _GUIDE)
        self._guide = below[:-1] + 1
        # _next[j] is sum j (1-based); j past the last sum reads 2 > u
        self._next = np.concatenate(([0.0], self._sums, [2.0]))
        crowded = np.flatnonzero(np.diff(below) > 1)
        self._tail = crowded[0] / _GUIDE if len(crowded) else 1.0

    def __call__(self, rng: np.random.Generator, size) -> np.ndarray:
        p = self.p
        if p >= _SEARCH_FROM:
            return self.search(rng.random(size))
        e = rng.standard_exponential(size)
        np.divide(e, -math.log1p(-p), out=e)
        return np.ceil(e, out=e).astype(np.int64)

    def search(self, u: np.ndarray) -> np.ndarray:
        """1 + #{sums < u} per uniform of ``u``, for p >= _SEARCH_FROM:
        numpy's value for each u up to the last sum, and one more than the
        number of sums above it."""
        flat = u.ravel()
        x = self._guide[(flat * _GUIDE).astype(np.intp)]
        x += self._next[x] < flat
        far = np.flatnonzero(flat >= self._tail)
        x[far] = np.searchsorted(self._sums, flat[far]) + 1
        return x.reshape(u.shape)


_FAMILIES = {"lap": DiscreteLaplace, "exp": DiscreteExponential}


def make_dist(family: str, scale: float):
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown noise family {family!r}") from None
    return cls(scale)


def log_norm_const(family: str, scale: float) -> float:
    """ln C(b): ``math.log(make_dist(family, scale).norm_const)`` by the
    same float operations, without building the distribution."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown noise family {family!r}")
    _check_scale(scale)
    q = math.exp(-1.0 / scale)
    return math.log((1.0 - q) / (1.0 + q) if family == "lap" else 1.0 - q)


def log_weight_coeffs(family: str, target_scale: float, proposal_scale: float):
    """Coefficients (alpha, beta) of the per-draw log importance weight.

    For a centered draw v sampled at ``proposal_scale`` and reweighted to
    ``target_scale``, log w(v) = alpha + beta * |v| (the Laplace pmf depends
    on |v|; exponential draws are nonnegative, so |v| = v there).
    """
    alpha = (log_norm_const(family, target_scale)
             - log_norm_const(family, proposal_scale))
    beta = 1.0 / proposal_scale - 1.0 / target_scale
    return alpha, beta

