"""Statistical tester tests.

The frozen ``hypothesis_test`` values were produced by an independent
reimplementation of the thinning + Fisher construction written directly
against scipy.stats (binom.ppf over the shared uniforms, hypergeom.sf on
each thinned table); both implementations agree to better than 1e-12
relative, and the constants below are pinned from that cross-check.
"""

import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.special._ufuncs import _hypergeom_sf
from scipy.stats import binom, hypergeom

from mechsynth import tester
from mechsynth.cli import main
from mechsynth.config import FIXED_ARGS, ZONE, RunConfig
from mechsynth.lang import Outputs, RunError, parse_sketch
from mechsynth.synth import report_to_json, synth
from mechsynth.tester import (CoordEvent, HalfLineEvent, PrefixEvent,
                              ValueEvent, counterexample_record, decision_p,
                              event_hits, gen_events, gen_input_pairs,
                              hypothesis_test)
from tests.conftest import load_benchmark


def run_tester(sketch, args, noise, eps, *, trials, seed=0, qlen=5,
               return_all=False):
    """``test_mechanism`` at the binding of ``eps``, ``qlen`` and the
    sketch arguments ``args``: the minimum-p counterexample (None when
    there is none), and with ``return_all`` every candidate as well."""
    cands = tester.test_mechanism(sketch, {"eps": eps, "qlen": qlen, **args},
                                  noise, trials=trials, seed=seed)
    best = cands[0] if cands else None
    return (best, cands) if return_all else best


# ---------------------------------------------------------------------------
# hypothesis_test: frozen oracle values
# ---------------------------------------------------------------------------

FROZEN_P = [
    (300, 100, 1000, 0.1, 5.110442083708556e-22),
    (300, 100, 1000, 1.5, 0.9981835805188259),
    (120, 100, 1000, 0.5, 0.9921564439548172),
    (1000, 0, 1000, 0.5, 1.1215906488514587e-222),
    (900, 100, 1000, 0.1, 3.137582376469792e-236),
]


@pytest.mark.parametrize("c1,c2,n,eps,expected", FROZEN_P)
def test_hypothesis_test_frozen_values(c1, c2, n, eps, expected):
    assert hypothesis_test(c1, c2, n, eps) == pytest.approx(expected, rel=1e-9)


def test_hypothesis_test_equal_counts_accepts():
    # identical counts cannot witness a violation at any positive epsilon
    assert hypothesis_test(500, 500, 1000, 0.5) > 0.05
    assert hypothesis_test(500, 500, 1000, 0.5) == pytest.approx(1.0, rel=1e-6)
    assert hypothesis_test(0, 0, 1000, 0.5) == 1.0


def test_hypothesis_test_large_gap_rejects():
    assert hypothesis_test(900, 100, 1000, 0.1) < 1e-6


def test_hypothesis_test_epsilon_grid():
    got = [hypothesis_test(200, 100, 1000, e)
           for e in (0.2, 0.4, 0.6, 0.8, 1.0)]
    want = [7.270790009574911e-05, 0.027524218190824644, 0.3812844117238564,
            0.8658478008459737, 0.9909099726611853]
    assert got == pytest.approx(want, rel=1e-9)


@given(n=st.integers(10, 5000), f1=st.floats(0, 1), f2=st.floats(0, 1),
       e1=st.floats(0.05, 2.0), e2=st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_hypothesis_test_monotone_in_epsilon(n, f1, f2, e1, e2):
    # thinning harder (larger eps) can only make the table less extreme
    c1, c2 = int(f1 * n), int(f2 * n)
    lo, hi = sorted((e1, e2))
    assert hypothesis_test(c1, c2, n, lo) <= hypothesis_test(c1, c2, n, hi) + 1e-12


@given(n=st.integers(1, 3000), f1=st.floats(0, 1), f2=st.floats(0, 1),
       eps=st.floats(0.01, 3.0))
@settings(max_examples=60, deadline=None)
def test_hypothesis_test_in_unit_interval(n, f1, f2, eps):
    p = hypothesis_test(int(f1 * n), int(f2 * n), n, eps)
    assert 0.0 <= p <= 1.0


def screen_values(c1, c2, n, eps):
    """The screen's refined p-values of every cell, with no first stage."""
    memo = tester.FisherMemo()
    k, K, where, log_fact = tester._screen_setup(c1, c2, n, eps, memo)
    return memo.refine(k, K, where, n, log_fact)


def test_hypothesis_test_validation():
    with pytest.raises(ValueError):
        hypothesis_test(1, 1, 0, 0.5)
    with pytest.raises(ValueError):
        hypothesis_test(1001, 0, 1000, 0.5)
    with pytest.raises(ValueError):
        hypothesis_test(-1, 0, 1000, 0.5)
    with pytest.raises(ValueError):
        hypothesis_test(np.array([3, 1001]), np.array([0, 0]), 1000, 0.5)
    with pytest.raises(ValueError):
        hypothesis_test(np.array([3, 4]), np.array([0, -1]), 1000, 0.5)
    with pytest.raises(ValueError):
        hypothesis_test(np.array([3, 4]), np.array([0]), 1000, 0.5)
    # a NaN or negative epsilon has no thinning, with or without cells
    for eps in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="test epsilon"):
            hypothesis_test(30, 10, 100, eps)
        with pytest.raises(ValueError, match="test epsilon"):
            hypothesis_test(np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64), 100, eps)
        with pytest.raises(ValueError, match="test epsilon"):
            screen_values(np.array([30]), np.array([10]), 100, eps)


def test_batched_hypothesis_test_equals_one_call_per_cell(micro_scalar):
    # the cells of a real tester call, repeats included
    _, cands = run_tester(micro_scalar, {}, [2.0], 0.5, trials=2000, seed=3,
                          return_all=True)
    c1 = np.array([cx.c1 for cx in cands] * 2)
    c2 = np.array([cx.c2 for cx in cands] * 2)
    n = cands[0].n_side
    batch = hypothesis_test(c1, c2, n, 0.5)
    assert batch.shape == c1.shape
    assert len({(a, b) for a, b in zip(c1, c2)}) < len(c1)
    for a, b, p in zip(c1.tolist(), c2.tolist(), batch.tolist()):
        assert p == hypothesis_test(a, b, n, 0.5)
    grid = hypothesis_test(c1.reshape(2, -1), c2.reshape(2, -1), n, 0.5)
    assert (grid.ravel() == batch).all()


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_memo_backed_p_values_equal_fresh_ones(data):
    # one memo across calls of varying n and eps, counts repeating
    memo = tester.FisherMemo()
    for _ in range(data.draw(st.integers(1, 4))):
        n = data.draw(st.sampled_from([40, 500, 2000]))
        eps = data.draw(st.sampled_from([0.1, 0.5, 1.5]))
        cells = data.draw(st.lists(st.tuples(st.integers(0, n),
                                             st.integers(0, n)), max_size=20))
        c1 = np.array([a for a, _ in cells], dtype=np.int64)
        c2 = np.array([b for _, b in cells], dtype=np.int64)
        got = hypothesis_test(c1, c2, n, eps, memo=memo)
        assert got.shape == c1.shape
        assert got.tolist() == [hypothesis_test(a, b, n, eps)
                                for a, b in cells]


def test_hypothesis_test_of_no_cells_is_empty():
    empty = np.zeros(0, dtype=np.int64)
    for memo in (None, tester.FisherMemo()):
        p = hypothesis_test(empty, empty, 1000, 0.5, memo=memo)
        assert isinstance(p, np.ndarray) and p.shape == (0,)


# ---------------------------------------------------------------------------
# Exact kernels: bit identity with scipy.stats
# ---------------------------------------------------------------------------

def _same_bits(got, want):
    return np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 40])
def test_tails_are_hypergeom_sf_bit_for_bit_on_every_table(n):
    # every k in 0..n+1 and K in 0..2n: all reachable tables, k = 0, k - 1
    # just below max(0, K - n) and k - 1 >= min(K, n) among them
    tables = np.arange((n + 2) * (2 * n + 1))
    k, K = np.divmod(tables, 2 * n + 1)
    got = tester.FisherMemo().tails(n, tables)
    want = hypergeom.sf(k - 1, 2 * n, K, n)
    assert _same_bits(got, want)
    assert (got[k - 1 < np.maximum(0, K - n)] == 1.0).any()
    assert (got[k - 1 >= np.minimum(K, n)] == 0.0).any()


def test_tails_are_hypergeom_sf_bit_for_bit_at_n_2000():
    n = 2000
    rng = np.random.default_rng(11)
    k = rng.integers(0, n + 2, 24_000)
    K = rng.integers(0, 2 * n + 1, 24_000)
    # each edge of the support, around the thinned count k
    K[:3] = [0, 2 * n, n]
    k[3:6], K[3:6] = [1, 1, n + 1], [n, n + 1, 2 * n]
    tables = np.unique(k * (2 * n + 1) + K)
    k, K = np.divmod(tables, 2 * n + 1)
    assert len(tables) >= 20_000
    got = tester.FisherMemo().tails(n, tables)
    assert _same_bits(got, hypergeom.sf(k - 1, 2 * n, K, n))


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5, 1.5, 3.0])
def test_thinned_counts_are_binom_ppf(eps):
    # every count to 2,000 and a sample of the counts to 20,000
    sampled = np.random.default_rng(5).integers(2001, 20_001, 1000)
    counts = np.unique(np.concatenate([np.arange(2001), sampled, [20_000]]))
    got = tester.FisherMemo().thinned(counts, eps)
    want = binom.ppf(tester._THINNING_U, counts[:, None], math.exp(-eps))
    assert got.dtype == np.int64
    assert np.array_equal(got, want.astype(np.int64))


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about 0.8 s of every command's start
    src = os.path.dirname(os.path.dirname(tester.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mechsynth.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# Screening tails and the decision pick
# ---------------------------------------------------------------------------

def _support_points(n, K):
    lo, hi = max(0, K - n), min(K, n)
    return st.one_of(st.sampled_from(sorted({0, lo, lo + 1, hi, hi + 1})),
                     st.integers(0, n + 1))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_screen_tails_are_within_the_bound(data):
    n = data.draw(st.integers(1, 5000))
    Ks = data.draw(st.lists(st.one_of(st.sampled_from([0, n, 2 * n]),
                                      st.integers(0, 2 * n)),
                            min_size=1, max_size=12))
    k = np.array([data.draw(_support_points(n, K)) for K in Ks])
    K = np.array(Ks)
    log_fact = gammaln(np.arange(1.0, 2 * n + 2))
    got = tester._screen_tails(k, K, n, log_fact)
    want = hypergeom.sf(k - 1, 2 * n, K, n)
    assert (np.abs(got - want) <= tester._SCREEN_RHO * want
            + tester._SCREEN_ALPHA).all()
    assert (got[k <= np.maximum(0, K - n)] == 1.0).all()
    assert (got[k > np.minimum(K, n)] == 0.0).all()


def test_screen_makes_no_claim_beyond_its_rounding_bound():
    n = 200_000
    log_fact = gammaln(np.arange(1.0, 2 * n + 2))
    got = tester._screen_tails(np.array([n, n // 2]), np.array([n, n]), n,
                               log_fact)
    assert np.isnan(got).all()


def _precise_bounds(c1, c2, n, eps):
    # the screen's bounds on every cell, with no first stage
    screen = screen_values(c1, c2, n, eps)
    rho, alpha = tester._SCREEN_RHO, tester._SCREEN_ALPHA
    known = ~np.isnan(screen)
    return (np.where(known, (screen - alpha) / (1 + rho), -np.inf),
            np.where(known, (screen + alpha) / (1 - rho), np.inf))


def _stage_one_bounds(c1, c2, n, eps):
    # the two-stage bounds with no cell left open
    return tester._screen_bounds(c1, c2, n, eps, tester.FisherMemo(),
                                 lambda lo, hi: np.zeros(len(lo), bool))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_two_stage_screen_marks_the_cells_the_precise_one_marks(data):
    n = data.draw(st.one_of(st.integers(1, 5000),
                            st.sampled_from([1, 2, 500, 2000])))
    eps = data.draw(st.sampled_from([0.0, 0.2, 0.5, 1.5, 3.0]))
    count = st.one_of(st.integers(0, n), st.sampled_from([0, 1, n - 1, n]),
                      st.integers(max(0, n // 2 - 20), min(n, n // 2 + 20)))
    cells = data.draw(st.lists(st.tuples(count, count), min_size=1,
                               max_size=60))
    c1 = np.array([a for a, _ in cells], dtype=np.int64)
    c2 = np.array([b for _, b in cells], dtype=np.int64)
    lo, hi = _precise_bounds(c1, c2, n, eps)
    # each stage-1 interval holds the precise one
    least, most = _stage_one_bounds(c1, c2, n, eps)
    assert (least <= lo).all() and (most >= hi).all()

    # segments of the decision pick, each at least one cell
    starts = np.array([0] + sorted(data.draw(
        st.sets(st.integers(1, len(cells) - 1)))) if len(cells) > 1 else [0])
    limit = data.draw(st.integers(1, len(cells)))
    exact = hypothesis_test(c1, c2, n, eps)
    # band edges on cells' exact p-values, and near them: between their
    # stage-2 and stage-1 bounds (5e-7), and past both
    near_p = st.builds(lambda p, f: p * f, st.sampled_from(exact.tolist()),
                       st.sampled_from([1.0, 1 - 5e-7, 1 + 5e-7, 1 - 1e-4,
                                        1 + 1e-4]))
    edges = sorted(data.draw(st.lists(st.one_of(near_p, st.floats(0.0, 1.0)),
                                      min_size=2, max_size=2)))

    def pick(lo, hi):
        return tester._may_rank(lo, hi, starts, 1)

    def first(lo, hi):
        return tester._may_rank(lo, hi, np.zeros(1, dtype=np.int64), limit)

    for read, undecided in ((pick, pick), (first, first),
                            tester._band_rules(edges)):
        memo = tester.FisherMemo()
        mixed = tester._screen_bounds(c1, c2, n, eps, memo, undecided)
        assert np.array_equal(read(*mixed), read(lo, hi))
        # each marked cell's exact p lies in its mixed bounds
        assert ((mixed[0] <= exact) & (exact <= mixed[1])).all()


def test_first_stage_makes_no_claim_where_the_screen_makes_none():
    n = 200_000
    c1, c2 = np.array([n, n // 2, 0]), np.array([0, n // 2, n])
    assert np.isnan(screen_values(c1, c2, n, 0.5)).all()
    lo, hi = _stage_one_bounds(c1, c2, n, 0.5)
    assert (lo == -np.inf).all() and (hi == np.inf).all()


def _exact_picks(pilots, n, eps):
    return [[int(np.argmin(hypothesis_test(pc[o], pc[1 - o], n, eps)))
             for o in (0, 1)] for pc in pilots]


PICK_PILOTS = [
    # every cell ties at p = 1: the first event wins
    [np.zeros((2, 5), dtype=np.int64)],
    # two cells tie at the minimum, after a larger p
    [np.array([[50, 300, 120, 300], [60, 100, 100, 100]]),
     np.array([[7, 7, 7], [7, 7, 7]])],
    # noiseless-style: many p close to 0, some equal
    [np.array([[1000, 1000, 999, 1000, 998, 0, 1000],
               [0, 1, 0, 0, 0, 1000, 2]]),
     np.array([[1000, 990, 1000], [0, 0, 0]])],
    # a near-tie the screen orders the other way: exact p 0.52124645477
    # and 0.52124645515, screen values 0.52124645477 and 0.52124645476
    [np.array([[868, 145], [518, 84]])],
]


@pytest.mark.parametrize("pilots", PICK_PILOTS)
def test_decision_events_are_the_exact_argmin(pilots):
    n, eps = 1000, 0.5
    memo = tester.FisherMemo()
    assert (tester._decision_events(pilots, n, eps, memo)
            == _exact_picks(pilots, n, eps))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_decision_events_match_the_argmin_on_random_pilots(data):
    n = data.draw(st.sampled_from([500, 2000]))
    eps = data.draw(st.sampled_from([0.2, 0.5, 1.5]))
    count = st.one_of(st.integers(0, n), st.sampled_from([0, 1, n - 1, n]))
    pilots = [np.array(data.draw(st.lists(st.tuples(count, count),
                                          min_size=1, max_size=30))).T
              for _ in range(data.draw(st.integers(1, 4)))]
    assert (tester._decision_events(pilots, n, eps, tester.FisherMemo())
            == _exact_picks(pilots, n, eps))


def _exact_refine(k, K, where, n):
    # the exact p of the cells that FisherMemo.refine is given
    return tester._fisher_sf(k, K, n)[where].mean(axis=-1)


def test_decision_events_hold_for_a_screen_at_the_edge_of_its_bound(
        monkeypatch):
    # a coarse bound and a screen that reads each cell's p as far from it
    # as the bound allows, above and below by turns, so that which cells
    # get exact tails next to each least p turns on the bound
    sk = load_benchmark("smartsum")
    binding = {"eps": RunConfig().epsilon, "qlen": 5,
               **{a: FIXED_ARGS[a] for a in sk.args}}
    runs = [(pilots, 1000, 0.5) for pilots in PICK_PILOTS]
    decide = tester._decision_events

    def capture(pilots, n, test_epsilon, memo):
        runs.append((pilots, n, test_epsilon))
        return decide(pilots, n, test_epsilon, memo)
    with monkeypatch.context() as m:
        m.setattr(tester, "_decision_events", capture)
        tester.test_mechanism(sk, binding, [2.0, 2.0], trials=1000, seed=0,
                              decision_only=True)
    rho = 0.2
    monkeypatch.setattr(tester, "_SCREEN_RHO", rho)
    for sign in (1.0, -1.0):
        def refine(self, k, K, where, n, log_fact):
            exact = _exact_refine(k, K, where, n)
            side = sign * (-1.0) ** np.arange(len(exact))
            return (exact * (1 + side * rho * (1 - 1e-9))
                    + side * tester._SCREEN_ALPHA)
        monkeypatch.setattr(tester.FisherMemo, "refine", refine)
        for pilots, n, eps in runs:
            assert (tester._decision_events(pilots, n, eps,
                                            tester.FisherMemo())
                    == _exact_picks(pilots, n, eps))


def test_pick_scores_few_exact_tables(monkeypatch):
    # the screen leaves boost's tail to the cells the pick can fall on
    tables = [0]
    fisher_sf = tester._fisher_sf

    def counted(k, *args):
        tables[0] += np.size(k)
        return fisher_sf(k, *args)

    monkeypatch.setattr(tester, "_fisher_sf", counted)
    result = CliRunner().invoke(main, [
        "test", "--sketch", "smartsum", "--noise", "2,2", "--trials", "4000",
        "--epsilon", "1/2", "--qlen", "5", "--seed", "0"])
    assert result.exit_code == 0, result.output
    assert 0 < tables[0] <= 10_000


# ---------------------------------------------------------------------------
# Input-pair generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pattern_set", ["one", "all"])
@pytest.mark.parametrize("length", [1, 2, 3, 5, 8])
def test_gen_input_pairs_invariants(pattern_set, length):
    pairs = gen_input_pairs(pattern_set, length)
    assert pairs
    assert len(set(pairs)) == len(pairs)
    as_set = set(pairs)
    for d1, d2 in pairs:
        assert len(d1) == len(d2) == length
        assert d1 != d2
        assert all(abs(x - y) <= 1 for x, y in zip(d1, d2))
        # pairs are unordered: the tester runs both orientations of each
        assert (d2, d1) not in as_set


def test_gen_input_pairs_one_is_single_coordinate():
    for d1, d2 in gen_input_pairs("one", 6):
        assert sum(1 for x, y in zip(d1, d2) if x != y) == 1


def test_gen_input_pairs_known_shapes():
    pairs = gen_input_pairs("all", 5)
    assert ((0, 0, 0, 0, 0), (1, 1, 1, 1, 1)) in pairs
    assert ((1, 1, 1, 1, 1), (2, 2, 0, 0, 0)) in pairs


def test_gen_input_pairs_length_one():
    assert gen_input_pairs("all", 1) == [((0,), (1,)), ((1,), (2,))]


def test_gen_input_pairs_rejects_zero_length():
    with pytest.raises(ValueError):
        gen_input_pairs("one", 0)


# gen_input_pairs at lengths 1..8, each pair as "d1/d2" digit strings, in
# the order the tester runs them
PINNED_PAIRS = {
    ("all", 1): "0/1 1/2",
    ("all", 2): "00/11 11/21 11/01 11/20 11/02",
    ("all", 3): "000/111 111/211 111/011 111/200 111/022 111/202",
    ("all", 4): (
        "0000/1111 1111/2111 1111/0111 1111/2000 1111/0222 1111/2200 "
        "1111/2020"),
    ("all", 5): (
        "00000/11111 11111/21111 11111/01111 11111/20000 11111/02222 "
        "11111/22000 11111/20202"),
    ("all", 6): (
        "000000/111111 111111/211111 111111/011111 111111/200000 "
        "111111/022222 111111/222000 111111/202020"),
    ("all", 7): (
        "0000000/1111111 1111111/2111111 1111111/0111111 1111111/2000000 "
        "1111111/0222222 1111111/2220000 1111111/2020202"),
    ("all", 8): (
        "00000000/11111111 11111111/21111111 11111111/01111111 "
        "11111111/20000000 11111111/02222222 11111111/22220000 "
        "11111111/20202020"),
    ("one", 1): "1/2 1/0",
    ("one", 2): "11/21 11/01 11/12 11/10",
    ("one", 3): "111/211 111/011 111/121 111/101 111/112 111/110",
    ("one", 4): (
        "1111/2111 1111/0111 1111/1211 1111/1011 1111/1121 1111/1101 "
        "1111/1112 1111/1110"),
    ("one", 5): (
        "11111/21111 11111/01111 11111/12111 11111/10111 11111/11211 "
        "11111/11011 11111/11121 11111/11101 11111/11112 11111/11110"),
    ("one", 6): (
        "111111/211111 111111/011111 111111/121111 111111/101111 "
        "111111/112111 111111/110111 111111/111211 111111/111011 "
        "111111/111121 111111/111101 111111/111112 111111/111110"),
    ("one", 7): (
        "1111111/2111111 1111111/0111111 1111111/1211111 1111111/1011111 "
        "1111111/1121111 1111111/1101111 1111111/1112111 1111111/1110111 "
        "1111111/1111211 1111111/1111011 1111111/1111121 1111111/1111101 "
        "1111111/1111112 1111111/1111110"),
    ("one", 8): (
        "11111111/21111111 11111111/01111111 11111111/12111111 "
        "11111111/10111111 11111111/11211111 11111111/11011111 "
        "11111111/11121111 11111111/11101111 11111111/11112111 "
        "11111111/11110111 11111111/11111211 11111111/11111011 "
        "11111111/11111121 11111111/11111101 11111111/11111112 "
        "11111111/11111110"),
}


def test_gen_input_pairs_pinned():
    for (adjacency, length), want in PINNED_PAIRS.items():
        got = " ".join("/".join("".join(map(str, d)) for d in pair)
                       for pair in gen_input_pairs(adjacency, length))
        assert got == want, (adjacency, length)


# ---------------------------------------------------------------------------
# Event derivation and membership
# ---------------------------------------------------------------------------

def test_event_membership_semantics():
    assert ValueEvent(3).contains(3)
    assert not ValueEvent(3).contains(4)
    assert HalfLineEvent(2, "ge").contains(2)
    assert not HalfLineEvent(2, "ge").contains(1)
    assert HalfLineEvent(2, "le").contains(2)
    assert not HalfLineEvent(2, "le").contains(3)
    assert PrefixEvent((False, True)).contains((False, True, False))
    assert not PrefixEvent((False, True)).contains((True,))
    assert not PrefixEvent((False, True)).contains((False,))
    assert CoordEvent(1, 5, "ge").contains((0, 7))
    assert not CoordEvent(1, 5, "ge").contains((0, 4))
    assert not CoordEvent(3, 5, "ge").contains((0, 7))


def packed_outputs(values) -> Outputs:
    """Pack outputs in the form ``lang.run`` returns them."""
    values = list(values)
    if values and isinstance(values[0], tuple):
        arr = np.zeros((len(values), max(len(v) for v in values)),
                       dtype=np.int64)
        for j, v in enumerate(values):
            arr[j, :len(v)] = v
        flat = [x for v in values for x in v]
        return Outputs(arr, np.array([len(v) for v in values], dtype=np.int64),
                       bool(flat) and all(isinstance(x, bool) for x in flat))
    return Outputs(np.array(values, dtype=np.int64).reshape(len(values)), None,
                   bool(values) and all(isinstance(x, bool) for x in values))


def test_gen_events_integer_outputs():
    outs = [0, 0, 1, 1, 1, 2, 5, -3]
    events = gen_events(packed_outputs(outs))
    kinds = {type(e) for e in events}
    assert kinds == {ValueEvent, HalfLineEvent}
    assert ValueEvent(1) in events
    assert ValueEvent(5) in events
    # most frequent observed value leads the singleton list
    assert events[0] == ValueEvent(1)
    assert any(e.op == "ge" for e in events if isinstance(e, HalfLineEvent))
    assert len(events) == len(set(events))


def test_gen_events_boolean_tuple_outputs():
    outs = [(False, True), (True,), (False, False, True)]
    events = gen_events(packed_outputs(outs))
    prefixes = [e for e in events if isinstance(e, PrefixEvent)]
    # every true/false pattern of lengths one through three appears
    assert len(prefixes) == 2 + 4 + 8
    assert PrefixEvent((True,)) in events
    assert PrefixEvent((False, True)) in events
    assert PrefixEvent((False, False, True)) in events


def test_gen_events_integer_tuple_outputs():
    outs = [(0, 9), (1, 4), (2, 6), (0, 5)]
    events = gen_events(packed_outputs(outs))
    coords = [e for e in events if isinstance(e, CoordEvent)]
    assert coords
    assert {e.coord for e in coords} == {0, 1}
    assert {e.op for e in coords} == {"ge", "le"}
    assert ValueEvent((0, 9)) in events


@settings(max_examples=300, deadline=None)
@given(outs=st.one_of(
    st.lists(st.integers(-30, 30), min_size=1, max_size=80),
    st.lists(st.lists(st.booleans(), max_size=4).map(tuple), min_size=1,
             max_size=40),
    st.lists(st.lists(st.integers(-5, 5), max_size=10).map(tuple),
             min_size=1, max_size=40)))
def test_gen_events_are_distinct(outs):
    # each kind of event is derived from distinct values, and events of two
    # kinds never compare equal, so no event repeats
    events = gen_events(packed_outputs(outs))
    assert len(set(events)) == len(events)


@pytest.mark.parametrize("value,text", [
    (3, '{"kind": "value", "values": [3]}'),
    (-2, '{"kind": "value", "values": [-2]}'),
    (True, '{"kind": "value", "values": [true]}'),
    ((1, -2), '{"kind": "value", "values": [[1, -2]]}'),
    ((False, True), '{"kind": "value", "values": [[false, true]]}'),
    ((), '{"kind": "value", "values": [[]]}'),
])
def test_value_event_describe_shape(value, text):
    # reports print an event's value inside a one-element list
    assert json.dumps(ValueEvent(value).describe(), sort_keys=True) == text


def test_gen_events_requires_samples():
    with pytest.raises(ValueError):
        gen_events(packed_outputs([]))


@pytest.mark.parametrize("outs", [
    [3, 1, 3, 2, 1, 5, 2, 2, 0, -1],
    [(1, 2), (0,), (1, 2), (), (1, 2, 3), (0,), (4, 4)],
    [(True, False), (False,), (True, False), (True, True, True), (True,)],
])
def test_gen_events_singletons_follow_counter_order(outs):
    # ties keep the order of first appearance, as Counter.most_common does
    want = [v for v, _ in Counter(outs).most_common()]
    events = gen_events(packed_outputs(outs))
    got = [e.value for e in events if isinstance(e, ValueEvent)]
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


def test_event_hits_match_contains():
    cases = [
        ([3, 1, 3, 2, -4], [ValueEvent(3), ValueEvent(2), ValueEvent(-1),
                            HalfLineEvent(2, "ge"), HalfLineEvent(1, "le")]),
        ([(1, 2), (0,), (), (1, 2, 3), (5, 1)],
         [ValueEvent((1, 2)), ValueEvent(()), ValueEvent((0,)),
          ValueEvent((1, 2, 3, 4)), CoordEvent(1, 2, "ge"),
          CoordEvent(0, 0, "le"), CoordEvent(5, 0, "ge")]),
        ([(True, False), (False,), (), (True, False, True)],
         [PrefixEvent((True,)), PrefixEvent((True, False)),
          PrefixEvent((False, False, False, False)),
          ValueEvent((False,))]),
    ]
    for outs, events in cases:
        packed = packed_outputs(outs)
        assert list(packed) == outs
        got = event_hits(events, packed).tolist()
        assert got == [[e.contains(o) for o in outs] for e in events]


_SMALL_INTS = st.integers(-3, 3)
_OPS = st.sampled_from(["ge", "le"])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_event_hits_equal_contains_on_every_class(data):
    # scalar, bool-list and int-list outputs, with negative values, empty
    # lists, prefixes and values longer than the width, coordinates past
    # it, and blocks of a few elements
    kind = data.draw(st.sampled_from(["scalar", "bool", "int"]))
    if kind == "scalar":
        outs = data.draw(st.lists(_SMALL_INTS, min_size=1, max_size=12))
        event = st.one_of(st.builds(ValueEvent, _SMALL_INTS),
                          st.builds(HalfLineEvent, _SMALL_INTS, _OPS))
    else:
        item = st.booleans() if kind == "bool" else _SMALL_INTS
        outs = data.draw(st.lists(st.lists(item, max_size=4).map(tuple),
                                  min_size=1, max_size=12))
        tup = st.lists(item, max_size=6).map(tuple)
        event = st.one_of(st.builds(ValueEvent, tup),
                          st.builds(PrefixEvent, tup),
                          st.builds(CoordEvent, st.integers(0, 6),
                                    _SMALL_INTS, _OPS))
    events = data.draw(st.lists(event, max_size=10))
    packed = packed_outputs(outs)
    with mock.patch.object(tester, "_COUNT_CHUNK",
                           data.draw(st.sampled_from([1, 13, 1 << 18]))):
        got = event_hits(events, packed)
    assert got.shape == (len(events), len(outs)) and got.dtype == bool
    assert got.tolist() == [[e.contains(o) for o in outs] for e in events]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_gen_events_singletons_follow_counter_order_on_random_outputs(data):
    # few distinct values, so counts tie often
    item = data.draw(st.sampled_from([st.integers(-2, 2), st.booleans()]))
    value = data.draw(st.sampled_from(
        [item, st.lists(item, max_size=3).map(tuple)]))
    outs = data.draw(st.lists(value, min_size=1, max_size=30))
    want = [v for v, _ in Counter(outs).most_common(tester._SINGLETON_CAP)]
    events = gen_events(packed_outputs(outs))
    assert [e.value for e in events if isinstance(e, ValueEvent)] == want


# ---------------------------------------------------------------------------
# Whole-mechanism testing on micro sketches
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def noiseless_run(micro_scalar):
    return run_tester(micro_scalar, {}, [None], 0.5, trials=2000,
                          seed=1, return_all=True)


@pytest.fixture(scope="module")
def generous_run(micro_scalar):
    return run_tester(micro_scalar, {}, [8.0], 0.5, trials=2000,
                          seed=1, return_all=True)


def test_noiseless_mechanism_rejected(noiseless_run):
    best, cands = noiseless_run
    assert best is not None
    assert decision_p(cands) < 1e-4


def test_generously_noised_mechanism_accepted(generous_run):
    _, cands = generous_run
    # true loss e^(1/8) sits far below every tested epsilon
    assert decision_p(cands) > 0.5


def test_counterexample_invariants(noiseless_run, generous_run):
    for _, cands in (noiseless_run, generous_run):
        assert cands
        decision_cells = {}
        for cx in cands:
            assert all(abs(x - y) <= 1 for x, y in zip(cx.d1, cx.d2))
            assert 0.0 <= cx.p_value <= 1.0
            assert max(cx.rho1, cx.rho2) > 0.0
            assert cx.p_value == hypothesis_test(cx.c1, cx.c2, cx.n_side,
                                                 cx.test_epsilon)
            if cx.decision:
                key = (cx.d1, cx.d2)
                assert key not in decision_cells
                decision_cells[key] = cx
        assert decision_cells


def test_candidates_sorted_by_p(generous_run):
    _, cands = generous_run
    ps = [cx.p_value for cx in cands]
    assert ps == sorted(ps)


def test_test_mechanism_deterministic(micro_scalar):
    a = run_tester(micro_scalar, {}, [2.0], 0.5, trials=1000, seed=7)
    b = run_tester(micro_scalar, {}, [2.0], 0.5, trials=1000, seed=7)
    assert a.p_value == b.p_value
    assert (a.d1, a.d2, a.event) == (b.d1, b.d2, b.event)


def test_test_mechanism_respects_qlen(micro_scalar):
    best = run_tester(micro_scalar, {}, [None], 0.5, trials=1000,
                          seed=0, qlen=3)
    assert len(best.d1) == 3


def test_test_mechanism_validation(micro_scalar):
    with pytest.raises(ValueError):
        run_tester(micro_scalar, {}, [None], 0.5, trials=500)
    with pytest.raises(ValueError):
        run_tester(micro_scalar, {}, [1.0, 2.0], 0.5, trials=2000)
    with pytest.raises(ValueError, match="limit"):
        tester.test_mechanism(micro_scalar, {"eps": 0.5, "qlen": 5}, [1.0],
                              trials=1000, seed=0, limit=-1)
    for kw in ({"band": (0.9, 0.05)}, {"band": (0.05, 0.9), "limit": 5}):
        with pytest.raises(ValueError, match="band"):
            tester.test_mechanism(micro_scalar, {"eps": 0.5, "qlen": 5},
                                  [1.0], trials=1000, seed=0, **kw)


def test_decision_p_defaults_to_one():
    assert decision_p([]) == 1.0


def test_counterexample_record_is_json_ready(noiseless_run):
    _, cands = noiseless_run
    rec = counterexample_record(cands[0], seed=1)
    assert set(rec) == {"d1", "d2", "event", "p", "test_epsilon",
                        "rho1", "rho2", "trials", "seed"}
    parsed = json.loads(json.dumps(rec))
    assert parsed["trials"] == 1000
    assert parsed["seed"] == 1


# ---------------------------------------------------------------------------
# Frozen outputs: decision cells at a fixed seed
# ---------------------------------------------------------------------------

# (d1, d2, c1, c2, p) of every decision cell, in candidate order, and the
# candidate count, for ``mechsynth test`` at trials 1000, seed 0, eps 1/2
# and qlen 5; recorded before the lane kernel replaced the per-run engine
FROZEN_DECISIONS = {
    ("noisymax1", (4.0,)): (119, [
        ((1, 1, 1, 1, 1), (2, 0, 2, 0, 2), 91, 59, 0.7685370245569771),
        ((1, 1, 1, 1, 1), (0, 2, 2, 2, 2), 88, 59, 0.817243899134889),
        ((2, 2, 0, 0, 0), (1, 1, 1, 1, 1), 126, 85, 0.8535287747897632),
        ((2, 0, 0, 0, 0), (1, 1, 1, 1, 1), 140, 94, 0.8582598850743508),
        ((1, 1, 1, 1, 1), (0, 1, 1, 1, 1), 86, 64, 0.930850122888797),
        ((1, 1, 1, 1, 1), (2, 2, 0, 0, 0), 113, 82, 0.9315961768604011),
        ((0, 1, 1, 1, 1), (1, 1, 1, 1, 1), 131, 102, 0.9825512636478662),
        ((1, 1, 1, 1, 1), (2, 0, 0, 0, 0), 98, 82, 0.9897699242059346),
        ((2, 1, 1, 1, 1), (1, 1, 1, 1, 1), 114, 96, 0.9942663395092464),
        ((1, 1, 1, 1, 1), (2, 1, 1, 1, 1), 123, 109, 0.9987829674651134),
        ((0, 2, 2, 2, 2), (1, 1, 1, 1, 1), 121, 117, 0.9998981244033374)]),
    ("svt", (4.0, 8.0)): (85, [
        ((1, 1, 1, 1, 1), (0, 2, 2, 2, 2), 74, 52, 0.8615789286200666),
        ((1, 1, 1, 1, 1), (0, 1, 1, 1, 1), 23, 18, 0.8722768704003621),
        ((0, 2, 2, 2, 2), (1, 1, 1, 1, 1), 75, 55, 0.9064399463281004),
        ((1, 1, 1, 1, 1), (2, 2, 0, 0, 0), 66, 50, 0.9227251787753751),
        ((0, 1, 1, 1, 1), (1, 1, 1, 1, 1), 34, 29, 0.9431442980873406),
        ((2, 2, 0, 0, 0), (1, 1, 1, 1, 1), 20, 19, 0.9504104088630327),
        ((0, 0, 0, 0, 0), (1, 1, 1, 1, 1), 78, 61, 0.956133510505316),
        ((2, 1, 1, 1, 1), (1, 1, 1, 1, 1), 24, 23, 0.9608135210923437),
        ((1, 1, 1, 1, 1), (2, 0, 2, 0, 2), 33, 31, 0.9718232400402613),
        ((2, 0, 2, 0, 2), (1, 1, 1, 1, 1), 66, 55, 0.9719255311242223),
        ((2, 0, 0, 0, 0), (1, 1, 1, 1, 1), 73, 67, 0.9947089271490557)]),
    ("smartsum", (2.0, 2.0)): (503, [
        ((0, 1, 1, 1, 1), (1, 1, 1, 1, 1), 83, 40, 0.245246552532828),
        ((1, 1, 1, 1, 1), (0, 1, 1, 1, 1), 77, 39, 0.3321313299669954),
        ((1, 2, 1, 1, 1), (1, 1, 1, 1, 1), 204, 117, 0.45936814663502357),
        ((1, 1, 2, 1, 1), (1, 1, 1, 1, 1), 82, 49, 0.6206285570793776),
        ((1, 1, 1, 1, 1), (1, 0, 1, 1, 1), 207, 125, 0.6264317581432928),
        ((1, 1, 1, 1, 1), (2, 1, 1, 1, 1), 180, 109, 0.6370936125403588),
        ((1, 1, 0, 1, 1), (1, 1, 1, 1, 1), 75, 53, 0.8701788383191706),
        ((2, 1, 1, 1, 1), (1, 1, 1, 1, 1), 62, 50, 0.9544850667759015),
        ((1, 1, 1, 1, 1), (1, 1, 0, 1, 1), 147, 110, 0.9719571598583283)]),
}


@pytest.mark.parametrize("name,noise", sorted(FROZEN_DECISIONS))
def test_decision_cells_frozen_at_seed_0(name, noise):
    cfg = RunConfig()
    sk = load_benchmark(name)
    _, cands = run_tester(sk, {a: FIXED_ARGS[a] for a in sk.args},
                          list(noise), cfg.epsilon, trials=1000, seed=0,
                          qlen=5, return_all=True)
    count, cells = FROZEN_DECISIONS[(name, noise)]
    assert len(cands) == count
    assert [(cx.d1, cx.d2, cx.c1, cx.c2, cx.p_value)
            for cx in cands if cx.decision] == cells


@pytest.mark.parametrize("name,noise", sorted(FROZEN_DECISIONS))
def test_decision_only_call_returns_the_decision_cells(name, noise):
    cfg = RunConfig()
    sk = load_benchmark(name)
    binding = {"eps": cfg.epsilon, "qlen": 5,
               **{a: FIXED_ARGS[a] for a in sk.args}}
    full = tester.test_mechanism(sk, binding, list(noise), trials=1000,
                                 seed=0)
    only = tester.test_mechanism(sk, binding, list(noise), trials=1000,
                                 seed=0, decision_only=True,
                                 memo=tester.FisherMemo())
    assert only == [cx for cx in full if cx.decision]
    assert len(only) == len(FROZEN_DECISIONS[(name, noise)][1])


# the completions of FROZEN_DECISIONS at trials 1000, and smartsum (2, 2)
# at 4000 (the perfbench trials), each at seeds 0 and 7
LIMIT_RUNS = [(name, noise, trials, seed)
              for name, noise, trials in
              [(name, noise, 1000) for name, noise in sorted(FROZEN_DECISIONS)]
              + [("smartsum", (2.0, 2.0), 4000)]
              for seed in (0, 7)]


@pytest.mark.parametrize("name,noise,trials,seed", LIMIT_RUNS)
def test_limit_keeps_the_first_cells_and_the_decision_cells(name, noise,
                                                            trials, seed):
    sk = load_benchmark(name)
    binding = {"eps": RunConfig().epsilon, "qlen": 5,
               **{a: FIXED_ARGS[a] for a in sk.args}}
    full = tester.test_mechanism(sk, binding, list(noise), trials=trials,
                                 seed=seed)
    # every run has more than 5 cells; svt's have fewer than 100
    assert len(full) > 5
    for k in (0, 1, 5, 100, len(full) + 1):
        part = tester.test_mechanism(sk, binding, list(noise), trials=trials,
                                     seed=seed, limit=k)
        assert len(part) == len(full)
        assert part[:k] == full[:k]
        assert ([cx for cx in part if cx.decision]
                == [cx for cx in full if cx.decision])
        assert all(cx.p_value == math.inf
                   for cx in part[k:] if not cx.decision)


def test_limit_holds_for_any_screen_within_its_bound(monkeypatch):
    # a coarse bound and a screen at its edges, so that which cells get
    # exact tails near the limit-th one turns on the bound
    rho = 0.2
    monkeypatch.setattr(tester, "_SCREEN_RHO", rho)

    def refine(self, k, K, where, n, log_fact):
        p = _exact_refine(k, K, where, n)
        return p * (1 + 0.99 * rho * (-1.0) ** np.arange(len(p)))
    monkeypatch.setattr(tester.FisherMemo, "refine", refine)
    sk = load_benchmark("smartsum")
    binding = {"eps": RunConfig().epsilon, "qlen": 5,
               **{a: FIXED_ARGS[a] for a in sk.args}}
    full = tester.test_mechanism(sk, binding, [2.0, 2.0], trials=1000,
                                 seed=0)
    for k in (1, 5, 100):
        part = tester.test_mechanism(sk, binding, [2.0, 2.0], trials=1000,
                                     seed=0, limit=k)
        assert part[:k] == full[:k]
        assert ([cx for cx in part if cx.decision]
                == [cx for cx in full if cx.decision])


def _in_band(cx, band):
    return cx.decision or band[0] <= cx.p_value <= band[1]


@pytest.mark.parametrize("name,noise,trials,seed", LIMIT_RUNS)
def test_band_keeps_the_cells_in_the_band_and_the_decision_cells(
        name, noise, trials, seed):
    sk = load_benchmark(name)
    binding = {"eps": RunConfig().epsilon, "qlen": 5,
               **{a: FIXED_ARGS[a] for a in sk.args}}
    every = tester.FisherMemo()
    full = tester.test_mechanism(sk, binding, list(noise), trials=trials,
                                 seed=seed, memo=every)
    # the zone, its widened form, a band holding one cell's p on both
    # edges, and bands holding every cell or none
    mid = full[len(full) // 2].p_value
    for band in (ZONE, (0.01, 0.99), (mid, mid), (0.0, 1.0), (2.0, 3.0)):
        memo = tester.FisherMemo()
        part = tester.test_mechanism(sk, binding, list(noise), trials=trials,
                                     seed=seed, band=band, memo=memo)
        assert len(part) == len(full)
        assert ([cx for cx in part if _in_band(cx, band)]
                == [cx for cx in full if _in_band(cx, band)])
        assert all(cx.p_value == math.inf
                   for cx in part if not _in_band(cx, band))
        assert 0 < memo.fisher_tables <= every.fisher_tables
        if band == (mid, mid):
            assert any(cx.p_value == mid for cx in part)
            # one p-value's cells need fewer exact tables than every cell
            assert memo.fisher_tables < every.fisher_tables


def test_band_holds_for_a_screen_at_the_edge_of_its_bound(monkeypatch):
    # a coarse bound, a screen that reads each cell's p as far from it as
    # the bound allows (short of the comparisons' rounding, for which the
    # bound leaves room), and band edges on cells' exact p-values, so that
    # which cells get exact tails at the edges turns on the bound
    rho = 0.2
    monkeypatch.setattr(tester, "_SCREEN_RHO", rho)
    sk = load_benchmark("smartsum")
    binding = {"eps": RunConfig().epsilon, "qlen": 5,
               **{a: FIXED_ARGS[a] for a in sk.args}}
    full = tester.test_mechanism(sk, binding, [2.0, 2.0], trials=1000,
                                 seed=0)
    p = sorted({cx.p_value for cx in full})
    for sign in (1.0, -1.0):
        def refine(self, k, K, where, n, log_fact):
            exact = _exact_refine(k, K, where, n)
            return (exact * (1 + sign * rho * (1 - 1e-9))
                    + sign * tester._SCREEN_ALPHA)
        monkeypatch.setattr(tester.FisherMemo, "refine", refine)
        for band in ((p[10], p[-10]), (p[len(p) // 2], p[len(p) // 2])):
            part = tester.test_mechanism(sk, binding, [2.0, 2.0],
                                         trials=1000, seed=0, band=band)
            assert ([cx for cx in part if _in_band(cx, band)]
                    == [cx for cx in full if _in_band(cx, band)])


def test_limit_scores_few_exact_tables(monkeypatch):
    # smartsum at trials 4000: 100 of 499 final cells are read
    sk = load_benchmark("smartsum")
    binding = {"eps": RunConfig().epsilon, "qlen": 5,
               **{a: FIXED_ARGS[a] for a in sk.args}}
    tables = []
    fisher_sf = tester._fisher_sf

    def counting(k, K, n):
        tables.append(len(k))
        return fisher_sf(k, K, n)
    monkeypatch.setattr(tester, "_fisher_sf", counting)
    full = tester.test_mechanism(sk, binding, [2.0, 2.0], trials=4000, seed=0)
    every = sum(tables)
    tables.clear()
    tester.test_mechanism(sk, binding, [2.0, 2.0], trials=4000, seed=0,
                          limit=100)
    assert len(full) > 400
    assert sum(tables) < every / 2


@pytest.mark.parametrize("max_records", ["0", "3", "100", "1000"])
def test_cmd_test_prints_finite_p_values(max_records):
    result = CliRunner().invoke(main, [
        "test", "--sketch", "smartsum", "--noise", "2,2", "--trials", "1000",
        "--seed", "0", "--max-records", max_records])
    records = [json.loads(line) for line in result.output.splitlines()]
    summary = records.pop()
    assert len(records) == min(int(max_records), summary["candidates"])
    assert all(math.isfinite(r["p"]) for r in records)
    assert records == sorted(records, key=lambda r: r["p"])
    assert math.isfinite(summary["decision_p"])


# ---------------------------------------------------------------------------
# Packed kernel calls
# ---------------------------------------------------------------------------

# lanes per kernel call at the default cap: noisymax1 and svt have 7
# pairs, smartsum 10; a pair runs 2 * trials lanes, so 1,000-trial pairs
# go 4 to a call (7 and 10 are no multiple of 4), 1,500-trial pairs 2 to
# a call and 4,000-trial pairs 1 to a call
PACKED_CALLS = {1000: {7: [8000, 6000], 10: [8000, 8000, 4000]},
                1500: {7: [6000] * 3 + [3000], 10: [6000] * 5},
                4000: {7: [8000] * 7, 10: [8000] * 10}}


@pytest.mark.parametrize("trials", [1000, 1500, 4000])
@pytest.mark.parametrize("name,noise", sorted(FROZEN_DECISIONS))
def test_packed_sides_give_the_one_side_per_call_result(monkeypatch, name,
                                                        noise, trials):
    # scalar (noisymax1), bool-list (svt) and int-list (smartsum) outputs;
    # "all" and "one" adjacency
    sk = load_benchmark(name)
    binding = {"eps": RunConfig().epsilon, "qlen": 5,
               **{a: FIXED_ARGS[a] for a in sk.args}}
    pairs = len(tester.gen_input_pairs(sk.adjacency, 5))
    lanes = []   # the lane count of every kernel call
    compile_sketch = tester.compile_sketch

    def counting(sketch, bottoms=None):
        kernel = compile_sketch(sketch, bottoms)

        def runner(args, answers, draws):
            lanes.append(len(draws[0]))
            return kernel(args, answers, draws)
        return runner
    monkeypatch.setattr(tester, "compile_sketch", counting)
    packed = tester.test_mechanism(sk, binding, list(noise), trials=trials,
                                   seed=0)
    assert lanes == PACKED_CALLS[trials][pairs]
    lanes.clear()
    # a cap of one lane leaves every pair a kernel call of its own
    monkeypatch.setattr(tester, "_LANE_CAP", 1)
    alone = tester.test_mechanism(sk, binding, list(noise), trials=trials,
                                  seed=0)
    assert lanes == [2 * trials] * pairs
    assert packed == alone


TWO_FAULTS_SRC = """mechanism TwoFaults
private a
adjacency all

x <- 10 / (a[1] - 2) + Lap(?1)
y <- a[a[2]]
return x + y
"""


def test_packed_call_raises_the_fault_its_lanes_reach_first(monkeypatch):
    # pair 0's side (0,0,0,0,0) faults at the index in the second
    # statement, pair 1's side (2,1,1,1,1) at the division in the first;
    # both pairs share the first kernel call, whose lanes reach the
    # division first
    sk = parse_sketch(TWO_FAULTS_SRC)
    binding = {"eps": 0.5, "qlen": 5}
    with pytest.raises(RunError, match=r"^division by zero$"):
        tester.test_mechanism(sk, binding, [2.0], trials=1000, seed=0)
    # one call per pair runs pair 0 first
    monkeypatch.setattr(tester, "_LANE_CAP", 1)
    with pytest.raises(RunError, match=r"^index 0 out of range 1\.\.5$"):
        tester.test_mechanism(sk, binding, [2.0], trials=1000, seed=0)


@pytest.mark.parametrize("name,noise", [
    ("noisymax1", [4.0]), ("noisymax1", [None]), ("svt", [4.0, 8.0]),
    ("smartsum", [2.0, 2.0]), ("smartsum", [None, None]),
    ("abovet2", [4.0, 8.0, 4.0])])
def test_decision_events_are_the_argmin_on_tester_pilots(name, noise,
                                                         monkeypatch):
    # the pilots of real tester calls repeat counts within a segment and
    # leave segments with one cell near the least p; the pick is still
    # the first cell of least exact p, and a segment whose near cells all
    # share one count pair gets no exact tail
    sk = load_benchmark(name)
    binding = {"eps": RunConfig().epsilon, "qlen": 5,
               **{a: FIXED_ARGS[a] for a in sk.args}}
    runs, tested = [], []
    decide = tester._decision_events
    exact = tester.hypothesis_test

    def capture(pilots, n, test_epsilon, memo):
        picks = decide(pilots, n, test_epsilon, memo)
        runs.append((pilots, n, test_epsilon, picks))
        return picks

    def counted(c1, *args, **kw):
        tested.append(np.size(c1))
        return exact(c1, *args, **kw)

    monkeypatch.setattr(tester, "_decision_events", capture)
    monkeypatch.setattr(tester, "hypothesis_test", counted)
    tester.test_mechanism(sk, binding, noise, trials=1000, seed=0,
                          decision_only=True)
    (pilots, n, eps, picks), = runs
    monkeypatch.setattr(tester, "hypothesis_test", exact)
    assert picks == _exact_picks(pilots, n, eps)
    # each segment given exact tails sends at least two cells
    assert tested[0] < 2 * 2 * len(pilots)


# ---------------------------------------------------------------------------
# Kernel passes spread over threads
# ---------------------------------------------------------------------------

def _direct_fisher_sf(k, K, n):
    # one unsplit boost call inside the support, scipy.stats' edge rule
    # around it
    out = np.where(k - 1 < np.maximum(0, K - n), 1.0, 0.0)
    inside = (k - 1 >= np.maximum(0, K - n)) & (k - 1 < np.minimum(K, n))
    out[inside] = np.clip(_hypergeom_sf(k[inside] - 1, K[inside], n, 2 * n),
                          0, 1)
    return out


@pytest.fixture
def split_everything(monkeypatch):
    # cut every exact-tail pass of two or more tables into up to 3 chunks
    monkeypatch.setattr(tester, "_FISHER_CHUNK", 1)
    monkeypatch.setattr(tester, "_WORKERS", 2)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
def test_spread_tails_are_the_direct_ones_on_every_table(split_everything,
                                                         n):
    k, K = np.divmod(np.arange((n + 2) * (2 * n + 1)), 2 * n + 1)
    assert _same_bits(tester._fisher_sf(k, K, n), _direct_fisher_sf(k, K, n))


def test_spread_tails_are_the_direct_ones_where_cuts_meet_edge_cells(
        split_everything):
    n = 2000
    rng = np.random.default_rng(26)
    k = rng.integers(0, n + 2, 200_000)
    K = rng.integers(0, 2 * n + 1, 200_000)
    inside = (k - 1 >= np.maximum(0, K - n)) & (k - 1 < np.minimum(K, n))
    # k = 0 moves the last 0-2 cells inside the support below it, leaving
    # a multiple of 3 inside
    k[np.flatnonzero(inside)[inside.sum() // 3 * 3:]] = 0
    inside &= k > 0
    # three equal runs of the cells inside the support, each mixed with
    # cells outside it and followed by more of them, so that both cuts of
    # the 3-way pass fall where edge-rule cells sit between two chunks
    blocks = []
    for run, edge in zip(np.array_split(np.flatnonzero(inside), 3),
                         np.array_split(np.flatnonzero(~inside), 3)):
        half = len(edge) // 2
        blocks += [rng.permutation(np.concatenate([run, edge[:half]])),
                   edge[half:]]
    order = np.concatenate(blocks)
    assert len(order) == 200_000
    k, K = k[order], K[order]
    at = np.flatnonzero(inside[order])
    for cut in (len(at) // 3, 2 * len(at) // 3):
        assert at[cut] - at[cut - 1] > 1
    got = tester._fisher_sf(k, K, n)
    assert _same_bits(got, _direct_fisher_sf(k, K, n))
    assert (got == 1.0).any() and (got == 0.0).any()


def test_spread_tails_of_no_table(split_everything):
    none = np.array([], dtype=np.int64)
    got = tester._fisher_sf(none, none, 100)
    assert got.shape == (0,) and got.dtype == np.float64


class Boom(Exception):
    pass


@pytest.mark.parametrize("chunk", [0, 1, 2])
def test_spread_tails_raise_and_leave_no_thread(split_everything,
                                                monkeypatch, chunk):
    # 9 tables inside the support, cut 3/3/3: chunk 0 runs on the calling
    # thread, chunks 1 and 2 on the pass's own threads
    n = 10
    k, K = np.arange(1, 10), np.arange(10, 19)
    before = threading.active_count()
    want = tester._fisher_sf(k, K, n)
    assert threading.active_count() == before

    def faulty(x, *args, **kw):
        if x[0] == 3 * chunk:
            raise Boom(chunk)
        return _hypergeom_sf(x, *args, **kw)
    monkeypatch.setattr(tester, "_hypergeom_sf", faulty)
    with pytest.raises(Boom) as caught:
        tester._fisher_sf(k, K, n)
    assert caught.value.args == (chunk,)
    assert threading.active_count() == before
    monkeypatch.setattr(tester, "_hypergeom_sf", _hypergeom_sf)
    assert _same_bits(tester._fisher_sf(k, K, n), want)
    assert threading.active_count() == before


TEST_MIX = [("noisymax1", "4"), ("noisymax1", "bot"), ("svt", "4,8"),
            ("svt", "bot,bot"), ("smartsum", "2,2"),
            ("smartsum", "bot,bot"), ("abovet2", "4,8,4")]


def test_test_mix_output_does_not_depend_on_the_worker_count(monkeypatch):
    # perfbench's test-mix calls, whose larger Fisher passes are split at
    # the module's own size rule
    outputs = []
    for workers in (0, 1, 2):
        monkeypatch.setattr(tester, "_WORKERS", workers)
        out = []
        for sketch, noise in TEST_MIX:
            result = CliRunner().invoke(main, [
                "test", "--sketch", sketch, "--noise", noise, "--trials",
                "4000", "--epsilon", "1/2", "--qlen", "5", "--seed", "0"])
            # exit 1 reports a violation
            assert result.exit_code in (0, 1), result.output
            out.append((result.exit_code, result.output))
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_synth_small_does_not_depend_on_the_worker_count(benchmarks,
                                                         monkeypatch):
    # the synth-small call with every pass split, against the unsplit one
    cfg = RunConfig(seed=0, epsilon=Fraction(1, 2), qlen=5, trials=1000,
                    presamples=4000, population=20, steps_per_hole=30)
    runs = []
    for workers, least in ((0, None), (1, 1), (2, 1)):
        monkeypatch.setattr(tester, "_WORKERS", workers)
        if least:
            monkeypatch.setattr(tester, "_FISHER_CHUNK", least)
        outcome = synth(benchmarks["noisymax1"], cfg)
        report = dict(outcome.report)
        del report["config"]
        runs.append((report_to_json(report), outcome.counters))
    assert runs[0] == runs[1] == runs[2]


def _fresh_python(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter that imports
    mechsynth from this checkout."""
    src = os.path.dirname(os.path.dirname(tester.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


def test_cli_import_starts_no_thread():
    # threads start with a split pass, and their module with the first one
    out = _fresh_python("import sys, threading, mechsynth.cli; "
                        "print(threading.active_count(), "
                        "'concurrent.futures.thread' in sys.modules)")
    assert out.split() == ["1", "False"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_splits_on_its_own_pool():
    # a forked child of a process that has split passes starts threads of
    # its own for its pass, gets the same bits and ends with its one thread
    # (the alarm ends a child that waits for a thread it does not have)
    out = _fresh_python("""if True:
        import os, signal, threading, numpy as np
        from mechsynth import tester
        tester._WORKERS, tester._FISHER_CHUNK = 2, 1
        k, K = np.arange(1, 11), np.arange(10, 20)
        for _ in range(20):
            want = tester._fisher_sf(k, K, 10)
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            kernel, ran = tester._hypergeom_sf, set()

            def traced(*args, **kw):
                ran.add(threading.get_ident())
                return kernel(*args, **kw)
            tester._hypergeom_sf = traced
            same = np.array_equal(tester._fisher_sf(k, K, 10), want)
            os._exit(int(not (same and len(ran) > 1
                              and threading.active_count() == 1)))
        print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """)
    assert out.strip() == "0"
