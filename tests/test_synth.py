"""Grammar enumeration, pruning, ranking, and end-to-end synthesis tests.

Pruning is checked exhaustively against a direct restatement of the
neighborhood rule; ranking oracles ride the one-sided-event micro mechanism
whose loss at scale b is exactly e^(1/b).
"""

import hashlib
import importlib
import math
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from mechsynth import lang, tester
from mechsynth.config import (EVENT_FLOOR, PROPOSAL_SCALE, VERIFY_ALPHA,
                              RunConfig)
from mechsynth.lang import parse_sketch
from mechsynth.search import (Example, NoiseRegion, PresampleBank,
                              example_losses_with_se)
from mechsynth.synth import (NoiseExpr, RankedCandidate, SynthError,
                             _bindings, _inherit_examples, _mixture_at,
                             _report, _reshape_pair, enumerate_and_prune,
                             expressions, final_verify, fix_params,
                             gamma_vector, optimizer_bank, rank_candidates,
                             render_vector, report_to_json, synth)
from mechsynth.tester import CoordEvent, HalfLineEvent, ValueEvent

# the package's ``synth`` attribute is the function, not the module
SYNTH = importlib.import_module("mechsynth.synth")
BINDING = {"eps": Fraction(1, 2), "qlen": 5, "T": 2}


def _region(entries, **kw):
    defaults = dict(target_eps=0.5, lam=1.0, seed=0, population=50, steps=500)
    defaults.update(kw)
    return NoiseRegion(entries=tuple(entries), **defaults)


# ---------------------------------------------------------------------------
# Expressions and grammar
# ---------------------------------------------------------------------------

def test_expr_gamma_is_exact():
    assert NoiseExpr(2, 0, 1).gamma(BINDING) == Fraction(4)
    assert NoiseExpr(3, 1, 2).gamma(BINDING) == Fraction(60)
    assert isinstance(NoiseExpr(1, 0, 1).gamma(BINDING), Fraction)


def test_expr_render():
    assert NoiseExpr(1, 0, 1).render() == "1/eps"
    assert NoiseExpr(2, 0, 1).render() == "2/eps"
    assert NoiseExpr(1, 1, 1).render() == "qlen/eps"
    assert NoiseExpr(2, 2, 2).render() == "2*qlen^2/eps^2"
    assert render_vector((None, NoiseExpr(2, 0, 1))) == "(bot, 2/eps)"


def test_grammar_size_and_order():
    exprs = expressions()
    assert len(exprs) == 25
    assert exprs[0] is None
    assert exprs[1] == NoiseExpr(1, 0, 1)
    assert exprs[2] == NoiseExpr(1, 0, 2)
    assert exprs[-1] == NoiseExpr(4, 2, 2)
    assert len(set(exprs[1:])) == 24


def test_grammar_gammas_positive():
    for e in expressions()[1:]:
        assert e.gamma(BINDING) > 0
        assert e.gamma({"eps": Fraction(3, 2), "qlen": 10, "T": 2}) > 0


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def test_prune_keeps_l1_neighbors():
    region = _region([((2.0, 4.0), 1.0)])
    kept = enumerate_and_prune(region, BINDING, radius=3.0)
    gammas = {tuple(gamma_vector(c, BINDING)) for c in kept}
    assert (4.0, 4.0) in gammas  # L1 distance 2
    assert (8.0, 8.0) not in gammas  # L1 distance 10


def _brute_force_prune(region, args, radius):
    """Direct restatement of the neighborhood rule for cross-checking."""
    exprs = expressions()
    n = len(region.entries[0][0])
    kept = []
    import itertools
    for combo in itertools.product(exprs, repeat=n):
        best = math.inf
        for vec, _ in region.entries:
            dist = 0.0
            ok = True
            for e, r in zip(combo, vec):
                if e is None:
                    if r is not None:
                        ok = False
                        break
                    continue
                g = float(e.gamma(args))
                dist += g if r is None else abs(g - r)
            if ok:
                best = min(best, dist)
        if best <= radius + 1e-9:
            kept.append(combo)
    return kept


@pytest.mark.parametrize("n_holes,seed", [(1, 0), (1, 3), (2, 1), (2, 7),
                                          (3, 2), (3, 5)])
def test_prune_matches_brute_force(n_holes, seed):
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(4):
        vec = tuple(None if rng.random() < 0.25 else float(round(v, 2))
                    for v in rng.uniform(0, 20, n_holes))
        entries.append((vec, float(rng.random())))
    region = _region(entries)
    fast = enumerate_and_prune(region, BINDING, radius=3.0)
    slow = _brute_force_prune(region, BINDING, radius=3.0)
    assert fast == slow


def test_prune_bottom_matching():
    # a no-noise hole matches only region coordinates that snapped to none
    with_none = _region([((None, 2.0), 1.0)])
    kept = enumerate_and_prune(with_none, BINDING, radius=3.0)
    assert (None, NoiseExpr(1, 0, 1)) in kept
    all_noisy = _region([((2.0, 2.0), 1.0)])
    kept2 = enumerate_and_prune(all_noisy, BINDING, radius=3.0)
    assert all(c[0] is not None and c[1] is not None for c in kept2)


def test_prune_validation():
    with pytest.raises(ValueError):
        enumerate_and_prune(_region([]), BINDING, radius=3.0)
    with pytest.raises(ValueError):
        enumerate_and_prune(_region([((2.0,), 1.0)]), BINDING, radius=0.0)


# ---------------------------------------------------------------------------
# Test-example inheritance across answer lengths
# ---------------------------------------------------------------------------

def _example(d1, d2, event=None):
    return Example(d1=d1, d2=d2, event=event or ValueEvent(0),
                   direction=(1,), scale=1.0, p_value=0.5)


def test_reshape_pair_pads_with_common_fill():
    # a bump at the last coordinate must stay a single-coordinate bump
    d1, d2 = _reshape_pair((1, 1, 1, 1, 2), (1, 1, 1, 1, 1), 10)
    assert sum(1 for x, y in zip(d1, d2) if x != y) == 1
    assert len(d1) == len(d2) == 10


def test_reshape_pair_truncates():
    d1, d2 = _reshape_pair((0, 0, 0, 1, 1), (1, 1, 1, 1, 1), 3)
    assert d1 == (0, 0, 0) and d2 == (1, 1, 1)


@given(qlen_from=st.integers(1, 12), qlen_to=st.integers(1, 12),
       bump=st.data())
@settings(max_examples=80, deadline=None)
def test_inherited_examples_stay_adjacent(qlen_from, qlen_to, bump):
    i = bump.draw(st.integers(0, qlen_from - 1))
    base = tuple(bump.draw(st.integers(0, 3)) for _ in range(qlen_from))
    d2 = base[:i] + (base[i] + 1,) + base[i + 1:]
    out = _inherit_examples([_example(base, d2)], qlen_to)
    for ex in out:
        assert len(ex.d1) == qlen_to
        assert ex.d1 != ex.d2
        assert all(abs(x - y) <= 1 for x, y in zip(ex.d1, ex.d2))


def test_inherit_drops_pairs_that_collapse():
    # the differing suffix is cut off entirely
    out = _inherit_examples([_example((1, 1, 1, 1, 2), (1, 1, 1, 1, 1))], 3)
    assert out == []


def test_inherit_drops_out_of_range_events():
    ex_coord = _example((0, 0, 0, 0, 0), (1, 1, 1, 1, 1),
                        event=CoordEvent(7, 1, "ge"))
    assert _inherit_examples([ex_coord], 5) == []
    assert len(_inherit_examples([ex_coord], 10)) == 1
    ex_tuple = _example((0, 0, 0, 0, 0), (1, 1, 1, 1, 1),
                        event=ValueEvent((0, 1, 2, 3, 4)))
    assert _inherit_examples([ex_tuple], 10) == []
    assert len(_inherit_examples([ex_tuple], 5)) == 1


# ---------------------------------------------------------------------------
# Fixed binding and test bindings
# ---------------------------------------------------------------------------

def test_fix_params_micro(micro_scalar):
    cfg = RunConfig()
    binding = fix_params(micro_scalar, cfg)
    assert binding == {"eps": Fraction(1, 2), "qlen": 5}


def test_fix_params_includes_sketch_args():
    sk = parse_sketch("""mechanism G
private a
args T, N
adjacency all

x <- T + Lap(?1)
return x
""")
    binding = fix_params(sk, RunConfig())
    assert binding["T"] == 2 and binding["N"] == 1


def test_fix_params_unknown_arg_rejected():
    sk = parse_sketch("""mechanism G
private a
args K
adjacency all

x <- K + Lap(?1)
return x
""")
    with pytest.raises(SynthError):
        fix_params(sk, RunConfig())


def test_bindings_cover_eps_and_qlen_grid(micro_scalar):
    cfg = RunConfig()
    bindings = _bindings(micro_scalar, cfg)
    assert len(bindings) == 6
    assert {(b["eps"], b["qlen"]) for b in bindings} == {
        (e, q) for e in cfg.test_eps for q in cfg.test_qlens}


def test_banks_at_the_target_epsilon_use_the_configured_scales(
        micro_scalar):
    # the fixed binding's epsilon is cfg.epsilon, so its banks must not be
    # rescaled whatever that epsilon is
    cfg = RunConfig(epsilon=Fraction(1), presamples=10)
    bank = optimizer_bank(micro_scalar, fix_params(micro_scalar, cfg), cfg)
    assert bank.scales == (PROPOSAL_SCALE,)
    assert _mixture_at(cfg, cfg.epsilon) == cfg.scale_grid


def _draws_digest(bank) -> str:
    h = hashlib.sha256()
    for draws in bank.draws:
        h.update(repr(draws.shape).encode())
        h.update(draws.tobytes())
    return h.hexdigest()


def test_bank_draws_are_frozen(benchmarks):
    # a scoring bank whose mixture (1/6 .. 4) spans both of the sampler's
    # geometric branches, and the optimizer's one-component bank at scale
    # 4: sampler speed-ups must leave every draw as it is
    sketch = benchmarks["noisymax1"]
    cfg = RunConfig(seed=0, presamples=3000)
    binding = dict(fix_params(sketch, cfg), eps=Fraction(3, 2), qlen=5)
    scales = _mixture_at(cfg, binding["eps"])
    assert min(scales) == pytest.approx(1 / 6) and max(scales) == 4
    scoring = PresampleBank(sketch, binding, m=cfg.presamples, scales=scales,
                            seed=cfg.seed)
    assert _draws_digest(scoring) == ("b38351ab718704b5290e9c41d6d138a1"
                                      "819a59d0408b7021e19ef526b3c8573f")
    optimizer = optimizer_bank(sketch, fix_params(sketch, cfg), cfg)
    assert optimizer.scales == (4.0,)
    assert _draws_digest(optimizer) == ("a339010bd3bd9be594992cedcc05a2f3"
                                        "b87fef7b8eb729e625dfb47eb36f9d3e")


def test_report_config_block_names_every_field(micro_scalar):
    # every setting, RunConfig field or module constant, under the key and
    # in the form reports have always printed it
    report = _report(micro_scalar, RunConfig(), [], None, [], [], [], [])
    assert report["config"] == {
        "seed": 0, "epsilon": "1/2", "qlen": 5, "trials": 20000,
        "presamples": 50000, "lambda": 1.0, "population": 50,
        "steps_per_hole": 500, "radius": 3.0, "zone": [0.05, 0.9],
        "proposal_scale": 4.0,
        "scale_grid": [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0],
        "coeff_range": [1, 4], "qlen_exp_range": [0, 2],
        "inveps_exp_range": [1, 2], "event_floor": 1e-4,
        "verify_alpha": 0.05, "examples_cap": 12,
        "test_eps": ["1/5", "1/2", "3/2"], "test_qlens": [5, 10],
        "fixed_args": {"M": 2, "N": 1, "T": 2}}


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

def test_sort_key_orders_lexicographically():
    a = RankedCandidate((), 0, 2.0, Fraction(8), 3, tight_loss=2.0)
    b = RankedCandidate((), 0, 2.0, Fraction(12), 1, tight_loss=2.0)
    c = RankedCandidate((), 0, 3.0, Fraction(12), 2, tight_loss=3.0)
    d = RankedCandidate((), 1, 9.0, Fraction(1), 0, tight_loss=9.0)
    assert sorted([d, b, a, c], key=RankedCandidate.sort_key) == [c, a, b, d]


def test_sort_key_ties_losses_within_grain_then_prefers_less_noise():
    # losses within one log grain count as equal, so the lighter candidate
    # wins even though its raw estimate is marginally lower (a completion
    # that post-processes another shows exactly this signature)
    post = RankedCandidate((), 0, 4.54, Fraction(6), 0, tight_loss=4.54)
    plain = RankedCandidate((), 0, 4.48, Fraction(4), 1, tight_loss=4.48)
    assert sorted([post, plain], key=RankedCandidate.sort_key) == [plain, post]
    # clearly separated losses still dominate the magnitude key
    tight = RankedCandidate((), 0, 4.48, Fraction(12), 1, tight_loss=4.48)
    loose = RankedCandidate((), 0, 2.00, Fraction(2), 0, tight_loss=2.00)
    assert sorted([loose, tight], key=RankedCandidate.sort_key) == [tight, loose]


@pytest.fixture(scope="module")
def rank_setup(micro_scalar):
    bank = PresampleBank(micro_scalar, {"qlen": 5}, m=40000,
                         scales=(0.5, 1.0, 2.0, 4.0, 8.0), seed=2)
    example = Example(d1=(0, 0, 0, 0, 0), d2=(1, 0, 0, 0, 0),
                      event=HalfLineEvent(0, "le"), direction=(1,),
                      scale=1.0, p_value=0.5)
    binding = {"eps": Fraction(1, 2), "qlen": 5}
    return [(binding, [example])], binding, bank


def _rank(cands, setup):
    """The ranking on the setup's prebuilt bank, without the work count."""
    tests, binding, bank = setup
    return rank_candidates(cands, tests, binding, lambda _: bank)[0]


def test_rank_tighter_private_candidate_first(rank_setup):
    # both candidates are private here; the tighter scale has higher loss
    cands = [(NoiseExpr(4, 0, 1),), (NoiseExpr(1, 0, 1),)]
    ranked = _rank(cands, rank_setup)
    assert render_vector(ranked[0].exprs) == "(1/eps)"
    assert ranked[0].violations == ranked[1].violations == 0
    assert ranked[0].worst_loss > ranked[1].worst_loss
    assert ranked[0].worst_loss == pytest.approx(math.exp(0.5), rel=0.1)


def test_rank_counts_violations_for_no_noise(rank_setup):
    cands = [(None,), (NoiseExpr(1, 0, 1),)]
    ranked = _rank(cands, rank_setup)
    assert render_vector(ranked[0].exprs) == "(1/eps)"
    bot = ranked[1]
    assert bot.violations == 1
    assert bot.worst_loss > 1000.0
    assert bot.magnitude == 0


def test_rank_boundary_candidate_is_not_a_violation(rank_setup):
    # (1/eps) sits exactly on e^eps: its interval must cover the truth and
    # the estimate's noise alone must not count as a violation
    [(_, examples)], _, bank = rank_setup
    z = -ndtri(VERIFY_ALPHA / len(examples))
    losses, se = example_losses_with_se(bank, examples, [(2.0,)], z)
    log_loss = math.log(losses[0, 0])
    assert log_loss - z * se[0, 0] <= 0.5 <= log_loss + z * se[0, 0]
    cands = [(NoiseExpr(1, 0, 1),), (None,)]
    ranked = _rank(cands, rank_setup)
    assert [render_vector(r.exprs) for r in ranked] == ["(1/eps)", "(bot)"]
    assert [r.violations for r in ranked] == [0, 1]


def test_rank_dry_side_gets_a_one_sided_bound(micro_scalar):
    # out = a[1] + v with shared draws v: the event {out = k} is hit by
    # d1 = (0, ..) when v = k and by d2 = (1, ..) when v = k - 1.  At the
    # first k no draw reaches, d1 is dry while d2 has hits.
    bank = PresampleBank(micro_scalar, {"qlen": 5}, m=2000,
                         scales=(PROPOSAL_SCALE,), seed=0)
    d1, d2 = (0, 0, 0, 0, 0), (1, 0, 0, 0, 0)
    dry = bank.clamp[0]
    events = tuple(ValueEvent(k) for k in range(1, 200))
    est, _ = bank.estimate({d1: events, d2: events}, [(4.0,)])
    event = next(e for e in events if est[(d1, e)][0] == dry)
    assert est[(d2, event)][0] >= EVENT_FLOOR
    example = Example(d1=d1, d2=d2, event=event, direction=(1,), scale=1.0,
                      p_value=0.5)
    binding = {"eps": Fraction(1, 2), "qlen": 5}
    z = -ndtri(VERIFY_ALPHA)
    # scale 4 = 2/eps has exact loss e^(1/4) < e^eps, yet the ratio to the
    # clamp puts the point estimate far above e^eps
    losses, se = example_losses_with_se(bank, [example], [(4.0,)], z)
    assert losses[0, 0] > math.exp(0.5)
    assert se[0, 0] > 0.0
    assert math.log(losses[0, 0]) - z * se[0, 0] <= 0.25
    # 4/eps reweights the same lone hit to a far larger estimate; neither is
    # a violation, so both read as "at the bound" and the lighter one wins
    ranked = _rank([(NoiseExpr(4, 0, 1),), (NoiseExpr(2, 0, 1),)],
                   ([(binding, [example])], binding, bank))
    assert [r.violations for r in ranked] == [0, 0]
    assert [render_vector(r.exprs) for r in ranked] == ["(2/eps)", "(4/eps)"]
    assert ranked[1].worst_loss > ranked[0].worst_loss
    assert ranked[0].tight_loss == ranked[1].tight_loss == math.exp(0.5)


def test_rank_equal_keys_fall_back_to_enumeration_order(rank_setup):
    # identical concrete scale at this binding: all keys tie except the index
    cands = [(NoiseExpr(2, 0, 1),), (NoiseExpr(1, 0, 2),)]
    ranked = _rank(cands, rank_setup)
    assert render_vector(ranked[0].exprs) == "(2/eps)"
    assert ranked[0].worst_loss == ranked[1].worst_loss
    assert ranked[0].magnitude == ranked[1].magnitude == 4


def test_rank_records_per_binding_detail(rank_setup):
    ranked = _rank([(NoiseExpr(1, 0, 1),)], rank_setup)
    assert len(ranked[0].per_binding) == 1
    key, loss, viol = ranked[0].per_binding[0]
    assert key == "eps=1/2,qlen=5"
    assert loss == ranked[0].worst_loss
    assert viol == 0


def test_rank_builds_a_bank_only_for_bindings_with_examples(rank_setup):
    tests, binding, bank = rank_setup
    built = []

    def bank_for(b):
        built.append(b)
        return bank

    idle = dict(binding, qlen=10)
    _, work = rank_candidates([(NoiseExpr(1, 0, 1),)], [(idle, []), *tests],
                              binding, bank_for)
    assert built == [binding]
    assert work == {"bank_runs": bank.runs_grouped,
                    "bank_stat_rows": bank.stat_rows}


def test_rank_requires_examples(rank_setup):
    [(binding, _)], _, bank = rank_setup
    with pytest.raises(ValueError):
        _rank([(NoiseExpr(1, 0, 1),)], ([(binding, [])], binding, bank))


# ---------------------------------------------------------------------------
# Final verification and the full loop
# ---------------------------------------------------------------------------

def test_final_verify_rejects_no_noise(micro_scalar):
    cfg = RunConfig(trials=2000)
    bindings = [{"eps": Fraction(1, 2), "qlen": 5}]
    ranked = [
        RankedCandidate((NoiseExpr(1, 0, 1),), 0, 1.6, Fraction(2), 1,
                        tight_loss=1.6),
        RankedCandidate((None,), 6, 5e5, Fraction(0), 0,
                        tight_loss=5e5),
    ]
    survivors, details = final_verify(micro_scalar, ranked, bindings, cfg)
    assert [render_vector(s.exprs) for s in survivors] == ["(1/eps)"]
    assert survivors[0].verdicts[0][0] == "eps=1/2,qlen=5"
    assert survivors[0].verdicts[0][1] > VERIFY_ALPHA
    rejected = details[1]
    assert rejected["rejected"] is True
    assert rejected["verdicts"][0]["min_p"] < VERIFY_ALPHA
    assert "confirm_p" in rejected["verdicts"][0]


def test_synth_end_to_end_micro(micro_scalar):
    cfg = RunConfig(trials=1500, presamples=15000, population=10,
                    steps_per_hole=40, examples_cap=8,
                    scale_grid=(0.5, 2.0, 8.0),
                    test_eps=(Fraction(1, 2), Fraction(3, 2)),
                    test_qlens=(5,))
    outcome = synth(micro_scalar, cfg)
    report = outcome.report
    assert report["mechanism"] == "Micro"
    assert report["candidate_count"] >= 1
    assert outcome.survivors
    assert render_vector(outcome.survivors[0].exprs) == "(1/eps)"
    assert report["survivors"][0]["completion"] == "(1/eps)"
    assert set(report["phases"]) == {"init", "opti", "enum", "verify"}
    assert set(outcome.timings) == {"init", "opti", "enum", "verify", "total"}
    assert report["region"]["entries"]
    assert report["radius_used"] == cfg.radius


# a reduced budget whose run still reaches every phase and both off-masks
MICRO_BUDGET = dict(trials=1000, presamples=4000, population=6,
                    steps_per_hole=10, examples_cap=4,
                    scale_grid=(0.5, 2.0, 8.0),
                    test_eps=(Fraction(1, 2),), test_qlens=(5,))


@pytest.fixture(scope="module")
def micro_synth_run(micro_scalar):
    """A micro synth run from an empty kernel cache, with the off-mask of
    every kernel code-generation pass it made."""
    masks = []
    kernel = lang._Emitter.kernel

    def counted(self):
        masks.append(self.bottoms)
        return kernel(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lang, "_KERNELS", {})
        mp.setattr(lang._Emitter, "kernel", counted)
        outcome = synth(micro_scalar, RunConfig(**MICRO_BUDGET))
    return outcome, masks


def test_synth_compiles_each_off_mask_once(micro_synth_run):
    _, masks = micro_synth_run
    # one compilation is two passes: the probe and the final emission
    assert Counter(masks) == {(False,): 2, (True,): 2}


def test_synth_memo_does_not_outlive_the_operation(micro_scalar, monkeypatch):
    # two identical synths evaluate the same Fisher tables: the second
    # starts from an empty memo, as a separate command would
    tables = []
    fisher_sf = tester._fisher_sf

    def counted(k, *args):
        tables[-1] += np.size(k)
        return fisher_sf(k, *args)

    monkeypatch.setattr(tester, "_fisher_sf", counted)
    for _ in range(2):
        tables.append(0)
        synth(micro_scalar, RunConfig(**MICRO_BUDGET))
    assert tables[0] == tables[1] > 0


def test_synth_without_examples_returns_an_empty_report(micro_scalar,
                                                       monkeypatch):
    monkeypatch.setattr(SYNTH, "select_examples", lambda *args, **kw: [])
    outcome = synth(micro_scalar, RunConfig(**MICRO_BUDGET))
    report = outcome.report
    assert report["note"] == "no challenging examples found"
    assert report["region"] is None
    assert report["survivors"] == [] and outcome.survivors == []
    assert report["candidate_count"] == 0
    assert outcome.counters == {"bank_runs": 0, "bank_stat_rows": 0,
                                "fisher_tables": 0, "thinned_counts": 0,
                                "screen_refined": 0}


def test_synth_doubles_the_radius_when_nothing_survives_pruning(
        micro_scalar, monkeypatch):
    radii = []
    real = enumerate_and_prune

    def empty_at_first_radius(region, binding, *, radius):
        radii.append(radius)
        return [] if len(radii) == 1 else real(region, binding,
                                               radius=radius)

    monkeypatch.setattr(SYNTH, "enumerate_and_prune", empty_at_first_radius)
    cfg = RunConfig(**MICRO_BUDGET)
    report = synth(micro_scalar, cfg).report
    assert radii == [cfg.radius, 2 * cfg.radius]
    assert report["radius_used"] == 2 * cfg.radius
    assert report["candidate_count"] > 0


def test_micro_synth_report_is_frozen(micro_synth_run):
    # the report's digest without its config block, re-recorded when the
    # bank's importance sums went from float32 over runs to float64 over
    # distinct statistics rows (losses moved in the 6th decimal)
    report = dict(micro_synth_run[0].report)
    del report["config"]
    digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    assert digest == ("156cb77c6eb2eb50c9845b3c692ac0ca"
                      "2d9789e5cc936168a32e1f99c12f669a")


def test_synth_small_report_is_frozen(benchmarks):
    # the benchmark's synth-small call, pinned as the micro report is:
    # bank and tester speed-ups must leave its report and its bank's work
    # counters as they are
    cfg = RunConfig(seed=0, epsilon=Fraction(1, 2), qlen=5, trials=1000,
                    presamples=4000, population=20, steps_per_hole=30)
    outcome = synth(benchmarks["noisymax1"], cfg)
    report = dict(outcome.report)
    del report["config"]
    digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    assert digest == ("be1bb024777c63ac564e596558156bb7"
                      "80f29ee89136263072fa6b4acf9f97cf")
    assert outcome.counters == {"bank_runs": 264000, "bank_stat_rows": 10640,
                                "fisher_tables": 5649,
                                "thinned_counts": 24660,
                                "screen_refined": 14038}


@pytest.mark.parametrize("name", ["noisymax1", "svt"])
def test_synth_holds_one_presample_bank_at_a_time(benchmarks, monkeypatch,
                                                  name):
    # no bank is built while another is alive, and the sidecar's bank
    # totals are the sum of every bank's own counters
    live = weakref.WeakKeyDictionary()  # live bank -> its index in work
    work = []        # per bank built: (runs grouped, stat rows) so far
    overlaps = []    # banks alive as each bank is built
    init, runs_for = PresampleBank.__init__, PresampleBank.runs_for

    def tracked_init(self, *args, **kwargs):
        overlaps.append(len(live))
        init(self, *args, **kwargs)
        live[self] = len(work)
        work.append((0, 0))

    def tracked_runs_for(self, *args, **kwargs):
        out = runs_for(self, *args, **kwargs)
        work[live[self]] = (self.runs_grouped, self.stat_rows)
        return out

    monkeypatch.setattr(PresampleBank, "__init__", tracked_init)
    monkeypatch.setattr(PresampleBank, "runs_for", tracked_runs_for)
    cfg = RunConfig(seed=0, trials=1000, presamples=2000, population=6,
                    steps_per_hole=5)
    outcome = synth(benchmarks[name], cfg)
    assert outcome.report["candidate_count"] > 0
    # the optimizer's bank and at least one test binding's
    assert len(work) >= 2 and overlaps == [0] * len(work)
    assert not live
    runs, rows = (sum(col) for col in zip(*work))
    assert (outcome.counters["bank_runs"],
            outcome.counters["bank_stat_rows"]) == (runs, rows)
