"""Symbolic completion of noise holes: enumerate, prune, rank, verify.

The concrete noise region found by differential evolution anchors an
enumerative search over a small expression grammar (coefficient times a power
of the query count times a power of 1/eps, or "no noise").  Expression
vectors whose concrete values at the fixed binding fall within an L1
neighborhood of some region member survive pruning; survivors are ranked
against test examples across several argument bindings by (violations,
privacy-loss tightness, injected noise magnitude) and the top few are
re-checked with the statistical tester before being reported.

Expression arithmetic is exact (rationals) so rankings cannot wobble with
floating-point noise; floats appear only inside the estimators.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy.special import ndtri

from .config import (COEFF_RANGE, FIXED_ARGS, INVEPS_EXP_RANGE,
                     PROPOSAL_SCALE, QLEN_EXP_RANGE, VERIFY_ALPHA, ZONE,
                     RunConfig, _frac_str)
from .lang import MechanismSketch
from .search import (Example, NoiseRegion, PresampleBank,
                     example_losses_with_se, get_noise_region, select_examples)
from .tester import (CoordEvent, FisherMemo, ValueEvent, decision_p,
                     test_mechanism)

__all__ = [
    "NoiseExpr", "expressions", "RankedCandidate", "SynthError",
    "SynthOutcome", "enumerate_and_prune", "rank_candidates", "final_verify",
    "synth", "fix_params", "render_vector", "optimizer_bank",
]


class SynthError(Exception):
    """A failure inside the synthesis phase named ``phase``."""

    def __init__(self, phase: str, message: str):
        super().__init__(message)
        self.phase = phase


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseExpr:
    """coeff * qlen^q_exp * (1/eps)^inveps_exp, both exponents >= 0."""

    coeff: int
    q_exp: int
    inveps_exp: int

    def gamma(self, binding: dict) -> Fraction:
        val = Fraction(self.coeff)
        if self.q_exp:
            val *= Fraction(binding["qlen"]) ** self.q_exp
        if self.inveps_exp:
            val /= Fraction(binding["eps"]) ** self.inveps_exp
        return val

    def render(self) -> str:
        num = [] if self.coeff == 1 else [str(self.coeff)]
        if self.q_exp == 1:
            num.append("qlen")
        elif self.q_exp > 1:
            num.append(f"qlen^{self.q_exp}")
        head = "*".join(num) if num else "1"
        if self.inveps_exp == 1:
            return f"{head}/eps"
        if self.inveps_exp > 1:
            return f"{head}/eps^{self.inveps_exp}"
        return head


def render_vector(exprs) -> str:
    return "(" + ", ".join("bot" if e is None else e.render() for e in exprs) + ")"


def expressions() -> list:
    """The grammar over the config's coefficient and exponent ranges:
    no-noise first, then lexicographic in (coeff, q_exp, inveps_exp) — the
    tie-break order for all downstream ranking."""
    ranges = (COEFF_RANGE, QLEN_EXP_RANGE, INVEPS_EXP_RANGE)
    return [None] + [NoiseExpr(*ce) for ce in itertools.product(
        *(range(lo, hi + 1) for lo, hi in ranges))]


def gamma_vector(exprs, binding: dict) -> tuple:
    """Concrete noise scales (floats, None for no-noise) at a binding."""
    return tuple(None if e is None else float(e.gamma(binding)) for e in exprs)


# ---------------------------------------------------------------------------
# Pruning against the noise region
# ---------------------------------------------------------------------------

_CHAMPION_SLACK = 0.5


def _prune_anchors(region: NoiseRegion) -> list:
    """Region vectors that pruning measures distance against: the final
    population plus any per-mask champion whose objective is within the
    cost of one extra noise hole (lam, plus estimator slack) of the best.
    The population almost always collapses into one basin; near-tied
    champions keep the other basins reachable by enumeration."""
    anchors = [vec for vec, _ in region.entries]
    if region.champions:
        cut = region.entries[0][1] + region.lam + _CHAMPION_SLACK
        anchors.extend(vec for vec, obj in region.champions if obj <= cut)
    return anchors


def enumerate_and_prune(region: NoiseRegion, args: dict, *,
                        radius: float) -> list:
    """Expression vectors whose gamma-values have an L1 witness in the region.

    A no-noise hole matches only region coordinates that snapped to no-noise
    (distance 0 there); a noisy hole measures |gamma - scale| against the
    member's coordinate, counting snapped coordinates as 0.0.
    """
    if not region.entries:
        raise ValueError("region must be nonempty")
    if not radius > 0:
        raise ValueError("radius must be positive")
    exprs = expressions()
    gvals = np.array([0.0 if e is None else float(e.gamma(args)) for e in exprs])
    gbot = np.array([e is None for e in exprs])
    # per combination of one expression per hole (axis h indexes hole h's
    # expression), its least distance over the anchors; each anchor's
    # distances add up hole by hole, as a row sum over holes would
    best = np.inf
    for vec in _prune_anchors(region):
        dist = 0.0
        for r in vec:
            hole = np.abs(gvals - (0.0 if r is None else r))
            if r is not None:
                hole[gbot] = np.inf
            dist = np.add.outer(dist, hole)
        best = np.minimum(best, dist)
    return [tuple(exprs[i] for i in combo)
            for combo in np.argwhere(best <= radius + 1e-9)]


# ---------------------------------------------------------------------------
# Test-example construction at varied bindings
# ---------------------------------------------------------------------------

def _reshape_pair(d1: tuple, d2: tuple, qlen: int) -> tuple:
    """Truncate or extend an answer pair to ``qlen``, padding both sides with
    the same fill so the pair's adjacency pattern is preserved."""
    if len(d1) >= qlen:
        return tuple(d1[:qlen]), tuple(d2[:qlen])
    pad = (d1[-1],) * (qlen - len(d1))
    return tuple(d1) + pad, tuple(d2) + pad


def _event_valid_at(event, qlen: int) -> bool:
    if isinstance(event, CoordEvent):
        return event.coord < qlen
    if isinstance(event, ValueEvent) and isinstance(event.value, tuple) \
            and not all(isinstance(x, bool) for x in event.value):
        # a fixed integer tuple only matches outputs of its own length
        return len(event.value) == qlen
    return True


def _inherit_examples(examples, qlen: int) -> list:
    out = []
    for ex in examples:
        if not _event_valid_at(ex.event, qlen):
            continue
        d1, d2 = _reshape_pair(ex.d1, ex.d2, qlen)
        if d1 == d2:
            continue
        out.append(replace(ex, d1=d1, d2=d2))
    return out


def _fresh_examples(sketch, binding, best_vector, cfg: RunConfig, seed,
                    memo) -> list:
    """One tester pass at the region's best vector rescaled to the binding's
    epsilon; zone hits become extra test examples."""
    factor = _rescale(cfg, binding["eps"])
    vec = [None if v is None else float(v) * factor for v in best_vector]
    out = []
    for cx in test_mechanism(sketch, binding, vec, trials=cfg.trials,
                             seed=seed, band=ZONE, memo=memo):
        if ZONE[0] <= cx.p_value <= ZONE[1]:
            out.append(Example(d1=cx.d1, d2=cx.d2, event=cx.event,
                               direction=(), scale=round(factor, 6),
                               p_value=cx.p_value))
    return out


def build_test_examples(sketch, examples, region_best, bindings,
                        cfg: RunConfig, memo) -> dict:
    """Per binding: inherited example shapes rescaled to the binding's length
    plus fresh zone hits, deduplicated, capped by p-centrality."""
    out = {}
    for b_idx, binding in enumerate(bindings):
        pool = _inherit_examples(examples, binding["qlen"])
        pool += _fresh_examples(sketch, binding, region_best, cfg,
                                seed=[cfg.seed, 5, b_idx], memo=memo)
        seen = {}
        for ex in pool:
            key = (ex.d1, ex.d2, ex.event)
            if key not in seen:
                seen[key] = ex
        pool = sorted(seen.values(), key=lambda ex: abs(ex.p_value - 0.5))
        out[_binding_key(binding)] = pool[:cfg.examples_cap]
    return out


def _binding_key(binding: dict) -> str:
    return f"eps={_frac_str(binding['eps'])},qlen={binding['qlen']}"


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

LOSS_GRAIN = 0.1  # log-loss comparison resolution (about +-5% multiplicative)


@dataclass(frozen=True)
class RankedCandidate:
    exprs: tuple
    violations: int
    worst_loss: float        # max estimated loss over all test examples
    magnitude: Fraction      # total gamma at the fixed binding
    enum_index: int
    tight_loss: float        # worst loss the tightness key reads
    per_binding: tuple = ()  # ((binding key, worst loss, violations), ...)
    verdicts: tuple = ()     # ((binding key, min p, confirm p or None), ...)

    def sort_key(self):
        # losses are Monte-Carlo estimates, so the key compares them at the
        # estimator's resolution: candidates within one log-loss grain tie
        # on loss and fall through to the noise-magnitude key (a completion
        # that merely post-processes another has the same true loss and
        # should lose on the extra noise, not win on estimate wobble)
        quantized = round(math.log(self.tight_loss) / LOSS_GRAIN)
        return (self.violations, -quantized, self.magnitude, self.enum_index)

    def to_json(self) -> dict:
        d = {
            "completion": render_vector(self.exprs),
            "exprs": ["bot" if e is None else e.render() for e in self.exprs],
            "violations": self.violations,
            "worst_loss": round(self.worst_loss, 6),
            "magnitude": _frac_str(self.magnitude),
            "enum_index": self.enum_index,
            "per_binding": [
                {"binding": k, "worst_loss": round(float(l), 6),
                 "violations": int(v)}
                for k, l, v in self.per_binding
            ],
        }
        if self.verdicts:
            d["verdicts"] = [_verdict_json(v) for v in self.verdicts]
        return d


def _verdict_json(verdict) -> dict:
    """A (binding key, min p, confirm p or None) verdict as a report entry."""
    key, p, confirm_p = verdict
    out = {"binding": key, "min_p": round(float(p), 6)}
    if confirm_p is not None:
        out["confirm_p"] = round(float(confirm_p), 6)
    return out


def rank_candidates(cands, tests, gamma_binding: dict, bank_for) -> tuple:
    """Score every candidate at every binding and sort by the lexicographic
    key (violations asc, worst loss desc, magnitude asc, enumeration order).

    ``tests`` is a list of (binding, examples).  ``bank_for(binding)``
    builds the :class:`~mechsynth.search.PresampleBank` a binding's
    candidates are scored on; it is called just before that binding is
    scored, for bindings with examples only, and the bank is dropped right
    after, so no two banks are alive together.  Returns the ranking and
    the banks' work, a :class:`~collections.Counter` of ``bank_runs`` and
    ``bank_stat_rows`` summed as each bank is dropped.

    A violation is an example whose loss is above e^eps at that binding's
    epsilon with confidence: the lower confidence bound log(loss) - z * se,
    from the estimate's delta-method standard error, exceeds eps.  The
    level is ``VERIFY_ALPHA``, Bonferroni-corrected over every example a
    candidate is scored on across all bindings.  Among equally private candidates the
    higher worst loss marks the tighter (less over-noised) completion;
    losses within one ``LOSS_GRAIN`` of each other count as equal and defer
    to magnitude.  A private completion's true loss is at most e^eps, so an
    estimate above e^eps that is not a violation only says "at the bound":
    tightness reads it as e^eps, and noisier estimates cannot outrank the
    exact completion by landing higher.
    """
    work = Counter()
    if not cands:
        return [], work
    n_tests = sum(len(examples) for _, examples in tests)
    if not n_tests:
        raise ValueError("no test examples at any binding")
    z = -float(ndtri(VERIFY_ALPHA / n_tests))
    n_c = len(cands)
    violations = np.zeros(n_c, dtype=np.int64)
    worst_loss = np.full(n_c, -np.inf)
    tight_loss = np.full(n_c, -np.inf)
    per_binding = [[] for _ in range(n_c)]
    for binding, examples in tests:
        if not examples:
            continue
        eps = float(binding["eps"])
        concrete = [gamma_vector(exprs, binding) for exprs in cands]
        bank = bank_for(binding)
        losses, se = example_losses_with_se(
            bank, examples, concrete, z)                     # (C, n_ex)
        work.update(bank_runs=bank.runs_grouped, bank_stat_rows=bank.stat_rows)
        del bank        # before the next binding's bank is built
        violating = np.log(losses) - z * se > eps
        v = violating.sum(axis=1)
        worst = losses.max(axis=1)
        violations += v
        worst_loss = np.maximum(worst_loss, worst)
        capped = np.where(violating, losses, np.minimum(losses, math.exp(eps)))
        tight_loss = np.maximum(tight_loss, capped.max(axis=1))
        key = _binding_key(binding)
        for i in range(n_c):
            per_binding[i].append((key, float(worst[i]), int(v[i])))
    ranked = [
        RankedCandidate(
            exprs=tuple(exprs), violations=int(violations[i]),
            worst_loss=float(worst_loss[i]),
            magnitude=sum((e.gamma(gamma_binding) for e in exprs
                           if e is not None), Fraction(0)),
            enum_index=i, per_binding=tuple(per_binding[i]),
            tight_loss=float(tight_loss[i]))
        for i, exprs in enumerate(cands)
    ]
    ranked.sort(key=RankedCandidate.sort_key)
    return ranked, work


# ---------------------------------------------------------------------------
# Final verification
# ---------------------------------------------------------------------------

def final_verify(sketch: MechanismSketch, ranked, bindings, cfg: RunConfig,
                 memo=None):
    """Re-test the top 5 * #holes candidates with the statistical tester at
    every binding; reject any with a counterexample below ``VERIFY_ALPHA``.

    Rejection reads the tester's decision cells (one pilot-selected event
    per pair and orientation), not the raw minimum over every derived
    event, which is multiplicity-biased; so the tester computes the final
    p-values of those cells alone (``decision_only``), sharing ``memo``.
    A flagged binding additionally only rejects after the result
    reproduces under an independent seed; real violations sit many orders
    of magnitude below alpha and confirm trivially.  Returns (survivors,
    details) with per-binding decision p-values attached; survivor order
    follows the incoming ranking."""
    budget = 5 * sketch.n_holes
    top = ranked[:budget]
    survivors = []
    details = []
    for c_idx, cand in enumerate(top):
        verdicts = []
        rejected = False
        for b_idx, binding in enumerate(bindings):
            vec = gamma_vector(cand.exprs, binding)

            def run_once(rep):
                return decision_p(test_mechanism(
                    sketch, binding, vec, trials=cfg.trials,
                    seed=[cfg.seed, 7, c_idx, b_idx, rep],
                    decision_only=True, memo=memo))

            min_p = run_once(0)
            confirm_p = None
            if min_p < VERIFY_ALPHA:
                confirm_p = run_once(1)
            verdicts.append((_binding_key(binding), min_p, confirm_p))
            if confirm_p is not None and confirm_p < VERIFY_ALPHA:
                rejected = True
                break
        details.append({"candidate": render_vector(cand.exprs),
                        "rejected": rejected,
                        "verdicts": [_verdict_json(v) for v in verdicts]})
        if not rejected:
            survivors.append(replace(cand, verdicts=tuple(verdicts)))
    return survivors, details


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

def fix_params(sketch: MechanismSketch, cfg: RunConfig) -> dict:
    """The fixed argument binding for example discovery and optimization."""
    binding = {"eps": cfg.epsilon, "qlen": cfg.qlen}
    for a in sketch.args:
        if a not in FIXED_ARGS:
            raise SynthError("init", f"no fixed value for sketch argument {a!r}")
        binding[a] = FIXED_ARGS[a]
    return binding


def _bindings(sketch: MechanismSketch, cfg: RunConfig) -> list:
    """The test bindings: the fixed one at every (test eps, test qlen)."""
    fixed = fix_params(sketch, cfg)
    return [dict(fixed, eps=eps, qlen=qlen)
            for eps in cfg.test_eps for qlen in cfg.test_qlens]


def _rescale(cfg: RunConfig, eps) -> float:
    """Factor carrying a noise scale found at the fixed binding's epsilon to
    a binding at ``eps`` (scales that suit eps-DP go as 1/eps)."""
    return float(Fraction(cfg.epsilon) / Fraction(eps))


def _mixture_at(cfg: RunConfig, eps) -> tuple:
    # scoring banks cover the whole discovery grid, rescaled to the binding,
    # so candidates far from the central proposal still get stable weights
    factor = _rescale(cfg, eps)
    return tuple(g * factor for g in cfg.scale_grid)


def optimizer_bank(sketch: MechanismSketch, binding: dict,
                   cfg: RunConfig) -> PresampleBank:
    """The bank the optimizer's objective is scored on: one component at
    ``PROPOSAL_SCALE``."""
    return PresampleBank(sketch, binding, m=cfg.presamples,
                         scales=(PROPOSAL_SCALE,), seed=cfg.seed)


@contextmanager
def _phase(name: str, timings: dict):
    """Time one synthesis phase into ``timings[name]``; any failure inside
    it but a :class:`SynthError` or a :class:`MemoryError` becomes a
    ``SynthError`` of that phase."""
    t0 = time.perf_counter()
    try:
        yield
    except (SynthError, MemoryError):
        raise
    except Exception as exc:
        raise SynthError(name, str(exc)) from exc
    timings[name] = time.perf_counter() - t0


@dataclass
class SynthOutcome:
    report: dict
    timings: dict
    survivors: list
    counters: dict


def _counters(work: Counter, memo) -> dict:
    """The banks' ``work`` (runs grouped and distinct statistics rows kept,
    summed over every bank) and the exact Fisher tables, thinned counts
    and screen-refined tables ``memo`` computed."""
    return {"bank_runs": work["bank_runs"],
            "bank_stat_rows": work["bank_stat_rows"],
            "fisher_tables": memo.fisher_tables,
            "thinned_counts": memo.thinned_counts,
            "screen_refined": memo.screen_refined}


def synth(sketch: MechanismSketch, cfg: RunConfig) -> SynthOutcome:
    """End-to-end synthesis: fix the binding, discover examples, optimize the
    noise region, enumerate and prune expressions, rank across bindings, and
    verify the top candidates.  The returned report is reproducible byte for
    byte at a fixed config; wall-clock numbers live in ``timings`` only.

    At most one presample bank is alive at a time: the optimizer's bank is
    built when differential evolution starts and dropped once it returns
    and the bank's work is counted; each test binding's bank is built and
    dropped inside :func:`rank_candidates`.  Every bank seeds its draws
    from ``cfg.seed`` alone, so the order in which they are built changes
    no draw."""
    cfg.validate()
    timings = {}
    t_total = time.perf_counter()

    # --- init: fixed binding, examples
    with _phase("init", timings):
        gamma_binding = fix_params(sketch, cfg)
        memo = FisherMemo()     # one per operation: every tester call shares it
        examples = select_examples(
            sketch, gamma_binding, scale_grid=cfg.scale_grid,
            trials=cfg.trials, seed=cfg.seed, memo=memo)

    if not examples:
        timings["total"] = time.perf_counter() - t_total
        report = _report(sketch, cfg, examples, None, [], [], [], [],
                         note="no challenging examples found")
        return SynthOutcome(report, timings, [], _counters(Counter(), memo))

    # --- opti: differential evolution over concrete noise vectors
    with _phase("opti", timings):
        bank = optimizer_bank(sketch, gamma_binding, cfg)
        region = get_noise_region(
            bank, examples, float(cfg.epsilon),
            lam=cfg.lam, population=cfg.population,
            steps=cfg.steps_per_hole * sketch.n_holes, seed=cfg.seed)
        work = Counter(bank_runs=bank.runs_grouped,
                       bank_stat_rows=bank.stat_rows)
        del bank

    # --- enum: prune grammar, build test examples, rank
    with _phase("enum", timings):
        radius_used = cfg.radius
        cands = enumerate_and_prune(region, gamma_binding, radius=radius_used)
        if not cands:
            radius_used = 2 * cfg.radius
            cands = enumerate_and_prune(region, gamma_binding,
                                        radius=radius_used)
        bindings = _bindings(sketch, cfg)
        test_examples = build_test_examples(
            sketch, examples, region.best()[0], bindings, cfg, memo)
        ranked, rank_work = rank_candidates(
            cands, [(b, test_examples[_binding_key(b)]) for b in bindings],
            gamma_binding,
            lambda b: PresampleBank(sketch, b, m=cfg.presamples,
                                    scales=_mixture_at(cfg, b["eps"]),
                                    seed=cfg.seed))
        work.update(rank_work)

    # --- verify: statistical re-test of the top candidates
    with _phase("verify", timings):
        survivors, verify_details = final_verify(
            sketch, ranked, bindings, cfg, memo) if ranked else ([], [])
    timings["total"] = time.perf_counter() - t_total

    note = "" if survivors else "no candidate survived verification"
    report = _report(sketch, cfg, examples, region, ranked, survivors,
                     verify_details, test_examples, note=note,
                     radius_used=radius_used)
    return SynthOutcome(report, timings, survivors, _counters(work, memo))


def _example_json(ex: Example) -> dict:
    return {
        "d1": [int(v) for v in ex.d1],
        "d2": [int(v) for v in ex.d2],
        "event": ex.event.describe(),
        "direction": list(ex.direction),
        "scale": ex.scale,
        "p_at_discovery": round(ex.p_value, 6),
    }


def _report(sketch, cfg, examples, region, ranked, survivors, verify_details,
            test_examples, note="", radius_used=None) -> dict:
    return {
        "mechanism": sketch.name,
        "adjacency": sketch.adjacency,
        "holes": [{"id": h.hole_id + 1, "family": h.family,
                   "vector": h.vector} for h in sketch.holes],
        "config": cfg.echo(),
        "examples": [_example_json(ex) for ex in examples],
        "region": region.to_json() if region is not None else None,
        "radius_used": radius_used,
        "test_examples": {key: [_example_json(ex) for ex in exs]
                          for key, exs in (test_examples or {}).items()},
        "candidate_count": len(ranked),
        "ranking": [rc.to_json() for rc in ranked[:max(50, 5 * sketch.n_holes)]],
        "verify": verify_details,
        "survivors": [rc.to_json() for rc in survivors],
        "phases": ["init", "opti", "enum", "verify"],
        "note": note,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
