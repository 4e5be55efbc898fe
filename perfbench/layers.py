"""Per-layer tracing of mechsynth from outside the package.

The tracer wraps public functions of ``lang``, ``dist``, ``tester``,
``search`` and ``synth`` while an operation runs and records one span per
call.  Spans nest: a span's self time is its duration minus the time its
child spans cover.  Spans are folded into per-name totals as they close, so
the millions of runner calls a synthesis makes cost no memory.

Functions that other modules imported by value (``from .tester import
test_mechanism``) are replaced in every ``mechsynth`` module that holds them,
so a call made through any of those bindings is traced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter


class Tracer:
    """Nested spans folded into per-name ``[calls, seconds, self_seconds]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []              # open spans: [name, start, child seconds]
        self.totals = {}             # name -> [calls, seconds, self seconds]
        self.child_calls = Counter()  # (parent name, name) -> calls
        self.counts = Counter()      # work counters filled in by hooks
        self.runs_for_keys = set()   # (bank id, answers, mask) seen

    def span(self, name, fn, hook=None):
        """Wrap ``fn`` so that each call is a span called ``name``.

        ``hook(tracer, fn, args, kwargs, result)`` runs after the span has
        closed and returns the result handed to the caller."""
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                    self.child_calls[(stack[-1][0], name)] += 1
                total = self.totals.get(name)
                if total is None:
                    total = self.totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[2]
            if hook is not None:
                result = hook(self, fn, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, functions=(), methods=(), modules=None):
        """Trace while the block runs; restore every original on exit.

        ``functions`` holds ``(span name, function, hook)``: each module in
        ``modules`` (default: every loaded ``mechsynth`` module) that binds
        the function gets the traced version.  ``methods`` holds ``(span
        name, class, attribute, hook)`` and patches the class itself."""
        if modules is None:
            modules = [m for n, m in list(sys.modules.items())
                       if m is not None and
                       (n == "mechsynth" or n.startswith("mechsynth."))]
        saved = []
        try:
            for name, fn, hook in functions:
                traced = self.span(name, fn, hook)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is fn]:
                        saved.append((mod, attr, fn))
                        setattr(mod, attr, traced)
            for name, cls, attr, hook in methods:
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, self.span(name, original, hook))
            yield self
        finally:
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)

    def calls(self, name) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]


# ---------------------------------------------------------------------------
# mechsynth's layers
# ---------------------------------------------------------------------------

def _wrap_runner(tracer, fn, args, kwargs, runner):
    return tracer.span("lang.runner", runner)


def _count_draws(tracer, fn, args, kwargs, draws):
    tracer.counts["dist.draws"] += draws.size
    return draws


def _count_pairs(tracer, fn, args, kwargs, pairs):
    # test_mechanism samples each unordered pair once
    tracer.counts["tester.pairs"] += len({frozenset(p) for p in pairs})
    return pairs


def _count_examples(tracer, fn, args, kwargs, examples):
    tracer.counts["search.examples"] += len(examples)
    return examples


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _count_runs_for_key(tracer, fn, args, kwargs, result):
    bound = _signature(fn).bind(*args, **kwargs)
    bank, answers, mask = (bound.arguments[k]
                           for k in ("self", "answers", "mask"))
    tracer.runs_for_keys.add((id(bank), tuple(answers), mask))
    return result


def _count_candidates(tracer, fn, args, kwargs, losses):
    tracer.counts["search.loss_candidates"] += losses.shape[0]
    return losses


def _count_generations(tracer, fn, args, kwargs, region):
    tracer.counts["search.de_generations"] += region.steps
    return region


def _layers():
    """(functions, methods) to trace, in the form ``Tracer.installed`` takes.

    ``mechsynth.synth`` as a package attribute is the re-exported function,
    so the modules are reached through ``importlib``.  ``cli`` is imported
    too: a module first imported while tracing is on would keep the traced
    functions it binds by value."""
    lang, dist, tester, search, synth, _ = (
        importlib.import_module(f"mechsynth.{n}")
        for n in ("lang", "dist", "tester", "search", "synth", "cli"))
    functions = [
        ("lang.compile_sketch", lang.compile_sketch, _wrap_runner),
        ("tester.test_mechanism", tester.test_mechanism, None),
        ("tester.hypothesis_test", tester.hypothesis_test, None),
        ("tester.gen_events", tester.gen_events, None),
        ("tester.gen_input_pairs", tester.gen_input_pairs, _count_pairs),
        ("search.select_examples", search.select_examples, _count_examples),
        ("search.example_losses", search.example_losses, _count_candidates),
        ("search.get_noise_region", search.get_noise_region,
         _count_generations),
        ("synth.enumerate_and_prune", synth.enumerate_and_prune, None),
        ("synth.build_test_examples", synth.build_test_examples, None),
        ("synth.rank_candidates", synth.rank_candidates, None),
        ("synth.final_verify", synth.final_verify, None),
    ]
    methods = [
        ("dist.sample_array", dist.DiscreteLaplace, "sample_array",
         _count_draws),
        ("dist.sample_array", dist.DiscreteExponential, "sample_array",
         _count_draws),
        ("search.bank_init", search.PresampleBank, "__init__", None),
        ("search.runs_for", search.PresampleBank, "runs_for",
         _count_runs_for_key),
    ]
    return functions, methods


SPANS = ("lang.compile_sketch", "lang.runner", "dist.sample_array",
         "tester.test_mechanism", "tester.hypothesis_test",
         "tester.gen_events", "tester.gen_input_pairs",
         "search.select_examples", "search.bank_init", "search.runs_for",
         "search.example_losses", "search.get_noise_region",
         "synth.enumerate_and_prune", "synth.build_test_examples",
         "synth.rank_candidates", "synth.final_verify")


@contextlib.contextmanager
def traced():
    """Trace every mechsynth layer while the block runs; yields the tracer."""
    functions, methods = _layers()
    tracer = Tracer()
    with tracer.installed(functions, methods):
        yield tracer


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, phases: dict) -> dict:
    """Per-layer figures of one traced operation.

    Every span gives ``span.<name>.calls``, ``.s`` and ``.self_s``; the
    named figures below pick out the ones each layer's optimisations move.
    ``phases`` holds the synth sidecar's phase seconds (empty for test)."""
    out = {}
    for name in SPANS:
        calls, seconds, self_s = tracer.totals.get(name, (0, 0.0, 0.0))
        out[f"span.{name}.calls"] = calls
        out[f"span.{name}.s"] = seconds
        out[f"span.{name}.self_s"] = self_s
    t, c = tracer, tracer.counts
    tester_s = t.seconds("tester.test_mechanism")
    loss_s = t.seconds("search.example_losses")
    de_s = t.seconds("search.get_noise_region")
    out.update({
        "lang.runs": t.calls("lang.runner"),
        "lang.run_s": t.seconds("lang.runner"),
        "lang.compiles": t.calls("lang.compile_sketch"),
        "dist.draws": c["dist.draws"],
        "dist.sample_s": t.seconds("dist.sample_array"),
        "tester.calls": t.calls("tester.test_mechanism"),
        "tester.s": tester_s,
        "tester.self_s": out["span.tester.test_mechanism.self_s"],
        "tester.pairs": c["tester.pairs"],
        "tester.runs_per_s": _rate(
            t.child_calls[("tester.test_mechanism", "lang.runner")], tester_s),
        "tester.fisher_calls": t.calls("tester.hypothesis_test"),
        "tester.fisher_s": t.seconds("tester.hypothesis_test"),
        "tester.events_s": t.seconds("tester.gen_events"),
        "search.select_s": t.seconds("search.select_examples"),
        "search.examples": c["search.examples"],
        "search.bank_builds": t.calls("search.bank_init"),
        "search.bank_build_s": t.seconds("search.bank_init"),
        "search.runs_for_calls": t.calls("search.runs_for"),
        "search.runs_for_misses": len(t.runs_for_keys),
        "search.runs_for_s": t.seconds("search.runs_for"),
        "search.loss_calls": t.calls("search.example_losses"),
        "search.loss_candidates": c["search.loss_candidates"],
        "search.loss_s": loss_s,
        "search.candidates_per_s": _rate(c["search.loss_candidates"], loss_s),
        "search.de_s": de_s,
        "search.de_generations": c["search.de_generations"],
        "search.de_gen_per_s": _rate(c["search.de_generations"], de_s),
        "synth.prune_s": t.seconds("synth.enumerate_and_prune"),
        "synth.rank_s": t.seconds("synth.rank_candidates"),
        "synth.verify_tester_calls": t.child_calls[
            ("synth.final_verify", "tester.test_mechanism")],
    })
    for phase in ("init", "opti", "enum", "verify"):
        out[f"synth.{phase}_s"] = float(phases.get(phase, 0.0))
    return out
