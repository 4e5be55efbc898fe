"""Tests of the benchmark's own arithmetic: spans, failure counting and
metric names.  Run with ``python3 -m pytest perfbench``."""

import json
import sys
import types

import pytest

import layers
import run
import workloads
from workloads import (ERROR, MISSED_VIOLATION, NO_SURVIVOR, NOT_REPRODUCED,
                       failed_frac, judge_synth, judge_test)

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _modules(clock):
    """``a.outer`` calls ``inner``, which ``a`` imported by value from ``b``."""
    b = types.ModuleType("b")

    def inner():
        clock.advance(3.0)
    b.inner = inner

    a = types.ModuleType("a")
    a.inner = inner

    def outer():
        clock.advance(1.0)
        a.inner()
        a.inner()
        clock.advance(2.0)
    a.outer = outer
    return a, b


def test_self_time_of_spans_nested_across_modules():
    clock = FakeClock()
    a, b = _modules(clock)
    tracer = layers.Tracer(clock)
    functions = [("a.outer", a.outer, None), ("b.inner", b.inner, None)]
    with tracer.installed(functions, modules=[a, b]):
        a.outer()
    assert tracer.totals["a.outer"] == [1, 9.0, 3.0]
    assert tracer.totals["b.inner"] == [2, 6.0, 6.0]
    assert tracer.child_calls[("a.outer", "b.inner")] == 2


def test_installed_restores_every_binding():
    clock = FakeClock()
    a, b = _modules(clock)
    original = b.inner
    tracer = layers.Tracer(clock)
    with tracer.installed([("b.inner", original, None)], modules=[a, b]):
        assert a.inner is not original and b.inner is not original
    assert a.inner is original and b.inner is original


def test_span_is_closed_when_the_call_raises():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise RuntimeError
    with pytest.raises(RuntimeError):
        tracer.span("boom", boom)()
    assert tracer.totals["boom"] == [1, 1.0, 1.0]
    assert tracer.stack == []


def test_layer_metrics_rates_and_zero_work():
    tracer = layers.Tracer()
    tracer.totals["tester.test_mechanism"] = [2, 4.0, 1.0]
    tracer.totals["lang.runner"] = [1000, 2.0, 2.0]
    tracer.child_calls[("tester.test_mechanism", "lang.runner")] = 800
    tracer.runs_for_keys.update({(1, (1, 1), (False,)), (2, (1, 1), (False,))})
    out = layers.layer_metrics(tracer, {"init": 1.5})
    assert out["tester.runs_per_s"] == 200.0
    assert out["tester.self_s"] == 1.0
    assert out["search.runs_for_misses"] == 2
    assert out["search.candidates_per_s"] == 0.0
    assert out["synth.init_s"] == 1.5 and out["synth.verify_s"] == 0.0


def test_every_traced_function_is_reported():
    functions, methods = layers._layers()
    names = {f[0] for f in functions} | {m[0] for m in methods}
    assert names | {"lang.runner"} == set(layers.SPANS)


def test_traced_cli_call_reaches_by_value_bindings(tmp_path):
    with layers.traced() as tracer:
        code = workloads.cli(["test", "--sketch", "noisymax1", "--noise", "4",
                              "--trials", "1000", "--out",
                              str(tmp_path / "out")])
    assert code in (0, 1)
    out = layers.layer_metrics(tracer, {})
    assert out["tester.calls"] == 1
    assert out["lang.compiles"] == 1
    assert out["lang.runs"] > 0 and out["dist.draws"] > 0
    assert out["search.loss_s"] == 0.0
    # every binding is restored afterwards
    from mechsynth import cli, tester
    assert cli.test_mechanism is tester.test_mechanism
    assert not hasattr(tester.test_mechanism, "__wrapped__")


def test_judge_test_rules():
    assert judge_test("4", 0, 0.6, None) is None
    assert judge_test("4", 1, 0.01, None) is None
    assert judge_test("bot", 1, 0.0, None) is None
    # a noiseless completion judged private is always a wrong verdict
    assert judge_test("bot,bot", 0, 1.0, None) == MISSED_VIOLATION
    assert judge_test("bot,4", 0, 1.0, None) is None
    assert judge_test("4", 0, 0.6, 0.5) == NOT_REPRODUCED
    assert judge_test("4", 2, None, None) == ERROR
    assert judge_test("4", 0, None, None) == ERROR


def test_judge_synth_rules():
    assert judge_synth(0, "d", None) is None
    assert judge_synth(0, "d", "d") is None
    assert judge_synth(1, "d", None) == NO_SURVIVOR
    assert judge_synth(0, "d", "e") == NOT_REPRODUCED
    assert judge_synth(2, None, None) == ERROR
    assert judge_synth(0, None, None) == ERROR


def test_failed_frac_counts_every_failure_kind():
    kinds = [None, MISSED_VIOLATION, None, None, NO_SURVIVOR, None, None,
             ERROR]
    assert failed_frac(kinds) == 3 / 8
    assert failed_frac([None] * 7) == 0.0
    with pytest.raises(ValueError):
        failed_frac([])


def test_metric_name_validity():
    run.check_metrics({"a.b-c_1": 1}, ["a.b-c_1"])
    for bad in ("_x", "x y", "x/s", "é", "x" * 65):
        with pytest.raises(ValueError):
            run.check_metrics({bad: 1}, [bad])
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert run.NAME.fullmatch(name), name


def test_every_defined_metric_must_be_printed():
    with pytest.raises(ValueError, match="missing"):
        run.check_metrics({"op_s": 1.0, "setup_s": 1.0}, run.END_TO_END)
    with pytest.raises(ValueError, match="unexpected"):
        run.check_metrics({**dict.fromkeys(run.END_TO_END, 1.0), "x": 1.0},
                          run.END_TO_END)
    run.check_metrics(dict.fromkeys(run.PER_LAYER, 0.0), run.PER_LAYER)


def test_benchmark_file_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
        assert m["better"] == "lower" and 0 < m["bound"] <= 0.25
    assert spec["per_layer"] == [
        {"name": n, "unit": run.unit(n), "better": run.better(n)}
        for n in run.PER_LAYER]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert len(set(run.PER_LAYER)) == len(run.PER_LAYER)
