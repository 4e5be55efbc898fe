"""Command-line interface tests: exit codes, output formats, usage errors."""

import importlib
import json
import re
import time

import pytest
from click.testing import CliRunner

from mechsynth.cli import benchmark_names, load_sketch, main
from mechsynth.config import RunConfig
from tests.conftest import BENCHMARK_HOLES, MICRO_SCALAR, UNASSIGNED_SRC

DUO_SRC = """mechanism Duo
private a
adjacency one

x <- a[1] + Lap(?1)
y <- a[2] + Lap(?2)
return x + y
"""


# the smallest budget each command takes, through its own options only
SMALL = {"test": ["--trials", "1000"],
         "synth": ["--trials", "1000", "--presamples", "1000",
                   "--population", "4", "--steps", "1"],
         "grid": ["--trials", "1000", "--presamples", "1000"]}


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def micro_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("sketches") / "micro.dpm"
    p.write_text(MICRO_SCALAR)
    return str(p)


@pytest.fixture(scope="module")
def duo_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("sketches") / "duo.dpm"
    p.write_text(DUO_SRC)
    return str(p)


# ---------------------------------------------------------------------------
# Sketch loading
# ---------------------------------------------------------------------------

def test_benchmark_names_cover_corpus():
    assert benchmark_names() == sorted(BENCHMARK_HOLES)


def test_load_sketch_by_name_and_path(micro_path):
    assert load_sketch("sum").n_holes == 1
    assert load_sketch("SVT").n_holes == 2
    assert load_sketch(micro_path).name == "Micro"


def test_directory_does_not_shadow_a_bundled_sketch(tmp_path, monkeypatch):
    (tmp_path / "svt").mkdir()
    monkeypatch.chdir(tmp_path)
    assert load_sketch("svt").name == "SVT"


def test_load_sketch_unknown_name_fails(runner):
    result = runner.invoke(main, ["test", "--sketch", "nope", "--noise", "1"])
    assert result.exit_code == 2
    assert "sum" in result.output  # usage error lists the bundled names


# ---------------------------------------------------------------------------
# test subcommand
# ---------------------------------------------------------------------------

def test_cmd_test_accepts_generous_noise(runner, micro_path):
    result = runner.invoke(main, ["test", "--sketch", micro_path, "--noise",
                                  "8", "--trials", "2000"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["violation"] is False
    assert summary["decision_p"] > 0.05
    assert summary["epsilon"] == "1/2"


def test_cmd_test_flags_no_noise(runner, micro_path):
    result = runner.invoke(main, ["test", "--sketch", micro_path, "--noise",
                                  "bot", "--trials", "2000"])
    assert result.exit_code == 1
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["violation"] is True


def test_cmd_test_records_are_json_lines(runner, micro_path):
    result = runner.invoke(main, ["test", "--sketch", micro_path, "--noise",
                                  "2", "--trials", "2000", "--max-records",
                                  "5"])
    lines = result.output.strip().splitlines()
    assert 2 <= len(lines) <= 6
    for line in lines[:-1]:
        rec = json.loads(line)
        assert {"d1", "d2", "event", "p", "rho1", "rho2"} <= set(rec)


def test_cmd_test_deterministic(runner, micro_path):
    args = ["test", "--sketch", micro_path, "--noise", "2", "--trials",
            "2000", "--seed", "3"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.output == b.output


def test_cmd_test_usage_errors(runner, micro_path):
    bad_arity = runner.invoke(main, ["test", "--sketch", micro_path,
                                     "--noise", "1,2"])
    assert bad_arity.exit_code == 2
    bad_eps = runner.invoke(main, ["test", "--sketch", micro_path, "--noise",
                                   "1", "--epsilon", "0"])
    assert bad_eps.exit_code == 2
    bad_eps2 = runner.invoke(main, ["test", "--sketch", micro_path, "--noise",
                                    "1", "--epsilon", "abc"])
    assert bad_eps2.exit_code == 2
    bad_trials = runner.invoke(main, ["test", "--sketch", micro_path,
                                      "--noise", "1", "--trials", "10"])
    assert bad_trials.exit_code == 2
    for scale in ("wat", "nan", "inf", "0", "-2"):
        bad_scale = runner.invoke(main, ["test", "--sketch", micro_path,
                                         "--noise", scale])
        assert bad_scale.exit_code == 2, scale
    # a negative cap used to print every record but the last three
    bad_cap = runner.invoke(main, ["test", "--sketch", micro_path,
                                   "--noise", "1", "--max-records", "-3"])
    assert bad_cap.exit_code == 2


def test_cmd_test_scale_whose_q_rounds_to_one_exits_2(runner):
    # from 2^54 on e^(-1/b) rounds to 1; the sampler used to die in
    # rng.geometric with exit 1, the code for "violation found"
    result = runner.invoke(main, ["test", "--sketch", "sum", "--noise", "1e17",
                                  "--trials", "1000"])
    assert result.exit_code == 2, result.output
    assert "too large" in result.output


def test_cmd_test_max_records_zero_prints_the_summary_only(runner,
                                                           micro_path):
    result = runner.invoke(main, ["test", "--sketch", micro_path, "--noise",
                                  "2", "--trials", "1000", "--max-records",
                                  "0"])
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and "decision_p" in json.loads(lines[0])


# ---------------------------------------------------------------------------
# synth subcommand
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def unassigned_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("sketches") / "unassigned.dpm"
    p.write_text(UNASSIGNED_SRC)
    return str(p)


@pytest.fixture(scope="module")
def unassigned_two_hole_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("sketches") / "unassigned2.dpm"
    p.write_text(UNASSIGNED_SRC.replace("return x", "z <- x + Lap(?2)\nreturn z"))
    return str(p)


@pytest.mark.parametrize("command", [
    ["test", "--noise", "2"], ["synth"],
    ["grid", "--holes", "1,2", "--grid", "2:2"]])
def test_sketch_runtime_fault_exits_3(runner, unassigned_path,
                                      unassigned_two_hole_path, command):
    # grid sweeps two holes, so it runs the two-hole variant
    sketch = unassigned_two_hole_path if command[0] == "grid" else unassigned_path
    result = runner.invoke(main, [*command, "--sketch", sketch,
                                  *SMALL[command[0]]])
    assert result.exit_code == 3
    assert "unassigned variable" in result.output


FIRST_DIV_SRC = """mechanism FirstDiv
private a
adjacency all

x <- 10 / a[1] + Lap(?1)
return x
"""


def test_fault_on_some_sides_exits_3(runner, tmp_path):
    # only sides whose first answer is 0 divide by zero, and they share
    # their kernel calls with sides that run cleanly
    p = tmp_path / "first_div.dpm"
    p.write_text(FIRST_DIV_SRC)
    result = runner.invoke(main, ["test", "--sketch", str(p), "--noise", "2",
                                  *SMALL["test"]])
    assert result.exit_code == 3
    assert "runtime error in sketch: division by zero" in result.output


@pytest.mark.parametrize("command", [
    ["test", "--noise", "2,2"], ["synth"],
    ["grid", "--holes", "1,2", "--grid", "2:2"]])
def test_unbound_sketch_argument_exits_3(runner, tmp_path, command):
    # K has no fixed value, so no command can bind the sketch's arguments
    p = tmp_path / "unbound.dpm"
    p.write_text(DUO_SRC.replace("private a\n", "private a\nargs K\n")
                 .replace("a[2]", "a[K]"))
    result = runner.invoke(main, [*command, "--sketch", str(p),
                                  *SMALL[command[0]]])
    assert result.exit_code == 3
    assert ("error in phase init: no fixed value for sketch "
            "argument 'K'") in result.output


@pytest.mark.parametrize("command", [
    ["test", "--noise", "2,2"], ["synth"],
    ["grid", "--holes", "1,2", "--grid", "2:2"]])
@pytest.mark.parametrize("seed,exit_codes", [
    (-1, (2,)), (2 ** 64, (2,)), (2 ** 64 - 1, (0, 1))])
def test_seed_must_fit_64_bits(runner, duo_path, command, seed, exit_codes):
    # exit 1 means a found violation or no challenging example; a seed
    # outside [0, 2^64) is bad input, so exit 2 before any work
    result = runner.invoke(main, [*command, "--sketch", duo_path,
                                  *SMALL[command[0]], "--seed", str(seed)])
    assert result.exit_code in exit_codes, result.output
    if exit_codes == (2,):
        assert "seed must lie in [0, 2^64)" in result.output


@pytest.mark.parametrize("command", [
    ["test", "--noise", "2,2"], ["synth"],
    ["grid", "--holes", "1,2", "--grid", "2:2"]])
@pytest.mark.parametrize("epsilon", ["1e400", "1e-400", "0", "-1/2"])
def test_epsilon_must_be_a_positive_finite_float(runner, duo_path, command,
                                                 epsilon):
    # 1e400 overflows float(Fraction) and 1e-400 rounds to 0.0: the tester
    # and the optimiser would read inf or 0, so both are bad input
    result = runner.invoke(main, [*command, "--sketch", duo_path,
                                  *SMALL[command[0]], "--epsilon", epsilon])
    assert result.exit_code == 2, result.output
    assert "epsilon must be positive and finite as a float" in result.output


@pytest.mark.parametrize("epsilon", ["1e10000000", "1e-10000000"])
def test_epsilon_exponent_beyond_any_float_exits_2_at_once(runner, duo_path,
                                                           epsilon):
    # Fraction would build a 33-million-bit power of ten first (about 10 s)
    t0 = time.perf_counter()
    result = runner.invoke(main, ["test", "--sketch", duo_path, "--noise",
                                  "2,2", "--epsilon", epsilon])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 2, result.output
    assert "epsilon must be positive and finite as a float" in result.output


def test_population_below_four_exits_2(runner, duo_path):
    # rand/1/bin needs three donors besides each member: refuse the value
    # before example discovery, not with exit 3 after it
    result = runner.invoke(main, ["synth", "--sketch", duo_path,
                                  *SMALL["synth"], "--population", "3"])
    assert result.exit_code == 2, result.output
    assert "population must be at least 4" in result.output


@pytest.mark.parametrize("option,value", [
    ("--lambda", "inf"), ("--lambda", "nan"), ("--lambda", "-inf"),
    ("--radius", "inf"), ("--radius", "nan")])
def test_float_options_must_be_finite(runner, duo_path, option, value):
    # --lambda inf used to exit 0 with "Infinity" and "NaN" in the report
    result = runner.invoke(main, ["synth", "--sketch", duo_path,
                                  "--trials", "1000", "--presamples", "1000",
                                  "--population", "4", "--steps", "1",
                                  option, value])
    assert result.exit_code == 2, result.output
    assert "Usage" in result.output


def test_budget_option_defaults_come_from_run_config(runner):
    result = runner.invoke(main, ["synth", "--help"])
    assert result.exit_code == 0
    text = " ".join(result.output.split())
    cfg = RunConfig()
    expected = {"epsilon": cfg.epsilon, "seed": cfg.seed, "trials": cfg.trials,
                "presamples": cfg.presamples, "lambda": cfg.lam,
                "population": cfg.population, "steps": cfg.steps_per_hole,
                "radius": cfg.radius, "qlen": cfg.qlen}
    shown = dict(re.findall(r"--([a-z-]+) [A-Z]+\b[^\[]*\[default: ([^\]]+)\]",
                            text))
    assert set(shown) == set(expected)
    for name, value in expected.items():
        assert shown[name] == str(value), name


@pytest.mark.parametrize("command,options", [
    ("synth", {"sketch", "epsilon", "seed", "trials", "presamples", "lambda",
               "population", "steps", "radius", "qlen", "out"}),
    ("test", {"sketch", "noise", "max-records", "epsilon", "seed", "trials",
              "qlen", "out"}),
    ("grid", {"sketch", "holes", "fix", "grid", "epsilon", "seed", "trials",
              "presamples", "lambda", "qlen", "out"})])
def test_each_command_lists_only_the_options_it_reads(runner, command,
                                                      options):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    assert set(re.findall(r"^\s+--([a-z-]+)", result.output, re.M)) \
        == options | {"help"}


def test_cmd_synth_without_examples_exits_1(runner, micro_path, tmp_path,
                                            monkeypatch):
    # the package's ``synth`` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("mechsynth.synth"),
                        "select_examples", lambda *args, **kw: [])
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["synth", "--sketch", micro_path,
                                  "--out", str(out), *SMALL["synth"]])
    assert result.exit_code == 1
    report = json.loads(out.read_text())
    assert report["note"] == "no challenging examples found"
    assert report["survivors"] == []


def test_cmd_synth_writes_report_and_sidecar(runner, micro_path, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "synth", "--sketch", micro_path, "--out", str(out),
        "--trials", "1500", "--presamples", "20000", "--population", "10",
        "--steps", "40"])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["mechanism"] == "Micro"
    assert report["survivors"]
    assert report["survivors"][0]["completion"] == "(1/eps)"
    sidecar = json.loads((tmp_path / "report.json.timings.json").read_text())
    assert set(sidecar["seconds"]) >= {"init", "opti", "enum", "verify",
                                       "total"}
    # m runs per bank side, grouped into far fewer distinct statistics rows
    counters = sidecar["counters"]
    assert set(counters) == {"bank_runs", "bank_stat_rows", "fisher_tables",
                             "thinned_counts", "screen_refined"}
    assert counters["bank_runs"] > 0 and counters["bank_runs"] % 20000 == 0
    assert 0 < counters["bank_stat_rows"] < counters["bank_runs"] // 100
    # 20 thinnings per distinct count
    assert counters["fisher_tables"] > 0
    assert counters["thinned_counts"] > 0
    assert counters["thinned_counts"] % 20 == 0


COMMANDS = {"test": ["test", "--noise", "2,2"], "synth": ["synth"],
            "grid": ["grid", "--holes", "1,2", "--grid", "2:2"]}


@pytest.mark.parametrize("name,where", [
    (name, where) for name in COMMANDS
    for where in ("no-parent", "directory", "slash")] + [("synth", "sidecar")])
def test_unwritable_out_exits_2_before_any_work(runner, duo_path, tmp_path,
                                                monkeypatch, name, where):
    # a write failing after the run exited 1, read as a violation (test) or
    # as no survivor (synth); synth also writes <out>.timings.json
    command = COMMANDS[name]
    out = {"no-parent": tmp_path / "missing" / "out.json",
           "directory": tmp_path,
           "slash": f"{tmp_path / 'missing'}/",
           "sidecar": tmp_path / "report.json"}[where]
    (tmp_path / "report.json.timings.json").mkdir()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")
    for work in ("synth", "test_mechanism", "select_examples"):
        monkeypatch.setattr(f"mechsynth.cli.{work}", no_work)
    result = runner.invoke(main, [*command, "--sketch", duo_path,
                                  *SMALL[name], "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "cannot write" in result.output


@pytest.mark.parametrize("name,work", [("test", "test_mechanism"),
                                       ("grid", "select_examples"),
                                       ("synth", "select_examples")])
def test_allocation_failure_exits_3(runner, duo_path, monkeypatch, name,
                                    work):
    # exit 1 would read as a violation (test), as no challenging example
    # (grid) or as no survivor (synth); the failure is raised, not caused,
    # so nothing is allocated.  synth raises it inside its init phase,
    # which must not turn it into a phase error
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with "
                          "shape (2, 500, 1000000) and data type float64")
    # the package's ``synth`` attribute is the function, not the module
    module = importlib.import_module(
        "mechsynth.synth" if name == "synth" else "mechsynth.cli")
    monkeypatch.setattr(module, work, out_of_memory)
    result = runner.invoke(main, [*COMMANDS[name], "--sketch", duo_path,
                                  *SMALL[name]])
    assert result.exit_code == 3
    assert result.output == (
        "out of memory: Unable to allocate 7.45 GiB for an array with "
        "shape (2, 500, 1000000) and data type float64\n")


# ---------------------------------------------------------------------------
# grid subcommand
# ---------------------------------------------------------------------------

def test_cmd_grid_emits_lattice(runner, duo_path):
    result = runner.invoke(main, [
        "grid", "--sketch", duo_path, "--holes", "1,2", "--grid", "2:4:2",
        "--trials", "1000", "--presamples", "10000"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "scale1,scale2,objective"
    assert len(lines) == 5  # header + 2x2 lattice
    for line in lines[1:]:
        a, b, obj = line.split(",")
        assert float(a) in (2.0, 4.0) and float(b) in (2.0, 4.0)
        assert float(obj) >= 0.0


def test_cmd_grid_without_examples_exits_1(runner, duo_path, monkeypatch):
    monkeypatch.setattr("mechsynth.cli.select_examples",
                        lambda *args, **kw: [])
    result = runner.invoke(main, ["grid", "--sketch", duo_path, "--holes",
                                  "1,2", "--grid", "2:2", *SMALL["grid"]])
    assert result.exit_code == 1
    assert result.stderr == "no challenging examples found\n"
    assert result.stdout == ""


def test_cmd_grid_usage_errors(runner, duo_path, micro_path):
    same = runner.invoke(main, ["grid", "--sketch", duo_path, "--holes",
                                "1,1"])
    assert same.exit_code == 2
    out_of_range = runner.invoke(main, ["grid", "--sketch", duo_path,
                                        "--holes", "1,3"])
    assert out_of_range.exit_code == 2
    bad_spec = runner.invoke(main, ["grid", "--sketch", duo_path, "--holes",
                                    "1,2", "--grid", "4:2"])
    assert bad_spec.exit_code == 2
    single_hole = runner.invoke(main, ["grid", "--sketch", micro_path,
                                       "--holes", "1,2"])
    assert single_hole.exit_code == 2


@pytest.mark.parametrize("extra", [
    ["--grid", "a:b"], ["--grid", "1:2:x"], ["--grid", "nan:nan"],
    ["--grid", "1:inf"], ["--grid", "1:2:nan"], ["--fix", "3=x"],
    ["--fix", "3=nan"], ["--grid", "0.001:1e6:0.001"], ["--grid", "1:201"],
    ["--grid", "1e6:1e6:1e-320"], ["--grid", "0:1"], ["--grid", "-1:1:1"],
    ["--fix", "1=3"], ["--fix", "3=2"]])
def test_cmd_grid_parse_errors_are_usage_errors(runner, extra):
    # exit 1 means "no challenging examples found"; bad input is exit 2.
    # A --fix of a swept hole would relabel its rows, and a second --fix of
    # hole 3 would silently override the first
    result = runner.invoke(main, ["grid", "--sketch", "abovet2", "--holes",
                                  "1,2", "--fix", "3=bot", *extra])
    assert result.exit_code == 2, result.output
    assert "Usage" in result.output


@pytest.mark.parametrize("args,message", [
    (["--sketch", "noisymax2", "--grid", "1e17:1e17"], "too large"),
    (["--sketch", "abovet2", "--grid", "2:2", "--fix", "3=1e17"],
     "too large"),
    (["--sketch", "noisymax2", "--grid", "1e-300:1e-300"], "positive"),
    (["--sketch", "noisymax2", "--grid", "1e-300:2"], "positive")])
def test_cmd_grid_scale_the_noise_family_refuses_exits_2(runner, args,
                                                         message):
    # a swept scale whose e^(-1/b) rounds to 1 used to die in
    # log_weight_coeffs with "math domain error", and one that the lattice
    # rounds to 0 in the distribution, both with exit 1, the code for "no
    # challenging examples"
    result = runner.invoke(main, ["grid", *args, *SMALL["grid"]])
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("lo", ["1e-300", "4e-10"])
def test_cmd_grid_lo_below_the_lattice_resolution_names_it(runner, lo):
    # the lattice rounds its values to 9 decimals; the message used to
    # name the rounded 0.0 instead of the value given
    result = runner.invoke(main, ["grid", "--sketch", "noisymax2", "--grid",
                                  f"{lo}:2", *SMALL["grid"]])
    assert result.exit_code == 2, result.output
    assert f"grid lo {lo} rounds to 0" in result.output
    assert "1e-9 resolution" in result.output
    assert "0.0" not in result.output


def test_cmd_grid_requires_fix_for_extra_holes(runner, tmp_path):
    src = """mechanism Trio
private a
adjacency one

x <- a[1] + Lap(?1)
y <- a[2] + Lap(?2)
z <- a[3] + Lap(?3)
return x + y + z
"""
    p = tmp_path / "trio.dpm"
    p.write_text(src)
    result = runner.invoke(main, ["grid", "--sketch", str(p), "--holes",
                                  "1,2"])
    assert result.exit_code == 2
    fixed = runner.invoke(main, [
        "grid", "--sketch", str(p), "--holes", "1,2", "--fix", "3=bot",
        "--grid", "2:2", "--trials", "1000", "--presamples", "8000"])
    assert fixed.exit_code == 0
