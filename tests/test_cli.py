"""Command-line interface tests: exit codes, output formats, usage errors."""

import json
import re

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
                                  "--trials", "1000", "--presamples", "1000",
                                  "--population", "4", "--steps", "1"])
    assert result.exit_code == 3
    assert "unassigned variable" in result.output


@pytest.mark.parametrize("command", [
    ["test", "--noise", "2,2"], ["synth"],
    ["grid", "--holes", "1,2", "--grid", "2:2"]])
def test_unbound_sketch_argument_exits_3(runner, tmp_path, command):
    # K has no fixed value, so no command can bind the sketch's arguments
    p = tmp_path / "unbound.dpm"
    p.write_text(DUO_SRC.replace("private a\n", "private a\nargs K\n")
                 .replace("a[2]", "a[K]"))
    result = runner.invoke(main, [*command, "--sketch", str(p),
                                  "--trials", "1000", "--presamples", "1000",
                                  "--population", "4", "--steps", "1"])
    assert result.exit_code == 3
    assert ("error in phase init: [init] no fixed value for sketch "
            "argument 'K'") in result.output


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
    ["--fix", "3=nan"]])
def test_cmd_grid_parse_errors_are_usage_errors(runner, extra):
    # exit 1 means "no challenging examples found"; bad input is exit 2
    result = runner.invoke(main, ["grid", "--sketch", "abovet2", "--holes",
                                  "1,2", "--fix", "3=bot", *extra])
    assert result.exit_code == 2, result.output
    assert "Usage" in result.output


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
