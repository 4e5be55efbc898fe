"""Shared fixtures: bundled benchmarks and a couple of micro-sketches."""

import importlib.resources

import pytest

from mechsynth.lang import parse_sketch

BENCHMARK_HOLES = {
    "sum": 1, "histogram": 1, "noisymax1": 1, "noisymax2": 2,
    "expnoisymax": 2, "abovet1": 2, "abovet2": 3, "svt": 2, "smartsum": 2,
}

MICRO_SCALAR = """mechanism Micro
private a
adjacency one

x <- a[1] + Lap(?1)
return x
"""

MICRO_CONST = """mechanism MicroConst
private a
adjacency one

x <- 0 + Lap(?1)
return x
"""

# reads y, which only a[1] > 5 assigns: a runtime fault on small answers
UNASSIGNED_SRC = """mechanism Unassigned
private a
adjacency one

if a[1] > 5:
    y <- 1
x <- y + Lap(?1)
return x
"""


def load_benchmark(name: str):
    res = importlib.resources.files("mechsynth") / "benchmarks" / f"{name}.dpm"
    return parse_sketch(res.read_text())


@pytest.fixture(scope="session")
def benchmarks():
    return {name: load_benchmark(name) for name in BENCHMARK_HOLES}


@pytest.fixture(scope="session")
def micro_scalar():
    return parse_sketch(MICRO_SCALAR)


@pytest.fixture(scope="session")
def micro_const():
    return parse_sketch(MICRO_CONST)
