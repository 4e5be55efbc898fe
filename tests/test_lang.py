"""Parser, checker, interpreter, and compiler tests.

Run oracles were hand-computed by stepping the programs on paper with fixed
noise queues."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechsynth.lang import (MechanismSketch, NoiseTrace, ParseError, RunError,
                            TypeCheckError, compile_sketch, count_hole_draws,
                            parse_sketch, run)
from tests.conftest import BENCHMARK_HOLES, MICRO_SCALAR, UNASSIGNED_SRC

SUM_SRC = """mechanism Sum
private a
adjacency one

s <- 0
i <- 1
while i <= len(a):
    x <- a[i] + Lap(?1)
    s <- s + x
    i <- i + 1
return s
"""

SVT_LIKE = """mechanism Gate
private a
args T, N
adjacency all

out <- []
count <- 0
t <- T + Lap(?1)
i <- 1
while i <= len(a):
    v <- a[i] + Lap(?2)
    if v >= t:
        append out, true
        count <- count + 1
    else:
        append out, false
    if count >= N:
        break
    i <- i + 1
return out
"""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_sum_shape():
    sk = parse_sketch(SUM_SRC)
    assert sk.name == "Sum"
    assert sk.private_input == "a"
    assert sk.adjacency == "one"
    assert sk.n_holes == 1
    assert sk.holes[0].family == "lap" and not sk.holes[0].vector


def test_parse_args_and_vector_hole():
    src = """mechanism H
private a
adjacency one

ans <- a + LapVec(?1)
return ans
"""
    sk = parse_sketch(src)
    assert sk.holes[0].vector
    sk2 = parse_sketch(SVT_LIKE)
    assert sk2.args == ("T", "N")
    assert sk2.n_holes == 2


def test_parse_rejects_sparse_hole_numbering():
    bad = MICRO_SCALAR.replace("?1", "?2")
    with pytest.raises(ParseError):
        parse_sketch(bad)


def test_parse_rejects_duplicate_hole():
    src = """mechanism D
private a
adjacency one

x <- a[1] + Lap(?1)
y <- a[1] + Lap(?1)
return x
"""
    with pytest.raises(ParseError):
        parse_sketch(src)


def test_parse_rejects_bad_indentation():
    with pytest.raises(ParseError):
        parse_sketch("mechanism X\nprivate a\nadjacency one\n\n  x <- 1 + Lap(?1)\nreturn x\n")


def test_parse_rejects_underscore_identifiers():
    with pytest.raises(ParseError):
        parse_sketch("mechanism X\nprivate a\nadjacency one\n\n_x <- 1 + Lap(?1)\nreturn _x\n")


def test_checker_rejects_type_misuse():
    src = """mechanism T
private a
adjacency one

x <- 1 + Lap(?1)
if x:
    x <- 2
return x
"""
    with pytest.raises(TypeCheckError):
        parse_sketch(src)


def test_checker_rejects_undeclared_symbol():
    src = """mechanism T
private a
adjacency one

x <- y + Lap(?1)
return x
"""
    with pytest.raises(TypeCheckError):
        parse_sketch(src)


def test_checker_allows_loop_assigned_output():
    # a variable first assigned inside a loop branch is readable after it
    src = """mechanism T
private a
adjacency all

i <- 1
while i <= len(a):
    v <- a[i] + Lap(?1)
    if v >= 1:
        ans <- i
    i <- i + 1
return ans
"""
    sk = parse_sketch(src)
    assert sk.output_var == "ans"


def test_corpus_parses_with_expected_hole_counts(benchmarks):
    assert {k: v.n_holes for k, v in benchmarks.items()} == BENCHMARK_HOLES


# ---------------------------------------------------------------------------
# Interpreter oracles (hand-stepped)
# ---------------------------------------------------------------------------

def test_run_sum_oracle():
    sk = parse_sketch(SUM_SRC)
    # answers (1,2,3), noise queue (5,-1,0) -> (1+5)+(2-1)+(3+0) = 10
    trace = NoiseTrace([(5, -1, 0)])
    out = run(sk, {}, (1, 2, 3), trace)
    assert out == 10
    assert trace.consumed() == (3,)


def test_run_gate_oracle():
    sk = parse_sketch(SVT_LIKE)
    # T=2,N=1: threshold t = 2+1 = 3; answers (1,5,9):
    #   v1 = 1-1 = 0 < 3 -> false; v2 = 5+0 = 5 >= 3 -> true, count hits N
    trace = NoiseTrace([(1,), (-1, 0, 7)])
    out = run(sk, {"T": 2, "N": 1}, (1, 5, 9), trace)
    assert out == (False, True)
    assert trace.consumed() == (1, 2)


def test_run_bottoms_drop_noise():
    sk = parse_sketch(SUM_SRC)
    trace = NoiseTrace([()])
    out = run(sk, {}, (1, 2, 3), trace, bottoms=[True])
    assert out == 6
    assert trace.consumed() == (0,)


def test_run_division_truncates_toward_zero():
    src = """mechanism D
private a
adjacency one

x <- 0 - 7 + Lap(?1)
y <- x / 2
return y
"""
    sk = parse_sketch(src)
    assert run(sk, {}, (0,), NoiseTrace([(0,)])) == -3


def test_run_trace_exhaustion_raises():
    sk = parse_sketch(SUM_SRC)
    with pytest.raises(RunError):
        run(sk, {}, (1, 2, 3), NoiseTrace([(5,)]))


def test_run_loop_fuel_guards_nontermination():
    src = """mechanism L
private a
adjacency one

i <- 1
while i >= 0:
    i <- i + 1
j <- i + Lap(?1)
return j
"""
    sk = parse_sketch(src)
    with pytest.raises(RunError):
        run(sk, {}, (1,), NoiseTrace([(0,)]))


def test_count_hole_draws_shapes(benchmarks):
    assert count_hole_draws(benchmarks["sum"], {}, 5) == (5,)
    assert count_hole_draws(benchmarks["histogram"], {}, 5) == (5,)
    assert count_hole_draws(benchmarks["noisymax2"], {}, 5) == (5, 1)
    assert count_hole_draws(benchmarks["abovet2"], {"T": 2}, 7) == (1, 7, 1)


# ---------------------------------------------------------------------------
# Compiler agreement with the interpreter
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BENCHMARK_HOLES))
def test_compiled_equals_interpreted(name, benchmarks):
    import numpy as np
    sk = benchmarks[name]
    args = {k: v for k, v in (("T", 2), ("N", 1), ("M", 2)) if k in sk.args}
    rng = np.random.default_rng(123)
    qlen = 5
    caps = count_hole_draws(sk, args, qlen)
    for trial in range(200):
        answers = tuple(int(x) for x in rng.integers(0, 3, qlen))
        draws = [tuple(int(x) for x in rng.integers(-4, 5, c)) for c in caps]
        masks = [tuple(False for _ in range(sk.n_holes))]
        if sk.n_holes > 1:
            masks.append(tuple(h == sk.n_holes - 1 for h in range(sk.n_holes)))
        for mask in masks:
            fn = compile_sketch(sk, list(mask))
            got, consumed = fn(args, list(answers), [list(d) for d in draws])
            trace = NoiseTrace(draws)
            want = run(sk, args, answers, trace, bottoms=list(mask))
            assert got == want, (name, mask, answers, draws)
            assert consumed == trace.consumed()


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_compiled_sum_matches_closed_form(n1, n2, n3):
    sk = parse_sketch(SUM_SRC)
    fn = compile_sketch(sk)
    got, consumed = fn({}, [1, 1, 1], [[n1, n2, n3]])
    assert got == 3 + n1 + n2 + n3
    assert consumed == (3,)


INDEX_SRC = """mechanism Index
private a
args K
adjacency one

x <- a[K] + Lap(?1)
return x
"""


@pytest.mark.parametrize("k", [0, -1, 4])
def test_compiled_index_out_of_range_raises(k):
    # a[0] must not read the last element through Python's negative index
    sk = parse_sketch(INDEX_SRC)
    with pytest.raises(RunError):
        run(sk, {"K": k}, (1, 2, 3), NoiseTrace([(0,)]))
    with pytest.raises(RunError):
        compile_sketch(sk)({"K": k}, [1, 2, 3], [[0]])


def test_compiled_runtime_faults_raise_run_error():
    with pytest.raises(RunError):
        compile_sketch(parse_sketch(UNASSIGNED_SRC))({}, [1, 1], [[0]])
    # three loop draws wanted, one supplied
    with pytest.raises(RunError):
        compile_sketch(parse_sketch(SUM_SRC))({}, [1, 2, 3], [[5]])
