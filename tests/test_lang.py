"""Parser, checker, interpreter, and kernel tests.

Run oracles were hand-computed by stepping the programs on paper with fixed
noise queues; the interpreter is in turn the oracle of the lane kernel."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mechsynth.lang import (Assign, Index, IntLit, MechanismSketch, NoiseTrace,
                            ParseError, RunError, TypeCheckError, Var,
                            _lanes_at, compile_sketch, count_hole_draws,
                            parse_sketch, run)
from tests.conftest import (BENCHMARK_HOLES, MICRO_SCALAR, UNASSIGNED_SRC,
                            load_benchmark)

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


def test_sketch_cannot_read_eps():
    # eps is rational; read as an integer it used to compute with 0
    with pytest.raises(TypeCheckError, match="eps"):
        _sketch("x <- a[1] * eps + Lap(?1)\nreturn x\n")
    for name in ("eps", "qlen"):
        with pytest.raises(ParseError, match="implicit"):
            parse_sketch(f"mechanism T\nprivate a\nargs {name}\n"
                         "adjacency one\n\nx <- a[1] + Lap(?1)\nreturn x\n")


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
    assert run(sk, {}, (0, 5, 0), NoiseTrace([(0, 0, 0)])) == 2


def test_corpus_parses_with_expected_hole_counts(benchmarks):
    assert {k: v.n_holes for k, v in benchmarks.items()} == BENCHMARK_HOLES


# SHA-256 of repr(parse_sketch(source)) per bundled sketch: a parser change
# must leave every bundled AST, and so every report, as it was
PINNED_ASTS = {
    "abovet1": "e4ccee90813c08ac136fe76829b088056062f440e03b648a938ef0c98514c45e",
    "abovet2": "d04ef768fb3f81d35c4aac4194064d743ff5aebc6d158b76431f84e47f3c3ad9",
    "expnoisymax": "e26a0dda86e0362e6321f9e47aa645d47c7666723fef86a0f670651cb91bbff7",
    "histogram": "9a27c8daa24f7ad8620590da36cb42ba4db50a6b06fced596f3fa90d12362ba1",
    "noisymax1": "4d7cd9ecf4b87247486e88f1bbfd45b03c86d6bc75fa77f725db308a3c63b3cf",
    "noisymax2": "4ea376acc86cb01c40a975b5386166805b883edbd6dbe93c9c8d98744ce1128d",
    "smartsum": "2065acb45917063b8bad04a7e6f61cc563d08b93df0bf73d90f13199afead57d",
    "sum": "414f4676995fbb2acbc1792d328f4e246843683b121bf43793268ed2e4e0e906",
    "svt": "8238cc53ffc4ce0d0bdf5003a65ca430b09a15f7a641547eb3e58d488f9803c6",
}


@pytest.mark.parametrize("name", sorted(PINNED_ASTS))
def test_bundled_sketch_parses_to_pinned_ast(name):
    digest = hashlib.sha256(repr(load_benchmark(name)).encode()).hexdigest()
    assert digest == PINNED_ASTS[name]


def test_names_that_start_with_a_keyword_are_names():
    sk = _sketch("returned <- a[1]\nx <- returned + Lap(?1)\nreturn x\n")
    assert sk.body[0] == Assign("returned", Index(Var("a"), IntLit(1)))
    # and never a keyword plus a name: this is not "return s"
    with pytest.raises(ParseError, match="cannot parse statement"):
        _sketch("s <- a[1] + Lap(?1)\nreturns\n")


@pytest.mark.parametrize("name", ["args", "private", "mechanism", "adjacency"])
def test_first_statement_may_assign_a_header_word(name):
    sk = _sketch(f"{name} <- 1\nx <- a[1] + {name} + Lap(?1)\nreturn x\n")
    assert sk.body[0] == Assign(name, IntLit(1))


@pytest.mark.parametrize("body", ["true <- a[1] + Lap(?1)\nreturn 1\n",
                                  "mod <- a + LapVec(?1)\nreturn 1\n"])
def test_noisy_assignment_target_follows_the_name_rule(body):
    with pytest.raises(ParseError, match="bad assignment target"):
        _sketch(body)


@pytest.mark.parametrize("private,args", [("len", ""), ("a-b", ""),
                                          ("a", "args len\n"),
                                          ("a", "args T, T\n")])
def test_header_names_follow_the_name_rule(private, args):
    with pytest.raises(ParseError, match="single name|bad argument list"):
        parse_sketch(f"mechanism M\nprivate {private}\n{args}adjacency one\n"
                     "\nx <- 1 + Lap(?1)\nreturn x\n")


def _private_header(private, args, args_first):
    lines = [f"private {private}", f"args {args}"]
    if args_first:
        lines.reverse()
    return ("mechanism M\n" + "\n".join(lines)
            + "\nadjacency one\n\nx <- T + Lap(?1)\nreturn x\n")


@pytest.mark.parametrize("args_first", [False, True])
def test_private_input_may_not_be_eps(args_first):
    src = _private_header("eps", "T", args_first)
    line = 3 if args_first else 2
    with pytest.raises(ParseError, match=rf"implicit.*\(line {line}\)"):
        parse_sketch(src)


@pytest.mark.parametrize("args_first", [False, True])
def test_private_input_may_not_be_qlen(args_first):
    src = _private_header("qlen", "T", args_first)
    line = 3 if args_first else 2
    with pytest.raises(ParseError, match=rf"implicit.*\(line {line}\)"):
        parse_sketch(src)


@pytest.mark.parametrize("args_first", [False, True])
def test_private_input_may_not_be_an_argument(args_first):
    src = _private_header("T", "N, T", args_first)
    line = 3 if args_first else 2
    with pytest.raises(ParseError, match=rf"'T' is both the private input "
                       rf"and an argument \(line {line}\)"):
        parse_sketch(src)


def test_statement_keyword_may_touch_its_punctuation():
    spaced = _sketch("x <- a[1] + Lap(?1)\nif x > 1:\n    x <- 1\n"
                     "else:\n    x <- 2\nreturn x\n")
    assert _sketch("x <- a[1] + Lap(?1)\nif(x > 1):\n    x <- 1\n"
                   "else :\n    x <- 2\nreturn x\n") == spaced


@pytest.mark.parametrize("body,col", [("return x 2", 10),
                                      ("if x > 1:\n    return x 2", 14)])
def test_parse_error_column_counts_from_line_start(body, col):
    with pytest.raises(ParseError,
                       match=rf"trailing token '2' \(line \d+, col {col}\)"):
        _sketch(f"x <- a[1] + Lap(?1)\n{body}\nreturn x\n")


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
    assert count_hole_draws(benchmarks["sum"], 5) == (5,)
    assert count_hole_draws(benchmarks["histogram"], 5) == (5,)
    assert count_hole_draws(benchmarks["noisymax2"], 5) == (5, 1)
    assert count_hole_draws(benchmarks["abovet2"], 7) == (1, 7, 1)


# ---------------------------------------------------------------------------
# Kernel agreement with the interpreter
# ---------------------------------------------------------------------------

def _assert_lanes_match(sk, args, answers, draws, bottoms=None):
    """One kernel call over every lane agrees with :func:`run` lane by
    lane, and raises RunError exactly when some lane's run does; a lane
    run alone raises run's own message.  ``answers`` is one answer vector
    for every lane, or a (lanes, qlen) array of one row per lane.  Returns
    the per-lane results of run (a value and its consumption, or the
    RunError)."""
    bottoms = [False] * sk.n_holes if bottoms is None else list(bottoms)
    fn = compile_sketch(sk, bottoms)
    lanes = len(draws[0])
    per_lane = getattr(answers, "ndim", 1) == 2

    def lane_answers(j):
        return answers[j:j + 1] if per_lane else list(answers)

    want = []
    for j in range(lanes):
        trace = NoiseTrace([row[j].tolist() for row in draws])
        row = answers[j].tolist() if per_lane else answers
        try:
            want.append((run(sk, args, row, trace, bottoms=bottoms),
                         trace.consumed()))
        except RunError as exc:
            want.append(exc)
    try:
        outputs, consumed = fn(args, answers if per_lane else list(answers),
                               draws)
    except RunError:
        assert any(isinstance(w, RunError) for w in want)
        for j, w in enumerate(want):
            one = [d[j:j + 1] for d in draws]
            if isinstance(w, RunError):
                with pytest.raises(RunError) as info:
                    fn(args, lane_answers(j), one)
                assert str(info.value) == str(w)
            else:
                out, used = fn(args, lane_answers(j), one)
                _assert_same(out[0], w[0])
                assert tuple(used[0]) == w[1]
        return want
    assert not any(isinstance(w, RunError) for w in want)
    assert len(outputs) == lanes and consumed.shape == (lanes, sk.n_holes)
    for j, (value, used) in enumerate(want):
        _assert_same(outputs[j], value)
        assert tuple(consumed[j]) == used
    return want


def _assert_same(got, want):
    assert got == want
    assert type(got) is type(want)
    if isinstance(got, tuple):
        assert [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize("name", sorted(BENCHMARK_HOLES))
def test_compiled_equals_interpreted(name, benchmarks):
    import numpy as np
    sk = benchmarks[name]
    args = {k: v for k, v in (("T", 2), ("N", 1), ("M", 2)) if k in sk.args}
    rng = np.random.default_rng(123)
    qlen = 5
    caps = count_hole_draws(sk, qlen)
    answers = tuple(int(x) for x in rng.integers(0, 3, qlen))
    draws = [rng.integers(-4, 5, (200, c)) for c in caps]
    masks = [tuple(False for _ in range(sk.n_holes))]
    if sk.n_holes > 1:
        masks.append(tuple(h == sk.n_holes - 1 for h in range(sk.n_holes)))
    # one answer row per lane; at the all-99 row every answer of svt is
    # above T, so its output list stops at length 1 while other rows run
    # to qlen: list outputs of different widths share one call
    rows = np.vstack([rng.integers(0, 5, (5, qlen)), np.full((1, qlen), 99)])
    per_lane = rows[rng.integers(0, len(rows), len(draws[0]))]
    for mask in masks:
        want = _assert_lanes_match(sk, args, answers, draws, mask)
        assert not any(isinstance(w, RunError) for w in want), (name, mask)
        want = _assert_lanes_match(sk, args, per_lane, draws, mask)
        assert not any(isinstance(w, RunError) for w in want), (name, mask)
        # the same lanes as one call per distinct row
        fn = compile_sketch(sk, mask)
        packed, used = fn(args, per_lane, draws)
        widths = set()
        for row in np.unique(per_lane, axis=0):
            at = np.flatnonzero((per_lane == row).all(axis=1))
            out, u = fn(args, tuple(row.tolist()), [d[at] for d in draws])
            assert [packed[j] for j in at] == list(out)
            assert (used[at] == u).all()
            if out.lengths is not None:
                widths.add(out.values.shape[1])
        if name == "svt":
            assert len(widths) > 1


@pytest.mark.parametrize("name", ["noisymax1", "smartsum"])
def test_lane_uniform_values_skip_per_lane_gathers(name, benchmarks,
                                                   monkeypatch):
    # on one shared row the loop counter, the draw cursors and the loop
    # mask stay equal on every lane, so every list read and draw takes
    # one column (smartsum's i mod M branch is lane-uniform as well)
    from mechsynth import lang
    gather, calls = lang._lanes_at, []

    def counted(d, k):
        calls.append(k)
        return gather(d, k)

    monkeypatch.setattr(lang, "_lanes_at", counted)
    sk = benchmarks[name]
    args = {"M": 2} if "M" in sk.args else {}
    rng = np.random.default_rng(7)
    draws = [rng.integers(-4, 5, (64, c)) for c in count_hole_draws(sk, 5)]
    want = _assert_lanes_match(sk, args, (2, 0, 3, 3, 1), draws)
    assert not any(isinstance(w, RunError) for w in want)
    assert calls == []


def test_compile_sketch_returns_one_kernel_per_off_mask(benchmarks):
    sk = benchmarks["svt"]
    mask = (False, True)
    assert compile_sketch(sk, mask) is compile_sketch(sk, list(mask))
    # equal sketches share a kernel; another off-mask gets its own
    assert compile_sketch(sk, mask) is compile_sketch(load_benchmark("svt"),
                                                      mask)
    assert compile_sketch(sk) is compile_sketch(sk, [False, False])
    assert compile_sketch(sk) is not compile_sketch(sk, mask)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_compiled_sum_matches_closed_form(n1, n2, n3):
    sk = parse_sketch(SUM_SRC)
    fn = compile_sketch(sk)
    got, consumed = fn({}, [1, 1, 1], [[[n1, n2, n3]]])
    assert got[0] == 3 + n1 + n2 + n3
    assert tuple(consumed[0]) == (3,)


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
        compile_sketch(sk)({"K": k}, [1, 2, 3], [[[0]]])


@given(data=st.data())
def test_lanes_at_picks_what_fancy_indexing_picks(data):
    lanes = data.draw(st.integers(0, 30), "lanes")
    width = data.draw(st.integers(1, 6), "width")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # one answer row that every lane shares, or a row per lane
    if data.draw(st.booleans(), "shared"):
        d = np.broadcast_to(rng.integers(-9, 9, width), (lanes, width))
    else:
        d = rng.integers(-9, 9, (lanes, width))
    # one column per lane, or a (lanes, w) block as a vector draw reads
    cols = data.draw(st.integers(0, 3), "cols")
    shape = (lanes,) if cols == 0 else (lanes, cols)
    if data.draw(st.booleans(), "uniform"):
        k = np.broadcast_to(rng.integers(0, width, shape[1:]), shape).copy()
    else:
        k = rng.integers(0, width, shape)
    rows = np.arange(lanes) if cols == 0 else np.arange(lanes)[:, None]
    a, at = _lanes_at(d, k)
    assert np.array_equal(a[at], d[rows, k])
    if cols == 0 and d.strides[0]:
        v = rng.integers(-9, 9, lanes)
        got, want = d.copy(), d.copy()
        a, at = _lanes_at(got, k)
        a[at] = v
        want[rows, k] = v
        assert np.array_equal(got, want)


def test_kernel_arguments_must_be_integers():
    fn = compile_sketch(parse_sketch(INDEX_SRC))
    assert fn({"K": 2}, [1, 2, 3], [[[0]]])[0][0] == 2
    for args in ({}, {"K": 1.0}, {"K": 2 ** 63}):
        with pytest.raises(RunError):
            fn(args, [1, 2, 3], [[[0]]])


def test_kernel_answers_are_one_row_or_one_row_per_lane():
    fn = compile_sketch(parse_sketch(INDEX_SRC))
    draws = [[[0], [0]]]
    out, _ = fn({"K": 2}, [[1, 2, 3], [4, 5, 6]], draws)
    assert list(out) == [2, 5]
    # a matrix needs one row per lane, and nothing has three axes
    for answers in ([[1, 2, 3]], [[1, 2, 3]] * 3, [[[1, 2, 3]]] * 2):
        with pytest.raises(ValueError, match="answers must be"):
            fn({"K": 2}, answers, draws)


def test_compiled_runtime_faults_raise_run_error():
    with pytest.raises(RunError):
        compile_sketch(parse_sketch(UNASSIGNED_SRC))({}, [1, 1], [[[0]]])
    # three loop draws wanted, one supplied
    with pytest.raises(RunError):
        compile_sketch(parse_sketch(SUM_SRC))({}, [1, 2, 3], [[[5]]])


# ---------------------------------------------------------------------------
# Fault parity: a fault raises only where a lane that executes it reaches it
# ---------------------------------------------------------------------------

def _sketch(body: str) -> MechanismSketch:
    return parse_sketch("mechanism F\nprivate a\nadjacency one\n\n" + body)


def _draws(*rows):
    import numpy as np
    return [np.array(r, dtype=np.int64).reshape(len(r), -1) for r in rows]


def _faults(want):
    return [str(w) if isinstance(w, RunError) else None for w in want]


def test_fault_parity_index_out_of_range_in_one_lane():
    sk = _sketch("x <- 1 + Lap(?1)\ny <- a[x]\nreturn y\n")
    want = _assert_lanes_match(sk, {}, (5, 6, 7), _draws([0, 2, 4]))
    assert _faults(want) == [None, None, "index 5 out of range 1..3"]


def test_fault_parity_unassigned_read_in_one_lane():
    sk = _sketch("x <- 0 + Lap(?1)\nif x > 0:\n    y <- 1\n"
                 "else:\n    if x == 0:\n        y <- 2\nz <- y + 1\nreturn z\n")
    want = _assert_lanes_match(sk, {}, (1,), _draws([1, 0, -1]))
    assert _faults(want) == [None, None, "read of unassigned variable 'y'"]


def test_fault_parity_division_by_zero_in_masked_lane_does_not_raise():
    sk = _sketch("x <- 0 + Lap(?1)\nif x != 0:\n    y <- 12 / x\nelse:\n"
                 "    y <- 0\nz <- y mod 5\nreturn z\n")
    want = _assert_lanes_match(sk, {}, (1,), _draws([0, 3, -4, 0]))
    assert [w[0] for w in want] == [0, 4, -3, 0]


def test_fault_parity_short_circuit_at_end_of_list():
    # at i = len(a) + 1 the left operand decides; a[i] must not be read
    sk = _sketch("t <- 0 + Lap(?1)\ni <- 1\n"
                 "while i <= len(a) and a[i] > t:\n    i <- i + 1\nreturn i\n")
    want = _assert_lanes_match(sk, {}, (2, 3, 4), _draws([0, 3, -5]))
    assert [w[0] for w in want] == [4, 1, 4]


def test_fault_parity_draw_exhaustion_in_one_lane():
    sk = _sketch("x <- 0 + Lap(?1)\ni <- 1\nwhile i <= len(a) and x > 0:\n"
                 "    y <- a[i] + Lap(?2)\n    i <- i + 1\nreturn i\n")
    want = _assert_lanes_match(sk, {}, (1, 1, 1),
                               _draws([0, 0, 1], [[0, 0]] * 3))
    assert _faults(want) == [None, None, "noise draws exhausted for hole 2"]


def test_fault_parity_squaring_loop_overflows_int64():
    sk = _sketch("x <- 2 + Lap(?1)\ni <- 0\nwhile i < 7:\n    x <- x * x\n"
                 "    i <- i + 1\nreturn x\n")
    want = _assert_lanes_match(sk, {}, (1,), _draws([-2, -1, -3]))
    assert [w[0] for w in want] == [0, 1, 1]
    want = _assert_lanes_match(sk, {}, (1,), _draws([-1, 0, -3]))
    assert _faults(want) == [None, "integer overflow", None]


def test_checker_keeps_one_type_per_variable_list_and_output():
    for body in ("x <- 1 + Lap(?1)\nx <- true\nreturn x\n",
                 "r <- []\nappend r, true\nappend r, 1 + 0\n"
                 "x <- 0 + Lap(?1)\nreturn r\n",
                 "x <- 0 + Lap(?1)\nif x > 0:\n    return true\nreturn x\n",
                 "r <- []\nappend r, true\nb <- r + LapVec(?1)\nreturn b\n"):
        with pytest.raises(TypeCheckError):
            _sketch(body)
    with pytest.raises(ParseError):
        _sketch("x <- 9223372036854775808 + Lap(?1)\nreturn x\n")


def test_lists_are_values():
    # appending to a copy leaves the original as it was
    sk = _sketch("b <- a\nappend b, 9\nx <- len(a) + Lap(?1)\nreturn x\n")
    assert run(sk, {}, (1, 2), NoiseTrace([(0,)])) == 2
    assert compile_sketch(sk)({}, [1, 2], [[[0]]])[0][0] == 2


# ---------------------------------------------------------------------------
# Engine equivalence on random sketches
# ---------------------------------------------------------------------------

_INT_VARS, _BOOL_VARS = ("x", "y", "z"), ("p", "q")


def _int_expr(draw, depth):
    kinds = ["lit", "var", "input"]
    if depth > 0:
        kinds += ["len", "index", "arith", "arith"]
    kind = draw(st.sampled_from(kinds))
    if kind == "lit":
        return str(draw(st.sampled_from([-3, -1, 0, 1, 2, 3, 3037000500])))
    if kind == "var":
        return draw(st.sampled_from(_INT_VARS))
    if kind == "input":
        return draw(st.sampled_from(["qlen", "T"]))
    if kind == "len":
        return f"len({_list_expr(draw, draw(st.booleans()))})"
    if kind == "index":
        base = _list_expr(draw, draw(st.booleans()))
        return f"{base}[{_int_expr(draw, depth - 1)}]"
    op = draw(st.sampled_from(["+", "-", "*", "/", "mod"]))
    return f"({_int_expr(draw, depth - 1)} {op} {_int_expr(draw, depth - 1)})"


def _bool_expr(draw, depth):
    kinds = ["lit", "var"]
    if depth > 0:
        kinds += ["cmp", "cmp", "bcmp", "lcmp", "not", "andor", "andor"]
    kind = draw(st.sampled_from(kinds))
    if kind == "lit":
        return draw(st.sampled_from(["true", "false"]))
    if kind == "var":
        return draw(st.sampled_from(_BOOL_VARS))
    if kind == "cmp":
        op = draw(st.sampled_from(["==", "!=", "<", ">", "<=", ">="]))
        return f"({_int_expr(draw, depth - 1)} {op} {_int_expr(draw, depth - 1)})"
    if kind == "bcmp":
        op = draw(st.sampled_from(["==", "!="]))
        return f"({_bool_expr(draw, depth - 1)} {op} {_bool_expr(draw, depth - 1)})"
    if kind == "lcmp":
        op = draw(st.sampled_from(["==", "!="]))
        return (f"({_list_expr(draw, draw(st.booleans()))} {op} "
                f"{_list_expr(draw, draw(st.booleans()))})")
    if kind == "not":
        return f"(not {_bool_expr(draw, depth - 1)})"
    op = draw(st.sampled_from(["and", "or"]))
    return f"({_bool_expr(draw, depth - 1)} {op} {_bool_expr(draw, depth - 1)})"


def _list_expr(draw, boolean):
    return draw(st.sampled_from(["f", "[]"] if boolean else ["a", "l", "[]"]))


def _out_expr(draw, out):
    if out == "int":
        return _int_expr(draw, 2)
    if out == "bool":
        return _bool_expr(draw, 2)
    return _list_expr(draw, out == "bools")


def _statements(draw, depth, loop, out):
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["skip", "int", "bool", "list", "noisy", "vec", "add", "return"]
        if depth > 0:
            kinds += ["if", "if", "while"]
        if loop is not None:
            kinds += ["break"]
        kind = draw(st.sampled_from(kinds))
        if kind == "skip":
            lines.append("skip")
        elif kind == "int":
            lines.append(f"{draw(st.sampled_from(_INT_VARS))} <- {_int_expr(draw, 2)}")
        elif kind == "bool":
            lines.append(f"{draw(st.sampled_from(_BOOL_VARS))} <- {_bool_expr(draw, 2)}")
        elif kind == "list":
            boolean = draw(st.booleans())
            target = "f" if boolean else "l"
            lines.append(f"{target} <- {_list_expr(draw, boolean)}")
        elif kind == "noisy":
            fam = draw(st.sampled_from(["Lap", "Exp"]))
            lines.append(f"{draw(st.sampled_from(_INT_VARS))} <- "
                         f"{_int_expr(draw, 1)} + {fam}(?H)")
        elif kind == "vec":
            fam = draw(st.sampled_from(["LapVec", "ExpVec"]))
            lines.append(f"l <- {_list_expr(draw, False)} + {fam}(?H)")
        elif kind == "add":
            verb = draw(st.sampled_from(["append", "prepend"]))
            if draw(st.booleans()):
                lines.append(f"{verb} f, {_bool_expr(draw, 1)}")
            else:
                lines.append(f"{verb} l, {_int_expr(draw, 1)}")
        elif kind == "return":
            lines.append(f"return {_out_expr(draw, out)}")
        elif kind == "break":
            lines.append("break")
        elif kind == "if":
            lines.append(f"if {_bool_expr(draw, 2)}:")
            lines += ["    " + s for s in _statements(draw, depth - 1, loop, out)]
            if draw(st.booleans()):
                lines.append("else:")
                lines += ["    " + s for s in _statements(draw, depth - 1, loop, out)]
        else:
            # a counted loop; now and then an innermost one is left to run
            # out of fuel
            k = f"k{depth}"
            cond = _bool_expr(draw, 1)
            if depth > 1 or draw(st.integers(0, 4)):
                lines.append(f"{k} <- 0")
                cond = f"({k} < 3) and {cond}"
            lines.append(f"while {cond}:")
            lines += ["    " + s for s in _statements(draw, depth - 1, k, out)]
            lines.append(f"    {k} <- {k} + 1")
    return lines


@st.composite
def random_sketches(draw):
    """Source of a random well-typed sketch that uses every statement and
    expression form, with holes numbered in textual order."""
    out = draw(st.sampled_from(["int", "bool", "ints", "bools"]))
    # every variable is declared; some only on lanes whose first draw is
    # positive, so that other lanes read them unassigned
    lines = ["w <- 0 + Lap(?H)", "k1 <- 0", "k2 <- 0"]
    for name, init in (("x", "1"), ("y", "a[1]"), ("z", "w"), ("p", "true"),
                       ("q", "(x < 2)"), ("l", "a"), ("f", "[]")):
        if draw(st.integers(0, 5)):
            lines.append(f"{name} <- {init}")
        else:
            lines += ["if w > 0:", f"    {name} <- {init}"]
    lines += _statements(draw, 2, None, out)
    lines.append(f"return {_out_expr(draw, out)}")
    count = iter(range(1, 100))
    body = re.sub(r"\?H", lambda _: f"?{next(count)}", "\n".join(lines))
    return "mechanism Rand\nprivate a\nargs T\nadjacency one\n\n" + body + "\n"


@given(src=random_sketches(), seed=st.integers(0, 2 ** 32 - 1),
       answers=st.lists(st.integers(-2, 3), min_size=1, max_size=3),
       T=st.integers(-2, 2), data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_kernel_equals_interpreter_on_random_sketches(src, seed, answers, T,
                                                      data):
    import numpy as np
    sk = parse_sketch(src)
    rng = np.random.default_rng(seed)
    caps = data.draw(st.lists(st.integers(0, 4), min_size=sk.n_holes,
                              max_size=sk.n_holes))
    bottoms = data.draw(st.lists(st.booleans(), min_size=sk.n_holes,
                                 max_size=sk.n_holes))
    # lane-uniform values arise differently on one shared row, on a row
    # per lane and on one lane
    lanes, answers = 16, tuple(answers)
    if data.draw(st.booleans(), "per_lane"):
        lanes = data.draw(st.integers(1, 16), "lanes")
        answers = rng.integers(-2, 4, (lanes, len(answers)))
    draws = [rng.integers(-3, 4, (lanes, c)) for c in caps]
    _assert_lanes_match(sk, {"T": T}, answers, draws, bottoms)
