"""The benchmark's workloads, the operations they run and the checks on them.

An operation drives the user-facing ``mechsynth`` command line in-process,
so ``cli`` and ``config`` are on the measured path.  ``test-mix`` runs one
``mechsynth test`` pass over a fixed completion list; the synth workloads run
one ``mechsynth synth`` call.  The workload seed is passed to mechsynth as
``--seed``; mechsynth receives nothing but command-line arguments.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Every workload fixes these, so a change of mechsynth's defaults does not
# change what is measured.
FIXED_ARGS = ("--epsilon", "1/2", "--qlen", "5")

# Failure kinds.  ERROR and NOT_REPRODUCED mean the run itself cannot be
# trusted; the other two are wrong answers from mechsynth that the benchmark
# counts but still measures.
ERROR = "error"                          # raised, exit 2 or malformed output
NOT_REPRODUCED = "not-reproduced"        # output differs at the same seed
NO_SURVIVOR = "no-survivor"              # synth exit 1: nothing verified
MISSED_VIOLATION = "missed-violation"    # noiseless completion judged private
BROKEN = (ERROR, NOT_REPRODUCED)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    budget: tuple                 # budget arguments of every call
    sketch: str = ""              # synth workloads: the sketch to complete
    completions: tuple = ()       # test-mix: (sketch, noise) pairs

    @property
    def sketches(self) -> tuple:
        if self.sketch:
            return (self.sketch,)
        return tuple(dict.fromkeys(s for s, _ in self.completions))

    def calls(self, seed: int) -> list:
        """Command lines of one operation, without ``--out``."""
        tail = [*self.budget, *FIXED_ARGS, "--seed", str(seed)]
        if self.sketch:
            return [["synth", "--sketch", self.sketch, *tail]]
        return [["test", "--sketch", s, "--noise", n, *tail]
                for s, n in self.completions]


WORKLOADS = {w.name: w for w in (
    Workload(
        "test-mix",
        why="mechsynth test on seven fixed completions: all time is in "
            "lang, dist and tester, so bank, DE and enumeration changes are "
            "bypassed",
        budget=("--trials", "4000"),
        completions=(("noisymax1", "4"), ("noisymax1", "bot"),
                     ("svt", "4,8"), ("svt", "bot,bot"),
                     ("smartsum", "2,2"), ("smartsum", "bot,bot"),
                     ("abovet2", "4,8,4"))),
    Workload(
        "synth-small",
        why="mechsynth synth on noisymax1 at a small budget: the tester "
            "does most of the work, so tester and engine gains show here",
        budget=("--trials", "1000", "--presamples", "4000",
                "--population", "20", "--steps", "30"),
        sketch="noisymax1"),
    Workload(
        "synth-search",
        why="mechsynth synth on noisymax1 with the fewest tester trials and "
            "a large bank and DE budget, so presample-bank and DE work shows",
        budget=("--trials", "1000", "--presamples", "12000",
                "--population", "40", "--steps", "80"),
        sketch="noisymax1"),
)}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def judge_test(noise: str, exit_code: int, decision_p, first_p):
    """Failure kind of one ``mechsynth test`` call, or None.

    ``first_p`` is the decision p-value of the first call with the same
    arguments in this run.  A deterministic mechanism that is not constant is
    never epsilon-DP, so a noiseless completion judged private is wrong."""
    if exit_code not in (0, 1) or decision_p is None:
        return ERROR
    if first_p is not None and decision_p != first_p:
        return NOT_REPRODUCED
    if exit_code == 0 and all(h == "bot" for h in noise.split(",")):
        return MISSED_VIOLATION
    return None


def judge_synth(exit_code: int, digest, first_digest):
    """Failure kind of one ``mechsynth synth`` call, or None.

    ``first_digest`` is the report digest of the first call with the same
    arguments in this run; reports must be byte-identical at a fixed seed."""
    if exit_code not in (0, 1) or digest is None:
        return ERROR
    if first_digest is not None and digest != first_digest:
        return NOT_REPRODUCED
    if exit_code == 1:
        return NO_SURVIVOR
    return None


def failed_frac(kinds) -> float:
    """Failed calls over attempted calls; ``kinds`` holds one entry per call."""
    kinds = list(kinds)
    if not kinds:
        raise ValueError("no call was attempted")
    return sum(k is not None for k in kinds) / len(kinds)


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------

def cli(argv) -> int:
    """Run ``mechsynth ARGV`` in this process; returns the exit code."""
    from mechsynth.cli import main
    try:
        main(list(argv), standalone_mode=True)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0


@dataclass
class Op:
    wall: float = 0.0                          # seconds in mechsynth calls
    kinds: list = field(default_factory=list)  # failure kind per call
    phases: dict = field(default_factory=dict)  # synth sidecar seconds
    candidates: int = 0
    survivors: int = 0
    layers: dict = field(default_factory=dict)  # figures of a traced op


class Runner:
    """Runs one workload's operations at one seed and checks every output
    against the first output of the same call in this run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.out = workdir / "out"
        self.first = {}        # call -> first decision p-value or digest
        self.failures = []     # (call, kind) of every failed call

    def run_op(self) -> Op:
        op = Op()
        for argv in self.workload.calls(self.seed):
            self.out.unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                code = cli([*argv, "--out", str(self.out)])
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = None
            op.wall += time.perf_counter() - t0
            if code is None:
                kind = ERROR
            elif argv[0] == "synth":
                kind = self._judge_synth(argv, code, op)
            else:
                kind = self._judge_test(argv, code)
            op.kinds.append(kind)
            if kind is not None:
                self.failures.append((" ".join(argv), kind))
        return op

    def _judge_test(self, argv, code):
        try:
            last = json.loads(self.out.read_text().splitlines()[-1])
            p = float(last["decision_p"])
        except (OSError, IndexError, KeyError, TypeError, ValueError):
            p = None
        key = tuple(argv)
        kind = judge_test(argv[argv.index("--noise") + 1], code, p,
                          self.first.get(key))
        if p is not None:
            self.first.setdefault(key, p)
        return kind

    def _judge_synth(self, argv, code, op):
        try:
            text = self.out.read_bytes()
            report = json.loads(text)
            sidecar = json.loads(
                Path(f"{self.out}.timings.json").read_text())
            op.phases = sidecar["seconds"]
            op.candidates = report["candidate_count"]
            op.survivors = len(report["survivors"])
            digest = hashlib.sha256(text).hexdigest()
        except (OSError, KeyError, TypeError, ValueError):
            digest = None
        key = tuple(argv)
        kind = judge_synth(code, digest, self.first.get(key))
        if digest is not None:
            self.first.setdefault(key, digest)
        return kind
