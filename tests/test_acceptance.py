"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line per criterion (visible under `pytest -s`, and in
captured output on failure).

The exhaustive oracle-equivalence runs enumerate every trace over the
referenced atoms up to length 5; the heavy four-atom cells parallelize over
processes because both evaluators are pure.
"""

import json
import multiprocessing
import os
import random
import time
from contextlib import contextmanager

import pytest

from reqpat.cli import main
from reqpat.clock import Clock, builtin_suite, builtin_suite_text, clock_display
from reqpat.conditions import Ref, Trace
from reqpat.ltl import emit_ltl, eval_ltlf, parse, print_formula
from reqpat.patterns import (
    Absence,
    After,
    AfterUntil,
    Before,
    Between,
    BoundedExistence,
    Existence,
    Globally,
    Holds,
    Precedence,
    PrecedenceChain,
    Requirement,
    Response,
    ResponseChain,
    Universality,
    check,
)
from reqpat.picnic import render_requirement
from reqpat.suite import DuplicateDefinition, dump_suite, load_suite, load_trace, write_trace

from helpers import all_traces, random_formula, random_trace, state_universe
from reference import brute_precedence_chain_holds, brute_response_chain_holds

P, Q, R, S = Ref("p"), Ref("q"), Ref("r"), Ref("s")


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


# --- criterion 1: oracle equivalence, core patterns x all scopes --------------

CORE_PATTERNS = [
    (Absence(P), ("p",)),
    (Universality(P), ("p",)),
    (Existence(P), ("p",)),
    (BoundedExistence(P, 0), ("p",)),
    (BoundedExistence(P, 1), ("p",)),
    (BoundedExistence(P, 2), ("p",)),
    (Precedence(S, P), ("p", "s")),
    (Response(P, S, strict=False), ("p", "s")),
]

ALL_SCOPES = [
    (Globally(), ()),
    (Before(R), ("r",)),
    (After(Q), ("q",)),
    (Between(Q, R), ("q", "r")),
    (AfterUntil(Q, R), ("q", "r")),
]


def _cell_mismatches(job) -> int:
    """Count check/eval_ltlf disagreements for one pattern x scope cell over
    every trace of length 1-5; with `first` set, only over the slice of
    traces starting in that state (used to split heavy cells across
    processes)."""
    import itertools

    pattern, scope, atoms, first = job
    requirement = Requirement("cell", pattern, scope)
    formula = emit_ltl(requirement)
    universe = state_universe(atoms)

    def traces():
        if first is None:
            yield from all_traces(atoms, max_len=5)
            return
        head = (universe[first],)
        for length in range(1, 6):
            for tail in itertools.product(universe, repeat=length - 1):
                yield Trace(head + tail)

    bad = 0
    for trace in traces():
        direct = isinstance(check(requirement, trace), Holds)
        if direct != eval_ltlf(formula, trace, 0):
            bad += 1
    return bad


def test_criterion_1_oracle_equivalence_core():
    with criterion(1, "oracle equivalence, core patterns x scopes"):
        jobs = []
        for pattern, pattern_atoms in CORE_PATTERNS:
            for scope, scope_atoms in ALL_SCOPES:
                atoms = tuple(dict.fromkeys(pattern_atoms + scope_atoms))
                if len(atoms) >= 4:
                    jobs.extend((pattern, scope, atoms, first) for first in range(2 ** len(atoms)))
                else:
                    jobs.append((pattern, scope, atoms, None))
        workers = int(os.environ.get("REQPAT_ACCEPTANCE_JOBS", str(os.cpu_count() or 1)))
        workers = max(1, min(workers, len(jobs)))
        if workers > 1:
            try:
                with multiprocessing.get_context("fork").Pool(workers) as pool:
                    results = pool.map(_cell_mismatches, jobs, chunksize=1)
            except ValueError:
                results = [_cell_mismatches(job) for job in jobs]
        else:
            results = [_cell_mismatches(job) for job in jobs]
        assert sum(results) == 0, f"disagreements per job: {results}"


# --- criterion 2: strict response -------------------------------------------


def test_criterion_2_strict_response():
    with criterion(2, "strict response vs [](p -> X<>s)"):
        requirement = Requirement("strict", Response(P, S, strict=True), Globally())
        stated = parse("[](p -> X<>s)")
        assert emit_ltl(requirement) == stated
        for trace in all_traces(("p", "s"), max_len=5):
            direct = isinstance(check(requirement, trace), Holds)
            assert direct == eval_ltlf(stated, trace, 0)


# --- criterion 3: chain patterns vs brute-force oracle ------------------------


def test_criterion_3_chains_vs_brute_force():
    with criterion(3, "chain patterns vs brute-force subsequence oracle"):
        a, b = Ref("a"), Ref("b")
        patterns = [
            ResponseChain(P, [a]),
            ResponseChain(P, [a, b]),
            PrecedenceChain([a], P),
            PrecedenceChain([a, b], P),
        ]
        for pattern in patterns:
            requirement = Requirement("chain", pattern, Globally())
            for trace in all_traces(("p", "a", "b"), max_len=5):
                segment = (0, len(trace))
                direct = isinstance(check(requirement, trace), Holds)
                if isinstance(pattern, ResponseChain):
                    expected = brute_response_chain_holds(trace, pattern.p, pattern.chain, segment)
                else:
                    expected = brute_precedence_chain_holds(trace, pattern.chain, pattern.p, segment)
                assert direct == expected


# --- criterion 4: clock scenario reproduction ---------------------------------


def test_criterion_4_demo_clock(capsys):
    with criterion(4, "demo clock transcript: p_holds, Reached(1440), Reached(1440)"):
        started = time.perf_counter()
        code = main(["demo", "clock"])
        elapsed = time.perf_counter() - started
        first = capsys.readouterr().out
        assert code == 0
        assert elapsed < 1.0
        p_holds_at = first.index("p_holds")
        reached_one = first.index("Reached(1440)")
        reached_two = first.index("Reached(1440)", reached_one + 1)
        assert p_holds_at < reached_one < reached_two
        assert main(["demo", "clock"]) == 0
        assert capsys.readouterr().out == first


# --- criterion 5: picnic fidelity ---------------------------------------------


def test_criterion_5_picnic_fidelity():
    with criterion(5, "reflexive STATEMENT_1_1 paraphrase"):
        midnight = Ref("at_2400")
        requirement = Requirement(
            "STATEMENT_1_1", Response(midnight, midnight, strict=False), Globally()
        )
        line = render_requirement(requirement, {midnight: "midnight"})
        assert line.render() == "STATEMENT_1_1: midnight responds to midnight globally"


# --- criterion 6: round trips ---------------------------------------------------


def test_criterion_6_round_trips():
    with criterion(6, "parse/print, trace, and suite round trips"):
        rng = random.Random(20240829)
        for _ in range(10_000):
            formula = random_formula(rng, depth=5)
            assert parse(print_formula(formula)) == formula
        for _ in range(1_000):
            trace = random_trace(rng)
            assert load_trace(write_trace(trace)) == trace
        suite = builtin_suite()
        assert load_suite(dump_suite(suite)) == suite
        assert load_suite(builtin_suite_text()) == suite


# --- criterion 7: loader contradiction check -----------------------------------


def test_criterion_7_duplicate_definition(tmp_path, capsys):
    with criterion(7, "duplicate condition definition rejected"):
        text = '{"conditions": {"midnight": "at_2400", "midnight": "at_2400"}, "requirements": []}'
        with pytest.raises(DuplicateDefinition):
            load_suite(text)
        path = tmp_path / "dup.json"
        path.write_text(text)
        trace_path = tmp_path / "empty.jsonl"
        trace_path.write_text("")
        code = main(["check", "--suite", str(path), "--trace", str(trace_path)])
        capsys.readouterr()
        assert code == 2


# --- criterion 8: clock invariants ---------------------------------------------


def test_criterion_8_clock_invariants():
    with criterion(8, "clock display, cycle, and midnight invariants"):
        import re

        display_re = re.compile(r"^([01][0-9]|2[0-4]):[0-5][0-9]$")
        midnight_states = 0
        clock = Clock()
        for minute in range(1441):
            assert display_re.fullmatch(clock_display(minute))
            clock.minute = minute
            if "at_2400" in clock.observations():
                midnight_states += 1
        assert midnight_states == 1

        # 00:00 and 24:00 read as the same wall-clock minute at either end of
        # the day; minute 0 is visited only as the fresh start.
        same_minute = lambda a, b: a == b or {a, b} == {0, 1440}
        for start in range(1441):
            clock.minute = start
            for step in range(1, 1441):
                clock.tick()
                if step < 1440:
                    assert not same_minute(clock.minute, start)
            assert same_minute(clock.minute, start)


# --- criterion 9: vacuity surfaced ----------------------------------------------


def test_criterion_9_vacuity(tmp_path, capsys):
    with criterion(9, "never-delimited Before scope is vacuous, exit 3"):
        requirement = Requirement("VAC", Absence(P), Before(R))
        trace = Trace.of({"p"}, set(), {"p"})
        assert check(requirement, trace) == Holds(vacuous=True)

        suite_path = tmp_path / "vacuous.json"
        suite_path.write_text(
            json.dumps(
                {
                    "conditions": {"p": "p", "r": "r"},
                    "requirements": [
                        {
                            "name": "VAC",
                            "pattern": {"type": "absence", "p": "p"},
                            "scope": {"type": "before", "r": "r"},
                        }
                    ],
                }
            )
        )
        trace_path = tmp_path / "no_r.jsonl"
        trace_path.write_text(write_trace(trace))
        code = main(["check", "--suite", str(suite_path), "--trace", str(trace_path)])
        out = capsys.readouterr().out
        assert "VAC: HOLDS (vacuous)" in out
        assert code == 3
