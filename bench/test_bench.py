"""Tests of the benchmark itself: seeded inputs are byte-identical, the
oracles and the verdict check give the known answers on tiny
configurations, and the printed metric names match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from ops import Operations, write_inputs  # noqa: E402
from reqpat.conditions import Ref, State, Trace  # noqa: E402
from reqpat.patterns import (  # noqa: E402
    AfterUntil,
    Before,
    Between,
    Globally,
    PrecedenceChain,
    Requirement,
    Response,
    ResponseChain,
    check,
    segments,
)
from workloads import BUILDERS, HOLDS, ReplaySut, TraceSpace, response_backlog, trace_bulk  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_inputs_are_byte_identical_for_a_seed(name, tmp_path):
    first = write_inputs(BUILDERS[name](7), tmp_path / "a")
    second = write_inputs(BUILDERS[name](7), tmp_path / "b")
    other = write_inputs(BUILDERS[name](8), tmp_path / "c")
    for field in ("suite", "trace", "warm_trace"):
        assert getattr(first, field).read_bytes() == getattr(second, field).read_bytes()
    assert first.trace.read_bytes() != other.trace.read_bytes()


def _all_traces(atoms, max_length):
    return [[frozenset(s.atoms) for s in trace] for trace in TraceSpace(atoms, max_length)]


CHAINS = [
    ResponseChain(Ref("p"), [Ref("a")]),
    ResponseChain(Ref("p"), [Ref("a"), Ref("b")]),
    PrecedenceChain([Ref("a")], Ref("p")),
    PrecedenceChain([Ref("a"), Ref("b")], Ref("p")),
]


@pytest.mark.parametrize("pattern", CHAINS, ids=repr)
def test_backward_chain_oracle_matches_brute_force(pattern):
    for scope in (Globally(), Between(Ref("a"), Ref("b"))):
        req = Requirement("chain", pattern, scope)
        for trace in _all_traces(("p", "a", "b"), 4):
            segs = oracle.scope_segments(scope, trace)
            brute = oracle.brute_chain_holds(pattern, trace, segs)
            assert (oracle.Oracle(trace).verdict(req)[0] == "holds") == brute


def test_strict_response_oracle_matches_brute_force():
    p, s = Ref("p"), Ref("s")
    for scope in (Between(Ref("q"), Ref("r")), AfterUntil(Ref("q"), Ref("r"))):
        req = Requirement("strict", Response(p, s, strict=True), scope)
        for trace in _all_traces(("p", "s", "q", "r"), 3):
            brute = oracle.brute_chain_holds(ResponseChain(p, [s]), trace, oracle.scope_segments(scope, trace))
            assert (oracle.Oracle(trace).verdict(req)[0] == "holds") == brute


def test_oracle_segments_follow_the_scope_definitions():
    # q opens at 1 and 5; r closes strictly later at 3; the tail after 5 is unclosed.
    trace = [frozenset(), {"q"}, {"q"}, {"r"}, set(), {"q", "r"}, set()]
    q, r = Ref("q"), Ref("r")
    assert oracle.scope_segments(Between(q, r), trace) == [(1, 3)]
    assert oracle.scope_segments(AfterUntil(q, r), trace) == [(1, 3), (5, 7)]
    assert oracle.scope_segments(Before(r), trace) == [(0, 3)]
    rng = random.Random(3)
    for _ in range(200):
        atoms = [frozenset(a for a in "qr" if rng.random() < 0.3) for _ in range(rng.randint(0, 12))]
        for scope in (Between(q, r), AfterUntil(q, r), Before(r)):
            assert oracle.scope_segments(scope, atoms) == segments(scope, Trace(State(a) for a in atoms))


def test_tiny_bulk_trace_has_its_constructed_verdicts():
    workload = trace_bulk(5, states=400)
    rows = Operations(workload, None).known_verdicts()
    assert rows[1] == 0
    for req in workload.suite.requirements:
        want = workload.expected[req.name]
        got = check(req, Trace(State(a) for a in workload.trace))
        key = ("holds", got.vacuous, None) if want[0] == "holds" else ("fails", False, got.position)
        assert key == want, req.name
    assert sum(v != HOLDS for v in workload.expected.values()) == 7


def test_tiny_backlog_trace_holds_everywhere():
    workload = response_backlog(5, backlog=30)
    rows, disagreements = Operations(workload, None).known_verdicts()
    assert disagreements == 0
    assert {row[1:] for row in rows} == {("holds", False, None)}


@pytest.mark.parametrize("name", ["drive-clock", "response-backlog"])
def test_verdict_check_accepts_right_and_counts_wrong_outputs(name, tmp_path):
    workload = response_backlog(2, backlog=30) if name == "response-backlog" else BUILDERS[name](2)
    ops = Operations(workload, write_inputs(workload, tmp_path))
    ops.prepare()
    outputs = {metric: Counter() for metric in workload.shares}
    for metric, op in (("check_s", ops.check), ("tooling_s", ops.tooling), ("crosscheck_traces_per_s", ops.crosscheck),
                       ("drive_ticks_per_s", ops.drive), ("replay_s", ops.replay)):
        outputs[metric][op()[2]] += 1
    assert ops.verify(outputs) == 0

    (code, text), = outputs["check_s"]
    flipped = json.loads(text)
    flipped[0]["verdict"] = "fails" if flipped[0]["verdict"] == "holds" else "holds"
    outputs["check_s"][(code, json.dumps(flipped))] += 2
    ((outcomes, ticks),) = outputs["drive_ticks_per_s"]
    outputs["drive_ticks_per_s"][(outcomes[:-1] + ("NotReached(1)",), ticks)] += 1
    outputs["drive_ticks_per_s"][(outcomes, ticks + 1)] += 1
    assert ops.verify(outputs) == 4


def test_drive_ticks_are_read_from_the_driven_systems(tmp_path):
    workload = BUILDERS["drive-clock"](2)
    ops = Operations(workload, write_inputs(workload, tmp_path))
    ops.prepare()
    _, _, (_, ticks) = ops.drive()
    assert ticks == ops.expected_ticks > 0

    sut = ReplaySut(["a", "b", "c"])
    sut.tick()
    sut.tick()
    sut.reset()
    sut.tick()
    assert (sut.ticks, sut.observations()) == (3, "b")


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "drive-clock", "--seed", "3", "--seconds", "0.2", "--trace", str(trace)])
    assert code == 0
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(BUILDERS)


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_package()
    assert exc.value.code == 2


def test_trace_space_indexes_every_trace_of_the_gate_lengths():
    space = TraceSpace(("p", "q"), 3)
    universe = space.universe
    every = [t for n in (1, 2, 3) for t in itertools.product(universe, repeat=n)]
    assert list(space) == every
    assert len(TraceSpace(("p",), 5)) == 2 + 4 + 8 + 16 + 32
    big = TraceSpace(("p", "s", "q", "r"), 5)
    assert len(big) == sum(16**n for n in range(1, 6))
    assert big[len(big) - 1] == (big.universe[-1],) * 5
    with pytest.raises(IndexError):
        big[len(big)]


def test_samples_are_scaled_by_the_calibrations_around_them(monkeypatch):
    # A machine running at half the calibration speed: times halve, rates double.
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CALIBRATION_S)
    ops = SimpleNamespace(check=lambda: (0.3, 1, "ok"), drive=lambda: (1000.0, 1, "ok"),
                          tooling=None, crosscheck=None, replay=None)
    shares = {"check_s": 0.5, "drive_ticks_per_s": 0.5}
    samples, timed, outputs, attempted = run.measure(ops, shares, 0, None, {"drive_ticks_per_s"})
    assert timed == {"check_s": [0.3] * 3, "drive_ticks_per_s": [1000.0] * 3}
    assert samples == {"check_s": [0.15] * 3, "drive_ticks_per_s": [2000.0] * 3}
    assert outputs == {"check_s": Counter({"ok": 3}), "drive_ticks_per_s": Counter({"ok": 3})}
    assert attempted == 6
