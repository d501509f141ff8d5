"""The benchmark's operations and the verdict check on their outputs.

Each operation calls the package through its public functions, or through
`reqpat.cli.main` in-process, and returns `(value, attempted, output)`: the
sample for its end-to-end metric, the number of operations it stands for,
and a hashable summary of what the program produced. Outputs are collected
while measuring and compared with the known answers afterwards, so the
comparison costs no measured time and the oracles add nothing to peak RSS.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from unittest import mock

from reqpat import cli, harness, ltl, patterns, suite as suite_io
from reqpat.conditions import Trace
from reqpat.patterns import Existence, Globally, Holds, Response

import oracle
from workloads import CountingClock, Workload, emittable


@dataclass
class Files:
    suite: Path
    trace: Path
    warm_trace: Path


def write_inputs(workload: Workload, directory: Path) -> Files:
    directory.mkdir(parents=True, exist_ok=True)
    files = Files(directory / "suite.json", directory / "trace.jsonl", directory / "warm_trace.jsonl")
    files.suite.write_text(workload.suite_text, encoding="utf-8")
    files.trace.write_text(workload.trace_text(), encoding="utf-8")
    files.warm_trace.write_text(workload.trace_text(workload.trace[:500]), encoding="utf-8")
    return files


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def verdict_key(verdict) -> tuple:
    if isinstance(verdict, Holds):
        return ("holds", verdict.vacuous, None)
    return ("fails", False, verdict.position)


def fingerprint(trace) -> int:
    return hash(tuple(state.atoms for state in trace))


# Pairs per crosscheck sample: about 50 to 100 ms of work, so that a run
# takes hundreds of samples and each lies close to its calibrations.
CHUNK_PAIRS = 1000


def chunk_count(items: list[tuple]) -> int:
    return max(1, round(sum(len(traces) for _, traces in items) / CHUNK_PAIRS))


def crosscheck_chunk(items: list[tuple], j: int, k: int) -> list[tuple]:
    """Chunk j of k of a sweep: every k-th trace of every requirement from
    the j-th on, so all chunks have the same mix of cells and lengths."""
    chunk = [(req, [traces[i] for i in range(j, len(traces), k)]) for req, traces in items]
    return [(req, traces) for req, traces in chunk if traces]


class Operations:
    """One instance per workload run. `calls` maps a layer entry point's
    name to the function the operations call, which the traced run replaces
    with span-recording wrappers."""

    def __init__(self, workload: Workload, files: Files, calls: dict | None = None):
        self.w = workload
        self.files = files
        self.calls = dict(DIRECT if calls is None else calls)
        self.conditions = workload.suite.conditions
        self.chunks = chunk_count(workload.crosscheck)
        self.next_chunk = int(workload.sweep_start * self.chunks)

    def check(self, trace_path: Path | None = None):
        path = self.files.trace if trace_path is None else trace_path
        argv = ["check", "--suite", str(self.files.suite), "--trace", str(path), "--json"]
        started = perf_counter()
        code, out = run_cli(argv)
        return perf_counter() - started, 1, (code, out)

    def tooling(self):
        suite_path = str(self.files.suite)
        started = perf_counter()
        results = tuple(run_cli([cmd, "--suite", suite_path]) for cmd in ("emit", "render", "report"))
        return perf_counter() - started, 3, results

    def crosscheck(self):
        """One chunk of the crosscheck sweep; successive calls cycle through
        the chunks."""
        check, emit, eval_ltlf = self.calls["check"], self.calls["emit_ltl"], self.calls["eval_ltlf"]
        chunk = crosscheck_chunk(self.w.crosscheck, self.next_chunk, self.chunks)
        self.next_chunk = (self.next_chunk + 1) % self.chunks
        pairs = mismatches = 0
        started = perf_counter()
        for req, traces in chunk:
            formula = emit(req)
            for states in traces:
                trace = Trace(states)
                direct = isinstance(check(req, trace), Holds)
                if direct != eval_ltlf(formula, trace, 0):
                    mismatches += 1
            pairs += len(traces)
        elapsed = perf_counter() - started
        return pairs / elapsed, pairs, mismatches

    def drive(self):
        """One drive script on a fresh system. The rate's tick count is read
        from the systems driven: this one, and the clocks `reqpat drive`
        sessions build, which are made counting ones while the script runs."""
        record, establish, verify = self.calls["record"], self.calls["establish"], self.calls["drive_verify_response"]
        sut = self.w.make_sut()
        sessions: list[CountingClock] = []

        def session_clock() -> CountingClock:
            sessions.append(CountingClock())
            return sessions[-1]

        raw = []
        patch = mock.patch.dict(cli.SUTS, {"clock": session_clock})
        patch.start()
        started = perf_counter()
        sut.reset()
        for step in self.w.drive_script:
            kind = step[0]
            if kind == "record":
                raw.append(record(sut, step[1]))
            elif kind == "establish":
                raw.append(establish(sut, self.conditions[step[1]], step[2]))
            elif kind == "verify":
                raw.append(verify(sut, self.conditions[step[1]], self.conditions[step[2]], step[3]))
            else:
                raw.append(run_cli(["drive", "--suite", str(self.files.suite), "--sut", "clock", "--bound", str(step[1])]))
        elapsed = perf_counter() - started
        patch.stop()
        ticks = sut.ticks + sum(clock.ticks for clock in sessions)
        outcomes = tuple(
            (len(r), fingerprint(r)) if isinstance(r, Trace) else r if isinstance(r, tuple) else str(r)
            for r in raw
        )
        return ticks / elapsed, len(raw), (outcomes, ticks)

    def replay(self, steps: int | None = None):
        steps = self.w.record_steps if steps is None else steps
        c = self.calls
        started = perf_counter()
        recorded = c["record"](self.w.make_sut(), steps)
        loaded = c["load_trace"](c["write_trace"](recorded))
        verdicts = tuple(verdict_key(c["check"](req, loaded)) for req in self.w.suite.requirements)
        elapsed = perf_counter() - started
        return elapsed, 1, (steps, fingerprint(loaded), verdicts)

    # --- known answers ----------------------------------------------------------

    def simulate_drive(self) -> tuple[tuple, int]:
        """The drive script's outputs and the ticks it takes, derived from
        the system's state model without the harness."""
        state_at = self.w.state_at
        holds = oracle.holds

        def establish(cond, t, bound):
            if holds(cond, state_at(t)):
                return "Reached(0)", 0
            return reach(cond, t, bound)

        def verify(trigger, response, t, bound):
            if not holds(trigger, state_at(t)):
                return f"PreconditionViolation({harness.P_HOLDS})", 0
            return reach(response, t, bound)

        def reach(cond, t, bound):
            step = oracle.first_reach(state_at, cond, t, bound)
            return (f"Reached({step})", step) if step is not None else (f"NotReached({bound})", bound)

        outputs: list = []
        ticks = t = 0
        for step in self.w.drive_script:
            kind = step[0]
            if kind == "record":
                t = step[1]
                outputs.append((t + 1, hash(tuple(state_at(i) for i in range(t + 1)))))
                ticks += t
                continue
            if kind == "establish":
                text, used = establish(self.conditions[step[1]], t, step[2])
            elif kind == "verify":
                text, used = verify(self.conditions[step[1]], self.conditions[step[2]], t, step[3])
            else:
                # A `reqpat drive` session on a fresh system of its own.
                lines, failures, used = [], 0, 0
                for req in self.w.suite.requirements:
                    pattern = req.pattern
                    if not (isinstance(req.scope, Globally) and isinstance(pattern, (Existence, Response))):
                        lines.append(f"{req.name}: skipped (only global existence and response drive)")
                        continue
                    if isinstance(pattern, Existence):
                        outcome, u = establish(pattern.p, used, step[1])
                    else:
                        outcome, u = verify(pattern.p, pattern.s, used, step[1])
                    failures += not outcome.startswith("Reached")
                    lines.append(f"{req.name}: {outcome}")
                    used += u
                outputs.append((1 if failures else 0, "".join(line + "\n" for line in lines)))
                ticks += used
                continue
            outputs.append(text)
            t += used
            ticks += used
        return tuple(outputs), ticks

    def prepare(self) -> None:
        """Known answers that the measured operations need while they run."""
        self.expected_drive, self.expected_ticks = self.simulate_drive()

    def known_verdicts(self) -> tuple[list[tuple], int]:
        """Per requirement (name, verdict, vacuous, position or None) for the
        checked trace, and the number of requirements where the construction
        and the oracle disagree."""
        rows, disagreements = [], 0
        answers = oracle.Oracle(self.w.trace)
        for req in self.w.suite.requirements:
            verdict, vacuous = answers.verdict(req)
            position = None
            if self.w.expected is not None:
                built = self.w.expected[req.name]
                disagreements += built[:2] != (verdict, vacuous)
                verdict, vacuous, position = built
            rows.append((req.name, verdict, vacuous, position))
        return rows, disagreements

    def verify(self, outputs: dict[str, Counter]) -> int:
        """Count the operations whose output differs from the known answer."""
        failed = 0
        known, disagreements = self.known_verdicts()
        failed += disagreements
        exit_code = 1 if any(r[1] == "fails" for r in known) else 3 if any(r[2] for r in known) else 0
        for (code, text), count in outputs.get("check_s", Counter()).items():
            failed += count * (not (code == exit_code and _check_json_matches(text, known)))
        for results, count in outputs.get("tooling_s", Counter()).items():
            failed += count * _tooling_errors(self.w, results)
        for mismatches, count in outputs.get("crosscheck_traces_per_s", Counter()).items():
            failed += count * mismatches
        for (outcomes, ticks), count in outputs.get("drive_ticks_per_s", Counter()).items():
            wrong = sum(a != b for a, b in zip(outcomes, self.expected_drive)) + (len(outcomes) != len(self.expected_drive))
            failed += count * (wrong + (ticks != self.expected_ticks))
        for (steps, digest, verdicts), count in outputs.get("replay_s", Counter()).items():
            states = [self.w.state_at(t) for t in range(steps + 1)]
            answers = oracle.Oracle(states)
            want = tuple(answers.verdict(req) for req in self.w.suite.requirements)
            ok = digest == hash(tuple(states)) and tuple(v[:2] for v in verdicts) == want
            failed += count * (not ok)
        return failed


def _check_json_matches(text: str, known: list[tuple]) -> bool:
    try:
        rows = json.loads(text)
    except json.JSONDecodeError:
        return False
    if len(rows) != len(known):
        return False
    for row, (name, verdict, vacuous, position) in zip(rows, known):
        if (row.get("name"), row.get("verdict"), row.get("vacuous")) != (name, verdict, vacuous):
            return False
        if position is not None and row.get("position") != position:
            return False
    return True


def _tooling_errors(workload: Workload, results) -> int:
    """Errors among one emit/render/report pass, judged from the suite."""
    reqs = workload.suite.requirements
    (emit_code, emit_out), (render_code, render_out), (report_code, report_out) = results
    emit_lines = emit_out.splitlines()
    emit_ok = emit_code == 0 and len(emit_lines) == len(reqs) and all(
        line.startswith(f"{req.name}: ") and ("unsupported (" in line) != emittable(req)
        for line, req in zip(emit_lines, reqs)
    )
    render_lines = [line for line in render_out.splitlines() if not line.startswith("    source: ")]
    render_ok = render_code == 0 and len(render_lines) == len(reqs) and all(
        line.startswith(f"{req.name}: ") for line, req in zip(render_lines, reqs)
    )
    report_lines = report_out.splitlines()[2:]
    report_ok = report_code == 0 and len(report_lines) == len(reqs) and all(
        line.startswith(f"| {req.name} | ") for line, req in zip(report_lines, reqs)
    )
    return (not emit_ok) + (not render_ok) + (not report_ok)


DIRECT = {
    "check": patterns.check,
    "emit_ltl": ltl.emit_ltl,
    "eval_ltlf": ltl.eval_ltlf,
    "record": harness.record,
    "establish": harness.establish,
    "drive_verify_response": harness.drive_verify_response,
    "write_trace": suite_io.write_trace,
    "load_trace": suite_io.load_trace,
}
