"""The traced run: spans around every call into a layer, per-layer self time,
and the per-layer metrics.

Spans are recorded from the benchmark's side of each layer boundary: the
operations call the package through wrappers, and `reqpat.cli`'s imported
names are swapped for wrappers while a traced CLI call runs. Spans stay in
memory as (name, start, end, parent index, iteration) and are written out
when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
from array import array
import statistics
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from time import perf_counter
from unittest import mock

from reqpat import cli, conditions, ltl, patterns
from reqpat import suite as suite_io

from ops import DIRECT, Operations, verdict_key
from workloads import emittable

# Layer entry points the operations call, with their span names.
SPAN_NAMES = {
    "check": "patterns.check",
    "emit_ltl": "ltl.emit_ltl",
    "eval_ltlf": "ltl.eval_ltlf",
    "record": "harness.record",
    "establish": "harness.establish",
    "drive_verify_response": "harness.drive_verify_response",
    "write_trace": "suite.write_trace",
    "load_trace": "suite.load_trace",
}

# Names `reqpat.cli` imported from other layers, with their span names.
CLI_CALLS = {
    "load_suite": "suite.load_suite",
    "load_trace": "suite.load_trace",
    "check": "patterns.check",
    "emit_ltl": "ltl.emit_ltl",
    "print_formula": "ltl.print_formula",
    "map_conditions": "patterns.map_conditions",
    "render_suite_report": "picnic.render_suite_report",
    "traceability_report": "picnic.traceability_report",
    "establish": "harness.establish",
    "drive_verify_response": "harness.drive_verify_response",
}


class Tracer:
    """Spans in parallel arrays, so a long traced run stays small: name
    index, start, end, parent index (-1 for a root) and iteration."""

    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.iter = array("i")
        self.stack: list[int] = []
        self.iteration = 0

    def __len__(self) -> int:
        return len(self.start)

    @contextmanager
    def span(self, name: str):
        index = len(self.start)
        self.name.append(self.names.setdefault(name, len(self.names)))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.iter.append(self.iteration)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[index] = perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def cli_traced(self):
        with ExitStack() as stack:
            for attr, name in CLI_CALLS.items():
                stack.enter_context(mock.patch.object(cli, attr, self.wrap(name, getattr(cli, attr))))
            yield

    def self_times(self) -> dict[tuple[int, str, str], float]:
        """Self time summed per (iteration, step, span name), where the step
        is the name of the span's root."""
        names = list(self.names)
        n = len(self)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        root = [0] * n
        out: dict[tuple[int, str, str], float] = defaultdict(float)
        for i in range(n):
            root[i] = i if self.parent[i] < 0 else root[self.parent[i]]
            key = (self.iter[i], names[self.name[root[i]]], names[self.name[i]])
            out[key] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path: Path) -> None:
        names = list(self.names)
        with path.open("w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "iteration"], "spans": [\n')
            for i in range(len(self)):
                parent = self.parent[i] if self.parent[i] >= 0 else None
                span = [names[self.name[i]], self.start[i], self.end[i], parent, self.iter[i]]
                fh.write(("" if i == 0 else ",\n") + json.dumps(span))
            fh.write("\n]}\n")


def formula_nodes(formula) -> int:
    return 1 + sum(
        formula_nodes(value)
        for value in (getattr(formula, f.name) for f in dataclasses.fields(formula))
        if isinstance(value, ltl.Formula)
    )


class TracedRun:
    """Repeats one traced iteration of every operation until time is up."""

    def __init__(self, ops: Operations, tracer: Tracer):
        self.ops = ops
        self.tracer = tracer
        calls = {key: tracer.wrap(SPAN_NAMES[key], fn) for key, fn in DIRECT.items()}
        self.traced_ops = Operations(ops.w, ops.files, calls)
        self.per_iteration: list[dict[str, float]] = []
        self.errors = 0
        self.attempted = 0
        self.outputs: dict = defaultdict(lambda: defaultdict(int))

    def _collect(self, metric: str, result) -> None:
        _, attempted, output = result
        self.attempted += attempted
        self.outputs[metric][output] += 1

    def run(self, seconds: float) -> None:
        """At least one iteration, then more until `seconds` have passed."""
        started = perf_counter()
        while not self.per_iteration or perf_counter() - started < seconds:
            self.tracer.iteration = len(self.per_iteration)
            self.per_iteration.append(self.iteration())

    def iteration(self) -> dict[str, float]:
        t = self.tracer
        ops, traced = self.ops, self.traced_ops
        values: dict[str, float] = {}

        untraced_check = ops.check()
        self._collect("check_s", untraced_check)
        with t.span("step.cli_check"), t.cli_traced():
            with t.span("cli.main"):
                traced_check = ops.check()
        self._collect("check_s", traced_check)
        values["bench.traced_check_s"] = traced_check[0]
        values["bench.tracing_overhead_ratio"] = traced_check[0] / untraced_check[0]

        with t.span("step.pipeline"):
            decomposed, trace = self._pipeline()
        self.attempted += 1
        if decomposed != [(name, v, vac, p) for name, v, vac, p in _rows(traced_check[2][1])]:
            self.errors += 1
        values["patterns.segment_count"] = self.segment_count
        values["suite.distinct_state_ratio"] = len({id(s) for s in trace.states}) / len(trace)

        if not self.per_iteration:
            self.calls_per_state = self._count_eval_calls(trace)
        values["conditions.eval_calls_per_state"] = self.calls_per_state

        with t.span("step.conditions"), t.span("conditions.eval"):
            for cond in ops.w.suite.conditions.values():
                for state in trace.states:
                    conditions.eval_condition(cond, state)

        with t.span("step.crosscheck"):
            self._collect("crosscheck_traces_per_s", traced.crosscheck())
        with t.span("step.tooling"), t.cli_traced():
            self._collect("tooling_s", ops.tooling())
        with t.span("step.drive"), t.cli_traced():
            drive = traced.drive()
        self._collect("drive_ticks_per_s", drive)
        values["harness.ticks"] = float(drive[2][1])
        with t.span("step.replay"):
            self._collect("replay_s", traced.replay())

        nodes = sum(formula_nodes(ltl.emit_ltl(req)) for req in ops.w.suite.requirements if emittable(req))
        values["ltl.formula_nodes"] = float(nodes)
        self.lines = len(trace)
        return values

    def _pipeline(self):
        """check, decomposed: read, load_suite, load_trace, then segments and
        evaluate_pattern per requirement, folded into verdicts as check does."""
        t = self.tracer
        files = self.ops.files
        with t.span("bench.read"):
            suite_text = files.suite.read_text(encoding="utf-8")
            trace_text = files.trace.read_text(encoding="utf-8")
        with t.span("suite.load_suite"):
            suite = suite_io.load_suite(suite_text)
        with t.span("suite.load_trace"):
            trace = suite_io.load_trace(trace_text)
        rows = []
        self.segment_count = 0
        for req in suite.requirements:
            with t.span("patterns.segments"):
                segs = patterns.segments(req.scope, trace)
            self.segment_count += len(segs)
            with t.span("patterns.evaluate_pattern"):
                verdict = patterns.Holds(vacuous=True)
                for index, seg in enumerate(segs):
                    v = patterns.evaluate_pattern(req.pattern, trace, seg)
                    if isinstance(v, patterns.Fails):
                        verdict = dataclasses.replace(v, segment=index)
                        break
                    verdict = patterns.Holds(vacuous=verdict.vacuous and v.vacuous)
            rows.append((req.name,) + verdict_key(verdict))
        return rows, trace

    def _count_eval_calls(self, trace) -> float:
        """Calls from `patterns` into `eval_condition` while every requirement
        is checked, per trace state. Counted in a pass of its own, because
        the counting wrapper would slow the timed pipeline."""
        calls = 0
        inner = patterns.eval_condition

        def counting(expr, state):
            nonlocal calls
            calls += 1
            return inner(expr, state)

        with mock.patch.object(patterns, "eval_condition", counting):
            for req in self.ops.w.suite.requirements:
                patterns.check(req, trace)
        return calls / len(trace)

    def metrics(self) -> dict[str, float]:
        """Median over iterations of each per-layer metric."""
        selfs = self.tracer.self_times()
        series: dict[str, list[float]] = defaultdict(list)
        sources = {
            "suite.load_trace_s": [("step.pipeline", "suite.load_trace")],
            "suite.write_trace_s": [("step.replay", "suite.write_trace")],
            "suite.load_suite_s": [("step.pipeline", "suite.load_suite")],
            "conditions.eval_s": [("step.conditions", "conditions.eval")],
            "patterns.segments_s": [("step.pipeline", "patterns.segments")],
            "patterns.evaluate_s": [("step.pipeline", "patterns.evaluate_pattern")],
            "ltl.emit_s": [("step.tooling", "ltl.emit_ltl"), ("step.tooling", "ltl.print_formula")],
            "ltl.eval_ltlf_s": [("step.crosscheck", "ltl.eval_ltlf")],
            "harness.record_s": [("step.drive", "harness.record")],
            "harness.establish_s": [("step.drive", "harness.establish")],
            "harness.drive_verify_s": [("step.drive", "harness.drive_verify_response")],
            "picnic.render_s": [("step.tooling", "picnic.render_suite_report")],
            "picnic.report_s": [("step.tooling", "picnic.traceability_report")],
            "cli.self_s": [("step.cli_check", "cli.main")],
        }
        for iteration, values in enumerate(self.per_iteration):
            for metric, keys in sources.items():
                values[metric] = sum(selfs.get((iteration, step, name), 0.0) for step, name in keys)
            values["suite.load_trace_lines_per_s"] = self.lines / values["suite.load_trace_s"]
            for metric, value in values.items():
                series[metric].append(value)
        return {metric: statistics.median(vals) for metric, vals in series.items()}


def _rows(check_json: str) -> list[tuple]:
    return [
        (row["name"], row["verdict"], row["vacuous"], row.get("position"))
        for row in json.loads(check_json)
    ]
