"""reqpat benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload trace-bulk --seed 1 --seconds 30 --trace 0

Runs single-process and single-threaded from the root of a source checkout,
importing the package from `src/`. With `--trace 0` it measures the
end-to-end metrics, with `--trace 1` it makes the traced run and reports
the per-layer metrics. Either way every output is checked against answers
known by construction, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
when every output was right, 1 when any was wrong, and 2 when the run
could not start. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from calibration import CALIBRATION_S, calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
# Share of a run's time spent repeating the set-up, so that its median
# is taken over set-ups spread across the run.
SETUP_SHARE = 0.1
# Percentiles considered for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Samples taken between two calibrations are scaled by their mean. Phases
# of the machine's speed can be shorter than a second, so calibrations are
# close together; they take up to about a seventh of a run.
CALIBRATE_EVERY_S = 0.05


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package() -> float:
    """Import reqpat from this checkout's src/ and return the seconds taken.
    Exits with code 2 when the checkout has no package source."""
    if not (SRC / "reqpat" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'reqpat'}; run from a reqpat checkout")
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import reqpat
    import reqpat.cli  # noqa: F401

    elapsed = perf_counter() - started
    if Path(reqpat.__file__).resolve().parent != SRC / "reqpat":
        fail(f"imported reqpat from {reqpat.__file__}, not from {SRC}")
    return elapsed


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and each metric's name, unit and
    direction. Exits with code 2 when the checkout has none."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no {path.name} at {ROOT}")
    return json.loads(path.read_text(encoding="utf-8"))


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the package from src/."""
    code = "import time; t = time.perf_counter(); import reqpat.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(done.stdout)


def setup(name: str, seed: int):
    """Generate the inputs, write them, and warm every operation up on a
    small input. Returns the workload, its operations, and the seconds taken."""
    from ops import Operations, write_inputs
    from workloads import BUILDERS

    started = perf_counter()
    workload = BUILDERS[name](seed)
    files = write_inputs(workload, WORKDIR / f"{name}-{seed}")
    ops = Operations(workload, files)
    ops.prepare()
    ops.check(files.warm_trace)
    ops.tooling()
    ops.drive()
    ops.replay(steps=100)
    return workload, ops, perf_counter() - started


def measure(ops, shares: dict[str, float], seconds: float, setup_again, rates: set[str]):
    """Interleave the operations, always running the one furthest below its
    share of the time, until `seconds` have passed and each has run at
    least three times. `setup_again` returns the seconds of one more
    set-up, import included. Returns each metric's samples scaled to the
    calibration speed (rates, named in `rates`, scale the other way), the
    samples as timed, the outputs and the operations attempted."""
    run = {
        "setup_s": lambda: (setup_again(), 0, None),
        "check_s": ops.check,
        "tooling_s": ops.tooling,
        "crosscheck_traces_per_s": ops.crosscheck,
        "drive_ticks_per_s": ops.drive,
        "replay_s": ops.replay,
    }
    spent = dict.fromkeys(shares, 0.0)
    samples: dict[str, list[float]] = defaultdict(list)
    timed: dict[str, list[float]] = defaultdict(list)
    outputs: dict[str, Counter] = defaultdict(Counter)
    attempted = 0
    pending: list[tuple[str, float]] = []
    before = calibrate()
    calibrated_at = perf_counter()

    def scale_pending() -> None:
        nonlocal before, calibrated_at
        after = calibrate()
        slowdown = (before + after) / 2 / CALIBRATION_S
        for metric, value in pending:
            samples[metric].append(value * slowdown if metric in rates else value / slowdown)
        pending.clear()
        before, calibrated_at = after, perf_counter()

    deadline = perf_counter() + seconds
    while True:
        candidates = list(shares)
        if perf_counter() >= deadline:
            candidates = [m for m in shares if len(timed[m]) < 3]
            if not candidates:
                break
        metric = min(candidates, key=lambda m: spent[m] / shares[m])
        gc.collect()
        started = perf_counter()
        value, count, output = run[metric]()
        spent[metric] += perf_counter() - started
        pending.append((metric, value))
        timed[metric].append(value)
        outputs[metric][output] += 1
        attempted += count
        if perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
            scale_pending()
    if pending:
        scale_pending()
    return samples, timed, outputs, attempted


def summarize(values: list[float], better: str) -> dict:
    """Median, best sample, and the highest percentile with at least ten
    samples beyond it on the worse side, with the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    best = ordered[0] if better == "lower" else ordered[-1]
    out = {"median": statistics.median(ordered), "best": best, "n": n, "tail": None}
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            value = ordered[rank - 1] if better == "lower" else ordered[n - rank]
            out["tail"] = (pct if better == "lower" else round(100 - pct, 1), value)
            break
    return out


def properties(workload, ops) -> dict:
    import oracle
    from reqpat.patterns import Response, ResponseChain

    trace = workload.trace
    answers = oracle.Oracle(trace)
    segments = {}
    backlog = 0
    for req in workload.suite.requirements:
        segments[type(req.scope).__name__] = len(answers.segments(req.scope))
        if isinstance(req.pattern, (Response, ResponseChain)):
            p = answers.truth(req.pattern.p)
            answer = req.pattern.s if isinstance(req.pattern, Response) else req.pattern.chain[0]
            s = answers.truth(answer)
            pending = 0
            for k in range(len(trace)):
                pending = 0 if s[k] else pending + p[k]
                backlog = max(backlog, pending)
    return {
        "workload": workload.name,
        "states": len(trace),
        "distinct_states": len(set(trace)),
        "requirements": len(workload.suite.requirements),
        "segments_per_scope": segments,
        "max_trigger_backlog": backlog,
        "traces_enumerated": sum(len(traces) for _, traces in workload.crosscheck),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    before_setup = calibrate()
    import_s = import_package()
    sys.path.insert(0, str(BENCH))
    from workloads import BUILDERS

    if args.workload not in BUILDERS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(BUILDERS)}")
    workload, ops, elapsed = setup(args.workload, args.seed)
    first_setup = (import_s + elapsed) / ((before_setup + calibrate()) / 2 / CALIBRATION_S)

    # Keep the benchmark's own long-lived data out of every later collection,
    # so the program's collections during timed work do not rescan it and
    # the collection before each operation stays cheap.
    gc.collect()
    gc.freeze()

    if args.trace:
        from tracing import TracedRun, Tracer

        tracer = Tracer()
        traced = TracedRun(ops, tracer)
        traced.run(args.seconds)
        failed = ops.verify(traced.outputs)
        failed += traced.errors
        attempted = traced.attempted
        values = traced.metrics()
        spans_path = WORKDIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(spans_path)
        print(f"# spans: {len(tracer)} written to {spans_path.relative_to(ROOT)}")
        report = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
        for name, (value, unit) in report.items():
            print(f"# {name}: {value:.6g} {unit}")
    else:
        shares = {**workload.shares, "setup_s": SETUP_SHARE}
        rates = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
        samples, timed, outputs, attempted = measure(
            ops, shares, args.seconds, lambda: import_seconds() + setup(args.workload, args.seed)[2], rates
        )
        rss = peak_rss_mb()
        failed = ops.verify(outputs)
        samples["setup_s"].append(first_setup)
        timed["setup_s"].append(import_s + elapsed)
        samples["peak_rss_mb"] = timed["peak_rss_mb"] = [rss]
        report = {}
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            stats = summarize(samples[name], metric["better"])
            report[name] = (stats["median"], unit)
            tail = f"p{stats['tail'][0]:g}={stats['tail'][1]:.6g}" if stats["tail"] else "no tail percentile"
            raw = statistics.median(timed[name])
            print(f"# {name}: median {stats['median']:.6g} {unit}, {tail}, best {stats['best']:.6g}, n={stats['n']}"
                  f" (as timed: median {raw:.6g})")

    print(f"# error_rate: {failed / attempted:.6g} ({failed} of {attempted} operations)")

    print("# properties: " + json.dumps(properties(workload, ops), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
