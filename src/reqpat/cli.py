"""Command-line interface.

Commands: check (trace-mode verification), drive (drive-mode verification of
a registered system under test), render (paraphrase report), emit (temporal
logic formulas), report (markdown traceability table), demo (the scripted
clock scenario).

Exit codes: 0 all requirements hold; 1 at least one violation or unreached
goal; 2 usage or load error; 3 every requirement holds but at least one only
vacuously.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from .clock import MIDNIGHT, Clock, builtin_suite
from .conditions import Ref, is_valid_atom
from .harness import PreconditionViolation, Reached, SutContract, drive_verify_response, establish
from .ltl import UnsupportedPattern, emit_ltl, print_formula
from .patterns import Existence, Fails, Globally, Holds, Requirement, Response, check, map_conditions
from .picnic import PicnicError, render_suite_report, traceability_report
from .suite import Suite, SuiteError, load_suite, load_trace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_VACUOUS = 3

SUTS: dict[str, Callable[[], SutContract]] = {"clock": Clock}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SuiteError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_suite_file(path: str) -> Suite:
    return load_suite(_read(path))


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        suite = _load_suite_file(args.suite)
        trace = load_trace(_read(args.trace))
    except (OSError, SuiteError) as exc:
        return _fail(str(exc))

    results = [(req.name, check(req, trace)) for req in suite.requirements]

    if args.json:
        payload = []
        for name, verdict in results:
            if isinstance(verdict, Holds):
                payload.append({"name": name, "verdict": "holds", "vacuous": verdict.vacuous})
            else:
                payload.append(
                    {"name": name, "verdict": "fails", "vacuous": False, "position": verdict.position}
                )
        print(json.dumps(payload, indent=2))
    else:
        for name, verdict in results:
            if isinstance(verdict, Fails):
                print(f"{name}: FAILS at segment {verdict.segment} position {verdict.position}")
            elif verdict.vacuous:
                print(f"{name}: HOLDS (vacuous)")
            else:
                print(f"{name}: HOLDS")

    if any(isinstance(v, Fails) for _, v in results):
        return EXIT_VIOLATION
    if any(isinstance(v, Holds) and v.vacuous for _, v in results):
        return EXIT_VACUOUS
    return EXIT_OK


def _drivable(req: Requirement) -> bool:
    return isinstance(req.scope, Globally) and isinstance(req.pattern, (Existence, Response))


def _cmd_drive(args: argparse.Namespace) -> int:
    try:
        suite = _load_suite_file(args.suite)
    except (OSError, SuiteError) as exc:
        return _fail(str(exc))
    factory = SUTS.get(args.sut)
    if factory is None:
        return _fail(f"unknown SUT {args.sut!r}; registered: {', '.join(sorted(SUTS))}")

    sut = factory()
    sut.reset()
    failures = 0
    for req in suite.requirements:
        if not _drivable(req):
            print(f"{req.name}: skipped (only global existence and response drive)")
            continue
        if isinstance(req.pattern, Existence):
            outcome = establish(sut, req.pattern.p, args.bound)
        else:
            outcome = drive_verify_response(sut, req.pattern.p, req.pattern.s, args.bound)
        print(f"{req.name}: {outcome}")
        if not isinstance(outcome, Reached):
            failures += 1
    return EXIT_VIOLATION if failures else EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    try:
        suite = _load_suite_file(args.suite)
        report = render_suite_report(suite)
    except (OSError, SuiteError, PicnicError) as exc:
        return _fail(str(exc))
    print(report, end="")
    return EXIT_OK


def _cmd_emit(args: argparse.Namespace) -> int:
    try:
        suite = _load_suite_file(args.suite)
    except (OSError, SuiteError) as exc:
        return _fail(str(exc))
    # Print formulas over the suite's condition names (the analyst's
    # vocabulary) rather than over the raw observation atoms.
    names = suite.names_by_condition()

    def display(cond):
        name = names.get(cond)
        return Ref(name) if name is not None and is_valid_atom(name) else cond

    for req in suite.requirements:
        try:
            formula = emit_ltl(map_conditions(req, display))
            print(f"{req.name}: {print_formula(formula)}")
        except UnsupportedPattern as exc:
            print(f"{req.name}: unsupported ({exc})")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        suite = _load_suite_file(args.suite)
        table = traceability_report(suite)
    except (OSError, SuiteError, PicnicError) as exc:
        return _fail(str(exc))
    print(table, end="")
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.sut != "clock":
        return _fail(f"unknown demo {args.sut!r}; available: clock")
    bound = args.bound
    suite = builtin_suite()
    by_name = {req.name: req for req in suite.requirements}
    clock = Clock()

    print(f"demo: clock (fresh instance, display {clock.display()})")
    print("step 1: verify STATEMENT_1_1 on the fresh clock")
    outcome = drive_verify_response(clock, MIDNIGHT, MIDNIGHT, bound)
    print(f"  outcome: {outcome}")
    if isinstance(outcome, PreconditionViolation):
        print("  the response trigger does not hold yet; it must be established first")

    print("step 2: establish STATEMENT_0 (midnight is reachable)")
    statement_0 = by_name["STATEMENT_0"]
    assert isinstance(statement_0.pattern, Existence)
    outcome = establish(clock, statement_0.pattern.p, bound)
    print(f"  outcome: {outcome}")

    print("step 3: verify STATEMENT_1_1 (midnight responds to midnight)")
    statement_1_1 = by_name["STATEMENT_1_1"]
    assert isinstance(statement_1_1.pattern, Response)
    outcome = drive_verify_response(
        clock, statement_1_1.pattern.p, statement_1_1.pattern.s, bound
    )
    print(f"  outcome: {outcome}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reqpat",
        description="Check, drive, paraphrase, and trace pattern-based requirements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a suite against a recorded trace")
    p_check.add_argument("--suite", required=True)
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.set_defaults(func=_cmd_check)

    p_drive = sub.add_parser("drive", help="drive a live SUT through the suite")
    p_drive.add_argument("--suite", required=True)
    p_drive.add_argument("--sut", required=True)
    p_drive.add_argument("--bound", required=True, type=int)
    p_drive.set_defaults(func=_cmd_drive)

    p_render = sub.add_parser("render", help="print the paraphrase report")
    p_render.add_argument("--suite", required=True)
    p_render.set_defaults(func=_cmd_render)

    p_emit = sub.add_parser("emit", help="print temporal-logic formulas")
    p_emit.add_argument("--suite", required=True)
    p_emit.set_defaults(func=_cmd_emit)

    p_report = sub.add_parser("report", help="print the markdown traceability table")
    p_report.add_argument("--suite", required=True)
    p_report.set_defaults(func=_cmd_report)

    p_demo = sub.add_parser("demo", help="run the scripted clock scenario")
    p_demo.add_argument("sut")
    p_demo.add_argument("--bound", type=int, default=2000)
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches EXIT_USAGE; re-raise
        # --help style exits (code 0) untouched.
        if exc.code == 0:
            raise
        return EXIT_USAGE
    if args.command in ("drive", "demo") and args.bound < 0:
        return _fail("--bound must be >= 0")
    return args.func(args)


def main_entry() -> None:
    sys.exit(main())
