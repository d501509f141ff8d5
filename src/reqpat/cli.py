"""Command-line interface.

Commands: check (trace-mode verification), drive (drive-mode verification of
a registered system under test), render (paraphrase report), emit (temporal
logic formulas), report (markdown traceability table), demo (the scripted
clock scenario).

Exit codes: 0 all requirements hold; 1 at least one violation or unreached
goal; 2 usage or load error; 3 every requirement holds but at least one only
vacuously; 4 internal error, an exception no command expected.

`main(argv)` may be called repeatedly in one process: the argument parser is
built on the first call and reused, and each call starts from fresh
arguments. Each command imports only the modules it runs: `check` loads
`conditions`, `patterns` and `suite`, while `ltl`, `harness`, `clock` and
`picnic` load when a command that uses them first runs. The names this
module calls in those modules are attributes from import on, as stand-ins
that import their module on first call.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .conditions import Ref, is_valid_atom
from .patterns import Existence, Fails, Globally, Requirement, Response, Verdict, check, map_conditions
from .suite import SuiteError, load_suite, load_trace

if TYPE_CHECKING:
    from .harness import DriveOutcome, SutContract
    from .suite import Suite


def _deferred(module: str, name: str) -> Callable:
    """A stand-in for `module.name` that imports `module` on its first call."""
    resolve = functools.cache(lambda: getattr(importlib.import_module(f".{module}", __package__), name))

    def forward(*args, **kwargs):
        return resolve()(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


emit_ltl = _deferred("ltl", "emit_ltl")
print_formula = _deferred("ltl", "print_formula")
render_suite_report = _deferred("picnic", "render_suite_report")
traceability_report = _deferred("picnic", "traceability_report")
establish = _deferred("harness", "establish")
drive_verify_response = _deferred("harness", "drive_verify_response")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_VACUOUS = 3
EXIT_INTERNAL = 4

SUTS: dict[str, Callable[[], SutContract]] = {"clock": _deferred("clock", "Clock")}


def _one_line(text: str) -> str:
    return " ".join(text.splitlines())


def _fail(message: str) -> int:
    print(f"error: {_one_line(message)}", file=sys.stderr)
    return EXIT_USAGE


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SuiteError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise SuiteError(str(exc)) from None
    except ValueError as exc:  # a name with a NUL or a lone surrogate, which no file has
        raise SuiteError(f"{path!r}: not a file name ({exc})") from None


def _verdict_row(name: str, verdict: Verdict) -> dict:
    """One requirement's verdict, the facts both the text and --json print."""
    if isinstance(verdict, Fails):
        return {"name": name, "verdict": "fails", "vacuous": False,
                "segment": verdict.segment, "position": verdict.position}
    return {"name": name, "verdict": "holds", "vacuous": verdict.vacuous}


def _cmd_check(args: argparse.Namespace) -> int:
    suite = load_suite(_read(args.suite))
    trace = load_trace(_read(args.trace))
    rows = [_verdict_row(req.name, check(req, trace)) for req in suite.requirements]

    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            if row["verdict"] == "fails":
                print(f"{row['name']}: FAILS at segment {row['segment']} position {row['position']}")
            else:
                print(f"{row['name']}: HOLDS" + (" (vacuous)" if row["vacuous"] else ""))

    if any(row["verdict"] == "fails" for row in rows):
        return EXIT_VIOLATION
    if any(row["vacuous"] for row in rows):
        return EXIT_VACUOUS
    return EXIT_OK


def _drivable(req: Requirement) -> bool:
    return isinstance(req.scope, Globally) and isinstance(req.pattern, (Existence, Response))


def _drive(sut: SutContract, req: Requirement, bound: int) -> DriveOutcome:
    """Establish a drivable existence requirement, or verify a response one."""
    if isinstance(req.pattern, Existence):
        return establish(sut, req.pattern.p, bound)
    return drive_verify_response(sut, req.pattern.p, req.pattern.s, bound)


def _cmd_drive(args: argparse.Namespace) -> int:
    from .harness import Reached

    suite = load_suite(_read(args.suite))
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
        outcome = _drive(sut, req, args.bound)
        print(f"{req.name}: {outcome}")
        if not isinstance(outcome, Reached):
            failures += 1
    return EXIT_VIOLATION if failures else EXIT_OK


def _print_report(report: Callable[[Suite], str], args: argparse.Namespace) -> int:
    from .picnic import PicnicError

    suite = load_suite(_read(args.suite))
    try:
        text = report(suite)
    except PicnicError as exc:
        return _fail(str(exc))
    print(text, end="")
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    return _print_report(render_suite_report, args)


def _cmd_emit(args: argparse.Namespace) -> int:
    from .ltl import UnsupportedPattern

    suite = load_suite(_read(args.suite))
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
    return _print_report(traceability_report, args)


# The scripted clock scenario: (step label, requirement of the built-in suite).
DEMO_STEPS = (
    ("verify STATEMENT_1_1 on the fresh clock", "STATEMENT_1_1"),
    ("establish STATEMENT_0 (midnight is reachable)", "STATEMENT_0"),
    ("verify STATEMENT_1_1 (midnight responds to midnight)", "STATEMENT_1_1"),
)


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.sut != "clock":
        return _fail(f"unknown demo {args.sut!r}; available: clock")
    from .clock import Clock, builtin_suite
    from .harness import PreconditionViolation

    by_name = {req.name: req for req in builtin_suite().requirements}
    clock = Clock()

    print(f"demo: clock (fresh instance, display {clock.display()})")
    for step, (label, name) in enumerate(DEMO_STEPS, start=1):
        print(f"step {step}: {label}")
        outcome = _drive(clock, by_name[name], args.bound)
        print(f"  outcome: {outcome}")
        if isinstance(outcome, PreconditionViolation):
            print("  the response trigger does not hold yet; it must be established first")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches EXIT_USAGE; re-raise
        # --help style exits (code 0) untouched.
        if exc.code == 0:
            raise
        return EXIT_USAGE
    if args.command in ("drive", "demo") and args.bound < 0:
        return _fail("--bound must be >= 0")
    try:
        return args.func(args)
    except SuiteError as exc:
        return _fail(str(exc))
    except Exception as exc:
        # A defect, not a verdict: exit 1 stays reserved for violations.
        print(f"internal error: {type(exc).__name__}: {_one_line(str(exc))}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
