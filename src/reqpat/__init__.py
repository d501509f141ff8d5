"""reqpat: requirement patterns with executable finite-trace semantics.

The package encodes the recurring occurrence/order requirement patterns and
their five scopes as parameterized, immutable values; checks them over finite
propositional traces with vacuity reporting; verifies them in drive mode
against live systems under test; renders canonical paraphrases and
traceability reports; and emits temporal-logic formulas that an independent
evaluator (the `ltl` module) cross-checks against the direct semantics.
"""

import importlib

__version__ = "0.1.0"

# Each public name under the module that defines it. A name is imported on
# first use (PEP 562), so importing one module of the package does not
# import the rest.
_EXPORTS = {
    "clock": ("MIDNIGHT", "MIDNIGHT_ATOM", "Clock", "builtin_suite", "clock_display"),
    "conditions": (
        "ATOM_RE", "And", "Condition", "ConditionSyntaxError", "Const", "Not", "Or", "Ref", "State", "Trace",
        "condition_atoms", "eval_condition", "format_condition", "is_valid_atom", "parse_condition",
    ),
    "harness": (
        "DriveOutcome", "NotReached", "P_HOLDS", "PreconditionViolation", "Reached", "SutContract",
        "drive_verify_response", "establish", "record",
    ),
    "ltl": (),
    "patterns": (
        "PATTERNS", "SCOPES", "Absence", "After", "AfterUntil", "Before", "Between", "BoundedExistence",
        "Existence", "Fails", "Globally", "Holds", "Pattern", "Precedence", "PrecedenceChain", "Requirement",
        "Response", "ResponseChain", "Scope", "TraceLinks", "Universality", "Verdict", "check",
        "evaluate_pattern", "segments",
    ),
    "picnic": ("PicnicError", "PicnicLine", "render_requirement", "render_suite_report", "traceability_report"),
    "suite": (
        "DuplicateDefinition", "MalformedCondition", "MalformedPattern", "MalformedSuite", "Suite", "SuiteError",
        "TraceFormatError", "UnknownReference", "dump_suite", "load_suite", "load_trace", "write_trace",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
