"""The package namespace: every public name, served from its defining module."""

import importlib

import reqpat
from test_cli import fresh_python

# The names `from reqpat import *` yields, under the module that defines
# each; each module's own name is one of them.
EXPORTS = {
    "clock": ["Clock", "MIDNIGHT", "MIDNIGHT_ATOM", "builtin_suite", "clock_display"],
    "conditions": [
        "ATOM_RE", "And", "Condition", "ConditionSyntaxError", "Const", "Not", "Or", "Ref", "State", "Trace",
        "condition_atoms", "eval_condition", "format_condition", "is_valid_atom", "parse_condition",
    ],
    "harness": [
        "DriveOutcome", "NotReached", "P_HOLDS", "PreconditionViolation", "Reached", "SutContract",
        "drive_verify_response", "establish", "record",
    ],
    "ltl": [],
    "patterns": [
        "Absence", "After", "AfterUntil", "Before", "Between", "BoundedExistence", "Existence", "Fails",
        "Globally", "Holds", "PATTERNS", "Pattern", "Precedence", "PrecedenceChain", "Requirement", "Response",
        "ResponseChain", "SCOPES", "Scope", "TraceLinks", "Universality", "Verdict", "check", "evaluate_pattern",
        "segments",
    ],
    "picnic": ["PicnicError", "PicnicLine", "render_requirement", "render_suite_report", "traceability_report"],
    "suite": [
        "DuplicateDefinition", "MalformedCondition", "MalformedPattern", "MalformedSuite", "Suite", "SuiteError",
        "TraceFormatError", "UnknownReference", "dump_suite", "load_suite", "load_trace", "write_trace",
    ],
}


def test_star_import_yields_the_pinned_names():
    namespace: dict = {}
    exec("from reqpat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def test_each_name_is_its_defining_module_s_object():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"reqpat.{module_name}")
        assert getattr(reqpat, module_name) is module
        for name in names:
            assert getattr(reqpat, name) is getattr(module, name), name


def test_a_module_loads_on_first_use_and_an_unknown_name_raises():
    code = (
        "import sys, reqpat\n"
        "print(sorted(name for name in sys.modules if name.startswith('reqpat')))\n"
        "print(reqpat.ltl is sys.modules['reqpat.ltl'], reqpat.Clock is sys.modules['reqpat.clock'].Clock)\n"
        "try:\n"
        "    reqpat.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    done = fresh_python("-c", code)
    assert done.stdout.splitlines() == [
        "['reqpat']",
        "True True",
        "module 'reqpat' has no attribute 'no_such_name'",
    ]
    assert done.stderr == ""
