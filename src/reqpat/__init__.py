"""reqpat: requirement patterns with executable finite-trace semantics.

The package encodes the recurring occurrence/order requirement patterns and
their five scopes as parameterized, immutable values; checks them over finite
propositional traces with vacuity reporting; verifies them in drive mode
against live systems under test; renders canonical paraphrases and
traceability reports; and emits temporal-logic formulas that an independent
evaluator (the `ltl` module) cross-checks against the direct semantics.
"""

from . import ltl
from .clock import MIDNIGHT, MIDNIGHT_ATOM, Clock, builtin_suite, clock_display
from .conditions import (
    ATOM_RE,
    And,
    Condition,
    ConditionSyntaxError,
    Const,
    Not,
    Or,
    Ref,
    State,
    Trace,
    condition_atoms,
    eval_condition,
    format_condition,
    is_valid_atom,
    parse_condition,
)
from .harness import (
    DriveOutcome,
    NotReached,
    P_HOLDS,
    PreconditionViolation,
    Reached,
    SutContract,
    drive_verify_response,
    establish,
    record,
)
from .patterns import (
    PATTERNS,
    SCOPES,
    Absence,
    After,
    AfterUntil,
    Before,
    Between,
    BoundedExistence,
    Existence,
    Fails,
    Globally,
    Holds,
    Pattern,
    Precedence,
    PrecedenceChain,
    Requirement,
    Response,
    ResponseChain,
    Scope,
    TraceLinks,
    Universality,
    Verdict,
    check,
    evaluate_pattern,
    segments,
)
from .picnic import PicnicError, PicnicLine, render_requirement, render_suite_report, traceability_report
from .suite import (
    DuplicateDefinition,
    MalformedCondition,
    MalformedPattern,
    MalformedSuite,
    Suite,
    SuiteError,
    TraceFormatError,
    UnknownReference,
    dump_suite,
    load_suite,
    load_trace,
    write_trace,
)

__version__ = "0.1.0"
