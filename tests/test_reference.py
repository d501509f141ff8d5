"""The oracle in `reference.py` stands alone: it decides every rule with the
library's evaluators patched to raise, and it imports only the standard
library and reqpat's value classes."""

import ast
import importlib
import random
import sys
from pathlib import Path

import reference
from helpers import all_traces, random_formula, random_trace
from reqpat import conditions, ltl, patterns, suite
from reqpat.conditions import Ref
from reqpat.patterns import (
    Absence, After, AfterUntil, Before, Between, BoundedExistence, Existence, Globally, Precedence, PrecedenceChain,
    Requirement, Response, ResponseChain, Universality,
)

P, S, B = Ref("p"), Ref("s"), Ref("b")
# All eight patterns and strict response, each under all five scopes.
CELL_PATTERNS = [
    Absence(P), Universality(P), Existence(P), BoundedExistence(P, 1), Precedence(S, P), Response(P, S),
    Response(P, S, strict=True), ResponseChain(P, [S, P]), PrecedenceChain([S, P], P),
]
CELL_SCOPES = [Globally(), Before(S), After(B), Between(B, S), AfterUntil(S, B)]


def _refuse(*args, **kwargs):
    raise AssertionError("the reference called the library's evaluation")


def test_the_reference_calls_none_of_the_library_s_evaluation(monkeypatch):
    """Every reference helper runs on every trace up to length 3 over p, s
    and b, and on random formulas, while each way the library reads a
    condition, decides a scope or pattern, evaluates a formula or reads and
    writes a trace raises."""
    refused = [(cls, "holds") for cls in (conditions.Const, Ref, conditions.Not, conditions.And, conditions.Or)]
    refused += [(variant, "evaluate") for variant in patterns.PATTERNS.values()]
    refused += [(variant, "segments") for variant in patterns.SCOPES.values()]
    refused += [(conditions.State, "__contains__"), (conditions, "eval_condition"), (patterns, "eval_condition"),
                (patterns, "check"), (patterns, "segments"), (patterns, "evaluate_pattern"), (ltl, "eval_ltlf"),
                (suite, "load_trace"), (suite, "write_trace")]
    for target, name in refused:
        monkeypatch.setattr(target, name, _refuse)
    for trace in all_traces(("p", "s", "b"), 3, min_len=0):
        reference.reference_write_trace(trace)
        for pattern in CELL_PATTERNS:
            for scope in CELL_SCOPES:
                reference.reference_check(Requirement("r", pattern, scope), trace)
                for segment in reference.reference_segments(scope, trace):
                    reference.reference_verdict(pattern, trace, segment)
                    match pattern:
                        case ResponseChain(p, chain):
                            reference.brute_response_chain_holds(trace, p, chain, segment)
                        case PrecedenceChain(chain, p):
                            reference.brute_precedence_chain_holds(trace, chain, p, segment)
    rng = random.Random(20261020)
    for _ in range(300):
        reference.reference_eval_ltlf(random_formula(rng), random_trace(rng, min_len=1))


def test_the_reference_imports_only_the_standard_library_and_value_classes():
    """No pytest, hypothesis or test helpers, and from reqpat only classes,
    so no function of the library can be called by a name imported here."""
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        if isinstance(node, ast.Import):
            assert all(alias.name.partition(".")[0] in sys.stdlib_module_names for alias in node.names)
        elif node.module.partition(".")[0] != "reqpat":
            assert node.module.partition(".")[0] in sys.stdlib_module_names, node.module
        else:
            module = importlib.import_module(node.module)
            assert all(isinstance(getattr(module, alias.name), type) for alias in node.names), node.module
