"""Emission of pattern formulas, pinned by structural examples and by a
small-scale version of the exhaustive equivalence check (the acceptance suite
runs the full one)."""

import pytest

from reqpat.conditions import And as CondAnd
from reqpat.conditions import Not as CondNot
from reqpat.conditions import ConditionSyntaxError, MAX_NESTING, Ref, parse_condition
from reqpat.ltl import UnsupportedPattern, emit_ltl, eval_ltlf, parse, print_formula
from reqpat.patterns import (
    Absence,
    After,
    AfterUntil,
    Before,
    Between,
    BoundedExistence,
    Existence,
    Globally,
    Holds,
    Precedence,
    PrecedenceChain,
    Requirement,
    Response,
    ResponseChain,
    Universality,
    check,
)

from helpers import all_traces

P, Q, R, S = Ref("p"), Ref("q"), Ref("r"), Ref("s")


def req(pattern, scope) -> Requirement:
    return Requirement("req", pattern, scope)


def test_global_emissions_are_the_catalog_forms():
    assert emit_ltl(req(Absence(P), Globally())) == parse("[]!p")
    assert emit_ltl(req(Universality(P), Globally())) == parse("[]p")
    assert emit_ltl(req(Existence(P), Globally())) == parse("<>p")
    assert emit_ltl(req(Precedence(S, P), Globally())) == parse("!p W s")
    assert emit_ltl(req(Response(P, S), Globally())) == parse("[](p -> <>s)")
    assert emit_ltl(req(Response(P, S, strict=True), Globally())) == parse("[](p -> X <>s)")


def test_bounded_existence_recursion():
    assert emit_ltl(req(BoundedExistence(P, 0), Globally())) == parse("[]!p")
    assert emit_ltl(req(BoundedExistence(P, 1), Globally())) == parse("!p W (p W []!p)")
    assert emit_ltl(req(BoundedExistence(P, 2), Globally())) == parse("!p W (p W (!p W (p W []!p)))")


def test_absence_before_is_the_catalog_form():
    assert emit_ltl(req(Absence(P), Before(R))) == parse("<>r -> (!p U r)")


def test_compound_conditions_embed_structurally():
    pattern = Absence(CondAnd(P, CondNot(Q)))
    assert emit_ltl(req(pattern, Globally())) == parse("[]!(p && !q)")


def test_chains_and_scoped_strict_response_are_unsupported():
    with pytest.raises(UnsupportedPattern):
        emit_ltl(req(ResponseChain(P, [S]), Globally()))
    with pytest.raises(UnsupportedPattern):
        emit_ltl(req(PrecedenceChain([S], P), Globally()))
    with pytest.raises(UnsupportedPattern):
        emit_ltl(req(Response(P, S, strict=True), Before(R)))


def test_emitted_formulas_parse_and_print_round_trip():
    patterns = [
        Absence(P),
        Universality(P),
        Existence(P),
        BoundedExistence(P, 2),
        Precedence(S, P),
        Response(P, S),
    ]
    scopes = [Globally(), Before(R), After(Q), Between(Q, R), AfterUntil(Q, R)]
    for pattern in patterns:
        for scope in scopes:
            formula = emit_ltl(req(pattern, scope))
            assert parse(print_formula(formula)) == formula


def _deepest_condition(shape) -> object:
    """The condition of the given shape at the nesting bound of the condition
    parser, which every condition of a loaded suite passes through."""
    n = 1
    while True:
        try:
            parse_condition(shape(n + 1))
        except ConditionSyntaxError:
            return parse_condition(shape(n))
        n += 1


DEEPEST_SHAPES = {
    "and_chain": lambda n: " && ".join(["a"] * n),
    "or_chain": lambda n: " || ".join(["a"] * n),
    "negations": lambda n: "!" * n + "a",
    "alternating_parentheses": lambda n: "".join(("a && (", "b || (")[i % 2] for i in range(n)) + "c" + ")" * n,
}


@pytest.mark.parametrize("shape", DEEPEST_SHAPES)
def test_emitted_formulas_of_the_deepest_conditions_round_trip(shape):
    c = _deepest_condition(DEEPEST_SHAPES[shape])
    patterns = [Absence(c), Universality(c), Existence(c), BoundedExistence(c, 2), Precedence(c, c), Response(c, c)]
    scopes = [Globally(), Before(c), After(c), Between(c, c), AfterUntil(c, c)]
    for pattern in patterns:
        for scope in scopes:
            formula = emit_ltl(req(pattern, scope))
            assert parse(print_formula(formula)) == formula


def test_bounded_existence_formula_of_bound_max_nesting_round_trips():
    text = print_formula(emit_ltl(req(BoundedExistence(P, MAX_NESTING), Globally())))
    assert print_formula(parse(text)) == text


CELLS = [
    (Absence(P), ("p",)),
    (Existence(P), ("p",)),
    (BoundedExistence(P, 1), ("p",)),
    (Precedence(S, P), ("p", "s")),
    (Response(P, S), ("p", "s")),
]

SCOPES = [
    (Globally(), ()),
    (Before(R), ("r",)),
    (After(Q), ("q",)),
    (Between(Q, R), ("q", "r")),
    (AfterUntil(Q, R), ("q", "r")),
]


@pytest.mark.parametrize("pattern,pattern_atoms", CELLS)
@pytest.mark.parametrize("scope,scope_atoms", SCOPES)
def test_emission_matches_direct_semantics_small(pattern, pattern_atoms, scope, scope_atoms):
    """Exhaustive equivalence at trace lengths 1-3; the acceptance suite
    extends this to length 5 and to the full pattern set."""
    requirement = req(pattern, scope)
    formula = emit_ltl(requirement)
    atoms = tuple(dict.fromkeys(pattern_atoms + scope_atoms))
    for trace in all_traces(atoms, max_len=3):
        direct = isinstance(check(requirement, trace), Holds)
        assert eval_ltlf(formula, trace, 0) == direct, f"trace={[sorted(s.atoms) for s in trace]}"
