"""Emission of pattern formulas, pinned by structural examples and by a
small-scale version of the exhaustive equivalence check (the acceptance suite
runs the full one)."""

import dataclasses
import functools
import itertools
import json
import random
import re

import pytest

from reqpat.conditions import And as CondAnd
from reqpat.conditions import Not as CondNot
from reqpat.conditions import ConditionSyntaxError, MAX_NESTING, Ref, State, Trace, parse_condition
from reqpat.conditions import Condition, condition_atoms
from reqpat import patterns
from reqpat.ltl import _TEMPLATES, Prop, UnsupportedPattern, emit_ltl, eval_ltlf, parse, print_formula
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
    TAGS,
    Universality,
    check,
    map_conditions,
)
from reqpat.suite import load_suite

from helpers import DEFAULT_ATOMS, all_traces, random_trace
from reference import reference_eval_ltlf
from test_acceptance import ALL_SCOPES, CORE_PATTERNS

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


def _largest_emittable_k(scope) -> int:
    def emits(k: int) -> bool:
        try:
            emit_ltl(req(BoundedExistence(P, k), scope))
        except UnsupportedPattern:
            return False
        return True

    lo, hi = 0, 10 * MAX_NESTING
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if emits(mid) else (lo, mid)
    return lo


BOUNDED_SCOPES = [Globally(), Before(R), After(Q), Between(Q, R), AfterUntil(Q, R)]


@pytest.mark.parametrize("scope", BOUNDED_SCOPES, ids=lambda scope: type(scope).__name__)
def test_bounded_existence_emits_up_to_the_largest_k_that_round_trips(scope):
    k = _largest_emittable_k(scope)
    windowed = isinstance(scope, (Before, Between, AfterUntil))
    assert k == ((MAX_NESTING - 4) // 2 if windowed else MAX_NESTING)
    text = print_formula(emit_ltl(req(BoundedExistence(P, k), scope)))
    assert print_formula(parse(text)) == text
    if windowed:
        # k + 1 nests the text two parentheses deeper than k.
        depth = MAX_NESTING + (1 if isinstance(scope, Before) else 2)
        refusal = f"the bounded_existence formula under {TAGS[type(scope)]} nests parentheses {depth} deep,"
        refusal += f" more than the {MAX_NESTING} that parse back"
    else:
        refusal = f"bounded existence is only emitted for k <= {k}"
    with pytest.raises(UnsupportedPattern, match=f"^{re.escape(refusal)}$"):
        emit_ltl(req(BoundedExistence(P, k + 1), scope))


@pytest.mark.parametrize("scope", BOUNDED_SCOPES, ids=lambda scope: type(scope).__name__)
def test_bounded_existence_at_the_largest_k_agrees_with_check(scope):
    requirement = req(BoundedExistence(P, _largest_emittable_k(scope)), scope)
    formula = emit_ltl(requirement)
    rng = random.Random(20261018)
    for _ in range(200):
        trace = random_trace(rng, min_len=1, max_len=60)
        assert eval_ltlf(formula, trace, 0) == isinstance(check(requirement, trace), Holds)


def _nesting(text: str) -> int:
    return max(itertools.accumulate(1 if paren == "(" else -1 for paren in re.findall(r"[()]", text)), default=0)


@functools.cache
def _near_bound_condition(name: str):
    return parse_condition("a || b") if name == "a_or_b" else _deepest_condition(DEEPEST_SHAPES[name])


@pytest.mark.parametrize("condition", ["a_or_b", *DEEPEST_SHAPES])
@pytest.mark.parametrize("scope_cls", [Globally, Before, After, Between, AfterUntil], ids=lambda cls: cls.__name__)
def test_bounded_existence_near_the_bound_is_refused_or_parses_back(condition, scope_cls):
    """Compound conditions nest the windowed formulas deeper than atoms do,
    so the bound on k alone does not keep their text parseable."""
    c = _near_bound_condition(condition)
    scope = scope_cls(*[c] * len(dataclasses.fields(scope_cls)))
    for k in (97, 98, 99):
        try:
            formula = emit_ltl(req(BoundedExistence(c, k), scope))
        except UnsupportedPattern:
            continue
        text = print_formula(formula)
        if condition == "a_or_b":
            # Compared as text: == on a tree this deep exhausts the stack.
            assert print_formula(parse(text)) == text
        else:
            # Texts of up to 2 MB, too slow to parse here; the parser rejects
            # exactly the nesting checked (the k = 2 round trip above parses
            # these conditions in full).
            assert _nesting(text) <= MAX_NESTING


TAGGED_PATTERNS = [*patterns.PATTERNS, "strict_response"]


def test_every_catalogue_cell_has_a_template_or_is_documented_unsupported():
    unsupported = {
        (pattern, scope)
        for pattern, scope in itertools.product(TAGGED_PATTERNS, patterns.SCOPES)
        if pattern in ("response_chain", "precedence_chain") or (pattern == "strict_response" and scope != "globally")
    }
    for cell in itertools.product(TAGGED_PATTERNS, patterns.SCOPES):
        assert (cell in _TEMPLATES) != (cell in unsupported), cell
    assert set(_TEMPLATES) <= set(itertools.product(TAGGED_PATTERNS, patterns.SCOPES))


def test_unsupported_cells_name_both_tags():
    with pytest.raises(UnsupportedPattern, match="^no emitted formula for strict_response under between$"):
        emit_ltl(req(Response(P, S, strict=True), Between(Q, R)))
    with pytest.raises(UnsupportedPattern, match="^no emitted formula for precedence_chain under globally$"):
        emit_ltl(req(PrecedenceChain([S], P), Globally()))


def _renamed(formula, names: dict[str, str]):
    if isinstance(formula, Prop):
        return Prop(names[formula.name])
    return type(formula)(*[_renamed(getattr(formula, f.name), names) for f in dataclasses.fields(formula)])


@pytest.mark.parametrize("pattern,pattern_atoms", CORE_PATTERNS)
@pytest.mark.parametrize("scope,scope_atoms", ALL_SCOPES)
def test_atoms_named_like_placeholders_are_not_captured(pattern, pattern_atoms, scope, scope_atoms):
    """Each role's condition is over the atoms named after two other roles.
    Emitting that equals emitting over fresh atoms and renaming them."""
    successor = {"p": "q", "q": "r", "r": "s", "s": "p"}
    fresh = {"p": "a", "q": "b", "r": "c", "s": "d"}

    def emitted(names: dict[str, str]):
        def role(cond):
            first = successor[cond.name]
            return CondAnd(Ref(names[first]), CondNot(Ref(names[successor[first]])))

        return emit_ltl(map_conditions(req(pattern, scope), role))

    unchanged = {name: name for name in fresh}
    back = {atom: name for name, atom in fresh.items()}
    assert emitted(unchanged) == _renamed(emitted(fresh), back)


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


@pytest.mark.parametrize("pattern,pattern_atoms", CORE_PATTERNS)
@pytest.mark.parametrize("scope,scope_atoms", ALL_SCOPES)
def test_criterion_1_formulas_agree_with_the_reference_evaluator(pattern, pattern_atoms, scope, scope_atoms):
    """Every criterion-1 cell's formula against the list-based evaluator on
    every trace of length 1-4. Position 0 suffices: truth at a later position
    is truth at 0 of the suffix, which is one of the traces enumerated."""
    formula = emit_ltl(req(pattern, scope))
    atoms = tuple(dict.fromkeys(pattern_atoms + scope_atoms))
    for trace in all_traces(atoms, max_len=4):
        assert eval_ltlf(formula, trace, 0) is reference_eval_ltlf(formula, trace)[0]


# A pattern and a scope for each template cell's tags; bounded existence
# takes the last of criterion 1's bounds, k = 2.
CELL_PATTERNS = {TAGS[type(p)]: p for p, _ in CORE_PATTERNS} | {"strict_response": Response(P, S, strict=True)}
CELL_SCOPES = {TAGS[type(scope)]: scope for scope, _ in ALL_SCOPES}


@pytest.mark.parametrize("cell", sorted(_TEMPLATES), ids="-".join)
def test_every_template_agrees_with_the_reference_on_multi_word_traces(cell):
    """Masks of 60-200 positions span several machine words, so until's
    carry chain crosses word boundaries. Each atom gets its own density per
    trace, from nearly never to nearly always, so that long runs of one
    truth value occur. The verdict of `check` is held to position 0 too."""
    requirement = req(CELL_PATTERNS[cell[0]], CELL_SCOPES[cell[1]])
    formula = emit_ltl(requirement)
    rng = random.Random("/".join(cell))
    for _ in range(12):
        density = {atom: rng.choice((0.02, 0.2, 0.6, 0.98)) for atom in DEFAULT_ATOMS}
        length = rng.randint(60, 200)
        trace = Trace(State(a for a in DEFAULT_ATOMS if rng.random() < density[a]) for _ in range(length))
        expected = reference_eval_ltlf(formula, trace)
        assert [eval_ltlf(formula, trace, pos) for pos in range(length)] == expected
        assert expected[0] is isinstance(check(requirement, trace), Holds)


def test_condition_chain_of_5000_emits_and_evaluates_without_recursion():
    chain = Ref("a")
    for i in range(4999):
        chain = CondAnd(Ref("ab"[i % 2]), chain)
    formula = emit_ltl(req(Universality(chain), Between(Q, R)))
    assert eval_ltlf(formula, Trace.of({"q", "a", "b"}, {"a", "b"}, {"r"}), 0) is True
    assert eval_ltlf(formula, Trace.of({"q", "a", "b"}, {"a"}, {"r"}), 0) is False


def test_checking_and_emitting_keep_nothing_on_condition_nodes():
    """A condition node holds only its fields: an attribute kept on it would
    move it off the interpreter's fast path for instance attributes, and
    every later read of the condition would pay for that."""
    suite = load_suite(json.dumps({
        "conditions": {"start": "req && !grant", "stop": "done || false", "ok": "!(grant && done) || true"},
        "requirements": [
            {"name": "respond", "pattern": {"type": "response", "p": "start", "s": "ok"},
             "scope": {"type": "between", "q": "start", "r": "stop"}},
            {"name": "never", "pattern": {"type": "absence", "p": "stop"}, "scope": {"type": "globally"}},
            {"name": "chain", "pattern": {"type": "precedence_chain", "chain": ["start", "ok"], "p": "stop"},
             "scope": {"type": "before", "r": "stop"}},
        ],
    }))
    trace = Trace.of({"req"}, {"grant"}, {"done"}, {"req", "grant", "done"})
    for requirement in suite.requirements:
        check(requirement, trace)
        try:
            emit_ltl(requirement)
        except UnsupportedPattern:
            pass
    for condition in suite.conditions.values():
        condition_atoms(condition)
    stack = list(suite.conditions.values())
    while stack:
        node = stack.pop()
        names = [field.name for field in dataclasses.fields(node)]
        assert sorted(vars(node)) == sorted(names)
        stack += [getattr(node, name) for name in names if isinstance(getattr(node, name), Condition)]
