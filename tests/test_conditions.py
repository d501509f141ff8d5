import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqpat import ltl
from reqpat.conditions import (
    CONDITIONS,
    MAX_NESTING,
    And,
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

from helpers import random_condition
from reference import truth


def test_ref_membership():
    assert eval_condition(Ref("at_2400"), State({"at_2400"})) is True
    assert eval_condition(Ref("at_2400"), State()) is False


def test_const_true_on_empty_state():
    assert eval_condition(Const(True), State()) is True
    assert eval_condition(Const(False), State({"p"})) is False


def test_boolean_evaluation():
    state = State({"p", "q"})
    assert eval_condition(And(Ref("p"), Not(Ref("q"))), state) is False
    assert eval_condition(Or(Ref("x_missing"), Ref("q")), state) is True


def _conditions(depth: int) -> st.SearchStrategy:
    """Conditions over p, q and r, constants included, at most `depth` deep."""
    leaf = st.one_of(st.builds(Const, st.booleans()), st.builds(Ref, st.sampled_from(["p", "q", "r"])))
    if depth == 0:
        return leaf
    sub = _conditions(depth - 1)
    return st.one_of(leaf, st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub))


@settings(max_examples=300, deadline=None, database=None)
@given(cond=_conditions(6), atoms=st.frozensets(st.sampled_from(["p", "q", "r"])))
def test_eval_condition_agrees_with_structural_walk(cond, atoms):
    assert eval_condition(cond, State(atoms)) is truth(cond, atoms)


# The last is condition-rooted, and refuses the temporal node it reaches.
@pytest.mark.parametrize("expr", ["p", ltl.Next(Ref("p")), And(Ref("p"), ltl.Eventually(Ref("q")))])
def test_eval_condition_rejects_non_conditions(expr):
    with pytest.raises(TypeError, match="^not a condition: (Next|Eventually|'p')"):
        eval_condition(expr, State({"p"}))


@pytest.mark.parametrize("name", ["p", "at_2400", "_x", "a1_b2"])
def test_valid_atoms(name):
    assert is_valid_atom(name)
    Ref(name)


@pytest.mark.parametrize("name", ["", "9bad", "Upper", "has space", "has-dash", "p!", 1, None])
def test_invalid_atoms(name):
    assert not is_valid_atom(name)
    with pytest.raises(ValueError):
        Ref(name)


def test_state_and_trace_are_values():
    assert State({"p"}) == State(["p", "p"])
    assert Trace.of({"p"}, set()) == Trace([State({"p"}), State()])
    assert len(Trace.of()) == 0
    assert list(Trace.of({"p"})[0].atoms) == ["p"]


def test_parse_condition_grammar():
    assert parse_condition("true") == Const(True)
    assert parse_condition("!p && q || r") == Or(And(Not(Ref("p")), Ref("q")), Ref("r"))
    assert parse_condition("!(p || q)") == Not(Or(Ref("p"), Ref("q")))


def test_each_distinct_atom_is_one_node_per_parse():
    cond = parse_condition("p || !p && q")
    assert cond.left is cond.right.left.inner
    assert cond.right.right == Ref("q")


@pytest.mark.parametrize("text", ["", "p &&", "(p", "p q", "9bad", "p ->"])
def test_parse_condition_errors_carry_position(text):
    with pytest.raises(ConditionSyntaxError) as exc_info:
        parse_condition(text)
    assert exc_info.value.position >= 0


SYNTAX_ERRORS = [
    ("p && )", "unexpected token ')'", 5),
    ("()", "unexpected token ')'", 1),
    ("p &&", "unexpected end of input", 4),
    ("p && ", "unexpected end of input", 5),
    ("", "unexpected end of input", 0),
    ("(p", "expected ')'", 2),
    ("(p q)", "expected ')'", 3),
    ("p)", "unexpected trailing token ')'", 1),
    ("(p) q", "unexpected trailing token 'q'", 4),
]


@pytest.mark.parametrize(
    "grammar,text,message,offset",
    [(grammar, text, message, offset)
     for grammar in (CONDITIONS, ltl.FORMULAS) for text, message, offset in SYNTAX_ERRORS]
    + [(CONDITIONS, "!" * 199 + "a", "condition nests too deeply", 199),
       (CONDITIONS, "(" * 67 + "a" + ")" * 67, "condition nests too deeply", 66),
       (CONDITIONS, "!(" * 50 + "a" + ")" * 50, "condition nests too deeply", 99),
       (ltl.FORMULAS, "(" * 201 + "a" + ")" * 201, "formula nests too deeply", 200),
       (ltl.FORMULAS, "X (" * 201 + "a" + ")" * 201, "formula nests too deeply", 602)],
)
def test_each_syntax_error_names_its_token(grammar, text, message, offset):
    with pytest.raises(grammar.error) as exc_info:
        grammar.parse(text)
    assert str(exc_info.value) == f"{message} (at offset {offset})"
    assert exc_info.value.position == offset


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_parsing_does_not_recurse():
    """Both grammars parse text at their nesting bound with about 40 stack
    frames to spare."""
    formula_text = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    condition_text = "!(" * 49 + "a" + ")" * 49
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 40)
    try:
        formula, condition = ltl.parse(formula_text), parse_condition(condition_text)
    finally:
        sys.setrecursionlimit(limit)
    assert formula == Ref("a")
    assert format_condition(condition) == "!" * 49 + "a"


def test_format_parse_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(500):
        cond = random_condition(rng, depth=4)
        assert parse_condition(format_condition(cond)) == cond


def test_condition_atoms():
    cond = And(Ref("p"), Or(Not(Ref("q")), Const(True)))
    assert condition_atoms(cond) == frozenset({"p", "q"})


def test_condition_atoms_of_a_5000_deep_chain():
    chain = Ref("a")
    for i in range(5000):
        chain = And(Ref(f"b{i % 3}"), chain)
    assert condition_atoms(chain) == frozenset({"a", "b0", "b1", "b2"})


@pytest.mark.parametrize("value", [2, 0, 1, None, "true"])
def test_const_holds_only_a_truth_value(value):
    with pytest.raises(ValueError, match="not a truth value"):
        Const(value)


def _random_dag(rng: random.Random):
    """A condition whose subtrees are shared objects: each new node takes
    its operands from the nodes built so far."""
    pool = [random_condition(rng, depth=2) for _ in range(3)]
    for _ in range(rng.randint(1, 10)):
        if rng.random() < 0.3:
            pool.append(Not(rng.choice(pool)))
        else:
            pool.append(rng.choice((And, Or))(rng.choice(pool), rng.choice(pool)))
    return pool[-1]


def test_compile_and_build_are_inverse():
    """A shared tree and an unshared equal copy of it, as printed and
    parsed back, compile to one program, and building it gives the tree."""
    rng = random.Random(20261019)
    for shared in (False, True) * 300:
        cond = _random_dag(rng) if shared else random_condition(rng, depth=5)
        program = CONDITIONS.compile(cond)
        assert CONDITIONS.compile(parse_condition(format_condition(cond))) == program
        assert CONDITIONS.build(program, Ref) == cond


@settings(max_examples=300, deadline=None, database=None)
@given(cond=_conditions(5), states=st.lists(st.frozensets(st.sampled_from(["p", "q", "r"])), min_size=1, max_size=6))
def test_a_condition_is_a_formula(cond, states):
    """A condition evaluates as a formula at each position as it does on
    that position's state, and reads and prints as the same text in both
    grammars."""
    trace = Trace.of(*states)
    for pos, state in enumerate(trace):
        assert ltl.eval_ltlf(cond, trace, pos) is eval_condition(cond, state)
    assert ltl.parse(format_condition(cond)) == cond
    assert ltl.print_formula(cond) == format_condition(cond)


@pytest.mark.parametrize(
    "grammar,node,foreign",
    [(ltl.FORMULAS, ltl.Next("p"), "not a formula: 'p'"),
     (CONDITIONS, Not(ltl.Next(Ref("p"))), "not a condition: Next(operand=Ref(name='p'))")],
)
def test_compile_names_a_node_of_the_other_family(grammar, node, foreign):
    with pytest.raises(TypeError) as exc_info:
        grammar.compile(node)
    assert str(exc_info.value) == foreign


NESTING_SHAPES = {
    "and_chain": (lambda n: " && ".join(["a"] * n), 199),
    "or_chain": (lambda n: " || ".join(["a"] * n), 199),
    "negations": (lambda n: "!" * n + "a", 198),
    "parentheses": (lambda n: "(" * n + "a" + ")" * n, 66),
    "alternating_parentheses": (lambda n: "".join(("a && (", "b || (")[i % 2] for i in range(n)) + "c" + ")" * n, 49),
    "negated_parentheses": (lambda n: "!(" * n + "a" + ")" * n, 49),
    "conjunctions_joined_by_or": (lambda n: " || ".join(["a && b"] * n), 198),
}


@pytest.mark.parametrize("shape", NESTING_SHAPES)
def test_deepest_loadable_condition_of_each_shape(shape):
    """A condition is refused where 2 + the pending operators + 3 x the open
    parentheses exceeds MAX_NESTING."""
    text, deepest = NESTING_SHAPES[shape]
    parse_condition(text(deepest))
    with pytest.raises(ConditionSyntaxError, match="^condition nests too deeply"):
        parse_condition(text(deepest + 1))


def test_format_condition_of_5000_deep_trees_does_not_recurse():
    negations, conjunctions = Ref("a"), Ref("a")
    for _ in range(5000):
        negations, conjunctions = Not(negations), And(Ref("a"), conjunctions)
    assert format_condition(negations) == "!" * 5000 + "a"
    assert len(format_condition(conjunctions)) == 25_001
