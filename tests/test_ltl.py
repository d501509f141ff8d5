import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqpat.conditions import MAX_NESTING, Ref, Trace
from reqpat.patterns import Between, Requirement, Response
from reqpat import ltl
from reqpat.ltl import (
    Always,
    And,
    Eventually,
    FalseBool,
    Implies,
    LtlSyntaxError,
    Next,
    Not,
    Or,
    Prop,
    TrueBool,
    Until,
    WeakNext,
    WeakUntil,
    eval_ltlf,
    parse,
    print_formula,
)

from helpers import random_formula, random_trace
from reference import reference_eval_ltlf


# --- parsing ----------------------------------------------------------------

def test_parse_always_implies_eventually():
    assert parse("[](p -> <> s)") == Always(Implies(Prop("p"), Eventually(Prop("s"))))


def test_parse_implies_right_associative():
    assert parse("p -> q -> r") == Implies(Prop("p"), Implies(Prop("q"), Prop("r")))


def test_parse_until_with_parenthesized_and():
    assert parse("p U (q && r)") == Until(Prop("p"), And(Prop("q"), Prop("r")))


def test_parse_until_binds_tighter_than_and():
    assert parse("p U q && r") == And(Until(Prop("p"), Prop("q")), Prop("r"))


def test_parse_letter_aliases_and_literals():
    assert parse("F p") == parse("<>p")
    assert parse("G p") == parse("[]p")
    assert parse("true U false") == Until(TrueBool(), FalseBool())
    assert parse("WX p") == WeakNext(Prop("p"))


def test_parse_unary_binds_tightest():
    assert parse("!p U q") == Until(Not(Prop("p")), Prop("q"))
    assert parse("X p && q") == And(Next(Prop("p")), Prop("q"))


def test_parse_error_at_end_of_input():
    with pytest.raises(LtlSyntaxError) as exc_info:
        parse("p ->")
    assert exc_info.value.position == len("p ->")


@pytest.mark.parametrize("text,offset", [("p && (q", 7), ("9bad", 0), ("p @ q", 2), ("Foo", 0)])
def test_parse_errors_carry_position(text, offset):
    with pytest.raises(LtlSyntaxError) as exc_info:
        parse(text)
    assert exc_info.value.position == offset


def test_parse_folds_mixed_operator_chains_by_precedence():
    a, b, c, d, e, f = (Prop(name) for name in "abcdef")
    assert parse("a -> b || c && d U e W f") == Implies(a, Or(b, And(c, Until(d, WeakUntil(e, f)))))
    assert parse("a U b && c || d -> e") == Implies(Or(And(Until(a, b), c), d), e)


def test_formula_parentheses_nest_at_most_max_nesting_deep():
    def nested(depth: int) -> str:
        return "(" * depth + "a" + ")" * depth

    assert parse(nested(MAX_NESTING)) == Prop("a")
    with pytest.raises(LtlSyntaxError, match="formula nests too deeply") as exc_info:
        parse(nested(MAX_NESTING + 1))
    assert exc_info.value.position == MAX_NESTING


def test_each_distinct_atom_is_one_node_per_parse():
    formula = parse("a && a")
    assert formula.left is formula.right
    assert parse("a") is not parse("a")


def test_operator_chains_of_1500_terms_parse_without_recursion():
    formula = parse(" && ".join(["a"] * 1500))
    for _ in range(1499):
        assert isinstance(formula, And) and formula.left == Prop("a")
        formula = formula.right
    assert formula == Prop("a")
    formula = parse("!" * 1500 + "a")
    for _ in range(1500):
        assert isinstance(formula, Not)
        formula = formula.operand
    assert formula == Prop("a")


# --- printing ---------------------------------------------------------------

@pytest.mark.parametrize(
    "formula,text",
    [
        (Always(Implies(Prop("p"), Eventually(Prop("s")))), "[](p -> <>s)"),
        (Prop("p"), "p"),
        (Until(Prop("p"), And(Prop("q"), Prop("r"))), "p U (q && r)"),
        (Implies(Implies(Prop("p"), Prop("q")), Prop("r")), "(p -> q) -> r"),
        (Next(Eventually(Prop("s"))), "X <>s"),
        (Not(And(Prop("p"), Prop("q"))), "!(p && q)"),
        (And(Until(Prop("p"), Prop("q")), Prop("r")), "p U q && r"),
        (WeakUntil(Not(Prop("p")), Prop("s")), "!p W s"),
    ],
)
def test_print_formula_canonical(formula, text):
    assert print_formula(formula) == text


def test_print_parse_round_trip_random():
    rng = random.Random(20240824)
    for _ in range(2000):
        formula = random_formula(rng, depth=5)
        assert parse(print_formula(formula)) == formula


# --- evaluation -------------------------------------------------------------

def test_eventually_witness_at_last_state():
    trace = Trace.of(set(), set(), {"p"})
    assert eval_ltlf(parse("<>p"), trace, 0) is True


def test_strong_next_fails_at_trace_end():
    trace = Trace.of({"p"})
    assert eval_ltlf(parse("X p"), trace, 0) is False
    assert eval_ltlf(parse("WX p"), trace, 0) is True


def test_response_formula_on_three_states():
    trace = Trace.of({"p"}, set(), {"s"})
    assert eval_ltlf(parse("[](p -> <>s)"), trace, 0) is True


def test_until_requires_witness():
    trace = Trace.of({"p"}, {"p"}, set())
    assert eval_ltlf(parse("p U q"), trace, 0) is False
    assert eval_ltlf(parse("p W q"), trace, 0) is False
    assert eval_ltlf(parse("p W q"), Trace.of({"p"}, {"p"}), 0) is True


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        eval_ltlf(parse("p"), Trace.of(), 0)
    with pytest.raises(ValueError):
        eval_ltlf(parse("p"), Trace.of({"p"}), 1)


def test_expansion_identities_on_random_traces():
    """<>f = true U f; []f = f W false; f W g = g || (f && WX(f W g)),
    checked at every position of random traces."""
    rng = random.Random(20240825)
    for _ in range(200):
        trace = random_trace(rng, max_len=6, min_len=1)
        f = random_formula(rng, depth=3)
        g = random_formula(rng, depth=3)
        for pos in range(len(trace)):
            assert eval_ltlf(Eventually(f), trace, pos) == eval_ltlf(Until(TrueBool(), f), trace, pos)
            assert eval_ltlf(Always(f), trace, pos) == eval_ltlf(WeakUntil(f, FalseBool()), trace, pos)
            expanded = Or(g, And(f, WeakNext(WeakUntil(f, g))))
            assert eval_ltlf(WeakUntil(f, g), trace, pos) == eval_ltlf(expanded, trace, pos)


def test_eval_is_pure():
    rng = random.Random(20240826)
    trace = random_trace(rng, min_len=3)
    formula = random_formula(rng, depth=4)
    assert eval_ltlf(formula, trace, 0) == eval_ltlf(formula, trace, 0)


def _random_dag(rng: random.Random) -> ltl.Formula:
    """A formula whose subtrees are shared objects: each new node takes its
    operands from the nodes built so far."""
    pool = [random_formula(rng, depth=2) for _ in range(3)]
    unary = (Not, Next, WeakNext, Eventually, Always)
    binary = (And, Or, Implies, Until, WeakUntil)
    for _ in range(rng.randint(1, 12)):
        if rng.random() < 0.4:
            pool.append(rng.choice(unary)(rng.choice(pool)))
        else:
            pool.append(rng.choice(binary)(rng.choice(pool), rng.choice(pool)))
    return pool[-1]


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), shared=st.booleans(), length=st.integers(1, 8))
def test_eval_agrees_with_reference_at_every_position(seed, shared, length):
    rng = random.Random(seed)
    formula = _random_dag(rng) if shared else random_formula(rng, depth=6)
    trace = random_trace(rng, min_len=length, max_len=length)
    expected = reference_eval_ltlf(formula, trace)
    for pos in range(length):
        assert eval_ltlf(formula, trace, pos) is expected[pos]


@pytest.mark.parametrize("op", [Until, WeakUntil, Eventually])
def test_bare_temporal_operators_agree_with_the_reference_on_multi_word_traces(op):
    """Masks of 60-200 positions span several machine words, so until's
    carry and eventually's lowest set bit cross word boundaries; runs of
    one truth value come from densities near 0 and 1."""
    rng = random.Random(op.__name__)
    formula = op(Prop("p")) if op is Eventually else op(Prop("p"), Prop("q"))
    for _ in range(40):
        density = {atom: rng.choice((0.01, 0.3, 0.7, 0.99)) for atom in "pq"}
        length = rng.randint(60, 200)
        trace = Trace.of(*({a for a in "pq" if rng.random() < density[a]} for _ in range(length)))
        assert [eval_ltlf(formula, trace, pos) for pos in range(length)] == reference_eval_ltlf(formula, trace)


def test_compile_and_build_are_inverse():
    """A shared formula and an unshared equal copy of it, as printed and
    parsed back, compile to one program, and building it gives the formula."""
    rng = random.Random(20261021)
    for shared in (False, True) * 300:
        formula = _random_dag(rng) if shared else random_formula(rng, depth=6)
        program = ltl.FORMULAS.compile(formula)
        assert ltl.FORMULAS.compile(parse(print_formula(formula))) == program
        assert ltl.FORMULAS.build(program, Prop) == formula


def test_not_chain_of_5000_evaluates_without_recursion():
    formula = Prop("p")
    for _ in range(5000):
        formula = Not(formula)
    assert eval_ltlf(formula, Trace.of({"p"}, set()), 0) is True
    assert eval_ltlf(formula, Trace.of({"p"}, set()), 1) is False


def test_evaluation_leaves_value_semantics_unchanged():
    formula = parse("[](p -> (q U r)) && !p W X s || <>[]q")
    twin = parse(print_formula(formula))
    before = (repr(formula), hash(formula), print_formula(formula))
    for trace in (Trace.of({"p"}, {"q"}, {"r"}), Trace.of({"q"}, set(), {"s"}, {"q"}, {"p", "r"})):
        assert eval_ltlf(formula, trace, 0) is reference_eval_ltlf(formula, trace)[0]
        assert (repr(formula), hash(formula), print_formula(formula)) == before
        assert formula == twin and twin == formula


def _count_generations(monkeypatch) -> list:
    """Start from an empty cache of generated functions and record the
    program of every function generated from here on."""
    generated = []
    generate = ltl._generate

    def counting(program):
        generated.append(program)
        return generate(program)

    monkeypatch.setattr(ltl, "_generate", counting)
    monkeypatch.setattr(ltl, "_RUNNERS", {})
    return generated


@pytest.mark.parametrize("formula", [Ref("p"), "p", Not(Ref("p"))])
def test_eval_rejects_non_formulas_and_caches_nothing(formula, monkeypatch):
    generated = _count_generations(monkeypatch)
    with pytest.raises(TypeError, match="not a formula"):
        eval_ltlf(formula, Trace.of({"p"}), 0)
    assert "_program" not in getattr(formula, "__dict__", {})
    assert "_run" not in getattr(formula, "__dict__", {})
    assert generated == []


def test_two_emissions_of_one_requirement_share_one_generated_function(monkeypatch):
    generated = _count_generations(monkeypatch)
    requirement = Requirement("req", Response(Ref("p"), Ref("s")), Between(Ref("q"), Ref("r")))
    first, second = ltl.emit_ltl(requirement), ltl.emit_ltl(requirement)
    assert first is not second
    for trace, expected in ((Trace.of({"q"}, {"p"}, {"s"}, {"r"}), True), (Trace.of({"q", "p"}, {"r"}), False)):
        assert eval_ltlf(first, trace, 0) is expected
        assert eval_ltlf(second, trace, 0) is expected
    assert len(generated) == 1
    assert first._run is second._run


def test_generated_functions_are_cached_up_to_a_bound(monkeypatch):
    generated = _count_generations(monkeypatch)
    trace = Trace.of({"p"}, set())
    formula = Prop("p")
    programs = []
    for _ in range(ltl._MAX_RUNNERS + 3):
        formula = WeakNext(formula)
        assert eval_ltlf(formula, trace, 1) is True
        programs.append(formula._program)
    assert generated == programs
    assert list(ltl._RUNNERS) == programs[3:]


def test_threads_sharing_the_cache_generate_each_program_once(monkeypatch):
    """Threads look up the same programs at once. The cache itself is hit,
    not `Formula._run`, whose cached_property serializes first accesses on
    some Python versions only."""
    generated = _count_generations(monkeypatch)
    programs = []
    formula = Prop("p")
    for _ in range(16):
        formula = WeakNext(formula)
        programs.append(formula._program)
    start = threading.Barrier(8)
    runs: list[list] = []
    errors = []

    def look_up():
        try:
            start.wait(timeout=60)
            runs.append([ltl._runner(program) for program in programs])
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=look_up) for _ in range(start.parties)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert generated == programs
    assert all(run == runs[0] for run in runs)


def test_evaluated_formula_survives_pickle_and_copies():
    formula = parse("[](p -> (q U r)) && !p W X s || <>[]q")
    trace = Trace.of({"p"}, {"q"}, {"r"}, {"q"})
    expected = eval_ltlf(formula, trace, 0)
    assert "_run" in formula.__dict__
    for clone in (pickle.loads(pickle.dumps(formula)), copy.copy(formula), copy.deepcopy(formula)):
        assert clone == formula and clone is not formula
        assert "_run" not in clone.__dict__
        assert eval_ltlf(clone, trace, 0) is expected
        assert clone._run is formula._run


def test_print_of_5000_nested_parentheses_does_not_recurse():
    formula = And(Prop("p"), Prop("q"))
    for _ in range(4999):
        formula = And(formula, Prop("q"))
    assert print_formula(formula) == "(" * 4999 + "p && q" + ") && q" * 4999


@pytest.mark.parametrize("formula", [Ref("p"), "p", Not(Ref("p"))])
def test_print_rejects_non_formulas(formula):
    with pytest.raises(TypeError, match="not a formula"):
        print_formula(formula)
