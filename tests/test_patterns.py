import copy
import dataclasses
import itertools
import json
import pickle
import random
import re

import pytest

from reqpat import patterns
from reqpat.conditions import And, Not, Ref, State, Trace, condition_atoms
from reqpat.ltl import emit_ltl
from reqpat.patterns import (
    PATTERNS,
    SCOPES,
    TAGS,
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
    Universality,
    check,
    evaluate_pattern,
    map_conditions,
    segments,
)
from reqpat.suite import load_suite, load_trace, write_trace

from helpers import all_traces, random_condition, random_scope, random_state, random_trace
from reference import brute_precedence_chain_holds, brute_response_chain_holds, reference_check, reference_segments

P, Q, R, S = Ref("p"), Ref("q"), Ref("r"), Ref("s")
A, B = Ref("a"), Ref("b")


# --- segments ---------------------------------------------------------------

def test_segments_globally():
    assert segments(Globally(), random_trace(random.Random(1), max_len=5, min_len=5)) == [(0, 5)]
    assert segments(Globally(), Trace.of()) == [(0, 0)]


def test_segments_before():
    trace = Trace.of(set(), {"x"}, set(), {"r"}, set(), {"r"})
    assert segments(Before(R), trace) == [(0, 3)]
    assert segments(Before(R), Trace.of(set(), set())) == []
    assert segments(Before(R), Trace.of({"r"})) == [(0, 0)]


def test_segments_after():
    trace = Trace.of(set(), {"q"}, set(), {"q"})
    assert segments(After(Q), trace) == [(1, 4)]
    assert segments(After(Q), Trace.of(set())) == []


def test_segments_between():
    trace = Trace.of(set(), {"q"}, set(), set(), {"r"}, {"q"})
    assert segments(Between(Q, R), trace) == [(1, 4)]
    # trailing unclosed segment (q at 5) is discarded


def test_segments_after_until_keeps_trailing():
    trace = Trace.of(set(), set(), {"q"}, set(), set())
    assert segments(AfterUntil(Q, R), trace) == [(2, 5)]
    closed = Trace.of({"q"}, set(), {"r"}, {"q"}, set())
    assert segments(AfterUntil(Q, R), closed) == [(0, 2), (3, 5)]


def test_segments_q_and_r_tie_opens_then_closes_later():
    """A position carrying both q and r closes the running segment and opens
    the next one at the same index."""
    trace = Trace.of({"q"}, {"q", "r"}, set(), {"r"})
    assert segments(Between(Q, R), trace) == [(0, 1), (1, 3)]


def test_segments_soundness_property():
    rng = random.Random(20240818)
    for _ in range(400):
        trace = random_trace(rng)
        scope = random_scope(rng)
        segs = segments(scope, trace)
        previous_end = 0
        for lo, hi in segs:
            assert 0 <= lo <= hi <= len(trace)
            assert lo >= previous_end
            previous_end = hi


# --- BoundedExistence counts blocks ------------------------------------------

def test_bounded_existence_counts_blocks():
    trace = Trace.of({"p"}, {"p"}, set(), {"p"})
    exceeded = evaluate_pattern(BoundedExistence(P, 1), trace, (0, 4))
    assert exceeded == Fails(0, 3)
    assert exceeded.reason == "block 2 exceeds the bound of 1"
    assert evaluate_pattern(BoundedExistence(P, 2), trace, (0, 4)) == Holds(vacuous=False)
    assert evaluate_pattern(BoundedExistence(P, 0), Trace.of(set(), set()), (0, 2)) == Holds(vacuous=False)
    solid = Trace.of(*[{"p"}] * 5)
    assert evaluate_pattern(BoundedExistence(P, 0), solid, (0, 5)) == Fails(0, 0)
    assert evaluate_pattern(BoundedExistence(P, 1), solid, (0, 5)) == Holds(vacuous=False)
    assert evaluate_pattern(BoundedExistence(P, 0), trace, (2, 2)) == Holds(vacuous=True)


# --- evaluate_pattern -------------------------------------------------------

def test_response_answered():
    trace = Trace.of({"p"}, set(), {"s"})
    assert evaluate_pattern(Response(P, S), trace, (0, 3)) == Holds(vacuous=False)


def test_absence_fails_at_position():
    trace = Trace.of(set(), {"p"}, set(), set())
    verdict = evaluate_pattern(Absence(P), trace, (0, 4))
    assert verdict == Fails(0, 1)


def test_reflexive_self_response_never_fails():
    rng = random.Random(20240819)
    for _ in range(300):
        trace = random_trace(rng)
        segs = segments(random_scope(rng), trace)
        for seg in segs:
            assert isinstance(evaluate_pattern(Response(P, P, strict=False), trace, seg), Holds)


def test_existence_fails_on_empty_segment():
    assert isinstance(evaluate_pattern(Existence(P), Trace.of({"p"}, {"p"}, {"p"}), (2, 2)), Fails)


def test_bounded_existence_zero_is_absence():
    rng = random.Random(20240820)
    for _ in range(300):
        trace = random_trace(rng)
        for seg in segments(random_scope(rng), trace):
            absence = evaluate_pattern(Absence(P), trace, seg)
            bounded = evaluate_pattern(BoundedExistence(P, 0), trace, seg)
            assert isinstance(absence, Holds) == isinstance(bounded, Holds)


def test_duality_absence_existence_and_universality():
    rng = random.Random(20240821)
    for _ in range(300):
        trace = random_trace(rng)
        for seg in segments(random_scope(rng), trace):
            absence_holds = isinstance(evaluate_pattern(Absence(P), trace, seg), Holds)
            existence_holds = isinstance(evaluate_pattern(Existence(P), trace, seg), Holds)
            assert absence_holds == (not existence_holds)
            universality_holds = isinstance(evaluate_pattern(Universality(P), trace, seg), Holds)
            absence_not_p = isinstance(evaluate_pattern(Absence(Not(P)), trace, seg), Holds)
            assert universality_holds == absence_not_p


def test_strict_response_requires_later_answer():
    trace = Trace.of({"p", "s"})
    assert evaluate_pattern(Response(P, S, strict=False), trace, (0, 1)) == Holds(False)
    assert evaluate_pattern(Response(P, S, strict=True), trace, (0, 1)) == Fails(0, 0)


def test_precedence():
    assert isinstance(evaluate_pattern(Precedence(S, P), Trace.of({"s"}, {"p"}), (0, 2)), Holds)
    assert isinstance(evaluate_pattern(Precedence(S, P), Trace.of({"p", "s"}), (0, 1)), Holds)
    assert evaluate_pattern(Precedence(S, P), Trace.of({"p"}, {"s"}), (0, 2)) == Fails(0, 0)
    assert evaluate_pattern(Precedence(S, P), Trace.of(set(), {"p"}), (0, 2)) == Fails(0, 1)


def test_vacuity_flags():
    no_trigger = Trace.of(set(), {"s"})
    assert evaluate_pattern(Response(P, S), no_trigger, (0, 2)) == Holds(vacuous=True)
    assert evaluate_pattern(Precedence(S, P), no_trigger, (0, 2)) == Holds(vacuous=True)
    assert evaluate_pattern(Absence(P), no_trigger, (0, 0)) == Holds(vacuous=True)
    assert evaluate_pattern(Absence(P), no_trigger, (0, 2)) == Holds(vacuous=False)
    assert evaluate_pattern(Existence(S), no_trigger, (0, 2)) == Holds(vacuous=False)


def test_chain_patterns_match_brute_force_on_random_traces():
    rng = random.Random(20240822)
    for _ in range(300):
        trace = random_trace(rng, max_len=7)
        chain = [random_condition(rng, depth=1) for _ in range(rng.randint(1, 3))]
        p = random_condition(rng, depth=1)
        for seg in segments(random_scope(rng), trace):
            got = isinstance(evaluate_pattern(ResponseChain(p, chain), trace, seg), Holds)
            assert got == brute_response_chain_holds(trace, p, chain, seg)
            got = isinstance(evaluate_pattern(PrecedenceChain(chain, p), trace, seg), Holds)
            assert got == brute_precedence_chain_holds(trace, chain, p, seg)


def test_catalogue_tags_are_the_snake_case_class_names():
    assert list(PATTERNS) == [
        "absence", "universality", "existence", "bounded_existence",
        "precedence", "response", "response_chain", "precedence_chain",
    ]
    assert list(SCOPES) == ["globally", "before", "after", "between", "after_until"]
    for tag, cls in {**PATTERNS, **SCOPES}.items():
        assert re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower() == tag


def test_tags_invert_the_catalogue_in_order():
    assert TAGS == {cls: tag for tag, cls in (PATTERNS | SCOPES).items()}
    assert list(TAGS.items()) == [(cls, tag) for tag, cls in (PATTERNS | SCOPES).items()]


@pytest.mark.parametrize("base", [Pattern, Scope])
def test_a_variant_without_a_tag_is_refused_at_definition(base):
    before = list(PATTERNS.items()), list(SCOPES.items()), list(TAGS.items())
    with pytest.raises(TypeError, match="tag"):
        class Untagged(base):
            pass
    assert (list(PATTERNS.items()), list(SCOPES.items()), list(TAGS.items())) == before


# A trace built from states is read lazily; a loaded one whose lines repeat
# is read through columns, and one whose lines are distinct lazily again.
NOT_A_CONDITION_TRACES = {
    "built": Trace.of(set(), set(), set(), set()),
    "built-empty": Trace.of(),
    "loaded-repeating": load_trace("[]\n" * 4),
    "loaded-distinct": load_trace('[]\n["a"]\n["b"]\n["c"]\n'),
    "loaded-empty": load_trace(""),
}


@pytest.mark.parametrize("trace", NOT_A_CONDITION_TRACES.values(), ids=NOT_A_CONDITION_TRACES)
@pytest.mark.parametrize("req", [
    Requirement("r", Response(P, "x"), Globally()),
    Requirement("r", Precedence("x", P), Globally()),
    Requirement("r", ResponseChain(P, [S, "x"]), Globally()),
    Requirement("r", Absence(P), Between(Q, "x")),
    Requirement("r", Existence(P), Before("x")),
], ids=["response", "precedence", "response_chain", "between", "before"])
def test_every_read_rejects_a_non_condition_it_never_reaches(req, trace):
    """Every read rejects a non-condition, on every kind of trace, empty
    ones too: also one that no scan reaches, because p and q never hold."""
    with pytest.raises(TypeError, match="^not a condition: 'x'$"):
        check(req, trace)
    with pytest.raises(TypeError, match="^not a condition: 'x'$"):
        evaluate_pattern(req.pattern, trace, (0, len(trace))) if req.scope == Globally() else segments(req.scope, trace)


@pytest.mark.parametrize("trace", [Trace.of(set()), load_trace("[]\n")], ids=["built", "loaded"])
@pytest.mark.parametrize("pattern", [Response(P, "x"), Universality("x"), BoundedExistence("x", 1)],
                         ids=["response", "universality", "bounded_existence"])
def test_a_pattern_reads_its_conditions_where_the_scope_carves_nothing(pattern, trace):
    """The pattern decides every carving, the empty one too, as it does under
    `globally`, so its conditions are checked on every trace."""
    req = Requirement("r", pattern, AfterUntil(Q, R))
    assert segments(req.scope, trace) == []
    with pytest.raises(TypeError, match="^not a condition: 'x'$"):
        check(req, trace)
    with pytest.raises(TypeError, match="^not a condition: 'x'$"):
        check(Requirement("r", pattern, Globally()), trace)


# Existence under between emits a condition-rooted tree, `And` at its root
# with `Next` and `Until` below, which reads a temporal node in every state.
CONDITION_ROOTED_FORMULA = emit_ltl(Requirement("e", Existence(P), Between(Q, R)))


@pytest.mark.parametrize("trace", [Trace.of({"p"}, {"q"}), load_trace('["p"]\n' * 4)], ids=["built", "loaded"])
def test_check_refuses_a_temporal_node_inside_a_condition(trace):
    """The built trace is read position by position, the loaded one by a
    column build; both refuse the temporal node as `condition_atoms` does."""
    with pytest.raises(TypeError, match=r"^not a condition: Next\(operand=Until\("):
        check(Requirement("x", Absence(CONDITION_ROOTED_FORMULA), Globally()), trace)


def test_evaluate_pattern_refuses_a_segment_outside_the_trace():
    with pytest.raises(ValueError) as exc_info:
        evaluate_pattern(Absence(P), Trace.of(set()), (0, 2))
    assert str(exc_info.value) == "segment (0, 2) out of bounds for trace of length 1"


@pytest.mark.parametrize("scope", ["globally", Ref("p"), Absence(P)])
def test_segments_rejects_what_is_not_a_scope(scope):
    with pytest.raises(TypeError) as exc_info:
        segments(scope, Trace.of({"p"}))
    assert str(exc_info.value) == f"not a scope: {scope!r}"


@pytest.mark.parametrize("pattern", ["globally", Ref("p"), Globally()])
def test_evaluate_pattern_rejects_what_is_not_a_pattern(pattern):
    with pytest.raises(TypeError) as exc_info:
        evaluate_pattern(pattern, Trace.of({"p"}), (0, 1))
    assert str(exc_info.value) == f"not a pattern: {pattern!r}"


def test_check_rejects_a_pattern_and_a_scope_in_each_other_s_place():
    with pytest.raises(TypeError, match="not a scope"):
        check(Requirement("X", Globally(), Absence(P)), Trace.of({"p"}))
    with pytest.raises(TypeError, match="not a pattern"):
        check(Requirement("X", Globally(), Globally()), Trace.of({"p"}))


def test_chains_are_kept_as_tuples():
    assert ResponseChain(P, [A, B]).chain == (A, B)
    assert PrecedenceChain(iter([A]), P) == PrecedenceChain((A,), P)


def test_chain_requires_nonempty():
    with pytest.raises(ValueError):
        ResponseChain(P, [])
    with pytest.raises(ValueError):
        PrecedenceChain([], P)
    with pytest.raises(ValueError):
        BoundedExistence(P, -1)


# --- check ------------------------------------------------------------------

def test_check_reports_first_failing_segment():
    req = Requirement("u", Universality(P), Globally())
    trace = Trace.of({"p"}, {"p"}, set())
    assert check(req, trace) == Fails(0, 2)


def test_check_vacuous_when_no_segments():
    req = Requirement("before_never", Absence(P), Before(R))
    assert check(req, Trace.of({"p"}, {"p"})) == Holds(vacuous=True)


def test_check_vacuous_only_if_all_segments_vacuous():
    req = Requirement("resp", Response(P, S), Between(Q, R))
    trace = Trace.of({"q"}, {"r"}, {"q"}, {"p"}, {"s"}, {"r"})
    assert check(req, trace) == Holds(vacuous=False)


def test_check_is_deterministic():
    rng = random.Random(20240823)
    req = Requirement("resp", Response(P, S, strict=True), AfterUntil(Q, R))
    for _ in range(50):
        trace = random_trace(rng)
        assert check(req, trace) == check(req, trace)


# --- one carving per scope and trace ----------------------------------------

PATTERN_ENTRIES = [
    {"type": "absence", "p": "p"},
    {"type": "universality", "p": "p"},
    {"type": "existence", "p": "p"},
    {"type": "bounded_existence", "p": "p", "k": 1},
    {"type": "precedence", "s": "s", "p": "p"},
    {"type": "response", "p": "p", "s": "s"},
    {"type": "response_chain", "p": "p", "chain": ["s", "p"]},
    {"type": "precedence_chain", "chain": ["s"], "p": "p"},
]
SCOPE_ENTRIES = [
    {"type": "globally"},
    {"type": "before", "r": "r"},
    {"type": "after", "q": "q"},
    {"type": "between", "q": "q", "r": "r"},
    {"type": "after_until", "q": "q", "r": "r"},
]


def test_check_carves_each_scope_once_per_trace(monkeypatch):
    """Every requirement of a loaded 8 x 5 suite has a scope object of its
    own, but the loader shares the condition objects, so one trace carves
    each distinct scope once. An equal trace that is another object, a copy
    or a pickled one included, carves again."""
    suite = load_suite(json.dumps({
        "conditions": {"p": "p", "s": "s || t", "q": "q && !p", "r": "r"},
        "requirements": [
            {"name": f"R{i}", "pattern": pattern, "scope": scope}
            for i, (pattern, scope) in enumerate(itertools.product(PATTERN_ENTRIES, SCOPE_ENTRIES))
        ],
    }))
    assert len(suite.requirements) == 40
    carved = []

    def counting(method):
        def counted(self, *args):
            carved.append(type(self))
            return method(self, *args)

        return counted

    for cls in SCOPES.values():
        monkeypatch.setattr(cls, "segments", counting(cls.segments))
    trace = Trace.of({"q"}, {"p"}, {"s"}, {"r"}, {"q", "t"}, {"p"}, {"r"}, {"q"}, {"p"}, {"s"})
    verdicts = [check(req, trace) for req in suite.requirements]
    assert sorted(carved, key=list(SCOPES.values()).index) == list(SCOPES.values())
    assert [check(req, trace) for req in suite.requirements] == verdicts
    assert len(carved) == 5
    for other in (Trace(trace.states), copy.copy(trace), pickle.loads(pickle.dumps(trace))):
        assert [check(req, other) for req in suite.requirements] == verdicts
    assert len(carved) == 20


def test_checking_leaves_the_trace_value_unchanged():
    unchecked = Trace.of({"q"}, {"p"}, {"r"}, {"p"})
    built, loaded = Trace(unchecked.states), load_trace(write_trace(unchecked))
    for checked in (built, loaded):
        for scope in (Globally(), Before(R), After(Q), Between(Q, R), AfterUntil(Q, R)):
            check(Requirement("x", Absence(P), scope), checked)
        assert checked == unchecked
        assert hash(checked) == hash(unchecked)
        assert repr(checked) == repr(unchecked)
        assert pickle.loads(pickle.dumps(checked)) == unchecked
        assert copy.copy(checked) == copy.deepcopy(checked) == unchecked
        assert repr(copy.copy(checked)) == repr(unchecked)


def test_shared_carving_gives_the_verdicts_of_fresh_traces():
    """Random suites whose requirements share a few scopes, checked in
    shuffled order on one trace, give every verdict (segment, position,
    reason, vacuity) that a check on a fresh equal trace gives."""
    rng = random.Random(20261019)
    for _ in range(300):
        scopes = [random_scope(rng) for _ in range(rng.randint(1, 3))]
        conditions = [random_condition(rng, depth=1) for _ in range(3)]
        reqs = _random_requirements(rng, scopes, conditions, rng.randint(2, 10))
        trace = random_trace(rng, max_len=12)
        for req in reqs:
            got, want = check(req, trace), check(req, Trace(trace.states))
            assert _same_verdict(got, want), (req, trace)


def _random_requirements(rng: random.Random, scopes: list, conditions: list, count: int) -> list[Requirement]:
    """`count` requirements in shuffled order over the given scopes and
    conditions, every pattern drawn."""
    reqs = []
    for i in range(count):
        p, s = rng.choice(conditions), rng.choice(conditions)
        pattern = rng.choice([
            Absence(p), Universality(p), Existence(p), BoundedExistence(p, rng.randint(0, 2)),
            Precedence(s, p), Response(p, s, strict=rng.random() < 0.5),
            ResponseChain(p, [s, p]), PrecedenceChain([s], p),
        ])
        scope = rng.choice(scopes)
        # An equal scope built anew over the same conditions shares too.
        reqs.append(Requirement(f"R{i}", pattern, type(scope)(**vars(scope))))
    rng.shuffle(reqs)
    return reqs


@pytest.mark.parametrize("pool_size, runs, max_len", [(6, 300, 40), (300, 8, 1200)])
def test_loaded_traces_give_the_verdicts_of_built_traces(pool_size, runs, max_len):
    """A loaded trace whose lines repeat is checked through truth columns
    over its distinct lines, any other trace position by position; both
    give every verdict (segment, position, reason, vacuity) alike. The
    lines come from a pool of a few states or of more than 256, and
    `segments` and `evaluate_pattern` read the loaded trace first."""
    rng = random.Random(20261019 + pool_size)
    # A filler atom no condition reads keeps every line of the pool distinct.
    pool = [State(random_state(rng).atoms | {f"x{i}"}) for i in range(pool_size)]
    distinct_seen = 0
    for _ in range(runs):
        scopes = [random_scope(rng) for _ in range(rng.randint(1, 3))]
        conditions = [random_condition(rng, depth=2) for _ in range(4)]
        reqs = _random_requirements(rng, scopes, conditions, rng.randint(2, 12))
        built = Trace(rng.choice(pool) for _ in range(rng.randint(0, max_len)))
        loaded = load_trace(write_trace(built))
        assert loaded == built
        distinct_seen = max(distinct_seen, len({id(state) for state in loaded.states}))
        for req in reqs[:2]:
            for segment in segments(req.scope, loaded):
                evaluate_pattern(req.pattern, loaded, segment)
        for req in reqs:
            got, want = check(req, loaded), check(req, Trace(built.states))
            assert _same_verdict(got, want), (req, built)
    assert distinct_seen > 256 if pool_size > 256 else distinct_seen == pool_size


def test_check_reads_each_condition_once_per_distinct_line_of_a_loaded_trace(monkeypatch):
    """The benchmark counts condition reads by patching
    `patterns.eval_condition` while it checks every requirement, on a trace
    that `segments` and `evaluate_pattern` have already read. On a loaded
    trace, `check` reads through that name, at most once per condition and
    distinct line."""
    suite = load_suite(json.dumps({
        "conditions": {"p": "p", "s": "s || t", "q": "q && !p", "r": "r"},
        "requirements": [
            {"name": f"R{i}", "pattern": pattern, "scope": scope}
            for i, (pattern, scope) in enumerate(itertools.product(PATTERN_ENTRIES, SCOPE_ENTRIES))
        ],
    }))
    lines = ['["q"]', '["p"]', '["s"]', '["r"]', '["q","t"]', "[]"]
    rng = random.Random(7)
    text = "".join(rng.choice(lines) + "\n" for _ in range(2000))
    trace = load_trace(text)
    for req in suite.requirements:
        for segment in segments(req.scope, trace):
            evaluate_pattern(req.pattern, trace, segment)
    calls, verdicts = _counted_reads(monkeypatch, suite.requirements, trace)
    assert 0 < calls <= len(lines) * len(suite.conditions)
    assert verdicts == [check(req, Trace(trace.states)) for req in suite.requirements]


def _counted_reads(monkeypatch, reqs, trace) -> tuple[int, list]:
    """The verdicts of `reqs` on `trace`, and the `patterns.eval_condition`
    calls they made."""
    calls = 0
    inner = patterns.eval_condition

    def counting(expr, state):
        nonlocal calls
        calls += 1
        return inner(expr, state)

    with monkeypatch.context() as patched:
        patched.setattr(patterns, "eval_condition", counting)
        verdicts = [check(req, trace) for req in reqs]
    return calls, verdicts


def test_check_reads_loaded_lines_that_do_not_repeat_as_it_reads_built_states(monkeypatch):
    """Truth columns read every condition on every distinct line, which is
    waste when no line repeats: such a loaded trace is read position by
    position, with no more reads than the same states built."""
    suite = load_suite(json.dumps({
        "conditions": {"p": "p", "s": "s || t", "q": "q && !p", "r": "r"},
        "requirements": [
            {"name": f"R{i}", "pattern": pattern, "scope": scope}
            for i, (pattern, scope) in enumerate(itertools.product(PATTERN_ENTRIES, SCOPE_ENTRIES))
        ],
    }))
    rng = random.Random(11)
    # A filler atom no condition reads keeps every line distinct.
    built = Trace(State(random_state(rng, ("p", "q", "r", "s", "t")).atoms | {f"x{i}"}) for i in range(300))
    loaded = load_trace(write_trace(built))
    loaded_calls, loaded_verdicts = _counted_reads(monkeypatch, suite.requirements, loaded)
    built_calls, built_verdicts = _counted_reads(monkeypatch, suite.requirements, built)
    assert 0 < loaded_calls <= built_calls
    assert [dataclasses.astuple(v) for v in loaded_verdicts] == [dataclasses.astuple(v) for v in built_verdicts]


@pytest.mark.parametrize("distinct, lines, keeps", [
    (3, 6, True), (256, 512, True), (4, 7, False), (257, 514, False), (300, 600, False),
])
def test_a_loaded_trace_keeps_codes_only_with_few_distinct_lines_that_repeat(monkeypatch, distinct, lines, keeps):
    """`lines` lines that cycle through `distinct` states, shuffled. The
    loaded trace keeps its codes exactly when at most 256 of its lines, and
    at most half of them, are distinct: `check` then reads each condition
    once per distinct line, and otherwise exactly as it reads the same
    states built, once per position."""
    pool = [State({"p", f"x{i}"}) for i in range(distinct)]
    states = [pool[k % distinct] for k in range(lines)]
    random.Random(distinct).shuffle(states)
    built = Trace(states)
    loaded = load_trace(write_trace(built))
    assert (loaded._codes is not None) is keeps
    reqs = [Requirement("always_p", Universality(P), Globally()), Requirement("never_q", Absence(Q), Globally())]
    loaded_calls, loaded_verdicts = _counted_reads(monkeypatch, reqs, loaded)
    built_calls, built_verdicts = _counted_reads(monkeypatch, reqs, built)
    assert loaded_verdicts == built_verdicts == [Holds(vacuous=False)] * 2
    assert built_calls == 2 * lines
    assert loaded_calls == (2 * distinct if keeps else built_calls)


def test_check_carves_a_scope_too_deep_to_hash():
    """The carving memo never hashes a condition: a Python-built condition
    600 `And`s deep, past where dataclass `hash` overflows, still checks."""
    q = Q
    for _ in range(600):
        q = And(Q, q)
    req = Requirement("deep", Absence(P), Between(q, R))
    assert check(req, Trace.of({"q"}, {"p"}, {"r"}, {"q", "r"})) == Fails(segment=0, position=1)


def test_check_names_a_scope_it_cannot_carve():
    with pytest.raises(TypeError) as exc_info:
        check(Requirement("X", Absence(P), []), Trace.of({"p"}))
    assert str(exc_info.value) == "not a scope: []"


def test_map_conditions_renames_every_parameter():
    req = Requirement("x", Response(P, S), Between(Q, R))
    renamed = map_conditions(req, lambda c: Ref(c.name + "x"))
    assert renamed.pattern == Response(Ref("px"), Ref("sx"))
    assert renamed.scope == Between(Ref("qx"), Ref("rx"))


# --- Response and ResponseChain against the quadratic reference --------------

RESPONSE_PATTERNS = [
    Response(P, A),
    Response(P, A, strict=True),
    Response(P, P, strict=True),
    ResponseChain(P, [A]),
    ResponseChain(P, [P]),
    ResponseChain(P, [A, A]),
    ResponseChain(P, [P, A]),
    ResponseChain(P, [A, B]),
    ResponseChain(P, [A, P, A]),
    ResponseChain(P, [A, B, A]),
]
# The delimiters of the last two scopes are answer atoms too, so answers also
# fall on segment boundaries.
RESPONSE_SCOPES = [Globally(), Before(B), After(B), Between(B, A), AfterUntil(A, B)]


def _atoms_read(req: Requirement) -> list[str]:
    atoms = set()

    def collect(cond):
        atoms.update(condition_atoms(cond))
        return cond

    map_conditions(req, collect)
    return sorted(atoms)


def _same_verdict(got, want) -> bool:
    # Fails leaves its reason out of ==, so compare every field explicitly.
    return type(got) is type(want) and dataclasses.astuple(got) == dataclasses.astuple(want)


@pytest.mark.parametrize("scope", RESPONSE_SCOPES, ids=lambda s: type(s).__name__)
def test_response_patterns_match_reference_on_every_short_trace(scope):
    """Every trace up to length 4 over p, a, b, c, up to the atoms that a
    requirement does not read: a requirement sees a trace only through its
    own atoms, so enumerating those covers the rest."""
    for pattern in RESPONSE_PATTERNS:
        req = Requirement("r", pattern, scope)
        for trace in all_traces(_atoms_read(req), 4, min_len=0):
            got, want = check(req, trace), reference_check(req, trace)
            assert _same_verdict(got, want), (pattern, scope, trace)


def test_response_patterns_match_reference_on_random_traces():
    rng = random.Random(20261018)
    atoms = ("p", "a", "b", "c")
    for _ in range(4000):
        trace = random_trace(rng, atoms, max_len=40)
        p = random_condition(rng, atoms, depth=1)
        chain = [rng.choice([p, random_condition(rng, atoms, depth=1)]) for _ in range(rng.randint(1, 3))]
        pattern = rng.choice(
            [Response(p, chain[0]), Response(p, chain[0], strict=True), ResponseChain(p, chain)]
        )
        req = Requirement("r", pattern, random_scope(rng, atoms))
        got, want = check(req, trace), reference_check(req, trace)
        assert _same_verdict(got, want), (req, trace)


# --- every pattern against the reference, built and loaded -------------------

# Patterns of every kind over p, a and b, beside RESPONSE_PATTERNS.
OTHER_PATTERNS = [
    Absence(P),
    Universality(P),
    Existence(P),
    BoundedExistence(P, 0),
    BoundedExistence(P, 1),
    Precedence(A, P),
    Precedence(P, P),
    PrecedenceChain([A], P),
    PrecedenceChain([A, B], P),
    PrecedenceChain([A, P], P),
]


def _built_and_loaded(trace: Trace) -> tuple[Trace, Trace]:
    return Trace(trace.states), load_trace(write_trace(trace))


@pytest.mark.parametrize("scope", RESPONSE_SCOPES, ids=lambda s: type(s).__name__)
def test_every_pattern_matches_reference_on_every_short_trace(scope):
    """Every trace up to length 3 over the atoms a requirement reads, built
    and loaded: segment, position, reason and vacuity all agree."""
    for pattern in OTHER_PATTERNS:
        req = Requirement("r", pattern, scope)
        for trace in all_traces(_atoms_read(req), 3, min_len=0):
            want = reference_check(req, trace)
            for checked in _built_and_loaded(trace):
                assert _same_verdict(check(req, checked), want), (pattern, scope, trace)


def _random_case(rng: random.Random) -> tuple[Requirement, Trace]:
    """A requirement of any of the eight patterns and scope, on a short
    random trace over p, a, b and c."""
    atoms = ("p", "a", "b", "c")
    trace = random_trace(rng, atoms, max_len=24)
    p, s = (random_condition(rng, atoms, depth=1) for _ in range(2))
    chain = [rng.choice([p, s, random_condition(rng, atoms, depth=1)]) for _ in range(rng.randint(1, 3))]
    pattern = rng.choice([
        Absence(p), Universality(p), Existence(p), BoundedExistence(p, rng.randint(0, 2)), Precedence(s, p),
        Response(p, s, strict=rng.random() < 0.5), ResponseChain(p, chain), PrecedenceChain(chain, p),
    ])
    return Requirement("r", pattern, random_scope(rng, atoms)), trace


def _sparse_case(rng: random.Random) -> tuple[Requirement, Trace]:
    """A run pattern over p, under a scope of a ... b windows or of one
    segment, on 200 to 400 states: a window of 1 to 5 states opens every
    few states, and a few runs of p, placed anywhere, straddle window
    starts and ends."""
    n = rng.randint(200, 400)
    states: list[set] = []
    while len(states) < n:
        gap, inside = rng.randint(0, 2), rng.randint(0, 4)
        states += [set() for _ in range(gap)] + [{"a"}] + [set() for _ in range(inside)] + [{"b"}]
    states = states[:n]
    for _ in range(rng.randint(1, 4)):
        start = rng.randrange(n)
        for k in range(start, min(n, start + rng.randint(1, 6))):
            states[k].add("p")
    pattern = rng.choice([Absence(P), Universality(Not(P)), BoundedExistence(P, rng.randint(0, 3))])
    scope = rng.choice([Between(A, B), AfterUntil(A, B), Globally(), After(A)])
    return Requirement("r", pattern, scope), Trace.of(*states)


def test_every_pattern_matches_reference_on_random_traces():
    """Random requirements of all eight patterns on short random traces, and
    run patterns on long traces of many short windows with a few runs,
    built and loaded; the loaded ones repeat lines, so they are read
    through columns."""
    rng = random.Random(20261020)
    for case, count in ((_random_case, 2500), (_sparse_case, 300)):
        for _ in range(count):
            req, trace = case(rng)
            want = reference_check(req, trace)
            for checked in _built_and_loaded(trace):
                assert _same_verdict(check(req, checked), want), (req, trace)


def test_reference_segments_are_the_library_s():
    rng = random.Random(20261021)
    for _ in range(400):
        trace, scope = random_trace(rng, max_len=16), random_scope(rng)
        for checked in _built_and_loaded(trace):
            assert segments(scope, checked) == reference_segments(scope, trace), (scope, trace)


@pytest.mark.parametrize(
    "req, atom_sets, verdict",
    [
        # Before an r at 0 the one segment is empty: vacuous, not substantive.
        (Requirement("u", Universality(P), Before(R)), [{"r"}, {"p"}, {"p"}, {"p"}], Holds(vacuous=True)),
        # No p in [1, 4): the failure is at the segment's last position.
        (Requirement("e", Existence(P), After(Q)), [set(), {"q"}, set(), set()],
         Fails(0, 3, "no position satisfies the condition")),
        # a at 1 and no b before the p at 4: the failure is at the p.
        (Requirement("pc", PrecedenceChain([A, B], P), Globally()), [set(), {"a"}, set(), set(), {"p"}, set()],
         Fails(0, 4, "condition is not preceded by the full chain")),
    ],
    ids=["universality_vacuous", "existence_position", "precedence_chain_position"],
)
def test_pinned_verdicts_on_built_and_loaded_traces(req, atom_sets, verdict):
    """Each loaded trace here repeats its lines, so it is read through
    columns, and its built twin position by position."""
    for checked in _built_and_loaded(Trace.of(*atom_sets)):
        assert _same_verdict(check(req, checked), verdict)
        [segment] = segments(req.scope, checked)
        assert _same_verdict(evaluate_pattern(req.pattern, checked, segment), verdict)


@pytest.mark.parametrize(
    "pattern, verdict",
    [
        (Response(P, S), Holds(vacuous=False)),
        (Response(P, S, strict=True), Holds(vacuous=False)),
        (ResponseChain(P, [S]), Holds(vacuous=False)),
        (ResponseChain(P, [P, S]), Fails(0, 4999)),
        (ResponseChain(P, [P, P, S]), Fails(0, 4998)),
    ],
)
def test_response_patterns_evaluate_conditions_linearly(monkeypatch, pattern, verdict):
    """On p x 5,000 then s, the rescan per trigger makes about n^2/2 calls;
    the backward pass stays within a few calls per state. Every condition
    here is a Ref, so counting Ref.holds counts every evaluation."""
    trace = Trace.of(*[{"p"}] * 5000, {"s"})
    calls = 0
    inner = Ref.holds

    def counting(self, state):
        nonlocal calls
        calls += 1
        return inner(self, state)

    monkeypatch.setattr(Ref, "holds", counting)
    assert check(Requirement("r", pattern, Globally()), trace) == verdict
    per_state = 3 if isinstance(pattern, Response) else 2 + len(pattern.chain)
    assert 0 < calls <= per_state * len(trace)


def _sparse_runs(n: int) -> list[set]:
    """q ... r windows of 3 to 5 states, back to back, over the first half;
    then one whose p-run starts before it opens, p holding nowhere else but
    once more inside it; then nothing. The last window sits at n / 2, so a
    read up to it doubles with n."""
    last = [{"p"}, {"q", "p"}, set(), {"p"}, {"r"}]
    states, size = [], 3
    while len(states) + size + 1 <= n // 2:
        states += [{"q"}] + [set() for _ in range(size - 1)] + [{"r"}]
        size = 3 + (size - 2) % 3
    states += [set() for _ in range(n // 2 - len(states))] + last
    return states + [set() for _ in range(n - len(states))]


# Adversarial traces of length n for the linear-work tests, as atom sets by
# position. Patterns read p, s and the chain link a; scopes read q and r.
LINEAR_FAMILIES = {
    # A backlog of triggers that one s answers, then one that none answers.
    "unanswered_triggers": lambda n: [{"q"}] + [{"p"}] * (n // 2) + [{"s"}] + [{"p"}] * (n - n // 2 - 3) + [{"r"}],
    # A scope opening at every position, and none closing.
    "unclosed_openings": lambda n: [{"q", "p"} if i % 2 else {"q"} for i in range(n)],
    "alternating": lambda n: [{"q", "p"} if i % 2 else {"r", "s"} for i in range(n)],
    # Each p follows, and is followed by, the chain's first link; its second
    # link comes only at the end.
    "almost_chains": lambda n: [{"q"}] + [{"s"} if i % 2 else {"p"} for i in range(n - 2)] + [{"r", "a"}],
    "sparse_runs": _sparse_runs,
}
LINEAR_PATTERNS = [
    Absence(P), Universality(P), Existence(P), BoundedExistence(P, 2), Precedence(S, P), Response(P, S),
    Response(P, S, strict=True), ResponseChain(P, [S, A]), PrecedenceChain([S, A], P),
]
LINEAR_SCOPES = [Globally(), Before(R), After(Q), Between(Q, R), AfterUntil(Q, R)]


def test_check_reads_linearly_in_every_cell(monkeypatch):
    """On a built trace every condition read is one `patterns.eval_condition`
    call, so `_counted_reads` counts all of `check`'s work. In every cell, on
    each family, doubling the trace at most doubles the reads plus C, and a
    trace of n states takes at most K x n reads per condition. Measured at
    n = 200 and 1,000: at most 1.01 reads per state and condition, and 2n's
    reads exceed twice n's by at most 4, for universality under `between` on
    `alternating`, whose p fails between every two windows: the run scan
    reads each of those positions once."""
    n, K, C = 200, 2, 4
    for pattern, scope, (family, states) in itertools.product(LINEAR_PATTERNS, LINEAR_SCOPES, LINEAR_FAMILIES.items()):
        req = Requirement("r", pattern, scope)
        conditions = []
        map_conditions(req, lambda cond: conditions.append(cond) or cond)
        small, large = (_counted_reads(monkeypatch, [req], Trace.of(*states(size)))[0] for size in (n, 2 * n))
        cell = (TAGS[type(pattern)], getattr(pattern, "strict", False), TAGS[type(scope)], family, small, large)
        assert large <= 2 * small + C, cell
        assert small <= K * n * len(conditions) and large <= K * 2 * n * len(conditions), cell


def _counted_work(monkeypatch, req: Requirement, trace: Trace) -> tuple[int, int, list]:
    """`check`'s work on a trace read through columns, its scan calls, and
    its verdict. Each `find` or `rfind` call is charged once and for every
    position it passes, up to and including its answer or, on a miss, its
    whole span; each `patterns.eval_condition` call of a column build once."""
    calls = positions = 0

    def charged(scan, backward: bool):
        def counted(column, truth, lo, hi):
            nonlocal calls, positions
            k = scan(column, truth, lo, hi)
            calls += 1
            positions += max(0, hi - lo) if k < 0 else hi - k if backward else k - lo + 1
            return k

        return staticmethod(counted)

    with monkeypatch.context() as patched:
        patched.setattr(patterns._Columns, "find", charged(bytes.find, False))
        patched.setattr(patterns._Columns, "rfind", charged(bytes.rfind, True))
        reads, verdicts = _counted_reads(patched, [req], trace)
    return calls + positions + reads, calls, verdicts


def _loaded(states: list[set]) -> Trace:
    trace = load_trace(write_trace(Trace.of(*states)))
    assert trace._codes is not None, "read through columns"
    return trace


def test_check_works_linearly_on_loaded_traces_in_every_cell(monkeypatch):
    """A loaded trace whose lines repeat is read through columns, where
    `_counted_work` counts all of `check`'s work. In every cell, on each
    family, doubling the trace at most doubles the work plus C, and a trace
    of n states takes at most K x n work per condition. Measured at n = 200
    and 1,000: at most 1.35 work per state and condition, and 2n's work is
    at most twice n's less 1."""
    n, K, C = 200, 2, 4
    for pattern, scope, (family, states) in itertools.product(LINEAR_PATTERNS, LINEAR_SCOPES, LINEAR_FAMILIES.items()):
        req = Requirement("r", pattern, scope)
        conditions = []
        map_conditions(req, lambda cond: conditions.append(cond) or cond)
        small, large = (_counted_work(monkeypatch, req, _loaded(states(size)))[0] for size in (n, 2 * n))
        cell = (TAGS[type(pattern)], getattr(pattern, "strict", False), TAGS[type(scope)], family, small, large)
        assert large <= 2 * small + C, cell
        assert small <= K * n * len(conditions) and large <= K * 2 * n * len(conditions), cell


@pytest.mark.parametrize("scope", [Between(Q, R), AfterUntil(Q, R)], ids=["between", "after_until"])
def test_run_patterns_search_only_the_windows_that_hold_a_hit(monkeypatch, scope):
    """On `sparse_runs` only the last of many windows holds a p, in a run
    that starts before it opens: the run patterns search once past every
    window without a hit, so their scan calls do not grow with the trace.
    Universality of !p hits where p holds, as Absence of p does. The
    carving is memoized by a first check, so only the pattern is counted."""
    for pattern in (Absence(P), Universality(Not(P)), BoundedExistence(P, 2)):
        req = Requirement("r", pattern, scope)
        counts = []
        for size in (200, 400, 800):
            trace = _loaded(_sparse_runs(size))
            verdict = check(req, trace)
            _, calls, [again] = _counted_work(monkeypatch, req, trace)
            assert _same_verdict(again, verdict) and _same_verdict(verdict, reference_check(req, trace))
            counts.append(calls)
        assert counts[0] == counts[1] == counts[2] <= 5, (pattern, counts)
