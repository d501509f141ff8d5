import copy
import dataclasses
import itertools
import json
import pickle
import random
import re

import pytest

from reqpat.conditions import And, Not, Ref, Trace, condition_atoms
from reqpat.patterns import (
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
    Precedence,
    PrecedenceChain,
    Requirement,
    Response,
    ResponseChain,
    Universality,
    check,
    evaluate_pattern,
    map_conditions,
    segments,
)
from reqpat.suite import load_suite

from helpers import (
    all_traces,
    brute_precedence_chain_holds,
    brute_response_chain_holds,
    random_condition,
    random_scope,
    random_trace,
    reference_check,
)

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
        def counted(self, trace):
            carved.append(type(self))
            return method(self, trace)

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
    checked, unchecked = Trace.of({"q"}, {"p"}, {"r"}), Trace.of({"q"}, {"p"}, {"r"})
    for scope in (Globally(), Before(R), After(Q), Between(Q, R), AfterUntil(Q, R)):
        check(Requirement("x", Absence(P), scope), checked)
    assert checked == unchecked
    assert hash(checked) == hash(unchecked)
    assert repr(checked) == repr(unchecked)
    assert pickle.loads(pickle.dumps(checked)) == unchecked


def test_shared_carving_gives_the_verdicts_of_fresh_traces():
    """Random suites whose requirements share a few scopes, checked in
    shuffled order on one trace, give every verdict (segment, position,
    reason, vacuity) that a check on a fresh equal trace gives."""
    rng = random.Random(20261019)
    for _ in range(300):
        scopes = [random_scope(rng) for _ in range(rng.randint(1, 3))]
        conditions = [random_condition(rng, depth=1) for _ in range(3)]
        reqs = []
        for i in range(rng.randint(2, 10)):
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
        trace = random_trace(rng, max_len=12)
        for req in reqs:
            got, want = check(req, trace), check(req, Trace(trace.states))
            assert _same_verdict(got, want), (req, trace)


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
