import dataclasses
import random
import re

import pytest

from reqpat import patterns
from reqpat.conditions import Not, Ref, Trace, condition_atoms
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
    the backward pass stays within a few calls per state."""
    trace = Trace.of(*[{"p"}] * 5000, {"s"})
    calls = 0
    inner = patterns.eval_condition

    def counting(cond, state):
        nonlocal calls
        calls += 1
        return inner(cond, state)

    monkeypatch.setattr(patterns, "eval_condition", counting)
    assert check(Requirement("r", pattern, Globally()), trace) == verdict
    per_state = 3 if isinstance(pattern, Response) else 2 + len(pattern.chain)
    assert calls <= per_state * len(trace)
