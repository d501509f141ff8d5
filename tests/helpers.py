"""Shared generators and independent oracles used across the test modules."""

from __future__ import annotations

import dataclasses
import itertools
import random

from reqpat.conditions import And, Condition, Const, Not, Or, Ref, State, Trace
from reqpat.patterns import (
    After,
    AfterUntil,
    Before,
    Between,
    Fails,
    Globally,
    Holds,
    Requirement,
    Response,
    Scope,
    Verdict,
    eval_condition,
    segments,
)
from reqpat import ltl

DEFAULT_ATOMS = ("p", "q", "r", "s")


def random_state(rng: random.Random, atoms=DEFAULT_ATOMS, density: float = 0.4) -> State:
    return State(a for a in atoms if rng.random() < density)


def random_trace(rng: random.Random, atoms=DEFAULT_ATOMS, max_len: int = 8, min_len: int = 0) -> Trace:
    length = rng.randint(min_len, max_len)
    return Trace(random_state(rng, atoms) for _ in range(length))


def random_condition(rng: random.Random, atoms=DEFAULT_ATOMS, depth: int = 3) -> Condition:
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.1:
            return Const(rng.random() < 0.5)
        return Ref(rng.choice(atoms))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(random_condition(rng, atoms, depth - 1))
    if kind == 1:
        return And(random_condition(rng, atoms, depth - 1), random_condition(rng, atoms, depth - 1))
    return Or(random_condition(rng, atoms, depth - 1), random_condition(rng, atoms, depth - 1))


def truth(cond: Condition, atoms: frozenset[str]) -> bool:
    """A condition's truth value over a set of true atoms, by structural
    pattern matching: independent of the library's `holds` methods."""
    match cond:
        case Const(value):
            return value
        case Ref(name):
            return name in atoms
        case Not(inner):
            return not truth(inner, atoms)
        case And(left, right):
            return truth(left, atoms) and truth(right, atoms)
        case Or(left, right):
            return truth(left, atoms) or truth(right, atoms)
    raise AssertionError(f"unexpected condition {cond!r}")


def random_scope(rng: random.Random, atoms=DEFAULT_ATOMS) -> Scope:
    q = random_condition(rng, atoms, 1)
    r = random_condition(rng, atoms, 1)
    return rng.choice(
        [Globally(), Before(r), After(q), Between(q, r), AfterUntil(q, r)]
    )


def random_formula(rng: random.Random, atoms=DEFAULT_ATOMS, depth: int = 5) -> ltl.Formula:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.08:
            return ltl.TrueBool()
        if roll < 0.16:
            return ltl.FalseBool()
        return ltl.Prop(rng.choice(atoms))
    unary = (ltl.Not, ltl.Next, ltl.WeakNext, ltl.Eventually, ltl.Always)
    binary = (ltl.And, ltl.Or, ltl.Implies, ltl.Until, ltl.WeakUntil)
    if rng.random() < 0.5:
        node = rng.choice(unary)
        return node(random_formula(rng, atoms, depth - 1))
    node = rng.choice(binary)
    return node(
        random_formula(rng, atoms, depth - 1),
        random_formula(rng, atoms, depth - 1),
    )


def all_traces(atoms, max_len: int, min_len: int = 1):
    """Every trace over the given atoms with length in [min_len, max_len]."""
    universe = [
        State(frozenset(bits))
        for size in range(len(atoms) + 1)
        for bits in itertools.combinations(atoms, size)
    ]
    for length in range(min_len, max_len + 1):
        for combo in itertools.product(universe, repeat=length):
            yield Trace(combo)


def chain_positions_exist(trace: Trace, chain, start: int, stop: int) -> bool:
    """Brute-force subsequence search: do strictly increasing positions
    k1 < ... < km in (start, stop) exist with chain[i] true at each k_i? Built
    on raw combinations, independently of the library's greedy matcher."""
    positions = range(start + 1, stop)
    m = len(chain)
    for combo in itertools.combinations(positions, m):
        if all(eval_condition(cond, trace[pos]) for cond, pos in zip(chain, combo)):
            return True
    return False


def brute_response_chain_holds(trace: Trace, p, chain, segment) -> bool:
    lo, hi = segment
    return all(
        chain_positions_exist(trace, chain, k, hi)
        for k in range(lo, hi)
        if eval_condition(p, trace[k])
    )


def brute_precedence_chain_holds(trace: Trace, chain, p, segment) -> bool:
    lo, hi = segment
    first_p = next((k for k in range(lo, hi) if eval_condition(p, trace[k])), None)
    if first_p is None:
        return True
    return chain_positions_exist(trace, chain, lo - 1, first_p)


def reference_response_verdict(pattern, trace: Trace, segment) -> Verdict:
    """Response and ResponseChain on one segment, straight from their
    definition: every trigger rescans forward for its own answer, so this is
    quadratic in the segment length. The reference for evaluate_pattern."""
    lo, hi = segment
    triggered = False
    for k in range(lo, hi):
        if not eval_condition(pattern.p, trace[k]):
            continue
        triggered = True
        if isinstance(pattern, Response):
            start = k + 1 if pattern.strict else k
            if not any(eval_condition(pattern.s, trace[j]) for j in range(start, hi)):
                return Fails(0, k, "trigger is never answered within the segment")
            continue
        cursor = k
        for link in pattern.chain:
            cursor = next((j for j in range(cursor + 1, hi) if eval_condition(link, trace[j])), None)
            if cursor is None:
                return Fails(0, k, "trigger is not followed by the full chain")
    return Holds(vacuous=not triggered)


def reference_check(req: Requirement, trace: Trace) -> Verdict:
    """patterns.check with reference_response_verdict as the pattern semantics."""
    verdicts = []
    for idx, seg in enumerate(segments(req.scope, trace)):
        verdict = reference_response_verdict(req.pattern, trace, seg)
        if isinstance(verdict, Fails):
            return dataclasses.replace(verdict, segment=idx)
        verdicts.append(verdict)
    return Holds(vacuous=all(v.vacuous for v in verdicts))
