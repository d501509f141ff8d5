"""Shared generators of the test modules. The oracles are in `reference.py`."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from reqpat.conditions import And, Condition, Const, Not, Or, Ref, State, Trace
from reqpat.patterns import After, AfterUntil, Before, Between, Globally, Scope
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


def random_scope(rng: random.Random, atoms=DEFAULT_ATOMS) -> Scope:
    q = random_condition(rng, atoms, 1)
    r = random_condition(rng, atoms, 1)
    return rng.choice([Globally(), Before(r), After(q), Between(q, r), AfterUntil(q, r)])


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
    return node(random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))


def state_universe(atoms) -> list[State]:
    """Every state over the given atoms, by number of atoms, then in order."""
    return [State(bits) for size in range(len(atoms) + 1) for bits in itertools.combinations(atoms, size)]


def all_traces(atoms, max_len: int, min_len: int = 1):
    """Every trace over the given atoms with length in [min_len, max_len]."""
    universe = state_universe(atoms)
    for length in range(min_len, max_len + 1):
        for combo in itertools.product(universe, repeat=length):
            yield Trace(combo)


def rarely(draw) -> bool:
    """True in one draw of six, for a `hypothesis` strategy that mostly
    builds a valid input and sometimes breaks it."""
    return draw(st.sampled_from([False, False, False, False, False, True]))
