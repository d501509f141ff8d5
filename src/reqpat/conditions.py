"""Propositional conditions over observation states, and finite traces of states.

A condition abstracts a named observation of the system under test: a state is
just the set of atom names that hold at one instant, and a condition is a
boolean expression over atom membership. Atoms absent from a state are false.
Each condition class evaluates itself: `cond.holds(state)` is the condition's
truth value in that state, and `eval_condition` is the checked entry point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

ATOM_RE = re.compile(r"[a-z_][a-z0-9_]*")


def is_valid_atom(name: str) -> bool:
    return bool(ATOM_RE.fullmatch(name))


def require_atom(name: str) -> str:
    if not is_valid_atom(name):
        raise ValueError(f"invalid atom name: {name!r}")
    return name


class Condition:
    """Base class for condition expressions. Subclasses are immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Condition):
    value: bool

    def holds(self, state: State) -> bool:
        return self.value


@dataclass(frozen=True)
class Ref(Condition):
    name: str

    def __post_init__(self) -> None:
        require_atom(self.name)

    def holds(self, state: State) -> bool:
        return self.name in state.atoms


@dataclass(frozen=True)
class Not(Condition):
    inner: Condition

    def holds(self, state: State) -> bool:
        return not self.inner.holds(state)


@dataclass(frozen=True)
class And(Condition):
    left: Condition
    right: Condition

    def holds(self, state: State) -> bool:
        return self.left.holds(state) and self.right.holds(state)


@dataclass(frozen=True)
class Or(Condition):
    left: Condition
    right: Condition

    def holds(self, state: State) -> bool:
        return self.left.holds(state) or self.right.holds(state)


@dataclass(frozen=True, init=False)
class State:
    """One observation instant: the set of atoms that hold."""

    atoms: frozenset[str]

    def __init__(self, atoms: Iterable[str] = ()):
        object.__setattr__(self, "atoms", frozenset(atoms))

    def __contains__(self, name: str) -> bool:
        return name in self.atoms


@dataclass(frozen=True, init=False)
class Trace:
    """A finite, possibly empty sequence of states, indexed from 0."""

    states: tuple[State, ...]

    def __init__(self, states: Iterable[State] = ()):
        object.__setattr__(self, "states", tuple(states))

    @classmethod
    def of(cls, *atom_sets: Iterable[str]) -> "Trace":
        return cls(State(atoms) for atoms in atom_sets)

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, index: int) -> State:
        return self.states[index]

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)


def eval_condition(expr: Condition, state: State) -> bool:
    """Evaluate a condition against one state. Total and deterministic."""
    if not isinstance(expr, Condition):
        raise TypeError(f"not a condition: {expr!r}")
    return expr.holds(state)


def condition_atoms(expr: Condition) -> frozenset[str]:
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Ref):
        return frozenset((expr.name,))
    if isinstance(expr, Not):
        return condition_atoms(expr.inner)
    if isinstance(expr, (And, Or)):
        return condition_atoms(expr.left) | condition_atoms(expr.right)
    raise TypeError(f"not a condition: {expr!r}")


# Printing / parsing of the condition text grammar:
#   expr := or ; or := and ('||' or)? ; and := unary ('&&' and)?
#   unary := '!' unary | 'true' | 'false' | atom | '(' expr ')'

_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_LEAF = 4


def format_condition(expr: Condition) -> str:
    """Render a condition in the text grammar; parse_condition inverts it."""
    return _format(expr, 0)


def _format(expr: Condition, ctx: int) -> str:
    if isinstance(expr, Const):
        return "true" if expr.value else "false"
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Not):
        return "!" + _format(expr.inner, _PREC_NOT)
    if isinstance(expr, And):
        text = _format(expr.left, _PREC_AND + 1) + " && " + _format(expr.right, _PREC_AND)
        return f"({text})" if ctx > _PREC_AND else text
    if isinstance(expr, Or):
        text = _format(expr.left, _PREC_OR + 1) + " || " + _format(expr.right, _PREC_OR)
        return f"({text})" if ctx > _PREC_OR else text
    raise TypeError(f"not a condition: {expr!r}")


class ConditionSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# Nesting bound of the parser, and so of every condition loaded from text.
# Hashing, comparing and printing a condition recurse through the interpreter
# at up to three stack levels per operator; the bound keeps all of them well
# inside its default recursion limit.
MAX_NESTING = 200


def parse_condition(text: str) -> Condition:
    parser = _ConditionParser(text)
    expr = parser.parse_or(0)
    parser.expect_end()
    return expr


class _ConditionParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _accept(self, literal: str) -> bool:
        self._skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def parse_or(self, depth: int) -> Condition:
        left = self.parse_and(depth + 1)
        if self._accept("||"):
            return Or(left, self.parse_or(depth + 1))
        return left

    def parse_and(self, depth: int) -> Condition:
        left = self.parse_unary(depth + 1)
        if self._accept("&&"):
            return And(left, self.parse_and(depth + 1))
        return left

    def parse_unary(self, depth: int) -> Condition:
        # Every descent of the parser passes through here.
        if depth > MAX_NESTING:
            raise ConditionSyntaxError("condition nests too deeply", self.pos)
        if self._accept("!"):
            return Not(self.parse_unary(depth + 1))
        if self._accept("("):
            inner = self.parse_or(depth + 1)
            if not self._accept(")"):
                raise ConditionSyntaxError("expected ')'", self.pos)
            return inner
        self._skip_ws()
        match = ATOM_RE.match(self.text, self.pos)
        if match is None:
            what = "end of input" if self.pos >= len(self.text) else f"{self.text[self.pos]!r}"
            raise ConditionSyntaxError(f"expected a condition, found {what}", self.pos)
        self.pos = match.end()
        word = match.group()
        if word == "true":
            return Const(True)
        if word == "false":
            return Const(False)
        return Ref(word)

    def expect_end(self) -> None:
        self._skip_ws()
        if self.pos < len(self.text):
            raise ConditionSyntaxError(f"unexpected trailing input {self.text[self.pos]!r}", self.pos)
