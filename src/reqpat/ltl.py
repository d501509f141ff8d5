"""Finite-trace linear temporal logic: syntax tree, parser, printer, evaluator,
and emission of pattern formulas.

The evaluator is deliberately independent of the pattern checker in
`patterns`: the two give the library a dual route to every verdict, and the
test suite holds them to exhaustive agreement. Formulas are interpreted over
finite, nonempty traces; strong next fails at the final state, weak next
succeeds there.

Formula text grammar (whitespace insignificant):

    formula := or_ ('->' formula)?          right-associative
    or_     := and_ ('||' or_)?
    and_    := temporal ('&&' and_)?
    temporal:= unary (('U' | 'W') temporal)?
    unary   := ('!' | 'X' | 'WX' | '<>' | 'F' | '[]' | 'G') unary | primary
    primary := 'true' | 'false' | atom | '(' formula ')'

Atoms match ``[a-z_][a-z0-9_]*``; `F`/`G` are accepted as input aliases for
`<>`/`[]`, which are the canonical output forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .conditions import ATOM_RE, MAX_NESTING, Condition, Const, Ref, Trace, require_atom
from .conditions import And as CondAnd
from .conditions import Not as CondNot
from .conditions import Or as CondOr
from .patterns import (
    Absence,
    After,
    AfterUntil,
    Before,
    Between,
    BoundedExistence,
    Existence,
    Globally,
    Precedence,
    Requirement,
    Response,
    Universality,
)


class Formula:
    """Base class for formula nodes. All nodes are immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueBool(Formula):
    pass


@dataclass(frozen=True)
class FalseBool(Formula):
    pass


@dataclass(frozen=True)
class Prop(Formula):
    name: str

    def __post_init__(self) -> None:
        require_atom(self.name)


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class WeakNext(Formula):
    operand: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True)
class Always(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class WeakUntil(Formula):
    left: Formula
    right: Formula


# --- parsing -----------------------------------------------------------------

class LtlSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_SYMBOLS = (
    ("<>", "EVENTUALLY"),
    ("[]", "ALWAYS"),
    ("&&", "AND"),
    ("||", "OR"),
    ("->", "IMPLIES"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("!", "NOT"),
)

_WORDS = {
    "X": "NEXT",
    "WX": "WNEXT",
    "F": "EVENTUALLY",
    "G": "ALWAYS",
    "U": "UNTIL",
    "W": "WUNTIL",
    "true": "TRUE",
    "false": "FALSE",
}

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        for literal, kind in _SYMBOLS:
            if text.startswith(literal, pos):
                tokens.append((kind, literal, pos))
                pos += len(literal)
                break
        else:
            match = _WORD_RE.match(text, pos)
            if match is None:
                raise LtlSyntaxError(f"unexpected character {ch!r}", pos)
            word = match.group()
            if word in _WORDS:
                tokens.append((_WORDS[word], word, pos))
            elif ATOM_RE.fullmatch(word):
                tokens.append(("ATOM", word, pos))
            else:
                raise LtlSyntaxError(f"invalid atom name {word!r}", pos)
            pos = match.end()
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def take(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    # Chains of unary and of binary operators are read in loops, so the
    # parser recurses only into parentheses; their nesting is bounded.

    def parse_formula(self, depth: int) -> Formula:
        operands = [self.parse_unary(depth)]
        ops: list[type] = []
        while self.peek()[0] in _BINARY_TOKENS:
            op = _BINARY_TOKENS[self.take()[0]]
            # Every binary operator associates to the right: reduce only
            # operators that bind more tightly.
            while ops and _BINARY[ops[-1]][1] > _BINARY[op][1]:
                _reduce(operands, ops)
            ops.append(op)
            operands.append(self.parse_unary(depth))
        while ops:
            _reduce(operands, ops)
        return operands[0]

    def parse_unary(self, depth: int) -> Formula:
        unary = []
        kind, text, pos = self.take()
        while kind in _UNARY_TOKENS:
            unary.append(_UNARY_TOKENS[kind])
            kind, text, pos = self.take()
        if kind == "LPAREN":
            if depth >= MAX_NESTING:
                raise LtlSyntaxError("formula nests too deeply", pos)
            formula = self.parse_formula(depth + 1)
            kind, _, pos = self.take()
            if kind != "RPAREN":
                raise LtlSyntaxError("expected ')'", pos)
        elif kind == "TRUE":
            formula = TrueBool()
        elif kind == "FALSE":
            formula = FalseBool()
        elif kind == "ATOM":
            formula = Prop(text)
        elif kind == "EOF":
            raise LtlSyntaxError("unexpected end of input", pos)
        else:
            raise LtlSyntaxError(f"unexpected token {text!r}", pos)
        for op in reversed(unary):
            formula = op(formula)
        return formula


def _reduce(operands: list[Formula], ops: list[type]) -> None:
    right = operands.pop()
    operands[-1] = ops.pop()(operands[-1], right)


_UNARY_TOKENS = {"NOT": Not, "NEXT": Next, "WNEXT": WeakNext, "EVENTUALLY": Eventually, "ALWAYS": Always}
_BINARY_TOKENS = {"IMPLIES": Implies, "OR": Or, "AND": And, "UNTIL": Until, "WUNTIL": WeakUntil}


def parse(text: str) -> Formula:
    """Parse formula text; parentheses nested more than MAX_NESTING deep are
    a syntax error."""
    parser = _Parser(text)
    formula = parser.parse_formula(0)
    kind, token_text, pos = parser.peek()
    if kind != "EOF":
        raise LtlSyntaxError(f"unexpected trailing token {token_text!r}", pos)
    return formula


# --- printing ----------------------------------------------------------------

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_TEMPORAL = 4
_PREC_UNARY = 5

_UNARY_TEXT = {Not: "!", Eventually: "<>", Always: "[]"}
# Letter operators need a following space so the result re-tokenizes.
_UNARY_SPACED = {Next: "X", WeakNext: "WX"}
_BINARY = {
    Implies: ("->", _PREC_IMPLIES),
    Or: ("||", _PREC_OR),
    And: ("&&", _PREC_AND),
    Until: ("U", _PREC_TEMPORAL),
    WeakUntil: ("W", _PREC_TEMPORAL),
}


def print_formula(formula: Formula) -> str:
    """Render with the minimum parentheses the grammar needs to re-parse it."""
    return _print(formula, 0)


def _print(formula: Formula, ctx: int) -> str:
    if isinstance(formula, TrueBool):
        return "true"
    if isinstance(formula, FalseBool):
        return "false"
    if isinstance(formula, Prop):
        return formula.name
    cls = type(formula)
    if cls in _UNARY_TEXT:
        return _UNARY_TEXT[cls] + _print(formula.operand, _PREC_UNARY)
    if cls in _UNARY_SPACED:
        return _UNARY_SPACED[cls] + " " + _print(formula.operand, _PREC_UNARY)
    if cls in _BINARY:
        op, prec = _BINARY[cls]
        text = _print(formula.left, prec + 1) + f" {op} " + _print(formula.right, prec)
        return f"({text})" if prec < ctx else text
    raise TypeError(f"not a formula: {formula!r}")


# --- evaluation --------------------------------------------------------------

def eval_ltlf(formula: Formula, trace: Trace, pos: int = 0) -> bool:
    """Evaluate a formula at a position of a nonempty finite trace.

    Semantics per operator, with n the trace length:
    X f holds iff pos+1 < n and f holds there; WX f iff pos+1 = n or f holds
    there; f U g iff g holds at some m >= pos with f at every [pos, m);
    f W g additionally holds when f holds at every [pos, n); <> and [] are
    the usual derived forms.
    """
    n = len(trace)
    if n == 0:
        raise ValueError("finite-trace semantics requires a nonempty trace")
    if not 0 <= pos < n:
        raise ValueError(f"position {pos} outside trace of length {n}")
    return _truth_all(formula, trace.states, {})[pos]


def _truth_all(formula: Formula, states: tuple, memo: dict[int, list[bool]]) -> list[bool]:
    """Truth value of the formula at every position, by backward induction.
    Shared subtrees (same object) are evaluated once per pass."""
    key = id(formula)
    cached = memo.get(key)
    if cached is None:
        handler = _EVALUATORS.get(type(formula))
        if handler is None:
            raise TypeError(f"not a formula: {formula!r}")
        cached = memo[key] = handler(formula, states, memo)
    return cached


def _eval_true(formula, states, memo):
    return [True] * len(states)


def _eval_false(formula, states, memo):
    return [False] * len(states)


def _eval_prop(formula, states, memo):
    name = formula.name
    return [name in state.atoms for state in states]


def _eval_not(formula, states, memo):
    return [not v for v in _truth_all(formula.operand, states, memo)]


def _eval_and(formula, states, memo):
    rights = _truth_all(formula.right, states, memo)
    return [a and b for a, b in zip(_truth_all(formula.left, states, memo), rights)]


def _eval_or(formula, states, memo):
    rights = _truth_all(formula.right, states, memo)
    return [a or b for a, b in zip(_truth_all(formula.left, states, memo), rights)]


def _eval_implies(formula, states, memo):
    rights = _truth_all(formula.right, states, memo)
    return [b or not a for a, b in zip(_truth_all(formula.left, states, memo), rights)]


def _eval_next(formula, states, memo):
    return _truth_all(formula.operand, states, memo)[1:] + [False]


def _eval_weak_next(formula, states, memo):
    return _truth_all(formula.operand, states, memo)[1:] + [True]


def _eval_eventually(formula, states, memo):
    out = []
    later = False
    for v in reversed(_truth_all(formula.operand, states, memo)):
        later = v or later
        out.append(later)
    out.reverse()
    return out


def _eval_always(formula, states, memo):
    out = []
    so_far = True
    for v in reversed(_truth_all(formula.operand, states, memo)):
        so_far = v and so_far
        out.append(so_far)
    out.reverse()
    return out


def _until_scan(formula, states, memo, beyond_end: bool):
    lefts = _truth_all(formula.left, states, memo)
    rights = _truth_all(formula.right, states, memo)
    out = []
    nxt = beyond_end
    for a, b in zip(reversed(lefts), reversed(rights)):
        nxt = b or (a and nxt)
        out.append(nxt)
    out.reverse()
    return out


def _eval_until(formula, states, memo):
    return _until_scan(formula, states, memo, beyond_end=False)


def _eval_weak_until(formula, states, memo):
    # W tolerates running off the end of the trace, U does not.
    return _until_scan(formula, states, memo, beyond_end=True)


_EVALUATORS = {
    TrueBool: _eval_true,
    FalseBool: _eval_false,
    Prop: _eval_prop,
    Not: _eval_not,
    And: _eval_and,
    Or: _eval_or,
    Implies: _eval_implies,
    Next: _eval_next,
    WeakNext: _eval_weak_next,
    Eventually: _eval_eventually,
    Always: _eval_always,
    Until: _eval_until,
    WeakUntil: _eval_weak_until,
}


# --- emission ----------------------------------------------------------------

class UnsupportedPattern(ValueError):
    """The pattern/scope combination has no emitted formula."""


def condition_formula(cond: Condition) -> Formula:
    """Embed a propositional condition into the formula language."""
    if isinstance(cond, Const):
        return TrueBool() if cond.value else FalseBool()
    if isinstance(cond, Ref):
        return Prop(cond.name)
    if isinstance(cond, CondNot):
        return Not(condition_formula(cond.inner))
    if isinstance(cond, CondAnd):
        return And(condition_formula(cond.left), condition_formula(cond.right))
    if isinstance(cond, CondOr):
        return Or(condition_formula(cond.left), condition_formula(cond.right))
    raise TypeError(f"not a condition: {cond!r}")


def _conj(*parts: Formula) -> Formula:
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = And(part, out)
    return out


def _bounded_globally(p: Formula, k: int) -> Formula:
    # F(0) = [](!p); F(k) = !p W (p W F(k-1))
    not_p = Not(p)
    out: Formula = Always(not_p)
    for _ in range(k):
        out = WeakUntil(not_p, WeakUntil(p, out))
    return out


def _bounded_window_seed(p: Formula, r: Formula, k: int, weak: bool) -> Formula:
    """Block-count check started at a window-opening position (where r may
    coincide with the opener and is therefore not inspected). The window
    closes at the first later r; with `weak` it may instead run to the end
    of the trace. A gap continuation allows `budget` further block starts;
    a block continuation is inside a block with `budget` starts after it.
    """
    step = WeakNext if weak else Next
    link = WeakUntil if weak else Until
    not_p, not_r = Not(p), Not(r)
    in_gap = And(not_p, not_r)
    in_block = And(p, not_r)

    def gap(budget: int) -> Formula:
        if budget == 0:
            return link(in_gap, r)
        return link(in_gap, Or(r, _conj(p, not_r, block(budget - 1))))

    def block(budget: int) -> Formula:
        return link(in_block, Or(r, _conj(not_p, not_r, gap(budget))))

    if k == 0:
        return And(not_p, step(gap(0)))
    return And(Implies(p, step(block(k - 1))), Implies(not_p, step(gap(k))))


def _anchored_never(q: Formula, r: Formula, fail_at_opener: Formula) -> Formula:
    """No segment fails, anchored at the points where the cursor scan restarts.

    Starting from position 0 or from any r-position, the next segment opens
    either at the anchor itself (when it carries q) or at the first later
    q-position reached without crossing another restart point; later openers
    that coincide with an r are left to that r's own anchor. `fail_at_opener`
    is the failure condition evaluated at the opener. Anchoring at exactly
    the restart points is what ties the formula to the first-delimiter
    segment semantics rather than to every delimiter occurrence.
    """
    fail = Or(
        And(q, fail_at_opener),
        And(
            Not(q),
            Next(Until(And(Not(q), Not(r)), _conj(q, Not(r), fail_at_opener))),
        ),
    )
    return And(Not(fail), Always(Implies(r, Not(fail))))


def emit_ltl(req: Requirement) -> Formula:
    """Emit the temporal-logic formula for a core pattern x scope instance.

    The emitted formula agrees with `patterns.check` on every finite trace
    over the referenced atoms; the scoped formulations are the ones that
    match the cursor-based segment semantics (segments open at the first
    delimiter occurrence after the previous close, not at every occurrence),
    and the suite enforces the agreement by exhaustive enumeration.
    """
    pattern = req.pattern
    scope = req.scope

    if isinstance(pattern, Response) and pattern.strict and not isinstance(scope, Globally):
        raise UnsupportedPattern("strict response is only emitted under the global scope")

    if isinstance(scope, Globally):
        return _emit_global(pattern)
    if isinstance(scope, Before):
        return _emit_before(pattern, condition_formula(scope.r))
    if isinstance(scope, After):
        return _emit_after(pattern, condition_formula(scope.q))
    if isinstance(scope, Between):
        return _emit_between(pattern, condition_formula(scope.q), condition_formula(scope.r))
    if isinstance(scope, AfterUntil):
        return _emit_after_until(pattern, condition_formula(scope.q), condition_formula(scope.r))
    raise TypeError(f"not a scope: {scope!r}")


def _pattern_parts(pattern) -> tuple[Formula, Formula | None]:
    if isinstance(pattern, (Absence, Universality, Existence, BoundedExistence)):
        return condition_formula(pattern.p), None
    if isinstance(pattern, (Precedence, Response)):
        return condition_formula(pattern.p), condition_formula(pattern.s)
    raise UnsupportedPattern(f"no emitted formula for {type(pattern).__name__}")


def _emit_global(pattern) -> Formula:
    p, s = _pattern_parts(pattern)
    if isinstance(pattern, Absence):
        return Always(Not(p))
    if isinstance(pattern, Universality):
        return Always(p)
    if isinstance(pattern, Existence):
        return Eventually(p)
    if isinstance(pattern, BoundedExistence):
        return _bounded_globally(p, pattern.k)
    if isinstance(pattern, Precedence):
        return WeakUntil(Not(p), s)
    assert isinstance(pattern, Response) and s is not None
    if pattern.strict:
        return Always(Implies(p, Next(Eventually(s))))
    return Always(Implies(p, Eventually(s)))


def _emit_before(pattern, r: Formula) -> Formula:
    p, s = _pattern_parts(pattern)
    if isinstance(pattern, Absence):
        return Implies(Eventually(r), Until(Not(p), r))
    if isinstance(pattern, Universality):
        return Implies(Eventually(r), Until(p, r))
    if isinstance(pattern, Existence):
        return WeakUntil(Not(r), And(p, Not(r)))
    if isinstance(pattern, BoundedExistence):
        return Implies(Eventually(r), Or(r, _bounded_window_seed(p, r, pattern.k, weak=False)))
    if isinstance(pattern, Precedence):
        assert s is not None
        return Implies(Eventually(r), Until(Not(p), Or(s, r)))
    assert isinstance(pattern, Response) and s is not None
    return Implies(Eventually(r), Until(Implies(p, Until(Not(r), And(s, Not(r)))), r))


def _emit_after(pattern, q: Formula) -> Formula:
    p, s = _pattern_parts(pattern)
    if isinstance(pattern, Absence):
        return Always(Implies(q, Always(Not(p))))
    if isinstance(pattern, Universality):
        return Always(Implies(q, Always(p)))
    if isinstance(pattern, Existence):
        return Or(Always(Not(q)), Eventually(And(q, Eventually(p))))
    if isinstance(pattern, BoundedExistence):
        return Always(Implies(q, _bounded_globally(p, pattern.k)))
    if isinstance(pattern, Precedence):
        assert s is not None
        return WeakUntil(Not(q), And(q, WeakUntil(Not(p), s)))
    assert isinstance(pattern, Response) and s is not None
    return Always(Implies(q, Always(Implies(p, Eventually(s)))))


def _answered_within(s: Formula, r: Formula) -> Formula:
    # From a position inside a window: s occurs before the window closes.
    return Until(Not(r), And(s, Not(r)))


def _emit_between(pattern, q: Formula, r: Formula) -> Formula:
    p, s = _pattern_parts(pattern)
    closed = Next(Eventually(r))
    if isinstance(pattern, Absence):
        return Always(Implies(q, Implies(closed, And(Not(p), Next(Until(Not(p), r))))))
    if isinstance(pattern, Universality):
        return Always(Implies(q, Implies(closed, And(p, Next(Until(p, r))))))
    if isinstance(pattern, Existence):
        fail = _conj(Not(p), Next(Until(And(Not(p), Not(r)), r)))
        return _anchored_never(q, r, fail)
    if isinstance(pattern, BoundedExistence):
        return Always(Implies(q, Implies(closed, _bounded_window_seed(p, r, pattern.k, weak=False))))
    if isinstance(pattern, Precedence):
        assert s is not None
        fail = And(
            Not(s),
            Or(
                And(p, Next(Eventually(r))),
                Next(Until(And(Not(s), Not(r)), _conj(p, Not(s), Not(r), Eventually(r)))),
            ),
        )
        return _anchored_never(q, r, fail)
    assert isinstance(pattern, Response) and s is not None
    answered = _answered_within(s, r)
    return Always(
        Implies(
            q,
            Implies(
                closed,
                And(
                    Implies(p, Or(s, Next(answered))),
                    Next(Until(Implies(p, answered), r)),
                ),
            ),
        )
    )


def _emit_after_until(pattern, q: Formula, r: Formula) -> Formula:
    p, s = _pattern_parts(pattern)
    if isinstance(pattern, Absence):
        return Always(Implies(q, And(Not(p), WeakNext(WeakUntil(Not(p), r)))))
    if isinstance(pattern, Universality):
        return Always(Implies(q, And(p, WeakNext(WeakUntil(p, r)))))
    if isinstance(pattern, Existence):
        fail = _conj(Not(p), WeakNext(WeakUntil(And(Not(p), Not(r)), r)))
        return _anchored_never(q, r, fail)
    if isinstance(pattern, BoundedExistence):
        return Always(Implies(q, _bounded_window_seed(p, r, pattern.k, weak=True)))
    if isinstance(pattern, Precedence):
        assert s is not None
        fail = And(
            Not(s),
            Or(p, Next(Until(And(Not(s), Not(r)), _conj(p, Not(s), Not(r))))),
        )
        return _anchored_never(q, r, fail)
    assert isinstance(pattern, Response) and s is not None
    answered = _answered_within(s, r)
    return Always(
        Implies(
            q,
            And(
                Implies(p, Or(s, Next(answered))),
                WeakNext(WeakUntil(Implies(p, answered), r)),
            ),
        )
    )
