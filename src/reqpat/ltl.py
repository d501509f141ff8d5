"""Finite-trace linear temporal logic: syntax tree, text grammar, evaluator,
and emission of pattern formulas from a table of templates.

The evaluator is deliberately independent of the pattern checker in
`patterns`: the two give the library a dual route to every verdict, and the
test suite holds them to exhaustive agreement. Formulas are interpreted over
finite, nonempty traces; strong next fails at the final state, weak next
succeeds there.

A condition is a formula. The condition classes of `conditions` (`Const`,
`Ref`, `Not`, `And`, `Or`) are the propositional nodes of the formula
grammar, and this module adds the seven temporal ones; all of them derive
from `conditions.Formula`. `FORMULAS` and `conditions.CONDITIONS` are two
tables read and written by the one engine of `conditions.Grammar`, so a
condition prints and parses as the same text in both.

Evaluation is bit-parallel. A formula is compiled once, on its first
evaluation, by the grammar engine (`FORMULAS.compile`) into a flat program
with one instruction per structurally distinct subformula, and the program
is generated into one straight-line Python function: a single pass over the
trace builds every atom's mask, then one assignment per instruction computes
that subformula's truth at every position as one integer mask. Next is a
shift, eventually and always take the lowest set bit, and until is one
addition. Nothing is kept on a node: the function and the printed text are
kept beside the formula, in a bounded table whose entry holds the formula
itself, and the function is shared through a second bounded table keyed by
the program, so formulas with equal programs, such as two emissions of one
requirement, generate it once. No expression nests per formula level and
neither compiling nor generating recurses, so a formula of any depth
evaluates; printing does not recurse either.

Emission reads one table of requirement templates: for each (pattern tag,
scope tag) cell of the `patterns` catalogue, formula text over placeholders
for the requirement's conditions, compiled on first use and instantiated by
building its program with the requirement's own condition object in each
placeholder's place. One rule bounds what is emitted: the printed formula
must parse back, so a formula whose parentheses nest more than MAX_NESTING
deep is unsupported.

Formula text grammar (whitespace insignificant):

    formula := or_ ('->' formula)?          right-associative
    or_     := and_ ('||' or_)?
    and_    := temporal ('&&' and_)?
    temporal:= unary (('U' | 'W') temporal)?
    unary   := ('!' | 'X' | 'WX' | '<>' | 'F' | '[]' | 'G') unary | primary
    primary := 'true' | 'false' | atom | '(' formula ')'

Atoms match ``[a-z_][a-z0-9_]*``; `F`/`G` are accepted as input aliases for
`<>`/`[]`, which are the canonical output forms. Parentheses nest at most
MAX_NESTING deep.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache
from typing import Callable

from .conditions import CONDITIONS, MAX_NESTING, And, Const, Formula, Grammar, Not, Or, Ref, Trace
from .patterns import TAGS, Requirement, parameters


# The temporal nodes. The propositional ones are the condition classes.

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


# --- text --------------------------------------------------------------------

class LtlSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


FORMULAS = Grammar(
    noun="formula",
    error=LtlSyntaxError,
    atom=Ref,
    constants=CONDITIONS.constants,
    prefix={"!": Not, "<>": Eventually, "F": Eventually, "[]": Always, "G": Always, "X": Next, "WX": WeakNext},
    infix={"->": (Implies, 1), "||": (Or, 2), "&&": (And, 3), "U": (Until, 4), "W": (WeakUntil, 4)},
    nesting=(0, 0, 1),
)


def parse(text: str) -> Formula:
    """Parse formula text; parentheses nested more than MAX_NESTING deep are
    a syntax error."""
    return FORMULAS.parse(text)


def print_formula(formula: Formula) -> str:
    """Render with the minimum parentheses the grammar needs to re-parse it."""
    return _rendering(formula)[0]


# --- what is derived from a formula ------------------------------------------
#
# Kept beside a formula, never on it, in two tables. `_DERIVED` maps a
# formula's id to [formula, run, rendered]: its generated function and its
# printed text with that text's parenthesis depth, each None until first
# needed. The first item keeps the formula alive, so its id is not reused
# while the entry lives. A copy or a pickle gets an entry of its own.
# `_RUNNERS` maps a program to its generated function, so that equal programs
# share one. Both are bounded like `re`'s pattern cache, which drops its
# oldest entry when full: a process evaluates a few dozen distinct formulas
# (a suite's requirements, the 40 cells of the crosscheck).

_DERIVED: dict[int, list] = {}
_RUNNERS: dict[tuple[tuple, ...], Callable[[tuple, int], int]] = {}
_MAX_ENTRIES = 64
_LOCK = threading.Lock()


def _cached(table: dict, key, make: Callable):
    """The table's value for the key, made on a miss. The lock makes the
    look-up, eviction and insertion one step; evaluation takes it only when
    a formula's entry or its function is missing."""
    with _LOCK:
        value = table.get(key)
        if value is None:
            if len(table) >= _MAX_ENTRIES:
                del table[next(iter(table))]
            value = table[key] = make()
    return value


def _derived(formula: Formula) -> list:
    """The formula's entry, made on its first use."""
    if not isinstance(formula, Formula):
        raise TypeError(f"not a formula: {formula!r}")
    return _cached(_DERIVED, id(formula), lambda: [formula, None, None])


def _rendering(formula: Formula) -> tuple[str, int]:
    """The printed text and its parenthesis depth, rendered once."""
    entry = _derived(formula)
    if entry[2] is None:
        entry[2] = FORMULAS.render(formula)
    return entry[2]


# --- evaluation --------------------------------------------------------------
#
# A subformula's truth over a trace of length n is one int mask, with position
# i at bit n-1-i: later positions are lower bits.

# Each instruction's mask as one expression over the masks m{a} and m{b} of
# its operands' slots and the mask `full` of every position, by node class.
# Until's backward induction u[i] = b[i] | (a[i] & u[i+1]) is a carry chain
# from bit 0 upwards in t + b, with t = a | b: b generates, a propagates.
# Where a holds and b does not, t's bit is 1 and b's is 0, so the sum's bit
# is the carry inverted. W carries one in from beyond the end of the trace.
# Eventually holds at every position at or before the last one where its
# operand holds, the lowest set bit and all above it; always on the run of
# set bits ending at the last position.
_EXPRESSIONS = {
    "true": "full",
    "false": "0",
    Not: "full ^ m{a}",
    And: "m{a} & m{b}",
    Or: "m{a} | m{b}",
    Implies: "(full ^ m{a}) | m{b}",
    Next: "(m{a} << 1) & full",
    WeakNext: "((m{a} << 1) & full) | 1",
    Eventually: "full & -(m{a} & -m{a})",
    Always: "m{a} & ~(m{a} + 1)",
    Until: "(t := m{a} | m{b}) & (m{b} | ~(t + m{b}))",
    WeakUntil: "(t := m{a} | m{b}) & (m{b} | ~(t + m{b} + 1))",
}


def _generate(program: tuple[tuple, ...]) -> Callable[[tuple, int], int]:
    """The program as one straight-line function of a trace's states and
    its full mask, returning the root's mask. A Ref instruction's mask is
    built in one loop over the states shared by every atom; each other
    instruction is one flat assignment, a constant's by its token. Atom
    names enter the source only through repr."""
    atoms = [(slot, name) for slot, (op, name, _) in enumerate(program) if op is Ref]
    lines = ["def run(states, full):"]
    if atoms:
        lines += [f"    m{slot} = 0" for slot, _ in atoms]
        lines += ["    for state in states:", "        atoms = state.atoms"]
        lines += [f"        m{slot} = (m{slot} << 1) | ({name!r} in atoms)" for slot, name in atoms]
    lines += [
        f"    m{slot} = {_EXPRESSIONS[a if op is Const else op].format(a=a, b=b)}"
        for slot, (op, a, b) in enumerate(program)
        if op is not Ref
    ]
    lines.append(f"    return m{len(program) - 1}")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<ltl program>", "exec"), namespace)
    return namespace["run"]


def eval_ltlf(formula: Formula, trace: Trace, pos: int = 0) -> bool:
    """Evaluate a formula at a position of a nonempty finite trace.

    Semantics per operator, with n the trace length:
    X f holds iff pos+1 < n and f holds there; WX f iff pos+1 = n or f holds
    there; f U g iff g holds at some m >= pos with f at every [pos, m);
    f W g additionally holds when f holds at every [pos, n); <> and [] are
    the usual derived forms.
    """
    # `_derived`'s look-up, inlined: evaluation is the hot path.
    entry = _DERIVED.get(id(formula)) or _derived(formula)
    states = trace.states
    n = len(states)
    if n == 0:
        raise ValueError("finite-trace semantics requires a nonempty trace")
    if not 0 <= pos < n:
        raise ValueError(f"position {pos} outside trace of length {n}")
    run = entry[1]
    if run is None:
        program = FORMULAS.compile(formula)
        run = entry[1] = _cached(_RUNNERS, program, lambda: _generate(program))
    return bool(run(states, (1 << n) - 1) >> (n - 1 - pos) & 1)


# --- emission ----------------------------------------------------------------

class UnsupportedPattern(ValueError):
    """The pattern/scope combination has no emitted formula."""


# Bounded existence's formula grows with k, so its cells generate a block b
# from the slots p, r and k.

def _bounded_globally(slots: dict) -> Formula:
    # F(0) = [](!p); F(k) = !p W (p W F(k-1))
    not_p = Not(slots["p"])
    out: Formula = Always(not_p)
    for _ in range(slots["k"]):
        out = WeakUntil(not_p, WeakUntil(slots["p"], out))
    return out


def _bounded_window_seed(slots: dict, weak: bool = False) -> Formula:
    """Block-count check started at a window-opening position (where r may
    coincide with the opener and is therefore not inspected). The window
    closes at the first later r; with `weak` it may instead run to the end
    of the trace. A gap continuation allows `budget` further block starts;
    a block continuation is inside a block with `budget` starts after it.
    Both are built upwards from budget 0, so that gap(budget) contains
    block(budget - 1) and gap(k) contains the block(k - 1) the seed needs.
    """
    p, r, k = slots["p"], slots["r"], slots["k"]
    step = WeakNext if weak else Next
    link = WeakUntil if weak else Until
    not_p, not_r = Not(p), Not(r)
    in_gap = And(not_p, not_r)
    in_block = And(p, not_r)
    gap = link(in_gap, r)
    for _ in range(k):
        block = link(in_block, Or(r, And(not_p, And(not_r, gap))))
        gap = link(in_gap, Or(r, And(p, And(not_r, block))))
    if k == 0:
        return And(not_p, step(gap))
    return And(Implies(p, step(block)), Implies(not_p, step(gap)))


def _anchored(fail_at_opener: str) -> str:
    """No segment fails, anchored at the points where the cursor scan restarts.

    Starting from position 0 or from any r-position, the next segment opens
    either at the anchor itself (when it carries q) or at the first later
    q-position reached without crossing another restart point; later openers
    that coincide with an r are left to that r's own anchor. The argument
    is the failure condition evaluated at the opener. Anchoring at exactly
    the restart points is what ties the formula to the first-delimiter
    segment semantics rather than to every delimiter occurrence.
    """
    f = f"({fail_at_opener})"
    fail = f"q && {f} || !q && X ((!q && !r) U (q && !r && {f}))"
    return f"!({fail}) && [](r -> !({fail}))"


# The library of requirement templates: one formula per (pattern tag, scope
# tag) cell of the catalogue, with strict response as a pattern of its own.
# A cell is formula text over the placeholders p, s, q and r, which stand for
# the requirement's conditions of those names; a bounded-existence cell pairs
# its text with the generator of its block b. A cell absent here (the chains
# under every scope, strict response outside globally) has no formula.
_TEMPLATES: dict[tuple[str, str], str | tuple[str, Callable[[dict], Formula]]] = {
    ("absence", "globally"): "[]!p",
    ("universality", "globally"): "[]p",
    ("existence", "globally"): "<>p",
    ("bounded_existence", "globally"): ("b", _bounded_globally),
    ("precedence", "globally"): "!p W s",
    ("response", "globally"): "[](p -> <>s)",
    ("strict_response", "globally"): "[](p -> X <>s)",
    ("absence", "before"): "<>r -> !p U r",
    ("universality", "before"): "<>r -> p U r",
    ("existence", "before"): "!r W (p && !r)",
    ("bounded_existence", "before"): ("<>r -> r || b", _bounded_window_seed),
    ("precedence", "before"): "<>r -> !p U (s || r)",
    ("response", "before"): "<>r -> (p -> !r U (s && !r)) U r",
    ("absence", "after"): "[](q -> []!p)",
    ("universality", "after"): "[](q -> []p)",
    ("existence", "after"): "[]!q || <>(q && <>p)",
    ("bounded_existence", "after"): ("[](q -> b)", _bounded_globally),
    ("precedence", "after"): "!q W (q && !p W s)",
    ("response", "after"): "[](q -> [](p -> <>s))",
    # Under between, X <>r: the segment opened at q closes.
    ("absence", "between"): "[](q -> X <>r -> !p && X (!p U r))",
    ("universality", "between"): "[](q -> X <>r -> p && X (p U r))",
    ("existence", "between"): _anchored("!p && X ((!p && !r) U r)"),
    ("bounded_existence", "between"): ("[](q -> X <>r -> b)", _bounded_window_seed),
    ("precedence", "between"): _anchored("!s && (p && X <>r || X ((!s && !r) U (p && !s && !r && <>r)))"),
    ("response", "between"): "[](q -> X <>r -> (p -> s || X (!r U (s && !r))) && X ((p -> !r U (s && !r)) U r))",
    ("absence", "after_until"): "[](q -> !p && WX (!p W r))",
    ("universality", "after_until"): "[](q -> p && WX (p W r))",
    ("existence", "after_until"): _anchored("!p && WX ((!p && !r) W r)"),
    ("bounded_existence", "after_until"): ("[](q -> b)", lambda slots: _bounded_window_seed(slots, weak=True)),
    ("precedence", "after_until"): _anchored("!s && (p || X ((!s && !r) U (p && !s && !r)))"),
    ("response", "after_until"): "[](q -> (p -> s || X (!r U (s && !r))) && WX ((p -> !r U (s && !r)) W r))",
}


@cache
def _template(cell: tuple[str, str]) -> tuple[tuple[tuple, ...], Callable[[dict], Formula] | None]:
    """A cell's template, parsed on first use and kept as its program, and
    its block generator."""
    entry = _TEMPLATES.get(cell)
    if entry is None:
        raise UnsupportedPattern(f"no emitted formula for {cell[0]} under {cell[1]}")
    text, block = entry if isinstance(entry, tuple) else (entry, None)
    return FORMULAS.compile(parse(text)), block


def emit_ltl(req: Requirement) -> Formula:
    """Emit the temporal-logic formula for a core pattern x scope instance.

    The emitted formula agrees with `patterns.check` on every finite trace
    over the referenced atoms; the scoped formulations are the ones that
    match the cursor-based segment semantics (segments open at the first
    delimiter occurrence after the previous close, not at every occurrence),
    and the suite enforces the agreement by exhaustive enumeration.

    Only formulas whose text parses back are emitted: one whose printed
    parentheses nest more than MAX_NESTING deep is UnsupportedPattern, and
    so, before anything is built, is bounded existence with k above
    MAX_NESTING.
    """
    pattern, scope = req.pattern, req.scope
    pattern_tag = TAGS.get(type(pattern), type(pattern).__name__)
    if getattr(pattern, "strict", False):
        pattern_tag = "strict_" + pattern_tag
    scope_tag = TAGS.get(type(scope), type(scope).__name__)
    template, block = _template((pattern_tag, scope_tag))
    slots = {name: getattr(variant, name) for variant in (pattern, scope) for name in parameters(type(variant))}
    if block is not None:
        if slots["k"] > MAX_NESTING:
            raise UnsupportedPattern(f"bounded existence is only emitted for k <= {MAX_NESTING}")
        slots["b"] = block(slots)
    # Each placeholder is built as its slot's condition: inserted, never
    # searched, so an atom in it named like a placeholder stays itself. A
    # subformula the template repeats is built once and shared.
    formula = FORMULAS.build(template, slots.__getitem__)
    depth = _rendering(formula)[1]
    if depth > MAX_NESTING:
        raise UnsupportedPattern(
            f"the {pattern_tag} formula under {scope_tag} nests parentheses {depth} deep,"
            f" more than the {MAX_NESTING} that parse back"
        )
    return formula
