"""Finite-trace linear temporal logic: syntax tree, text grammar, evaluator,
and emission of pattern formulas from a table of templates.

The evaluator is deliberately independent of the pattern checker in
`patterns`: the two give the library a dual route to every verdict, and the
test suite holds them to exhaustive agreement. Formulas are interpreted over
finite, nonempty traces; strong next fails at the final state, weak next
succeeds there.

Evaluation is bit-parallel. A formula is compiled once, on its first
evaluation, into a flat program with one instruction per structurally
distinct subformula, and the program is kept on the formula object. Running
it computes each subformula's truth at every position of the trace as one
integer mask: next is a shift, eventually and always take the lowest set
bit, and until is one addition. Neither compiling nor running recurses, so
a formula of any depth evaluates; printing does not recurse either.

Emission reads one table of requirement templates: for each (pattern tag,
scope tag) cell of the `patterns` catalogue, formula text over placeholders
for the requirement's conditions, parsed on first use and instantiated by
putting each condition's formula in its placeholder's place in the tree.
One rule bounds what is emitted: the printed formula must parse back, so a
formula whose parentheses nest more than MAX_NESTING deep is unsupported.

Formula text grammar (whitespace insignificant):

    formula := or_ ('->' formula)?          right-associative
    or_     := and_ ('||' or_)?
    and_    := temporal ('&&' and_)?
    temporal:= unary (('U' | 'W') temporal)?
    unary   := ('!' | 'X' | 'WX' | '<>' | 'F' | '[]' | 'G') unary | primary
    primary := 'true' | 'false' | atom | '(' formula ')'

Atoms match ``[a-z_][a-z0-9_]*``; `F`/`G` are accepted as input aliases for
`<>`/`[]`, which are the canonical output forms. Parentheses nest at most
MAX_NESTING deep. A condition is the propositional part of this grammar:
`FORMULAS` and `conditions.CONDITIONS` are two tables read and written by
the one engine of `conditions.Grammar`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

from .conditions import MAX_NESTING, Condition, Const, Grammar, Ref, Trace, require_atom
from .conditions import And as CondAnd
from .conditions import Not as CondNot
from .conditions import Or as CondOr
from .patterns import TAGS, Requirement, mapped_fields


class Formula:
    """Base class for formula nodes. All nodes are immutable values."""

    __slots__ = ()

    @cached_property
    def _program(self) -> tuple[tuple, ...]:
        """The evaluation program, compiled on first use and kept on the
        node: formulas are immutable, and dataclass ==, hash and repr read
        only the fields."""
        return _compile(self)

    @cached_property
    def _rendered(self) -> tuple[str, int]:
        """The printed text and its parenthesis depth, kept like `_program`."""
        return FORMULAS.render(self)


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


# --- text --------------------------------------------------------------------

class LtlSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


FORMULAS = Grammar(
    noun="formula",
    error=LtlSyntaxError,
    atom=Prop,
    constants={"true": TrueBool(), "false": FalseBool()},
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
    if not isinstance(formula, Formula):
        raise TypeError(f"not a formula: {formula!r}")
    return formula._rendered[0]


# --- evaluation --------------------------------------------------------------
#
# A subformula's truth over a trace of length n is one int mask, with position
# i at bit n-1-i: later positions are lower bits.

def _operands(node: Formula) -> tuple:
    cls = type(node)
    if cls in FORMULAS.binary:
        return (node.left, node.right)
    if cls in FORMULAS.unary:
        return (node.operand,)
    if cls in (Prop, TrueBool, FalseBool):
        return ()
    raise TypeError(f"not a formula: {node!r}")


def _compile(formula: Formula) -> tuple[tuple, ...]:
    """Post-order program of (node class, operand, operand) instructions,
    built without recursion. An operand is the slot of a subformula's
    instruction, or an atom name. Structurally equal subformulas share one
    slot, and the root is the last instruction."""
    program: list[tuple] = []
    slot_of_key: dict[tuple, int] = {}
    slot_of_node: dict[int, int] = {}  # by id(): every node lives on in `formula`
    stack = [formula]
    while stack:
        node = stack[-1]
        if id(node) in slot_of_node:
            stack.pop()
            continue
        kids = _operands(node)
        pending = [kid for kid in kids if id(kid) not in slot_of_node]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        slots = [slot_of_node[id(kid)] for kid in kids] + [None, None]
        op = type(node)
        key = (op, node.name, None) if op is Prop else (op, slots[0], slots[1])
        slot = slot_of_key.get(key)
        if slot is None:
            slot = slot_of_key[key] = len(program)
            program.append(key)
        slot_of_node[id(node)] = slot
    return tuple(program)


def eval_ltlf(formula: Formula, trace: Trace, pos: int = 0) -> bool:
    """Evaluate a formula at a position of a nonempty finite trace.

    Semantics per operator, with n the trace length:
    X f holds iff pos+1 < n and f holds there; WX f iff pos+1 = n or f holds
    there; f U g iff g holds at some m >= pos with f at every [pos, m);
    f W g additionally holds when f holds at every [pos, n); <> and [] are
    the usual derived forms.
    """
    if not isinstance(formula, Formula):
        raise TypeError(f"not a formula: {formula!r}")
    n = len(trace)
    if n == 0:
        raise ValueError("finite-trace semantics requires a nonempty trace")
    if not 0 <= pos < n:
        raise ValueError(f"position {pos} outside trace of length {n}")
    states = trace.states
    full = (1 << n) - 1
    masks: list[int] = []
    push = masks.append
    for op, a, b in formula._program:
        if op is And:
            push(masks[a] & masks[b])
        elif op is Not:
            push(full ^ masks[a])
        elif op is Prop:
            mask = 0
            for state in states:
                mask = (mask << 1) | (a in state.atoms)
            push(mask)
        elif op is Or:
            push(masks[a] | masks[b])
        elif op is Implies:
            push((full ^ masks[a]) | masks[b])
        elif op is Until or op is WeakUntil:
            # Backward induction u[i] = b[i] | (a[i] & u[i+1]) is a carry
            # chain from bit 0 upwards: b generates, a propagates, and the
            # carries into each bit are (t + b) ^ t ^ b. W carries one in
            # from beyond the end of the trace.
            right = masks[b]
            t = masks[a] | right
            carry_in = 1 if op is WeakUntil else 0
            push(t & (right | ((t + right + carry_in) ^ t ^ right)))
        elif op is Next:
            push((masks[a] << 1) & full)
        elif op is WeakNext:
            push(((masks[a] << 1) & full) | 1)
        elif op is Eventually:
            # Every position at or before the last one where the operand holds.
            mask = masks[a]
            push(full ^ ((mask & -mask) - 1) if mask else 0)
        elif op is Always:
            # The run of set bits ending at the last position.
            mask = masks[a]
            push(mask & ~(mask + 1))
        elif op is TrueBool:
            push(full)
        else:  # FalseBool
            push(0)
    return bool(masks[-1] >> (n - 1 - pos) & 1)


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
    """A cell's template, parsed on first use and kept as its evaluation
    program, and its block generator."""
    entry = _TEMPLATES.get(cell)
    if entry is None:
        raise UnsupportedPattern(f"no emitted formula for {cell[0]} under {cell[1]}")
    text, block = entry if isinstance(entry, tuple) else (entry, None)
    return _compile(parse(text)), block


def _instantiate(program: tuple[tuple, ...], slots: dict[str, Formula]) -> Formula:
    """The template with each placeholder replaced by its slot's formula.

    One pass over the template's program, which lists its structurally
    distinct subformulas in post-order, so a subformula the text repeats is
    built once and shared. Slot formulas are inserted, never searched, so an
    atom in them named like a placeholder stays itself."""
    built: list[Formula] = []
    for op, a, b in program:
        if op is Prop:
            built.append(slots[a])
        elif b is not None:
            built.append(op(built[a], built[b]))
        elif a is not None:
            built.append(op(built[a]))
        else:
            built.append(op())
    return built[-1]


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
    slots = mapped_fields(pattern, condition_formula) | mapped_fields(scope, condition_formula)
    if block is not None:
        if slots["k"] > MAX_NESTING:
            raise UnsupportedPattern(f"bounded existence is only emitted for k <= {MAX_NESTING}")
        slots["b"] = block(slots)
    formula = _instantiate(template, slots)
    depth = formula._rendered[1]
    if depth > MAX_NESTING:
        raise UnsupportedPattern(
            f"the {pattern_tag} formula under {scope_tag} nests parentheses {depth} deep,"
            f" more than the {MAX_NESTING} that parse back"
        )
    return formula
