"""Requirement patterns, scopes, and their evaluation over finite traces.

A requirement instantiates one occurrence/order pattern under one scope. The
scope carves a trace into zero or more half-open segments; the pattern is then
evaluated on every segment. A verdict distinguishes vacuous satisfaction
(the pattern's trigger never materialised) from substantive satisfaction,
because a suite that only holds vacuously usually signals missing
requirements rather than a verified system.

Every catalogue entry is one class: a scope carves its own segments, a
pattern decides a segment itself, and each carries its paraphrase template
`phrase` as a class attribute, which is not a field.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from .conditions import Condition, Trace, eval_condition

Segment = tuple[int, int]


@dataclass(frozen=True)
class Holds:
    vacuous: bool = False


@dataclass(frozen=True)
class Fails:
    segment: int
    position: int
    reason: str = field(default="", compare=False)


Verdict = Holds | Fails

# Holds is immutable, so every holding verdict is one of these two.
_HOLDS = Holds(vacuous=False)
_VACUOUS = Holds(vacuous=True)


# Scopes and patterns read conditions only through a scan's three primitives
# over [lo, hi): the first position where a condition holds, the first where
# it does not, and the last where it holds, each None when there is none.
# `check` picks one scan per call from what the trace carries; `segments`
# and `evaluate_pattern` always read lazily. Either way every condition is
# read through eval_condition, which rejects a non-condition with TypeError;
# bench/tracing.py counts these calls per state.
class _Lazy:
    """Reads position by position, up to the first answer: the scan of a
    trace built from states, often short and checked once."""

    def first(self, cond: Condition, trace: Trace, lo: int, hi: int) -> int | None:
        states = trace.states
        for k in range(lo, hi):
            if eval_condition(cond, states[k]):
                return k
        return None

    def first_false(self, cond: Condition, trace: Trace, lo: int, hi: int) -> int | None:
        states = trace.states
        for k in range(lo, hi):
            if not eval_condition(cond, states[k]):
                return k
        return None

    def last(self, cond: Condition, trace: Trace, lo: int, hi: int) -> int | None:
        states = trace.states
        for k in range(hi - 1, lo - 1, -1):
            if eval_condition(cond, states[k]):
                return k
        return None


def _column(cond: Condition, trace: Trace) -> bytes:
    """The condition's truth at every position of a trace made by
    `Trace.from_codes`, one byte each: read once per distinct state and
    spread over the codes in C. Memoized on the trace by the condition's
    identity, so no condition is hashed; the entry keeps it alive."""
    entry = trace._columns.get(id(cond))
    if entry is None:
        truth = bytes([eval_condition(cond, state) for state in trace._distinct])
        codes = trace._codes
        if type(codes) is bytes:
            column = codes.translate(truth.ljust(256, b"\0"))
        else:
            column = bytes(map(truth.__getitem__, codes))
        entry = trace._columns[id(cond)] = (cond, column)
    return entry[1]


class _Columns:
    """Scans a condition's truth column with `bytes.find` and `rfind`: the
    scan of a trace made by `Trace.from_codes`."""

    def first(self, cond: Condition, trace: Trace, lo: int, hi: int) -> int | None:
        k = _column(cond, trace).find(1, lo, hi)
        return None if k < 0 else k

    def first_false(self, cond: Condition, trace: Trace, lo: int, hi: int) -> int | None:
        k = _column(cond, trace).find(0, lo, hi)
        return None if k < 0 else k

    def last(self, cond: Condition, trace: Trace, lo: int, hi: int) -> int | None:
        k = _column(cond, trace).rfind(1, lo, hi)
        return None if k < 0 else k


Scan = _Lazy | _Columns
# One instance of each: on CPython 3.11 a method call on an instance costs
# less than a static method called on its class, and the short checks of
# built traces make a few scans each.
_LAZY, _COLUMNS = _Lazy(), _Columns()


class Scope:
    """Base class for scope variants. All variants are immutable values;
    `segments(scan, trace)` lists the half-open segments the variant
    governs, reading conditions through `scan`."""

    __slots__ = ()


@dataclass(frozen=True)
class Globally(Scope):
    phrase = "globally"

    def segments(self, scan: Scan, trace: Trace) -> list[Segment]:
        return [(0, len(trace))]


@dataclass(frozen=True)
class Before(Scope):
    r: Condition
    phrase = "before {r}"

    def segments(self, scan: Scan, trace: Trace) -> list[Segment]:
        idx = scan.first(self.r, trace, 0, len(trace))
        return [] if idx is None else [(0, idx)]


@dataclass(frozen=True)
class After(Scope):
    q: Condition
    phrase = "after {q}"

    def segments(self, scan: Scan, trace: Trace) -> list[Segment]:
        n = len(trace)
        idx = scan.first(self.q, trace, 0, n)
        return [] if idx is None else [(idx, n)]


def _windows(scope: Between | AfterUntil, scan: Scan, trace: Trace, keep_open: bool) -> list[Segment]:
    """From each q at or after the previous close to the next strictly later
    r; an unclosed trailing window runs to the end if `keep_open`."""
    n, out, cursor = len(trace), [], 0
    while (q_idx := scan.first(scope.q, trace, cursor, n)) is not None:
        r_idx = scan.first(scope.r, trace, q_idx + 1, n)
        if r_idx is None:
            return out + [(q_idx, n)] if keep_open else out
        out.append((q_idx, r_idx))
        cursor = r_idx
    return out


@dataclass(frozen=True)
class Between(Scope):
    q: Condition
    r: Condition
    phrase = "between {q} and {r}"

    def segments(self, scan: Scan, trace: Trace) -> list[Segment]:
        return _windows(self, scan, trace, keep_open=False)


@dataclass(frozen=True)
class AfterUntil(Scope):
    q: Condition
    r: Condition
    phrase = "after {q} until {r}"

    def segments(self, scan: Scan, trace: Trace) -> list[Segment]:
        return _windows(self, scan, trace, keep_open=True)


class Pattern:
    """Base class for pattern variants. `evaluate(scan, trace, lo, hi)`
    decides the variant on the segment [lo, hi), reading conditions through
    `scan`, and reports a failure in segment 0."""

    __slots__ = ()


@dataclass(frozen=True)
class Absence(Pattern):
    p: Condition
    phrase = "it is never the case that {p} holds"

    def evaluate(self, scan: Scan, trace: Trace, lo: int, hi: int) -> Verdict:
        k = scan.first(self.p, trace, lo, hi)
        if k is not None:
            return Fails(0, k, "forbidden condition holds")
        return _VACUOUS if lo == hi else _HOLDS


@dataclass(frozen=True)
class Universality(Pattern):
    p: Condition
    phrase = "it is always the case that {p} holds"

    def evaluate(self, scan: Scan, trace: Trace, lo: int, hi: int) -> Verdict:
        k = scan.first_false(self.p, trace, lo, hi)
        if k is not None:
            return Fails(0, k, "required condition does not hold")
        return _VACUOUS if lo == hi else _HOLDS


@dataclass(frozen=True)
class Existence(Pattern):
    p: Condition
    phrase = "{p} eventually holds"

    def evaluate(self, scan: Scan, trace: Trace, lo: int, hi: int) -> Verdict:
        if scan.first(self.p, trace, lo, hi) is not None:
            return _HOLDS
        return Fails(0, max(lo, hi - 1), "no position satisfies the condition")


@dataclass(frozen=True)
class BoundedExistence(Pattern):
    """At most `k` maximal blocks of consecutive p-positions per segment."""

    p: Condition
    k: int
    phrase = "{p} holds in at most {k} episodes"

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("'k' must be an integer >= 0")

    def evaluate(self, scan: Scan, trace: Trace, lo: int, hi: int) -> Verdict:
        blocks, cursor = 0, lo
        while (start := scan.first(self.p, trace, cursor, hi)) is not None:
            blocks += 1
            if blocks > self.k:
                return Fails(0, start, f"block {blocks} exceeds the bound of {self.k}")
            cursor = scan.first_false(self.p, trace, start + 1, hi)
            if cursor is None:
                break
        return _VACUOUS if lo == hi else _HOLDS


@dataclass(frozen=True)
class Precedence(Pattern):
    """No p strictly before the first s; without any s, p may not occur."""

    s: Condition
    p: Condition
    phrase = "{s} precedes {p}"

    def evaluate(self, scan: Scan, trace: Trace, lo: int, hi: int) -> Verdict:
        first_s = scan.first(self.s, trace, lo, hi)
        limit = hi if first_s is None else first_s
        early = scan.first(self.p, trace, lo, limit)
        if early is not None:
            return Fails(0, early, "condition occurs before its required precedent")
        return _VACUOUS if scan.first(self.p, trace, limit, hi) is None else _HOLDS


def _first_unanswered(pattern: Response | ResponseChain, scan: Scan, trace: Trace, lo: int, hi: int,
                      reason: str) -> Verdict:
    """Fails at the first trigger at or beyond the bound below which every
    trigger is answered; `_answered_below` finds it in one backward pass."""
    first = scan.first(pattern.p, trace, lo, hi)
    if first is None:
        return _VACUOUS
    failing = scan.first(pattern.p, trace, pattern._answered_below(scan, trace, first, hi), hi)
    if failing is None:
        return _HOLDS
    return Fails(0, failing, reason)


@dataclass(frozen=True)
class Response(Pattern):
    """Every p is answered by a later s; reflexive unless strict."""

    p: Condition
    s: Condition
    strict: bool = False
    phrase = "{s} responds to {p}{strict}"

    def evaluate(self, scan: Scan, trace: Trace, lo: int, hi: int) -> Verdict:
        return _first_unanswered(self, scan, trace, lo, hi, "trigger is never answered within the segment")

    def _answered_below(self, scan: Scan, trace: Trace, first: int, hi: int) -> int:
        last = scan.last(self.s, trace, first, hi)
        return first if last is None else last + (not self.strict)


def _seal_chain(pattern: ResponseChain | PrecedenceChain) -> None:
    object.__setattr__(pattern, "chain", tuple(pattern.chain))
    if not pattern.chain:
        raise ValueError("'chain' must be a nonempty array of names")


@dataclass(frozen=True)
class ResponseChain(Pattern):
    """Every p is followed, in order and strictly after it, by the chain."""

    p: Condition
    chain: tuple[Condition, ...]
    phrase = "{chain} respond in order to {p}"

    def __post_init__(self) -> None:
        _seal_chain(self)

    def evaluate(self, scan: Scan, trace: Trace, lo: int, hi: int) -> Verdict:
        return _first_unanswered(self, scan, trace, lo, hi, "trigger is not followed by the full chain")

    def _answered_below(self, scan: Scan, trace: Trace, first: int, hi: int) -> int:
        cursor = hi
        for link in reversed(self.chain):
            cursor = scan.last(link, trace, first + 1, cursor)
            if cursor is None:
                return first
        return cursor


@dataclass(frozen=True)
class PrecedenceChain(Pattern):
    """The first p, if any, is preceded, in order, by the chain."""

    chain: tuple[Condition, ...]
    p: Condition
    phrase = "{chain} precede in order {p}"

    def __post_init__(self) -> None:
        _seal_chain(self)

    def evaluate(self, scan: Scan, trace: Trace, lo: int, hi: int) -> Verdict:
        first_p = scan.first(self.p, trace, lo, hi)
        if first_p is None:
            return _VACUOUS
        cursor = lo - 1
        for link in self.chain:
            nxt = scan.first(link, trace, cursor + 1, first_p)
            if nxt is None:
                return Fails(0, first_p, "condition is not preceded by the full chain")
            cursor = nxt
        return _HOLDS


# The catalogue: every pattern and scope variant under its JSON tag. A
# variant's parameters are its dataclass fields; loading, dumping and mapping
# are derived from them, and the paraphrase fills its `phrase` from them.
PATTERNS: dict[str, type[Pattern]] = {
    "absence": Absence,
    "universality": Universality,
    "existence": Existence,
    "bounded_existence": BoundedExistence,
    "precedence": Precedence,
    "response": Response,
    "response_chain": ResponseChain,
    "precedence_chain": PrecedenceChain,
}

SCOPES: dict[str, type[Scope]] = {
    "globally": Globally,
    "before": Before,
    "after": After,
    "between": Between,
    "after_until": AfterUntil,
}

TAGS: dict[type, str] = {cls: tag for catalogue in (PATTERNS, SCOPES) for tag, cls in catalogue.items()}


@dataclass(frozen=True)
class TraceLinks:
    """Traceability metadata linking a requirement back to its sources."""

    source_url: str | None = None
    source_quote: str | None = None
    repo_url: str | None = None

    def __post_init__(self) -> None:
        if self.source_quote is not None and not self.source_quote:
            raise ValueError("source_quote, when present, must be nonempty")


@dataclass(frozen=True)
class Requirement:
    name: str
    pattern: Pattern
    scope: Scope
    meta: TraceLinks = TraceLinks()


def segments(scope: Scope, trace: Trace) -> list[Segment]:
    """Carve the trace into the half-open index ranges governed by the scope.

    Conventions: a segment opens at the delimiting q-position (inclusive) and
    closes at the next strictly later r-position (exclusive). For Between the
    trailing unclosed segment is discarded; for AfterUntil it extends to the
    end of the trace and is kept. The returned ranges are disjoint, ordered,
    and within [0, len(trace)].
    """
    if not isinstance(scope, Scope):
        raise TypeError(f"not a scope: {scope!r}")
    return scope.segments(_LAZY, trace)


def evaluate_pattern(pattern: Pattern, trace: Trace, segment: Segment) -> Verdict:
    """Evaluate one pattern on one segment.

    A Holds verdict is vacuous when the pattern's trigger never occurred in
    the segment: the trigger is p for Response, ResponseChain, Precedence and
    PrecedenceChain; Absence, Universality and BoundedExistence are vacuous
    exactly on empty segments; Existence is never vacuous (and fails on an
    empty segment, which offers no witness position).

    Every pattern is decided in time linear in the segment length. For
    Response and ResponseChain, one backward pass places the answer (each
    chain link) as late as possible; that bounds the answerable triggers, so
    the verdict is the first trigger at or beyond the bound, if any.
    """
    lo, hi = segment
    if not 0 <= lo <= hi <= len(trace):
        raise ValueError(f"segment {segment!r} out of bounds for trace of length {len(trace)}")
    if not isinstance(pattern, Pattern):
        raise TypeError(f"not a pattern: {pattern!r}")
    return pattern.evaluate(_LAZY, trace, lo, hi)


def map_conditions(req: Requirement, fn) -> Requirement:
    """Rebuild a requirement with `fn` applied to every condition parameter.

    Useful for re-expressing a requirement over a different alphabet, e.g.
    replacing named conditions by propositions named after them.
    """
    pattern, scope = req.pattern, req.scope
    return Requirement(
        req.name, type(pattern)(**mapped_fields(pattern, fn)), type(scope)(**mapped_fields(scope, fn)), req.meta
    )


@functools.cache
def parameters(cls: type) -> dict[str, dataclasses.Field]:
    """The fields of a pattern, scope or TraceLinks class by name, in order."""
    return {f.name: f for f in dataclasses.fields(cls)}


def mapped_fields(variant: Pattern | Scope, fn) -> dict[str, object]:
    """A pattern's or scope's fields by name, with `fn` applied to every
    condition, chain links included."""
    out = {}
    for name in parameters(type(variant)):
        value = getattr(variant, name)
        if isinstance(value, Condition):
            value = fn(value)
        elif isinstance(value, tuple):
            value = tuple(map(fn, value))
        out[name] = value
    return out


def check(req: Requirement, trace: Trace) -> Verdict:
    """Check a requirement over a whole trace.

    Returns the first failing segment's verdict, rewritten with its segment
    index; otherwise Holds, vacuously iff there were no segments or every
    segment held vacuously.

    The pattern and scope are validated once per call. Each scope is carved
    once per trace: requirements checked on the same Trace object share the
    segments of an equal scope over the same condition objects, and
    `load_suite` resolves each condition name to one shared object. Carved
    segments are in bounds by construction, so each is evaluated without
    `evaluate_pattern`'s per-segment checks.

    How conditions are read follows from the trace. A trace from
    `load_trace` carries its distinct states and one code per position, so
    each condition is read once per distinct state into a truth column,
    shared by every requirement checked on that trace, and scanned in C. A
    trace built from states is read position by position, stopping at the
    first answer, as `segments` and `evaluate_pattern` always read.
    """
    pattern, scope = req.pattern, req.scope
    if not isinstance(scope, Scope):
        raise TypeError(f"not a scope: {scope!r}")
    if not isinstance(pattern, Pattern):
        raise TypeError(f"not a pattern: {pattern!r}")
    # Keyed by the identities of the scope's fields, so no condition tree is
    # hashed; the entry keeps the scope, and so every id in its key, alive.
    key = (type(scope), *map(id, vars(scope).values()))
    scan = _LAZY if trace._codes is None else _COLUMNS
    carved = trace._carved.get(key)
    if carved is None:
        carved = trace._carved[key] = (scope, scope.segments(scan, trace))
    vacuous = True
    for idx, (lo, hi) in enumerate(carved[1]):
        verdict = pattern.evaluate(scan, trace, lo, hi)
        if isinstance(verdict, Fails):
            return Fails(idx, verdict.position, verdict.reason)
        vacuous = vacuous and verdict.vacuous
    return _VACUOUS if vacuous else _HOLDS
