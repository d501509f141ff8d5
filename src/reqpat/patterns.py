"""Requirement patterns, scopes, and their evaluation over finite traces.

A requirement instantiates one occurrence/order pattern under one scope. The
scope carves a trace into zero or more half-open segments; the pattern is then
evaluated on every segment. A verdict distinguishes vacuous satisfaction
(the pattern's trigger never materialised) from substantive satisfaction,
because a suite that only holds vacuously usually signals missing
requirements rather than a verified system.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from .conditions import Condition, Trace, eval_condition

Segment = tuple[int, int]


class Scope:
    """Base class for scope variants. All variants are immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class Globally(Scope):
    pass


@dataclass(frozen=True)
class Before(Scope):
    r: Condition


@dataclass(frozen=True)
class After(Scope):
    q: Condition


@dataclass(frozen=True)
class Between(Scope):
    q: Condition
    r: Condition


@dataclass(frozen=True)
class AfterUntil(Scope):
    q: Condition
    r: Condition


class Pattern:
    """Base class for pattern variants."""

    __slots__ = ()


@dataclass(frozen=True)
class Absence(Pattern):
    p: Condition


@dataclass(frozen=True)
class Universality(Pattern):
    p: Condition


@dataclass(frozen=True)
class Existence(Pattern):
    p: Condition


@dataclass(frozen=True)
class BoundedExistence(Pattern):
    """At most `k` maximal blocks of consecutive p-positions per segment."""

    p: Condition
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("'k' must be an integer >= 0")


@dataclass(frozen=True)
class Precedence(Pattern):
    """No p strictly before the first s; without any s, p may not occur."""

    s: Condition
    p: Condition


@dataclass(frozen=True)
class Response(Pattern):
    """Every p is answered by a later s; reflexive unless strict."""

    p: Condition
    s: Condition
    strict: bool = False


def _seal_chain(pattern: ResponseChain | PrecedenceChain) -> None:
    object.__setattr__(pattern, "chain", tuple(pattern.chain))
    if not pattern.chain:
        raise ValueError("'chain' must be a nonempty array of names")


@dataclass(frozen=True)
class ResponseChain(Pattern):
    """Every p is followed, in order and strictly after it, by the chain."""

    p: Condition
    chain: tuple[Condition, ...]

    def __post_init__(self) -> None:
        _seal_chain(self)


@dataclass(frozen=True)
class PrecedenceChain(Pattern):
    """The first p, if any, is preceded, in order, by the chain."""

    chain: tuple[Condition, ...]
    p: Condition

    def __post_init__(self) -> None:
        _seal_chain(self)


# The catalogue: every pattern and scope variant under its JSON tag. A
# variant's parameters are its dataclass fields; loading, dumping, mapping
# and paraphrase are derived from them.
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


@dataclass(frozen=True)
class Holds:
    vacuous: bool = False


@dataclass(frozen=True)
class Fails:
    segment: int
    position: int
    reason: str = field(default="", compare=False)


Verdict = Holds | Fails


def _first_index(cond: Condition, trace: Trace, start: int, stop: int) -> int | None:
    for k in range(start, stop):
        if eval_condition(cond, trace[k]):
            return k
    return None


def _last_index(cond: Condition, trace: Trace, start: int, stop: int) -> int | None:
    for k in range(stop - 1, start - 1, -1):
        if eval_condition(cond, trace[k]):
            return k
    return None


def _answered_below(pattern: Response | ResponseChain, trace: Trace, first: int, hi: int) -> int:
    """The least position from `first` on whose trigger goes unanswered: one
    backward pass places the answer (each chain link) as late as possible."""
    if isinstance(pattern, Response):
        last = _last_index(pattern.s, trace, first, hi)
        return first if last is None else last + (not pattern.strict)
    cursor = hi
    for link in reversed(pattern.chain):
        cursor = _last_index(link, trace, first + 1, cursor)
        if cursor is None:
            return first
    return cursor


def segments(scope: Scope, trace: Trace) -> list[Segment]:
    """Carve the trace into the half-open index ranges governed by the scope.

    Conventions: a segment opens at the delimiting q-position (inclusive) and
    closes at the next strictly later r-position (exclusive). For Between the
    trailing unclosed segment is discarded; for AfterUntil it extends to the
    end of the trace and is kept. The returned ranges are disjoint, ordered,
    and within [0, len(trace)].
    """
    n = len(trace)
    if isinstance(scope, Globally):
        return [(0, n)]
    if isinstance(scope, Before):
        idx = _first_index(scope.r, trace, 0, n)
        return [] if idx is None else [(0, idx)]
    if isinstance(scope, After):
        idx = _first_index(scope.q, trace, 0, n)
        return [] if idx is None else [(idx, n)]
    if isinstance(scope, (Between, AfterUntil)):
        out: list[Segment] = []
        cursor = 0
        while True:
            q_idx = _first_index(scope.q, trace, cursor, n)
            if q_idx is None:
                break
            r_idx = _first_index(scope.r, trace, q_idx + 1, n)
            if r_idx is None:
                if isinstance(scope, AfterUntil):
                    out.append((q_idx, n))
                break
            out.append((q_idx, r_idx))
            cursor = r_idx
        return out
    raise TypeError(f"not a scope: {scope!r}")


def _checked_segment(segment: Segment, trace: Trace) -> Segment:
    lo, hi = segment
    if not 0 <= lo <= hi <= len(trace):
        raise ValueError(f"segment {segment!r} out of bounds for trace of length {len(trace)}")
    return lo, hi


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
    lo, hi = _checked_segment(segment, trace)
    empty = lo == hi

    if isinstance(pattern, Absence):
        for k in range(lo, hi):
            if eval_condition(pattern.p, trace[k]):
                return Fails(0, k, "forbidden condition holds")
        return Holds(vacuous=empty)

    if isinstance(pattern, Universality):
        for k in range(lo, hi):
            if not eval_condition(pattern.p, trace[k]):
                return Fails(0, k, "required condition does not hold")
        return Holds(vacuous=empty)

    if isinstance(pattern, Existence):
        for k in range(lo, hi):
            if eval_condition(pattern.p, trace[k]):
                return Holds(vacuous=False)
        return Fails(0, max(lo, hi - 1), "no position satisfies the condition")

    if isinstance(pattern, BoundedExistence):
        blocks = 0
        prev = False
        for k in range(lo, hi):
            cur = eval_condition(pattern.p, trace[k])
            if cur and not prev:
                blocks += 1
                if blocks > pattern.k:
                    return Fails(0, k, f"block {blocks} exceeds the bound of {pattern.k}")
            prev = cur
        return Holds(vacuous=empty)

    if isinstance(pattern, Precedence):
        first_s = _first_index(pattern.s, trace, lo, hi)
        limit = hi if first_s is None else first_s
        early = _first_index(pattern.p, trace, lo, limit)
        if early is not None:
            return Fails(0, early, "condition occurs before its required precedent")
        return Holds(vacuous=_first_index(pattern.p, trace, limit, hi) is None)

    if isinstance(pattern, (Response, ResponseChain)):
        first = _first_index(pattern.p, trace, lo, hi)
        if first is None:
            return Holds(vacuous=True)
        failing = _first_index(pattern.p, trace, _answered_below(pattern, trace, first, hi), hi)
        if failing is None:
            return Holds(vacuous=False)
        if isinstance(pattern, Response):
            return Fails(0, failing, "trigger is never answered within the segment")
        return Fails(0, failing, "trigger is not followed by the full chain")

    if isinstance(pattern, PrecedenceChain):
        first_p = _first_index(pattern.p, trace, lo, hi)
        if first_p is None:
            return Holds(vacuous=True)
        cursor = lo - 1
        for link in pattern.chain:
            nxt = _first_index(link, trace, cursor + 1, first_p)
            if nxt is None:
                return Fails(0, first_p, "condition is not preceded by the full chain")
            cursor = nxt
        return Holds(vacuous=False)

    raise TypeError(f"not a pattern: {pattern!r}")


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
    """
    segs = segments(req.scope, trace)
    all_vacuous = True
    for idx, seg in enumerate(segs):
        verdict = evaluate_pattern(req.pattern, trace, seg)
        if isinstance(verdict, Fails):
            return dataclasses.replace(verdict, segment=idx)
        assert isinstance(verdict, Holds)
        all_vacuous = all_vacuous and verdict.vacuous
    return Holds(vacuous=(not segs) or all_vacuous)
