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


# Per-position loops index `trace.states` directly, not through
# Trace.__getitem__, and evaluate every condition through eval_condition,
# which rejects a non-condition with TypeError; bench/tracing.py counts these
# calls per state.
def _first_index(cond: Condition, trace: Trace, start: int, stop: int) -> int | None:
    states = trace.states
    for k in range(start, stop):
        if eval_condition(cond, states[k]):
            return k
    return None


def _last_index(cond: Condition, trace: Trace, start: int, stop: int) -> int | None:
    states = trace.states
    for k in range(stop - 1, start - 1, -1):
        if eval_condition(cond, states[k]):
            return k
    return None


class Scope:
    """Base class for scope variants. All variants are immutable values;
    `segments(trace)` lists the half-open segments the variant governs."""

    __slots__ = ()


@dataclass(frozen=True)
class Globally(Scope):
    phrase = "globally"

    def segments(self, trace: Trace) -> list[Segment]:
        return [(0, len(trace))]


@dataclass(frozen=True)
class Before(Scope):
    r: Condition
    phrase = "before {r}"

    def segments(self, trace: Trace) -> list[Segment]:
        idx = _first_index(self.r, trace, 0, len(trace))
        return [] if idx is None else [(0, idx)]


@dataclass(frozen=True)
class After(Scope):
    q: Condition
    phrase = "after {q}"

    def segments(self, trace: Trace) -> list[Segment]:
        n = len(trace)
        idx = _first_index(self.q, trace, 0, n)
        return [] if idx is None else [(idx, n)]


def _windows(scope: Between | AfterUntil, trace: Trace, keep_open: bool) -> list[Segment]:
    """From each q at or after the previous close to the next strictly later
    r; an unclosed trailing window runs to the end if `keep_open`."""
    n, out, cursor = len(trace), [], 0
    while (q_idx := _first_index(scope.q, trace, cursor, n)) is not None:
        r_idx = _first_index(scope.r, trace, q_idx + 1, n)
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

    def segments(self, trace: Trace) -> list[Segment]:
        return _windows(self, trace, keep_open=False)


@dataclass(frozen=True)
class AfterUntil(Scope):
    q: Condition
    r: Condition
    phrase = "after {q} until {r}"

    def segments(self, trace: Trace) -> list[Segment]:
        return _windows(self, trace, keep_open=True)


class Pattern:
    """Base class for pattern variants. `evaluate(trace, lo, hi)` decides
    the variant on the segment [lo, hi), reporting a failure in segment 0."""

    __slots__ = ()


@dataclass(frozen=True)
class Absence(Pattern):
    p: Condition
    phrase = "it is never the case that {p} holds"

    def evaluate(self, trace: Trace, lo: int, hi: int) -> Verdict:
        k = _first_index(self.p, trace, lo, hi)
        if k is not None:
            return Fails(0, k, "forbidden condition holds")
        return Holds(vacuous=lo == hi)


@dataclass(frozen=True)
class Universality(Pattern):
    p: Condition
    phrase = "it is always the case that {p} holds"

    def evaluate(self, trace: Trace, lo: int, hi: int) -> Verdict:
        states = trace.states
        for k in range(lo, hi):
            if not eval_condition(self.p, states[k]):
                return Fails(0, k, "required condition does not hold")
        return Holds(vacuous=lo == hi)


@dataclass(frozen=True)
class Existence(Pattern):
    p: Condition
    phrase = "{p} eventually holds"

    def evaluate(self, trace: Trace, lo: int, hi: int) -> Verdict:
        if _first_index(self.p, trace, lo, hi) is not None:
            return Holds(vacuous=False)
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

    def evaluate(self, trace: Trace, lo: int, hi: int) -> Verdict:
        states = trace.states
        blocks, prev = 0, False
        for k in range(lo, hi):
            cur = eval_condition(self.p, states[k])
            if cur and not prev:
                blocks += 1
                if blocks > self.k:
                    return Fails(0, k, f"block {blocks} exceeds the bound of {self.k}")
            prev = cur
        return Holds(vacuous=lo == hi)


@dataclass(frozen=True)
class Precedence(Pattern):
    """No p strictly before the first s; without any s, p may not occur."""

    s: Condition
    p: Condition
    phrase = "{s} precedes {p}"

    def evaluate(self, trace: Trace, lo: int, hi: int) -> Verdict:
        first_s = _first_index(self.s, trace, lo, hi)
        limit = hi if first_s is None else first_s
        early = _first_index(self.p, trace, lo, limit)
        if early is not None:
            return Fails(0, early, "condition occurs before its required precedent")
        return Holds(vacuous=_first_index(self.p, trace, limit, hi) is None)


def _first_unanswered(pattern: Response | ResponseChain, trace: Trace, lo: int, hi: int, reason: str) -> Verdict:
    """Fails at the first trigger at or beyond the bound below which every
    trigger is answered; `_answered_below` finds it in one backward pass."""
    first = _first_index(pattern.p, trace, lo, hi)
    if first is None:
        return Holds(vacuous=True)
    failing = _first_index(pattern.p, trace, pattern._answered_below(trace, first, hi), hi)
    if failing is None:
        return Holds(vacuous=False)
    return Fails(0, failing, reason)


@dataclass(frozen=True)
class Response(Pattern):
    """Every p is answered by a later s; reflexive unless strict."""

    p: Condition
    s: Condition
    strict: bool = False
    phrase = "{s} responds to {p}{strict}"

    def evaluate(self, trace: Trace, lo: int, hi: int) -> Verdict:
        return _first_unanswered(self, trace, lo, hi, "trigger is never answered within the segment")

    def _answered_below(self, trace: Trace, first: int, hi: int) -> int:
        last = _last_index(self.s, trace, first, hi)
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

    def evaluate(self, trace: Trace, lo: int, hi: int) -> Verdict:
        return _first_unanswered(self, trace, lo, hi, "trigger is not followed by the full chain")

    def _answered_below(self, trace: Trace, first: int, hi: int) -> int:
        cursor = hi
        for link in reversed(self.chain):
            cursor = _last_index(link, trace, first + 1, cursor)
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

    def evaluate(self, trace: Trace, lo: int, hi: int) -> Verdict:
        first_p = _first_index(self.p, trace, lo, hi)
        if first_p is None:
            return Holds(vacuous=True)
        cursor = lo - 1
        for link in self.chain:
            nxt = _first_index(link, trace, cursor + 1, first_p)
            if nxt is None:
                return Fails(0, first_p, "condition is not preceded by the full chain")
            cursor = nxt
        return Holds(vacuous=False)


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
    return scope.segments(trace)


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
    return pattern.evaluate(trace, lo, hi)


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
