"""Requirement patterns, scopes, and their evaluation over finite traces.

A requirement instantiates one occurrence/order pattern under one scope. The
scope carves a trace into zero or more half-open segments; the pattern is then
evaluated on every segment. A verdict distinguishes vacuous satisfaction
(the pattern's trigger never materialised) from substantive satisfaction,
because a suite that only holds vacuously usually signals missing
requirements rather than a verified system.

Every catalogue entry is one class, which names its JSON tag in its class
statement and so enters `PATTERNS` or `SCOPES`: a scope carves its own
segments, a pattern decides all of them itself, and each carries its
paraphrase template `phrase` as a class attribute, which is not a field.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from itertools import starmap
from operator import lt

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


# Scopes and patterns read conditions only through a scan. `scan.read(c)`
# resolves a condition once per requirement, before any loop, into x; then
# `scan.find(x, truth, lo, hi)` is the first position in [lo, hi) where c's
# truth is `truth`, 1 or 0, and `scan.rfind(x, 1, lo, hi)` the last where c
# holds, each -1 if none, as `bytes.find` and `rfind` answer. A span need
# not lie inside one segment: the run scan, `_runs`, searches from a
# segment's start to the end of the last, so a lazy scan may read positions
# between segments, each at most once per run condition. `check` picks
# the scan from the trace; `segments` and `evaluate_pattern` always read
# lazily. Either way `read` rejects a non-condition with TypeError, even one
# that no scan reaches, and every condition is evaluated by eval_condition,
# whose calls bench/tracing.py counts.
def _checked(cond: Condition) -> Condition:
    if not isinstance(cond, Condition):
        raise TypeError(f"not a condition: {cond!r}")
    return cond


class _Lazy:
    """Reads position by position, up to the first answer: the scan of a
    trace built from states, often short and checked once, and of loaded
    lines that seldom repeat."""

    __slots__ = ("states",)

    def __init__(self, trace: Trace):
        self.states = trace.states

    read = staticmethod(_checked)

    def find(self, cond: Condition, truth: int, lo: int, hi: int) -> int:
        states = self.states
        if truth:
            for k in range(lo, hi):
                if eval_condition(cond, states[k]):
                    return k
        else:
            for k in range(lo, hi):
                if not eval_condition(cond, states[k]):
                    return k
        return -1

    def rfind(self, cond: Condition, truth: int, lo: int, hi: int) -> int:
        states = self.states
        for k in range(hi - 1, lo - 1, -1):
            if eval_condition(cond, states[k]) == truth:
                return k
        return -1


class _Columns:
    """Reads a condition once per distinct state of a trace made by
    `Trace.from_codes` into its truth column, one byte per position, spread
    over the codes in C, and scans the column with `bytes.find` and `rfind`.
    Columns are memoized in the trace's `_memo` by the condition's identity,
    so no condition is hashed; the entry keeps it alive."""

    __slots__ = ("trace",)
    find, rfind = staticmethod(bytes.find), staticmethod(bytes.rfind)

    def __init__(self, trace: Trace):
        self.trace = trace

    def read(self, cond: Condition) -> bytes:
        trace = self.trace
        entry = trace._memo.get(id(cond))
        if entry is None:
            _checked(cond)
            truth, codes = bytes([eval_condition(cond, state) for state in trace._distinct]), trace._codes
            column = codes.translate(truth.ljust(256)) if type(codes) is bytes else bytes(map(truth.__getitem__, codes))
            entry = trace._memo[id(cond)] = (cond, column)
        return entry[1]


Scan = _Lazy | _Columns


# The catalogue: every pattern and scope variant under its JSON tag, in order
# of definition, entered by its class statement, `class Absence(Pattern,
# tag="absence")`. A variant's parameters are its dataclass fields; loading,
# dumping and mapping derive from them, and the paraphrase fills `phrase`.
PATTERNS: dict[str, type[Pattern]] = {}
SCOPES: dict[str, type[Scope]] = {}
TAGS: dict[type, str] = {}


class Pattern:
    """Base class for pattern variants. `evaluate(scan, carved)` decides the
    variant on every segment of `carved` in order, reading conditions
    through `scan`, and returns the first failure with its segment index,
    or Holds; see `evaluate_pattern` for each variant's rules."""

    __slots__ = ()

    def __init_subclass__(cls, *, tag: str) -> None:
        PATTERNS[tag], TAGS[cls] = cls, tag


def _runs(scan: Scan, cond: Condition, truth: int, bound: int, carved: list[Segment], reason: str) -> Verdict:
    """Fails at the start of run `bound` + 1 of consecutive positions of a
    segment where the condition's truth is `truth`, giving `reason` filled
    with that run's number and the bound; otherwise holds, vacuously iff
    every segment is empty.

    One search from a segment's start to the end of the last segment finds
    the next hit, and every segment that ends at or before it is passed
    over unsearched. A hit between segments restarts the search at the
    next segment's start, so a run that begins before a segment counts from
    there; in the segment that holds the hit, runs are counted as far as
    its end. So a segment without a hit costs no call, and a lazy scan
    reads each position at most once."""
    find, x = scan.find, scan.read(cond)
    idx, count, end = 0, len(carved), carved[-1][1] if carved else 0
    while idx < count and (start := find(x, truth, carved[idx][0], end)) >= 0:
        while carved[idx][1] <= start:
            idx += 1
        lo, hi = carved[idx]
        if start < lo:
            continue
        runs = 0
        while start >= 0:
            if (runs := runs + 1) > bound:
                return Fails(idx, start, reason.format(runs, bound))
            if (cursor := find(x, 1 - truth, start + 1, hi)) < 0:
                break
            start = find(x, truth, cursor, hi)
        idx += 1
    return _HOLDS if any(starmap(lt, carved)) else _VACUOUS


@dataclass(frozen=True)
class Absence(Pattern, tag="absence"):
    p: Condition
    phrase = "it is never the case that {p} holds"

    def evaluate(self, scan: Scan, carved: list[Segment]) -> Verdict:
        return _runs(scan, self.p, 1, 0, carved, "forbidden condition holds")


@dataclass(frozen=True)
class Universality(Pattern, tag="universality"):
    p: Condition
    phrase = "it is always the case that {p} holds"

    def evaluate(self, scan: Scan, carved: list[Segment]) -> Verdict:
        return _runs(scan, self.p, 0, 0, carved, "required condition does not hold")


@dataclass(frozen=True)
class Existence(Pattern, tag="existence"):
    p: Condition
    phrase = "{p} eventually holds"

    def evaluate(self, scan: Scan, carved: list[Segment]) -> Verdict:
        find, p = scan.find, scan.read(self.p)
        for idx, (lo, hi) in enumerate(carved):
            if find(p, 1, lo, hi) < 0:
                return Fails(idx, max(lo, hi - 1), "no position satisfies the condition")
        return _HOLDS if carved else _VACUOUS


@dataclass(frozen=True)
class BoundedExistence(Pattern, tag="bounded_existence"):
    p: Condition
    k: int
    phrase = "{p} holds in at most {k} episodes"

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("'k' must be an integer >= 0")

    def evaluate(self, scan: Scan, carved: list[Segment]) -> Verdict:
        return _runs(scan, self.p, 1, self.k, carved, "block {} exceeds the bound of {}")


@dataclass(frozen=True)
class Precedence(Pattern, tag="precedence"):
    s: Condition
    p: Condition
    phrase = "{s} precedes {p}"

    def evaluate(self, scan: Scan, carved: list[Segment]) -> Verdict:
        find, s, p, vacuous = scan.find, scan.read(self.s), scan.read(self.p), True
        for idx, (lo, hi) in enumerate(carved):
            if (first_p := find(p, 1, lo, hi)) < 0:
                continue
            if find(s, 1, lo, first_p + 1) < 0:
                return Fails(idx, first_p, "condition occurs before its required precedent")
            vacuous = False
        return _VACUOUS if vacuous else _HOLDS


@dataclass(frozen=True)
class Response(Pattern, tag="response"):
    p: Condition
    s: Condition
    strict: bool = False
    phrase = "{s} responds to {p}{strict}"

    def evaluate(self, scan: Scan, carved: list[Segment]) -> Verdict:
        find, rfind = scan.find, scan.rfind
        p, s, past, vacuous = scan.read(self.p), scan.read(self.s), not self.strict, True
        for idx, (lo, hi) in enumerate(carved):
            if (first := find(p, 1, lo, hi)) < 0:
                continue
            # Every trigger below the bound is answered by the last s.
            last = rfind(s, 1, first, hi)
            if (failing := find(p, 1, first if last < 0 else last + past, hi)) >= 0:
                return Fails(idx, failing, "trigger is never answered within the segment")
            vacuous = False
        return _VACUOUS if vacuous else _HOLDS


def _seal_chain(pattern: ResponseChain | PrecedenceChain) -> None:
    object.__setattr__(pattern, "chain", tuple(pattern.chain))
    if not pattern.chain:
        raise ValueError("'chain' must be a nonempty array of names")


@dataclass(frozen=True)
class ResponseChain(Pattern, tag="response_chain"):
    p: Condition
    chain: tuple[Condition, ...]
    phrase = "{chain} respond in order to {p}"

    def __post_init__(self) -> None:
        _seal_chain(self)

    def evaluate(self, scan: Scan, carved: list[Segment]) -> Verdict:
        find, rfind = scan.find, scan.rfind
        p, links, vacuous = scan.read(self.p), [*map(scan.read, reversed(self.chain))], True
        for idx, (lo, hi) in enumerate(carved):
            if (first := find(p, 1, lo, hi)) < 0:
                continue
            # Every trigger below the bound is followed by the chain, each
            # link placed as late as possible.
            bound = hi
            for link in links:
                if (bound := rfind(link, 1, first + 1, bound)) < 0:
                    bound = first
                    break
            if (failing := find(p, 1, bound, hi)) >= 0:
                return Fails(idx, failing, "trigger is not followed by the full chain")
            vacuous = False
        return _VACUOUS if vacuous else _HOLDS


@dataclass(frozen=True)
class PrecedenceChain(Pattern, tag="precedence_chain"):
    chain: tuple[Condition, ...]
    p: Condition
    phrase = "{chain} precede in order {p}"

    def __post_init__(self) -> None:
        _seal_chain(self)

    def evaluate(self, scan: Scan, carved: list[Segment]) -> Verdict:
        find, p, links, vacuous = scan.find, scan.read(self.p), [*map(scan.read, self.chain)], True
        for idx, (lo, hi) in enumerate(carved):
            if (first_p := find(p, 1, lo, hi)) < 0:
                continue
            cursor = lo - 1
            for link in links:
                if (cursor := find(link, 1, cursor + 1, first_p)) < 0:
                    return Fails(idx, first_p, "condition is not preceded by the full chain")
            vacuous = False
        return _VACUOUS if vacuous else _HOLDS


class Scope:
    """Base class for scope variants. All variants are immutable values;
    `segments(scan, n)` lists the half-open segments the variant governs in
    a trace of length n, reading conditions through `scan`."""

    __slots__ = ()

    def __init_subclass__(cls, *, tag: str) -> None:
        SCOPES[tag], TAGS[cls] = cls, tag


@dataclass(frozen=True)
class Globally(Scope, tag="globally"):
    phrase = "globally"

    def segments(self, scan: Scan, n: int) -> list[Segment]:
        return [(0, n)]


@dataclass(frozen=True)
class Before(Scope, tag="before"):
    r: Condition
    phrase = "before {r}"

    def segments(self, scan: Scan, n: int) -> list[Segment]:
        idx = scan.find(scan.read(self.r), 1, 0, n)
        return [] if idx < 0 else [(0, idx)]


@dataclass(frozen=True)
class After(Scope, tag="after"):
    q: Condition
    phrase = "after {q}"

    def segments(self, scan: Scan, n: int) -> list[Segment]:
        idx = scan.find(scan.read(self.q), 1, 0, n)
        return [] if idx < 0 else [(idx, n)]


def _windows(scope: Between | AfterUntil, scan: Scan, n: int, keep_open: bool) -> list[Segment]:
    """From each q at or after the previous close to the next strictly later
    r; an unclosed trailing window runs to the end if `keep_open`."""
    find, q, r, out, cursor = scan.find, scan.read(scope.q), scan.read(scope.r), [], 0
    while (q_idx := find(q, 1, cursor, n)) >= 0:
        if (cursor := find(r, 1, q_idx + 1, n)) < 0:
            return out + [(q_idx, n)] if keep_open else out
        out.append((q_idx, cursor))
    return out


@dataclass(frozen=True)
class Between(Scope, tag="between"):
    q: Condition
    r: Condition
    phrase = "between {q} and {r}"

    def segments(self, scan: Scan, n: int) -> list[Segment]:
        return _windows(self, scan, n, keep_open=False)


@dataclass(frozen=True)
class AfterUntil(Scope, tag="after_until"):
    q: Condition
    r: Condition
    phrase = "after {q} until {r}"

    def segments(self, scan: Scan, n: int) -> list[Segment]:
        return _windows(self, scan, n, keep_open=True)


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
    return scope.segments(_Lazy(trace), len(trace))


def evaluate_pattern(pattern: Pattern, trace: Trace, segment: Segment) -> Verdict:
    """Evaluate one pattern on one segment [lo, hi): the pattern's `evaluate`
    on that one segment, so a failure is in segment 0.

    Where each pattern fails, and when it holds vacuously:

    | pattern | fails at | vacuous when |
    | --- | --- | --- |
    | Absence | the first p | the segment is empty |
    | Universality | the first position without p | the segment is empty |
    | Existence | max(lo, hi - 1), when no p | never |
    | BoundedExistence | the start of block k + 1 of consecutive p | the segment is empty |
    | Precedence | the first p, when no s is at or before it | no p |
    | Response | the first p with no s at or after it (after it if strict) | no p |
    | ResponseChain | the first p not followed, strictly after it, by the chain in order | no p |
    | PrecedenceChain | the first p, when the chain does not occur in order before it | no p |

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
    return pattern.evaluate(_Lazy(trace), [(lo, hi)])


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
    """The fields of a dataclass by name, in order."""
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
    """Check a requirement over a whole trace: the first failing segment's
    verdict, with its segment index; otherwise Holds, vacuously iff there
    were no segments or every segment held vacuously.

    The pattern and scope are validated once per call, and the pattern
    decides all segments, even none, in one call, without `evaluate_pattern`'s
    checks, since carved segments lie inside the trace. Each scope is carved once
    per trace: requirements checked on one Trace object share the segments
    of an equal scope over the same condition objects, and `load_suite`
    gives each condition name one shared object.

    A trace from `load_trace` whose lines repeat, at most half of them
    distinct, is read through truth columns: one read per condition and
    distinct line, shared by every requirement checked on it. `reqpat
    check` loads only the atoms its suite reads, so there lines that differ
    only in atoms no condition reads, such as sequence numbers, count as one.
    Any other trace is read position by position, as `segments` and
    `evaluate_pattern` always read.
    """
    pattern, scope = req.pattern, req.scope
    if not isinstance(scope, Scope):
        raise TypeError(f"not a scope: {scope!r}")
    if not isinstance(pattern, Pattern):
        raise TypeError(f"not a pattern: {pattern!r}")
    codes = trace._codes
    scan = _Lazy(trace) if codes is None or 2 * len(trace._distinct) > len(codes) else _Columns(trace)
    # Keyed in `_memo` by the identities of the scope's fields, so no condition
    # tree is hashed; the entry keeps the scope, and so every id in its key, alive.
    key = (type(scope), *map(id, vars(scope).values()))
    carved = trace._memo.get(key)
    if carved is None:
        carved = trace._memo[key] = (scope, scope.segments(scan, len(trace)))
    return pattern.evaluate(scan, carved[1])
