"""Independent answers for the benchmark's verdict check.

Nothing here calls `reqpat.patterns` or `reqpat.conditions.eval_condition`.
Conditions are evaluated by a separate walker, scope segments are re-derived
from next-occurrence tables, and the response family and chain patterns are
decided by backward passes where the library scans forward. Core patterns
are decided through the library's second route, `eval_ltlf` on `emit_ltl`.
On short traces the chain patterns are also decided by brute-force
subsequence search, which the benchmark's tests hold the backward passes to.

A trace here is a sequence of atom sets (any container supporting `in`).
"""

from __future__ import annotations

import itertools

from reqpat import ltl
from reqpat.conditions import And, Const, Not, Or, Ref, State, Trace
from reqpat.patterns import (
    After,
    AfterUntil,
    Before,
    Between,
    Globally,
    Precedence,
    PrecedenceChain,
    Requirement,
    Response,
    ResponseChain,
)


def holds(cond, atoms) -> bool:
    if isinstance(cond, Ref):
        return cond.name in atoms
    if isinstance(cond, Not):
        return not holds(cond.inner, atoms)
    if isinstance(cond, And):
        return holds(cond.left, atoms) and holds(cond.right, atoms)
    if isinstance(cond, Or):
        return holds(cond.left, atoms) or holds(cond.right, atoms)
    if isinstance(cond, Const):
        return cond.value
    raise TypeError(f"not a condition: {cond!r}")


def truth(cond, trace) -> list[bool]:
    return [holds(cond, atoms) for atoms in trace]


def _next_true(values: list[bool]) -> list[int]:
    """nxt[i] = least j >= i with values[j], else len(values); nxt has n+1 entries."""
    n = len(values)
    nxt = [n] * (n + 1)
    for i in range(n - 1, -1, -1):
        nxt[i] = i if values[i] else nxt[i + 1]
    return nxt


def scope_segments(scope, trace) -> list[tuple[int, int]]:
    """Half-open segments: open at the first q after the previous close, close
    at the next strictly later r; Between drops an unclosed tail, AfterUntil
    keeps it."""
    n = len(trace)
    if isinstance(scope, Globally):
        return [(0, n)]
    if isinstance(scope, Before):
        first_r = _next_true(truth(scope.r, trace))[0]
        return [(0, first_r)] if first_r < n else []
    if isinstance(scope, After):
        first_q = _next_true(truth(scope.q, trace))[0]
        return [(first_q, n)] if first_q < n else []
    if isinstance(scope, (Between, AfterUntil)):
        next_q = _next_true(truth(scope.q, trace))
        next_r = _next_true(truth(scope.r, trace))
        out = []
        cursor = 0
        while next_q[cursor] < n:
            lo = next_q[cursor]
            hi = next_r[lo + 1]
            if hi == n:
                if isinstance(scope, AfterUntil):
                    out.append((lo, n))
                break
            out.append((lo, hi))
            cursor = hi
        return out
    raise TypeError(f"not a scope: {scope!r}")


def _chain_matchable(chain_truths: list[list[bool]], lo: int, hi: int) -> list[bool]:
    """ok[k - lo] for k in [lo, hi]: the chain occurs in order at strictly
    increasing positions within [k, hi). Computed backward, link by link."""
    ok = [True] * (hi - lo + 1)
    for values in reversed(chain_truths):
        prev = ok
        ok = [False] * (hi - lo + 1)
        for k in range(hi - 1, lo - 1, -1):
            ok[k - lo] = (values[k] and prev[k + 1 - lo]) or ok[k + 1 - lo]
    return ok


def _precedence_chain_holds(chain_truths, lo: int, first_p: int) -> bool:
    """Match the chain backward from the first p, each link at the latest
    position before the next one."""
    pos = first_p
    for values in reversed(chain_truths):
        pos = next((j for j in range(pos - 1, lo - 1, -1) if values[j]), None)
        if pos is None:
            return False
    return True


def _trigger(pattern):
    """The condition whose occurrence makes a segment non-vacuous, or None
    for patterns that are vacuous exactly on empty segments."""
    if isinstance(pattern, (Precedence, Response, ResponseChain, PrecedenceChain)):
        return pattern.p
    return None


class Oracle:
    """Expected verdicts over one nonempty trace. Truth lists, segments and
    the trace handed to eval_ltlf are computed once per trace."""

    def __init__(self, trace):
        self.trace = trace
        self._truth: dict = {}
        self._segments: dict = {}
        self._ltl_trace = None

    def truth(self, cond) -> list[bool]:
        if cond not in self._truth:
            self._truth[cond] = truth(cond, self.trace)
        return self._truth[cond]

    def segments(self, scope) -> list[tuple[int, int]]:
        if scope not in self._segments:
            self._segments[scope] = scope_segments(scope, self.trace)
        return self._segments[scope]

    def verdict(self, req: Requirement) -> tuple[str, bool]:
        """("holds" | "fails", vacuous)."""
        pattern = req.pattern
        segs = self.segments(req.scope)
        if isinstance(pattern, PrecedenceChain):
            p = self.truth(pattern.p)
            chain_truths = [self.truth(c) for c in pattern.chain]
            ok = True
            for lo, hi in segs:
                first_p = next((k for k in range(lo, hi) if p[k]), None)
                if first_p is not None and not _precedence_chain_holds(chain_truths, lo, first_p):
                    ok = False
                    break
        elif isinstance(pattern, ResponseChain) or (
            isinstance(pattern, Response) and pattern.strict and not isinstance(req.scope, Globally)
        ):
            ok = self._response_family_holds(pattern, segs)
        else:
            if self._ltl_trace is None:
                self._ltl_trace = Trace(State(atoms) for atoms in self.trace)
            ok = ltl.eval_ltlf(ltl.emit_ltl(req), self._ltl_trace, 0)
        if not ok:
            return ("fails", False)
        trigger = _trigger(pattern)
        if trigger is None:
            vacuous = all(lo == hi for lo, hi in segs)
        else:
            t = self.truth(trigger)
            vacuous = not any(t[k] for lo, hi in segs for k in range(lo, hi))
        return ("holds", vacuous)

    def _response_family_holds(self, pattern, segs) -> bool:
        if isinstance(pattern, Response):
            chain = [pattern.s]
            offset = 1 if pattern.strict else 0
        else:
            chain = list(pattern.chain)
            offset = 1
        p = self.truth(pattern.p)
        chain_truths = [self.truth(c) for c in chain]
        for lo, hi in segs:
            ok = _chain_matchable(chain_truths, lo, hi)
            for k in range(lo, hi):
                if p[k] and not ok[k + offset - lo]:
                    return False
        return True


def brute_chain_exists(trace, chain, start: int, stop: int) -> bool:
    """Strictly increasing positions k1 < ... < km in [start, stop) with
    chain[i] at k_i, by trying every combination."""
    return any(
        all(holds(c, trace[k]) for c, k in zip(chain, combo))
        for combo in itertools.combinations(range(start, stop), len(chain))
    )


def brute_chain_holds(pattern, trace, segs) -> bool:
    """Brute-force decision of ResponseChain/PrecedenceChain on given segments."""
    for lo, hi in segs:
        if isinstance(pattern, ResponseChain):
            for k in range(lo, hi):
                if holds(pattern.p, trace[k]) and not brute_chain_exists(trace, pattern.chain, k + 1, hi):
                    return False
        else:
            first_p = next((k for k in range(lo, hi) if holds(pattern.p, trace[k])), None)
            if first_p is not None and not brute_chain_exists(trace, pattern.chain, lo, first_p):
                return False
    return True


def first_reach(state_at, cond, start: int, bound: int) -> int | None:
    """Least step in [1, bound] such that cond holds in state_at(start +
    step), or None; state_at maps a tick count since reset to the system's
    atom set."""
    for step in range(1, bound + 1):
        if holds(cond, state_at(start + step)):
            return step
    return None
