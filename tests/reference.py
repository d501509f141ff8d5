"""The tests' oracle: each rule of reqpat stated once more, straight from its
definition, and independently of the library's evaluators.

Conditions are read only through `truth`, a structural walk, and states only
through their `atoms`. Nothing here calls `eval_condition`, a `holds`
method, `check`, `segments`, `evaluate_pattern`, a pattern's `evaluate` or a
scope's `segments`, `eval_ltlf`, `load_trace` or `write_trace`, and the
module imports only the standard library and reqpat's value classes, so it
needs neither pytest nor the test generators. `test_reference.py` holds it
to all of this.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import operator

from reqpat.conditions import And, Condition, Const, Not, Or, Ref, Trace
from reqpat.ltl import Always, Eventually, Formula, Implies, Next, Until, WeakNext, WeakUntil
from reqpat.patterns import (
    Absence, After, AfterUntil, Before, BoundedExistence, Existence, Fails, Globally, Holds, Precedence,
    PrecedenceChain, Requirement, Response, ResponseChain, Scope, Universality,
)


def truth(cond: Condition, atoms: frozenset[str]) -> bool:
    """A condition's truth value over a set of true atoms, by structural
    pattern matching: independent of the library's `holds` methods."""
    match cond:
        case Const(value):
            return value
        case Ref(name):
            return name in atoms
        case Not(inner):
            return not truth(inner, atoms)
        case And(left, right):
            return truth(left, atoms) and truth(right, atoms)
        case Or(left, right):
            return truth(left, atoms) or truth(right, atoms)
    raise AssertionError(f"unexpected condition {cond!r}")


def reference_write_trace(trace: Trace) -> str:
    """suite.write_trace line by line: one fresh encoding per state."""
    return "".join(json.dumps(sorted(state.atoms), separators=(",", ":")) + "\n" for state in trace)


# --- scopes and patterns -----------------------------------------------------

def _first(trace: Trace, cond, start: int, stop: int) -> int | None:
    """The first position in [start, stop) where `cond` holds, or None."""
    return next((k for k in range(start, stop) if truth(cond, trace[k].atoms)), None)


def reference_segments(scope: Scope, trace: Trace) -> list[tuple[int, int]]:
    """The segments of a scope, straight from the conventions that
    `patterns.segments` states, with `truth` for every condition read."""
    n = len(trace)
    match scope:
        case Globally():
            return [(0, n)]
        case Before(r):
            close = _first(trace, r, 0, n)
            return [] if close is None else [(0, close)]
        case After(q):
            opening = _first(trace, q, 0, n)
            return [] if opening is None else [(opening, n)]
    out, cursor = [], 0
    while (opening := _first(trace, scope.q, cursor, n)) is not None:
        cursor = _first(trace, scope.r, opening + 1, n)
        if cursor is None:
            return out + [(opening, n)] if isinstance(scope, AfterUntil) else out
        out.append((opening, cursor))
    return out


def chain_positions_exist(trace: Trace, chain, start: int, stop: int) -> bool:
    """Brute-force subsequence search: do strictly increasing positions
    k1 < ... < km in (start, stop) exist with chain[i] true at each k_i? Built
    on raw combinations, independently of any greedy matcher."""
    return any(
        all(truth(cond, trace[pos].atoms) for cond, pos in zip(chain, combo))
        for combo in itertools.combinations(range(start + 1, stop), len(chain))
    )


def brute_response_chain_holds(trace: Trace, p, chain, segment) -> bool:
    lo, hi = segment
    return all(chain_positions_exist(trace, chain, k, hi) for k in range(lo, hi) if truth(p, trace[k].atoms))


def brute_precedence_chain_holds(trace: Trace, chain, p, segment) -> bool:
    lo, hi = segment
    first_p = _first(trace, p, lo, hi)
    return first_p is None or chain_positions_exist(trace, chain, lo - 1, first_p)


def reference_verdict(pattern, trace: Trace, segment) -> Holds | Fails:
    """One pattern on one segment, straight from the failing position and
    vacuity rules in `evaluate_pattern`'s docstring. Conditions are read
    with `truth`, and a precedence chain is matched by brute force; each
    response trigger rescans forward for its own answer, so Response and
    ResponseChain are quadratic in the segment length."""
    lo, hi = segment

    def where(cond, value: bool = True, start: int = lo, stop: int = hi) -> list[int]:
        return [k for k in range(start, stop) if truth(cond, trace[k].atoms) is value]

    match pattern:
        case Absence(p):
            hits = where(p)
            return Fails(0, hits[0], "forbidden condition holds") if hits else Holds(vacuous=lo == hi)
        case Universality(p):
            misses = where(p, False)
            return Fails(0, misses[0], "required condition does not hold") if misses else Holds(vacuous=lo == hi)
        case Existence(p):
            return Holds() if where(p) else Fails(0, max(lo, hi - 1), "no position satisfies the condition")
        case BoundedExistence(p, bound):
            starts = [k for k in where(p) if k == lo or not truth(p, trace[k - 1].atoms)]
            if len(starts) > bound:
                return Fails(0, starts[bound], f"block {bound + 1} exceeds the bound of {bound}")
            return Holds(vacuous=lo == hi)
        case Precedence(s, p):
            triggers = where(p)
            if triggers and not where(s, stop=triggers[0] + 1):
                return Fails(0, triggers[0], "condition occurs before its required precedent")
            return Holds(vacuous=not triggers)
        case PrecedenceChain(chain, p):
            triggers = where(p)
            if triggers and not chain_positions_exist(trace, chain, lo - 1, triggers[0]):
                return Fails(0, triggers[0], "condition is not preceded by the full chain")
            return Holds(vacuous=not triggers)
        case Response(p, s, strict):
            triggers = where(p)
            for k in triggers:
                if _first(trace, s, k + 1 if strict else k, hi) is None:
                    return Fails(0, k, "trigger is never answered within the segment")
            return Holds(vacuous=not triggers)
        case ResponseChain(p, chain):
            triggers = where(p)
            for k in triggers:
                cursor = k
                for link in chain:
                    cursor = _first(trace, link, cursor + 1, hi)
                    if cursor is None:
                        return Fails(0, k, "trigger is not followed by the full chain")
            return Holds(vacuous=not triggers)
    raise AssertionError(f"unexpected pattern {pattern!r}")


def reference_check(req: Requirement, trace: Trace) -> Holds | Fails:
    """patterns.check from the references: the first failing segment's
    verdict with its index, else Holds, vacuously iff every segment is."""
    verdicts = []
    for idx, seg in enumerate(reference_segments(req.scope, trace)):
        verdict = reference_verdict(req.pattern, trace, seg)
        if isinstance(verdict, Fails):
            return dataclasses.replace(verdict, segment=idx)
        verdicts.append(verdict)
    return Holds(vacuous=all(v.vacuous for v in verdicts))


# --- formulas ----------------------------------------------------------------

def reference_eval_ltlf(formula: Formula, trace: Trace) -> list[bool]:
    """The formula's truth at every position of a nonempty trace, by backward
    induction over lists of booleans: the reference for the library's mask
    evaluator, eval_ltlf. Shared subtrees (same object) are evaluated once."""
    return _truth_all(formula, trace.states, {})


def _truth_all(formula: Formula, states: tuple, memo: dict[int, list[bool]]) -> list[bool]:
    key = id(formula)
    if (cached := memo.get(key)) is None:
        cached = memo[key] = _EVALUATORS[type(formula)](formula, states, memo)
    return cached


def _pointwise(op):
    """A binary operator, applied position by position."""
    return lambda f, states, memo: list(map(op, _truth_all(f.left, states, memo), _truth_all(f.right, states, memo)))


def _from_the_end(op):
    """A unary operator folding `op` over the values from each position on."""
    return lambda f, states, memo: list(itertools.accumulate(reversed(_truth_all(f.operand, states, memo)), op))[::-1]


def _until(beyond_end: bool):
    """left U right, backward: right holds, or left does and the until holds next or, past the end, `beyond_end`."""
    def scan(f, states, memo):
        out, later = [], beyond_end
        for a, b in zip(reversed(_truth_all(f.left, states, memo)), reversed(_truth_all(f.right, states, memo))):
            later = b or (a and later)
            out.append(later)
        out.reverse()
        return out
    return scan


_EVALUATORS = {
    Const: lambda f, states, memo: [f.value] * len(states),
    Ref: lambda f, states, memo: [f.name in state.atoms for state in states],
    Not: lambda f, states, memo: [not v for v in _truth_all(f.inner, states, memo)],
    And: _pointwise(operator.and_),
    Or: _pointwise(operator.or_),
    # On truth values, a -> b is a <= b.
    Implies: _pointwise(operator.le),
    Next: lambda f, states, memo: _truth_all(f.operand, states, memo)[1:] + [False],
    WeakNext: lambda f, states, memo: _truth_all(f.operand, states, memo)[1:] + [True],
    Eventually: _from_the_end(operator.or_),
    Always: _from_the_end(operator.and_),
    # W tolerates running off the end of the trace, U does not.
    Until: _until(False),
    WeakUntil: _until(True),
}
