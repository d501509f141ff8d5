"""Drive-mode verification against a live system under test.

A system under test exposes three capabilities: reset to its initial state,
tick one step forward, and report the current observations. The harness can
record a bounded run as a trace for trace-mode checking, establish a
condition by bounded reachability, and verify a response by driving the
system from an established trigger until the response appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from .conditions import Condition, State, Trace, eval_condition

P_HOLDS = "p_holds"


@runtime_checkable
class SutContract(Protocol):
    def reset(self) -> None: ...

    def tick(self) -> None: ...

    def observations(self) -> State: ...


@dataclass(frozen=True)
class Reached:
    steps: int

    def __str__(self) -> str:
        return f"Reached({self.steps})"


@dataclass(frozen=True)
class NotReached:
    bound: int

    def __str__(self) -> str:
        return f"NotReached({self.bound})"


@dataclass(frozen=True)
class PreconditionViolation:
    tag: str = P_HOLDS

    def __str__(self) -> str:
        return f"PreconditionViolation({self.tag})"


DriveOutcome = Reached | NotReached | PreconditionViolation


def record(sut: SutContract, steps: int) -> Trace:
    """Reset the system and record its run: the initial state plus one state
    per tick, `steps + 1` states in total."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    sut.reset()
    states = [sut.observations()]
    for _ in range(steps):
        sut.tick()
        states.append(sut.observations())
    return Trace(states)


def establish(sut: SutContract, cond: Condition, bound: int) -> Reached | NotReached:
    """Drive the system until the condition holds, at most `bound` ticks.

    Does not reset: establishment composes with whatever state the system is
    already in, so successive establish/verify calls chain like a scripted
    test. Returns Reached(0) without ticking when the condition already
    holds; NotReached is an ordinary value, not an error.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if eval_condition(cond, sut.observations()):
        return Reached(0)
    return _tick_until(sut, cond, bound)


def drive_verify_response(
    sut: SutContract, trigger: Condition, response: Condition, bound: int
) -> DriveOutcome:
    """Verify a response in drive mode: with the trigger holding now, tick
    until the response holds, at most `bound` ticks.

    The trigger is a dynamically checked precondition tagged `p_holds`: when
    it does not hold, the caller must first establish it, and the violation
    is reported instead of a verdict. The follow-up is strict; at least one
    tick separates trigger and response, so a bound of 0 can never reach.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if not eval_condition(trigger, sut.observations()):
        return PreconditionViolation(P_HOLDS)
    return _tick_until(sut, response, bound)


def _tick_until(sut: SutContract, cond: Condition, bound: int) -> Reached | NotReached:
    """Tick until the condition holds, at most `bound` ticks."""
    for k in range(1, bound + 1):
        sut.tick()
        if eval_condition(cond, sut.observations()):
            return Reached(k)
    return NotReached(bound)
