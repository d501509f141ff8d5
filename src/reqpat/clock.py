"""The 24-hour clock demonstration system and its requirement suite.

The clock keeps wall-clock time at minute granularity. Minute 1440 is the
distinguished end-of-day state displayed as 24:00; ticking past it moves
straight to 00:01, so the duplicate 00:00 reading never reappears and every
wall-clock minute occurs exactly once per 1440-tick cycle.
"""

from __future__ import annotations

from importlib import resources

from .conditions import Ref, State
from .suite import Suite, load_suite

MIDNIGHT_ATOM = "at_2400"
MIDNIGHT = Ref(MIDNIGHT_ATOM)

_LAST_MINUTE = 1440
_AT_MIDNIGHT = State((MIDNIGHT_ATOM,))
_BEFORE_MIDNIGHT = State()


class Clock:
    """A fresh clock reads 00:00; each tick advances one minute."""

    def __init__(self) -> None:
        self.minute = 0

    def reset(self) -> None:
        self.minute = 0

    def tick(self) -> None:
        self.minute = 1 if self.minute == _LAST_MINUTE else self.minute + 1

    def observations(self) -> State:
        """The atoms that hold now: `at_2400` at 24:00 and none otherwise.
        Every call returns one of two shared, immutable State objects."""
        return _AT_MIDNIGHT if self.minute == _LAST_MINUTE else _BEFORE_MIDNIGHT

    def display(self) -> str:
        return clock_display(self.minute)


def clock_display(minute: int) -> str:
    """Render a minute count as HH:MM with leading zeros; 1440 reads 24:00."""
    if not 0 <= minute <= _LAST_MINUTE:
        raise ValueError(f"minute {minute} outside [0, {_LAST_MINUTE}]")
    return f"{minute // 60:02d}:{minute % 60:02d}"


def builtin_suite() -> Suite:
    """The clock requirement suite: reachability of midnight, then recurrence.

    A single midnight condition resolves the source document's competing
    definitions; STATEMENT_1_1 is the strict midnight-to-midnight response
    the drive-mode demo exercises, and STATEMENT_0 is the reachability
    requirement whose establishment the response verification relies on.
    """
    return load_suite(builtin_suite_text())


def builtin_suite_text() -> str:
    """The serialized form of the clock suite, shipped as package data."""
    return resources.files("reqpat").joinpath("data/clock_suite.json").read_text(encoding="utf-8")
