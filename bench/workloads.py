"""Seeded workload inputs for the reqpat benchmark.

Each builder takes the workload seed and returns a Workload: the suite and
trace the check path reads, the verdicts known by construction, the system
under test the drive and replay paths use, the short traces the two-route
crosscheck sweeps, and the share of a run's time each operation gets. The
same seed gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

from reqpat.clock import MIDNIGHT_ATOM, Clock, builtin_suite_text
from reqpat.conditions import State
from reqpat.ltl import UnsupportedPattern, emit_ltl
from reqpat.suite import Suite, load_suite

# An expected verdict: ("holds" | "fails", vacuous, failing position or None).
Expected = tuple[str, bool, "int | None"]

HOLDS: Expected = ("holds", False, None)
VACUOUS: Expected = ("holds", True, None)

SCOPE_KEYS = ("globally", "before", "after", "between", "after_until")


class ReplaySut:
    """A system under test that replays a generated run, wrapping at its end.
    `ticks` counts every tick since construction; a reset does not clear it."""

    def __init__(self, states: list[State]):
        self.states = states
        self.position = 0
        self.ticks = 0

    def reset(self) -> None:
        self.position = 0

    def tick(self) -> None:
        self.position += 1
        self.ticks += 1

    def observations(self) -> State:
        return self.states[self.position % len(self.states)]


class CountingClock(Clock):
    """The built-in clock, counting every tick since construction."""

    ticks = 0

    def tick(self) -> None:
        self.ticks += 1
        Clock.tick(self)


@dataclass
class Workload:
    name: str
    suite_text: str
    trace: list[frozenset]
    # Verdicts known by construction for `trace`; None where only the
    # oracle can say (a uniformly random trace).
    expected: dict[str, Expected] | None
    # Atom set of the system under test after t ticks from reset.
    state_at: Callable[[int], frozenset]
    make_sut: Callable[[], object]
    # Ticks recorded by one replay round trip.
    record_steps: int
    # Steps of one drive operation, run on one system after a reset:
    # ("record", n), ("establish", cond_name, bound),
    # ("verify", trigger_name, response_name, bound), ("cli", bound).
    drive_script: list[tuple]
    # (requirement, traces) pairs, each trace a tuple of States.
    crosscheck: list[tuple]
    shares: dict[str, float]
    suite: Suite
    # Where in the crosscheck sweep a run starts, as a share of its chunks.
    sweep_start: float = 0.0

    def trace_text(self, states: list[frozenset] | None = None) -> str:
        states = self.trace if states is None else states
        return "".join(json.dumps(sorted(s), separators=(",", ":")) + "\n" for s in states)


def _suite_text(conditions: dict[str, str], requirements: list[dict]) -> str:
    return json.dumps({"conditions": conditions, "requirements": requirements}, indent=2) + "\n"


def _scopes(q: str, r: str) -> dict[str, dict]:
    return {
        "globally": {"type": "globally"},
        "before": {"type": "before", "r": r},
        "after": {"type": "after", "q": q},
        "between": {"type": "between", "q": q, "r": r},
        "after_until": {"type": "after_until", "q": q, "r": r},
    }


def _requirements(patterns: dict[str, dict], scopes: dict[str, dict]) -> list[dict]:
    return [
        {"name": f"{pk}_{sk}", "pattern": pattern, "scope": scope}
        for pk, pattern in patterns.items()
        for sk, scope in scopes.items()
    ]


def _interned(trace: list[frozenset]) -> list[State]:
    cache: dict[frozenset, State] = {}
    return [cache.setdefault(atoms, State(atoms)) for atoms in trace]


def emittable(req) -> bool:
    try:
        emit_ltl(req)
    except UnsupportedPattern:
        return False
    return True


def _spread(rng: random.Random, span: int, count: int) -> list[int]:
    """`count` window starts below `span` (fewer if `span` is smaller),
    evenly spaced from a seeded offset, so every seed's windows cover the
    trace in the same mix."""
    stride = max(1, span // count)
    offset = rng.randrange(stride)
    return [offset + i * stride for i in range(min(count, span))]


def _windows(suite: Suite, states: list[State], starts: list[int], length: int) -> list[tuple]:
    windows = [tuple(states[s : s + length]) for s in starts]
    return [(req, windows) for req in suite.requirements if emittable(req)]


# --- trace-bulk ------------------------------------------------------------------

BULK_STATES = 10_000
BULK_CONDITIONS = {
    "request": "req && !grant",
    "granted": "grant && !done",
    "working": "busy && !grant",
    "finished": "done",
    "fault": "err",
    "no_clash": "!(grant && done)",
}
BULK_PATTERNS = {
    "absence": {"type": "absence", "p": "fault"},
    "universality": {"type": "universality", "p": "no_clash"},
    "existence": {"type": "existence", "p": "granted"},
    "bounded": {"type": "bounded_existence", "p": "fault", "k": 1},
    "precedence": {"type": "precedence", "s": "granted", "p": "working"},
    "response": {"type": "response", "p": "request", "s": "granted"},
    "response_chain": {"type": "response_chain", "p": "request", "chain": ["granted", "working"]},
    "precedence_chain": {"type": "precedence_chain", "chain": ["request", "granted"], "p": "finished"},
}
_TXN_MAX = 3 + 4 + 1 + 4 + 1


def _bulk_trace(rng: random.Random, n: int) -> tuple[list[frozenset], int]:
    """Request/grant transactions: idle, req held while waiting, grant, busy,
    done. Every state may carry the noise atom `log`. One `err` sits in the
    busy phase of the last transaction; idle states pad the end. Returns the
    trace and the position of `err`."""
    states: list[frozenset] = []

    def add(*atoms: str) -> None:
        extra = ("log",) if rng.random() < 0.3 else ()
        states.append(frozenset(atoms + extra))

    def transaction(with_error: bool) -> int:
        for _ in range(rng.randint(0, 3)):
            add()
        for _ in range(rng.randint(1, 4)):
            add("req")
        add("grant")
        busy = rng.randint(1, 4)
        err_at = rng.randrange(busy) if with_error else -1
        err_pos = -1
        for k in range(busy):
            if k == err_at:
                err_pos = len(states)
                add("busy", "err")
            else:
                add("busy")
        add("done")
        return err_pos

    while len(states) + 2 * _TXN_MAX <= n:
        transaction(False)
    err_pos = transaction(True)
    while len(states) < n:
        add()
    return states, err_pos


def trace_bulk(seed: int, states: int = BULK_STATES) -> Workload:
    rng = random.Random(f"trace-bulk/{seed}")
    trace, err_pos = _bulk_trace(rng, states)
    suite_text = _suite_text(BULK_CONDITIONS, _requirements(BULK_PATTERNS, _scopes("request", "finished")))
    expected = {f"{pk}_{sk}": HOLDS for pk in BULK_PATTERNS for sk in SCOPE_KEYS}
    for sk in ("globally", "after", "between", "after_until"):
        expected[f"absence_{sk}"] = ("fails", False, err_pos)
    for sk in ("before", "between", "after_until"):
        expected[f"precedence_chain_{sk}"] = VACUOUS
    replay_states = _interned(trace)
    suite = load_suite(suite_text)
    starts = _spread(rng, len(trace) - 32, 40)
    script = [("record", 2000)] + [("establish", "request", 100), ("verify", "request", "granted", 100)] * 600
    return Workload(
        name="trace-bulk",
        suite_text=suite_text,
        trace=trace,
        expected=expected,
        state_at=lambda t: trace[t % len(trace)],
        make_sut=lambda: ReplaySut(replay_states),
        record_steps=min(2000, len(trace) - 1),
        drive_script=script,
        crosscheck=_windows(suite, replay_states, starts, 32),
        shares={"check_s": 0.5, "replay_s": 0.125, "crosscheck_traces_per_s": 0.125,
                "drive_ticks_per_s": 0.125, "tooling_s": 0.125},
        suite=suite,
    )


# --- response-backlog ------------------------------------------------------------

BACKLOG_CONDITIONS = {"trigger": "p", "answer": "s", "followup": "t", "open": "q", "close": "r"}
BACKLOG_PATTERNS = {
    "response": {"type": "response", "p": "trigger", "s": "answer", "strict": False},
    "response_strict": {"type": "response", "p": "trigger", "s": "answer", "strict": True},
    "response_chain": {"type": "response_chain", "p": "trigger", "chain": ["answer", "followup"]},
}


def _backlog_trace(rng: random.Random, backlog: int) -> tuple[list[frozenset], list[int], int]:
    """Blocks of q, a run of p, then s, t, r, separated by idle states. A
    short first block, the same for every seed, keeps the replay round trip
    cheap and its cost the same; the two long blocks keep the sum of squared
    backlogs nearly constant across seeds, because the quadratic checks cost
    in proportion to it. Every state carries its own sequence atom. Returns
    the trace, the backlogs, and the position just after the first block."""
    jitter = rng.randint(0, backlog // 20)
    backlogs = [backlog // 5, backlog + jitter, backlog - jitter]
    kinds: list[tuple[str, ...]] = []
    first_end = 0
    for index, backlog in enumerate(backlogs):
        kinds += [()] * (10 if index == 0 else rng.randint(3, 20))
        kinds += [("q",)] + [("p",)] * backlog + [("s",), ("t",), ("r",)]
        if index == 0:
            first_end = len(kinds)
    kinds += [()] * rng.randint(3, 20)
    trace = [frozenset(atoms + (f"n{i:05d}",)) for i, atoms in enumerate(kinds)]
    return trace, backlogs, first_end


def response_backlog(seed: int, backlog: int = 400) -> Workload:
    rng = random.Random(f"response-backlog/{seed}")
    trace, _, first_end = _backlog_trace(rng, backlog)
    scopes = {k: v for k, v in _scopes("open", "close").items() if k in ("globally", "between", "after_until")}
    suite_text = _suite_text(BACKLOG_CONDITIONS, _requirements(BACKLOG_PATTERNS, scopes))
    states = [State(atoms) for atoms in trace]
    suite = load_suite(suite_text)
    starts = _spread(rng, len(trace) - 48, 200)
    script = [("record", 100)] + [("establish", "trigger", 5000), ("verify", "trigger", "answer", 5000)] * 90
    return Workload(
        name="response-backlog",
        suite_text=suite_text,
        trace=trace,
        expected={req.name: HOLDS for req in suite.requirements},
        state_at=lambda t: trace[t % len(trace)],
        make_sut=lambda: ReplaySut(states),
        record_steps=first_end,
        drive_script=script,
        crosscheck=_windows(suite, states, starts, 48),
        shares={"check_s": 0.5, "replay_s": 0.125, "crosscheck_traces_per_s": 0.125,
                "drive_ticks_per_s": 0.125, "tooling_s": 0.125},
        suite=suite,
    )


# --- crosscheck-exhaustive -------------------------------------------------------

CELL_PATTERNS = {
    "absence": ({"type": "absence", "p": "p"}, ("p",)),
    "universality": ({"type": "universality", "p": "p"}, ("p",)),
    "existence": ({"type": "existence", "p": "p"}, ("p",)),
    "bounded0": ({"type": "bounded_existence", "p": "p", "k": 0}, ("p",)),
    "bounded1": ({"type": "bounded_existence", "p": "p", "k": 1}, ("p",)),
    "bounded2": ({"type": "bounded_existence", "p": "p", "k": 2}, ("p",)),
    "precedence": ({"type": "precedence", "s": "s", "p": "p"}, ("p", "s")),
    "response": ({"type": "response", "p": "p", "s": "s", "strict": False}, ("p", "s")),
}
CELL_SCOPE_ATOMS = {"globally": (), "before": ("r",), "after": ("q",), "between": ("q", "r"), "after_until": ("q", "r")}
# The tier-1 gate sweeps every trace of length 1 to 5 over each cell's atoms.
CELL_MAX_LENGTH = 5
CELL_CHECK_STATES = 2_000


class TraceSpace:
    """Every trace over the atoms with length 1..max_length, shortest first
    and then in `itertools.product` order, as a sequence whose items are
    built when indexed, so a sweep of millions of traces takes no memory."""

    def __init__(self, atoms: tuple[str, ...], max_length: int):
        self.universe = [State(bits) for size in range(len(atoms) + 1) for bits in itertools.combinations(atoms, size)]
        self.counts = [len(self.universe) ** length for length in range(1, max_length + 1)]

    def __len__(self) -> int:
        return sum(self.counts)

    def __getitem__(self, index: int) -> tuple[State, ...]:
        if not 0 <= index < len(self):
            raise IndexError(index)
        length = 1
        while index >= self.counts[length - 1]:
            index -= self.counts[length - 1]
            length += 1
        base = len(self.universe)
        states = []
        for _ in range(length):
            index, digit = divmod(index, base)
            states.append(self.universe[digit])
        return tuple(reversed(states))


def crosscheck_exhaustive(seed: int) -> Workload:
    rng = random.Random(f"crosscheck-exhaustive/{seed}")
    conditions = {a: a for a in ("p", "q", "r", "s")}
    patterns = {k: v[0] for k, v in CELL_PATTERNS.items()}
    suite_text = _suite_text(conditions, _requirements(patterns, _scopes("q", "r")))
    suite = load_suite(suite_text)
    by_name = {req.name: req for req in suite.requirements}
    cells = []
    for pk, (_, pattern_atoms) in CELL_PATTERNS.items():
        for sk, scope_atoms in CELL_SCOPE_ATOMS.items():
            atoms = tuple(dict.fromkeys(pattern_atoms + scope_atoms))
            cells.append((by_name[f"{pk}_{sk}"], TraceSpace(atoms, CELL_MAX_LENGTH)))
    rng.shuffle(cells)
    trace = [frozenset(a for a in ("p", "q", "r", "s") if rng.random() < 0.25) for _ in range(CELL_CHECK_STATES)]
    states = _interned(trace)
    script = [("record", 1000)] + [("establish", "p", 500), ("verify", "p", "s", 500)] * 600
    return Workload(
        name="crosscheck-exhaustive",
        suite_text=suite_text,
        trace=trace,
        expected=None,
        state_at=lambda t: trace[t % len(trace)],
        make_sut=lambda: ReplaySut(states),
        record_steps=1000,
        drive_script=script,
        crosscheck=cells,
        shares={"crosscheck_traces_per_s": 0.5, "check_s": 0.125, "tooling_s": 0.125,
                "replay_s": 0.125, "drive_ticks_per_s": 0.125},
        suite=suite,
        sweep_start=rng.random(),
    )


# --- drive-clock -----------------------------------------------------------------

DAY = 1440
CLOCK_DAYS = 3


def clock_state(t: int) -> frozenset:
    """The clock's atoms t ticks after reset: midnight every 1440 ticks."""
    return frozenset((MIDNIGHT_ATOM,)) if t and t % DAY == 0 else frozenset()


def drive_clock(seed: int) -> Workload:
    rng = random.Random(f"drive-clock/{seed}")
    steps = CLOCK_DAYS * DAY + rng.randint(1, 59)
    trace = [clock_state(t) for t in range(steps + 1)]
    states = _interned(trace)
    suite_text = builtin_suite_text()
    suite = load_suite(suite_text)
    # Half the windows end at most 47 minutes past a midnight, half are
    # spread over the run.
    starts = [rng.randint(1, CLOCK_DAYS) * DAY - rng.randint(0, 47) for _ in range(200)]
    starts += _spread(rng, steps - 48, 200)
    bound = rng.randint(1500, 2000)
    script = [
        ("cli", bound),
        ("verify", "midnight", "midnight", bound),
        ("establish", "midnight", bound),
        ("verify", "midnight", "midnight", bound),
        ("record", DAY),
    ]
    return Workload(
        name="drive-clock",
        suite_text=suite_text,
        trace=trace,
        expected={"STATEMENT_0": HOLDS, "STATEMENT_1_1": ("fails", False, CLOCK_DAYS * DAY)},
        state_at=clock_state,
        make_sut=CountingClock,
        record_steps=steps,
        drive_script=script,
        crosscheck=_windows(suite, states, starts, 48),
        shares={"drive_ticks_per_s": 0.5, "replay_s": 0.125, "check_s": 0.125,
                "crosscheck_traces_per_s": 0.125, "tooling_s": 0.125},
        suite=suite,
    )


BUILDERS = {
    "trace-bulk": trace_bulk,
    "response-backlog": response_backlog,
    "crosscheck-exhaustive": crosscheck_exhaustive,
    "drive-clock": drive_clock,
}
