import random

import pytest

from reqpat.clock import MIDNIGHT, Clock
from reqpat.conditions import And, Condition, Const, Not, State, Trace, eval_condition
from reqpat.harness import (
    NotReached,
    PreconditionViolation,
    Reached,
    drive_verify_response,
    establish,
    record,
)
from reqpat.ltl import Next
from reqpat.suite import load_trace, write_trace


def test_record_initial_state_only():
    trace = record(Clock(), 0)
    assert len(trace) == 1
    assert "at_2400" not in trace[0]


def test_record_counts_states_not_ticks():
    clock = Clock()
    trace = record(clock, 2)
    assert len(trace) == 3
    assert clock.minute == 2


def test_record_walks_the_first_three_displays():
    clock = Clock()
    record(clock, 0)
    displays = [clock.display()]
    for _ in range(2):
        clock.tick()
        displays.append(clock.display())
    assert displays == ["00:00", "00:01", "00:02"]


def test_record_1440_reaches_midnight():
    trace = record(Clock(), 1440)
    assert "at_2400" in trace[1440]
    assert all("at_2400" not in trace[i] for i in range(1440))


def test_record_resets_first():
    clock = Clock()
    clock.tick()
    clock.tick()
    assert record(clock, 0)[0] == State()


def test_record_is_deterministic():
    clock = Clock()
    assert record(clock, 50) == record(clock, 50)


def test_record_shares_one_state_per_clock_observation():
    steps = 3 * 1440
    trace = record(Clock(), steps)
    assert len({id(state) for state in trace}) == 2
    fresh = Trace(State({"at_2400"}) if t and t % 1440 == 0 else State() for t in range(steps + 1))
    assert trace == fresh
    assert load_trace(write_trace(trace)) == fresh


def test_establish_fresh_clock():
    assert establish(Clock(), MIDNIGHT, 2000) == Reached(1440)


def test_establish_insufficient_bound():
    assert establish(Clock(), MIDNIGHT, 100) == NotReached(100)


def test_establish_already_holding_needs_no_ticks():
    clock = Clock()
    assert establish(clock, MIDNIGHT, 2000) == Reached(1440)
    assert establish(clock, MIDNIGHT, 0) == Reached(0)


def test_establish_refuses_a_temporal_node_inside_a_condition():
    with pytest.raises(TypeError) as exc_info:
        establish(Clock(), And(Not(MIDNIGHT), Next(MIDNIGHT)), 2000)
    assert str(exc_info.value) == f"not a condition: {Next(MIDNIGHT)!r}"


def test_establish_does_not_reset():
    clock = Clock()
    clock.minute = 1439
    assert establish(clock, MIDNIGHT, 10) == Reached(1)


def test_drive_verify_response_requires_established_trigger():
    outcome = drive_verify_response(Clock(), MIDNIGHT, MIDNIGHT, 2000)
    assert outcome == PreconditionViolation("p_holds")
    assert str(outcome) == "PreconditionViolation(p_holds)"


def test_drive_verify_response_after_establish():
    clock = Clock()
    assert isinstance(establish(clock, MIDNIGHT, 2000), Reached)
    assert drive_verify_response(clock, MIDNIGHT, MIDNIGHT, 2000) == Reached(1440)


def test_drive_verify_response_bound_too_small():
    clock = Clock()
    establish(clock, MIDNIGHT, 2000)
    assert drive_verify_response(clock, MIDNIGHT, MIDNIGHT, 10) == NotReached(10)


def test_drive_is_strict_even_when_response_already_holds():
    clock = Clock()
    establish(clock, MIDNIGHT, 2000)
    # bound 0 cannot satisfy the at-least-one-tick follow
    assert drive_verify_response(clock, MIDNIGHT, MIDNIGHT, 0) == NotReached(0)


def test_establish_then_drive_never_violates_precondition():
    """Sequencing soundness: whenever establish reports Reached, the verify
    step that follows it cannot hit the p_holds precondition."""
    rng = random.Random(20240827)
    conditions = [MIDNIGHT, Not(MIDNIGHT), Const(True)]
    for _ in range(40):
        clock = Clock()
        clock.minute = rng.randrange(0, 1441)
        trigger = rng.choice(conditions)
        if isinstance(establish(clock, trigger, rng.randrange(0, 3000)), Reached):
            outcome = drive_verify_response(clock, trigger, MIDNIGHT, 5)
            assert not isinstance(outcome, PreconditionViolation)


def test_reached_steps_are_minimal():
    """Re-simulate from the same start state: the condition must be false at
    every smaller tick count."""
    for start in (0, 700, 1439, 1440):
        clock = Clock()
        clock.minute = start
        outcome = establish(clock, MIDNIGHT, 2000)
        assert isinstance(outcome, Reached)
        replay = Clock()
        replay.minute = start
        for _ in range(outcome.steps):
            assert not eval_condition(MIDNIGHT, replay.observations())
            replay.tick()
        assert eval_condition(MIDNIGHT, replay.observations())


def test_drive_reached_consistent_with_strict_trace_response():
    """Drive-mode Reached(k) from a state implies the trigger at position 0
    of the run captured from that same state is answered strictly later,
    first at position k exactly."""
    clock = Clock()
    establish(clock, MIDNIGHT, 2000)
    start = clock.minute
    outcome = drive_verify_response(clock, MIDNIGHT, MIDNIGHT, 2000)
    assert isinstance(outcome, Reached)

    replay = Clock()
    replay.minute = start
    states = [replay.observations()]
    for _ in range(outcome.steps):
        replay.tick()
        states.append(replay.observations())
    from reqpat.conditions import Trace
    from reqpat.ltl import eval_ltlf, parse

    run = Trace(states)
    assert eval_condition(MIDNIGHT, run[0])
    assert eval_ltlf(parse("X <>at_2400"), run, 0) is True
    answers = [m for m in range(1, len(run)) if eval_condition(MIDNIGHT, run[m])]
    assert answers[0] == outcome.steps


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        record(Clock(), -1)
    with pytest.raises(ValueError):
        establish(Clock(), MIDNIGHT, -1)
    with pytest.raises(ValueError):
        drive_verify_response(Clock(), Const(True), MIDNIGHT, -1)


def test_drive_verify_response_refuses_a_bad_response_before_any_tick():
    for bound in (0, 5):
        clock = Clock()
        clock.minute = 1440
        with pytest.raises(TypeError) as exc_info:
            drive_verify_response(clock, MIDNIGHT, "nope", bound)
        assert str(exc_info.value) == "not a condition: 'nope'"
        assert clock.minute == 1440
    # With both bad, the trigger is named: it is checked first.
    with pytest.raises(TypeError) as exc_info:
        drive_verify_response(clock, "bad", "nope", 5)
    assert str(exc_info.value) == "not a condition: 'bad'"
    assert clock.minute == 1440


class CountingCondition(Condition):
    """A condition that reads as `inner` does and counts its reads."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = 0

    def holds(self, state):
        self.reads += 1
        return self.inner.holds(state)


class CountingClock(Clock):
    def __init__(self, minute=0):
        super().__init__()
        self.minute = minute
        self.ticks = self.observed = 0

    def tick(self):
        self.ticks += 1
        super().tick()

    def observations(self):
        self.observed += 1
        return super().observations()


@pytest.mark.parametrize(
    "start, bound, outcome",
    [(1440, 0, Reached(0)), (1437, 10, Reached(3)), (0, 10, NotReached(10)), (1430, 0, NotReached(0))],
)
def test_establish_pays_one_tick_one_observation_and_one_read_per_step(start, bound, outcome):
    clock, cond = CountingClock(start), CountingCondition(MIDNIGHT)
    assert establish(clock, cond, bound) == outcome
    ticks = outcome.steps if isinstance(outcome, Reached) else outcome.bound
    assert (clock.ticks, clock.observed, cond.reads) == (ticks, ticks + 1, ticks + 1)


@pytest.mark.parametrize(
    "trigger, start, bound, outcome, ticks",
    [
        (Const(True), 1437, 10, Reached(3), 3),
        (Const(True), 0, 10, NotReached(10), 10),
        (Const(True), 1440, 0, NotReached(0), 0),
        (Const(False), 1437, 10, PreconditionViolation(), 0),
    ],
)
def test_drive_verify_response_reads_the_trigger_once_and_the_response_per_tick(trigger, start, bound, outcome, ticks):
    clock = CountingClock(start)
    trigger, response = CountingCondition(trigger), CountingCondition(MIDNIGHT)
    assert drive_verify_response(clock, trigger, response, bound) == outcome
    assert (clock.ticks, clock.observed) == (ticks, ticks + 1)
    assert (trigger.reads, response.reads) == (1, ticks)
