import re

import pytest

from reqpat.clock import Clock, builtin_suite, builtin_suite_text, clock_display
from reqpat.conditions import Ref
from reqpat.patterns import Existence, Globally, Requirement, Response, TraceLinks
from reqpat.picnic import render_requirement
from reqpat.suite import Suite, dump_suite, load_suite

DISPLAY_RE = re.compile(r"^([01][0-9]|2[0-4]):[0-5][0-9]$")


def test_fresh_clock_reads_midnight_start():
    clock = Clock()
    assert clock.display() == "00:00"
    assert "at_2400" not in clock.observations()


def test_display_examples():
    assert clock_display(547) == "09:07"
    assert clock_display(0) == "00:00"
    assert clock_display(1440) == "24:00"


def test_display_rejects_out_of_range():
    with pytest.raises(ValueError):
        clock_display(-1)
    with pytest.raises(ValueError):
        clock_display(1441)


def test_display_format_invariant_over_all_states():
    for minute in range(1441):
        assert DISPLAY_RE.fullmatch(clock_display(minute)), clock_display(minute)


def test_tick_wraps_past_end_of_day():
    clock = Clock()
    clock.minute = 1440
    clock.tick()
    assert clock.minute == 1
    assert clock.display() == "00:01"


def test_midnight_atom_unique_to_one_state():
    count = 0
    clock = Clock()
    for minute in range(1441):
        clock.minute = minute
        if "at_2400" in clock.observations():
            count += 1
    assert count == 1


def test_cycle_length_is_1440_from_every_state():
    """Ticking 1440 times returns every state to the same wall-clock minute;
    00:00 and 24:00 are the same minute read at either end of the day, and no
    smaller positive tick count gets back to it."""
    same = lambda a, b: a == b or {a, b} == {0, 1440}
    for start in range(1441):
        clock = Clock()
        clock.minute = start
        for step in range(1, 1441):
            clock.tick()
            if step < 1440:
                assert not same(clock.minute, start)
        assert same(clock.minute, start)


def test_builtin_suite_shape():
    midnight = Ref("at_2400")
    repo = "https://example.org/clock-requirements"
    assert builtin_suite() == Suite(
        conditions={"midnight": midnight},
        requirements=[
            Requirement(
                "STATEMENT_0",
                Existence(midnight),
                Globally(),
                TraceLinks(repo_url=f"{repo}/statement_0"),
            ),
            Requirement(
                "STATEMENT_1_1",
                Response(midnight, midnight, strict=True),
                Globally(),
                TraceLinks(
                    source_url="https://simple.wikipedia.org/wiki/24-hour_clock",
                    source_quote="the day runs from midnight to midnight",
                    repo_url=f"{repo}/statement_1_1",
                ),
            ),
        ],
    )


def test_builtin_suite_picnic_phrase_mentions_response():
    suite = builtin_suite()
    line = render_requirement(suite.requirements[1], suite.names_by_condition())
    assert "responds to" in line.phrase


def test_builtin_suite_serialization_round_trip():
    suite = builtin_suite()
    assert load_suite(dump_suite(suite)) == suite
    assert load_suite(builtin_suite_text()) == suite
    assert dump_suite(suite) == builtin_suite_text()


def test_reflexive_statement_1_1_holds_on_recorded_day():
    """Midnight shows up at indices 1440 and 2880 of the recorded day, and
    each occurrence answers itself under the reflexive reading."""
    from reqpat.conditions import Ref
    from reqpat.harness import record
    from reqpat.patterns import Holds, Requirement, check

    trace = record(Clock(), 2880)
    midnight = Ref("at_2400")
    assert [k for k in range(len(trace)) if "at_2400" in trace[k]] == [1440, 2880]
    reflexive = Requirement("STATEMENT_1_1", Response(midnight, midnight, strict=False), Globally())
    assert check(reflexive, trace) == Holds(vacuous=False)


def test_drive_mode_both_statements_at_exact_bound():
    """Bound 1440 is exactly enough: establishment and response verification
    both report precisely 1440 steps."""
    from reqpat.harness import Reached, drive_verify_response, establish

    suite = builtin_suite()
    midnight = suite.conditions["midnight"]
    clock = Clock()
    assert establish(clock, midnight, 1440) == Reached(1440)
    assert drive_verify_response(clock, midnight, midnight, 1440) == Reached(1440)
