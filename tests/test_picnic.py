import itertools
import re

import pytest

from reqpat.clock import builtin_suite
from reqpat.conditions import Ref
from reqpat.ltl import emit_ltl
from reqpat.patterns import (
    PATTERNS,
    SCOPES,
    Absence,
    After,
    AfterUntil,
    Before,
    Between,
    BoundedExistence,
    Existence,
    Globally,
    Precedence,
    PrecedenceChain,
    Requirement,
    Response,
    ResponseChain,
    TraceLinks,
    Universality,
    parameters,
)
from reqpat.picnic import PicnicError, render_requirement, render_suite_report, traceability_report
from reqpat.suite import Suite

P, Q, R, S = Ref("p"), Ref("q"), Ref("r"), Ref("s")
NAMES = {P: "p", Q: "q", R: "r", S: "s"}


def test_statement_1_1_phrases():
    midnight = Ref("at_2400")
    names = {midnight: "midnight"}
    strict = Requirement("STATEMENT_1_1", Response(midnight, midnight, strict=True), Globally())
    line = render_requirement(strict, names)
    assert line.render() == "STATEMENT_1_1: midnight responds to midnight strictly globally"
    reflexive = Requirement("STATEMENT_1_1", Response(midnight, midnight, strict=False), Globally())
    assert (
        render_requirement(reflexive, names).render()
        == "STATEMENT_1_1: midnight responds to midnight globally"
    )


def test_statement_0_phrase():
    midnight = Ref("at_2400")
    req = Requirement("STATEMENT_0", Existence(midnight), Globally())
    line = render_requirement(req, {midnight: "midnight"})
    assert line.render() == "STATEMENT_0: midnight eventually holds globally"


def test_phrase_table():
    cases = [
        (Absence(P), Before(R), "it is never the case that p holds before r"),
        (Universality(P), After(Q), "it is always the case that p holds after q"),
        (BoundedExistence(P, 2), Globally(), "p holds in at most 2 episodes globally"),
        (Precedence(S, P), Between(Q, R), "s precedes p between q and r"),
        (ResponseChain(P, [Q, S]), Globally(), "q, s respond in order to p globally"),
        (PrecedenceChain([Q, S], P), AfterUntil(Q, R), "q, s precede in order p after q until r"),
    ]
    for pattern, scope, phrase in cases:
        assert render_requirement(Requirement("X", pattern, scope), NAMES).phrase == phrase


def test_every_catalogue_class_carries_its_meaning_and_its_phrase():
    for catalogue, meaning in ((PATTERNS, "evaluate"), (SCOPES, "segments")):
        for cls in catalogue.values():
            assert {meaning, "phrase"} <= vars(cls).keys(), cls
            assert "phrase" not in parameters(cls)


def test_missing_display_name_errors_with_requirement():
    req = Requirement("NAMELESS", Existence(Ref("mystery")), Globally())
    with pytest.raises(PicnicError) as exc_info:
        render_requirement(req, NAMES)
    assert "NAMELESS" in str(exc_info.value)


def test_suite_report_pairs_lines_with_quotes():
    report = render_suite_report(builtin_suite())
    lines = report.splitlines()
    assert lines[0] == "STATEMENT_0: midnight eventually holds globally"
    assert lines[1] == "STATEMENT_1_1: midnight responds to midnight strictly globally"
    assert lines[2] == '    source: "the day runs from midnight to midnight"'


def test_empty_suite_report_is_empty():
    assert render_suite_report(Suite(conditions={}, requirements=[])) == ""


def test_traceability_report_rows():
    report = traceability_report(builtin_suite())
    lines = report.splitlines()
    assert lines[0] == "| Name | Paraphrase | Source | Repo |"
    assert lines[2].startswith("| STATEMENT_0 |")
    assert "—" in lines[2]  # no source link recorded for STATEMENT_0
    assert "[Source](https://simple.wikipedia.org/wiki/24-hour_clock)" in lines[3]
    assert "[Repo](" in lines[3]


def test_traceability_report_without_meta():
    suite = Suite(
        conditions={"p": P},
        requirements=[Requirement("BARE", Existence(P), Globally(), TraceLinks())],
    )
    row = traceability_report(suite).splitlines()[2]
    assert row.count("—") == 2


def test_traceability_report_escapes_pipes_in_every_cell():
    ab = Ref("ab")
    links = TraceLinks(source_url="https://example.org/a|b", repo_url="https://example.org/c|d")
    suite = Suite(conditions={"a|b": ab}, requirements=[Requirement("R|1", Existence(ab), Globally(), links)])
    row = traceability_report(suite).splitlines()[2]
    assert row == (
        r"| R\|1 | a\|b eventually holds globally"
        r" | [Source](https://example.org/a\|b) | [Repo](https://example.org/c\|d) |"
    )
    assert len(re.findall(r"(?<!\\)\|", row)) == 5  # four cells


def test_paraphrase_injective_on_core_instantiations():
    """Distinct (pattern kind, scope kind, names, bound, strictness) tuples
    must paraphrase differently, or the picnic could mask a real change."""
    patterns = [
        Absence(P), Universality(P), Existence(P), BoundedExistence(P, 0),
        BoundedExistence(P, 1), Precedence(S, P), Precedence(P, S),
        Response(P, S), Response(P, S, strict=True), Response(S, P),
        ResponseChain(P, [S]), PrecedenceChain([S], P),
    ]
    scopes = [Globally(), Before(R), After(Q), Between(Q, R), AfterUntil(Q, R)]
    phrases = [
        render_requirement(Requirement("X", pattern, scope), NAMES).phrase
        for pattern, scope in itertools.product(patterns, scopes)
    ]
    assert len(phrases) == len(set(phrases))


def test_paraphrase_and_emission_are_functions_of_the_requirement():
    """Switching the pattern inside the one shared requirement value changes
    both the rendered sentence and the emitted formula in lockstep."""
    before = Requirement("X", Response(P, S), Globally())
    after = Requirement("X", Precedence(S, P), Globally())
    assert render_requirement(before, NAMES) == render_requirement(before, NAMES)
    assert emit_ltl(before) == emit_ltl(before)
    assert render_requirement(before, NAMES) != render_requirement(after, NAMES)
    assert emit_ltl(before) != emit_ltl(after)
