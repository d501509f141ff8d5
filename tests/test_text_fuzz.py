"""Text readers fed text drawn from the grammars' tokens and any character:
each returns a value or raises its own error, and what parses prints back."""

from hypothesis import given, settings
from hypothesis import strategies as st

from reqpat import ltl
from reqpat.conditions import ConditionSyntaxError, format_condition, parse_condition
from reqpat.suite import TraceFormatError, load_trace

TOKENS = ["p", "q", "at_2400", "true", "false", "X", "WX", "F", "G", "U", "W", "!", "&&", "||", "->", "<>", "[]",
          "(", ")", " ", "\n", "Foo", "9", "&", "|", "-"]

GRAMMAR_TEXT = st.lists(st.one_of(st.sampled_from(TOKENS), st.characters()), max_size=30).map("".join)


@settings(max_examples=300, deadline=None, database=None)
@given(text=GRAMMAR_TEXT)
def test_formula_text_parses_and_prints_back_or_is_a_syntax_error(text):
    try:
        formula = ltl.parse(text)
    except ltl.LtlSyntaxError:
        return
    assert ltl.parse(ltl.print_formula(formula)) == formula


@settings(max_examples=300, deadline=None, database=None)
@given(text=GRAMMAR_TEXT)
def test_condition_text_parses_and_prints_back_or_is_a_syntax_error(text):
    try:
        condition = parse_condition(text)
    except ConditionSyntaxError:
        return
    assert parse_condition(format_condition(condition)) == condition


TRACE_TOKENS = ['["p"]', "[]", "[", "]", '"', ",", "\n", "p", "1", "null", "{}", '"Q"', '"at_2400"']


@settings(max_examples=300, deadline=None, database=None)
@given(text=st.lists(st.one_of(st.sampled_from(TRACE_TOKENS), st.characters()), max_size=30).map("".join))
def test_trace_text_loads_or_is_a_trace_format_error(text):
    try:
        load_trace(text)
    except TraceFormatError:
        pass
