import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqpat.clock import builtin_suite
from reqpat import suite as suite_io
from reqpat.conditions import MAX_NESTING, And, Not, Or, Ref, State, Trace, condition_atoms
from reqpat.patterns import (
    PATTERNS,
    SCOPES,
    AfterUntil,
    Between,
    BoundedExistence,
    Globally,
    PrecedenceChain,
    Requirement,
    ResponseChain,
    TraceLinks,
    check,
    parameters,
)
from reqpat.suite import (
    DuplicateDefinition,
    MalformedCondition,
    MalformedPattern,
    MalformedSuite,
    Suite,
    SuiteError,
    TraceFormatError,
    UnknownReference,
    dump_suite,
    load_suite,
    load_trace,
    write_trace,
)

from helpers import random_state, random_trace, rarely
from reference import reference_check, reference_write_trace


def suite_text(**overrides) -> str:
    doc = {
        "conditions": {"midnight": "at_2400"},
        "requirements": [
            {
                "name": "STATEMENT_0",
                "pattern": {"type": "existence", "p": "midnight"},
                "scope": {"type": "globally"},
            }
        ],
    }
    doc.update(overrides)
    return json.dumps(doc)


# --- suites -----------------------------------------------------------------

def test_load_clock_suite():
    text = dump_suite(builtin_suite())
    suite = load_suite(text)
    assert len(suite.requirements) == 2
    assert len(suite.conditions) == 1


def test_duplicate_condition_rejected():
    text = '{"conditions": {"midnight": "at_2400", "midnight": "at_2400"}, "requirements": []}'
    with pytest.raises(DuplicateDefinition) as exc_info:
        load_suite(text)
    assert exc_info.value.name == "midnight"


def test_duplicate_requirement_name_rejected():
    doc = json.loads(suite_text())
    doc["requirements"].append(doc["requirements"][0])
    with pytest.raises(DuplicateDefinition):
        load_suite(json.dumps(doc))


def test_unknown_reference():
    text = suite_text(
        requirements=[
            {"name": "X", "pattern": {"type": "existence", "p": "noon"}, "scope": {"type": "globally"}}
        ]
    )
    with pytest.raises(UnknownReference) as exc_info:
        load_suite(text)
    assert exc_info.value.name == "noon"


MALFORMED_PATTERNS = [
    ({"type": "no_such_pattern", "p": "midnight"}, "unknown pattern type 'no_such_pattern'"),
    ({"type": "existence"}, "missing field 'p'"),
    ({"type": "bounded_existence", "p": "midnight", "k": -1}, "'k' must be an integer >= 0"),
    ({"type": "bounded_existence", "p": "midnight", "k": "two"}, "'k' must be an integer >= 0"),
    ({"type": "response", "p": "midnight", "s": "midnight", "strict": "yes"}, "'strict' must be a boolean"),
    ({"type": "response_chain", "p": "midnight", "chain": []}, "'chain' must be a nonempty array of names"),
    ("not an object", "must be an object with a 'type' tag"),
]


def _requirement_text(pattern, scope=None, **extra) -> str:
    entry = {"name": "X", "pattern": pattern, "scope": scope or {"type": "globally"}, **extra}
    return suite_text(requirements=[entry])


@pytest.mark.parametrize(
    "pattern, detail",
    MALFORMED_PATTERNS,
    # The ids pytest gives these cases by default.
    ids=[p if isinstance(p, str) else f"pattern{i}" for i, (p, _) in enumerate(MALFORMED_PATTERNS)],
)
def test_malformed_patterns(pattern, detail):
    with pytest.raises(MalformedPattern) as exc_info:
        load_suite(_requirement_text(pattern))
    assert exc_info.value.location == "requirements[0].pattern"
    assert str(exc_info.value) == f"requirements[0].pattern: {detail}"


def test_malformed_scope_and_condition():
    with pytest.raises(MalformedPattern) as exc_info:
        load_suite(_requirement_text({"type": "existence", "p": "midnight"}, {"type": "sometimes"}))
    assert exc_info.value.location == "requirements[0].scope"
    assert str(exc_info.value) == "requirements[0].scope: unknown scope type 'sometimes'"
    with pytest.raises(MalformedCondition):
        load_suite(suite_text(conditions={"bad": "p &&"}))
    with pytest.raises(MalformedCondition):
        load_suite(suite_text(conditions={"bad": "9bad"}))


def test_unknown_fields_rejected():
    existence = {"type": "existence", "p": "midnight"}
    with pytest.raises(MalformedPattern) as exc_info:
        load_suite(_requirement_text({"type": "response", "p": "midnight", "s": "midnight", "stict": True}))
    assert str(exc_info.value) == "requirements[0].pattern: unknown field 'stict'"
    with pytest.raises(MalformedPattern) as exc_info:
        load_suite(_requirement_text(existence, {"type": "globally", "q": "midnight"}))
    assert str(exc_info.value) == "requirements[0].scope: unknown field 'q'"
    with pytest.raises(MalformedSuite) as exc_info:
        load_suite(_requirement_text(existence, meta={"source_ur": "https://example.org"}))
    assert str(exc_info.value) == "requirements[0].meta: unknown field 'source_ur'"


def test_unknown_keys_of_the_document_and_of_a_requirement_rejected():
    """A misspelt `requirements` would otherwise load as an empty suite, and a
    misspelt `meta` would drop the requirement's links."""
    with pytest.raises(MalformedSuite) as exc_info:
        load_suite(json.dumps({"conditions": {}, "requirments": json.loads(suite_text())["requirements"]}))
    assert str(exc_info.value) == "top level: unknown field 'requirments'"
    with pytest.raises(MalformedSuite) as exc_info:
        load_suite(_requirement_text({"type": "existence", "p": "midnight"}, metta={"source_url": "https://x.org"}))
    assert str(exc_info.value) == "requirements[0]: unknown field 'metta'"


@pytest.mark.parametrize("key", ["name", "pattern", "scope"])
def test_a_missing_requirement_key_is_named(key):
    doc = json.loads(suite_text())
    del doc["requirements"][0][key]
    with pytest.raises(MalformedSuite) as exc_info:
        load_suite(json.dumps(doc))
    assert str(exc_info.value) == f"requirements[0]: missing field {key!r}"


@pytest.mark.parametrize("name", [3, "", None, ["X"]])
def test_a_requirement_name_that_is_no_nonempty_string_is_named(name):
    doc = json.loads(suite_text())
    doc["requirements"][0]["name"] = name
    with pytest.raises(MalformedSuite) as exc_info:
        load_suite(json.dumps(doc))
    assert str(exc_info.value) == "requirements[0]: 'name' must be a nonempty string"


@pytest.mark.parametrize("key", ["pattern", "scope"])
def test_a_pattern_or_scope_without_a_type_is_named(key):
    doc = json.loads(suite_text())
    del doc["requirements"][0][key]["type"]
    with pytest.raises(MalformedPattern) as exc_info:
        load_suite(json.dumps(doc))
    assert exc_info.value.location == f"requirements[0].{key}"
    assert str(exc_info.value) == f"requirements[0].{key}: missing field 'type'"


def test_absent_or_null_meta_gives_the_default_links():
    doc = json.loads(suite_text())
    assert load_suite(json.dumps(doc)).requirements[0].meta == TraceLinks()
    doc["requirements"][0]["meta"] = None
    assert load_suite(json.dumps(doc)).requirements[0].meta == TraceLinks()
    doc["requirements"][0]["meta"] = ["https://x.org"]
    with pytest.raises(MalformedSuite) as exc_info:
        load_suite(json.dumps(doc))
    assert str(exc_info.value) == "requirements[0].meta: must be an object"


def test_every_field_annotation_has_a_decoder():
    """Requirements, their links and every catalogue variant are built by one
    loader, which reads each field by the decoder of its annotation."""
    for cls in [*PATTERNS.values(), *SCOPES.values(), Requirement, TraceLinks]:
        for f in dataclasses.fields(cls):
            assert f.type in suite_io.DECODERS, (cls.__name__, f.name, f.type)


def test_a_condition_body_that_is_not_a_string_rejected():
    with pytest.raises(MalformedCondition) as exc_info:
        load_suite(suite_text(requirements=[], conditions={"x": ["p"]}))
    assert str(exc_info.value) == "condition 'x': body must be a string"


def test_dump_suite_refuses_a_pattern_outside_the_catalogue():
    with pytest.raises(SuiteError) as exc_info:
        dump_suite(Suite({}, [Requirement("r", "junk", Globally())]))
    assert str(exc_info.value) == "requirement 'r': cannot serialize 'junk'"


def test_condition_nesting_is_bounded():
    def chain(terms: int) -> str:
        return suite_text(requirements=[], conditions={"deep": " && ".join(["a"] * terms)})

    assert "deep" in load_suite(chain(MAX_NESTING - 1)).conditions
    with pytest.raises(MalformedCondition) as exc_info:
        load_suite(chain(MAX_NESTING))
    assert "condition nests too deeply" in str(exc_info.value)
    with pytest.raises(MalformedCondition):
        load_suite(suite_text(requirements=[], conditions={"deep": "(" * MAX_NESTING + "a" + ")" * MAX_NESTING}))


def test_empty_source_quote_rejected():
    doc = json.loads(suite_text())
    doc["requirements"][0]["meta"] = {"source_quote": ""}
    with pytest.raises(MalformedSuite):
        load_suite(json.dumps(doc))


def test_an_empty_condition_name_is_refused():
    """A nameless condition would print as nothing in every sentence that names it."""
    with pytest.raises(MalformedCondition) as exc_info:
        load_suite(suite_text(requirements=[], conditions={"": "at_2400"}))
    assert str(exc_info.value) == "condition '': name must not be empty"


@pytest.mark.parametrize("blank", [" ", "   ", "\t", " \t "])
def test_a_name_made_only_of_whitespace_is_refused(blank):
    """Such a name would print as blanks in every sentence and row that names it."""
    with pytest.raises(MalformedCondition) as exc_info:
        load_suite(suite_text(requirements=[], conditions={blank: "at_2400"}))
    assert str(exc_info.value) == f"condition {blank!r}: name must not be only whitespace"
    doc = json.loads(suite_text())
    doc["requirements"][0]["name"] = blank
    with pytest.raises(MalformedSuite) as exc_info:
        load_suite(json.dumps(doc))
    assert str(exc_info.value) == "requirements[0].name: must not be only whitespace"
    assert load_suite(suite_text(requirements=[], conditions={f"{blank}m{blank}": "at_2400"})).conditions


@pytest.mark.parametrize("blank", [" ", "   ", "\t", " \t "])
@pytest.mark.parametrize("field", ["source_url", "source_quote", "repo_url"])
def test_a_meta_string_made_only_of_whitespace_is_refused(field, blank):
    """Such a link or quote would print as blanks in the report and in the
    paraphrase; an empty one loads as it did before."""
    existence = {"type": "existence", "p": "midnight"}
    with pytest.raises(MalformedSuite) as exc_info:
        load_suite(_requirement_text(existence, meta={field: blank}))
    assert str(exc_info.value) == f"requirements[0].meta.{field}: must not be only whitespace"
    assert load_suite(_requirement_text(existence, meta={field: f"{blank}x{blank}"})).requirements
    if field != "source_quote":
        assert getattr(load_suite(_requirement_text(existence, meta={field: ""})).requirements[0].meta, field) == ""


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"])
def test_line_breaks_in_names_and_meta_rejected(brk):
    """Names and links are printed inside one output line, so a string that
    `str.splitlines` would split is refused where it is loaded."""
    existence = {"type": "existence", "p": "midnight"}
    with pytest.raises(MalformedCondition) as exc_info:
        load_suite(suite_text(requirements=[], conditions={f"mid{brk}night": "at_2400"}))
    assert str(exc_info.value) == f"condition {f'mid{brk}night'!r}: name must not contain a line break"
    with pytest.raises(MalformedSuite) as exc_info:
        load_suite(suite_text(requirements=[{"name": f"R{brk}| evil | row", "pattern": existence,
                                             "scope": {"type": "globally"}}]))
    assert str(exc_info.value) == "requirements[0].name: must not contain a line break"
    for field in ("source_url", "source_quote", "repo_url"):
        with pytest.raises(MalformedSuite) as exc_info:
            load_suite(_requirement_text(existence, meta={field: f"line one{brk}line two"}))
        assert str(exc_info.value) == f"requirements[0].meta.{field}: must not contain a line break"
    # A trailing break splits nothing off, yet still ends the line early.
    with pytest.raises(MalformedSuite):
        load_suite(_requirement_text(existence, meta={"source_quote": f"quote{brk}"}))
    assert load_suite(_requirement_text(existence, meta={"source_quote": "one\tline"})).requirements


def test_loader_totality_on_garbage():
    for text in ["", "[1,2]", "{", '{"conditions": 3}', '{"requirements": {}}',
                 '{"requirements": [42]}', '{"requirements": [{"name": ""}]}']:
        with pytest.raises(SuiteError):
            load_suite(text)


def test_loaded_suite_resolves_all_references():
    text = json.dumps(
        {
            "conditions": {"busy": "p && !q", "calm": "!p || r"},
            "requirements": [
                {
                    "name": "CHAINED",
                    "pattern": {"type": "response_chain", "p": "busy", "chain": ["calm", "busy"]},
                    "scope": {"type": "between", "q": "calm", "r": "busy"},
                },
                {
                    "name": "COUNTED",
                    "pattern": {"type": "bounded_existence", "p": "busy", "k": 2},
                    "scope": {"type": "after_until", "q": "busy", "r": "calm"},
                },
            ],
        }
    )
    suite = load_suite(text)
    busy = And(Ref("p"), Not(Ref("q")))
    calm = Or(Not(Ref("p")), Ref("r"))
    chained, counted = suite.requirements
    assert chained.pattern == ResponseChain(busy, [calm, busy])
    assert chained.scope == Between(calm, busy)
    assert counted.pattern == BoundedExistence(busy, 2)
    assert counted.scope == AfterUntil(busy, calm)


def test_dump_load_round_trip_for_every_pattern_and_scope():
    p, s = Ref("p"), Ref("s")
    conditions = {"p": p, "s": s}
    requirements = []
    from reqpat.patterns import (
        Absence, After, Before, Existence, Globally, Precedence, Response, Universality,
    )

    shapes = [
        Absence(p), Universality(p), Existence(p), BoundedExistence(p, 3),
        Precedence(s, p), Response(p, s, strict=True), ResponseChain(p, [s, p]),
        PrecedenceChain([s], p),
    ]
    scopes = [Globally(), Before(s), After(s), Between(s, p), AfterUntil(s, p)]
    for i, pattern in enumerate(shapes):
        for j, scope in enumerate(scopes):
            requirements.append(Requirement(f"R_{i}_{j}", pattern, scope))
    suite = Suite(conditions=conditions, requirements=requirements)
    assert load_suite(dump_suite(suite)) == suite


def test_dump_requires_named_conditions():
    suite = Suite(
        conditions={},
        requirements=[Requirement("X", BoundedExistence(Ref("p"), 1), Between(Ref("q"), Ref("r")))],
    )
    with pytest.raises(SuiteError):
        dump_suite(suite)


# --- traces -----------------------------------------------------------------

def _refused(text: str) -> TraceFormatError:
    """The error `load_trace` raises on `text`: the same class, line and
    message whichever atoms it keeps, since every line is validated in full."""
    with pytest.raises(TraceFormatError) as exc_info:
        load_trace(text)
    error = exc_info.value
    for keep in (frozenset(), frozenset({"p"}), frozenset({"p", "q", "at_2400"})):
        with pytest.raises(SuiteError) as kept:
            load_trace(text, keep=keep)
        assert (type(kept.value), kept.value.line, str(kept.value)) == (type(error), error.line, str(error))
    return error


def test_load_trace_two_lines():
    trace = load_trace('["p"]\n["p","s"]\n')
    assert len(trace) == 2
    assert "s" not in trace[0]
    assert "s" in trace[1]


def test_load_trace_empty_input():
    assert len(load_trace("")) == 0


def test_load_trace_breaks_lines_at_newline_only():
    """Other characters that `str.splitlines` breaks at stay inside a line,
    as in JSON Lines, so this text is one line and not valid JSON."""
    assert _refused('["p"]\u2028["q"]\x1c[]\n').line == 1
    crlf = load_trace('["p"]\r\n[]\r\n["p","q"]\r\n')
    assert [set(state.atoms) for state in crlf] == [{"p"}, set(), {"p", "q"}]
    assert len(load_trace('["p"]\n[]')) == 2
    assert _refused('["p"]\n\n').line == 2


def test_load_trace_bad_atom_reports_line():
    assert _refused('["9bad"]').line == 1


def test_load_trace_malformed_line_reports_line():
    assert _refused('["p"]\n{"not": "a list"}').line == 2
    _refused("[1, 2]")
    _refused("not json")


def test_load_trace_interns_identical_lines():
    trace = load_trace('["p"]\n["q"]\n["p"]\n')
    assert trace[0] is trace[2]
    assert trace[0] is not trace[1]
    texts = [json.dumps([f"a{i}"]) for i in range(11)]
    bulk = load_trace("".join(texts[k % 11] + "\n" for k in range(10_000)))
    assert len(bulk) == 10_000
    assert len({id(state) for state in bulk.states}) == 11


def test_load_trace_repeated_malformed_line_reports_first_line():
    error = _refused('["p"]\n["q"]\n["p"]\n["9bad"]\n["q"]\n["9bad"]\n')
    assert error.line == 4
    assert str(error) == "line 4: invalid atom name '9bad'"


def test_load_trace_names_a_line_with_a_non_name_before_its_invalid_atoms():
    """Which diagnostic a bad line gets is worked out only once the line is
    refused; the order of the checks is unchanged, and a line that is not
    JSON gets `json.loads`'s message, a byte order mark included."""

    def json_error(line: str) -> str:
        with pytest.raises(json.JSONDecodeError) as exc_info:
            json.loads(line)
        return f"not valid JSON: {exc_info.value}"

    cases = [
        ('[1, "9bad"]', "each line must be an array of atom names"),
        ('["p", "9bad", 1]', "each line must be an array of atom names"),
        ('["p", "9bad", "Q"]', "invalid atom name '9bad'"),
        ('"p"', "each line must be an array of atom names"),
        ("\ufeff[]", json_error("\ufeff[]")),
        ("[", json_error("[")),
    ]
    for line, message in cases:
        assert str(_refused(f'["p"]\n{line}\n["p"]\n{line}\n')) == f"line 2: {message}"


def _respell(line: str, ways: frozenset[str]) -> str:
    """A line of write_trace's output spelt another way that JSON reads as
    the same atoms."""
    if "repeat" in ways and line != "[]":
        first = line[1:line.index('"', 2) + 1]
        line = f"{line[:-1]},{first}]"
    if "escape" in ways:
        line = line.replace("p", "\\u0070", 1)
    if "space after [" in ways:
        line = line.replace("[", "[ ")
    if "space after ," in ways:
        line = line.replace(",", ", ")
    return line + ("\r" if "crlf" in ways else "")


def _respelt(written: str, ways: list[frozenset[str]]) -> str:
    """write_trace's output with each distinct line respelt its own way, the
    same at every occurrence."""
    lines = written.splitlines()
    distinct = list(dict.fromkeys(lines))
    return "".join(_respell(line, ways[distinct.index(line) % len(ways)]) + "\n" for line in lines)


_WAYS = st.lists(st.frozensets(st.sampled_from(["repeat", "escape", "space after [", "space after ,", "crlf"])),
                 min_size=1, max_size=4)


@given(
    st.lists(st.frozensets(st.sampled_from(["p", "q", "at_2400", "_x1", "stop"])), max_size=12),
    _WAYS,
)
@settings(max_examples=300, deadline=None)
def test_a_trace_spelt_other_ways_loads_as_written(atom_sets, ways):
    """Each distinct line is respelt its own way, the same at every
    occurrence, so the loaded traces share their distinct states too, and
    keep the same codes, or none."""
    written = write_trace(Trace(State(atoms) for atoms in atom_sets))
    expected, loaded = load_trace(written), load_trace(_respelt(written, ways))
    assert loaded == expected == Trace(State(atoms) for atoms in atom_sets)
    assert loaded._codes == expected._codes
    assert (loaded._codes is None) is (2 * len(set(atom_sets)) > len(atom_sets))
    if loaded._codes is not None:
        assert loaded._distinct == expected._distinct
    for trace in (expected, loaded):
        assert _shares_equal_states(trace)


def _shares_equal_states(trace: Trace) -> bool:
    """Whether equal states of the trace are one State object."""
    return len({id(state) for state in trace}) == len(set(trace))


@pytest.mark.parametrize("line", ['["P"]', '[""]', '["p"', '["p"]]', '["p"],["q"]'])
def test_a_bad_line_among_written_lines_keeps_its_number_and_message(line):
    alone = _refused(line)
    error = _refused(f'["p"]\n[]\n["p","q"]\n{line}\n["q"]\n{line}\n["p"]\n')
    assert error.line == 4
    assert str(error) == f"line 4: {str(alone).removeprefix('line 1: ')}"


_LETTERS = ("p", "q", "r")
_CONDITION_TEXTS = st.recursive(
    st.sampled_from([*_LETTERS, "true", "false"]),
    lambda inner: st.one_of(
        inner.map("!{}".format),
        st.tuples(inner, st.sampled_from(["&&", "||"]), inner).map("({0[0]} {0[1]} {0[2]})".format),
    ),
    max_leaves=4,
)


@st.composite
def _suites(draw) -> Suite:
    """Up to three conditions over p, q and r, and up to four requirements of
    any pattern under any scope, each field drawn by its annotation."""
    conditions = {f"c{i}": draw(_CONDITION_TEXTS) for i in range(draw(st.integers(1, 3)))}
    names = st.sampled_from(sorted(conditions))
    values = {"Condition": names, "tuple[Condition, ...]": st.lists(names, min_size=1, max_size=3),
              "int": st.integers(0, 2), "bool": st.booleans()}

    def variant(catalogue):
        tag = draw(st.sampled_from(sorted(catalogue)))
        return {"type": tag, **{name: draw(values[f.type]) for name, f in parameters(catalogue[tag]).items()}}

    requirements = [{"name": f"R{i}", "pattern": variant(PATTERNS), "scope": variant(SCOPES)}
                    for i in range(draw(st.integers(1, 4)))]
    return load_suite(json.dumps({"conditions": conditions, "requirements": requirements}))


@given(
    _suites(),
    st.lists(st.frozensets(st.sampled_from([*_LETTERS, "log", "noise"])), max_size=30),
    st.booleans(),
    _WAYS,
)
@settings(max_examples=300, deadline=None)
def test_a_trace_loaded_with_only_the_suite_s_atoms_checks_as_the_full_trace(suite, atom_sets, numbered, ways):
    """Lines carry atoms no condition reads, noise atoms and, in numbered
    traces, a sequence atom of their own, and are written or respelt. Loaded
    keeping only the suite's atoms, as `reqpat check` loads them, every
    verdict, reason included, is that of the full trace and the reference's."""
    trace = Trace(State(atoms | {f"seq_{i}"} if numbered else atoms) for i, atoms in enumerate(atom_sets))
    keep = frozenset().union(*map(condition_atoms, suite.conditions.values()))
    for text in (write_trace(trace), _respelt(write_trace(trace), ways)):
        full, kept = load_trace(text), load_trace(text, keep=keep)
        assert full == trace
        assert [state.atoms for state in kept] == [state.atoms & keep for state in trace]
        distinct = len({state.atoms & keep for state in trace})
        assert (kept._codes is None) is (2 * distinct > len(trace))
        if kept._codes is not None:
            assert len(kept._distinct) == distinct
        assert _shares_equal_states(kept)
        for req in suite.requirements:
            got, want = check(req, kept), check(req, full)
            assert type(got) is type(want) and dataclasses.astuple(got) == dataclasses.astuple(want), req
            reference = reference_check(req, trace)
            assert type(got) is type(reference) and dataclasses.astuple(got) == dataclasses.astuple(reference), req


def test_written_lines_are_not_decoded(monkeypatch):
    decoded = []
    decode = suite_io._decode

    def counting(line):
        decoded.append(line)
        return decode(line)

    monkeypatch.setattr(suite_io, "_decode", counting)
    rng = random.Random(20261020)
    for _ in range(100):
        trace = _mixed_trace(rng)
        assert load_trace(write_trace(trace)) == trace
    assert decoded == []
    assert load_trace('["p"]\n[ "p"]\n["p"]\n') == Trace.of({"p"}, {"p"}, {"p"})
    assert decoded == ['[ "p"]']


def test_write_trace_sorts_atoms():
    assert write_trace(Trace.of({"s", "p"})) == '["p","s"]\n'
    assert write_trace(Trace.of()) == ""


def _mixed_trace(rng: random.Random) -> Trace:
    """A trace whose states are drawn now from a small pool, so that equal
    atom sets repeat, and now fresh."""
    atoms = ("p", "q", "r", "s", "at_2400", "_x1")
    pool = [random_state(rng, atoms) for _ in range(rng.randint(1, 4))]
    length = rng.randint(0, 40)
    return Trace(rng.choice(pool) if rng.random() < 0.7 else random_state(rng, atoms) for _ in range(length))


def test_write_trace_matches_per_line_reference():
    rng = random.Random(20261019)
    for _ in range(500):
        trace = _mixed_trace(rng)
        assert write_trace(trace) == reference_write_trace(trace)
    assert write_trace(Trace()) == reference_write_trace(Trace()) == ""


def test_write_trace_encodes_each_distinct_atom_set_once(monkeypatch):
    encoded = []
    encode = suite_io._encode

    def counting(atoms):
        encoded.append(atoms)
        return encode(atoms)

    monkeypatch.setattr(suite_io, "_encode", counting)
    trace = Trace.of({"p"}, set(), {"q", "p"}, {"p"}, set(), {"p", "q"}, {"p"})
    assert write_trace(trace) == reference_write_trace(trace)
    assert encoded == [["p"], [], ["p", "q"]]
    encoded.clear()
    rng = random.Random(7)
    for _ in range(100):
        trace = _mixed_trace(rng)
        write_trace(trace)
        assert len(encoded) == len({state.atoms for state in trace})
        encoded.clear()


@pytest.mark.parametrize("bad", ["9bad", "", "Upper", "has space", "a\nb", "é", 1, None])
def test_write_trace_refuses_atoms_that_would_not_load(bad):
    trace = Trace([State({"p"}), State(), State({"p", bad}), State({"q"}), State({bad, "p"})])
    with pytest.raises(ValueError) as exc_info:
        write_trace(trace)
    assert str(exc_info.value) == f"position 2: invalid atom name {bad!r}"


def test_write_trace_names_the_first_position_with_an_invalid_atom():
    trace = Trace([State({"p"}), State({"Zed"}), State({"p"}), State({"Abe", "p"}), State({"Zed"})])
    with pytest.raises(ValueError, match=r"^position 1: invalid atom name 'Zed'$"):
        write_trace(trace)
    with pytest.raises(ValueError, match=r"^position 0: invalid atom name 'Abe'$"):
        write_trace(Trace([State({"Zed", "Abe"})]))


@given(st.lists(st.frozensets(st.one_of(st.sampled_from(["p", "q", "at_2400"]), st.text(max_size=3)), max_size=3),
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_written_traces_always_load_back(atom_sets):
    trace = Trace(State(atoms) for atoms in atom_sets)
    try:
        text = write_trace(trace)
    except ValueError:
        return
    assert load_trace(text) == trace


def test_trace_round_trip_random():
    rng = random.Random(20240828)
    for _ in range(300):
        trace = random_trace(rng)
        assert load_trace(write_trace(trace)) == trace


def test_trace_round_trip_includes_empty_states():
    trace = Trace.of(set(), {"p"}, set())
    loaded = load_trace(write_trace(trace))
    assert loaded == trace
    assert loaded[0] is loaded[2]


# --- loader fuzzing ---------------------------------------------------------

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(allow_nan=False), st.text(max_size=3))
_NAMES = st.sampled_from(["p", "q"])
_REFERENCES = st.sampled_from(["p", "q", "unknown"])
_VALUES = st.one_of(
    _SCALARS,
    _REFERENCES,
    st.lists(st.one_of(_REFERENCES, _SCALARS), max_size=3),
    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2),
)
_WELL_TYPED = {
    "k": st.integers(-1, 3),
    "strict": st.booleans(),
    "chain": st.lists(_NAMES, max_size=3),
    "source_url": st.text(max_size=3),
    "source_quote": st.text(max_size=3),
    "repo_url": st.text(max_size=3),
}


@st.composite
def _objects(draw, catalogue, tagged=True):
    """Mostly near-valid pattern, scope or meta objects: a tag, if `tagged`,
    and most fields of the tagged class with well-typed values; sometimes a
    wrong value, a foreign or missing tag, an extra key or no object at all."""
    if rarely(draw):
        return draw(_VALUES)
    if not rarely(draw):
        tag = draw(st.sampled_from(sorted(catalogue)))
    else:
        tag = draw(st.one_of(st.sampled_from([*PATTERNS, *SCOPES]), _SCALARS, st.lists(_SCALARS, max_size=2)))
    cls = catalogue.get(tag) if isinstance(tag, str) else None
    obj = {"type": tag} if tagged and not rarely(draw) else {}
    for f in dataclasses.fields(cls) if cls else ():
        if not rarely(draw):
            obj[f.name] = draw(_VALUES if rarely(draw) else _WELL_TYPED.get(f.name, _NAMES))
    if rarely(draw):
        obj[draw(st.sampled_from(["p", "s", "q", "r", "k", "chain", "strict", "source_ur"]))] = draw(_VALUES)
    return obj


@settings(max_examples=300, deadline=None, database=None)
@given(pattern=_objects(PATTERNS), scope=_objects(SCOPES), meta=st.one_of(st.none(), _objects({"meta": TraceLinks}, tagged=False)))
def test_loader_is_total_on_generated_requirements(pattern, scope, meta):
    """Any pattern, scope and meta object either loads or raises a SuiteError;
    what loads dumps and loads back to the same suite."""
    entry = {"name": "X", "pattern": pattern, "scope": scope, "meta": meta}
    text = json.dumps({"conditions": {"p": "a", "q": "b && !a"}, "requirements": [entry]})
    try:
        suite = load_suite(text)
    except SuiteError:
        return
    assert load_suite(dump_suite(suite)) == suite
