"""The whole command line fed generated suites, traces and argument lists,
most of them then broken: every call ends in exit 0, 1, 2 or 3, an exit 2
writes exactly one line naming the error, and no call is an internal error.

Suites are drawn from the catalogue itself, `PATTERNS`, `SCOPES` and each
variant's `parameters`, so a new pattern or scope is fuzzed with no edit
here. Each example runs `cli.main` in-process on files in one directory.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reqpat.cli import main
from reqpat.patterns import PATTERNS, SCOPES, TraceLinks, parameters

from helpers import rarely

NAMES = ["p", "q", "at_2400"]
ATOMS = ["a", "b", "at_2400"]
CONDITION_TEXTS = ["a", "b", "a && !b", "a || !at_2400", "true", "!(a)"]
# Strings with line breaks, a NUL, lone surrogates and a non-ASCII letter.
STRINGS = st.text(st.sampled_from(["a", " ", "\n", "\r", "\u2028", "\ud800", "\udfff", "\x00", "é"]),
                  min_size=1, max_size=4)

# Written into the JSON text in place of the string itself, as no value
# `json.dumps` accepts can be: integers past `int`'s digit limit, and
# arrays nested deeper than the parser recurses.
HUGE, DEEP = "\x00huge\x00", "\x00deep\x00"
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([-(10**30), 10**30, HUGE, DEEP]),
    st.sampled_from(["unknown", "p q", "(a", "A", "", "a -> b"]),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5]), STRINGS,
    st.sampled_from([[], {}, [[]], [["p"]], {"type": "globally"}]).map(copy.deepcopy),
)

VALUES = {
    "Condition": st.sampled_from(NAMES),
    "int": st.integers(0, 5),
    "bool": st.booleans(),
    "tuple[Condition, ...]": st.lists(st.sampled_from(NAMES), max_size=3),
    "str | None": st.sampled_from([None, "https://example.org/spec", "a quote"]),
}


def _fields(cls) -> st.SearchStrategy:
    return st.fixed_dictionaries({name: VALUES[f.type] for name, f in parameters(cls).items()})


def _variants(catalogue) -> st.SearchStrategy:
    return st.sampled_from(list(catalogue.items())).flatmap(
        lambda entry: _fields(entry[1]).map(lambda fields: {"type": entry[0], **fields}))


SUITES = st.fixed_dictionaries({
    # The conditions requirements refer to, and perhaps one more of any name.
    "conditions": st.tuples(
        st.fixed_dictionaries({name: st.sampled_from(CONDITION_TEXTS) for name in NAMES}),
        st.dictionaries(STRINGS, st.sampled_from(CONDITION_TEXTS), max_size=1),
    ).map(lambda drawn: drawn[1] | drawn[0]),
    "requirements": st.lists(
        st.fixed_dictionaries({"name": st.sampled_from(["R1", "R2", "R3"]) | STRINGS,
                               "pattern": _variants(PATTERNS), "scope": _variants(SCOPES)},
                              optional={"meta": _fields(TraceLinks)}),
        min_size=1, max_size=3, unique_by=lambda entry: entry["name"]),
})


def _nodes(doc) -> list:
    """Every object and array in a JSON document, the document first."""
    nodes, todo = [], [doc]
    while todo:
        node = todo.pop()
        nodes.append(node)
        todo.extend(child for child in (node.values() if isinstance(node, dict) else node)
                    if isinstance(child, (dict, list)))
    return nodes


@st.composite
def _suite_texts(draw, doc):
    """The document with up to three breaks, a key dropped or added, or a
    value replaced by an odd one or wrapped into another JSON type, as JSON
    text; its strings are rarely written unescaped, lone surrogates too."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        node = draw(st.sampled_from(_nodes(doc)))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["drop", "add", "replace", "wrap"] if keys else ["add"]))
        if action == "add":
            if isinstance(node, dict):
                node[draw(st.sampled_from(["type", "p", "k", "chain", "meta", "name"]) | STRINGS)] = draw(ODD_VALUES)
            else:
                node.append(draw(ODD_VALUES))
            continue
        key = draw(st.sampled_from(keys))
        if action == "drop":
            del node[key]
        elif action == "replace":
            node[key] = draw(ODD_VALUES)
        else:
            node[key] = draw(st.sampled_from([lambda v: [v], lambda v: {"x": v}, str]))(node[key])
    text = json.dumps(doc, ensure_ascii=not rarely(draw))
    return text.replace(json.dumps(HUGE), "9" * 5000).replace(json.dumps(DEEP), "[" * 5000 + "]" * 5000)


STATE_LINES = st.lists(st.sampled_from(ATOMS), max_size=3, unique=True).map(json.dumps)
ODD_LINES = st.sampled_from(['["A"]', '["a"', "[1]", "{}", '"a"', "", "\r", '[["a"]]', "NaN", "[NaN]", '["\\ud800"]',
                             '["a\\nb"]', "9" * 5000, "[" * 5000 + "]" * 5000, "\u2028", "[]\x00"])


@st.composite
def _trace_texts(draw):
    """Mostly a trace that loads, sometimes with one odd line in it."""
    lines = draw(st.lists(STATE_LINES, max_size=12))
    if rarely(draw):
        lines.insert(draw(st.integers(0, len(lines))), draw(ODD_LINES))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"])) if lines else ""


# Each command's options with their usual values; paths are placeholders
# that the test resolves. Bounds stay small, so that each drive stops soon.
OPTIONS = {
    "--suite": st.sampled_from(["SUITE"] * 8 + ["TRACE", "MISSING", "DIR", "BINARY"]),
    "--trace": st.sampled_from(["TRACE"] * 8 + ["SUITE", "MISSING", "DIR", "BINARY"]),
    "--sut": st.sampled_from(["clock", "clock", "toaster"]),
    "--bound": st.integers(-3, 3000).map(str),
    "--json": st.just(None),
}
JUNK = st.sampled_from([*OPTIONS, "", "x", "1e3", "0x10", "-0", " 7", "--help", "-x", "--", "clock"]) | STRINGS
COMMANDS = {
    "check": ["--suite", "--trace", "--json"],
    "drive": ["--suite", "--sut", "--bound"],
    "render": ["--suite"],
    "emit": ["--suite"],
    "report": ["--suite"],
    "demo": ["--bound"],
}


@st.composite
def _argvs(draw):
    """Mostly a whole command line; sometimes an option left out or given an
    odd value, or one more argument of any kind somewhere."""
    command = draw(st.sampled_from([*COMMANDS, *COMMANDS, "verify", ""]))
    argv = [command]
    if command == "demo" and not rarely(draw):
        argv.append(draw(st.sampled_from(["clock", "clock", "toaster"])))
    for option in COMMANDS.get(command, []):
        if not rarely(draw):
            value = draw(JUNK if rarely(draw) else OPTIONS[option])
            argv += [option] if value is None else [option, value]
    if rarely(draw):
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


def _stream(errors: str) -> io.TextIOWrapper:
    """A UTF-8 text stream, as the interpreter opens stdout ("strict") and
    stderr ("backslashreplace"), so that what cannot be printed fails here
    as it would in a terminal."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors=errors, write_through=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_fuzz")
    (path / "DIR").mkdir()
    (path / "BINARY").write_bytes(b"\xff\xfe{}")
    return path


@settings(max_examples=250, deadline=None, database=None)
@given(suite=SUITES.flatmap(_suite_texts), trace=_trace_texts(), argv=_argvs())
@example(suite='{"requirements": [{"name": "R", "pattern": {"type": "existence", "p": "p"},'
               ' "scope": {"type": "globally"}}], "conditions": {"p": "at_2400"}}',
         trace="[]\n", argv=["drive", "--suite", "SUITE", "--sut", "clock", "--bound", "3000"])
# File names that no file can have were internal errors.
@example(suite="{}", trace="", argv=["drive", "--suite", "\u2028\ud800", "--sut", "clock", "--bound", "0"])
@example(suite="{}", trace="", argv=["check", "--suite", "SUITE", "--trace", "a\x00b"])
def test_every_command_line_ends_in_a_verdict_or_one_error_line(workdir, suite, trace, argv):
    # A lone surrogate is written as it is, so that file is not UTF-8.
    (workdir / "SUITE").write_bytes(suite.encode("utf-8", "surrogatepass"))
    (workdir / "TRACE").write_bytes(trace.encode("utf-8", "surrogatepass"))
    argv = [str(workdir / arg) if arg in ("SUITE", "TRACE", "MISSING", "DIR", "BINARY") else arg for arg in argv]
    out, err = _stream("strict"), _stream("backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    err = err.buffer.getvalue().decode("utf-8")
    assert code in (0, 1, 2, 3), (argv, err)
    assert "internal error" not in err, (argv, err)
    if code == 2:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, (argv, err)
