import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from reqpat import cli, patterns
from reqpat.cli import main
from reqpat.clock import Clock, builtin_suite, builtin_suite_text
from reqpat.conditions import State, Trace
from reqpat.harness import record
from reqpat.suite import MalformedCondition, SuiteError, load_suite, write_trace

from helpers import random_state


@pytest.fixture()
def clock_suite(tmp_path):
    path = tmp_path / "clock_suite.json"
    path.write_text(builtin_suite_text())
    return str(path)


@pytest.fixture()
def reflexive_suite(tmp_path):
    doc = json.loads(builtin_suite_text())
    doc["requirements"][1]["pattern"]["strict"] = False
    path = tmp_path / "clock_suite_reflexive.json"
    path.write_text(json.dumps(doc))
    return str(path)


def trace_file(tmp_path, steps: int) -> str:
    path = tmp_path / f"clock_{steps}.jsonl"
    path.write_text(write_trace(record(Clock(), steps)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# --- check ------------------------------------------------------------------

def test_check_recorded_day_against_reflexive_suite(capsys, tmp_path, reflexive_suite):
    trace = trace_file(tmp_path, 2880)
    code, out = run(capsys, "check", "--suite", reflexive_suite, "--trace", trace)
    assert "STATEMENT_0: HOLDS" in out
    assert "STATEMENT_1_1: HOLDS" in out
    assert code == 0


def test_check_strict_builtin_fails_on_final_unanswered_midnight(capsys, tmp_path, clock_suite):
    """The recorded day ends exactly at 24:00, so the strict response's last
    trigger has no later answer; trace-mode strictness is unforgiving here,
    which is why drive mode exists."""
    trace = trace_file(tmp_path, 2880)
    code, out = run(capsys, "check", "--suite", clock_suite, "--trace", trace)
    assert "STATEMENT_0: HOLDS" in out
    assert "STATEMENT_1_1: FAILS at segment 0 position 2880" in out
    assert code == 1


def test_check_short_trace_fails_existence(capsys, tmp_path, clock_suite):
    trace = trace_file(tmp_path, 99)
    code, out = run(capsys, "check", "--suite", clock_suite, "--trace", trace)
    assert "STATEMENT_0: FAILS" in out
    assert code == 1


def test_check_reads_each_condition_once_per_state_over_the_suite_s_atoms(capsys, monkeypatch, tmp_path):
    """Each of 600 lines carries its own sequence atom, which no condition
    reads, so every line is distinct. `reqpat check` loads only the atoms
    its suite reads, so the lines are the few states they are over those
    atoms, and each condition is read once per such state."""
    conditions = {"p": "p", "s": "s || t", "q": "q && !p", "r": "r"}
    requirements = [
        {"name": "R0", "pattern": {"type": "response", "p": "p", "s": "s"}, "scope": {"type": "globally"}},
        {"name": "R1", "pattern": {"type": "absence", "p": "q"}, "scope": {"type": "between", "q": "s", "r": "r"}},
        {"name": "R2", "pattern": {"type": "precedence_chain", "chain": ["s", "r"], "p": "p"},
         "scope": {"type": "after_until", "q": "q", "r": "r"}},
        {"name": "R3", "pattern": {"type": "bounded_existence", "p": "r", "k": 2}, "scope": {"type": "before", "r": "q"}},
    ]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"conditions": conditions, "requirements": requirements}))
    rng = random.Random(22)
    rows = [random_state(rng, ("p", "q", "r", "s", "t")).atoms for _ in range(600)]
    numbered, plain = tmp_path / "numbered.jsonl", tmp_path / "plain.jsonl"
    numbered.write_text(write_trace(Trace(State(atoms | {f"seq_{i}"}) for i, atoms in enumerate(rows))))
    plain.write_text(write_trace(Trace(State(atoms) for atoms in rows)))
    expected = run(capsys, "check", "--json", "--suite", str(suite), "--trace", str(plain))
    calls = 0
    inner = patterns.eval_condition

    def counting(expr, state):
        nonlocal calls
        calls += 1
        return inner(expr, state)

    monkeypatch.setattr(patterns, "eval_condition", counting)
    assert run(capsys, "check", "--json", "--suite", str(suite), "--trace", str(numbered)) == expected
    assert 0 < calls <= len(set(rows)) * len(conditions) < 600


def fresh_python(*argv: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this package's source."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_runs_the_command(tmp_path, clock_suite):
    """`python -m reqpat.cli` exits with the verdict, as the `reqpat` script does."""
    done = fresh_python("-m", "reqpat.cli", "check", "--suite", clock_suite, "--trace", trace_file(tmp_path, 99))
    assert "STATEMENT_0: FAILS" in done.stdout
    assert done.returncode == 1


def test_check_missing_file_is_usage_error(capsys, clock_suite):
    code, _ = run(capsys, "check", "--suite", clock_suite, "--trace", "/nonexistent.jsonl")
    assert code == 2


@pytest.mark.parametrize("path,reason", [
    ("a\x00b", "embedded null byte"),
    ("a\ud800", "'utf-8' codec can't encode character '\\ud800' in position 1: surrogates not allowed"),
], ids=["nul", "lone-surrogate"])
def test_a_file_name_no_file_can_have_is_usage_error(capsys, clock_suite, path, reason):
    """Found by tests/test_cli_fuzz.py: these were internal errors."""
    _exits_2_with_one_error_line(capsys, ["check", "--suite", clock_suite, "--trace", path],
                                 f"{path!r}: not a file name ({reason})")


def test_check_json_agrees_with_human_output(capsys, tmp_path, clock_suite):
    trace = trace_file(tmp_path, 2880)
    code_h, human = run(capsys, "check", "--suite", clock_suite, "--trace", trace)
    code_j, machine = run(capsys, "check", "--suite", clock_suite, "--trace", trace, "--json")
    assert code_h == code_j
    payload = json.loads(machine)
    assert payload == [
        {"name": "STATEMENT_0", "verdict": "holds", "vacuous": False},
        {"name": "STATEMENT_1_1", "verdict": "fails", "vacuous": False, "segment": 0, "position": 2880},
    ]
    for entry in payload:
        if entry["verdict"] == "holds":
            assert f"{entry['name']}: HOLDS\n" in human
        else:
            assert f"{entry['name']}: FAILS at segment {entry['segment']} position {entry['position']}\n" in human


def test_check_non_utf8_input_is_usage_error(capsys, tmp_path, clock_suite):
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes(b"\xff\n")
    good_trace = trace_file(tmp_path, 3)
    for suite, trace in ((clock_suite, str(bad)), (str(bad), good_trace)):
        err = _exits_2_with_one_error_line(capsys, ["check", "--suite", suite, "--trace", trace])
        assert err.startswith(f"error: {bad}: ")


def test_check_vacuous_only_exits_3(capsys, tmp_path):
    suite = tmp_path / "vacuous.json"
    suite.write_text(
        json.dumps(
            {
                "conditions": {"p": "p", "shutdown": "shutdown"},
                "requirements": [
                    {
                        "name": "NEVER_TRIGGERED",
                        "pattern": {"type": "absence", "p": "p"},
                        "scope": {"type": "before", "r": "shutdown"},
                    }
                ],
            }
        )
    )
    trace = tmp_path / "no_shutdown.jsonl"
    trace.write_text('["p"]\n[]\n["p"]\n')
    code, out = run(capsys, "check", "--suite", str(suite), "--trace", str(trace))
    assert "NEVER_TRIGGERED: HOLDS (vacuous)" in out
    assert code == 3


def test_universality_before_a_close_at_0_holds_vacuously_and_exits_3(capsys, tmp_path):
    """Before an r at position 0 the one segment is empty, so a universality
    requirement holds there only vacuously, in text and in --json."""
    suite = tmp_path / "before.json"
    suite.write_text(json.dumps({
        "conditions": {"p": "p", "r": "r"},
        "requirements": [{"name": "ALWAYS_P", "pattern": {"type": "universality", "p": "p"},
                          "scope": {"type": "before", "r": "r"}}],
    }))
    trace = tmp_path / "r_then_p.jsonl"
    trace.write_text('["r"]\n["p"]\n')
    assert run(capsys, "check", "--suite", str(suite), "--trace", str(trace)) == (3, "ALWAYS_P: HOLDS (vacuous)\n")
    code, out = run(capsys, "check", "--suite", str(suite), "--trace", str(trace), "--json")
    assert (code, json.loads(out)) == (3, [{"name": "ALWAYS_P", "verdict": "holds", "vacuous": True}])


# --- drive ------------------------------------------------------------------

def test_drive_clock_suite(capsys, clock_suite):
    code, out = run(capsys, "drive", "--suite", clock_suite, "--sut", "clock", "--bound", "2000")
    assert "STATEMENT_0: Reached(1440)" in out
    assert "STATEMENT_1_1: Reached(1440)" in out
    assert code == 0


def test_drive_without_establishment_reports_p_holds(capsys, tmp_path):
    doc = json.loads(builtin_suite_text())
    doc["requirements"] = [doc["requirements"][1]]  # drop STATEMENT_0
    suite = tmp_path / "response_only.json"
    suite.write_text(json.dumps(doc))
    code, out = run(capsys, "drive", "--suite", str(suite), "--sut", "clock", "--bound", "2000")
    assert "p_holds" in out
    assert code == 1


def test_drive_insufficient_bound(capsys, clock_suite):
    code, out = run(capsys, "drive", "--suite", clock_suite, "--sut", "clock", "--bound", "10")
    assert "NotReached(10)" in out
    assert code == 1


def test_drive_unknown_sut(capsys, clock_suite):
    code, _ = run(capsys, "drive", "--suite", clock_suite, "--sut", "toaster", "--bound", "5")
    assert code == 2


def test_drive_skips_nondrivable(capsys, tmp_path):
    suite = tmp_path / "absence.json"
    suite.write_text(
        json.dumps(
            {
                "conditions": {"midnight": "at_2400"},
                "requirements": [
                    {
                        "name": "NO_MIDNIGHT",
                        "pattern": {"type": "absence", "p": "midnight"},
                        "scope": {"type": "globally"},
                    }
                ],
            }
        )
    )
    code, out = run(capsys, "drive", "--suite", str(suite), "--sut", "clock", "--bound", "5")
    assert "skipped" in out
    assert code == 0


# --- render / emit / report ---------------------------------------------------

def test_render(capsys, clock_suite):
    code, out = run(capsys, "render", "--suite", clock_suite)
    assert "STATEMENT_1_1: midnight responds to midnight strictly globally" in out
    assert code == 0


def test_emit(capsys, clock_suite, reflexive_suite):
    code, out = run(capsys, "emit", "--suite", reflexive_suite)
    assert "STATEMENT_0: <>midnight" in out
    assert "STATEMENT_1_1: [](midnight -> <>midnight)" in out
    assert code == 0
    code, out = run(capsys, "emit", "--suite", clock_suite)
    assert "STATEMENT_1_1: [](midnight -> X <>midnight)" in out
    assert code == 0


def test_emit_reports_unsupported_lines_but_exits_zero(capsys, tmp_path):
    suite = tmp_path / "chain.json"
    suite.write_text(
        json.dumps(
            {
                "conditions": {"a": "a", "b": "b"},
                "requirements": [
                    {
                        "name": "CHAIN",
                        "pattern": {"type": "response_chain", "p": "a", "chain": ["b"]},
                        "scope": {"type": "globally"},
                    },
                    {
                        "name": "PLAIN",
                        "pattern": {"type": "existence", "p": "a"},
                        "scope": {"type": "globally"},
                    },
                ],
            }
        )
    )
    code, out = run(capsys, "emit", "--suite", str(suite))
    assert "CHAIN: unsupported" in out
    assert "PLAIN: <>a" in out
    assert code == 0


def test_emit_reports_bounded_existence_beyond_the_emission_bound_as_unsupported(capsys, tmp_path):
    suite = tmp_path / "bounded.json"
    suite.write_text(
        json.dumps(
            {
                "conditions": {"a": "a", "q": "q", "r": "r"},
                "requirements": [
                    {
                        "name": "MANY",
                        "pattern": {"type": "bounded_existence", "p": "a", "k": 140},
                        "scope": {"type": "between", "q": "q", "r": "r"},
                    },
                ],
            }
        )
    )
    code, out = run(capsys, "emit", "--suite", str(suite))
    assert out == (
        "MANY: unsupported (the bounded_existence formula under between nests parentheses 284 deep,"
        " more than the 200 that parse back)\n"
    )
    assert code == 0


def test_emit_refuses_compound_bounded_existence_whose_text_would_not_parse_back(capsys, tmp_path):
    suite = tmp_path / "compound_bounded.json"
    suite.write_text(
        json.dumps(
            {
                # Not an atom name, so the formula shows the condition itself.
                "conditions": {"A or B": "a || b", "q": "q", "r": "r"},
                "requirements": [
                    {
                        "name": "EITHER",
                        "pattern": {"type": "bounded_existence", "p": "A or B", "k": 98},
                        "scope": {"type": "between", "q": "q", "r": "r"},
                    },
                ],
            }
        )
    )
    code, out = run(capsys, "emit", "--suite", str(suite))
    assert out == (
        "EITHER: unsupported (the bounded_existence formula under between nests parentheses 201 deep,"
        " more than the 200 that parse back)\n"
    )
    assert code == 0


def test_report(capsys, clock_suite):
    code, out = run(capsys, "report", "--suite", clock_suite)
    assert out.splitlines()[0] == "| Name | Paraphrase | Source | Repo |"
    assert "[Source](" in out
    assert code == 0


def _exits_2_with_one_error_line(capsys, argv, message: str | None = None) -> str:
    """Run `argv`: it must exit 2 with nothing on stdout and one `error:`
    line on stderr, `message` if given. Returns that line."""
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, ""), argv
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (argv, captured.err)
    assert message is None or captured.err == f"error: {message}\n", (argv, captured.err)
    return captured.err


def _every_command_exits_2(capsys, tmp_path, suite, message: str | None = None):
    """Every command that loads the suite file `suite` refuses it so."""
    trace = trace_file(tmp_path, 3)
    for command in (["check", "--trace", trace], ["check", "--json", "--trace", trace],
                    ["drive", "--sut", "clock", "--bound", "5"], ["render"], ["emit"], ["report"]):
        _exits_2_with_one_error_line(capsys, [command[0], "--suite", str(suite), *command[1:]], message)


def test_load_error_exits_2(capsys, tmp_path, clock_suite):
    """Every command reports every unreadable or malformed input file the
    same way, even where the path holds a line break."""
    where = tmp_path / "line\nbreak"
    where.mkdir()
    (where / "latin1.json").write_bytes(b"\xff\n")
    (where / "bad.json").write_text('{"conditions": {"m": "9bad"}, "requirements": []}')
    (where / "bad.jsonl").write_text('["at_2400"]\nnot json\n')
    missing, directory, latin1 = str(where / "missing.json"), str(where), str(where / "latin1.json")
    for suite in (missing, directory, latin1, str(where / "bad.json")):
        _every_command_exits_2(capsys, tmp_path, suite)
    for trace in (missing, directory, latin1, str(where / "bad.jsonl")):
        _exits_2_with_one_error_line(capsys, ["check", "--suite", clock_suite, "--trace", trace])


def test_requirement_name_with_a_line_break_exits_2(capsys, tmp_path):
    doc = json.loads(builtin_suite_text())
    doc["requirements"][1]["name"] = "R\n| evil | row"
    suite = tmp_path / "broken_lines.json"
    suite.write_text(json.dumps(doc))
    _every_command_exits_2(capsys, tmp_path, suite)


def test_an_empty_condition_name_exits_2(capsys, tmp_path):
    suite = tmp_path / "nameless.json"
    suite.write_text(json.dumps({"conditions": {"": "p"}, "requirements": [
        {"name": "r", "pattern": {"type": "absence", "p": ""}, "scope": {"type": "globally"}}]}))
    _every_command_exits_2(capsys, tmp_path, suite, "condition '': name must not be empty")


@pytest.mark.parametrize("condition, requirement, message", [
    (" ", "r", "condition ' ': name must not be only whitespace"),
    ("p", " ", "requirements[0].name: must not be only whitespace"),
])
def test_a_name_made_only_of_whitespace_exits_2(capsys, tmp_path, condition, requirement, message):
    suite = tmp_path / "blank.json"
    suite.write_text(json.dumps({"conditions": {condition: "p"}, "requirements": [
        {"name": requirement, "pattern": {"type": "absence", "p": condition}, "scope": {"type": "globally"}}]}))
    _every_command_exits_2(capsys, tmp_path, suite, message)


@pytest.mark.parametrize("field", ["source_url", "source_quote", "repo_url"])
def test_a_meta_string_made_only_of_whitespace_exits_2(capsys, tmp_path, field):
    suite = tmp_path / "blank_meta.json"
    suite.write_text(json.dumps({"conditions": {"m": "at_2400"}, "requirements": [
        {"name": "r", "pattern": {"type": "absence", "p": "m"}, "scope": {"type": "globally"},
         "meta": {field: "   "}}]}))
    _every_command_exits_2(capsys, tmp_path, suite, f"requirements[0].meta.{field}: must not be only whitespace")


def test_suite_json_nested_100000_deep_exits_2(capsys, tmp_path, clock_suite):
    suite = tmp_path / "deep.json"
    suite.write_text('{"conditions": ' + "[" * 100_000 + "]" * 100_000 + "}")
    _every_command_exits_2(capsys, tmp_path, suite, "JSON nests too deeply")


def test_trace_line_nested_100000_deep_exits_2(capsys, tmp_path, clock_suite):
    trace = tmp_path / "deep.jsonl"
    trace.write_text('["at_2400"]\n' + "[" * 100_000 + "]" * 100_000 + "\n")
    _exits_2_with_one_error_line(capsys, ["check", "--suite", clock_suite, "--trace", str(trace)],
                                 "line 2: JSON nests too deeply")


# Python 3.10.7 and later refuse to convert an integer of more digits than
# this limit, which includes json's integers.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(not INT_DIGITS, reason="this Python converts integers of any length")


@needs_int_limit
def test_suite_integer_longer_than_int_converts_exits_2(capsys, tmp_path):
    suite = tmp_path / "long_k.json"
    suite.write_text(
        '{"conditions": {"m": "at_2400"}, "requirements": [{"name": "R", "scope": {"type": "globally"}, '
        '"pattern": {"type": "bounded_existence", "p": "m", "k": ' + "9" * (INT_DIGITS + 1) + "}}]}"
    )
    _every_command_exits_2(capsys, tmp_path, suite, f"integer longer than the {INT_DIGITS}-digit limit")


@needs_int_limit
def test_trace_integer_longer_than_int_converts_exits_2_naming_its_line(capsys, tmp_path, clock_suite):
    trace = tmp_path / "long.jsonl"
    trace.write_text('["at_2400"]\n[' + "9" * (INT_DIGITS + 1) + "]\n")
    _exits_2_with_one_error_line(capsys, ["check", "--suite", clock_suite, "--trace", str(trace)],
                                 f"line 2: integer longer than the {INT_DIGITS}-digit limit")


@pytest.mark.parametrize("where", ["requirement name", "condition name", "meta string"])
def test_lone_surrogate_in_a_printed_string_exits_2(capsys, tmp_path, where):
    """Every name and link is printed, and UTF-8 output cannot carry a lone
    surrogate, so the suite is refused at load."""
    doc = json.loads(builtin_suite_text())
    if where == "requirement name":
        doc["requirements"][1]["name"] = "R\ud800"
    elif where == "condition name":
        doc["conditions"] = {"mid\udfffnight": "at_2400"}
        for req in doc["requirements"]:
            req["pattern"] = {key: "mid\udfffnight" if value == "midnight" else value
                              for key, value in req["pattern"].items()}
    else:
        doc["requirements"][0]["meta"]["repo_url"] = "https://example.org/\ud800"
    suite = tmp_path / "surrogate.json"
    suite.write_text(json.dumps(doc))
    _every_command_exits_2(capsys, tmp_path, suite)
    with pytest.raises(SuiteError, match="must not contain a lone surrogate"):
        load_suite(suite.read_text())


@pytest.mark.parametrize(
    "part, key, field",
    [(1, "pattern", "stict"), (0, "scope", "q"), (1, "meta", "source_ur")],
)
def test_unknown_field_exits_2(capsys, tmp_path, part, key, field):
    doc = json.loads(builtin_suite_text())
    doc["requirements"][part][key][field] = True if field == "stict" else "midnight"
    suite = tmp_path / "typo.json"
    suite.write_text(json.dumps(doc))
    _exits_2_with_one_error_line(capsys, ["check", "--suite", str(suite), "--trace", trace_file(tmp_path, 3)],
                                 f"requirements[{part}].{key}: unknown field {field!r}")


@pytest.mark.parametrize("where, key, message", [
    ("document", "requirments", "top level: unknown field 'requirments'"),
    ("entry", "metta", "requirements[1]: unknown field 'metta'"),
])
def test_unknown_document_or_requirement_key_exits_2(capsys, tmp_path, where, key, message):
    """A misspelt key would otherwise drop requirements or their links
    without a word: with no requirements, `check` would print nothing and exit 0."""
    doc = json.loads(builtin_suite_text())
    if where == "document":
        doc[key] = doc.pop("requirements")
    else:
        doc["requirements"][1][key] = doc["requirements"][1].pop("meta")
    suite = tmp_path / "typo.json"
    suite.write_text(json.dumps(doc))
    _exits_2_with_one_error_line(capsys, ["check", "--suite", str(suite), "--trace", trace_file(tmp_path, 3)], message)


def test_condition_body_that_is_not_a_string_exits_2(capsys, tmp_path):
    suite = tmp_path / "body.json"
    suite.write_text(json.dumps({"conditions": {"x": 1}, "requirements": []}))
    _exits_2_with_one_error_line(capsys, ["render", "--suite", str(suite)])
    with pytest.raises(MalformedCondition, match="^condition 'x': body must be a string$"):
        load_suite(suite.read_text())


def _deep_suite(tmp_path, terms: int) -> str:
    """Two conditions with the same flat conjunction of `terms` atoms, under
    names that are not atoms, so emit prints the conjunction itself."""
    body = " && ".join(["a"] * terms)
    doc = {
        "conditions": {"deep chain": body, "same chain": body, "b": "b"},
        "requirements": [
            {"name": "ABSENT", "pattern": {"type": "absence", "p": "deep chain"},
             "scope": {"type": "between", "q": "same chain", "r": "b"}},
            {"name": "ANSWERED", "pattern": {"type": "response", "p": "deep chain", "s": "b"},
             "scope": {"type": "globally"}},
        ],
    }
    path = tmp_path / f"deep_{terms}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_condition_nesting_too_deeply_exits_2(capsys, tmp_path):
    err = _exits_2_with_one_error_line(capsys, ["check", "--suite", _deep_suite(tmp_path, 1500),
                                                "--trace", trace_file(tmp_path, 3)])
    assert err.startswith("error: condition 'deep chain': condition nests too deeply")


def test_deepest_loadable_condition_checks_and_emits(capsys, tmp_path):
    def loads(terms: int) -> bool:
        try:
            load_suite(Path(_deep_suite(tmp_path, terms)).read_text())
        except MalformedCondition:
            return False
        return True

    lo, hi = 1, 1500
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if loads(mid) else (lo, mid)
    suite = _deep_suite(tmp_path, lo)
    trace = tmp_path / "ab.jsonl"
    trace.write_text('["a"]\n["a","b"]\n["b"]\n')
    code, out = run(capsys, "check", "--suite", suite, "--trace", str(trace))
    assert (code, out) == (1, "ABSENT: FAILS at segment 0 position 0\nANSWERED: HOLDS\n")
    code, out = run(capsys, "emit", "--suite", suite)
    assert code == 0
    assert [line.split(": ")[0] for line in out.splitlines()] == ["ABSENT", "ANSWERED"]
    assert "unsupported" not in out and " && ".join(["a"] * lo) in out
    for command in ("render", "report"):
        assert run(capsys, command, "--suite", suite)[0] == 0


# --- demo ---------------------------------------------------------------------

DEMO_TRANSCRIPT = """\
demo: clock (fresh instance, display 00:00)
step 1: verify STATEMENT_1_1 on the fresh clock
  outcome: PreconditionViolation(p_holds)
  the response trigger does not hold yet; it must be established first
step 2: establish STATEMENT_0 (midnight is reachable)
  outcome: Reached(1440)
step 3: verify STATEMENT_1_1 (midnight responds to midnight)
  outcome: Reached(1440)
"""


def test_demo_transcript_order(capsys):
    assert run(capsys, "demo", "clock") == (0, DEMO_TRANSCRIPT)


def test_demo_is_deterministic(capsys):
    _, first = run(capsys, "demo", "clock")
    _, second = run(capsys, "demo", "clock")
    assert first == second


def test_demo_unknown_sut(capsys):
    code, _ = run(capsys, "demo", "kettle")
    assert code == 2


def test_demo_negative_bound_is_usage_error(capsys):
    _exits_2_with_one_error_line(capsys, ["demo", "clock", "--bound", "-1"], "--bound must be >= 0")


def test_unexpected_exception_exits_4_with_one_line(capsys, monkeypatch, tmp_path, clock_suite):
    def broken(req, trace):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check", broken)
    code = main(["check", "--suite", clock_suite, "--trace", trace_file(tmp_path, 3)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def test_usage_error_exits_2(capsys):
    assert main(["check"]) == 2
    assert main(["no_such_command"]) == 2


# --- one process, many calls; each command imports what it runs ---------------

def test_check_imports_only_conditions_patterns_and_suite(tmp_path, clock_suite):
    code = (
        "import sys\n"
        "from reqpat import cli\n"
        f"status = cli.main(['check', '--suite', {clock_suite!r}, '--trace', {trace_file(tmp_path, 99)!r}])\n"
        "print(status, sorted(name for name in sys.modules if name.startswith('reqpat')))\n"
    )
    done = fresh_python("-c", code)
    assert done.stdout.splitlines() == [
        "STATEMENT_0: FAILS at segment 0 position 99",
        "STATEMENT_1_1: HOLDS (vacuous)",
        "1 ['reqpat', 'reqpat.cli', 'reqpat.conditions', 'reqpat.patterns', 'reqpat.suite']",
    ]
    assert done.stderr == ""


@pytest.mark.parametrize("command", [
    ["emit"], ["render"], ["report"], ["drive", "--sut", "clock", "--bound", "2000"], ["demo", "clock"],
])
def test_each_command_runs_in_a_fresh_interpreter_as_in_process(capsys, clock_suite, command):
    """A command whose modules load on its first call prints what it prints
    in a process that has loaded them all."""
    argv = command if command[0] == "demo" else [command[0], "--suite", clock_suite, *command[1:]]
    done = fresh_python("-m", "reqpat.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (*run(capsys, *argv), "")
    assert done.stdout


def test_check_after_check_json_prints_text(capsys, tmp_path, clock_suite):
    argv = ["check", "--suite", clock_suite, "--trace", trace_file(tmp_path, 99)]
    assert run(capsys, *argv, "--json")[1].startswith("[")
    assert run(capsys, *argv) == (1, "STATEMENT_0: FAILS at segment 0 position 99\nSTATEMENT_1_1: HOLDS (vacuous)\n")


def test_demo_after_demo_with_a_bound_uses_the_default_bound(capsys):
    short = run(capsys, "demo", "clock", "--bound", "5")
    assert "NotReached(5)" in short[1]
    assert run(capsys, "demo", "clock") == (0, DEMO_TRANSCRIPT)


def test_usage_error_between_two_calls_changes_neither(capsys, tmp_path, clock_suite):
    argv = ["check", "--suite", clock_suite, "--trace", trace_file(tmp_path, 99), "--json"]
    first = run(capsys, *argv)
    for bad in (["check", "--json"], ["demo", "clock", "--bound", "x"], ["drive", "--suite", clock_suite]):
        assert main(bad) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: reqpat ")
    assert run(capsys, *argv) == first


# The names `reqpat.cli` calls in other modules, each with a command that
# calls it. The benchmark's tracer patches exactly these on `reqpat.cli`.
CLI_CALLS = {
    "load_suite": "render",
    "load_trace": "check",
    "check": "check",
    "emit_ltl": "emit",
    "print_formula": "emit",
    "map_conditions": "emit",
    "render_suite_report": "render",
    "traceability_report": "report",
    "establish": "drive",
    "drive_verify_response": "drive",
}


@pytest.mark.parametrize("name", CLI_CALLS)
def test_patching_a_called_name_on_cli_reaches_its_command(capsys, tmp_path, clock_suite, name):
    command = CLI_CALLS[name]
    argv = {
        "check": ["check", "--suite", clock_suite, "--trace", trace_file(tmp_path, 99)],
        "drive": ["drive", "--suite", clock_suite, "--sut", "clock", "--bound", "2000"],
    }.get(command, [command, "--suite", clock_suite])
    expected = run(capsys, *argv)
    calls = []
    inner = getattr(cli, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    with mock.patch.object(cli, name, counting):
        assert run(capsys, *argv) == expected
    assert calls
