"""Loading, validating, and writing requirement suites and traces.

Suite files are JSON with two top-level keys:

* ``conditions``: object mapping a condition name to condition text in the
  grammar ``true | false | atom | !e | e && e | e || e | (e)``, the
  propositional part of the formula grammar, where bare names are atoms
  observed on the system under test. ``conditions.CONDITIONS`` states its
  nesting bound.
* ``requirements``: array of ``{name, pattern, scope, meta?}`` entries.
  ``pattern`` and ``scope`` are tagged by ``type``: the tags are the keys of
  the catalogue, ``patterns.PATTERNS`` and ``patterns.SCOPES``, and the other
  keys are fields of the tagged dataclass (``p``, ``s``, ``k``, ``chain``,
  ``strict`` for patterns; ``q``, ``r`` for scopes), each one required
  unless it has a default. Condition parameters refer to entries of
  ``conditions`` by name. ``meta`` may carry the fields of ``TraceLinks``:
  ``source_url``, ``source_quote`` and ``repo_url``. A key that is not a
  field is rejected.

A name may be defined only once: a duplicate condition or requirement name is
the file-level contradiction signal and is always rejected. No condition
name, requirement name or ``meta`` string may contain a line break or a lone
surrogate, and no integer may have more digits than ``int`` converts.

Trace files are JSON Lines: one array of atom names per line, one line per
state, atoms sorted on output. Atoms absent from a line are false. Identical
lines load as one shared State, and each distinct state is written once.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NoReturn

from .conditions import (
    Condition,
    ConditionSyntaxError,
    State,
    Trace,
    format_condition,
    is_valid_atom,
    parse_condition,
)
from .patterns import PATTERNS, SCOPES, TAGS, Pattern, Requirement, Scope, TraceLinks, mapped_fields, parameters


class SuiteError(ValueError):
    """Base class for suite and trace file diagnostics."""


class DuplicateDefinition(SuiteError):
    def __init__(self, name: str):
        super().__init__(f"duplicate definition: {name!r}")
        self.name = name


class UnknownReference(SuiteError):
    def __init__(self, name: str, location: str):
        super().__init__(f"{location}: unknown condition {name!r}")
        self.name = name
        self.location = location


class MalformedPattern(SuiteError):
    def __init__(self, location: str, detail: str):
        super().__init__(f"{location}: {detail}")
        self.location = location


class MalformedCondition(SuiteError):
    def __init__(self, name: str, detail: str):
        super().__init__(f"condition {name!r}: {detail}")
        self.name = name


class MalformedSuite(SuiteError):
    pass


class TraceFormatError(SuiteError):
    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line


@dataclass(frozen=True, init=False, eq=True)
class Suite:
    """Named conditions plus an ordered list of requirements over them."""

    conditions: dict[str, Condition]
    requirements: tuple[Requirement, ...]

    def __init__(
        self,
        conditions: Mapping[str, Condition],
        requirements: Iterable[Requirement],
    ):
        object.__setattr__(self, "conditions", dict(conditions))
        object.__setattr__(self, "requirements", tuple(requirements))
        _reject_duplicates(req.name for req in self.requirements)

    def names_by_condition(self) -> dict[Condition, str]:
        """Invert the condition map for display; first definition wins."""
        out: dict[Condition, str] = {}
        for name, expr in self.conditions.items():
            out.setdefault(expr, name)
        return out


def _reject_duplicates(names: Iterable[str]) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateDefinition(name)
        seen.add(name)


def _refused_json(exc: ValueError | RecursionError) -> str:
    """Why `json` refused a text: it is not JSON, it nests deeper than the
    parser recurses, or it holds an integer longer than `int` converts."""
    if isinstance(exc, RecursionError):
        return "JSON nests too deeply"
    if isinstance(exc, json.JSONDecodeError):
        return f"not valid JSON: {exc}"
    return f"integer longer than the {sys.get_int_max_str_digits()}-digit limit"


def _check_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out = dict(pairs)
    if len(out) < len(pairs):
        _reject_duplicates(key for key, _ in pairs)
    return out


def _unprintable(text: str) -> str:
    """Why the text cannot be printed inside one line of UTF-8 output, as
    names and links are, or "" when it can."""
    if "".join(text.splitlines()) != text:
        return "must not contain a line break"
    if not text.isascii() and any("\ud800" <= char <= "\udfff" for char in text):
        return "must not contain a lone surrogate"
    return ""


def load_suite(text: str) -> Suite:
    """Parse and validate a suite file; every defect raises a SuiteError."""
    try:
        data = json.loads(text, object_pairs_hook=_check_duplicate_keys)
    except SuiteError:
        raise
    except (ValueError, RecursionError) as exc:
        raise MalformedSuite(_refused_json(exc)) from exc
    if not isinstance(data, dict):
        raise MalformedSuite("top level must be a JSON object")

    raw_conditions = data.get("conditions", {})
    if not isinstance(raw_conditions, dict):
        raise MalformedSuite("'conditions' must be an object")
    conditions: dict[str, Condition] = {}
    for name, body in raw_conditions.items():
        if flaw := _unprintable(name):
            raise MalformedCondition(name, f"name {flaw}")
        if not isinstance(body, str):
            raise MalformedCondition(name, "body must be a string")
        try:
            conditions[name] = parse_condition(body)
        except ConditionSyntaxError as exc:
            raise MalformedCondition(name, str(exc)) from exc

    raw_requirements = data.get("requirements", [])
    if not isinstance(raw_requirements, list):
        raise MalformedSuite("'requirements' must be an array")

    requirements = []
    for index, entry in enumerate(raw_requirements):
        location = f"requirements[{index}]"
        if not isinstance(entry, dict):
            raise MalformedSuite(f"{location}: must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise MalformedSuite(f"{location}: missing or empty 'name'")
        if flaw := _unprintable(name):
            raise MalformedSuite(f"{location}.name: {flaw}")
        pattern = _load_variant(entry.get("pattern"), PATTERNS, "pattern", conditions, f"{location}.pattern")
        scope = _load_variant(entry.get("scope"), SCOPES, "scope", conditions, f"{location}.scope")
        meta = entry.get("meta")
        if meta is None:
            meta = TraceLinks()
        elif isinstance(meta, dict):
            meta = _load_fields(TraceLinks, meta, conditions, f"{location}.meta", _malformed_meta)
        else:
            raise MalformedSuite(f"{location}.meta: must be an object")
        requirements.append(Requirement(name=name, pattern=pattern, scope=scope, meta=meta))

    return Suite(conditions=conditions, requirements=requirements)


def _resolve(raw: Any, conditions: Mapping[str, Condition], location: str, field: str) -> Condition:
    if isinstance(raw, str) and raw in conditions:
        return conditions[raw]
    where = f"{location}.{field}"
    if not isinstance(raw, str):
        raise MalformedPattern(where, "condition reference must be a name string")
    raise UnknownReference(raw, where)


def _malformed_meta(location: str, detail: str) -> MalformedSuite:
    return MalformedSuite(f"{location}: {detail}")


def _load_variant(raw: Any, catalogue: Mapping[str, type], kind: str,
                  conditions: Mapping[str, Condition], location: str) -> Pattern | Scope:
    if not isinstance(raw, dict):
        raise MalformedPattern(location, "must be an object with a 'type' tag")
    tag = raw.get("type")
    cls = catalogue.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise MalformedPattern(location, f"unknown {kind} type {tag!r}")
    fields = dict(raw)
    del fields["type"]
    return _load_fields(cls, fields, conditions, location, MalformedPattern)


def _load_fields(cls: type, raw: dict[str, Any], conditions: Mapping[str, Condition], location: str,
                 error: Callable[[str, str], SuiteError]) -> Any:
    """Build the dataclass `cls` from a JSON object with one key per field.
    Raw values are type-checked here, because they come from outside; the
    constraints on the values are the dataclass's own."""
    fields = parameters(cls)
    if not raw.keys() <= fields.keys():
        unknown = next(key for key in raw if key not in fields)
        raise error(location, f"unknown field {unknown!r}")
    args = {}
    for name, f in fields.items():
        if name in raw:
            args[name] = _load_value(f, raw[name], conditions, location, error)
        elif f.default is dataclasses.MISSING:
            raise error(location, f"missing field {name!r}")
    try:
        return cls(**args)
    except ValueError as exc:
        raise error(location, str(exc)) from exc


def _load_value(f: dataclasses.Field, value: Any, conditions: Mapping[str, Condition], location: str,
                error: Callable[[str, str], SuiteError]) -> Any:
    if f.type == "Condition":
        return _resolve(value, conditions, location, f.name)
    if f.type == "tuple[Condition, ...]":
        if not isinstance(value, list):
            raise error(location, f"{f.name!r} must be a nonempty array of names")
        return [_resolve(item, conditions, location, f.name) for item in value]
    if f.type == "int" and type(value) is not int:
        raise error(location, f"{f.name!r} must be an integer >= 0")
    if f.type == "bool" and type(value) is not bool:
        raise error(location, f"{f.name!r} must be a boolean")
    if f.type == "str | None" and value is not None:
        if type(value) is not str:
            raise error(f"{location}.{f.name}", "must be a string")
        if flaw := _unprintable(value):
            raise error(f"{location}.{f.name}", flaw)
    return value


def dump_suite(suite: Suite) -> str:
    """Serialize a suite; load_suite inverts it. Every condition referenced by
    a requirement must appear in the suite's condition map."""
    names = suite.names_by_condition()

    def name_of(cond: Condition, where: str) -> str:
        if cond not in names:
            raise SuiteError(f"{where}: condition has no name in the suite")
        return names[cond]

    def variant_json(variant: Pattern | Scope, where: str) -> dict[str, Any]:
        if type(variant) not in TAGS:
            raise SuiteError(f"{where}: cannot serialize {variant!r}")
        return {"type": TAGS[type(variant)], **mapped_fields(variant, lambda cond: name_of(cond, where))}

    entries = []
    for req in suite.requirements:
        where = f"requirement {req.name!r}"
        entry: dict[str, Any] = {
            "name": req.name,
            "pattern": variant_json(req.pattern, where),
            "scope": variant_json(req.scope, where),
        }
        meta = {key: value for key, value in dataclasses.asdict(req.meta).items() if value is not None}
        if meta:
            entry["meta"] = meta
        entries.append(entry)

    document = {
        "conditions": {name: format_condition(expr) for name, expr in suite.conditions.items()},
        "requirements": entries,
    }
    return json.dumps(document, indent=2) + "\n"


_decode = json.JSONDecoder().decode


def load_trace(text: str) -> Trace:
    """Parse a JSON-Lines trace; one array of atom names per line.

    Lines end at "\n" only, as in JSON Lines, and a final "\n" ends the last
    one; a "\r" before it is JSON whitespace, so CRLF files load too. Each
    distinct line text is parsed once, in order of first occurrence, so the
    earliest bad line is the one reported; identical lines share one State.
    The trace keeps its distinct states and each line's index among them
    (`Trace.from_codes`), so `patterns.check` reads a condition once per
    distinct line.
    """
    lines = text.removesuffix("\n").split("\n") if text else []
    codes = dict.fromkeys(lines)
    distinct = []
    for code, line in enumerate(codes):
        try:
            atoms = _decode(line)
        except (ValueError, RecursionError):  # an integer too long for `int` too
            atoms = None
        if type(atoms) is not list or not all(map(is_valid_atom, atoms)):
            _refuse_line(lines.index(line) + 1, line)
        codes[line] = code
        distinct.append(State(atoms))
    return Trace.from_codes(distinct, map(codes.__getitem__, lines))


def _refuse_line(lineno: int, line: str) -> NoReturn:
    """Raise the TraceFormatError of a line that does not load, working out
    which diagnostic applies only on this error path."""
    try:
        atoms = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(lineno, _refused_json(exc)) from exc
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise TraceFormatError(lineno, "each line must be an array of atom names")
    atom = next(a for a in atoms if not is_valid_atom(a))
    raise TraceFormatError(lineno, f"invalid atom name {atom!r}")


_encode = json.JSONEncoder(separators=(",", ":")).encode


def write_trace(trace: Trace) -> str:
    """Serialize a trace as JSON Lines, atoms sorted per line; inverse of
    load_trace. Each distinct atom set is validated and encoded once. An atom
    that load_trace would refuse raises ValueError naming it and the first
    position holding it, so a written trace always loads back."""
    rows = [state.atoms for state in trace.states]
    lines: dict[frozenset[str], str] = {}
    for atoms in dict.fromkeys(rows):
        if not all(map(is_valid_atom, atoms)):
            atom = min((a for a in atoms if not is_valid_atom(a)), key=repr)
            raise ValueError(f"position {rows.index(atoms)}: invalid atom name {atom!r}")
        lines[atoms] = _encode(sorted(atoms)) + "\n"
    return "".join(map(lines.__getitem__, rows))
