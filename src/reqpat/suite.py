"""Loading, validating, and writing requirement suites and traces.

Suite files are JSON objects with the fields of ``Suite``, each optional:

* ``conditions``: object mapping a condition name to condition text in the
  grammar ``true | false | atom | !e | e && e | e || e | (e)``, the
  propositional part of the formula grammar, where bare names are atoms
  observed on the system under test. ``conditions.CONDITIONS`` states its
  nesting bound.
* ``requirements``: array of objects with the fields of ``Requirement``,
  ``{name, pattern, scope, meta?}``; ``meta`` may also be null. ``pattern``
  and ``scope`` are tagged by ``type``: the tags are the keys of the
  catalogue, ``patterns.PATTERNS`` and ``patterns.SCOPES``, and the other
  keys are fields of the tagged dataclass (``p``, ``s``, ``k``, ``chain``,
  ``strict`` for patterns; ``q``, ``r`` for scopes). Condition parameters
  refer to entries of ``conditions`` by name. ``meta`` may carry the fields
  of ``TraceLinks``: ``source_url``, ``source_quote`` and ``repo_url``.

Each object is built from its class's fields, each read by the decoder of its
annotation (``DECODERS``). At every level a key that is not a field is
rejected, as is a missing field without a default.

A name may be defined only once: a duplicate condition or requirement name is
the file-level contradiction signal and is always rejected. A condition or
requirement name must hold a character other than whitespace. No name or
``meta`` string may contain a line break or a lone surrogate, and no integer
may have more digits than ``int`` converts.

Trace files are JSON Lines: one array of atom names per line, one line per
state, atoms sorted on output. Atoms absent from a line are false. Identical
lines load as one shared State, and each distinct state is written once.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, Mapping, NoReturn

from .conditions import (
    ATOM_RE,
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


def _name_flaw(name: str) -> str:
    """Why the text cannot name a condition or a requirement, each printed in
    every sentence and row that mentions it, or "" when it can."""
    if not name:
        return "must not be empty"
    return _unprintable(name) or ("must not be only whitespace" if name.isspace() else "")


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
    _refuse_unknown(data, parameters(Suite), "top level", _malformed)

    raw_conditions = data.get("conditions", {})
    if not isinstance(raw_conditions, dict):
        raise MalformedSuite("'conditions' must be an object")
    conditions: dict[str, Condition] = {}
    for name, body in raw_conditions.items():
        if flaw := _name_flaw(name):
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
    requirements = [_load_fields(Requirement, entry, conditions, f"requirements[{index}]", _malformed)
                    for index, entry in enumerate(raw_requirements)]
    return Suite(conditions=conditions, requirements=requirements)


_Error = Callable[[str, str], SuiteError]


def _malformed(location: str, detail: str) -> MalformedSuite:
    return MalformedSuite(f"{location}: {detail}")


def _refuse_unknown(raw: dict[str, Any], allowed: Collection[str], location: str, error: _Error) -> None:
    for key in raw:
        if key not in allowed:
            raise error(location, f"unknown field {key!r}")


def _load_fields(cls: type, raw: Any, conditions: Mapping[str, Condition], location: str, error: _Error) -> Any:
    """Build the dataclass `cls` from a JSON object with one key per field,
    besides a variant's tag `type`; the constraints on values are the class's."""
    if not isinstance(raw, dict):
        raise error(location, "must be an object")
    allowed, plan = _plan(cls)
    if not raw.keys() <= allowed:
        _refuse_unknown(raw, allowed, location, error)
    args = {}
    for name, decode, required in plan:
        if name in raw:
            args[name] = decode(raw[name], conditions, location, name, error)
        elif required:
            raise error(location, f"missing field {name!r}")
    try:
        return cls(**args)
    except ValueError as exc:
        raise error(location, str(exc)) from exc


@functools.cache
def _plan(cls: type) -> tuple[frozenset[str], list[tuple[str, Callable, bool]]]:
    """The keys an object of `cls` may hold; each field's decoder, and whether it is required."""
    plan = [(name, DECODERS[f.type], f.default is dataclasses.MISSING) for name, f in parameters(cls).items()]
    return frozenset(parameters(cls)) | ({"type"} if cls in TAGS else frozenset()), plan


# Each decoder reads `value`, the JSON value of field `name` of the object at
# `location`, type-checking it, because it comes from outside.
def _resolve(raw: Any, conditions: Mapping[str, Condition], location: str, name: str, error: _Error) -> Condition:
    if isinstance(raw, str) and raw in conditions:
        return conditions[raw]
    if not isinstance(raw, str):
        raise error(f"{location}.{name}", "condition reference must be a name string")
    raise UnknownReference(raw, f"{location}.{name}")


def _load_exactly(kind: type, noun: str, value, conditions, location, name, error) -> Any:
    if type(value) is not kind:
        raise error(location, f"{name!r} must be {noun}")
    return value


def _load_text(optional: bool, value, conditions, location, name, error) -> str | None:
    if not optional and (type(value) is not str or not value):
        raise error(location, f"{name!r} must be a nonempty string")
    flaw_of = _unprintable if optional else _name_flaw
    if value is not None and (flaw := flaw_of(value) if type(value) is str else "must be a string"):
        raise error(f"{location}.{name}", flaw)
    return value


def _load_variant(catalogue: Mapping[str, type], kind: str, raw: Any, conditions: Mapping[str, Condition],
                  location: str, name: str, error: _Error) -> Pattern | Scope:
    location = f"{location}.{name}"
    if not isinstance(raw, dict):
        raise MalformedPattern(location, "must be an object with a 'type' tag")
    if "type" not in raw:
        raise MalformedPattern(location, "missing field 'type'")
    tag = raw["type"]
    cls = catalogue.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise MalformedPattern(location, f"unknown {kind} type {tag!r}")
    return _load_fields(cls, raw, conditions, location, MalformedPattern)


_load_list = functools.partial(_load_exactly, list, "a nonempty array of names")

# The decoder of each field annotation of Requirement, TraceLinks and every variant.
DECODERS: dict[str, Callable] = {
    "Condition": _resolve,
    "tuple[Condition, ...]": lambda value, *context: [_resolve(item, *context) for item in _load_list(value, *context)],
    "int": functools.partial(_load_exactly, int, "an integer >= 0"),
    "bool": functools.partial(_load_exactly, bool, "a boolean"),
    "str": functools.partial(_load_text, False),
    "str | None": functools.partial(_load_text, True),
    "Pattern": functools.partial(_load_variant, PATTERNS, "pattern"),
    "Scope": functools.partial(_load_variant, SCOPES, "scope"),
    "TraceLinks": lambda value, conditions, location, name, error: TraceLinks() if value is None else _load_fields(
        TraceLinks, value, conditions, f"{location}.{name}", error),
}


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
        entry = {"name": req.name, "pattern": variant_json(req.pattern, where), "scope": variant_json(req.scope, where)}
        if meta := {key: value for key, value in dataclasses.asdict(req.meta).items() if value is not None}:
            entry["meta"] = meta
        entries.append(entry)
    conditions = {name: format_condition(expr) for name, expr in suite.conditions.items()}
    return json.dumps({"conditions": conditions, "requirements": entries}, indent=2) + "\n"


_decode = json.JSONDecoder().decode

# Finds, in "\n" followed by lines joined by "\n", each line that is not in
# the form write_trace writes: `[]` or `["a","b",...]`, every atom an ATOM_RE
# name, with no whitespace and no escapes. A line in that form is the JSON
# array of the atoms between its quotes.
_ATOM = f'"{ATOM_RE.pattern}"'
_UNWRITTEN = re.compile(rf"\n(?!\[(?:{_ATOM}(?:,{_ATOM})*)?\]$)(.*)", re.MULTILINE)


def load_trace(text: str, keep: Collection[str] | None = None) -> Trace:
    """Parse a JSON-Lines trace; one array of atom names per line.

    Lines end at "\n" only, as in JSON Lines, and a final "\n" ends the last
    one; a "\r" before it is JSON whitespace, so CRLF files load too. Each
    distinct line text is parsed once, in order of first occurrence, so the
    earliest bad line is the one reported; identical lines share one State.
    A line in the form write_trace writes is read by splitting it between
    its atoms; every other line is decoded as JSON, with the same result.
    The trace keeps its distinct states and each line's index among them
    (`Trace.from_codes`), so `patterns.check` reads a condition once per
    distinct line.

    With `keep`, every line is still validated in full, raising the same
    error, and each state then holds only its line's atoms in `keep`; lines
    equal on those atoms share one State. A condition over atoms in `keep`
    holds where it holds on the full trace, so `reqpat check` keeps the
    atoms its suite reads.
    """
    lines = text.removesuffix("\n").split("\n") if text else []
    codes = {line: code for code, line in enumerate(dict.fromkeys(lines))}
    unwritten = set(_UNWRITTEN.findall("\n" + "\n".join(codes)))
    rows = []
    for line in codes:
        if line not in unwritten:
            atoms = line[2:-2].split('","') if line != "[]" else ()
        else:
            try:
                atoms = _decode(line)
            except (ValueError, RecursionError):  # an integer too long for `int` too
                atoms = None
            if type(atoms) is not list or not all(map(is_valid_atom, atoms)):
                _refuse_line(lines.index(line) + 1, line)
        rows.append(atoms)
    if keep is not None:
        keep, kept = frozenset(keep), {}
        codes = {line: kept.setdefault(keep.intersection(atoms), len(kept)) for line, atoms in zip(codes, rows)}
        rows = list(kept)
    return Trace.from_codes(map(State, rows), map(codes.__getitem__, lines))


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
