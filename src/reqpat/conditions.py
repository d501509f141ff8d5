"""Propositional conditions over observation states, and finite traces of states.

A condition abstracts a named observation of the system under test: a state is
just the set of atom names that hold at one instant, and a condition is a
boolean expression over atom membership. Atoms absent from a state are false.
Each condition class evaluates itself: `cond.holds(state)` is the condition's
truth value in that state, and `eval_condition` is the checked entry point.

The module also holds the engine for tree languages given as tables
(`Grammar`): conditions (`CONDITIONS`) here, and the formulas of `ltl`, whose
propositional nodes the condition classes are. It reads and writes their
text, and it compiles a tree into a flat post-order program and builds one
back, so that every walk over a tree, such as `condition_atoms`, is a loop
over a program.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

ATOM_RE = re.compile(r"[a-z_][a-z0-9_]*")


def is_valid_atom(name: object) -> bool:
    return isinstance(name, str) and ATOM_RE.fullmatch(name) is not None


class Formula:
    """Base class of the nodes of the formula grammar, `ltl.FORMULAS`: the
    condition classes below are its propositional nodes, and `ltl` adds the
    temporal ones. Every node is an immutable value. Only a condition has a
    truth value in one state: the condition classes override `holds`, so a
    temporal node inside a condition-rooted tree is refused as
    `condition_atoms` refuses it."""

    __slots__ = ()

    def holds(self, state: State) -> bool:
        raise TypeError(f"not a condition: {self!r}")


class Condition(Formula):
    """Base class for condition expressions. Subclasses are immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Condition):
    value: bool

    def __post_init__(self) -> None:
        if not isinstance(self.value, bool):
            raise ValueError(f"not a truth value: {self.value!r}")

    def holds(self, state: State) -> bool:
        return self.value


@dataclass(frozen=True)
class Ref(Condition):
    name: str

    def __post_init__(self) -> None:
        if not is_valid_atom(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")

    def holds(self, state: State) -> bool:
        return self.name in state.atoms


@dataclass(frozen=True)
class Not(Condition):
    inner: Condition

    def holds(self, state: State) -> bool:
        return not self.inner.holds(state)


@dataclass(frozen=True)
class And(Condition):
    left: Condition
    right: Condition

    def holds(self, state: State) -> bool:
        return self.left.holds(state) and self.right.holds(state)


@dataclass(frozen=True)
class Or(Condition):
    left: Condition
    right: Condition

    def holds(self, state: State) -> bool:
        return self.left.holds(state) or self.right.holds(state)


@dataclass(frozen=True, init=False)
class State:
    """One observation instant: the set of atoms that hold."""

    atoms: frozenset[str]

    def __init__(self, atoms: Iterable[str] = ()):
        object.__setattr__(self, "atoms", frozenset(atoms))

    def __contains__(self, name: str) -> bool:
        return name in self.atoms


@dataclass(frozen=True, init=False)
class Trace:
    """A finite, possibly empty sequence of states, indexed from 0.

    A trace made by `from_codes`, as `suite.load_trace` makes every trace,
    may also keep its distinct states, `_distinct`, and the index of each
    position's state among them, `_codes`, as bytes; any other trace has
    `_codes` None. `_memo` is a cache that only `patterns` reads and writes.
    None of these is a field, so equality, hash and repr ignore them, and a
    copy or a pickle starts with an empty memo and without codes.
    """

    states: tuple[State, ...]
    _codes = None

    def __init__(self, states: Iterable[State] = ()):
        # Frozen, so the instance dict is filled directly.
        attrs = self.__dict__
        attrs["states"] = tuple(states)
        attrs["_memo"] = {}

    def __reduce__(self):
        return type(self), (self.states,)

    @classmethod
    def of(cls, *atom_sets: Iterable[str]) -> "Trace":
        return cls(State(atoms) for atoms in atom_sets)

    @classmethod
    def from_codes(cls, distinct: Iterable[State], codes: Iterable[int]) -> "Trace":
        """The trace holding `distinct[c]` for each code c, in order. With at
        most 256 distinct states, and at most half as many as positions, it
        keeps both, the codes as bytes, so that `patterns.check` reads each
        condition once per distinct state; otherwise it is like a built one."""
        distinct = tuple(distinct)
        if len(distinct) > 256:
            return cls(map(distinct.__getitem__, codes))
        codes = bytes(codes)
        trace = cls([distinct[code] for code in codes])
        if 2 * len(distinct) <= len(codes):
            trace.__dict__.update(_distinct=distinct, _codes=codes)
        return trace

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, index: int) -> State:
        return self.states[index]

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)


def eval_condition(expr: Condition, state: State) -> bool:
    """Evaluate a condition against one state. Total and deterministic."""
    if not isinstance(expr, Condition):
        raise TypeError(f"not a condition: {expr!r}")
    return expr.holds(state)


def condition_atoms(expr: Condition) -> frozenset[str]:
    """The names of the atoms a condition reads, at any depth."""
    return frozenset([name for op, name, _ in CONDITIONS.compile(expr) if op is Ref])


# --- text --------------------------------------------------------------------

# Nesting bound of the text grammars, and so of every condition and formula
# loaded from text. Parsing and printing do not recurse, but evaluating,
# hashing, comparing and `repr` of a condition recurse through the
# interpreter at up to three stack levels per operator; bounding the depth
# of a loaded tree keeps all of them well inside its default recursion limit.
MAX_NESTING = 200

_WORD = r"[A-Za-z_][A-Za-z0-9_]*"


class Grammar:
    """A tree language and its text grammar, given as table data and read,
    written, compiled and built by one engine.

    `prefix` maps each unary operator token to its node class, and `infix`
    each binary one to its node class and precedence (at least 1, higher
    binds tighter). Every binary operator associates to the right, unary
    operators bind tightest, and '(' ')' group. A class prints as its first
    token, a letter operator with a space after it. `constants` maps each
    keyword to its node, `atom` builds the node of an atom name, `error` is
    raised with a message and an offset, and `noun` names what is parsed.
    `nesting` is (base, per operator, per parenthesis): an operand is
    refused when base + per operator x the operators pending + per
    parenthesis x the open parentheses, one that the operand opens
    included, exceeds MAX_NESTING.

    The tables also give each node's operands: a unary class's one field,
    a binary class's `left` and `right`, none for an atom or a constant.
    `compile` and `build` walk trees by them. No method recurses.
    """

    def __init__(self, noun: str, error: type, atom: type, constants: dict, prefix: dict, infix: dict,
                 nesting: tuple[int, int, int]):
        self.noun, self.error, self.atom = noun, error, atom
        self.constants, self.prefix, self.infix, self.nesting = constants, prefix, infix, nesting
        self.keywords = frozenset([*constants, *prefix, *infix, "(", ")"])
        words = sorted(token for token in self.keywords if re.fullmatch(_WORD, token))
        symbols = "|".join(map(re.escape, sorted(self.keywords.difference(words), key=len, reverse=True)))
        # A token is a symbol, a word, any other character, or the end of the
        # text, after whitespace: every offset matches, so a scan is linear.
        tokens = re.compile(rf"\s*({symbols}|{_WORD}|\S|\Z)")
        self._split, self._scan = tokens.findall, tokens.finditer
        self.unary: dict[type, tuple[str, str]] = {}
        for token, cls in prefix.items():
            text = token + " " if token in words else token
            self.unary.setdefault(cls, (text, dataclasses.fields(cls)[0].name))
        self.binary = {cls: (f" {token} ", prec) for token, (cls, prec) in infix.items()}
        self.unary_prec = max(prec for _, prec in infix.values()) + 1
        self.constant_text = {node: token for token, node in constants.items()}
        self.constant_classes = {type(node) for node in constants.values()}

    def parse(self, text: str):
        """The tree of the text. Every token is checked before any is parsed,
        so the first bad token is the error even after a syntax error. Each
        distinct atom is checked and built once; its occurrences share the
        node. One loop parses by operator precedence, without recursion: each
        pending operator waits on one stack as (class, precedence, left
        operand), a unary one with no left operand, and an open parenthesis
        as (None, 0, None), which no token reduces."""
        tokens = self._split(text)
        names = set(tokens).difference(self.keywords, [""])
        bad = {token for token in names if not ATOM_RE.fullmatch(token)}
        if bad:
            match = next(match for match in self._scan(text) if match[1] in bad)
            what = "invalid atom name" if re.match(_WORD, match[1]) else "unexpected character"
            raise self.error(f"{what} {match[1]!r}", match.start(1))
        atoms = {name: self.atom(name) for name in names}
        prefix, infix, constants, unary_prec = self.prefix, self.infix, self.constants, self.unary_prec
        base, per_operator, per_paren = self.nesting
        stack: list[tuple] = []
        parens = 0
        node = None  # the operand just read; None while one is expected
        for index, token in enumerate(tokens):
            if node is None:
                opening = token == "("
                if base + per_operator * (len(stack) - parens) + per_paren * (parens + opening) > MAX_NESTING:
                    raise self._error(text, f"{self.noun} nests too deeply", index)
                if opening:
                    stack.append((None, 0, None))
                    parens += 1
                elif token in prefix:
                    stack.append((prefix[token], unary_prec, None))
                elif token in atoms:
                    node = atoms[token]
                elif token in constants:
                    node = constants[token]
                else:
                    raise self._error(text, f"unexpected token {token!r}" if token else "unexpected end of input", index)
                continue
            cls, prec = infix.get(token, (None, 0))
            # Operators associate to the right: reduce only those that bind
            # more tightly; any other token reduces all up to a parenthesis.
            while stack and stack[-1][1] > prec:
                op, _, left = stack.pop()
                node = op(node) if left is None else op(left, node)
            if cls is not None:
                stack.append((cls, prec, node))
                node = None
            elif token == ")" and stack:
                stack.pop()
                parens -= 1
            elif stack:
                raise self._error(text, "expected ')'", index)
            elif token:
                raise self._error(text, f"unexpected trailing token {token!r}", index)
            else:
                return node

    def _error(self, text: str, message: str, index: int) -> Exception:
        return self.error(message, [match.start(1) for match in self._scan(text)][index])

    def render(self, node) -> tuple[str, int]:
        """The node's text with the fewest parentheses that parse back, and
        how deep those parentheses nest.

        Written left to right without recursion: the loop walks down a left
        spine and stacks each right operand with the text that precedes it,
        and each closing parenthesis with no operand, so a tree of any depth
        renders."""
        unary, binary = self.unary, self.binary
        out: list[str] = []
        write = out.append
        stack: list = [("", node, 0)]
        depth = deepest = 0
        while stack:
            text, node, ctx = stack.pop()
            write(text)
            if node is None:
                depth -= 1
                continue
            cls = type(node)
            while True:
                if cls in unary:
                    prefix, field = unary[cls]
                    write(prefix)
                    node, ctx = getattr(node, field), self.unary_prec
                elif cls in binary:
                    infix, prec = binary[cls]
                    if prec < ctx:
                        write("(")
                        depth += 1
                        deepest = max(deepest, depth)
                        stack.append((")", None, 0))
                    stack.append((infix, node.right, prec))
                    node, ctx = node.left, prec + 1
                else:
                    break
                cls = type(node)
            write(self._leaf(node))
        return "".join(out), deepest

    def _leaf(self, node) -> str:
        """An atom's name or a constant's token; any other leaf is refused."""
        cls = type(node)
        if cls is self.atom:
            return node.name
        if cls in self.constant_classes and node in self.constant_text:
            return self.constant_text[node]
        raise TypeError(f"not a {self.noun}: {node!r}")

    def compile(self, root) -> tuple[tuple, ...]:
        """The tree as a post-order program of (node class, operand, operand)
        instructions, built without recursion. An operator's operands are the
        slots of its operands' instructions, an atom's is its name and a
        constant's its token; absent ones are None. Structurally equal
        subtrees share one slot, and the root is the last instruction."""
        unary, binary = self.unary, self.binary
        program: list[tuple] = []
        slot_of_key: dict[tuple, int] = {}
        slot_of_node: dict[int, int] = {}  # by id(): every node lives on in `root`
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in slot_of_node:
                stack.pop()
                continue
            cls = type(node)
            if cls in binary:
                left, right = node.left, node.right
                if id(left) not in slot_of_node or id(right) not in slot_of_node:
                    stack += (left, right)  # one compiled already is popped at once
                    continue
                key = (cls, slot_of_node[id(left)], slot_of_node[id(right)])
            elif cls in unary:
                operand = getattr(node, unary[cls][1])
                if id(operand) not in slot_of_node:
                    stack.append(operand)
                    continue
                key = (cls, slot_of_node[id(operand)], None)
            else:
                key = (cls, self._leaf(node), None)
            stack.pop()
            slot = slot_of_key.get(key)
            if slot is None:
                slot = slot_of_key[key] = len(program)
                program.append(key)
            slot_of_node[id(node)] = slot
        return tuple(program)

    def build(self, program: Iterable[tuple], atom: Callable[[str], object]):
        """The tree of a program in `compile`'s form, its last instruction's
        node: each instruction is built once, so a slot used twice is one
        shared node. An atom's instruction becomes `atom(name)`, and a
        constant's this grammar's constant of its token."""
        unary, constants, atom_class = self.unary, self.constants, self.atom
        built: list = []
        add = built.append
        for op, a, b in program:
            if b is not None:
                add(op(built[a], built[b]))
            elif op in unary:
                add(op(built[a]))
            elif op is atom_class:
                add(atom(a))
            else:
                add(constants[a])
        return built[-1]


class ConditionSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# A condition is the propositional part of the formula grammar. Its nesting
# rule bounds the depth of the loaded tree, which `holds`, `==`, `hash` and
# `repr` recurse over: two to start, one per pending operator and three per
# parenthesis, so 199 flat terms load, and an atom inside 66 parentheses.
# Parentheses add no depth to the tree; they keep the weight a recursive
# parser once spent on them in call depth, so the same conditions load.
CONDITIONS = Grammar(
    noun="condition",
    error=ConditionSyntaxError,
    atom=Ref,
    constants={"true": Const(True), "false": Const(False)},
    prefix={"!": Not},
    infix={"||": (Or, 1), "&&": (And, 2)},
    nesting=(2, 1, 3),
)


def parse_condition(text: str) -> Condition:
    return CONDITIONS.parse(text)


def format_condition(expr: Condition) -> str:
    """Render a condition in the text grammar; parse_condition inverts it."""
    return CONDITIONS.render(expr)[0]
