"""Propositional and autoepistemic formulas.

Formulas are immutable trees over a configurable basis of Boolean connectives.
Belief prefixes (``L``) are first-class nodes that behave as opaque atoms for
evaluation and entailment.  The module also provides the exhaustive
truth-table oracles that everything else in the toolkit is cross-checked
against.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import ParseError, ResourceLimitError
from .limits import Limits, get_limits

# name -> arity for every connective the toolkit knows about
CONNECTIVE_ARITY = {
    "not": 1,
    "and": 2,
    "or": 2,
    "imp": 2,
    "iff": 2,
    "xor": 2,
    "xor3": 3,
    "true": 0,
    "false": 0,
}


class Basis:
    """A finite set of Boolean connectives, drawn from CONNECTIVE_ARITY."""

    __slots__ = ("names",)

    def __init__(self, names: Optional[Iterable[str]] = None):
        if names is None:
            names = CONNECTIVE_ARITY
        names = frozenset(names)
        if not names:
            raise ValueError("basis must be nonempty")
        unknown = names - CONNECTIVE_ARITY.keys()
        if unknown:
            raise ValueError(f"unknown connectives: {sorted(unknown)}")
        self.names = names

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __eq__(self, other) -> bool:
        return isinstance(other, Basis) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Basis({sorted(self.names)})"

    def arity(self, name: str) -> int:
        if name not in self.names:
            raise ValueError(f"connective {name!r} not in basis")
        return CONNECTIVE_ARITY[name]

    def max_arity(self) -> int:
        return max(CONNECTIVE_ARITY[n] for n in self.names)

    def with_negation(self) -> "Basis":
        """The same basis, guaranteed to contain ``not``.

        Structure builders materialize negated formulas even for bases without
        negation, so their assignment constraints must know its semantics.
        """
        return self if "not" in self.names else Basis(self.names | {"not"})


DEFAULT_BASIS = Basis()


class Formula:
    """Base class for formula nodes; subclasses are frozen dataclasses."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Const(Formula):
    value: bool


# Operator and belief nodes compute their hash once, at construction, instead
# of rehashing the whole subtree on every dict or set lookup.  The value is the
# one the dataclass would compute, ``hash(fields)``; ``__reduce__`` rebuilds
# through the constructor, so a pickled node rehashes in its new process.
# Both share ``_nodes_equal``, which walks with an explicit stack so that deep
# formulas compare without recursion.


def _nodes_equal(a: Formula, b: Formula) -> bool:
    """Structural equality: identity first, then a cached-hash mismatch
    rejects, then the children are compared pairwise."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.__class__ is not y.__class__:
            return False
        if x.__class__ is App:
            if x._hash != y._hash or x.op != y.op:
                return False
            stack.extend(zip(x.args, y.args))
        elif x.__class__ is Believes:
            if x._hash != y._hash:
                return False
            stack.append((x.arg, y.arg))
        elif x != y:
            return False
    return True


@dataclass(frozen=True, slots=True)
class App(Formula):
    op: str
    args: tuple[Formula, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arity = CONNECTIVE_ARITY.get(self.op)
        if arity is None:
            raise ValueError(f"unknown connective {self.op!r}")
        if arity != len(self.args):
            raise ValueError(f"{self.op} expects {arity} arguments, got {len(self.args)}")
        object.__setattr__(self, "_hash", hash((self.op, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not App:
            return NotImplemented
        return _nodes_equal(self, other)

    def __reduce__(self):
        return App, (self.op, self.args)


@dataclass(frozen=True, slots=True)
class Believes(Formula):
    arg: Formula
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.arg,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not Believes:
            return NotImplemented
        return _nodes_equal(self, other)

    def __reduce__(self):
        return Believes, (self.arg,)


TRUE = Const(True)
FALSE = Const(False)


def lnot(f: Formula) -> Formula:
    return App("not", (f,))


def land(a: Formula, b: Formula) -> Formula:
    return App("and", (a, b))


def lor(a: Formula, b: Formula) -> Formula:
    return App("or", (a, b))


def limp(a: Formula, b: Formula) -> Formula:
    return App("imp", (a, b))


def liff(a: Formula, b: Formula) -> Formula:
    return App("iff", (a, b))


def lxor(a: Formula, b: Formula) -> Formula:
    return App("xor", (a, b))


def lxor3(a: Formula, b: Formula, c: Formula) -> Formula:
    return App("xor3", (a, b, c))


# An atom is a variable (keyed by name) or a maximal belief subformula
# (keyed by the node itself).
AtomKey = Union[str, Believes]

_OP_FUNCS = {
    "not": lambda a: not a,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "imp": lambda a, b: (not a) or b,
    "iff": lambda a, b: a == b,
    "xor": lambda a, b: a != b,
    "xor3": lambda a, b, c: (a != b) != c,
    "true": lambda: True,
    "false": lambda: False,
}


def apply_connective(op: str, values: tuple[bool, ...]) -> bool:
    return _OP_FUNCS[op](*values)


def evaluate(f: Formula, assignment: Mapping[AtomKey, bool]) -> bool:
    """Truth value of ``f`` under a total assignment of its atoms.

    Belief subformulas are read atomically: ``assignment[node]`` for the whole
    ``L``-prefixed node, never descending into its argument.
    """
    if isinstance(f, Var):
        try:
            return assignment[f.name]
        except KeyError:
            raise ValueError(f"assignment is missing atom {f.name!r}") from None
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Believes):
        try:
            return assignment[f]
        except KeyError:
            raise ValueError(f"assignment is missing atom {format_formula(f)!r}") from None
    return _OP_FUNCS[f.op](*(evaluate(a, assignment) for a in f.args))


def atoms(f: Formula) -> list[AtomKey]:
    """Atoms of ``f`` in first-occurrence order: variable names and maximal
    belief subformulas (the walk does not descend through ``L``)."""
    seen: dict[AtomKey, None] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Var):
            seen.setdefault(node.name, None)
        elif isinstance(node, Believes):
            seen.setdefault(node, None)
        elif isinstance(node, App):
            for a in node.args:
                walk(a)

    walk(f)
    return list(seen)


def atom_label(key: AtomKey) -> str:
    return key if isinstance(key, str) else format_formula(key)


def atoms_of_set(formulas: Iterable[Formula]) -> list[AtomKey]:
    """Union of atoms over a set of formulas, sorted by printed label."""
    seen: dict[AtomKey, None] = {}
    for f in formulas:
        for a in atoms(f):
            seen.setdefault(a, None)
    return sorted(seen, key=atom_label)


def subformulae(f: Union[Formula, Iterable[Formula]]) -> list[Formula]:
    """All subtrees, deduplicated by structural equality, in post-order of
    first occurrence.  Accepts a single formula or an iterable."""
    roots = [f] if isinstance(f, Formula) else list(f)
    seen: dict[Formula, None] = {}

    def walk(node: Formula) -> None:
        if node in seen:
            return
        if isinstance(node, App):
            for a in node.args:
                walk(a)
        elif isinstance(node, Believes):
            walk(node.arg)
        seen[node] = None

    for root in roots:
        walk(root)
    return list(seen)


def believes_subformulae(f: Union[Formula, Iterable[Formula]]) -> list[Believes]:
    """Every ``L``-rooted subformula (including nested ones), in subformula order."""
    return [s for s in subformulae(f) if isinstance(s, Believes)]


def _assignments(keys: list[AtomKey]) -> Iterator[dict[AtomKey, bool]]:
    for bits in itertools.product((False, True), repeat=len(keys)):
        yield dict(zip(keys, bits))


def sat_bruteforce(
    gamma: Iterable[Formula], *, limits: Limits | None = None
) -> Optional[dict[AtomKey, bool]]:
    """First satisfying assignment of a formula set, or None.

    Enumerates all assignments over the union of atoms, sorted by label with
    False tried before True, so the returned witness is deterministic.
    """
    formulas = list(gamma)
    keys = atoms_of_set(formulas)
    cap = get_limits(limits).brute_atoms
    if len(keys) > cap:
        raise ResourceLimitError(
            f"truth-table enumeration over {len(keys)} atoms exceeds the cap of {cap}"
        )
    for assignment in _assignments(keys):
        if all(evaluate(f, assignment) for f in formulas):
            return assignment
    return None


def implies_bruteforce(
    f: Iterable[Formula], g: Iterable[Formula], *, limits: Limits | None = None
) -> bool:
    """True iff every assignment over the joint atoms satisfying all of ``f``
    satisfies all of ``g``."""
    premises = list(f)
    conclusions = list(g)
    keys = atoms_of_set(premises + conclusions)
    cap = get_limits(limits).brute_atoms
    if len(keys) > cap:
        raise ResourceLimitError(
            f"truth-table enumeration over {len(keys)} atoms exceeds the cap of {cap}"
        )
    for assignment in _assignments(keys):
        if all(evaluate(p, assignment) for p in premises):
            if not all(evaluate(c, assignment) for c in conclusions):
                return False
    return True


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Precedence levels, loosest first.  Implication is right-associative, the
# other binary connectives associate to the left.
_LEVEL = {"iff": 1, "imp": 2, "or": 3, "xor": 4, "and": 5}
_SYMBOL = {"iff": "<->", "imp": "->", "or": "|", "xor": "^", "and": "&"}
_UNARY_LEVEL = 6


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, parent_level: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        return "T" if f.value else "F"
    if isinstance(f, Believes):
        text = "L " + _fmt(f.arg, _UNARY_LEVEL)
        return text if parent_level <= _UNARY_LEVEL else f"({text})"
    if f.op == "not":
        text = "!" + _fmt(f.args[0], _UNARY_LEVEL)
        return text if parent_level <= _UNARY_LEVEL else f"({text})"
    if f.op == "xor3":
        inner = ", ".join(_fmt(a, 0) for a in f.args)
        return f"X3({inner})"
    level = _LEVEL[f.op]
    if f.op == "imp":
        left = _fmt(f.args[0], level + 1)
        right = _fmt(f.args[1], level)
    else:
        left = _fmt(f.args[0], level)
        right = _fmt(f.args[1], level + 1)
    text = f"{left} {_SYMBOL[f.op]} {right}"
    return text if parent_level < level + 1 else f"({text})"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<x3>X3)
  | (?P<true>T(?![a-zA-Z0-9_]))
  | (?P<false>F(?![a-zA-Z0-9_]))
  | (?P<bel>L(?![a-zA-Z0-9_]))
  | (?P<ident>[a-z][a-zA-Z0-9_]*)
  | (?P<punct>[!&|^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", position=pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, mode: str, basis: Basis):
        if mode not in ("prop", "ae"):
            raise ValueError(f"mode must be 'prop' or 'ae', got {mode!r}")
        self.tokens = _tokenize(text)
        self.mode = mode
        self.basis = basis
        self.i = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("syntax error at end of input")
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {value!r} at end of input")
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, got {tok[1]!r}", position=tok[2])
        self.i += 1

    def need(self, op: str, pos: int) -> str:
        if op not in self.basis:
            raise ParseError(f"connective {op!r} not in basis", position=pos)
        return op

    def parse(self) -> Formula:
        f = self.iff()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", position=tok[2])
        return f

    def iff(self) -> Formula:
        f = self.imp()
        while (tok := self.peek()) and tok[1] == "<->":
            self.next()
            self.need("iff", tok[2])
            f = App("iff", (f, self.imp()))
        return f

    def imp(self) -> Formula:
        parts = [self.disj()]
        positions = []
        while (tok := self.peek()) and tok[1] == "->":
            self.next()
            positions.append(tok[2])
            parts.append(self.disj())
        f = parts[-1]
        for part, pos in zip(reversed(parts[:-1]), reversed(positions)):
            self.need("imp", pos)
            f = App("imp", (part, f))
        return f

    def disj(self) -> Formula:
        f = self.xor()
        while (tok := self.peek()) and tok[1] == "|":
            self.next()
            self.need("or", tok[2])
            f = App("or", (f, self.xor()))
        return f

    def xor(self) -> Formula:
        f = self.conj()
        while (tok := self.peek()) and tok[1] == "^":
            self.next()
            self.need("xor", tok[2])
            f = App("xor", (f, self.conj()))
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while (tok := self.peek()) and tok[1] == "&":
            self.next()
            self.need("and", tok[2])
            f = App("and", (f, self.unary()))
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("syntax error at end of input")
        kind, value, pos = tok
        if value == "!":
            self.next()
            self.need("not", pos)
            return App("not", (self.unary(),))
        if kind == "bel":
            if self.mode != "ae":
                raise ParseError("belief operator 'L' is not allowed in prop mode", position=pos)
            self.next()
            return Believes(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "true":
            self.need("true", pos)
            return TRUE
        if kind == "false":
            self.need("false", pos)
            return FALSE
        if kind == "ident":
            return Var(value)
        if value == "(":
            f = self.iff()
            self.expect(")")
            return f
        if kind == "x3":
            self.need("xor3", pos)
            self.expect("(")
            a = self.iff()
            self.expect(",")
            b = self.iff()
            self.expect(",")
            c = self.iff()
            self.expect(")")
            return App("xor3", (a, b, c))
        raise ParseError(f"unexpected {value!r}", position=pos)


def parse_formula(text: str, mode: str = "prop", basis: Basis = DEFAULT_BASIS) -> Formula:
    """Parse a formula; ``mode='prop'`` rejects the belief operator ``L``."""
    return _Parser(text, mode, basis).parse()


def read_lines(
    text: str, parse_line: Callable[[str, str], object], heads: tuple[str, ...] = ()
) -> dict[str, list]:
    """Read a line format (.fs, .imp, .dt, .ae): ``#`` starts a comment and
    blank lines are skipped.  With ``heads``, every line starts with one of
    them and a colon.  Returns ``parse_line(head, rest)`` of each line,
    grouped by head in file order (the single group ``""`` without heads).
    A ParseError gets the number of the line it came from."""
    groups: dict[str, list] = {head: [] for head in heads or ("",)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, rest = "", line
            if heads:
                head, sep, rest = line.partition(":")
                head = head.strip()
                if not sep or head not in heads:
                    expected = " or ".join(f"'{h}:'" for h in heads)
                    raise ParseError(f"expected {expected} line, got {line!r}")
            groups[head].append(parse_line(head, rest))
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return groups


def join_lines(lines: Iterable[str]) -> str:
    """The text of a line format: every line ends in a newline."""
    return "".join(line + "\n" for line in lines)


def parse_formula_set(text: str, basis: Basis = DEFAULT_BASIS) -> list[Formula]:
    """Parse the .fs format: one propositional formula per line."""
    return read_lines(text, lambda _, line: parse_formula(line, "prop", basis))[""]


def format_formula_set(formulas: Iterable[Formula]) -> str:
    return join_lines(format_formula(f) for f in formulas)


def parse_implication(
    text: str, basis: Basis = DEFAULT_BASIS
) -> tuple[list[Formula], list[Formula]]:
    """Parse the .imp format: ``p: <formula>`` premise and ``c: <formula>``
    conclusion lines."""
    groups = read_lines(text, lambda _, rest: parse_formula(rest, "prop", basis), ("p", "c"))
    return groups["p"], groups["c"]


def format_implication(premises: Iterable[Formula], conclusions: Iterable[Formula]) -> str:
    return join_lines(
        [f"p: {format_formula(f)}" for f in premises]
        + [f"c: {format_formula(f)}" for f in conclusions]
    )


def is_propositional(f: Formula) -> bool:
    if isinstance(f, Believes):
        return False
    if isinstance(f, App):
        return all(is_propositional(a) for a in f.args)
    return True


def check_basis(f: Formula, basis: Basis) -> None:
    """Raise ValueError if ``f`` uses a connective outside ``basis``."""
    if isinstance(f, Const):
        name = "true" if f.value else "false"
        if name not in basis:
            raise ValueError(f"connective {name!r} not in basis")
    elif isinstance(f, App):
        if f.op not in basis:
            raise ValueError(f"connective {f.op!r} not in basis")
        for a in f.args:
            check_basis(a, basis)
    elif isinstance(f, Believes):
        check_basis(f.arg, basis)
