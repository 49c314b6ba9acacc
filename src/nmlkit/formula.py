"""Propositional and autoepistemic formulas.

Formulas are immutable trees over a configurable basis of Boolean connectives.
Belief prefixes (``L``) are first-class nodes that behave as opaque atoms for
evaluation and entailment.  The module also provides the exhaustive
truth-table oracles that everything else in the toolkit is cross-checked
against.

Formula nodes and the MSO nodes of ``mso`` share one base class, ``Node``,
and one interning routine, ``_make``, over one table of live nodes,
``_LIVE``: each constructor returns the live node with its kind and fields
when there is one, so equal nodes are one object and ``==`` is ``is``.  A
node's fields are fixed once it is made, and a copy or an unpickled node is
the live node.  So a node hashes by identity, as ``object`` does (Filliâtre
and Conchon, hash-consing, 2006), and a set of nodes iterates in an order
that changes from run to run: every order the toolkit builds on is read
from a list or an insertion-ordered dict.

Every pass over the subterm set goes through one explicit-stack walk,
``number_subterms``: subformulas, atoms, the propositional and basis checks,
the DP's constraint graph and the structure builders' element ids.  The
parser is one loop over a token list that ends in a sentinel, and keeps the
groups it has open, ``(`` and ``X3(``, on its own stack.  Two parts still
recurse, one frame per level of the formula: ``evaluate``, the truth-table
reference, because a fold over the walk made ``sat_bruteforce`` 25-120 %
slower; and ``_fmt``, the printer, because element labels print every
subformula whole, so an iterative printer would turn a too-wide input from a
quick resource-limit exit into minutes of printing.
"""
from __future__ import annotations

import itertools
import re
import weakref
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import ParseError
from .limits import Limits, check

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


class Node:
    """Base class of the interned syntax nodes, formula nodes here and the
    MSO nodes of ``mso``.  A node class names its fields in ``_fields`` and
    in ``__slots__``.  ``_make`` builds a node and enters it in ``_LIVE``;
    after that its fields cannot be set or deleted.  Equal nodes are one
    object, so ``==`` and ``hash`` are the inherited identity ones, and
    neither walks the tree.  ``__reduce__`` rebuilds through the
    constructor, so a copy or an unpickled node is the live node."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


# The live nodes: a Var keyed on its name, a Const on its value, a Believes on
# its argument, an App on ``(op, args)`` and an MSO node on ``(class,
# *fields)``.  Keys of different kinds never compare equal, and children
# compare by identity, so one table serves every kind.  It holds its nodes
# weakly: a node no formula uses leaves it.
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _make(cls: type, key: object, values: tuple) -> Node:
    """A new node of ``cls`` with field ``values``, entered in the table
    under ``key``."""
    node = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(node, name, value)
    _LIVE[key] = node
    return node


class Formula(Node):
    """Base class for formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


class Var(Formula):
    __slots__ = _fields = ("name",)  # str

    def __new__(cls, name: str) -> Var:
        return _LIVE.get(name) or _make(cls, name, (name,))


class Const(Formula):
    __slots__ = _fields = ("value",)  # bool

    def __new__(cls, value: bool) -> Const:
        return _LIVE.get(value) or _make(cls, value, (value,))


class App(Formula):
    __slots__ = _fields = ("op", "args")  # str, tuple[Formula, ...]

    def __new__(cls, op: str, args: tuple[Formula, ...]) -> App:
        key = (op, args)
        node = _LIVE.get(key)
        if node is None:
            arity = CONNECTIVE_ARITY.get(op)
            if arity is None:
                raise ValueError(f"unknown connective {op!r}")
            if arity != len(args):
                raise ValueError(f"{op} expects {arity} arguments, got {len(args)}")
            node = _make(cls, key, key)
        return node


class Believes(Formula):
    __slots__ = _fields = ("arg",)  # Formula

    def __new__(cls, arg: Formula) -> Believes:
        return _LIVE.get(arg) or _make(cls, arg, (arg,))


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


def number_subterms(
    roots: Iterable[Formula],
    *,
    beliefs: bool = True,
    ids: Optional[dict[Formula, int]] = None,
) -> dict[Formula, int]:
    """The subterm walk.  Numbers every distinct subterm of ``roots`` once,
    children before parents, in order of first occurrence, counting on from
    ``len(ids)``; returns ``ids`` (a new dict when None) with the new subterms
    added.  A subterm already in ``ids`` is not entered, so ``ids`` must hold
    the subterms of what it holds.  With ``beliefs=False`` an ``L`` node is a
    leaf: the walk does not descend into its argument."""
    seen: dict[Formula, int] = {} if ids is None else ids
    for root in roots:
        stack: list[tuple[Formula, bool]] = [(root, False)]
        while stack:
            f, expanded = stack.pop()
            if not expanded:
                if f in seen:
                    continue
                if f.__class__ is App:
                    kids = f.args
                elif f.__class__ is Believes and beliefs:
                    kids = (f.arg,)
                else:
                    kids = ()
                if kids:
                    stack.append((f, True))
                    stack.extend([(a, False) for a in reversed(kids)])
                    continue
            seen[f] = len(seen) + 1
    return seen


def _atom_keys(subterms: Iterable[Formula]) -> list[AtomKey]:
    return [
        s.name if isinstance(s, Var) else s
        for s in subterms
        if isinstance(s, (Var, Believes))
    ]


def atoms(f: Formula) -> list[AtomKey]:
    """Atoms of ``f`` in first-occurrence order: variable names and maximal
    belief subformulas (the walk does not descend through ``L``)."""
    return _atom_keys(number_subterms([f], beliefs=False))


def atom_label(key: AtomKey) -> str:
    return key if isinstance(key, str) else format_formula(key)


def atoms_of_set(formulas: Iterable[Formula]) -> list[AtomKey]:
    """Union of atoms over a set of formulas, sorted by printed label."""
    return sorted(_atom_keys(number_subterms(formulas, beliefs=False)), key=atom_label)


def subformulae(f: Union[Formula, Iterable[Formula]]) -> list[Formula]:
    """All subtrees, deduplicated by structural equality, in post-order of
    first occurrence.  Accepts a single formula or an iterable."""
    return list(number_subterms([f] if isinstance(f, Formula) else f))


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
    check(limits, "brute_atoms", len(keys), "truth-table enumeration: atom count")
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
    check(limits, "brute_atoms", len(keys), "truth-table enumeration: atom count")
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
_OP_OF_SYMBOL = {symbol: op for op, symbol in _SYMBOL.items()}


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
    """The tokens of ``text``, ``(kind, text, position)``, without whitespace
    and comments, ending in the sentinel ``("end", "", len(text))``."""
    tokens = []
    match = _TOKEN_RE.match
    pos, n = 0, len(text)
    while pos < n:
        m = match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", position=pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


def _expected(token: tuple[str, str, int], value: str) -> ParseError:
    kind, text, pos = token
    if kind == "end":
        return ParseError(f"expected {value!r} at end of input")
    return ParseError(f"expected {value!r}, got {text!r}", position=pos)


def _not_in_basis(op: str, pos: int) -> ParseError:
    return ParseError(f"connective {op!r} not in basis", position=pos)


def parse_formula(text: str, mode: str = "prop", basis: Basis = DEFAULT_BASIS) -> Formula:
    """Parse a formula; ``mode='prop'`` rejects the belief operator ``L``.

    One loop over the token list, with the open groups, ``(`` and ``X3(``,
    on its own stack.  An operand is a run of ``!`` and ``L`` prefixes, then
    an atom or a group; binary connectives are read by precedence climbing
    over the printer's ``_LEVEL`` table, with an operator stack per group:
    implication groups to the right, the others to the left.  The whole
    text is tokenized first, so an unknown character is raised before any
    other problem; every other check is made as its token is read, so of
    several problems the leftmost is raised."""
    if mode not in ("prop", "ae"):
        raise ValueError(f"mode must be 'prop' or 'ae', got {mode!r}")
    tokens = _tokenize(text)
    names = basis.names
    # enclosing groups: (operands, pending, prefixes, args), where args is
    # None for ``(`` and the arguments read so far for ``X3(``
    groups: list[tuple] = []
    operands: list[Formula] = []  # left operands of the pending operators
    pending: list[str] = []  # operators still waiting for their right operand
    i = 0
    while True:
        kind, value, pos = tokens[i]
        i += 1
        prefixes = []  # of the operand being read: True for ``!``, False for ``L``
        while value == "!" or kind == "bel":
            if value == "!":
                if "not" not in names:
                    raise _not_in_basis("not", pos)
            elif mode != "ae":
                raise ParseError("belief operator 'L' is not allowed in prop mode", position=pos)
            prefixes.append(value == "!")
            kind, value, pos = tokens[i]
            i += 1
        if kind == "ident":
            f = Var(value)
        elif value == "(" or kind == "x3":
            args = None
            if kind == "x3":
                if "xor3" not in names:
                    raise _not_in_basis("xor3", pos)
                if tokens[i][1] != "(":
                    raise _expected(tokens[i], "(")
                i += 1
                args = []
            groups.append((operands, pending, prefixes, args))
            operands, pending = [], []
            continue
        elif kind == "true" or kind == "false":
            if kind not in names:
                raise _not_in_basis(kind, pos)
            f = TRUE if kind == "true" else FALSE
        elif kind == "end":
            raise ParseError("syntax error at end of input")
        else:
            raise ParseError(f"unexpected {value!r}", position=pos)
        # f is an operand without its prefixes; a binary connective after it
        # opens the next operand, anything else ends the innermost group
        while True:
            for negation in reversed(prefixes):
                f = App("not", (f,)) if negation else Believes(f)
            kind, value, pos = tokens[i]
            op = _OP_OF_SYMBOL.get(value)
            if op is not None:
                if op not in names:
                    raise _not_in_basis(op, pos)
                i += 1
                # pending operators that bind tighter are applied first, and
                # so are those of the same level unless it is right-grouped ``->``
                bind = _LEVEL[op] + (op == "imp")
                while pending and _LEVEL[pending[-1]] >= bind:
                    f = App(pending.pop(), (operands.pop(), f))
                operands.append(f)
                pending.append(op)
                break
            while pending:
                f = App(pending.pop(), (operands.pop(), f))
            if not groups:
                if kind != "end":
                    raise ParseError(f"unexpected {value!r}", position=pos)
                return f
            operands, pending, prefixes, args = groups.pop()
            if args is not None:
                args.append(f)
                if len(args) < 3:
                    if value != ",":
                        raise _expected(tokens[i], ",")
                    i += 1
                    groups.append((operands, pending, prefixes, args))
                    operands, pending = [], []
                    break
                f = App("xor3", tuple(args))
            if value != ")":
                raise _expected(tokens[i], ")")
            i += 1


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
    return not any(isinstance(s, Believes) for s in number_subterms([f], beliefs=False))


def check_basis(f: Formula, basis: Basis) -> None:
    """Raise ValueError if ``f`` uses a connective outside ``basis``; of
    several, the one whose subterm the walk numbers first is named."""
    for s in number_subterms([f]):
        if isinstance(s, App):
            name = s.op
        elif isinstance(s, Const):
            name = "true" if s.value else "false"
        else:
            continue
        if name not in basis:
            raise ValueError(f"connective {name!r} not in basis")
