"""Relational structures over formula inputs, and their Gaifman graphs.

Each builder turns a logical input (a formula set, an implication instance, a
default theory, an autoepistemic theory) into a finite structure whose
universe is the deduplicated set of subformulas (plus one element per default
rule).  Elements are numbered 1..n in post-order of first occurrence, so every
construction is reproducible.

PACE syntax (``.gr`` here, ``.td`` in ``treewidth``) is read by ``_read_pace``,
and the ``.labels`` sidecar by ``formula.read_lines``.
"""
from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .errors import ParseError, parse_ints
from .formula import (
    App,
    Basis,
    Believes,
    Const,
    Formula,
    Var,
    check_basis,
    format_formula,
    is_propositional,
    join_lines,
    lnot,
    number_subterms,
    read_lines,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from .dl import DefaultTheory


def conn_rel(op: str, i: int) -> str:
    """Relation name for 'x is the i-th argument of op at the root of y'."""
    return f"conn_{op}_{i}"


def const_rel(op: str) -> str:
    return f"const_{op}"


# relation marking the argument of a belief prefix; the prefix itself stays an
# opaque atom for assignment constraints, which never mention this relation
CONN_BELIEF = "conn_L_1"


@dataclass
class RelationalStructure:
    """A finite universe 1..n with named relations.

    ``formula_elements`` maps every subformula to its element id;
    ``default_elements`` lists the rule elements in rule order.  Elements
    carry no text: ``element_descriptions`` prints it when it is written
    out.  Instances are treated as immutable once built.
    """

    universe: tuple[int, ...]
    relations: dict[str, frozenset] = field(default_factory=dict)
    formula_elements: dict[Formula, int] = field(default_factory=dict)
    default_elements: tuple[int, ...] = ()

    def tuples(self, name: str) -> frozenset:
        """Tuples of a relation; missing names read as the empty relation."""
        return self.relations.get(name, frozenset())


class _Builder:
    def __init__(self, mark_vars: bool = True):
        self.mark_vars = mark_vars
        self.ids: dict[Formula, int] = {}
        self.rels: dict[str, set[tuple[int, ...]]] = {}

    def add(self, name: str, *elements: int) -> None:
        self.rels.setdefault(name, set()).add(tuple(elements))

    def intern(self, formulas: Iterable[Formula]) -> None:
        """Assign ids to all subformulas (post-order, first occurrence) and
        record the structural relations of each new element."""
        start = len(self.ids)
        number_subterms(formulas, ids=self.ids)
        for sub, eid in itertools.islice(self.ids.items(), start, None):
            if isinstance(sub, Var):
                if self.mark_vars:
                    self.add("var", eid)
            elif isinstance(sub, Const):
                self.add(const_rel("true" if sub.value else "false"), eid)
            elif isinstance(sub, App):
                for i, arg in enumerate(sub.args, start=1):
                    self.add(conn_rel(sub.op, i), self.ids[arg], eid)
            elif isinstance(sub, Believes):
                self.add("L", eid)
                self.add(CONN_BELIEF, self.ids[sub.arg], eid)

    def finish(self, default_elements: tuple[int, ...] = ()) -> RelationalStructure:
        n = len(self.ids) + len(default_elements)
        return RelationalStructure(
            universe=tuple(range(1, n + 1)),
            relations={name: frozenset(tups) for name, tups in self.rels.items()},
            formula_elements=dict(self.ids),
            default_elements=default_elements,
        )


def _require_prop(formulas: Iterable[Formula], basis: Basis) -> list[Formula]:
    out = []
    for f in formulas:
        if not is_propositional(f):
            raise ValueError(f"belief operator not allowed here: {format_formula(f)}")
        check_basis(f, basis)
        out.append(f)
    return out


def build_prop_structure(gamma: Iterable[Formula], basis: Basis = None) -> RelationalStructure:
    """Structure of a propositional formula set: universe = subformulas,
    ``var``/``const``/``conn`` structural relations, ``repr`` marking the
    top-level formulas.  Shared subformulas become a single element."""
    basis = basis or Basis()
    formulas = _require_prop(gamma, basis)
    b = _Builder()
    b.intern(formulas)
    for f in formulas:
        b.add("repr", b.ids[f])
    return b.finish()


def build_imp_structure(
    f: Iterable[Formula], g: Iterable[Formula], basis: Basis = None
) -> RelationalStructure:
    """Structure of an implication instance: ``reprPrem`` marks premise roots,
    ``reprConc`` conclusion roots, ``repr`` both."""
    basis = basis or Basis()
    premises = _require_prop(f, basis)
    conclusions = _require_prop(g, basis)
    b = _Builder()
    b.intern(premises + conclusions)
    for p in premises:
        b.add("reprPrem", b.ids[p])
        b.add("repr", b.ids[p])
    for c in conclusions:
        b.add("reprConc", b.ids[c])
        b.add("repr", b.ids[c])
    return b.finish()


def build_dl_structure(theory: "DefaultTheory", basis: Basis = None) -> RelationalStructure:
    """Structure of a default theory: subformulas of the knowledge base, of
    every rule part, and of every negated justification, plus one fresh
    element per rule linked through ``prem``/``just``/``concl``.

    ``repr`` marks every top-level formula (knowledge base, rule parts,
    negated justifications); ``kb`` marks the knowledge base only.  Negated
    justifications are materialized with ``not`` even when the basis lacks it.
    """
    basis = basis or Basis()
    kb = _require_prop(theory.knowledge, basis)
    parts: list[Formula] = []
    neg_justs: list[Formula] = []
    for rule in theory.defaults:
        _require_prop((rule.prerequisite, rule.justification, rule.conclusion), basis)
        parts.extend((rule.prerequisite, rule.justification, rule.conclusion))
        neg_justs.append(lnot(rule.justification))
    b = _Builder()
    b.intern(kb + parts + neg_justs)
    for f in kb:
        b.add("kb", b.ids[f])
    for f in kb + parts + neg_justs:
        b.add("repr", b.ids[f])
    default_ids = []
    for k, rule in enumerate(theory.defaults, start=1):
        did = len(b.ids) + k
        default_ids.append(did)
        b.add("default", did)
        b.add("prem", b.ids[rule.prerequisite], did)
        b.add("just", b.ids[rule.justification], did)
        b.add("concl", b.ids[rule.conclusion], did)
    return b.finish(tuple(default_ids))


def build_ael_structure(sigma: Iterable[Formula], basis: Basis = None) -> RelationalStructure:
    """Structure of an autoepistemic theory: subformulas of the theory plus
    the negation of every belief atom.  ``L`` marks belief atoms, ``repr``
    the theory's formulas; each belief atom is linked to its argument, which
    assignment constraints ignore (belief atoms stay opaque)."""
    basis = basis or Basis()
    formulas = []
    for f in sigma:
        check_basis(f, basis)
        formulas.append(f)
    b = _Builder(mark_vars=False)  # an autoepistemic structure has no var relation
    b.intern(formulas)
    believes = [s for s in list(b.ids) if isinstance(s, Believes)]
    b.intern([lnot(bel) for bel in believes])
    for f in formulas:
        b.add("repr", b.ids[f])
    return b.finish()


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n with optional vertex labels
    (``main``/``edge``/``none``) and descriptions.  Each edge must be a pair
    (u, v) of vertices in 1..n with u < v, and each labelled vertex lie in
    1..n; a ValueError says which does not.  ``checked=False`` skips that
    check, for a builder whose edges are such pairs by construction
    (``primal_graph``)."""

    n: int
    edges: frozenset[tuple[int, int]]
    labels: Optional[dict[int, str]] = None
    descriptions: Optional[dict[int, str]] = None
    checked: InitVar[bool] = True

    def __post_init__(self, checked: bool):
        if not checked:
            return
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) outside 1..{self.n}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized (expect u < v)")
        for texts in (self.labels, self.descriptions):
            for v in texts or ():
                if not 1 <= v <= self.n:
                    raise ValueError(f"label for vertex {v} outside 1..{self.n}")

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def adjacency(self) -> dict[int, set[int]]:
        return adjacency_sets(self.vertices, self.edges)


def adjacency_sets(
    vertices: Iterable[int], edges: Iterable[tuple[int, int]]
) -> dict[int, set[int]]:
    """Neighbor sets of ``vertices`` under the undirected ``edges``."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def make_graph(n: int, edges: Iterable[tuple[int, int]], labels=None, descriptions=None) -> Graph:
    norm = frozenset((min(u, v), max(u, v)) for u, v in edges if u != v)
    return Graph(n, norm, labels, descriptions)


def primal_graph(n: int, scopes: Iterable[tuple[int, ...]]) -> Graph:
    """The graph on 1..n with a clique over each scope's distinct vertices:
    the Gaifman graph of a structure, or the constraint graph of the
    treewidth DP.  Every scope must lie in 1..n.  A scope of two vertices,
    most of them, adds its ordered pair at once; a wider one adds the
    pairs of its sorted distinct vertices.  Either way each edge is already
    normalised (u < v), so ``Graph`` does not check them again."""
    edges: set[tuple[int, int]] = set()
    add = edges.add
    for scope in scopes:
        if len(scope) == 2:
            u, v = scope
            if u != v:
                add((u, v) if u < v else (v, u))
        else:
            edges.update(itertools.combinations(sorted(set(scope)), 2))
    return Graph(n, frozenset(edges), checked=False)


def gaifman_graph(s: RelationalStructure) -> Graph:
    """One vertex per universe element; an edge between every pair of elements
    co-occurring in some relation tuple (a one-element tuple has no pair)."""
    scopes = (t for tups in s.relations.values() for t in tups if len(t) > 1)
    return primal_graph(len(s.universe), scopes)


def element_descriptions(s: RelationalStructure) -> dict[int, str]:
    """Each element's printed formula, or ``d<k>`` for the k-th rule."""
    texts = {eid: format_formula(f) for f, eid in s.formula_elements.items()}
    texts.update((did, f"d{k}") for k, did in enumerate(s.default_elements, start=1))
    return texts


# ---------------------------------------------------------------------------
# PACE-style graph I/O
# ---------------------------------------------------------------------------


def emit_gr(g: Graph) -> str:
    """Canonical .gr text: header then edges sorted ascending, 1-indexed."""
    lines = [f"p tw {g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return join_lines(lines)


def _read_pace(
    text: str, header: str, width: int, counted: int, noun: str, body: Callable
) -> tuple[list[int], int]:
    """The one reader of PACE header syntax (Dell et al., IPEC 2016), for .gr
    and .td: it skips blank and ``c`` lines, requires one ``header`` line of
    ``width`` integers before every other line, passes each other line to
    ``body(line, *values)``, which says whether it is a ``noun`` line, and
    requires ``values[counted]`` of those.  Returns the header's integers
    and line number; a ParseError gets the number of the line it came from."""
    start = header.split()
    values = None
    found = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            parts = line.split()
            if parts[0] == start[0]:
                if parts[:2] != start or len(parts) != 2 + width:
                    raise ParseError(f"malformed header: {line!r}")
                if values is not None:
                    raise ParseError("duplicate header")
                values, at = parse_ints(parts[2:]), lineno
            elif values is None:
                raise ParseError(f"line before the '{header}' header: {line!r}")
            elif body(line, *values):
                found += 1
                if found > values[counted]:
                    raise ParseError(f"more {noun} lines than the header's {values[counted]}")
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if values is None:
        raise ParseError(f"missing '{header}' header")
    if found != values[counted]:
        raise ParseError(f"the header says {values[counted]} {noun}s, the file has {found}", line=at)
    return values, at


def parse_gr(text: str) -> Graph:
    """Parse .gr text: distinct edges between distinct vertices in 1..n, as
    many as the header says."""
    edges: set[tuple[int, int]] = set()

    def edge_line(line: str, n: int, m: int) -> bool:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"malformed edge line: {line!r}")
        u, v = parse_ints(parts)
        if u == v or not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"edge {u} {v} is a self-loop or leaves 1..{n}")
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise ParseError(f"repeated edge {u} {v}")
        edges.add(edge)
        return True

    (n, _), _ = _read_pace(text, "p tw", 2, 1, "edge", edge_line)
    return Graph(n, frozenset(edges))


def emit_labels(g: Graph) -> str:
    """Sidecar vertex labels: ``<id> <main|edge|none> <description>``."""
    labels = g.labels or {}
    descriptions = g.descriptions or {}
    return join_lines(
        f"{v} {labels.get(v, 'none')} {descriptions.get(v, '-')}" for v in g.vertices
    )


def parse_labels(text: str) -> tuple[dict[int, str], dict[int, str]]:
    """Parse .labels text, a line format read by ``formula.read_lines``."""
    labels: dict[int, str] = {}
    descriptions: dict[int, str] = {}

    def label_line(_, line: str) -> None:
        parts = line.split(maxsplit=2)
        if len(parts) < 2 or parts[1] not in ("main", "edge", "none"):
            raise ParseError(f"malformed label line: {line!r}")
        v = parse_ints(parts[:1])[0]
        if v < 1 or v in labels:
            why = "is repeated" if v > 0 else "is not positive"
            raise ParseError(f"vertex {v} {why}")
        labels[v] = parts[1]
        descriptions[v] = parts[2] if len(parts) == 3 else "-"

    read_lines(text, label_line)
    return labels, descriptions
