"""Dynamic programming over nice tree decompositions for satisfiability and
implication, plus the pluggable entailment oracle used by the default-logic
and autoepistemic solvers.

The DP runs on the *constraint graph* of a formula set: one vertex per
distinct subterm, with a clique over every operator node and its arguments.
Each clique carries the local truth-functional constraint, so it sits inside
some bag of any valid decomposition and can be checked at a single introduce
node.  Belief subformulas are opaque leaves: the subterm walk stops at ``L``,
so what occurs only under it gets no vertex.

A formula set is compiled once (``compile_set``): its constraint graph, one
min-fill decomposition, the nice form and the plan.  A query over it only
*pins units*: a formula ``f`` pins its vertex to true, a negation ``!g``
without a vertex of its own pins ``g``'s vertex to false, and contradictory
pins answer unsat at once.  This is sound for any query over the compiled
set, however little of it the query mentions: every operator vertex is a
function of its children, variables and ``L`` atoms are free leaves, and
constants are pinned, so every assignment of the leaves extends to exactly
one labeling that meets all local constraints, and the labelings that meet
the pins are exactly the models of the query.  The entailment oracle
compiles a theory's *universe* once (``EntailmentOracle.compile_universe``)
and answers each of its queries by pinning units; ``dp_sat`` on its own
compiles its set and pins the set's formulas the same way.  A query with a
formula outside the universe, or a universe wider than ``Limits.dp_width``,
is compiled on its own.

Before the DP runs, every local constraint is compiled at its introduce node
into a table over bag positions, ``(scope_mask, allowed)``: a labeling ``m``
of the bag (bit i = the i-th smallest vertex) satisfies it iff
``m & scope_mask`` is in ``allowed``.  The DP then walks the nice nodes in id
order, children first, with one set of bitmasks per pending node (the
dynamic-programming scheme of Gottlob, Pichler and Wei, AIJ 2010).  A pinned
vertex takes only its pinned bit at each of its introduce nodes.
"""
from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import ResourceLimitError
from .formula import (
    CONNECTIVE_ARITY,
    App,
    Const,
    Formula,
    apply_connective,
    lnot,
    number_subterms,
    sat_bruteforce,
)
from .limits import Limits, get_limits
from .structures import Graph, make_graph
from .treewidth import (
    NiceTreeDecomposition,
    TreeDecomposition,
    heuristic_decomposition,
    make_nice,
    width,
)

# ("op", vertex, connective, child vertices), or ("unit", vertex, value) for a constant
Constraint = Union[tuple[str, int, str, tuple[int, ...]], tuple[str, int, bool]]


@dataclass(frozen=True)
class ConstraintGraph:
    graph: Graph
    constraints: tuple[Constraint, ...]
    vertex_of: dict[Formula, int]


def build_constraint_graph(gamma: Iterable[Formula]) -> ConstraintGraph:
    """Subterm graph of a formula set with local constraints: operator nodes
    are pinned to their connective's truth table and constants to their
    value.  The set's own formulas are not pinned here; a query pins them
    (``dp_sat``).  Vertices are numbered in post-order of first occurrence;
    the walk stops at ``L`` nodes, which are opaque atoms, so a subterm that
    occurs only under ``L`` gets no vertex."""
    vertex_of = number_subterms(gamma, beliefs=False)
    edges: set[tuple[int, int]] = set()
    constraints: list[Constraint] = []
    for f, v in vertex_of.items():
        if isinstance(f, App):
            kids = tuple(vertex_of[a] for a in f.args)
            constraints.append(("op", v, f.op, kids))
            scope = sorted({v, *kids})
            for i, a in enumerate(scope):
                for b in scope[i + 1:]:
                    edges.add((a, b))
        elif isinstance(f, Const):
            constraints.append(("unit", v, f.value))
    graph = make_graph(len(vertex_of), edges)
    return ConstraintGraph(graph, tuple(constraints), vertex_of)


# rule -> allowed rows: for a connective, every row (output, *inputs) of its
# truth table; for a constant's unit constraint (True or False), its one value
_ROWS: dict[Union[str, bool], tuple[tuple[int, ...], ...]] = {
    op: tuple(
        (int(apply_connective(op, ins)), *map(int, ins))
        for ins in itertools.product((False, True), repeat=arity)
    )
    for op, arity in CONNECTIVE_ARITY.items()
}
_ROWS[True] = ((1,),)
_ROWS[False] = ((0,),)


@functools.lru_cache(maxsize=4096)
def _compile(rule: Union[str, bool], positions: tuple[int, ...]) -> tuple[int, frozenset[int]]:
    """A local constraint as ``(scope_mask, allowed)`` over bag positions: a
    labeling ``m`` of the bag satisfies it iff ``m & scope_mask in allowed``.
    ``rule`` is the constraint's connective or unit value, and its scope's
    vertices sit at ``positions``.  A vertex that repeats in the scope
    (``p & p``) has one position, and rows that give it two values are
    dropped."""
    bits = [1 << p for p in positions]
    allowed = set()
    for row in _ROWS[rule]:
        m = 0
        for bit, value in zip(bits, row):
            if value:
                m |= bit
        if all(bool(m & bit) == value for bit, value in zip(bits, row)):
            allowed.add(m)
    scope_mask = 0
    for bit in bits:
        scope_mask |= bit
    return scope_mask, frozenset(allowed)


Step = tuple[int, tuple[tuple[int, frozenset[int]], ...]]


@dataclass(frozen=True)
class CompiledSet:
    """A formula set ready for queries: its constraint graph, the width of
    its decomposition, the nice form and the DP plan over it."""

    cg: ConstraintGraph
    width: int
    nice: NiceTreeDecomposition
    steps: list[Step]


def compile_set(
    gamma: Iterable[Formula],
    td: Optional[TreeDecomposition] = None,
    *,
    limits: Limits | None = None,
) -> CompiledSet:
    """Constraint graph, decomposition (``td``, or min-fill when None), nice
    form and plan of a formula set.  Raises ``ResourceLimitError`` when the
    decomposition is wider than ``Limits.dp_width``."""
    cg = build_constraint_graph(gamma)
    if td is None:
        td = heuristic_decomposition(cg.graph, "min_fill")
    cap = get_limits(limits).dp_width
    w = width(td)
    if w > cap:
        raise ResourceLimitError(f"decomposition width {w} exceeds the DP cap of {cap}")
    nice = make_nice(td)
    return CompiledSet(cg, w, nice, _plan(cg, nice))


def _units(
    vertex_of: dict[Formula, int], gamma: Iterable[Formula]
) -> Optional[list[tuple[int, bool]]]:
    """The pins ``(vertex, value)`` that make every formula of ``gamma``
    true: a formula with a vertex pins it to true, and a negation without
    one pins its argument to the opposite value (through any number of
    negations).  None when some formula has no vertex either way."""
    units = []
    for f in gamma:
        value = True
        while f not in vertex_of:
            if f.__class__ is not App or f.op != "not":
                return None
            f, value = f.args[0], not value
        units.append((vertex_of[f], value))
    return units


def dp_sat(
    gamma: Iterable[Formula],
    td: Optional[TreeDecomposition] = None,
    *,
    limits: Limits | None = None,
    universe: Optional[CompiledSet] = None,
) -> bool:
    """Satisfiability of a formula set by DP over a nice decomposition.
    With ``universe``, a compiled set whose vertices cover every formula of
    ``gamma`` or its negation, the formulas are pinned as units on it;
    otherwise ``gamma`` is compiled on its own (over ``td`` when given) and
    its formulas pinned on that."""
    gamma = tuple(gamma)
    compiled = universe
    units = None if compiled is None else _units(compiled.cg.vertex_of, gamma)
    if units is None:
        compiled = compile_set(gamma, td, limits=limits)
        units = _units(compiled.cg.vertex_of, gamma)
    return _run_dp(compiled, units)


_NO_STEP = (0, ())


def _plan(cg: ConstraintGraph, nice: NiceTreeDecomposition) -> list[Step]:
    """One step per nice node, in id order (children first): the bit position
    of its introduced or forgotten vertex, and, at an introduce node, the
    compiled constraints it checks.  Each constraint goes to the first
    introduce node of one of its vertices whose bag covers its scope.  A
    labeling's bit i is the i-th smallest vertex of the bag."""
    by_vertex: dict[int, list[int]] = {}
    scopes: list[tuple[int, ...]] = []
    for ci, c in enumerate(cg.constraints):
        scope = (c[1], *c[3]) if c[0] == "op" else (c[1],)
        scopes.append(scope)
        for v in set(scope):
            by_vertex.setdefault(v, []).append(ci)

    done = [False] * len(cg.constraints)
    placed = 0
    order: dict[int, tuple[int, ...]] = {}  # sorted bag of nodes whose parent is pending
    steps: list[Step] = []
    kinds, children, bags = nice.kinds, nice.children, nice.bags
    for node in range(1, len(bags) + 1):
        kind, v = kinds[node]
        kids = children[node]
        if kind == "leaf":
            order[node] = ()
            steps.append(_NO_STEP)
            continue
        below = order.pop(kids[0])
        if kind == "join":
            del order[kids[1]]
            order[node] = below
            steps.append(_NO_STEP)
            continue
        if kind == "forget":
            pos = below.index(v)
            order[node] = below[:pos] + below[pos + 1:]
            steps.append((pos, ()))
            continue
        pos = bisect.bisect(below, v)
        here = order[node] = below[:pos] + (v,) + below[pos:]
        checks = []
        bag = bags[node]
        pos_of = None
        for ci in by_vertex.get(v, ()):
            if not done[ci] and bag.issuperset(scopes[ci]):
                if pos_of is None:
                    pos_of = {u: i for i, u in enumerate(here)}
                positions = tuple(map(pos_of.__getitem__, scopes[ci]))
                checks.append(_compile(cg.constraints[ci][2], positions))
                done[ci] = True
                placed += 1
        steps.append((pos, tuple(checks)))
    if placed != len(cg.constraints):
        raise AssertionError("some local constraint fits no bag; decomposition invalid")
    return steps


# pinned value -> the bits an introduce node may give its vertex
_CHOICES = {None: (0, 1), True: (1,), False: (0,)}


def _run_dp(compiled: CompiledSet, units: list[tuple[int, bool]]) -> bool:
    """Bottom-up over the plan: a table holds the bag labelings (bitmasks)
    that extend to a labeling of the subtree meeting every constraint checked
    there and every pin.  The set is satisfiable iff the root's table is
    nonempty."""
    pinned: dict[int, bool] = {}
    for v, value in units:
        if pinned.setdefault(v, value) != value:
            return False  # contradictory units
    tables: dict[int, set[int]] = {}
    nice = compiled.nice
    kinds, children = nice.kinds, nice.children
    for node, (pos, checks) in enumerate(compiled.steps, start=1):
        kind, v = kinds[node]
        kids = children[node]
        if kind == "leaf":
            table = {0}
        elif kind == "join":
            table = tables.pop(kids[0]) & tables.pop(kids[1])
        elif kind == "forget":
            low = (1 << pos) - 1
            table = {(m & low) | ((m >> (pos + 1)) << pos) for m in tables.pop(kids[0])}
        else:
            low = (1 << pos) - 1
            bits = tuple(choice << pos for choice in _CHOICES[pinned.get(v)])
            table = set()
            for m in tables.pop(kids[0]):
                expanded = (m & low) | ((m >> pos) << (pos + 1))
                for bit in bits:
                    cand = expanded | bit
                    for scope_mask, allowed in checks:
                        if cand & scope_mask not in allowed:
                            break
                    else:
                        table.add(cand)
        if not table:
            return False  # an empty table stays empty up to the root
        tables[node] = table
    return bool(tables[nice.root])


def dp_implication(
    f: Iterable[Formula],
    g: Iterable[Formula],
    *,
    limits: Limits | None = None,
) -> bool:
    """Premises entail every conclusion, asked of the decomposition oracle
    over one compiled universe of premises and conclusions."""
    oracle = EntailmentOracle("twdp", limits)
    premises, conclusions = tuple(f), tuple(g)
    oracle.compile_universe(premises + conclusions)
    return all(oracle.entails(premises, c) for c in conclusions)


# ---------------------------------------------------------------------------
# Entailment oracles
# ---------------------------------------------------------------------------


class EntailmentOracle:
    """Answers satisfiability and entailment queries; ``kind`` selects the
    truth-table or the decomposition-based back end, which agree wherever
    both run."""

    def __init__(self, kind: str, limits: Limits | None = None):
        if kind not in ("brute", "twdp"):
            raise ValueError(f"unknown oracle kind {kind!r}")
        self.kind = kind
        self.limits = limits
        self._cache: dict = {}
        self._universe: Optional[CompiledSet] = None

    def compile_universe(self, universe: Iterable[Formula]) -> None:
        """Compile, once, the formulas the coming queries are about: each
        query then only pins units on the compiled set.  A universe wider
        than ``Limits.dp_width`` is dropped, and each query is compiled on
        its own, as is a query with a formula outside the universe.  The
        brute kind ignores the universe."""
        self._universe = None
        if self.kind == "twdp":
            try:
                self._universe = compile_set(universe, limits=self.limits)
            except ResourceLimitError:
                pass

    @property
    def universe_width(self) -> Optional[int]:
        """Decomposition width of the compiled universe; None when there is
        none (brute kind, no universe, or one wider than the cap)."""
        return None if self._universe is None else self._universe.width

    def satisfiable(self, formulas: Iterable[Formula]) -> bool:
        key = ("sat", frozenset(formulas))
        hit = self._cache.get(key)
        if hit is None:
            if self.kind == "brute":
                hit = sat_bruteforce(key[1], limits=self.limits) is not None
            else:
                hit = dp_sat(key[1], limits=self.limits, universe=self._universe)
            self._cache[key] = hit
        return hit

    def entails(self, premises: Iterable[Formula], conclusion: Formula) -> bool:
        """Premises entail the conclusion iff adding its negation is
        unsatisfiable; a negated conclusion ``!x`` adds ``x`` itself."""
        if isinstance(conclusion, App) and conclusion.op == "not":
            negated = conclusion.args[0]
        else:
            negated = lnot(conclusion)
        return not self.satisfiable(tuple(premises) + (negated,))

    def __repr__(self) -> str:
        return f"EntailmentOracle({self.kind!r})"


def entailment_oracle(kind: str = "twdp", limits: Limits | None = None) -> EntailmentOracle:
    return EntailmentOracle(kind, limits)
