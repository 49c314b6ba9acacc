"""Dynamic programming over nice tree decompositions for satisfiability and
implication, plus the pluggable entailment oracle used by the default-logic
and autoepistemic solvers.

The DP runs on the *constraint graph* of a formula set: one vertex per
distinct subterm, with a clique over every operator node and its arguments.
Each clique carries the local truth-functional constraint, so it sits inside
some bag of any valid decomposition and can be checked at a single introduce
node.  Belief subformulas are opaque leaves: the subterm walk stops at ``L``,
so what occurs only under it gets no vertex.

Before the DP runs, every local constraint is compiled at its introduce node
into a table over bag positions, ``(scope_mask, allowed)``: a labeling ``m``
of the bag (bit i = the i-th smallest vertex) satisfies it iff
``m & scope_mask`` is in ``allowed``.  The DP then walks the nice nodes in id
order, children first, with one set of bitmasks per pending node (the
dynamic-programming scheme of Gottlob, Pichler and Wei, AIJ 2010).
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

# ("op", vertex, connective, child vertices) or ("unit", vertex, value)
Constraint = Union[tuple[str, int, str, tuple[int, ...]], tuple[str, int, bool]]


@dataclass(frozen=True)
class ConstraintGraph:
    graph: Graph
    constraints: tuple[Constraint, ...]
    vertex_of: dict[Formula, int]


def build_constraint_graph(gamma: Iterable[Formula]) -> ConstraintGraph:
    """Subterm graph of a formula set with local constraints: operator nodes
    are pinned to their connective's truth table, constants to their value,
    and the set's formulas to true.  Vertices are numbered in post-order of
    first occurrence; the walk stops at ``L`` nodes, which are opaque atoms,
    so a subterm that occurs only under ``L`` gets no vertex."""
    roots = list(gamma)
    vertex_of = number_subterms(roots, beliefs=False)
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
    for f in roots:
        constraints.append(("unit", vertex_of[f], True))
    graph = make_graph(len(vertex_of), edges)
    return ConstraintGraph(graph, tuple(constraints), vertex_of)


# rule -> allowed rows: for a connective, every row (output, *inputs) of its
# truth table; for a unit constraint (True or False), its one value
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


def dp_sat(
    gamma: Iterable[Formula],
    td: Optional[TreeDecomposition] = None,
    *,
    limits: Limits | None = None,
) -> bool:
    """Satisfiability of a formula set by DP over a nice decomposition of its
    constraint graph.  Tracks, per bag, the labelings extendable below; unit
    constraints force the set's formulas true."""
    cg = build_constraint_graph(gamma)
    if td is None:
        td = heuristic_decomposition(cg.graph, "min_fill")
    cap = get_limits(limits).dp_width
    w = width(td)
    if w > cap:
        raise ResourceLimitError(f"decomposition width {w} exceeds the DP cap of {cap}")
    nice = make_nice(td)
    return _run_dp(cg, nice)


_NO_STEP = (0, ())


def _plan(
    cg: ConstraintGraph, nice: NiceTreeDecomposition
) -> list[tuple[int, tuple[tuple[int, frozenset[int]], ...]]]:
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
    steps: list[tuple] = []
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


def _run_dp(cg: ConstraintGraph, nice: NiceTreeDecomposition) -> bool:
    """Bottom-up over the plan: a table holds the bag labelings (bitmasks)
    that extend to a labeling of the subtree meeting every constraint checked
    there.  The set is satisfiable iff the root's table is nonempty."""
    tables: dict[int, set[int]] = {}
    kinds, children = nice.kinds, nice.children
    for node, (pos, checks) in enumerate(_plan(cg, nice), start=1):
        kind = kinds[node][0]
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
            bit = 1 << pos
            table = set()
            for m in tables.pop(kids[0]):
                expanded = (m & low) | ((m >> pos) << (pos + 1))
                for cand in (expanded, expanded | bit):
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
    """Premises entail every conclusion, asked of the decomposition oracle."""
    oracle = EntailmentOracle("twdp", limits)
    premises = tuple(f)
    return all(oracle.entails(premises, c) for c in g)


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

    def satisfiable(self, formulas: Iterable[Formula]) -> bool:
        key = ("sat", frozenset(formulas))
        hit = self._cache.get(key)
        if hit is None:
            if self.kind == "brute":
                hit = sat_bruteforce(key[1], limits=self.limits) is not None
            else:
                hit = dp_sat(key[1], limits=self.limits)
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
