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
min-fill decomposition, the nice form, and from that the DP *program*.  A
query over it only *pins units*: a formula ``f`` pins its vertex to true, a
negation ``!g`` pins ``g``'s vertex to false, and contradictory pins answer
unsat at once.  This is sound for any query over the compiled set, however
little of it the query mentions: every operator vertex is a function of its
children, variables and ``L`` atoms are free leaves, and constants are
pinned, so every assignment of the leaves extends to exactly one labeling
that meets all local constraints, and the labelings that meet the pins are
exactly the models of the query.  The entailment oracle compiles a theory's
*universe* once (``EntailmentOracle.compile_universe``) and answers each of
its queries by pinning units; ``dp_sat`` on its own compiles its set and
pins the set's formulas the same way.  A query with a formula outside the
universe, or a universe wider than ``Limits.dp_width``, is compiled on its
own.

The program is a flat list of instructions, one tuple per nice node in id
order (children first), built by ``_plan``.  Each holds its opcode (leaf,
introduce, forget, join) and what that kind needs of: the table slots of its
children, its vertex, the bit masks that open or close the vertex's bag
position, and, at an introduce, the local constraints it checks, each
compiled into a table over bag positions, ``(scope_mask, allowed)``: a
labeling ``m`` of the bag (bit i = the i-th smallest vertex) satisfies it
iff ``m & scope_mask`` is in ``allowed``.  The executor, ``_run_dp``, is one
loop over the program with a list of tables indexed by slot, one
collection of bitmasks per pending node (the dynamic-programming scheme of
Gottlob, Pichler and Wei, AIJ 2010).  A consumed table's slot is cleared, a
pinned vertex takes only its pinned bit at each of its introduces, and an
empty table answers unsat at once.
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
from .limits import Limits, check
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


# The instructions of the DP program, one tuple per nice node, each only as
# long as its kind needs:
#   (LEAF,)
#   (INTRODUCE, child, vertex, low, high, bit, checks)
#   (FORGET, child, low, high)
#   (JOIN, child, other)
# ``child`` and ``other`` are the slots of the tables it consumes; ``low`` and
# ``high`` mask the bag positions below and at-or-above the vertex's position
# in the bag without the vertex, ``bit`` is the vertex's bit, and ``checks``
# are the compiled local constraints an introduce checks.  The slots are
# the nice node ids: the i-th instruction, counting from 1, is node i's and
# fills slot i (slot 0 stays unused).  Ids run children first and the
# root's is the largest, so the root's instruction is the last.
LEAF, INTRODUCE, FORGET, JOIN = range(4)
Instruction = tuple  # one of the four shapes above
_LEAF_INSTRUCTION = (LEAF,)


@dataclass(frozen=True)
class CompiledSet:
    """A formula set ready for queries: its constraint graph, the width of
    its decomposition and the DP program compiled from its nice form.  The
    nice form is not kept: the program holds all that a query reads."""

    cg: ConstraintGraph
    width: int
    program: list[Instruction]


def compile_set(
    gamma: Iterable[Formula],
    td: Optional[TreeDecomposition] = None,
    *,
    limits: Limits | None = None,
) -> CompiledSet:
    """Constraint graph, decomposition (``td``, or min-fill when None), nice
    form and program of a formula set.  Raises ``ResourceLimitError`` when
    the decomposition is wider than ``Limits.dp_width``."""
    cg = build_constraint_graph(gamma)
    if td is None:
        td = heuristic_decomposition(cg.graph, "min_fill")
    w = width(td)
    check(limits, "dp_width", w, "treewidth DP: decomposition width")
    nice = make_nice(td)
    td = None  # the plan reads only the nice form: free a min-fill td first, for peak memory
    return CompiledSet(cg, w, _plan(cg, nice))


def _units(
    vertex_of: dict[Formula, int], gamma: Iterable[Formula]
) -> Optional[list[tuple[int, bool]]]:
    """The pins ``(vertex, value)`` that make every formula of ``gamma``
    true: a formula pins its vertex to true, and a negation ``!g`` pins
    ``g``'s vertex to false instead (through any number of negations), which
    is the same, since a vertex of ``!g`` is a function of ``g``'s.  None
    when some formula's negation-free core has no vertex."""
    units = []
    for f in gamma:
        value = True
        while f.__class__ is App and f.op == "not":
            f, value = f.args[0], not value
        v = vertex_of.get(f)
        if v is None:
            return None
        units.append((v, value))
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
    ``gamma`` once its negations are peeled, the formulas are pinned as
    units on it;
    otherwise ``gamma`` is compiled on its own (over ``td`` when given) and
    its formulas pinned on that."""
    gamma = tuple(gamma)
    compiled = universe
    units = None if compiled is None else _units(compiled.cg.vertex_of, gamma)
    if units is None:
        compiled = compile_set(gamma, td, limits=limits)
        units = _units(compiled.cg.vertex_of, gamma)
    return _run_dp(compiled.program, units)


def _plan(cg: ConstraintGraph, nice: NiceTreeDecomposition) -> list[Instruction]:
    """The program of a nice form, one instruction per node in id order.  A
    labeling's bit i is the i-th smallest vertex of the bag, so an introduce
    opens its vertex's position and a forget closes it, and the bits above
    that position move up or down by one.  Each constraint goes to the first
    introduce of one of its vertices whose bag covers its scope."""
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
    program: list[Instruction] = []
    kinds, children, bags = nice.kinds, nice.children, nice.bags
    for node in range(1, len(bags) + 1):
        kind, v = kinds[node]
        kids = children[node]
        if kind == "leaf":
            order[node] = ()
            program.append(_LEAF_INSTRUCTION)
            continue
        below = order.pop(kids[0])
        if kind == "join":
            del order[kids[1]]
            order[node] = below
            program.append((JOIN, kids[0], kids[1]))
            continue
        if kind == "forget":
            pos = below.index(v)
            order[node] = below[:pos] + below[pos + 1:]
            low = (1 << pos) - 1
            program.append((FORGET, kids[0], low, ((1 << (len(below) - 1)) - 1) ^ low))
            continue
        pos = bisect.bisect(below, v)
        here = order[node] = below[:pos] + (v,) + below[pos:]
        low = (1 << pos) - 1
        high = ((1 << len(below)) - 1) ^ low
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
        program.append((INTRODUCE, kids[0], v, low, high, 1 << pos, tuple(checks)))
    if placed != len(cg.constraints):
        raise AssertionError("some local constraint fits no bag; decomposition invalid")
    return program


def _run_dp(program: list[Instruction], units: list[tuple[int, bool]]) -> bool:
    """One loop over the program.  Slot i holds the table of instruction i:
    the bag labelings (bitmasks, no repeats) that extend to a labeling of
    its subtree meeting every constraint checked there and every pin, until
    its parent consumes and clears it.  A pinned vertex takes only its
    pinned bit at each of its introduces.  The set is satisfiable iff the
    root's table is nonempty, and an empty table stays empty up to the
    root."""
    pinned: dict[int, bool] = {}
    for v, value in units:
        if pinned.setdefault(v, value) != value:
            return False  # contradictory units
    tables: list = [None] * (len(program) + 1)
    for slot, instruction in enumerate(program, 1):
        op = instruction[0]
        if op == INTRODUCE:
            _, child, v, low, high, bit, checks = instruction
            rows = tables[child]
            tables[child] = None
            if high:
                rows = [(m & low) | ((m & high) << 1) for m in rows]
            value = pinned.get(v)
            if value is None:
                rows = [*rows, *[m | bit for m in rows]]
            elif value:
                rows = [m | bit for m in rows]
            for scope_mask, allowed in checks:
                rows = [m for m in rows if m & scope_mask in allowed]
        elif op == FORGET:
            _, child, low, high = instruction
            rows = {(m & low) | ((m >> 1) & high) for m in tables[child]}
            tables[child] = None
        elif op == JOIN:
            _, child, other = instruction
            rows = set(tables[child]).intersection(tables[other])
            tables[child] = tables[other] = None
        else:
            rows = (0,)
        if not rows:
            return False
        tables[slot] = rows
    return True


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
