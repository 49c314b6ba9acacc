"""Dynamic programming over tree decompositions for satisfiability and
implication, plus the pluggable entailment oracle used by the default-logic
and autoepistemic solvers.

The DP runs on the *constraint graph* of a formula set: one vertex per
distinct subterm, and a list of local constraints, each a *scope* (a tuple
of vertices) with its allowed *rows* (the value tuples it admits over the
scope): an operator node and its arguments with the connective's truth
table, a constant with its one value.  The graph is the primal graph of the
scopes, so each scope sits inside some bag of any valid decomposition and
is checked there.  Belief subformulas are opaque leaves: the subterm walk
stops at ``L``, so what occurs only under it gets no vertex.

A formula set is compiled once (``compile_set``): its constraint graph, one
min-fill decomposition, and from that the DP *program*
(``compile_graph``, which also compiles the constraint graph the MSO
evaluator instantiates from guarded clauses).  A query over it only *pins
slots*: a formula ``f`` pins the home slot of its vertex (the top bag that
holds it) to the rows where the vertex is true, a negation ``!g`` pins
``g``'s home slot to the complement, and pins on one slot are ANDed, so
contradictory pins leave its table empty.  This is sound for any query
over the compiled set, however little of it the query mentions: every
operator vertex is a function of its children, variables and ``L`` atoms
are free leaves, and constants are pinned, so every assignment of the
leaves extends to exactly one labeling that meets all local constraints,
and the labelings that meet the pins are exactly the models of the query.
The entailment oracle compiles a theory's *universe* once
(``EntailmentOracle.compile_universe``) and answers each of its queries by
pinning slots; each formula's pin ``(slot, mask)`` is worked out the first
time a query names it and memoised on the compiled universe, so a query's
pins cost one lookup per formula.

``dp_sat`` without a universe, and the oracle for a query with a formula
outside its universe or when the universe is wider than
``Limits.dp_width``, compiles the set on its own and *under its own
assertions*: each formula is true, so an operator root that is no proper
subterm of the set's formulas is a constant, not a variable (the unit clause of a
Tseitin encoding, Tseitin 1968, substituted away).  It gets no vertex and
no pin, and its constraint keeps, over its arguments alone, the rows of its
truth table that make its formula true (``build_constraint_graph``).  On an
implication chain this halves the vertices and narrows the width from 2 to
1.  The formulas that kept a vertex are pinned as above, with no memo on a
compiled set that answers one query.  A caller's decomposition decomposes
the plain graph, which universes and the MSO evaluator's graphs keep too.

The program, built by ``_plan``, is one instruction per bag of the rooted
decomposition, after each tree edge between a bag and a superset of it has
been contracted.  The tree is read in the form min-fill writes it
(``treewidth._tree_from_elimination``): each edge is (child, parent) and a
parent's id is the larger, so ascending ids run children first and the
root is the elimination root, the last bag.  A caller's decomposition is
put in that form once, where ``compile_graph`` validates it
(``treewidth._oriented``, which roots it by the one tree walk of
``treewidth``).  A bag's *rows* are every labeling of the bag that meets
each local constraint whose scope it covers, enumerated once at compile
time (a labeling is a bitmask, bit i = the i-th smallest vertex of the
bag), and its *table* is a bitset over those rows.  A bag that shares
vertices with its parent carries the *link* to it: per labeling of the
shared vertices, the rows of either bag that give it.  The executor,
``_run_dp``, is one loop over the program, on ints only: a table opens
ANDed with its slot's pins, and a finished table is folded into its parent
at once, which keeps the rows of the classes the child's table meets; a
bottom-up semijoin pass (Yannakakis, VLDB 1981; the scheme of Gottlob,
Pichler and Wei, AIJ 2010).
Children come first and, among siblings, largest subtree first, and a
parent's table opens at its first finished child, so at most
log2(bags) + 1 tables are open at once (the heavy-path argument; Bodlaender
and Hagerup, SIAM J. Comput. 1998, bound the space through decompositions
of logarithmic depth instead).  The set is satisfiable iff the root's table
is nonempty, and an empty table answers unsat at once.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

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
from .structures import Graph, primal_graph
from .treewidth import TreeDecomposition, _oriented, heuristic_decomposition, validate_decomposition, width
# not called here: perfbench/layers.py wraps twdp.make_nice by name
from .treewidth import make_nice  # noqa: F401

Rows = tuple[tuple[int, ...], ...]

# connective -> every row (output, *inputs) of its truth table, as 0/1
_TRUTH_TABLES: dict[str, Rows] = {
    op: tuple(
        (int(apply_connective(op, ins)), *map(int, ins))
        for ins in itertools.product((False, True), repeat=arity)
    )
    for op, arity in CONNECTIVE_ARITY.items()
}
# (connective, value) -> the input rows of its truth table that give value
_ASSERTED_ROWS: dict[tuple[str, bool], Rows] = {
    (op, value): tuple(row[1:] for row in rows if row[0] == value)
    for op, rows in _TRUTH_TABLES.items()
    for value in (False, True)
}


@dataclass(frozen=True)
class ConstraintGraph:
    """A formula set's subterm vertices (``vertex_of``), its local
    constraints and their primal graph.  Each constraint is ``(scope,
    rows)``: from a formula set, an operator's ``(v, *kids)`` with its
    connective's truth table, a constant's ``(v,)`` with its one value, or
    a folded root's ``(*kids)`` with the rows that give it its asserted
    value (``build_constraint_graph``); from a guarded MSO clause
    (``mso``), the memberships of one instance.  A vertex may head, as the
    first of its scope, any number of constraints.
    ``vertex_of`` is empty for a graph that no formula set numbered."""

    graph: Graph
    constraints: tuple[tuple[tuple[int, ...], Rows], ...]
    vertex_of: dict[Formula, int]


def constraint_graph(n: int, constraints: Iterable, vertex_of: dict) -> ConstraintGraph:
    """The constraints over vertices 1..n with their primal graph, the clique
    over each scope's distinct vertices (``structures.primal_graph``)."""
    constraints = tuple(constraints)
    graph = primal_graph(n, [scope for scope, _ in constraints])
    return ConstraintGraph(graph, constraints, vertex_of)


def _core(f: Formula) -> tuple[Formula, bool]:
    """``f`` with its negations peeled, and the value that core takes when
    ``f`` is true: False under an odd number of them."""
    value = True
    while f.__class__ is App and f.op == "not":
        f, value = f.args[0], not value
    return f, value


def build_constraint_graph(gamma: Iterable[Formula], *, asserted: bool = False) -> ConstraintGraph:
    """Subterm graph of a formula set with local constraints: operator nodes
    are held to their connective's truth table and constants to their
    value.  The set's own formulas are not pinned here; a query pins them
    (``dp_sat``).  Vertices are numbered in post-order of first occurrence;
    the walk stops at ``L`` nodes, which are opaque atoms, so a subterm that
    occurs only under ``L`` gets no vertex.

    With ``asserted``, every formula of the set is taken to be true, and an
    operator with arguments that is the core of a formula (``_core``) and
    no proper subterm of any formula's core is *folded*: it and the negations
    around it get no vertex, and its constraint ranges over its arguments
    alone, keeping the rows of its truth table where it takes its core's
    value (none when the set asserts both values).  This is the unit clause
    of a Tseitin encoding substituted away.  Any other core keeps its
    vertex, and the query still pins it (``dp_sat``)."""
    if not asserted:
        vertex_of = number_subterms(gamma, beliefs=False)
        folded: dict[Formula, Optional[bool]] = {}
    else:
        roots: list[Formula] = []
        folded = {}  # candidate core -> the value the set asserts, None for both
        for f in gamma:
            core, value = _core(f)
            if core.__class__ is App and core.args:
                roots.extend(core.args)
                folded[core] = value if folded.get(core, value) is value else None
            else:
                roots.append(core)
        # the vertices are the subterms of every argument and leaf core, so
        # a candidate among them is some other core's subterm and is kept
        vertex_of = number_subterms(roots, beliefs=False)
    constraints = []
    for f, v in vertex_of.items():
        if f.__class__ is App:
            constraints.append(((v, *[vertex_of[a] for a in f.args]), _TRUTH_TABLES[f.op]))
        elif f.__class__ is Const:
            constraints.append(((v,), ((int(f.value),),)))
    for core, value in folded.items():
        if core not in vertex_of:
            rows = () if value is None else _ASSERTED_ROWS[core.op, value]
            constraints.append((tuple([vertex_of[a] for a in core.args]), rows))
    return constraint_graph(len(vertex_of), constraints, vertex_of)


@functools.lru_cache(maxsize=4096)
def _compile(rows: Rows, positions: tuple[int, ...]) -> tuple[int, frozenset[int]]:
    """A local constraint as ``(scope_mask, allowed)`` over bag positions: a
    labeling ``m`` of the bag satisfies it iff ``m & scope_mask in allowed``.
    ``rows`` are the constraint's allowed rows, and its scope's vertices sit
    at ``positions``.  A vertex that repeats in the scope (``p & p``) has
    one position, and rows that give it two values are dropped."""
    bits = [1 << p for p in positions]
    allowed = set()
    for row in rows:
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


@functools.lru_cache(maxsize=4096)
def _rows(size: int, checks: tuple[tuple[int, frozenset[int]], ...]) -> tuple[int, ...]:
    """Every labeling of a bag of ``size`` vertices that meets the compiled
    constraints ``checks``.  The positions are opened one at a time, and a
    check filters as soon as the highest position of its scope is open, so a
    labeling that breaks it is not extended further."""
    due: dict[int, list[tuple[int, frozenset[int]]]] = {}
    for scope_mask, allowed in checks:
        due.setdefault(scope_mask.bit_length() - 1, []).append((scope_mask, allowed))
    rows = [0]
    for i in range(size):
        bit = 1 << i
        rows += [m | bit for m in rows]
        for scope_mask, allowed in due.get(i, ()):
            rows = [m for m in rows if m & scope_mask in allowed]
    return tuple(rows)


@functools.lru_cache(maxsize=4096)
def _bag(rows: tuple[int, ...], above: Optional[tuple[int, ...]], targets: tuple) -> tuple:
    """``(full, classes, homes)`` of a bag with these ``rows`` (``_rows``)
    whose parent, with rows ``above``, holds its position i at position
    ``targets[i]``, or not at all when that is None.  Tables are bitsets
    over rows, bit j for row j.  ``full`` is the table of all the bag's
    rows.  ``classes`` is the link to the parent: one pair (child rows,
    parent rows) per labeling of the shared vertices that rows of both
    give; None when the bag shares no vertex with a parent.  ``homes`` has
    ``(i, rows that set position i)`` for each position the parent does
    not hold."""
    bits = [0 if t is None else 1 << t for t in targets]
    where = [0] * len(targets)
    below: dict[int, int] = {}  # shared labeling, in parent bits -> child rows
    for j, m in enumerate(rows):
        key = 0
        for i, bit in enumerate(bits):
            if m >> i & 1:
                where[i] |= 1 << j
                key |= bit
        below[key] = below.get(key, 0) | 1 << j
    shared = sum(bits)
    classes = None
    if shared:
        sides: dict[int, int] = {}  # shared labeling -> parent rows
        for j, m in enumerate(above):
            if m & shared in below:
                sides[m & shared] = sides.get(m & shared, 0) | 1 << j
        classes = tuple((below[key], sides[key]) for key in sides)
    homes = tuple((i, where[i]) for i, t in enumerate(targets) if t is None)
    return (1 << len(rows)) - 1, classes, homes


@dataclass(frozen=True)
class CompiledSet:
    """A formula set ready for queries: its constraint graph, the width of
    its decomposition, the bag program and the home of each vertex.

    The program has one instruction ``(full, parent, classes)`` per bag,
    children first and, among siblings, largest subtree first, so the
    root's is the last.  Parents are read off the decomposition's edges,
    (child, parent) with the child's id the smaller, so the root is the
    elimination root of min-fill's decomposition, which is written that
    way; a caller's is put in that form once (``treewidth._oriented``).
    A bag's *rows* are its labelings that meet every constraint whose scope
    it covers (``_rows``), and its table is a bitset over them, bit j for
    row j; ``full`` is the table of all its rows.  A bag that shares
    vertices with its parent carries the link to it: ``parent`` is the
    parent's slot (its index in the program) and ``classes`` has one
    ``(below, above)`` per labeling of the shared vertices, the bitsets of
    this bag's rows and of the parent's rows that give it.  Any other bag
    has ``parent`` and ``classes`` None.
    ``home[v]`` is ``(slot, rows)`` of the bag where a pin on vertex ``v``
    is checked, the top bag that holds ``v``, with the bitset of its rows
    that set ``v`` true.  On a universe, ``pins`` memoises, per formula a
    query has named, its pin ``(slot, mask)``: the home slot of its
    negation-free core and the rows there that make the formula true
    (``_pins``)."""

    cg: ConstraintGraph
    width: int
    program: list[tuple]
    home: dict[int, tuple[int, int]]
    pins: dict[Formula, tuple[int, int]] = field(default_factory=dict, compare=False)


def compile_set(
    gamma: Iterable[Formula],
    td: Optional[TreeDecomposition] = None,
    *,
    limits: Limits | None = None,
    asserted: bool = False,
) -> CompiledSet:
    """Constraint graph (``build_constraint_graph``, under the set's own
    assertions with ``asserted``), decomposition and bag program
    (``compile_graph``) of a formula set.  A set compiled with ``asserted``
    answers only the query that asserts it, and ``td`` must decompose the
    graph of the same compile."""
    return compile_graph(build_constraint_graph(gamma, asserted=asserted), td, limits=limits)


def compile_graph(
    cg: ConstraintGraph,
    td: Optional[TreeDecomposition] = None,
    *,
    limits: Limits | None = None,
) -> CompiledSet:
    """Decomposition (``td``, or min-fill when None) and bag program of a
    constraint graph.  A caller's ``td`` is checked first with
    ``validate_decomposition``, whose first problem is raised as a
    ``ValueError`` (as is its own for a bag vertex outside the graph), and
    then put in the form ``_plan`` reads (``treewidth._oriented``);
    min-fill's is valid and in that form by construction.  Raises
    ``ResourceLimitError`` when the decomposition is wider than
    ``Limits.dp_width``."""
    if td is None:
        td = heuristic_decomposition(cg.graph, "min_fill")
    else:
        problems = validate_decomposition(cg.graph, td)
        if problems:
            raise ValueError("invalid decomposition: " + problems[0])
        td = _oriented(td)
    w = width(td)
    check(limits, "dp_width", w, "treewidth DP: decomposition width")
    return CompiledSet(cg, w, *_plan(cg, td))


def _pins(compiled: CompiledSet, gamma: Iterable[Formula]) -> Optional[dict[int, int]]:
    """The pins that make every formula of ``gamma`` true on ``compiled``,
    ANDed per slot: slot -> the rows its pins allow.  A formula's pin is
    ``(slot, mask)``: the home of its core's vertex (``_core``), with the
    rows where that vertex takes the core's value, since a vertex of ``!g``
    is a function of ``g``'s.  Each pin is worked out the first time a
    query names its formula and then read from ``compiled.pins``.  None
    when some formula's core has no vertex; the pins memoised before it
    stay, as a pin depends only on the compiled set and its formula."""
    memo = compiled.pins
    pins: dict[int, int] = {}
    for f in gamma:
        pin = memo.get(f)
        if pin is None:
            core, value = _core(f)
            v = compiled.cg.vertex_of.get(core)
            if v is None:
                return None
            slot, rows = compiled.home[v]
            pin = memo[f] = slot, rows if value else ~rows
        slot, mask = pin
        pins[slot] = pins.get(slot, -1) & mask
    return pins


def vertex_pins(
    home: dict[int, tuple[int, int]], units: Iterable[tuple[int, bool]]
) -> dict[int, int]:
    """The pins of vertices to values (``units``, pairs ``(vertex, value)``)
    over their ``home`` bags, ANDed per slot as ``_pins`` does for
    formulas: slot -> the rows where each of its vertices has its value."""
    pins: dict[int, int] = {}
    for v, value in units:
        slot, rows = home[v]
        pins[slot] = pins.get(slot, -1) & (rows if value else ~rows)
    return pins


def dp_sat(
    gamma: Iterable[Formula],
    td: Optional[TreeDecomposition] = None,
    *,
    limits: Limits | None = None,
    universe: Optional[CompiledSet] = None,
) -> bool:
    """Satisfiability of a formula set by DP over a tree decomposition.
    With ``universe``, a compiled set whose vertices cover every formula of
    ``gamma`` once its negations are peeled, each formula pins one slot of
    the universe's program, through the universe's memo of pins
    (``_pins``).  Otherwise ``gamma`` is compiled on its own: over ``td``
    when given, on the plain constraint graph that ``td`` decomposes, and
    else under its own assertions (``build_constraint_graph``), where a
    folded formula is a constraint and needs no pin.  The core of each
    formula that kept a vertex is then pinned to its value on that compiled
    set (``vertex_pins``), with no memo on a set that answers one query."""
    gamma = tuple(gamma)
    compiled = universe
    pins = None if compiled is None else _pins(compiled, gamma)
    if pins is None:
        compiled = compile_set(gamma, td, limits=limits, asserted=td is None)
        vertex_of = compiled.cg.vertex_of
        cores = [_core(f) for f in gamma]
        pins = vertex_pins(compiled.home,
                           [(vertex_of[c], value) for c, value in cores if c in vertex_of])
    return _run_dp(compiled.program, pins)


def _plan(
    cg: ConstraintGraph, td: TreeDecomposition
) -> tuple[list[tuple], dict[int, tuple[int, int]]]:
    """The bag program and vertex homes (see ``CompiledSet``) of ``td``,
    which must be a valid decomposition of ``cg.graph``: nothing is checked
    here, and must be in the form ``treewidth._oriented`` gives: each bag's
    parent is read off the edges, (child, parent) with the child's id the
    smaller, so ascending ids visit children first and the root is the
    largest id; for min-fill's decomposition that is the elimination root.
    A bag that is a subset of its parent's, or whose parent's is a subset
    of it, is contracted into its parent, which then holds the larger of the
    two: the decomposition stays valid and no wider, and the program gets
    one instruction per bag left.  Each constraint is checked in every bag
    that covers its scope, which keeps the rows of a wide bag few.  The bags
    are emitted children first and, among siblings, largest subtree first,
    so that folding each table into its parent as soon as it is done leaves
    at most log2(bags) + 1 tables open (``_run_dp``).  A vertex's home is
    its top bag, the one whose parent does not hold it."""
    bags = dict(td.bags)  # a parent's bag grows when it takes in a superset child
    parent = dict(td.edges)  # child -> parent
    order = sorted(bags)
    root = order[-1]
    scope_of: dict[int, list] = {}  # vertex -> the constraints it heads
    for c in cg.constraints:
        scope_of.setdefault(c[0][0], []).append(c)
    kids: dict[int, list[int]] = {}  # bag -> its children left after contraction
    size: dict[int, int] = {}  # bag left -> the bags left in its subtree
    vertices: dict[int, tuple[int, ...]] = {}  # bag left -> its vertices, sorted
    rows_of: dict[int, tuple[int, ...]] = {}  # bag left, until its parent's turn -> its rows
    info: dict[int, tuple] = {}  # bag left -> its _bag
    for b in order:
        bag = bags[b]
        above = parent.get(b)
        if above is not None and (bag <= bags[above] or bags[above] <= bag):
            if not bag <= bags[above]:
                bags[above] = bag
            kids.setdefault(above, []).extend(kids.pop(b, ()))
            continue
        vertices[b] = here = tuple(sorted(bag))
        pos_of = {v: i for i, v in enumerate(here)}
        checks = []
        for v in here:
            for scope, rows in scope_of.get(v, ()):
                if bag.issuperset(scope):
                    checks.append(_compile(rows, tuple(map(pos_of.__getitem__, scope))))
        rows_of[b] = rows = _rows(len(here), tuple(checks))
        size[b] = 1
        for c in kids.get(b, ()):
            info[c] = _bag(rows_of.pop(c), rows, tuple(map(pos_of.get, vertices[c])))
            size[b] += size[c]
        if above is not None:
            kids.setdefault(above, []).append(b)
    info[root] = _bag(rows_of.pop(root), None, (None,) * len(vertices[root]))

    # parents first, smallest subtree first, filling the program from its
    # end: each bag's slot is one below the last one taken, so the program
    # runs children first, largest subtree first
    program: list[tuple] = [()] * len(info)
    home: dict[int, tuple[int, int]] = {}
    slot = len(info)
    stack = [(root, None)]  # bag, its parent's slot
    while stack:
        b, above = stack.pop()
        slot -= 1
        full, classes, homes = info[b]
        program[slot] = (full, None if classes is None else above, classes)
        for i, where in homes:
            home[vertices[b][i]] = (slot, where)
        below = kids.get(b, ())
        if len(below) > 1:
            below = sorted(below, key=size.__getitem__, reverse=True)
        stack.extend([(c, slot) for c in below])
    return program, home


def _run_dp(program: list[tuple], pins: dict[int, int]) -> bool:
    """One loop over the bag program, on tables that are bitsets over their
    bag's rows.  ``pins`` maps a slot to the rows its pins allow (``_pins``,
    ``vertex_pins``); a table opens, ANDed with its slot's pins, at its
    bag's first finished linked child, or at its own instruction, so
    contradictory pins leave it empty.  At its own instruction a table is
    done, and is folded into its parent at once: the parent keeps the rows
    in the classes this table meets.  Each finished table thus holds the
    bag labelings that extend to its subtree, and the set is satisfiable
    iff the root's is nonempty; an empty table answers unsat at once.  An
    open table is never empty, so a missing one reads as 0."""
    tables: dict[int, int] = {}  # slot -> its open table
    for slot, (full, parent, classes) in enumerate(program):
        table = tables.pop(slot, 0) or full & pins.get(slot, -1)
        if not table:
            return False
        if parent is not None:
            folded = 0
            for below, above in classes:
                if table & below:
                    folded |= above
            folded &= tables.get(parent, 0) or pins.get(parent, -1)
            if not folded:
                return False
            tables[parent] = folded
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
        query then only pins slots of the compiled set.  A universe wider
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

    def satisfiable(self, formulas: Sequence[Formula]) -> bool:
        """Satisfiability of ``formulas``, cached under the set of them.  A
        miss is decided over the formulas without repeats, in the caller's
        order, which is the order a query outside the universe is compiled
        in: a set of nodes iterates in an order that changes from run to
        run (``formula``)."""
        key = ("sat", frozenset(formulas))
        hit = self._cache.get(key)
        if hit is None:
            gamma = tuple(dict.fromkeys(formulas))
            if self.kind == "brute":
                hit = sat_bruteforce(gamma, limits=self.limits) is not None
            else:
                hit = dp_sat(gamma, limits=self.limits, universe=self._universe)
            self._cache[key] = hit
        return hit

    def entails(self, premises: Iterable[Formula], conclusion: Formula) -> bool:
        """Premises entail the conclusion iff adding its ``refutation`` is
        unsatisfiable."""
        return not self.satisfiable((*premises, refutation(conclusion)))

    def __repr__(self) -> str:
        return f"EntailmentOracle({self.kind!r})"


def refutation(conclusion: Formula) -> Formula:
    """The formula whose addition leaves premises unsatisfiable iff they
    entail ``conclusion``: its negation, or ``x`` itself for ``!x``."""
    if conclusion.__class__ is App and conclusion.op == "not":
        return conclusion.args[0]
    return lnot(conclusion)


def entailment_oracle(kind: str = "twdp", limits: Limits | None = None) -> EntailmentOracle:
    return EntailmentOracle(kind, limits)
