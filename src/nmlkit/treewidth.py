"""Tree decompositions: validation, width, min-fill and exact computation,
nice form, pseudo-clique theory, and PACE-style .td I/O, whose header syntax
``structures._read_pace`` reads, as it does for .gr.

One tree walk (``_walk``) serves validation, ``make_nice`` and
``_oriented``, which puts a caller's decomposition in the (child, parent)
form that ``_tree_from_elimination`` writes and the treewidth DP reads.

Pseudo-cliques are handled by undoing subdivisions: a degree-2 vertex is
replaced by an edge between its two neighbours that remembers the path it
stands for.  Recognition undoes every non-main; the lower bound undoes
degree-2 vertices until none is left and searches the rest for a clique,
counting a triangle that an undo destroyed.

The exact algorithm applies standard safe reductions (simplicial vertices
always, almost-simplicial vertices up to a certified lower bound), then a
branch and bound over eliminated sets searches the core they leave, which
is what the vertex cap applies to.  Every elimination goes through
``_eliminate_counted``, which keeps fill counts, min-fill's and the
reductions' alike.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .errors import ParseError, parse_ints
from .formula import join_lines
from .limits import Limits, check
from .structures import Graph, _read_pace, adjacency_sets


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags keyed by id plus tree edges between bag ids."""

    bags: dict[int, frozenset[int]]
    edges: frozenset[tuple[int, int]]

    def neighbors(self) -> dict[int, set[int]]:
        return adjacency_sets(self.bags, self.edges)


@dataclass(frozen=True)
class NiceTreeDecomposition(TreeDecomposition):
    """Rooted decomposition where every node is a leaf (empty bag), an
    introduce, a forget, or a join with two equal-bag children.  Node ids run
    from 1 and every child's id is smaller than its parent's, so ascending id
    order visits children first and the root has the largest id.  ``kinds``
    holds each node's kind and introduced or forgotten vertex, recorded as
    the node is built.  Only ``make_nice`` builds one, and it keeps these
    invariants."""

    root: int
    children: dict[int, tuple[int, ...]]
    kinds: dict[int, tuple[str, Optional[int]]]


def width(td: TreeDecomposition) -> int:
    """Largest bag size minus one."""
    if not td.bags:
        raise ValueError("decomposition has no bags")
    return max(len(b) for b in td.bags.values()) - 1


def _walk(
    adj: dict[int, set[int]], start: int, within: Optional[set[int]] = None
) -> dict[int, Optional[int]]:
    """Each bag reachable from ``start`` through bags of ``within`` (any bag
    when None), mapped to the bag it was reached from (``start`` to None),
    in the order reached: depth first, a bag's neighbours in ascending id.
    Every bag is reached after the one it was reached from, so on a tree the
    reverse order visits children first."""
    walk: dict[int, Optional[int]] = {start: None}
    stack = [start]
    while stack:
        b = stack.pop()
        for other in sorted(adj[b]):
            if other not in walk and (within is None or other in within):
                walk[other] = b
                stack.append(other)
    return walk


def _tree_violations(
    td: TreeDecomposition,
) -> tuple[list[str], Optional[dict[int, set[int]]]]:
    """Violations of the tree conditions, plus the bag adjacency for callers
    that walk the tree next (None when an edge names a missing bag)."""
    ids = set(td.bags)
    for u, v in td.edges:
        if u not in ids or v not in ids:
            return [f"(tree) edge ({u},{v}) references a missing bag"], None
    adj = td.neighbors()
    problems = []
    if len(td.edges) != max(len(ids) - 1, 0):
        problems.append(
            f"(tree) {len(ids)} bags need {max(len(ids) - 1, 0)} tree edges, found {len(td.edges)}"
        )
    elif ids:
        walk = _walk(adj, min(ids))
        if len(walk) != len(ids):
            missing = min(ids - walk.keys())
            problems.append(f"(tree) bag {missing} is disconnected from the rest")
    return problems, adj


def validate_decomposition(g: Graph, td: TreeDecomposition) -> list[str]:
    """Empty list iff ``td`` is a valid tree decomposition of ``g``; otherwise
    one entry per violated condition with a witness."""
    holding: dict[int, set[int]] = {v: set() for v in g.vertices}
    for bid, bag in td.bags.items():
        for v in bag:
            if v not in holding:
                raise ValueError(f"bag {bid} references vertex {v} outside the graph")
            holding[v].add(bid)
    problems, adj = _tree_violations(td)
    if problems:
        return problems
    for v, bids in holding.items():
        if not bids:
            problems.append(f"(i) vertex {v} appears in no bag")
    for u, v in sorted(g.edges):
        if not holding[u] & holding[v]:
            problems.append(f"(ii) edge ({u},{v}) is contained in no bag")
    for v, bids in holding.items():
        if len(bids) <= 1:
            continue
        first = min(bids)
        walk = _walk(adj, first, bids)
        if len(walk) != len(bids):
            problems.append(
                f"(iii) bags {first} and {min(bids - walk.keys())} both hold vertex {v} but are not connected through it"
            )
    return problems


# ---------------------------------------------------------------------------
# Elimination orderings
# ---------------------------------------------------------------------------


def _fill_count(adj: dict[int, set[int]], v: int) -> int:
    """Edges that eliminating v would add: non-adjacent pairs among its
    neighbors.  ``nbrs - adj[a]`` holds a itself and a's missing partners,
    and each missing pair is counted from both ends."""
    nbrs = adj[v]
    missing = 0
    for a in nbrs:
        missing += len(nbrs - adj[a])
    return (missing - len(nbrs)) // 2


def _eliminate_counted(
    adj: dict[int, set[int]], v: int, counts: dict[int, int]
) -> tuple[set[int], dict[int, int]]:
    """Eliminate v from the graph ``adj``, turning its neighborhood into a
    clique, and keep exact the fill ``counts`` it holds (the missing pairs
    among each vertex's neighbors).  Returns v's neighbors and the change in
    fill of every vertex whose fill the elimination can move: v's neighbors,
    whose change may be 0, and the other common neighbors of each pair it
    joins.  The changes follow from two rules:
    - adding a missing edge (a, b) between v's neighbors takes 1 from the
      fill of every other common neighbor of a and b, and gives a
      ``|N(a) - N(b)|`` and b ``|N(b) - N(a)|``, both taken before the edge
      is added;
    - removing v, whose neighbors are a clique by then, takes
      ``|N(a) - N[v]| = |N(a)| - |N(v)|`` from each neighbor a's fill."""
    nbrs = adj.pop(v)
    size = len(nbrs)
    delta = dict.fromkeys(nbrs, 0)
    for a in nbrs:
        na = adj[a]
        for b in nbrs - na:
            if b == a:
                continue
            nb = adj[b]
            common = na & nb
            for w in common:
                delta[w] = delta.get(w, 0) - 1
            delta[a] += len(na) - len(common)
            delta[b] += len(nb) - len(common)
            na.add(b)
            nb.add(a)
    delta.pop(v, None)  # v is a common neighbor of every pair it joins
    for a in nbrs:
        na = adj[a]
        delta[a] -= len(na) - size
        na.discard(v)
    counts.pop(v, None)
    for w, d in delta.items():
        if d and w in counts:
            counts[w] += d
    return nbrs, delta


def _greedy_elimination(
    adj: dict[int, set[int]]
) -> tuple[list[int], list[frozenset[int]]]:
    """Min-fill elimination ordering of the graph ``adj`` (which it
    consumes), ties broken by smallest vertex id, with each vertex's closed
    neighborhood at the time it is eliminated.

    Each vertex's fill (the missing pairs among its neighbors) is computed
    once and then kept exact by the deltas of ``_eliminate_counted`` as each
    vertex goes.  A vertex of fill 0 has no missing pair, so only its
    removal moves a fill, and each neighbor's at once: that case skips the
    table of deltas, which would cost about a tenth of the time on
    constraint graphs, where most vertices go at fill 0.  A vertex whose
    fill changed is pushed again, as a recount would push it, so the heap
    yields the same (fill, id) minimum at every step and the order and bags
    are those of recounting every touched vertex."""
    current = {v: _fill_count(adj, v) for v in adj}
    heap = [(k, v) for v, k in current.items()]
    heapq.heapify(heap)
    order: list[int] = []
    bags: list[frozenset[int]] = []
    while heap:
        k, v = heapq.heappop(heap)
        if v not in adj or current[v] != k:
            continue
        order.append(v)
        if k:
            nbrs, delta = _eliminate_counted(adj, v, current)
            for w, d in delta.items():
                if d:
                    heapq.heappush(heap, (current[w], w))
        else:  # no pair to join: only v's removal moves a fill
            nbrs = adj.pop(v)
            del current[v]
            size = len(nbrs)
            for a in nbrs:
                na = adj[a]
                d = len(na) - size
                na.discard(v)
                if d:
                    current[a] -= d
                    heapq.heappush(heap, (current[a], a))
        bags.append(frozenset(nbrs | {v}))
    return order, bags


def elimination_order(g: Graph) -> list[int]:
    """Min-fill elimination ordering; ties broken by smallest vertex id."""
    return _greedy_elimination(g.adjacency())[0]


def _tree_from_elimination(order: list[int], bags: list[frozenset[int]]) -> TreeDecomposition:
    """Bag i+1 is ``bags[i]``, the closed neighborhood of ``order[i]`` when it
    was eliminated; it hangs off the bag of that vertex's first subsequently
    eliminated neighbor, or off the next bag if it has none.  Each edge is
    written (child, parent), and a parent's id is larger than its child's,
    so ascending ids visit children first and the last bag is the root.  An
    empty graph gets one empty bag."""
    if not order:
        return TreeDecomposition({1: frozenset()}, frozenset())
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    edges: set[tuple[int, int]] = set()
    for i, bag in enumerate(bags):
        first = n  # the position of the first later neighbor, n if none
        for u in bag:
            p = pos[u]
            if i < p < first:
                first = p
        if first == n:
            first = i + 1
        if first < n:
            edges.add((i + 1, first + 1))
    return TreeDecomposition(dict(enumerate(bags, start=1)), frozenset(edges))


def _oriented(td: TreeDecomposition) -> TreeDecomposition:
    """A valid decomposition in the form ``_tree_from_elimination`` writes:
    bags numbered 1, 2, ... and every edge (child, parent) with the child's
    id the smaller.  One in that form is returned as it is, and one whose
    edges are is renumbered in the order of its ids.  Any other is rooted at
    its smallest bag id, and its bags are numbered in the reverse of the
    walk from there (``_walk``), so children come before their parents and
    the root is the last."""
    ids = sorted(td.bags)
    if len(dict(td.edges)) == len(td.edges) and all(c < p for c, p in td.edges):
        if ids[0] == 1 and ids[-1] == len(ids):
            return td
        edges = td.edges
    else:
        parent = _walk(td.neighbors(), ids[0])
        ids = list(reversed(parent))
        edges = [(b, p) for b, p in parent.items() if p is not None]
    new = {b: i for i, b in enumerate(ids, start=1)}
    return TreeDecomposition({new[b]: td.bags[b] for b in ids},
                             frozenset((new[c], new[p]) for c, p in edges))


def decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """The tree decomposition induced by an elimination ordering: one bag per
    vertex (its closed neighborhood at elimination time), each attached to the
    bag of its first subsequently eliminated neighbor."""
    if sorted(order) != list(g.vertices):
        raise ValueError("order must enumerate every vertex exactly once")
    adj = g.adjacency()
    bags = [frozenset(_eliminate_counted(adj, v, {})[0] | {v}) for v in order]
    return _tree_from_elimination(order, bags)


def heuristic_decomposition(g: Graph) -> TreeDecomposition:
    """``decomposition_from_order(g, elimination_order(g))``, built in the
    same elimination run that picks the order."""
    return _tree_from_elimination(*_greedy_elimination(g.adjacency()))


# ---------------------------------------------------------------------------
# Exact treewidth
# ---------------------------------------------------------------------------


def _mmd_lower_bound(adj: dict[int, set[int]]) -> int:
    """Minor-min-width (Gogate and Dechter, UAI 2004): repeatedly merge a
    minimum-degree vertex, smallest id first, into its least-connected
    neighbor, smallest id first; the largest minimum degree seen is a lower
    bound on treewidth.  The minimum comes from a lazy heap of ``(degree,
    vertex)`` entries: a merge pushes each neighbor whose degree it changes
    again, and a popped entry whose degree is no longer current is skipped,
    so a step costs the merge, not a scan of the graph."""
    adj = {v: set(ns) for v, ns in adj.items()}
    heap = [(len(ns), v) for v, ns in adj.items()]
    heapq.heapify(heap)
    best = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v not in adj or len(adj[v]) != d:
            continue
        best = max(best, d)
        nbrs = adj.pop(v)
        if d == 0:
            continue
        u = min(nbrs, key=lambda w: (len(adj[w] & nbrs), w))
        into = adj[u]
        before = len(into)
        into.discard(v)
        for w in nbrs:
            if w == u:
                continue
            ns = adj[w]
            ns.discard(v)
            if u in ns:
                heapq.heappush(heap, (len(ns), w))
            else:
                ns.add(u)
                into.add(w)
        if len(into) != before:
            heapq.heappush(heap, (len(into), u))
    return best


_SIMPLICIAL, _ALMOST_SIMPLICIAL = 1, 2


def _admissible(fill: int, degree: int, lb: int) -> bool:
    """Whether a safe rule can eliminate a vertex with this fill and degree:
    fill 0 (simplicial), or a degree of at most ``lb`` and fewer missing
    pairs than neighbors (all pairs missing at one neighbor u number
    ``|N(v) - N[u]|`` < degree)."""
    return not fill or fill < degree <= lb


def _reducibility(
    adj: dict[int, set[int]], v: int, lb: int, fills: dict[int, int]
) -> int:
    """Which safe rule eliminates v: ``_SIMPLICIAL`` when its neighbors form
    a clique, ``_ALMOST_SIMPLICIAL`` when all but one of them do and its
    degree is at most ``lb``, else 0.

    ``fills`` keeps the counts of missing pairs among neighbors.  v's is
    made the first time v is tested, in the same pass over its neighbors
    that finds its first missing pair (as ``_fill_count`` counts), unless
    its degree exceeds ``lb``: then only the simplicial rule applies, the
    first missing pair settles the test, and v stays uncounted.  (Counting
    every tested vertex made the reductions inside branch and bound about
    1.8 times slower on random graphs, whose neighborhoods miss many
    pairs.)  Once counted, simplicial is fill 0, in O(1).  All but u form a
    clique iff u lies in every missing pair, i.e. iff v's fill is
    ``|N(v) - N[u]|``, and then u is an end of the first missing pair found;
    each end is tested in O(d)."""
    nbrs = adj[v]
    d = len(nbrs)
    f = fills.get(v)
    first = None
    if f is None:
        missing = 0
        for a in nbrs:
            gap = nbrs - adj[a]  # a itself and a's missing partners
            if first is None and len(gap) > 1:
                if d > lb:
                    return 0
                first = a, gap
            missing += len(gap)
        f = fills[v] = (missing - d) // 2
    if not f:
        return _SIMPLICIAL
    if not _admissible(f, d, lb):
        return 0
    if first is None:
        for a in nbrs:
            gap = nbrs - adj[a]
            if len(gap) > 1:
                first = a, gap
                break
    a, gap = first
    if len(gap) == f + 1:
        return _ALMOST_SIMPLICIAL
    gap.discard(a)
    b = next(iter(gap))
    return _ALMOST_SIMPLICIAL if len(nbrs - adj[b]) == f + 1 else 0


def _reduce(
    adj: dict[int, set[int]], lb: int
) -> tuple[list[int], list[frozenset[int]], int, int]:
    """Apply simplicial / almost-simplicial eliminations (Bodlaender, Koster
    and van den Eijkhof, 2005) until none apply, always eliminating the
    smallest reducible vertex.  Returns (eliminated order, each eliminated
    vertex's closed neighborhood as it went, width forced so far, updated
    lower bound).

    A min-heap holds every vertex that may be reducible, and a popped
    vertex is checked again before it is eliminated, so the order is the
    one a rescan from the smallest vertex after each elimination finds.
    The fill counts that ``_reducibility`` makes are kept exact by the
    deltas of ``_eliminate_counted``.  Eliminating v changes the status
    only of its neighbors, whose neighborhoods change, and of the common
    neighbors of each pair it joins, whose fill drops: those are pushed
    again, unless a kept count and the degree admit no rule
    (``_admissible``), until the count, the degree or ``lb`` moves.  A
    simplicial elimination that raises ``lb`` pushes the vertices whose
    degree the new bound admits to the almost-simplicial rule, found by one
    scan of the graph per rise.  On ``gen_pseudo_clique(PseudoCliqueSpec(n,
    1))`` this tests each vertex 1.8 / 2.2 / 2.5 times at n = 10 / 20 / 40
    mains, against 4.5 / 8.1 / 14.9 when every touched vertex was tested
    again."""
    order: list[int] = []
    bags: list[frozenset[int]] = []
    forced = 0
    fills: dict[int, int] = {}
    heap = sorted(adj)
    queued = set(heap)
    while heap:
        v = heapq.heappop(heap)
        queued.discard(v)
        rule = _reducibility(adj, v, lb, fills)
        if not rule:
            continue
        nbrs, delta = _eliminate_counted(adj, v, fills)
        d = len(nbrs)
        forced = max(forced, d)
        bags.append(frozenset(nbrs | {v}))
        order.append(v)
        touched = delta.keys()
        if rule == _SIMPLICIAL and d > lb:
            touched = touched | {w for w, ns in adj.items() if lb < len(ns) <= d}
            lb = d
        for w in touched - queued:
            f = fills.get(w)
            if f is None or _admissible(f, len(adj[w]), lb):
                heapq.heappush(heap, w)
                queued.add(w)
    return order, bags, forced, lb


def exact_treewidth(
    g: Graph, *, limits: Limits | None = None
) -> tuple[int, TreeDecomposition]:
    """Minimum width over all decompositions, with an elimination-ordering
    witness.  The core left after safe reductions must fit the configured
    vertex cap.  The minor-min-width bound and the reductions each run on a
    heap that an elimination updates only where it changes the graph, and
    the reductions keep the fill of the vertices they test, so a touched
    vertex that no rule can admit is not tested again (see
    ``_mmd_lower_bound`` and ``_reduce``).  When the reductions empty the graph, as they do on
    pseudo-cliques and chain structures, each vertex is tested a few times
    rather than once per elimination near it: 1.8 / 2.2 / 2.5 times at
    10 / 20 / 40 mains of ``gen_pseudo_clique(PseudoCliqueSpec(n, 1))``,
    where testing every touched vertex again took 4.5 / 8.1 / 14.9.  The
    witness is ``decomposition_from_order`` of the reductions' order
    followed by the search's, built from the bags each kept as it
    eliminated."""
    if g.n == 0:
        return -1, TreeDecomposition({1: frozenset()}, frozenset())
    adj = g.adjacency()
    lb = _mmd_lower_bound(adj)
    order, bags, answer, lb = _reduce(adj, lb)
    check(limits, "exact_tw_core", len(adj), "exact treewidth: core vertex count")

    if adj:
        heuristic = _greedy_elimination({v: set(ns) for v, ns in adj.items()})
        best_width, best_order, best_bags = _branch_and_bound(adj, *heuristic)
        answer = max(answer, best_width)
        order += best_order
        bags += best_bags
    return answer, _tree_from_elimination(order, bags)


def _branch_and_bound(
    adj: dict[int, set[int]], best_order: list[int], best_bags: list[frozenset[int]]
) -> tuple[int, list[int], list[frozenset[int]]]:
    """Depth-first search of the core ``adj`` (which it consumes) for an
    elimination ordering narrower than ``best_order``, whose bags are
    ``best_bags``; returns the width, order and bags of the first found of
    the least width.  A node, the graph left with the width, order and bags
    so far, is pruned by minor-min-width and reduced under that bound; its
    children eliminate each vertex left, smallest first, and wait on the
    stack uncopied until popped.  The graph left by a set does not depend
    on the order it went in (Bodlaender, Fomin, Koster, Kratsch and
    Thilikos, ESA 2006), so a set entered before at no larger width is not
    searched again."""
    best = (max(map(len, best_bags)) - 1, best_order, best_bags)
    entered: dict[frozenset[int], int] = {}
    stack = [(adj, None, 0, [], [])]  # (graph, vertex to eliminate, width, order, bags)
    while stack:
        work, v, current, order, bags = stack.pop()
        if v is not None:
            current = max(current, len(work[v]))
            order = order + [v]
            gone = frozenset(order)
            if current >= best[0] or entered.get(gone, current + 1) <= current:
                continue
            entered[gone] = current
            work = {u: set(ns) for u, ns in work.items()}
            bags = bags + [frozenset(_eliminate_counted(work, v, {})[0] | {v})]
        if work:
            # the width so far and the minor bound both bound every
            # completion from below, which is what the almost-simplicial
            # rule needs
            lb = max(current, _mmd_lower_bound(work))
            if lb >= best[0]:
                continue
            reduced, reduced_bags, forced, _ = _reduce(work, lb)
            current = max(current, forced)
            if current >= best[0]:
                continue
            order = order + reduced
            bags = bags + reduced_bags
        if not work:
            best = (current, order, bags)
        else:
            stack.extend((work, u, current, order, bags) for u in sorted(work, reverse=True))
    return best


# ---------------------------------------------------------------------------
# Nice decompositions
# ---------------------------------------------------------------------------


_LEAF = ("leaf", None)
_JOIN = ("join", None)


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Rooted nice form of a valid decomposition: leaves are empty bags,
    every other node introduces one vertex, forgets one vertex, or joins two
    children with identical bags.  Width is preserved; the root keeps the
    original root bag."""
    problems, adj = _tree_violations(td)
    if problems:
        raise ValueError("invalid decomposition: " + problems[0])
    if not td.bags:
        raise ValueError("decomposition has no bags")
    root_old = min(td.bags)

    bags: dict[int, frozenset[int]] = {}
    children: dict[int, tuple[int, ...]] = {}
    kinds: dict[int, tuple[str, Optional[int]]] = {}

    def new_node(
        bag: frozenset[int], kids: tuple[int, ...], kind: tuple[str, Optional[int]]
    ) -> int:
        bid = len(bags) + 1
        bags[bid] = bag
        children[bid] = kids
        kinds[bid] = kind
        return bid

    def chain(from_id: int, from_bag: frozenset[int], to_bag: frozenset[int]) -> int:
        node, bag = from_id, from_bag
        for v in sorted(from_bag - to_bag):
            bag = bag - {v}
            node = new_node(bag, (node,), ("forget", v))
        for v in sorted(to_bag - bag):
            bag = bag | {v}
            node = new_node(bag, (node,), ("introduce", v))
        return node

    def leaf_chain(to_bag: frozenset[int]) -> int:
        node = new_node(frozenset(), (), _LEAF)
        return chain(node, frozenset(), to_bag)

    parent = _walk(adj, root_old)
    built: dict[int, int] = {}
    for old in reversed(parent):  # children first
        bag = td.bags[old]
        kids_old = [c for c in sorted(adj[old]) if parent[c] == old]
        if not kids_old:
            built[old] = leaf_chain(bag)
            continue
        adapted = [chain(built[c], td.bags[c], bag) for c in kids_old]
        node = adapted[0]
        for other in adapted[1:]:
            node = new_node(bag, (node, other), _JOIN)
        built[old] = node

    root = built[root_old]
    # every node is created after its children, so a child's id is the smaller
    edges = frozenset((c, p) for p, kids in children.items() for c in kids)
    return NiceTreeDecomposition(bags, edges, root, children, kinds)


# ---------------------------------------------------------------------------
# Pseudo-cliques
# ---------------------------------------------------------------------------


def _unsubdivide(
    adj: dict[int, set[int]], route: dict[tuple[int, int], list[int]], v: int
) -> bool:
    """Undo the subdivision at the degree-2 vertex ``v``: remove it from
    ``adj`` and, unless its neighbours a < b are adjacent already, join them
    by an edge whose route is a-v-b, read from a; returns whether it did.
    ``route`` maps each edge (u, w), u < w, to the removed vertices it stands
    for, read from u; the routes of a-v and v-b leave it."""
    a, b = sorted(adj[v])
    left = route.pop((a, v) if a < v else (v, a))
    right = route.pop((v, b) if v < b else (b, v))
    if v < a:
        left.reverse()
    if b < v:
        right.reverse()
    adj[a].discard(v)
    adj[b].discard(v)
    del adj[v]
    if b in adj[a]:
        return False
    adj[a].add(b)
    adj[b].add(a)
    route[(a, b)] = left + [v] + right
    return True


def pseudo_clique_paths(
    g: Graph, mains: set[int]
) -> Optional[dict[tuple[int, int], list[int]]]:
    """Decompose ``g`` into main-pair paths, or None if it is not a
    pseudo-clique on ``mains``.

    Every pair of mains must be joined by exactly one route: a direct edge
    (empty path) or a path of fresh degree-2 edge-nodes; no other edges and
    no other vertices may exist.  Paths of distinct pairs are disjoint.
    Recognition undoes the subdivisions: every non-main, in id order, must
    have degree 2 and join two vertices that are not yet adjacent, and what
    remains must be the clique on the mains.  Each pair's path is read from
    its smaller main.
    """
    if not mains <= set(g.vertices):
        raise ValueError("mains must be vertices of the graph")
    adj = g.adjacency()
    route: dict[tuple[int, int], list[int]] = {e: [] for e in g.edges}
    for v in g.vertices:
        if v in mains:
            continue
        # undoing keeps every other degree, so a degree read now is final
        if len(adj[v]) != 2:
            return None
        if not _unsubdivide(adj, route, v):
            return None
    if any(len(adj[m]) != len(mains) - 1 for m in mains):
        return None
    return route


def is_pseudo_clique(g: Graph, mains: set[int]) -> bool:
    return pseudo_clique_paths(g, set(mains)) is not None


def _graph_mains(g: Graph) -> set[int]:
    if not g.labels:
        raise ValueError("graph carries no main/edge labels")
    return {v for v, lab in g.labels.items() if lab == "main"}


def normalize_pseudo(g: Graph, td: TreeDecomposition) -> TreeDecomposition:
    """Rewrite a decomposition of a labeled pseudo-clique so that edge-nodes
    live only in dedicated small bags.

    Per main pair i < j (lexicographic order): every occurrence of the
    pair's edge-nodes is replaced by j, then a chain of bags {i,d1,j},
    {d1,d2,j}, ..., {d(k-1),dk,j} is attached to the first bag (smallest id)
    that contains both i and j after replacement; anchoring on j as well
    keeps the bags holding j connected.  The result is valid and keeps
    edge-nodes in bags of size at most 3.  It is never wider than the input
    when the input has width at least 2, as every decomposition of a
    pseudo-clique with three or more mains has; with two mains and edge-nodes
    the graph is a path, and a width-1 input becomes width 2.  The
    last edge-node dk lies in exactly one bag, so a pair's only edge-node
    does too; every other edge-node lies in exactly two.
    """
    mains = _graph_mains(g)
    paths = pseudo_clique_paths(g, mains)
    if paths is None:
        raise ValueError("graph is not a pseudo-clique on its labeled mains")
    problems = validate_decomposition(g, td)
    if problems:
        raise ValueError("invalid decomposition: " + problems[0])
    bags = dict(td.bags)
    edges = set(td.edges)
    next_id = max(bags) + 1
    for (i, j), path in sorted(paths.items()):
        if not path:
            continue
        path_set = set(path)
        touched = [b for b in sorted(bags) if bags[b] & path_set]
        for b in touched:
            bags[b] = (bags[b] - path_set) | {j}
        anchor = next(b for b in sorted(bags) if i in bags[b] and j in bags[b])
        chain_bags = [frozenset({prev, here, j}) for prev, here in zip([i] + path, path)]
        attach = anchor
        for bag in chain_bags:
            bags[next_id] = bag
            edges.add((min(attach, next_id), max(attach, next_id)))
            attach = next_id
            next_id += 1
    return TreeDecomposition(bags, frozenset(edges))


def _max_clique(adj: dict[int, set[int]]) -> list[int]:
    """Bron-Kerbosch with pivoting; deterministic, returns one maximum clique."""
    best: list[int] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        nonlocal best
        if not p and not x:
            if len(r) > len(best):
                best = list(r)
            return
        if len(r) + len(p) <= len(best):
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r + [v], p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand([], set(adj), set())
    return best


def _certify_routes(route: dict[tuple[int, int], list[int]], clique: list[int]) -> None:
    """Assert that the paths realizing the clique's edges are internally
    disjoint: every removed vertex lies on the route of at most one."""
    used: set[int] = set()
    for i, a in enumerate(clique):
        for b in clique[i + 1:]:
            path = route[(a, b) if a < b else (b, a)]
            assert not used & set(path)
            used |= set(path)


def pseudo_clique_lower_bound(g: Graph, *, limits: Limits | None = None) -> int:
    """Size of the largest clique obtainable by undoing subdivisions (so
    treewidth is at least the result minus one).

    Undoing a subdivision replaces a degree-2 vertex by an edge between its
    neighbors, smallest such vertex first, to a fixpoint, with duplicate
    edges discarded; each surviving edge therefore stands for an internally
    disjoint path, which is verified before the clique is certified.  A
    discarded duplicate destroys the triangle its vertex sat on, the only
    clique a degree-2 vertex lies in, so that triangle is certified then
    and counts: a cycle, or a pseudo-clique on 3 mains, reads 3.

    The degree-2 vertices wait in a min-heap.  Undoing never raises a
    degree, and lowers one only where the new edge is a duplicate: then its
    two ends each lose v, and an end left at degree 2 is pushed.  A popped
    vertex whose degree has fallen below 2 is skipped, so the heap yields
    the smallest degree-2 vertex at every step, as a rescan from the
    smallest vertex would: on ``gen_pseudo_clique(PseudoCliqueSpec(n, 1))``
    0.82 / 0.90 / 0.95 pops per vertex at n = 10 / 20 / 40 mains, where the
    rescan tested 9.2 / 19.1 / 39.1 degrees per vertex.
    """
    check(limits, "clique_vertices", g.n, "pseudo-clique lower bound: vertex count")
    adj = g.adjacency()
    route: dict[tuple[int, int], list[int]] = {e: [] for e in g.edges}
    heap = [v for v, ns in adj.items() if len(ns) == 2]
    heapq.heapify(heap)
    triangle = 0
    while heap:
        v = heapq.heappop(heap)
        if len(adj[v]) != 2:
            continue
        a, b = adj[v]
        if b in adj[a]:  # undoing v discards the duplicate edge and the triangle
            _certify_routes(route, [a, b, v])
            triangle = 3
        if not _unsubdivide(adj, route, v):
            for u in (a, b):
                if len(adj[u]) == 2:
                    heapq.heappush(heap, u)
    clique = _max_clique(adj)
    _certify_routes(route, clique)
    return max(len(clique), triangle)


# ---------------------------------------------------------------------------
# PACE-style .td I/O
# ---------------------------------------------------------------------------


def emit_td(td: TreeDecomposition, n_vertices: int) -> str:
    """Canonical .td text: bags sorted by id with ascending vertices, then
    sorted tree edges."""
    max_bag = max((len(b) for b in td.bags.values()), default=0)
    lines = [f"s td {len(td.bags)} {max_bag} {n_vertices}"]
    for bid in sorted(td.bags):
        verts = " ".join(str(v) for v in sorted(td.bags[bid]))
        lines.append(f"b {bid} {verts}".rstrip())
    lines.extend(f"{u} {v}" for u, v in sorted(td.edges))
    return join_lines(lines)


def parse_td(text: str) -> tuple[TreeDecomposition, int]:
    """Parse .td text: as many bags as the ``s td <bags> <max bag> <n>``
    header says, the largest of the size it says, over vertices in 1..n.
    Returns the decomposition and the declared vertex count."""
    bags: dict[int, frozenset[int]] = {}
    edges: set[tuple[int, int]] = set()

    def bag_or_edge_line(line: str, n_bags: int, max_bag: int, n: int) -> bool:
        parts = line.split()
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError(f"malformed bag line: {line!r}")
            bid, *verts = parse_ints(parts[1:])
            if bid in bags:
                raise ParseError(f"duplicate bag id {bid}")
            if not all(1 <= v <= n for v in verts):
                raise ParseError(f"bag {bid} has a vertex outside 1..{n}")
            bags[bid] = frozenset(verts)
            return True
        if len(parts) != 2:
            raise ParseError(f"malformed tree-edge line: {line!r}")
        u, v = parse_ints(parts)
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise ParseError(f"repeated tree edge {u} {v}")
        edges.add(edge)
        return False

    (_, max_bag, n), header = _read_pace(text, "s td", 3, 0, "bag", bag_or_edge_line)
    largest = max(map(len, bags.values()), default=0)
    if largest != max_bag:
        raise ParseError(f"the header says the largest bag has {max_bag} vertices, "
                         f"the file's has {largest}", line=header)
    return TreeDecomposition(bags, frozenset(edges)), n
