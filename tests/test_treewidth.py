import hashlib
import heapq
import random

import pytest

from nmlkit import treewidth
from nmlkit.errors import ParseError, ResourceLimitError
from nmlkit.families import PseudoCliqueSpec, chain, gen_pseudo_clique
from nmlkit.limits import Limits
from nmlkit.randgen import random_formula_set, random_graph
from nmlkit.structures import build_prop_structure, gaifman_graph, make_graph
from nmlkit.treewidth import (
    TreeDecomposition,
    decomposition_from_order,
    elimination_order,
    emit_td,
    exact_treewidth,
    heuristic_decomposition,
    is_pseudo_clique,
    make_nice,
    normalize_pseudo,
    parse_td,
    pseudo_clique_lower_bound,
    pseudo_clique_paths,
    validate_decomposition,
    width,
)
from nmlkit.twdp import build_constraint_graph


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(1, n)])


def clique(n):
    return make_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


# ---------------------------------------------------------------------------
# validation and width
# ---------------------------------------------------------------------------


def test_validate_single_edge():
    g = make_graph(2, [(1, 2)])
    td = TreeDecomposition({1: frozenset({1, 2})}, frozenset())
    assert validate_decomposition(g, td) == []


def test_validate_uncovered_edge():
    g = make_graph(2, [(1, 2)])
    td = TreeDecomposition({1: frozenset({1}), 2: frozenset({2})}, frozenset({(1, 2)}))
    violations = validate_decomposition(g, td)
    assert any(v.startswith("(ii)") for v in violations)


def test_validate_disconnected_occurrence():
    g = clique(3)
    td = TreeDecomposition(
        {1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({1, 3})},
        frozenset({(1, 2), (2, 3)}),
    )
    assert validate_decomposition(g, td) == [
        "(iii) bags 1 and 3 both hold vertex 1 but are not connected through it"
    ]


def test_validate_missing_vertex():
    g = make_graph(3, [(1, 2)])
    td = TreeDecomposition({1: frozenset({1, 2})}, frozenset())
    assert any(v.startswith("(i)") for v in validate_decomposition(g, td))


def test_validate_non_tree():
    g = make_graph(2, [(1, 2)])
    td = TreeDecomposition(
        {1: frozenset({1, 2}), 2: frozenset({1, 2})}, frozenset()
    )
    assert any(v.startswith("(tree)") for v in validate_decomposition(g, td))


def test_validate_rejects_foreign_vertex():
    g = make_graph(2, [(1, 2)])
    td = TreeDecomposition({1: frozenset({1, 2, 9})}, frozenset())
    with pytest.raises(ValueError):
        validate_decomposition(g, td)


def test_width():
    assert width(TreeDecomposition({1: frozenset({1, 2, 3})}, frozenset())) == 2
    assert width(TreeDecomposition({1: frozenset({1}), 2: frozenset({2})}, frozenset({(1, 2)}))) == 0
    with pytest.raises(ValueError):
        width(TreeDecomposition({}, frozenset()))


# ---------------------------------------------------------------------------
# heuristics
# ---------------------------------------------------------------------------


def _shuffled_decomposition(rng, g):
    """``decomposition_from_order`` of a seeded shuffle of g's vertices: a
    valid decomposition that min-fill would not give."""
    order = list(g.vertices)
    rng.shuffle(order)
    return decomposition_from_order(g, order)


def test_heuristic_path_width_one():
    td = heuristic_decomposition(path(5))
    assert width(td) == 1
    assert validate_decomposition(path(5), td) == []


def test_heuristic_clique_width():
    assert width(heuristic_decomposition(clique(4))) == 3


def test_heuristic_pseudo_clique_min_fill():
    g = gen_pseudo_clique(PseudoCliqueSpec(4, 1))
    assert width(heuristic_decomposition(g)) == 3


def test_heuristic_validity_sweep():
    rng = random.Random(12)
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 13), rng.random())
        assert validate_decomposition(g, heuristic_decomposition(g)) == []


def test_elimination_order_deterministic():
    g = random_graph(random.Random(5), 10, 0.4)
    assert elimination_order(g) == elimination_order(g)


def test_decomposition_from_order_rejects_partial_order():
    with pytest.raises(ValueError):
        decomposition_from_order(path(3), [1, 2])


# ---------------------------------------------------------------------------
# exact treewidth
# ---------------------------------------------------------------------------


def test_exact_small_graphs():
    assert exact_treewidth(path(5))[0] == 1
    assert exact_treewidth(clique(4))[0] == 3
    assert exact_treewidth(clique(5))[0] == 4
    assert exact_treewidth(make_graph(0, []))[0] == -1
    assert exact_treewidth(make_graph(1, []))[0] == 0
    assert exact_treewidth(make_graph(4, []))[0] == 0


def test_exact_pseudo_clique_5_2():
    g = gen_pseudo_clique(PseudoCliqueSpec(5, 2))
    w, td = exact_treewidth(g)
    assert w == 4
    assert validate_decomposition(g, td) == []


def test_exact_theorem_sweep():
    for n in range(3, 7):
        for k in range(0, 4):
            g = gen_pseudo_clique(PseudoCliqueSpec(n, k))
            w, td = exact_treewidth(g)
            assert w == n - 1, (n, k)
            assert validate_decomposition(g, td) == []


def test_exact_never_beaten_by_heuristics():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        w, td = exact_treewidth(g)
        assert validate_decomposition(g, td) == []
        assert width(td) == w
        assert w <= width(heuristic_decomposition(g))


def test_exact_matches_bruteforce_orders():
    # compare the branch-and-bound against trying every elimination ordering
    import itertools

    rng = random.Random(33)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        best = min(
            width(decomposition_from_order(g, list(order)))
            for order in itertools.permutations(g.vertices)
        )
        assert exact_treewidth(g)[0] == best


def test_exact_core_cap():
    # a 5x5 toroidal grid resists the safe reductions
    def torus(rows, cols):
        def vid(r, c):
            return r * cols + c + 1

        edges = []
        for r in range(rows):
            for c in range(cols):
                edges.append((vid(r, c), vid(r, (c + 1) % cols)))
                edges.append((vid(r, c), vid((r + 1) % rows, c)))
        return make_graph(rows * cols, edges)

    g = torus(5, 5)
    with pytest.raises(ResourceLimitError):
        exact_treewidth(g, limits=Limits(exact_tw_core=10))


def _subset_treewidth(g):
    """Treewidth by the subset recurrence (Bodlaender, Fomin, Koster,
    Kratsch and Thilikos, 2006): TW(empty) = -1 and TW(S) = min over v in S
    of max(TW(S - v), |Q(S - v, v)|), where Q(S, v) holds the vertices
    outside S and v that v reaches through S.  Sets are bitmasks over the
    vertices, and a set comes after each of its subsets."""
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = g.adjacency()
    nbrs = [sum(1 << index[u] for u in adj[v]) for v in g.vertices]

    def q(s, i):
        seen, frontier, out = 1 << i, [i], 0
        while frontier:
            new = nbrs[frontier.pop()] & ~seen
            seen |= new
            out |= new & ~s
            inside = new & s
            while inside:
                low = inside & -inside
                frontier.append(low.bit_length() - 1)
                inside ^= low
        return bin(out).count("1")

    tw = [-1] * (1 << g.n)
    for s in range(1, 1 << g.n):
        rest, best = s, g.n
        while rest:
            low = rest & -rest
            rest ^= low
            best = min(best, max(tw[s ^ low], q(s ^ low, low.bit_length() - 1)))
        tw[s] = best
    return tw[-1]


def _count_calls(monkeypatch, name):
    calls = [0]

    def counted(*args, _original=getattr(treewidth, name)):
        calls[0] += 1
        return _original(*args)

    monkeypatch.setattr(treewidth, name, counted)
    return calls


def test_search_matches_the_subset_recurrence(monkeypatch):
    # only graphs whose reductions leave a core reach the search
    searches = _count_calls(monkeypatch, "_branch_and_bound")
    rng = random.Random(34)
    reached = 0
    for _ in range(100):
        g = random_graph(rng, rng.randint(9, 11), rng.uniform(0.3, 0.7))
        searches[0] = 0
        w = exact_treewidth(g)[0]
        if searches[0]:
            reached += 1
            assert w == _subset_treewidth(g)
    assert reached >= 10


def _exact_key(g):
    w, td = exact_treewidth(g)
    return w, sorted((b, tuple(sorted(bag))) for b, bag in td.bags.items()), sorted(td.edges)


def _branching_graphs():
    graphs = []
    for seed in (7, 11):
        r = random.Random(seed)
        graphs += [random_graph(r, n, r.uniform(0.2, 0.5)) for n in (14, 16, 18, 20, 22, 22)]
    return graphs


def test_exact_witnesses_are_pinned():
    # width, bags and tree edges of the witness, as the search over
    # elimination orders without a memo of eliminated sets returned them
    rng = random.Random(2026)
    graphs = [random_graph(rng, rng.randint(6, 16), rng.uniform(0.15, 0.6)) for _ in range(400)]
    keys = [_exact_key(g) for g in graphs + _branching_graphs()]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "a067b4992118867140c5a74d56f9b51dfdaf99f04c1ce4527fcca7a9d232f620")


def test_search_work_on_a_branching_graph(monkeypatch):
    # a node whose eliminated set was entered before at no larger width is
    # skipped; searching every order took 6,577 bounds on this graph
    g = _branching_graphs()[9]
    assert g.n == 20
    bounds = _count_calls(monkeypatch, "_mmd_lower_bound")
    first = _exact_key(g)
    assert first[0] == 9
    assert bounds[0] == 462
    assert _exact_key(g) == first
    # a set entered again at a smaller width is searched again: skipping
    # every set entered before makes 12 / 78 / 23 bounds on these graphs
    for seed, w, calls in ((50, 9, 13), (1527, 8, 81), (3102, 10, 24)):
        rng = random.Random(seed)
        n = rng.randint(8, 16)
        p = rng.uniform(0.25, 0.7)
        bounds[0] = 0
        assert exact_treewidth(random_graph(rng, n, p))[0] == w
        assert bounds[0] == calls, seed


def _eliminate(adj, v):
    """Remove v, turning its neighborhood into a clique, by the definition;
    returns the added edges."""
    nbrs = sorted(adj[v])
    added = []
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                added.append((a, b))
    for a in nbrs:
        adj[a].discard(v)
    del adj[v]
    return added


def _rescan_reduce(adj, lb, checks=None):
    """The reductions as a rescan: after every elimination, test every vertex
    again from the smallest, and eliminate the first that a rule admits.
    Returns the order, each vertex's closed neighborhood as it went, the
    forced width and the lower bound.  ``checks`` counts the vertices
    tested."""
    def is_clique(verts):
        vs = sorted(verts)
        return all(b in adj[a] for i, a in enumerate(vs) for b in vs[i + 1:])

    order, bags, forced, changed = [], [], 0, True
    while changed and adj:
        changed = False
        for v in sorted(adj):
            if checks is not None:
                checks[0] += 1
            nbrs, d = adj[v], len(adj[v])
            simplicial = is_clique(nbrs)
            if simplicial or (d <= lb and any(is_clique(nbrs - {u}) for u in nbrs)):
                forced = max(forced, d)
                if simplicial:
                    lb = max(lb, d)
                bags.append(frozenset(nbrs | {v}))
                _eliminate(adj, v)
                order.append(v)
                changed = True
                break
    return order, bags, forced, lb


def _scan_mmd(adj):
    """Minor-min-width with a scan of every vertex for the minimum degree."""
    adj = {v: set(ns) for v, ns in adj.items()}
    best = 0
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        best = max(best, len(adj[v]))
        if adj[v]:
            u = min(adj[v], key=lambda w: (len(adj[w] & adj[v]), w))
            for w in adj[v]:
                if w != u:
                    adj[u].add(w)
                    adj[w].add(u)
                adj[w].discard(v)
        del adj[v]
    return best


def _reductions_agree(g, lb):
    assert treewidth._mmd_lower_bound(g.adjacency()) == _scan_mmd(g.adjacency())
    got, want = g.adjacency(), g.adjacency()
    assert treewidth._reduce(got, lb) == _rescan_reduce(want, lb)
    assert got == want  # the same graph is left over


def test_worklist_reductions_match_the_rescan():
    rng = random.Random(41)
    for _ in range(2000):
        n = rng.randint(0, 30)
        g = random_graph(rng, n, rng.random() * rng.choice((0.2, 0.5, 1.0)))
        _reductions_agree(g, rng.randint(0, n))
    for _ in range(100):
        n = rng.randint(2, 7)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        g = gen_pseudo_clique(PseudoCliqueSpec(n, {p: rng.randint(0, 3) for p in pairs}))
        _reductions_agree(g, rng.randint(0, n))
    for n in range(8, 13):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        g = gen_pseudo_clique(PseudoCliqueSpec(n, {p: rng.randint(0, 2) for p in pairs}))
        _reductions_agree(g, rng.randint(0, n))


def test_kept_fill_counts_match_the_recount(monkeypatch):
    # after every elimination, each count the reductions or min-fill keep
    # equals the count made from scratch on the graph that is left
    eliminations = [0]

    def checked(adj, v, counts, _original=treewidth._eliminate_counted):
        out = _original(adj, v, counts)
        for w, k in counts.items():
            assert k == treewidth._fill_count(adj, w)
        eliminations[0] += 1
        return out

    monkeypatch.setattr(treewidth, "_eliminate_counted", checked)
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(0, 25)
        g = random_graph(rng, n, rng.random() * rng.choice((0.2, 0.5, 1.0)))
        treewidth._reduce(g.adjacency(), rng.randint(0, n))
        heuristic_decomposition(g)
    for _ in range(20):
        n = rng.randint(3, 8)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        g = gen_pseudo_clique(PseudoCliqueSpec(n, {p: rng.randint(0, 2) for p in pairs}))
        treewidth._reduce(g.adjacency(), rng.randint(0, n))
    assert eliminations[0] > 3000


def _exact_is_decomposition_of_its_order(g):
    # bag i belongs to the i-th eliminated vertex, the one vertex of it that
    # no later bag holds, so the order can be read back off the bags
    w, td = exact_treewidth(g)
    order = [min(td.bags[i] - set().union(*(td.bags[j] for j in range(i + 1, g.n + 1))))
             for i in range(1, g.n + 1)]
    ref = decomposition_from_order(g, order)
    assert td == ref and emit_td(td, g.n) == emit_td(ref, g.n)
    assert width(td) == w


def test_exact_decomposition_equals_decomposition_of_its_order():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 14)
        _exact_is_decomposition_of_its_order(random_graph(rng, n, rng.random() * 0.6))
    for _ in range(40):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        _exact_is_decomposition_of_its_order(
            gen_pseudo_clique(PseudoCliqueSpec(n, {p: rng.randint(0, 2) for p in pairs})))


def test_reduction_work_linear_on_chain_structures(monkeypatch):
    # the reductions empty a chain structure's Gaifman graph; each
    # elimination rechecks only the vertices it can change, so the checks
    # grow with the graph, where a rescan after every elimination grows
    # with its square
    calls = _count_calls(monkeypatch, "_reducibility")
    work = []
    for m in (400, 800, 1600):
        calls[0] = 0
        assert exact_treewidth(gaifman_graph(build_prop_structure(chain(m))))[0] == 1
        work.append(calls[0])
    assert work[1] <= 2.2 * work[0] and work[2] <= 2.2 * work[1], work


def test_reduction_work_on_a_pseudo_clique(monkeypatch):
    g = gen_pseudo_clique(PseudoCliqueSpec(8, 2))
    assert g.n == 64
    adj = g.adjacency()
    rescan = [0]
    _rescan_reduce(adj, treewidth._mmd_lower_bound(adj), rescan)
    assert not adj  # the reductions alone settle it
    calls = _count_calls(monkeypatch, "_reducibility")
    assert exact_treewidth(g)[0] == 7
    bound = 4 * g.n
    assert calls[0] <= bound < rescan[0], (calls[0], rescan[0])


def test_reduction_checks_per_vertex_on_pseudo_cliques(monkeypatch):
    # kept fill counts leave a touched vertex that no rule can admit out of
    # the heap, so the checks per vertex stay near constant as the mains grow
    calls = _count_calls(monkeypatch, "_reducibility")
    for n in (10, 20, 40):
        g = gen_pseudo_clique(PseudoCliqueSpec(n, 1))
        calls[0] = 0
        assert exact_treewidth(g)[0] == n - 1
        assert calls[0] <= 3 * g.n, (n, calls[0] / g.n)


# ---------------------------------------------------------------------------
# nice decompositions
# ---------------------------------------------------------------------------


def test_make_nice_single_bag():
    nice = make_nice(TreeDecomposition({1: frozenset({1, 2})}, frozenset()))
    kinds = [nice.kinds[b][0] for b in sorted(nice.bags)]
    assert kinds == ["leaf", "introduce", "introduce"]
    assert nice.bags[nice.root] == frozenset({1, 2})


def test_make_nice_preserves_width_and_niceness():
    rng = random.Random(8)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        td = _shuffled_decomposition(rng, g)
        nice = make_nice(td)
        assert width(nice) == width(td)
        assert validate_decomposition(g, nice) == []
        for b in sorted(nice.bags):
            kind, v = nice.kinds[b]
            kids = nice.children.get(b, ())
            if kind == "leaf":
                assert nice.bags[b] == frozenset()
            elif kind == "join":
                assert len(kids) == 2
                assert nice.bags[kids[0]] == nice.bags[kids[1]] == nice.bags[b]
            elif kind == "introduce":
                assert nice.bags[b] - nice.bags[kids[0]] == {v}
            else:
                assert nice.bags[kids[0]] - nice.bags[b] == {v}


def test_heuristic_decomposition_equals_decomposition_of_its_order():
    rng = random.Random(12)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 30), rng.random() * 0.5)
        order = elimination_order(g)
        one_pass = heuristic_decomposition(g)
        two_pass = decomposition_from_order(g, order)
        assert one_pass.bags == two_pass.bags
        assert one_pass.edges == two_pass.edges
        # the edge rule, restated: the bag of the i-th eliminated vertex
        # hangs off the bag of its earliest-eliminated later neighbor, or
        # off the next bag if it has none
        pos = {v: i for i, v in enumerate(order)}
        expected = set()
        for i, v in enumerate(order):
            assert v in one_pass.bags[i + 1]
            later = [u for u in one_pass.bags[i + 1] if u != v]
            if later:
                expected.add((i + 1, min(pos[u] for u in later) + 1))
            elif i + 1 < len(order):
                expected.add((i + 1, i + 2))
        assert one_pass.edges == expected


def _recount_greedy(adj):
    """Min-fill as a recount: after each elimination, count again every
    vertex it touched (the closed neighborhood and every common neighbor of
    an added edge) from scratch.  Returns the order, each vertex's closed
    neighborhood as it went and its fill when it went."""
    def count(v):
        nbrs = adj[v]  # nbrs - adj[a] holds a and its missing partners
        return sum(len(nbrs - adj[a]) - 1 for a in nbrs) // 2

    current = {v: count(v) for v in adj}
    heap = [(k, v) for v, k in current.items()]
    heapq.heapify(heap)
    order, bags, counts = [], [], []
    while heap:
        k, v = heapq.heappop(heap)
        if v not in adj or current[v] != k:
            continue
        order.append(v)
        counts.append(k)
        touched = adj[v] | {v}
        bags.append(frozenset(touched))
        added = _eliminate(adj, v)
        del current[v]
        for a, b in added:
            touched |= adj[a] & adj[b]
        for w in touched:
            if w in adj:
                k2 = count(w)
                if current[w] != k2:
                    current[w] = k2
                    heapq.heappush(heap, (k2, w))
    return order, bags, counts


def _greedy_matches_the_recount(g):
    """Checks min-fill against the recount; returns the fills it eliminated
    its vertices at."""
    order, bags, fills = _recount_greedy(g.adjacency())
    assert elimination_order(g) == order
    assert heuristic_decomposition(g) == treewidth._tree_from_elimination(order, bags)
    return fills


def _forest(rng, n):
    # each vertex hangs off an earlier one, or starts a new tree
    return make_graph(n, [(v, rng.randint(1, v - 1)) for v in range(2, n + 1) if rng.random() < 0.9])


def _path_with_pendants(rng, n):
    edges = [(i, i + 1) for i in range(1, n)]
    m = n
    for i in range(1, n + 1):
        for _ in range(rng.randint(0, 2)):
            m += 1
            edges.append((i, m))
    return make_graph(m, edges)


def _disjoint_cliques(rng, k):
    edges, n = [], 0
    for size in (rng.randint(1, 6) for _ in range(k)):
        edges += [(n + i, n + j) for i in range(1, size + 1) for j in range(i + 1, size + 1)]
        n += size
    return make_graph(n, edges)


def test_incremental_counts_match_the_recount():
    rng = random.Random(44)
    for _ in range(2000):
        n = rng.randint(0, 25)
        _greedy_matches_the_recount(random_graph(rng, n, rng.random() * rng.choice((0.2, 0.5, 1.0))))
    for _ in range(300):
        gamma = random_formula_set(rng, max_formulas=10, max_subformulae=rng.randint(4, 60))
        _greedy_matches_the_recount(build_constraint_graph(gamma).graph)
    _greedy_matches_the_recount(build_constraint_graph(chain(60)).graph)
    # graphs where most vertices go at fill 0, which skip the table of deltas
    fills = []
    for _ in range(100):
        fills += _greedy_matches_the_recount(_forest(rng, rng.randint(1, 40)))
        fills += _greedy_matches_the_recount(_path_with_pendants(rng, rng.randint(1, 20)))
        fills += _greedy_matches_the_recount(_disjoint_cliques(rng, rng.randint(1, 6)))
    fills += _greedy_matches_the_recount(build_constraint_graph(chain(200)).graph)
    assert fills.count(0) > 0.9 * len(fills)


def test_min_fill_counts_each_vertex_once(monkeypatch):
    # every count after the first is kept by deltas, so the fill of a
    # vertex is counted from scratch exactly once
    calls = [0]

    def counted(*args, _original=treewidth._fill_count):
        calls[0] += 1
        return _original(*args)

    monkeypatch.setattr(treewidth, "_fill_count", counted)
    for m in (1000, 2000):
        cg = build_constraint_graph(chain(m))
        calls[0] = 0
        heuristic_decomposition(cg.graph)
        assert calls[0] == cg.graph.n


def _kind_from_bags(nice, bid):
    kids = nice.children[bid]
    if not kids:
        return ("leaf", None)
    if len(kids) == 2:
        return ("join", None)
    here, below = nice.bags[bid], nice.bags[kids[0]]
    if len(here) == len(below) + 1:
        (v,) = here - below
        return ("introduce", v)
    (v,) = below - here
    return ("forget", v)


def test_make_nice_records_kinds_and_numbers_children_first():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 25), rng.random() * 0.5)
        for td in (heuristic_decomposition(g), _shuffled_decomposition(rng, g)):
            nice = make_nice(td)
            assert sorted(nice.bags) == list(range(1, len(nice.bags) + 1))
            assert nice.root == len(nice.bags)
            for bid in nice.bags:
                assert nice.kinds[bid] == _kind_from_bags(nice, bid)
                assert all(kid < bid for kid in nice.children[bid])


def test_make_nice_on_decompositions_not_in_child_parent_form():
    # bag ids shuffled and edges flipped, and the same read back from .td
    # text, where each edge is (min, max): make_nice roots either at its
    # smallest bag, whatever the ids and edge directions say
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 20), rng.random() * 0.5)
        own = heuristic_decomposition(g) if rng.random() < 0.5 else _shuffled_decomposition(rng, g)
        ids = list(own.bags)
        rng.shuffle(ids)
        new = dict(zip(own.bags, ids))
        shuffled = TreeDecomposition({new[b]: bag for b, bag in own.bags.items()},
                                     frozenset((new[p], new[c]) for c, p in own.edges))
        parsed, _ = parse_td(emit_td(shuffled, g.n))
        for td in (shuffled, parsed):
            nice = make_nice(td)
            assert width(nice) == width(td)
            assert nice.bags[nice.root] == td.bags[min(td.bags)]
            assert validate_decomposition(g, nice) == []
            for bid in nice.bags:
                assert nice.kinds[bid] == _kind_from_bags(nice, bid)


def test_make_nice_numbering_golden():
    # node for node, the nice form of a decomposition rooted at bag 1 whose
    # root has two children: children before parents, the tree walked from
    # the root with each bag's neighbours in ascending id
    td = TreeDecomposition(
        {1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({1, 4}), 4: frozenset({3, 5})},
        frozenset({(1, 2), (3, 1), (2, 4)}),
    )
    nice = make_nice(td)
    golden = [  # id: kind, vertex, bag, children
        (1, "leaf", None, [], ()),
        (2, "introduce", 3, [3], (1,)),
        (3, "introduce", 5, [3, 5], (2,)),
        (4, "leaf", None, [], ()),
        (5, "introduce", 1, [1], (4,)),
        (6, "introduce", 4, [1, 4], (5,)),
        (7, "forget", 5, [3], (3,)),
        (8, "introduce", 2, [2, 3], (7,)),
        (9, "forget", 3, [2], (8,)),
        (10, "introduce", 1, [1, 2], (9,)),
        (11, "forget", 4, [1], (6,)),
        (12, "introduce", 2, [1, 2], (11,)),
        (13, "join", None, [1, 2], (10, 12)),
    ]
    assert nice.root == 13
    assert [(b, *nice.kinds[b], sorted(nice.bags[b]), nice.children[b])
            for b in sorted(nice.bags)] == golden
    assert nice.edges == {(c, b) for b, *_, kids in golden for c in kids}


def test_make_nice_rejects_invalid():
    with pytest.raises(ValueError):
        make_nice(TreeDecomposition({1: frozenset({1}), 2: frozenset({2})}, frozenset()))


# ---------------------------------------------------------------------------
# pseudo-clique machinery
# ---------------------------------------------------------------------------


def test_is_pseudo_clique_cases():
    star = make_graph(4, [(1, 2), (1, 3), (1, 4)])
    assert not is_pseudo_clique(star, {2, 3, 4})
    assert is_pseudo_clique(clique(3), {1, 2, 3})
    fig = gen_pseudo_clique(PseudoCliqueSpec(4, 3))
    assert fig.n == 22
    assert is_pseudo_clique(fig, {1, 2, 3, 4})
    # an extra chord breaks it
    extra = make_graph(fig.n, list(fig.edges) + [(5, 8)])
    assert not is_pseudo_clique(extra, {1, 2, 3, 4})
    # a missing route breaks it
    g = make_graph(3, [(1, 2), (2, 3)])
    assert not is_pseudo_clique(g, {1, 2, 3})


def test_generated_pseudo_cliques_pass_their_own_check():
    rng = random.Random(14)
    for _ in range(50):
        n = rng.randint(2, 6)
        pairs = {
            (i, j): rng.randint(0, 3)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        g = gen_pseudo_clique(PseudoCliqueSpec(n, pairs))
        assert is_pseudo_clique(g, set(range(1, n + 1)))


def test_pseudo_clique_paths_match_the_generator():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 6)
        lengths = {
            (i, j): rng.randint(0, 3)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        g = gen_pseudo_clique(PseudoCliqueSpec(n, lengths))
        positioned = {pair: [] for pair in lengths}
        for v, text in g.descriptions.items():
            if text.startswith("d"):  # d{r}_{i}_{j}: position r on pair (i, j)
                r, i, j = map(int, text[1:].split("_"))
                positioned[(i, j)].append((r, v))
        expected = {pair: [v for _, v in sorted(nodes)] for pair, nodes in positioned.items()}
        assert pseudo_clique_paths(g, set(range(1, n + 1))) == expected
    triangle = [(1, 2), (1, 3), (2, 3)]
    not_pseudo = {
        "non-main of degree 3": (4, triangle + [(1, 4), (2, 4), (3, 4)]),
        "cycle of non-mains": (6, triangle + [(4, 5), (5, 6), (4, 6)]),
        "path from a main back to itself": (5, triangle + [(1, 4), (4, 5), (1, 5)]),
        "direct edge and a path": (4, triangle + [(1, 4), (2, 4)]),
        "two paths": (5, [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)]),
        "no route": (3, [(1, 2), (2, 3)]),
    }
    for case, (n, edges) in not_pseudo.items():
        assert pseudo_clique_paths(make_graph(n, edges), {1, 2, 3}) is None, case
    with pytest.raises(ValueError, match="mains must be vertices of the graph"):
        pseudo_clique_paths(g, {99})


def test_lower_bound_examples():
    assert pseudo_clique_lower_bound(gen_pseudo_clique(PseudoCliqueSpec(4, 1))) == 4
    assert pseudo_clique_lower_bound(clique(4)) == 4
    assert pseudo_clique_lower_bound(path(5)) == 2
    # undoing a vertex of a triangle discards a duplicate edge; the
    # triangle it destroys still counts
    assert pseudo_clique_lower_bound(clique(3)) == 3
    assert pseudo_clique_lower_bound(make_graph(7, [(i, i % 7 + 1) for i in range(1, 8)])) == 3
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randint(3, 8)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        longest = min(3, (64 - n) // len(pairs))  # at most 64 vertices, the clique cap
        g = gen_pseudo_clique(PseudoCliqueSpec(n, {p: rng.randint(0, longest) for p in pairs}))
        assert pseudo_clique_lower_bound(g) == n


def _rescan_unsubdivide(g):
    """The subdivisions undone by a rescan: after every undo, scan the
    vertices again from the smallest for one of degree 2.  Returns the
    graph left and whether an undo discarded a duplicate edge."""
    adj = g.adjacency()
    route = {e: [] for e in g.edges}
    changed, discarded = True, False
    while changed:
        changed = False
        for v in sorted(adj):
            if len(adj[v]) == 2:
                discarded |= not treewidth._unsubdivide(adj, route, v)
                changed = True
                break
    return adj, discarded


def _subdivided(rng, k, p):
    # a random graph with some edges replaced by chains of degree-2 vertices
    base = random_graph(rng, k, p)
    edges, n = [], k
    for a, b in sorted(base.edges):
        chain_len = rng.choice((0, 0, 1, 2, 3))
        ids = [a] + list(range(n + 1, n + chain_len + 1)) + [b]
        n += chain_len
        edges += zip(ids, ids[1:])
    return make_graph(n, edges)


def test_lower_bound_heap_matches_the_rescan(monkeypatch):
    undone, cliqued = [], []

    def recorded(adj, route, v, _original=treewidth._unsubdivide):
        undone.append(v)
        return _original(adj, route, v)

    def seen(adj, _original=treewidth._max_clique):
        cliqued.append({v: set(ns) for v, ns in adj.items()})
        return _original(adj)

    monkeypatch.setattr(treewidth, "_unsubdivide", recorded)
    monkeypatch.setattr(treewidth, "_max_clique", seen)
    rng = random.Random(48)
    graphs = [_subdivided(rng, rng.randint(1, 12), rng.random() * 0.7) for _ in range(400)]
    for _ in range(60):
        n = rng.randint(2, 8)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        graphs.append(gen_pseudo_clique(PseudoCliqueSpec(n, {p: rng.randint(0, 3) for p in pairs})))
    limits = Limits(clique_vertices=200)
    for g in graphs:
        undone.clear()
        got = pseudo_clique_lower_bound(g, limits=limits)
        order = list(undone)
        undone.clear()
        left, discarded = _rescan_unsubdivide(g)
        assert order == undone
        assert cliqued[-1] == left
        assert got == max(len(treewidth._max_clique(left)), 3 if discarded else 0)


def test_lower_bound_cap():
    with pytest.raises(ResourceLimitError):
        pseudo_clique_lower_bound(make_graph(65, []))


def test_lower_bound_is_sound():
    rng = random.Random(15)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10), rng.random())
        assert pseudo_clique_lower_bound(g) - 1 <= exact_treewidth(g)[0]


def test_normalize_bloated_bag():
    g = gen_pseudo_clique(PseudoCliqueSpec(3, 1))
    big = TreeDecomposition({1: frozenset(range(1, g.n + 1))}, frozenset())
    out = normalize_pseudo(g, big)
    assert validate_decomposition(g, out) == []
    assert width(out) <= width(big)
    for d in (4, 5, 6):
        holding = [b for b, bag in out.bags.items() if d in bag]
        assert len(holding) == 1
        assert len(out.bags[holding[0]]) == 3


def test_normalize_cardinality_zero_is_identity():
    g = gen_pseudo_clique(PseudoCliqueSpec(3, 0))
    td = heuristic_decomposition(g)
    out = normalize_pseudo(g, td)
    assert sorted(out.bags.values(), key=sorted) == sorted(td.bags.values(), key=sorted)


def test_normalize_two_mains_widens_only_with_edge_nodes():
    # two mains joined by a path: width 1, and the chain bag {1, d1, 2} is 3
    g = gen_pseudo_clique(PseudoCliqueSpec(2, 1))
    td = heuristic_decomposition(g)
    out = normalize_pseudo(g, td)
    assert width(td) == 1
    assert validate_decomposition(g, out) == [] and width(out) == 2
    g = gen_pseudo_clique(PseudoCliqueSpec(2, 0))
    td = heuristic_decomposition(g)
    assert normalize_pseudo(g, td) == td and width(td) == 1


def test_normalize_random_sweep():
    rng = random.Random(16)
    for _ in range(100):
        n = rng.randint(3, 6)
        pairs = {
            (i, j): rng.randint(0, 3)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        g = gen_pseudo_clique(PseudoCliqueSpec(n, pairs))
        if rng.random() < 0.5:
            td = heuristic_decomposition(g)
        else:
            td = TreeDecomposition({1: frozenset(range(1, g.n + 1))}, frozenset())
        out = normalize_pseudo(g, td)
        assert validate_decomposition(g, out) == []
        assert width(out) <= width(td)
        edge_nodes = {v for v, lab in g.labels.items() if lab == "edge"}
        for b, bag in out.bags.items():
            if bag & edge_nodes:
                # every bag holding an edge-node is small; big bags are mains-only
                assert len(bag) <= 3
        adj = g.adjacency()
        for d in edge_nodes:
            occurrences = [b for b, bag in out.bags.items() if d in bag]
            if all(u not in edge_nodes for u in adj[d]):
                # alone on its pair's path: exactly one bag
                assert len(occurrences) == 1
            else:
                assert 1 <= len(occurrences) <= 2


def test_normalize_rejects_non_pseudo_clique():
    g = make_graph(4, [(1, 2), (1, 3), (1, 4)], labels={1: "none", 2: "main", 3: "main", 4: "main"})
    td = TreeDecomposition({1: frozenset({1, 2, 3, 4})}, frozenset())
    with pytest.raises(ValueError):
        normalize_pseudo(g, td)


# ---------------------------------------------------------------------------
# .td I/O
# ---------------------------------------------------------------------------


def test_td_roundtrip():
    g = gen_pseudo_clique(PseudoCliqueSpec(4, 2))
    td = heuristic_decomposition(g)
    text = emit_td(td, g.n)
    parsed, n = parse_td(text)
    assert n == g.n
    assert parsed == td
    assert emit_td(parsed, n) == text


def test_td_parse_errors():
    with pytest.raises(ParseError):
        parse_td("b 1 2\n")
    with pytest.raises(ParseError):
        parse_td("s td 1 1\n")
    with pytest.raises(ParseError):
        parse_td("")
