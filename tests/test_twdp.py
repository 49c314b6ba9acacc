import math
import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from nmlkit import twdp
from nmlkit.ael import AeTheory, belief_atoms, expansion_exists
from nmlkit.dl import extension_exists
from nmlkit.errors import ResourceLimitError
from nmlkit.families import chain, gen_dl_lower
from nmlkit.formula import (
    App,
    Believes,
    Const,
    Var,
    apply_connective,
    implies_bruteforce,
    land,
    liff,
    limp,
    lnot,
    lor,
    lxor,
    lxor3,
    parse_formula,
    sat_bruteforce,
)
from nmlkit.harness import peak_live_tables, program_work
from nmlkit.limits import Limits
from nmlkit.randgen import random_entailment_query, random_formula, random_formula_set
from nmlkit.treewidth import (
    TreeDecomposition,
    decomposition_from_order,
    emit_td,
    heuristic_decomposition,
    make_nice,
    parse_td,
    width,
)
from nmlkit.twdp import (
    build_constraint_graph,
    dp_implication,
    dp_sat,
    entailment_oracle,
)


def test_dp_sat_contradiction():
    assert dp_sat([land(Var("p"), lnot(Var("p")))]) is False


def test_dp_sat_empty():
    assert dp_sat([]) is True


def test_dp_sat_chain():
    gamma = chain(50)
    cg = build_constraint_graph(gamma)
    td = heuristic_decomposition(cg.graph)
    assert width(td) <= 3
    assert dp_sat(gamma, td) is True
    assert sat_bruteforce(chain(10)) is not None


def test_dp_sat_matches_bruteforce():
    rng = random.Random(55)
    for _ in range(500):
        gamma = random_formula_set(rng, max_subformulae=14, max_formulas=3)
        assert dp_sat(gamma) == (sat_bruteforce(gamma) is not None)


def test_dp_sat_width_cap():
    # asserted, chain(30) folds to a path of width 1; each asserted xor3
    # root folds to a triangle over its arguments, so this chain keeps width 2
    xs = [Var(f"x{i}") for i in range(32)]
    gamma = [lxor3(*xs[i:i + 3]) for i in range(30)]
    assert twdp.compile_set(gamma, asserted=True).width == 2
    with pytest.raises(ResourceLimitError, match="width"):
        dp_sat(gamma, limits=Limits(dp_width=1))


def test_dp_sat_belief_atoms_are_opaque():
    from nmlkit.formula import Believes

    p = Var("p")
    assert dp_sat([land(Believes(p), lnot(p))]) is True
    assert dp_sat([land(Believes(p), lnot(Believes(p)))]) is False


def test_dp_sat_repeated_arguments():
    p, q = Var("p"), Var("q")
    for f in (land(p, p), lxor(p, p), limp(p, p), liff(p, p), lxor3(p, p, q), lxor3(p, p, p)):
        for gamma in ([f], [lnot(f)]):
            assert dp_sat(gamma) == (sat_bruteforce(gamma) is not None), gamma


def test_constraint_graph_stops_at_belief_atoms():
    p, q, r = Var("p"), Var("q"), Var("r")
    hidden = land(p, q)
    belief = Believes(hidden)
    cg = build_constraint_graph([land(belief, r), lor(belief, p)])
    assert hidden not in cg.vertex_of and q not in cg.vertex_of
    assert set(cg.vertex_of) == {belief, r, p, land(belief, r), lor(belief, p)}
    assert sorted(cg.vertex_of.values()) == list(range(1, cg.graph.n + 1))
    assert dp_sat([belief, lnot(hidden)]) is True


def test_dp_sat_deep_formula():
    f = Var("x0")
    for i in range(1, 2000):
        f = land(f, Var(f"x{i}"))
    assert dp_sat([f]) is True
    assert dp_sat([f, lnot(Var("x7"))]) is False


def test_oracle_cache_lookup_on_deep_formula():
    # a separately built equal formula hits the cache through deep equality
    def conjuncts():
        f = Var("x0")
        for i in range(1, 2000):
            f = land(f, Var(f"x{i}"))
        return f

    oracle = entailment_oracle("twdp")
    a, b = conjuncts(), conjuncts()
    assert oracle.satisfiable([a]) is True
    assert oracle.satisfiable([b]) is True
    assert len(oracle._cache) == 1


def test_dp_implication_examples():
    assert dp_implication([Var("p"), limp(Var("p"), Var("q"))], [Var("q")]) is True
    assert dp_implication([lor(Var("p"), Var("q"))], [Var("p")]) is False
    assert dp_implication([], [lor(Var("p"), lnot(Var("p")))]) is True


def test_dp_implication_matches_bruteforce():
    rng = random.Random(56)
    for _ in range(200):
        f = random_formula_set(rng, max_subformulae=7, max_formulas=2)
        g = random_formula_set(rng, max_subformulae=5, max_formulas=2)
        assert dp_implication(f, g) == implies_bruteforce(f, g)


def test_verdict_independent_of_decomposition():
    rng = random.Random(57)
    from nmlkit.treewidth import exact_treewidth

    for _ in range(100):
        gamma = random_formula_set(rng, max_subformulae=10)
        cg = build_constraint_graph(gamma)
        expected = dp_sat(gamma, heuristic_decomposition(cg.graph))
        order = list(cg.graph.vertices)
        rng.shuffle(order)
        assert dp_sat(gamma, decomposition_from_order(cg.graph, order)) == expected
        assert dp_sat(gamma, exact_treewidth(cg.graph)[1]) == expected


def test_oracles_agree_on_entailment():
    rng = random.Random(58)
    brute = entailment_oracle("brute")
    twdp = entailment_oracle("twdp")
    for _ in range(300):
        premises, conclusion = random_entailment_query(rng)
        assert brute.entails(premises, conclusion) == twdp.entails(premises, conclusion)


def test_oracles_agree_on_negated_conclusions():
    """Both oracles answer a negated conclusion by adding its argument, so
    they are checked against the truth table, not only against each other."""
    rng = random.Random(60)
    brute = entailment_oracle("brute")
    twdp = entailment_oracle("twdp")
    for _ in range(300):
        premises, conclusion = random_entailment_query(rng)
        for c in (conclusion, lnot(conclusion)):
            expected = implies_bruteforce(premises, [c])
            assert brute.entails(premises, c) == expected
            assert twdp.entails(premises, c) == expected


def test_empty_premises_entail_exactly_tautologies():
    oracle = entailment_oracle("twdp")
    assert oracle.entails([], lor(Var("p"), lnot(Var("p")))) is True
    assert oracle.entails([], Var("p")) is False


def test_twdp_scales_where_bruteforce_cannot():
    gamma = chain(200)
    oracle = entailment_oracle("twdp")
    t0 = time.perf_counter()
    assert oracle.entails(gamma, Var("x200")) is True
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ResourceLimitError):
        entailment_oracle("brute").entails(gamma, Var("x200"))


def test_nice_node_count_linear_at_fixed_width():
    def nice_nodes(m):
        cg = build_constraint_graph(chain(m))
        return len(make_nice(heuristic_decomposition(cg.graph)).bags)

    assert nice_nodes(2000) <= 2.05 * nice_nodes(1000)


def test_constraint_graph_scopes_are_cliques():
    # the edges are exactly the cliques over the operators' scopes; every
    # operator vertex is numbered after its children, so the edges come out
    # normalised, and repeated arguments (p & p, X3(p, p, q)) give the same
    # edges as a clique over the scope's distinct vertices
    rng = random.Random(60)
    p, q, r = Var("p"), Var("q"), Var("r")
    repeated = [land(p, p), lxor3(p, p, q), lor(lxor3(q, r, q), lnot(lnot(r))), liff(q, q)]
    constants = 0
    for _ in range(300):
        gamma = random_formula_set(rng, max_formulas=4, max_subformulae=16,
                                   variables=["p", "q", "r"])
        gamma += rng.sample(repeated, rng.randint(1, len(repeated)))
        rng.shuffle(gamma)
        cg = build_constraint_graph(gamma)
        expected = set()
        for f, v in cg.vertex_of.items():
            if isinstance(f, App):
                kids = [cg.vertex_of[a] for a in f.args]
                assert all(k < v for k in kids), f
                scope = sorted({v, *kids})
                expected |= {(a, b) for i, a in enumerate(scope) for b in scope[i + 1:]}
        assert cg.graph.edges == expected
        # each constraint is (scope, rows): the rows are exactly the 0/1
        # tuples over the scope that the connective or the constant allows,
        # and the graph is the primal graph of the scopes
        formula_of = {v: f for f, v in cg.vertex_of.items()}
        primal = set()
        for scope, rows in cg.constraints:
            f = formula_of[scope[0]]
            if isinstance(f, App):
                assert scope == (scope[0], *[cg.vertex_of[a] for a in f.args])
                allowed = {row for row in product((0, 1), repeat=len(scope))
                           if row[0] == apply_connective(f.op, tuple(map(bool, row[1:])))}
            else:
                assert isinstance(f, Const) and scope == (scope[0],)
                allowed = {(int(f.value),)}
                constants += 1
            assert len(rows) == len(set(rows)) and set(rows) == allowed, f
            distinct = sorted(set(scope))
            primal |= {(a, b) for i, a in enumerate(distinct) for b in distinct[i + 1:]}
        assert cg.graph.edges == primal
        assert {scope[0] for scope, _ in cg.constraints} == {
            v for f, v in cg.vertex_of.items() if isinstance(f, (App, Const))
        }
    assert constants >= 20


def test_oracle_kind_validation():
    with pytest.raises(ValueError):
        entailment_oracle("magic")


# ---------------------------------------------------------------------------
# Compiled universes: one decomposition per theory, slot pins per query
# ---------------------------------------------------------------------------


def _no_recompile(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a universe query was compiled on its own")

    monkeypatch.setattr(twdp, "compile_set", fail)


def test_universe_queries_match_bruteforce(monkeypatch):
    rng = random.Random(66)
    compiled = []
    for _ in range(500):
        universe = random_formula_set(rng, max_subformulae=12, allow_believes=True)
        compiled.append(twdp.compile_set(universe))
    _no_recompile(monkeypatch)
    contradictory = 0
    for cs in compiled:
        subterms = list(cs.cg.vertex_of)  # belief atoms are opaque leaves
        query = []
        for f in rng.sample(subterms, rng.randint(0, min(4, len(subterms)))):
            roll = rng.random()
            query += [f] if roll < 0.4 else [lnot(f)] if roll < 0.8 else [f, lnot(f)]
        contradictory += any(lnot(f) in query for f in query)
        assert dp_sat(query, universe=cs) == (sat_bruteforce(query) is not None), query
    assert contradictory >= 50


def test_units_see_through_negations(monkeypatch):
    p, q = Var("p"), Var("q")
    cs = twdp.compile_set([land(p, q)])
    _no_recompile(monkeypatch)
    assert dp_sat([lnot(lnot(land(p, q)))], universe=cs) is True
    assert dp_sat([lnot(lnot(lnot(p))), land(p, q)], universe=cs) is False
    assert dp_sat([q, lnot(q)], universe=cs) is False


def test_query_outside_the_universe_is_compiled_on_its_own():
    p, q, r = Var("p"), Var("q"), Var("r")
    oracle = entailment_oracle("twdp")
    oracle.compile_universe([land(p, q)])
    for gamma in ([r, lnot(r)], [lor(r, p), lnot(q)], [land(p, q), lnot(lor(p, r))]):
        assert oracle.satisfiable(gamma) == (sat_bruteforce(gamma) is not None)
        assert dp_sat(gamma, universe=oracle._universe) == dp_sat(gamma)
    assert oracle.entails([land(p, q)], lor(p, r)) is True


def _negated(f, times):
    for _ in range(times):
        f = lnot(f)
    return f


def test_pinned_queries_on_one_universe_match_bruteforce(monkeypatch):
    # many queries per universe, so that most pins come from the memo,
    # with up to three negations around each subterm
    rng = random.Random(2626)
    compiled = [twdp.compile_set(random_formula_set(rng, max_subformulae=10, allow_believes=True))
                for _ in range(150)]
    _no_recompile(monkeypatch)
    verdicts = []
    for cs in compiled:
        subterms = list(cs.cg.vertex_of)
        for _ in range(8):
            query = [_negated(f, rng.randint(0, 3))
                     for f in rng.sample(subterms, rng.randint(1, min(4, len(subterms))))]
            verdict = dp_sat(query, universe=cs)
            assert verdict == (sat_bruteforce(query) is not None), query
            verdicts.append(verdict)
    assert verdicts.count(True) >= 300 and verdicts.count(False) >= 300


def test_a_pin_is_memoised_once(monkeypatch):
    p, q, r = Var("p"), Var("q"), Var("r")
    cs = twdp.compile_set([land(p, q), lor(q, r)])
    _no_recompile(monkeypatch)
    assert dp_sat([land(p, q), lnot(r)], universe=cs) is True
    memo = dict(cs.pins)
    assert set(memo) == {land(p, q), lnot(r)}
    assert dp_sat([lnot(r), land(p, q)], universe=cs) is True
    assert dp_sat([land(p, q)], universe=cs) is True
    assert cs.pins == memo


def test_negations_pin_as_their_core(monkeypatch):
    p, q = Var("p"), Var("q")
    f = lor(p, q)
    cs = twdp.compile_set([f])
    _no_recompile(monkeypatch)
    slot, rows = cs.home[cs.cg.vertex_of[f]]
    for times, mask in ((0, rows), (1, ~rows), (2, rows), (3, ~rows)):
        assert twdp._pins(cs, [_negated(f, times)]) == {slot: mask}
    assert cs.pins[lnot(lnot(f))] == cs.pins[f]
    assert cs.pins[lnot(lnot(lnot(f)))] == cs.pins[lnot(f)]


def test_contradictory_pins_on_one_slot_answer_false(monkeypatch):
    p, q = Var("p"), Var("q")
    f = land(p, lnot(q))
    cs = twdp.compile_set([f])
    _no_recompile(monkeypatch)
    for query in ([f, lnot(f)], [lnot(lnot(f)), lnot(f)], [p, lnot(lnot(lnot(p)))]):
        (slot, mask), = twdp._pins(cs, query).items()
        assert cs.program[slot][0] & mask == 0
        assert dp_sat(query, universe=cs) is False


def test_query_outside_the_universe_has_no_pins_and_compiles_once(monkeypatch):
    p, q, r = Var("p"), Var("q"), Var("r")
    cs = twdp.compile_set([land(p, q)])
    assert dp_sat([land(p, q)], universe=cs) is True
    compiled = []

    def counted(*args, _original=twdp.compile_set, **kwargs):
        compiled.append(args[0])
        return _original(*args, **kwargs)

    monkeypatch.setattr(twdp, "compile_set", counted)
    for gamma in ([lnot(p), r], [q, lor(r, p)], [land(p, q), lnot(lnot(r)), lnot(q)]):
        assert twdp._pins(cs, gamma) is None
        assert dp_sat(gamma, universe=cs) == (sat_bruteforce(gamma) is not None)
    assert len(compiled) == 3


def test_inconsistent_universe_answers_false_to_every_query(monkeypatch):
    # an oracle's universe holds the theory; when the theory is
    # inconsistent, every query about it is unsatisfiable
    rng = random.Random(2627)
    oracles = []
    while len(oracles) < 60:
        sigma = random_formula_set(rng, max_formulas=5, max_subformulae=8)
        if sat_bruteforce(sigma) is not None:
            continue
        extras = random_formula_set(rng, max_formulas=3, max_subformulae=6)
        oracle = entailment_oracle("twdp")
        oracle.compile_universe([*sigma, *extras])
        oracles.append((oracle, sigma, extras))
    _no_recompile(monkeypatch)
    for oracle, sigma, extras in oracles:
        for _ in range(5):
            asked = [_negated(f, rng.randint(0, 2)) for f in extras if rng.random() < 0.5]
            assert oracle.satisfiable([*sigma, *asked]) is False
            assert oracle.entails(sigma, rng.choice(extras)) is True


def test_universe_wider_than_the_cap_falls_back_per_query():
    # the belief atoms' arguments pairwise join four variables into a K4
    # (universe width 3); each query holds one argument (width 2)
    xs = [Var(f"x{i}") for i in range(4)]
    sigma = AeTheory(tuple(
        lor(Believes(lxor(a, b)), a) for i, a in enumerate(xs) for b in xs[i + 1:]
    ))
    limits = Limits(dp_width=2)
    oracle = entailment_oracle("twdp", limits)
    got = expansion_exists(sigma, oracle, limits=limits)
    assert oracle.universe_width is None
    assert got == expansion_exists(sigma, entailment_oracle("brute"))
    wide = entailment_oracle("twdp")
    assert expansion_exists(sigma, wide) == got and wide.universe_width == 3


def test_each_theory_is_compiled_once(monkeypatch):
    p, q, r = Var("p"), Var("q"), Var("r")
    lp, lq, lr = Believes(p), Believes(q), Believes(r)
    sigma = AeTheory((
        limp(lp, q),
        lor(Believes(land(p, lq)), lnot(lr)),
        limp(Believes(lxor(q, r)), p),
    ))
    assert len(belief_atoms(sigma)) == 5
    builders = ("build_constraint_graph", "heuristic_decomposition", "_plan")
    calls = dict.fromkeys((*builders, "dp_sat"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(twdp, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(twdp, name, counted)
    oracle = entailment_oracle("twdp")
    got = expansion_exists(sigma, oracle)
    assert got == expansion_exists(sigma, entailment_oracle("brute"))
    assert [calls[name] for name in builders] == [1, 1, 1]
    assert calls["dp_sat"] == len(oracle._cache) > 1


# ---------------------------------------------------------------------------
# The bag program: one instruction per bag, run in one loop
# ---------------------------------------------------------------------------


def _homed_below(cs):
    """For each slot, the vertices whose home (top) bag lies in its subtree
    of linked bags: a vertex found only under that slot's bag."""
    homed = [set() for _ in cs.program]
    for v, (slot, _) in cs.home.items():
        homed[slot].add(v)
    for slot, (_, parent, _) in enumerate(cs.program):  # children first
        if parent is not None:
            homed[parent] |= homed[slot]
    return homed


def test_join_instructions_match_bruteforce(monkeypatch):
    # at every bag that joins two or more linked children, each query pins
    # a vertex found only under one child and one found only under another
    rng = random.Random(67)
    compiled = [
        twdp.compile_set(random_formula_set(
            rng, max_formulas=4, max_subformulae=14, allow_believes=True
        ))
        for _ in range(300)
    ]
    _no_recompile(monkeypatch)
    verdicts = []
    for cs in compiled:
        formula_of = {v: f for f, v in cs.cg.vertex_of.items()}
        homed = _homed_below(cs)
        linked: dict[int, list[int]] = {}  # slot -> its linked children
        for child, (_, parent, _) in enumerate(cs.program):
            if parent is not None:
                linked.setdefault(parent, []).append(child)
        for children in linked.values():
            sides = [homed[child] for child in children if homed[child]]
            if len(sides) < 2:
                continue
            pinned = [formula_of[rng.choice(sorted(side))] for side in rng.sample(sides, 2)]
            query = [f if rng.random() < 0.5 else lnot(f) for f in pinned]
            query += rng.sample(list(formula_of.values()), rng.randint(0, 2))
            verdict = dp_sat(query, universe=cs)
            assert verdict == (sat_bruteforce(query) is not None), query
            verdicts.append(verdict)
    assert len(verdicts) >= 50
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_program_work_linear_at_fixed_width():
    # one instruction per bag left and one link per bag that shares a vertex
    # with its parent: 2m - 3 on chain(m)
    small, large = (program_work(twdp.compile_set(chain(m)).program) for m in (1000, 2000))
    assert (small, large) == (1997, 3997)
    assert large <= 2.05 * small


def _banded(rng, size, band=3):
    """``size`` random formulas, the k-th over a window of ``band`` of
    ``size // 2 + band`` variables that slides with k (the shape of the
    benchmark's banded sets)."""
    names = [f"x{i}" for i in range(size // 2 + band)]
    return [
        random_formula(rng, names[lo:lo + band], max_depth=3)
        for lo in (k * (len(names) - band) // size for k in range(size))
    ]


@pytest.mark.parametrize("size", [100, 300, 1000, 3000])
def test_peak_live_tables_logarithmic_on_banded_sets(size):
    # children come largest subtree first and fold into their parent as soon
    # as they are done, so an open table's every later sibling subtree is at
    # most half its parent's: log2(bags) + 1 tables, and one more while the
    # parent opens at a fold
    gamma = _banded(random.Random(size), size)
    program = twdp.compile_set(gamma).program
    assert len(program) >= size // 2
    assert peak_live_tables(program) <= math.log2(len(program)) + 2


def _executor_cases(rng):
    """(kind, formula set, decomposition or None) for the executor test:
    random sets, sets over disjoint variables (children that share no vertex
    with their parent), edgeless universes of variables, constants and
    belief atoms (the DL lower-bound families' universes are variables and
    ``F``), and random sets under a caller's decomposition."""
    for i in range(300):
        kind = ("random", "disjoint", "edgeless", "caller")[i % 4]
        if kind == "disjoint":
            gamma = [*random_formula_set(rng, variables=["p", "q"]),
                     *random_formula_set(rng, variables=["r", "s"])]
        elif kind == "edgeless":
            atoms = [*map(Var, "pqrst"), Const(False), Believes(land(Var("p"), Var("q")))]
            gamma = rng.sample(atoms, rng.randint(1, len(atoms)))
        else:
            gamma = random_formula_set(rng, max_formulas=4, max_subformulae=12,
                                       allow_believes=True)
        td = None
        if kind == "caller":
            graph = build_constraint_graph(gamma).graph
            order = list(graph.vertices)
            rng.shuffle(order)
            td = decomposition_from_order(graph, order)
        yield kind, gamma, td


def test_run_dp_matches_bruteforce_on_random_pins():
    # random pin lists on compiled sets, against the truth table of the
    # pinned formulas; counts the cases the bitset executor must get right
    rng = random.Random(2024)
    seen = dict.fromkeys(
        ("contradiction", "one bag", "edgeless", "unlinked child", "caller"), 0)
    verdicts = []
    for kind, gamma, td in _executor_cases(rng):
        cs = twdp.compile_set(gamma, td)
        formula_of = {v: f for f, v in cs.cg.vertex_of.items()}
        for _ in range(6):
            units = [(rng.choice(list(formula_of)), rng.random() < 0.5)
                     for _ in range(rng.randint(0, 4))]
            if units and rng.random() < 0.2:
                v, value = rng.choice(units)
                units.append((v, not value))
            query = [formula_of[v] if value else lnot(formula_of[v]) for v, value in units]
            verdict = twdp._run_dp(cs.program, twdp.vertex_pins(cs.home, units))
            assert verdict == (sat_bruteforce(query) is not None), (kind, gamma, units)
            verdicts.append(verdict)
            pinned = dict(units)
            slots = [cs.home[v][0] for v in pinned]
            seen["contradiction"] += len(pinned) < len(set(units))
            seen["one bag"] += len(slots) > len(set(slots))
        seen["edgeless"] += not cs.cg.graph.edges and len(cs.program) > 1
        seen["unlinked child"] += any(
            parent is None for _, parent, _ in cs.program[:-1])
        seen["caller"] += td is not None and len(cs.program) > 1
    assert min(seen.values()) >= 20, seen
    assert verdicts.count(True) >= 200 and verdicts.count(False) >= 200


def test_decomposition_missing_a_vertex_is_rejected():
    p, q = Var("p"), Var("q")
    td = TreeDecomposition({1: frozenset({2})}, frozenset())
    with pytest.raises(ValueError, match=r"invalid decomposition: .*vertex 1 appears in no bag"):
        dp_sat([p, q], td)


@pytest.mark.parametrize("bags, edges, problem", [
    ({1: {1}, 2: {2}}, set(), "2 bags need 1 tree edges, found 0"),
    ({1: {1}, 2: {2}, 3: {1, 2}}, {(1, 2), (2, 1)}, "bag 3 is disconnected from the rest"),
    ({1: {1, 2}}, {(1, 5)}, r"edge \(1,5\) references a missing bag"),
])
def test_disconnected_decomposition_is_rejected(bags, edges, problem):
    td = TreeDecomposition({b: frozenset(bag) for b, bag in bags.items()}, frozenset(edges))
    with pytest.raises(ValueError, match=rf"invalid decomposition: \(tree\) {problem}"):
        dp_sat([Var("p"), Var("q")], td)


def test_vertex_in_unconnected_bags_is_rejected():
    # vertex 1 (p) sits in bags 1 and 3, but bag 2 between them lacks it
    p, q = Var("p"), Var("q")
    td = TreeDecomposition(
        {1: frozenset({1}), 2: frozenset({2}), 3: frozenset({1})},
        frozenset({(1, 2), (2, 3)}),
    )
    problem = r"\(iii\) bags 1 and 3 both hold vertex 1 but are not connected"
    with pytest.raises(ValueError, match="invalid decomposition: " + problem):
        dp_sat([p, q], td)


def test_bag_vertex_outside_the_graph_is_rejected():
    # p & q has vertices 1-3; a bag that also holds 99 is no decomposition
    # of its graph, and 99 must not count toward the width either
    td = TreeDecomposition({1: frozenset({1, 2, 3, 99})}, frozenset())
    with pytest.raises(ValueError, match="bag 1 references vertex 99 outside the graph"):
        dp_sat([land(Var("p"), Var("q"))], td)
    with pytest.raises(ValueError, match="vertex 99 outside the graph"):
        twdp.compile_set([land(Var("p"), Var("q"))], td, limits=Limits(dp_width=2))


def test_caller_and_min_fill_decompositions_give_one_program():
    # a caller's td goes through validate_decomposition, min-fill's does
    # not; the same td must give the same program either way
    rng = random.Random(71)
    for _ in range(200):
        gamma = random_formula_set(rng, max_formulas=4, max_subformulae=16, allow_believes=True)
        own = twdp.compile_set(gamma)
        given = twdp.compile_set(gamma, heuristic_decomposition(own.cg.graph))
        assert (given.program, given.home, given.width) == (own.program, own.home, own.width)


def test_td_round_trip_keeps_min_fill_program():
    # a .td file stores each edge as (min, max), which for min-fill's
    # decomposition is (child, parent): read back, it needs no rooting and
    # plans to the program min-fill's own gives
    rng = random.Random(79)
    sets = [random_formula_set(rng, max_formulas=5, max_subformulae=20, allow_believes=True)
            for _ in range(200)]
    for gamma in sets + [chain(50)]:
        own = twdp.compile_set(gamma)
        text = emit_td(heuristic_decomposition(own.cg.graph), own.cg.graph.n)
        parsed, _ = parse_td(text)
        assert twdp._oriented(parsed) is parsed
        assert twdp.compile_set(gamma, parsed).program == own.program


def test_plan_golden():
    # node for node, the program and homes of a set whose min-fill
    # decomposition (bags 1-9, each edge (child, parent)) has:
    # - bag 6 = {3, 6, 7, 8}, a superset of its parent bag 7 = {6, 7, 8},
    #   so bag 7 and, in turn, bags 8 and 9 take it in; the root slot 5 holds it;
    # - three linked children of the root: bag 5 (slot 3) and bag 2 (slot 1)
    #   with two bags in their subtrees, bag 3 (slot 4) with one, run largest
    #   subtree first;
    # - bag 1 = {1}, the constant F, which shares nothing with its parent
    #   bag 2 = {2, 3, 7} and so has no link
    # Vertices: F 1, p 2, q 3, !q 4, r 5, q | r 6, q & p 7, (q | r <-> q & p) 8
    # and the third formula 9.
    gamma = [parse_formula(t) for t in ("F", "p", "!q ^ (q | r <-> q & p)", "r")]
    cs = twdp.compile_set(gamma)
    assert cs.program == [
        (1, None, None),
        (15, 5, ((3, 17), (4, 34), (8, 136))),
        (15, 3, ((1, 1), (4, 2), (8, 4), (2, 8))),
        (15, 5, ((2, 5), (1, 10), (8, 80), (4, 160))),
        (15, 5, ((4, 65), (10, 130), (1, 20))),
        (255, None, None),
    ]
    assert cs.home == {1: (0, 0), 2: (1, 10), 3: (5, 170), 4: (3, 10), 5: (4, 12),
                       6: (5, 195), 7: (5, 204), 8: (5, 240), 9: (2, 12)}
    # a caller's copy of that decomposition with its bag ids permuted and
    # every edge flipped is rooted at its smallest id, new bag 1 = {4, 8, 9}
    own = heuristic_decomposition(cs.cg.graph)
    new = dict(zip(range(1, 10), (7, 3, 9, 1, 5, 8, 2, 6, 4)))
    td = TreeDecomposition({new[b]: bag for b, bag in own.bags.items()},
                           frozenset((new[p], new[c]) for c, p in own.edges))
    walked = twdp.compile_set(gamma, td)
    assert walked.program == [
        (1, None, None),
        (15, 3, ((3, 17), (4, 34), (8, 136))),
        (15, 3, ((4, 65), (10, 130), (1, 20))),
        (255, 4, ((10, 1), (5, 2), (160, 4), (80, 8))),
        (15, 5, ((1, 1), (8, 2), (2, 4), (4, 8))),
        (15, None, None),
    ]
    assert walked.home == {1: (0, 0), 2: (1, 10), 3: (4, 5), 4: (5, 6), 5: (2, 12),
                           6: (3, 195), 7: (3, 204), 8: (5, 10), 9: (5, 12)}
    # bag ids that are spaced out but already in (child, parent) form plan
    # as min-fill's own
    spaced = TreeDecomposition({10 * b: bag for b, bag in own.bags.items()},
                               frozenset((10 * c, 10 * p) for c, p in own.edges))
    again = twdp.compile_set(gamma, spaced)
    assert (again.program, again.home) == (cs.program, cs.home)


def test_caller_decomposition_in_any_form_matches_bruteforce():
    # min-fill's decomposition with its bag ids shuffled and every edge
    # flipped is seldom in the (child, parent) form, so compile_graph mostly
    # roots it by walking it from its smallest bag
    rng = random.Random(73)
    walked = verdicts = 0
    for _ in range(200):
        gamma = random_formula_set(rng, max_formulas=5, max_subformulae=20, allow_believes=True)
        cg = build_constraint_graph(gamma)
        own = heuristic_decomposition(cg.graph)
        ids = list(own.bags)
        rng.shuffle(ids)
        new = dict(zip(own.bags, ids))
        td = TreeDecomposition({new[b]: bag for b, bag in own.bags.items()},
                               frozenset((new[p], new[c]) for c, p in own.edges))
        walked += twdp._oriented(td) is not td
        assert dp_sat(gamma, td) == dp_sat(gamma)
        cs = twdp.compile_set(gamma, td)
        formula_of = {v: f for f, v in cs.cg.vertex_of.items()}
        for _ in range(4):
            units = [(rng.choice(list(formula_of)), rng.random() < 0.5)
                     for _ in range(rng.randint(0, 4))]
            query = [formula_of[v] if value else lnot(formula_of[v]) for v, value in units]
            verdict = twdp._run_dp(cs.program, twdp.vertex_pins(cs.home, units))
            assert verdict == (sat_bruteforce(query) is not None), (gamma, units)
            verdicts += verdict
    assert walked >= 150 and 100 <= verdicts <= 700


def test_decomposition_missing_a_scope_is_rejected():
    # every vertex of p & q (1: p, 2: q, 3: p & q) is in a bag, but no bag
    # holds p and q together
    td = TreeDecomposition({1: frozenset({1, 3}), 2: frozenset({2, 3})}, frozenset({(1, 2)}))
    problem = r"\(ii\) edge \(1,2\) is contained in no bag"
    with pytest.raises(ValueError, match="invalid decomposition: " + problem):
        dp_sat([land(Var("p"), Var("q"))], td)


def test_program_is_built_once_per_compiled_set(monkeypatch):
    plans: list[bool] = []  # one entry per _plan call: was a query running?
    running: list[bool] = []

    def counted_plan(*args, _original=twdp._plan):
        plans.append(bool(running))
        return _original(*args)

    def counted_dp_sat(*args, _original=twdp.dp_sat, **kwargs):
        running.append(True)
        try:
            return _original(*args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(twdp, "_plan", counted_plan)
    monkeypatch.setattr(twdp, "dp_sat", counted_dp_sat)
    p, q, r = Var("p"), Var("q"), Var("r")
    sigma = AeTheory((
        limp(Believes(p), q),
        lor(Believes(land(p, Believes(q))), lnot(Believes(r))),
        limp(Believes(lxor(q, r)), p),
    ))
    oracle = entailment_oracle("twdp")
    expansion_exists(sigma, oracle)
    assert plans == [False] and len(oracle._cache) > 1
    plans.clear()
    oracle = entailment_oracle("twdp")
    assert extension_exists(gen_dl_lower(3), oracle)[0]
    assert plans == [False] and len(oracle._cache) > 1


def test_several_constraints_per_head_vertex_match_bruteforce():
    # each formula is pinned by a constraint its own vertex heads, beside its
    # connective's, and random pairs of subterms are held equal or opposite
    rng = random.Random(616161)
    several = 0
    for _ in range(200):
        gamma = random_formula_set(rng, max_subformulae=8)
        cg = build_constraint_graph(gamma)
        extra = [((cg.vertex_of[f],), ((1,),)) for f in gamma]
        formulas = list(gamma)
        subterms = list(cg.vertex_of)
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(subterms), rng.choice(subterms)
            same = rng.random() < 0.5
            rows = ((0, 0), (1, 1)) if same else ((0, 1), (1, 0))
            extra.append(((cg.vertex_of[a], cg.vertex_of[b]), rows))
            formulas.append((liff if same else lxor)(a, b))
        constraints = cg.constraints + tuple(extra)
        heads = [scope[0] for scope, _ in constraints]
        several += len(heads) > len(set(heads))
        compiled = twdp.compile_graph(twdp.constraint_graph(cg.graph.n, constraints, cg.vertex_of))
        assert twdp._run_dp(compiled.program, twdp.vertex_pins(compiled.home, [])) == (
            sat_bruteforce(formulas) is not None), formulas
    assert several >= 150


# ---------------------------------------------------------------------------
# A set compiled under its own assertions: asserted operator roots fold
# ---------------------------------------------------------------------------


def _proper_subterms(f):
    """Every subterm strictly below ``f``, not entering ``L``."""
    below, stack = set(), list(f.args) if isinstance(f, App) else []
    while stack:
        g = stack.pop()
        if g not in below:
            below.add(g)
            stack.extend(g.args if isinstance(g, App) else ())
    return below


def _fold_case(rng, kind):
    """A random set with the shape ``kind`` added: a negated root, a
    repeated one, a root that is a subterm of an earlier or a later formula,
    repeated arguments or xor3, leaves that never fold, or 0-ary roots."""
    gamma = random_formula_set(rng, max_formulas=4, max_subformulae=10, allow_believes=True)
    operators = [g for f in gamma for g in (f, *_proper_subterms(f))
                 if isinstance(g, App) and g.op != "not" and g.args]
    p, q, r = Var("p"), Var("q"), Var("r")
    if kind == "negated" and operators:
        gamma.append(_negated(rng.choice(operators), rng.randint(1, 3)))
    elif kind == "repeated":
        gamma.append(_negated(rng.choice(gamma), rng.choice((0, 0, 1, 2))))
    elif kind == "subterm" and operators:
        gamma.insert(rng.randint(0, len(gamma)), rng.choice(operators))
    elif kind == "arguments":
        gamma += rng.sample([land(p, p), lor(p, lnot(p)), lxor3(p, q, r), lxor3(p, p, q),
                             lnot(lxor3(q, r, r)), liff(q, q)], 2)
    elif kind == "leaves":
        gamma += rng.sample([p, lnot(q), Const(True), Const(False), lnot(Const(False)),
                             Believes(land(p, q)), lnot(Believes(r))], 2)
    elif kind == "nullary":
        gamma.append(_negated(App(rng.choice(("true", "false")), ()), rng.randint(0, 1)))
    rng.shuffle(gamma)
    return gamma


def test_asserted_compile_matches_bruteforce_and_the_plain_graph():
    # the folded cores are exactly the operator cores with arguments that
    # are no proper subterm of any core; every other core keeps its vertex
    # and is pinned, and the verdict is the truth table's and that of the
    # same set over a decomposition of its plain graph
    rng = random.Random(3030)
    kinds = ("negated", "repeated", "subterm", "arguments", "leaves", "nullary")
    seen = dict.fromkeys(("folded under !", "kept and pinned", "contradictory root",
                          "repeated root", "leaf root", "0-ary root", "sat", "unsat"), 0)
    for i in range(2400):
        gamma = _fold_case(rng, kinds[i % len(kinds)])
        cores = [twdp._core(f) for f in gamma]
        below = set().union(*(_proper_subterms(c) for c, _ in cores))
        folds = {c for c, _ in cores if isinstance(c, App) and c.args and c not in below}
        compiled = twdp.compile_set(gamma, asserted=True)
        assert folds.isdisjoint(compiled.cg.vertex_of), gamma
        assert set(compiled.cg.vertex_of) == below | {c for c, _ in cores if c not in folds}
        for f, (core, value) in zip(gamma, cores):
            seen["folded under !"] += core in folds and f is not core
            seen["kept and pinned"] += isinstance(core, App) and core in below
            seen["leaf root"] += isinstance(core, (Var, Const, Believes))
            seen["0-ary root"] += isinstance(core, App) and not core.args
        seen["contradictory root"] += any((c, not v) in cores for c, v in cores if c in folds)
        seen["repeated root"] += len(set(gamma)) < len(gamma)
        expected = sat_bruteforce(gamma) is not None
        seen["sat" if expected else "unsat"] += 1
        assert dp_sat(gamma) == expected, gamma
        plain = heuristic_decomposition(build_constraint_graph(gamma).graph)
        assert dp_sat(gamma, plain) == expected, gamma
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("gamma", [
    [App("false", ())], [App("true", ())], [lnot(App("true", ()))], [lnot(App("false", ()))],
    [App("true", ()), App("false", ())], [Const(False)], [lnot(Const(False))],
])
def test_nullary_roots_and_constants_keep_their_vertex(gamma):
    # a 0-ary root has no arguments to range over, so it is pinned like a
    # constant instead of folding to a constraint with an empty scope
    compiled = twdp.compile_set(gamma, asserted=True)
    assert set(compiled.cg.vertex_of) == {twdp._core(f)[0] for f in gamma}
    assert dp_sat(gamma) == (sat_bruteforce(gamma) is not None)


def test_asserted_chain_work_and_width():
    # each asserted link x(i) -> x(i+1) folds to a constraint over its two
    # variables: a path of m vertices, width 1 against the plain graph's 2,
    # with the plain program's work, 2m - 3
    small, large = (twdp.compile_set(chain(m), asserted=True) for m in (1000, 2000))
    assert (small.cg.graph.n, large.cg.graph.n) == (1000, 2000)
    assert (program_work(small.program), program_work(large.program)) == (1997, 3997)
    assert program_work(large.program) <= 2.05 * program_work(small.program)
    assert (small.width, large.width) == (1, 1)
    assert twdp.compile_set(chain(1000)).width == 2


@pytest.mark.parametrize("size", [100, 300, 1000, 3000])
def test_peak_live_tables_logarithmic_on_asserted_banded_sets(size):
    # the bound of test_peak_live_tables_logarithmic_on_banded_sets, on the
    # program dp_sat runs for the same set
    gamma = _banded(random.Random(size), size)
    program = twdp.compile_set(gamma, asserted=True).program
    assert len(program) >= size // 3
    assert peak_live_tables(program) <= math.log2(len(program)) + 2


# Prints every set the twdp oracle compiles (its vertices in order, and its
# program) and every verdict, over seeded queries: without a universe, outside
# a compiled universe, and from DL and AEL enumeration.
_ORDER_PROBE = """
import random
from nmlkit import twdp
from nmlkit.ael import expansion_exists
from nmlkit.dl import extension_exists
from nmlkit.formula import format_formula
from nmlkit.randgen import random_ae_theory, random_formula_set, random_literal_default_theory

compile_graph = twdp.compile_graph

def traced(cg, *args, **kwargs):
    compiled = compile_graph(cg, *args, **kwargs)
    print([format_formula(f) for f in cg.vertex_of], compiled.program)
    return compiled

twdp.compile_graph = traced
oracle = twdp.entailment_oracle("twdp")
for seed in range(20):
    print(oracle.satisfiable(random_formula_set(random.Random(seed), max_formulas=4)))
for seed in range(10):
    rng = random.Random(seed)
    universe, outside = random_formula_set(rng), random_formula_set(rng, variables=["p", "u", "v"])
    oracle = twdp.entailment_oracle("twdp")
    oracle.compile_universe(universe)
    print(oracle.satisfiable([*universe, *outside]), oracle.satisfiable(universe))
for seed in range(30):
    theory = random_literal_default_theory(random.Random(seed), max_rules=5)
    exists, witnesses = extension_exists(theory, twdp.entailment_oracle("twdp"))
    print(exists, [sorted(w.generating) for w in witnesses])
for seed in range(30):
    exists, full = expansion_exists(random_ae_theory(random.Random(seed)), twdp.entailment_oracle("twdp"))
    print(exists, [str(c) for c in full])
"""


def test_oracle_compile_order_does_not_depend_on_the_hash_seed():
    # nodes hash by identity, so a set of them iterates in no fixed order;
    # each compile must follow its caller's order, the same under any seed
    outputs = []
    for seed in ("1", "2", "3"):
        env = {k: v for k, v in os.environ.items() if k != "NMLKIT_LIMITS"}
        env.update(PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", _ORDER_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count("\n") > 90
    assert outputs[0] == outputs[1] == outputs[2]
