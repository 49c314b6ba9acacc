import random

import pytest

from nmlkit.dl import DefaultRule, DefaultTheory
from nmlkit.formula import (
    Basis,
    Believes,
    FALSE,
    TRUE,
    Var,
    limp,
    lnot,
    lor,
    parse_formula,
)
from nmlkit.randgen import random_formula_set
from nmlkit.structures import (
    Graph,
    build_ael_structure,
    build_dl_structure,
    build_imp_structure,
    build_prop_structure,
    element_descriptions,
    emit_gr,
    emit_labels,
    gaifman_graph,
    make_graph,
    parse_gr,
    parse_labels,
    primal_graph,
)


def elements(structure, *formulas):
    return {structure.formula_elements[f] for f in formulas}


def test_prop_structure_disjunction():
    p, q = Var("p"), Var("q")
    st = build_prop_structure([lor(p, q)])
    assert len(st.universe) == 3
    assert st.tuples("var") == {(st.formula_elements[p],), (st.formula_elements[q],)}
    assert st.tuples("repr") == {(st.formula_elements[lor(p, q)],)}
    root = st.formula_elements[lor(p, q)]
    assert st.tuples("conn_or_1") == {(st.formula_elements[p], root)}
    assert st.tuples("conn_or_2") == {(st.formula_elements[q], root)}


def test_prop_structure_empty():
    st = build_prop_structure([])
    assert st.universe == ()
    assert all(not tups for tups in st.relations.values())


def test_prop_structure_sharing():
    p = Var("p")
    st = build_prop_structure([p, lnot(p)])
    assert len(st.universe) == 2
    assert len(st.tuples("repr")) == 2
    assert st.tuples("conn_not_1") == {
        (st.formula_elements[p], st.formula_elements[lnot(p)])
    }


def test_prop_structure_rejects_belief():
    with pytest.raises(ValueError):
        build_prop_structure([Believes(Var("p"))])


def test_imp_structure_maximal_sharing():
    p = Var("p")
    st = build_imp_structure([p], [p])
    assert len(st.universe) == 1
    (e,) = st.universe
    for rel in ("reprPrem", "reprConc", "repr", "var"):
        assert st.tuples(rel) == {(e,)}


def test_imp_structure_modus_ponens_shape():
    p, q = Var("p"), Var("q")
    st = build_imp_structure([limp(p, q)], [q])
    assert len(st.universe) == 3
    assert st.tuples("reprPrem") == {(st.formula_elements[limp(p, q)],)}
    assert st.tuples("reprConc") == {(st.formula_elements[q],)}


def test_imp_structure_empty():
    st = build_imp_structure([], [])
    assert st.universe == ()


def test_dl_structure_simple_rule():
    theory = DefaultTheory((), (DefaultRule(TRUE, Var("p"), Var("q")),))
    st = build_dl_structure(theory)
    assert sorted(element_descriptions(st).values()) == ["!p", "T", "d1", "p", "q"]
    d1 = st.default_elements[0]
    assert st.tuples("default") == {(d1,)}
    assert st.tuples("prem") == {(st.formula_elements[TRUE], d1)}
    assert st.tuples("just") == {(st.formula_elements[Var("p")], d1)}
    assert st.tuples("concl") == {(st.formula_elements[Var("q")], d1)}
    assert st.tuples("conn_not_1") == {
        (st.formula_elements[Var("p")], st.formula_elements[lnot(Var("p"))])
    }


def test_dl_structure_knowledge_only():
    theory = DefaultTheory((Var("r"),), ())
    st = build_dl_structure(theory)
    assert len(st.universe) == 1
    assert st.tuples("kb") == {(st.formula_elements[Var("r")],)}


def test_dl_structure_gaifman_star():
    # one rule x1 : y1 / F gives a star around the rule element plus the
    # pendant negated-justification edge
    theory = DefaultTheory((), (DefaultRule(Var("x1"), Var("y1"), FALSE),))
    st = build_dl_structure(theory)
    g = gaifman_graph(st)
    d1 = st.default_elements[0]
    x1 = st.formula_elements[Var("x1")]
    y1 = st.formula_elements[Var("y1")]
    ny1 = st.formula_elements[lnot(Var("y1"))]
    bot = st.formula_elements[FALSE]
    expected = {
        tuple(sorted(e))
        for e in [(d1, x1), (d1, y1), (d1, bot), (y1, ny1)]
    }
    assert set(g.edges) == expected


def test_ael_structure_belief_implication():
    p = Var("p")
    sigma = [limp(Believes(p), p)]
    st = build_ael_structure(sigma)
    assert sorted(element_descriptions(st).values()) == ["!L p", "L p", "L p -> p", "p"]
    assert st.tuples("L") == {(st.formula_elements[Believes(p)],)}
    assert st.tuples("repr") == {(st.formula_elements[sigma[0]],)}
    # belief atoms carry an argument link but no var marking exists
    assert st.tuples("conn_L_1") == {
        (st.formula_elements[p], st.formula_elements[Believes(p)])
    }
    assert "var" not in st.relations


def test_ael_structure_empty():
    assert build_ael_structure([]).universe == ()


def test_ael_structure_no_belief():
    sigma = [lor(Var("x1"), Var("x2"))]
    st = build_ael_structure(sigma)
    assert len(st.universe) == 3
    assert st.tuples("L") == frozenset()


def test_ael_negation_merged_with_existing_subformula():
    p = Var("p")
    sigma = [limp(lnot(Believes(p)), p)]
    st = build_ael_structure(sigma)
    # the negated belief atom already occurs as a subformula: no duplicate
    assert len(st.universe) == 4


def test_gaifman_simple_path():
    p, q = Var("p"), Var("q")
    st = build_prop_structure([lor(p, q)])
    g = gaifman_graph(st)
    root = st.formula_elements[lor(p, q)]
    assert set(g.edges) == {
        tuple(sorted((st.formula_elements[p], root))),
        tuple(sorted((st.formula_elements[q], root))),
    }


def test_gaifman_empty():
    g = gaifman_graph(build_prop_structure([]))
    assert g.n == 0 and not g.edges


def test_universe_size_matches_subformula_count():
    rng = random.Random(9)
    from nmlkit.formula import subformulae

    for _ in range(50):
        gamma = random_formula_set(rng, max_subformulae=10)
        st = build_prop_structure(gamma)
        assert len(st.universe) == len(subformulae(gamma))


def test_default_degree_three_when_parts_distinct():
    theory = DefaultTheory(
        (), (DefaultRule(Var("a"), Var("b"), Var("c")),)
    )
    st = build_dl_structure(theory)
    adj = gaifman_graph(st).adjacency()
    assert len(adj[st.default_elements[0]]) == 3


def test_graph_type_validation():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 3)}))
    g = make_graph(3, [(3, 1), (1, 2)])
    assert (1, 3) in g.edges
    # labels and descriptions name vertices, as edges do
    for v in (0, 4):
        with pytest.raises(ValueError, match=f"vertex {v} outside 1..3"):
            Graph(3, frozenset(), labels={v: "main"})
        with pytest.raises(ValueError, match=f"vertex {v} outside 1..3"):
            Graph(3, frozenset(), descriptions={v: "x"})


def test_primal_graph_is_built_unchecked(monkeypatch):
    # its edges are sorted pairs of distinct in-range vertices by
    # construction, so Graph does not walk them again; a direct Graph, a
    # make_graph and a .gr file still do
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 12)
        scopes = [tuple(rng.choices(range(1, n + 1), k=rng.randint(1, 4)))
                  for _ in range(rng.randint(0, 8))]
        pairs = [(u, v) for scope in scopes for u in scope for v in scope]
        assert primal_graph(n, scopes) == make_graph(n, pairs)
    checked = []
    original = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__",
                        lambda self, flag: checked.append(flag) or original(self, flag))
    primal_graph(3, [(1, 2, 3)])
    make_graph(3, [(3, 1)])
    parse_gr("p tw 2 1\n1 2\n")
    assert checked == [False, True, True]


def test_builders_print_nothing(monkeypatch):
    # element text is printed only when a .labels file is written
    def no_printing(f):
        raise AssertionError("format_formula called")

    monkeypatch.setattr("nmlkit.structures.format_formula", no_printing)
    p, q = Var("p"), Var("q")
    structures = [
        build_prop_structure([lor(p, lnot(q))]),
        build_imp_structure([limp(p, q)], [q]),
        build_dl_structure(DefaultTheory((p,), (DefaultRule(TRUE, q, lnot(p)),))),
        build_ael_structure([limp(Believes(p), q)]),
    ]
    for st in structures:
        g = gaifman_graph(st)
        assert g.n == len(st.universe) and g.edges and g.descriptions is None
    with pytest.raises(AssertionError, match="format_formula called"):
        element_descriptions(structures[0])


def test_gr_roundtrip_and_comments():
    g = make_graph(4, [(1, 2), (2, 3), (1, 4)])
    text = emit_gr(g)
    assert text.splitlines()[0] == "p tw 4 3"
    assert parse_gr(text) == g
    assert parse_gr("c hello\n" + text).edges == g.edges
    assert emit_gr(parse_gr(text)) == text


def test_labels_roundtrip():
    g = make_graph(3, [(1, 2)], labels={1: "main", 2: "edge", 3: "none"},
                   descriptions={1: "m1", 2: "d1_1_2", 3: "x | y"})
    labels, descriptions = parse_labels(emit_labels(g))
    assert labels == g.labels
    assert descriptions[3] == "x | y"

