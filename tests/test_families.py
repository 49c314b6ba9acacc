import pytest

from nmlkit.ael import AeTheory
from nmlkit.dl import DefaultTheory
from nmlkit.families import (
    PseudoCliqueSpec,
    chain,
    check_class,
    gen_ael_lower,
    gen_dl_lower,
    gen_imp_lower,
    gen_pseudo_clique,
)
from nmlkit.formula import App, FALSE, Var, land, lor
from nmlkit.structures import (
    build_ael_structure,
    build_dl_structure,
    build_imp_structure,
    gaifman_graph,
    make_graph,
)
from nmlkit.treewidth import exact_treewidth, is_pseudo_clique


def restrict(g, keep):
    keep = sorted(keep)
    idx = {v: i + 1 for i, v in enumerate(keep)}
    edges = [(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx]
    return make_graph(len(keep), edges), idx


def test_gen_pseudo_clique_path():
    g = gen_pseudo_clique(PseudoCliqueSpec(2, 1))
    assert g.n == 3 and len(g.edges) == 2
    assert g.labels == {1: "main", 2: "main", 3: "edge"}


def test_gen_pseudo_clique_figure_shape():
    g = gen_pseudo_clique(PseudoCliqueSpec(4, 3))
    assert g.n == 22
    assert sum(1 for lab in g.labels.values() if lab == "edge") == 18
    assert is_pseudo_clique(g, {1, 2, 3, 4})


def test_gen_pseudo_clique_zero_cardinality_is_clique():
    g = gen_pseudo_clique(PseudoCliqueSpec(3, 0))
    assert g.n == 3 and len(g.edges) == 3


def test_pseudo_clique_spec_validation():
    with pytest.raises(ValueError):
        PseudoCliqueSpec(1, 0)
    with pytest.raises(ValueError):
        PseudoCliqueSpec(3, -1)
    with pytest.raises(ValueError):
        PseudoCliqueSpec(3, {(1, 2): 1})  # missing pairs
    spec = PseudoCliqueSpec(3, {(1, 2): 1, (1, 3): 0, (2, 3): 2})
    assert gen_pseudo_clique(spec).n == 6


def test_chain_needs_a_positive_length():
    assert chain(1) == [Var("x1")]
    for m in (0, -3):
        with pytest.raises(ValueError, match="m must be positive"):
            chain(m)


def test_gen_dl_lower_printed_n2():
    theory = gen_dl_lower(2, "printed")
    parts = [
        (r.prerequisite, r.justification, r.conclusion) for r in theory.defaults
    ]
    assert parts == [
        (Var("x1"), Var("y1"), FALSE),
        (Var("x1"), Var("y2"), FALSE),
        (Var("x2"), Var("y2"), FALSE),
    ]
    assert theory.knowledge == ()


def test_gen_dl_lower_symmetric_embeds_pseudo_clique():
    theory = gen_dl_lower(3, "symmetric")
    st = build_dl_structure(theory)
    g = gaifman_graph(st)
    xs = {st.formula_elements[Var(f"x{i}")] for i in range(1, 4)}
    keep = xs | set(st.default_elements)
    sub, idx = restrict(g, keep)
    assert is_pseudo_clique(sub, {idx[v] for v in xs})


def test_gen_dl_lower_printed_width_strictly_increasing():
    widths = []
    for n in range(2, 6):
        g = gaifman_graph(build_dl_structure(gen_dl_lower(n, "printed")))
        widths.append(exact_treewidth(g)[0])
    assert widths == sorted(set(widths))
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_gen_dl_lower_no_triangles():
    # rule elements touch three distinct non-adjacent literals, so the
    # structure graph stays triangle-free
    from nmlkit.treewidth import pseudo_clique_lower_bound

    for n in (2, 3, 4):
        g = gaifman_graph(build_dl_structure(gen_dl_lower(n, "printed")))
        adj = g.adjacency()
        for u, v in g.edges:
            assert not (adj[u] & adj[v]), f"triangle through ({u},{v})"


def test_gen_ael_lower_k2():
    sigma = gen_ael_lower(2)
    x1, x2 = Var("x1"), Var("x2")
    assert sigma.formulas == (lor(x1, x1), lor(x1, x2), lor(x2, x2))


def test_gen_ael_lower_embeds_pseudo_clique():
    sigma = gen_ael_lower(3)
    st = build_ael_structure(sigma.formulas)
    g = gaifman_graph(st)
    diag = {st.formula_elements[lor(Var(f"x{i}"), Var(f"x{i}"))] for i in range(1, 4)}
    sub, idx = restrict(g, set(g.vertices) - diag)
    mains = {idx[st.formula_elements[Var(f"x{i}")]] for i in range(1, 4)}
    assert is_pseudo_clique(sub, mains)


def test_gen_ael_lower_width_is_k_minus_one():
    for k in range(3, 7):
        g = gaifman_graph(build_ael_structure(gen_ael_lower(k).formulas))
        assert exact_treewidth(g)[0] == k - 1


def test_gen_imp_lower_xor3():
    premises, conclusions = gen_imp_lower("xor3", 4)
    assert len(premises) == 2 and len(conclusions) == 1
    assert all(
        isinstance(f, App) and f.op == "xor3" for f in premises + conclusions
    )
    assert check_class((premises, conclusions), "imp_xor3")


def test_gen_imp_lower_cnf_dnf():
    premises, conclusions = gen_imp_lower("cnf_dnf", 3)
    assert len(premises) == 6
    for f in premises:
        assert isinstance(f, App) and f.op == "or"
        assert all(isinstance(a, Var) for a in f.args)
    assert check_class((premises, conclusions), "imp_cnf_dnf")


def test_gen_imp_lower_cnf_dnf_width_growth():
    widths = []
    for n in range(3, 7):
        premises, conclusions = gen_imp_lower("cnf_dnf", n)
        g = gaifman_graph(build_imp_structure(premises, conclusions))
        widths.append(exact_treewidth(g)[0])
    # strictly increasing at a fixed offset over the main count
    assert widths == [n for n in range(3, 7)]


def test_check_class_dl():
    assert check_class(gen_dl_lower(3, "printed"), "dl_literals")
    assert check_class(gen_dl_lower(3, "symmetric"), "dl_literals")
    bad = DefaultTheory((Var("w"),), gen_dl_lower(2).defaults)
    assert not check_class(bad, "dl_literals")
    from nmlkit.dl import DefaultRule

    props = DefaultTheory((Var("s"),), (DefaultRule(Var("a"), Var("b"), FALSE),))
    assert check_class(props, "dl_props_false")
    assert check_class(gen_dl_lower(2), "dl_props_false")
    two_kb = DefaultTheory((Var("a"), Var("b")), ())
    assert not check_class(two_kb, "dl_props_false")


def test_check_class_ael():
    assert check_class(gen_ael_lower(3), "ael_disjunctions")
    from nmlkit.formula import Believes, lnot

    good = AeTheory((lor(Believes(Var("p")), Var("q")),))
    assert check_class(good, "ael_disjunctions")
    bad = AeTheory((lnot(Var("p")),))
    assert not check_class(bad, "ael_disjunctions")


def test_check_class_imp():
    assert not check_class(gen_imp_lower("xor3", 4), "imp_cnf_dnf")
    premises, _ = gen_imp_lower("cnf_dnf", 3)
    mixed = (premises, [land(Var("a"), lor(Var("b"), Var("c")))])
    assert not check_class(mixed, "imp_cnf_dnf")
    with pytest.raises(ValueError):
        check_class(gen_ael_lower(2), "no_such_class")
