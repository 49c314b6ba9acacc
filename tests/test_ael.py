import random

import pytest

from nmlkit.ael import (
    AeTheory,
    FullSetCandidate,
    belief_atoms,
    expansion_exists,
    format_ae_theory,
    is_full,
    parse_ae_theory,
)
from nmlkit.encodings import expansion_existence
from nmlkit.errors import ParseError, ResourceLimitError
from nmlkit.formula import App, Basis, Believes, Var, limp, lnot
from nmlkit.limits import Limits
from nmlkit.mso import eval_mso
from nmlkit.randgen import random_ae_theory
from nmlkit.structures import build_ael_structure
from nmlkit.twdp import entailment_oracle, refutation

P = Var("p")
LP = Believes(P)


def candidate(*entries):
    return FullSetCandidate(tuple(entries))


def test_is_full_positive_choice():
    sigma = AeTheory((limp(LP, P),))
    assert is_full(sigma, candidate((LP, True)))


def test_is_full_negative_choice():
    sigma = AeTheory((limp(LP, P),))
    assert is_full(sigma, candidate((LP, False)))


def test_is_full_rejects_ungrounded_positive():
    sigma = AeTheory((limp(lnot(LP), P),))
    assert not is_full(sigma, candidate((LP, True)))
    assert not is_full(sigma, candidate((LP, False)))


def test_expansion_exists_two_full_sets():
    sigma = AeTheory((limp(LP, P),))
    exists, found = expansion_exists(sigma)
    assert exists
    # binary counting order, all-negative candidate first
    assert [c.entries for c in found] == [((LP, False),), ((LP, True),)]


def test_expansion_exists_none():
    sigma = AeTheory((limp(lnot(LP), P),))
    assert expansion_exists(sigma) == (False, [])


def test_expansion_exists_empty_theory():
    exists, found = expansion_exists(AeTheory(()))
    assert exists and found == [FullSetCandidate(())]


def test_no_belief_operator_single_expansion():
    rng = random.Random(71)
    from nmlkit.randgen import random_formula_set

    for _ in range(30):
        sigma = AeTheory(tuple(random_formula_set(rng, max_subformulae=6)))
        exists, found = expansion_exists(sigma)
        assert exists and len(found) == 1 and found[0].entries == ()


def test_nested_belief_atoms_enumerated():
    sigma = AeTheory((Believes(LP),))
    assert belief_atoms(sigma) == [LP, Believes(LP)]
    exists, found = expansion_exists(sigma)
    assert not exists


def test_polarity_total_over_belief_atoms():
    rng = random.Random(72)
    for _ in range(50):
        sigma = random_ae_theory(rng)
        atoms = belief_atoms(sigma)
        for c in expansion_exists(sigma)[1]:
            assert [bel for bel, _ in c.entries] == atoms


def test_prefix_cap():
    sigma = AeTheory((Believes(Believes(P)),))
    with pytest.raises(ResourceLimitError):
        expansion_exists(sigma, limits=Limits(search_nodes=6))


def test_search_node_budget_is_charged_before_any_candidate(monkeypatch):
    # k belief atoms cost 2^(k+1) - 1 nodes: 7 for two, 15 for three
    tried = []
    monkeypatch.setattr("nmlkit.ael.is_full", lambda *args: tried.append(args) or False)
    two = AeTheory((Believes(Believes(P)),))
    assert expansion_exists(two, limits=Limits(search_nodes=7)) == (False, [])
    assert len(tried) == 4
    tried.clear()
    three = AeTheory((Believes(Believes(Believes(P))),))
    with pytest.raises(ResourceLimitError, match="search_nodes=7"):
        expansion_exists(three, limits=Limits(search_nodes=7))
    assert tried == []


def test_oracle_independence():
    rng = random.Random(73)
    for _ in range(200):
        sigma = random_ae_theory(rng)
        a = expansion_exists(sigma, entailment_oracle("brute"))
        b = expansion_exists(sigma, entailment_oracle("twdp"))
        assert a == b


def test_refutations_are_built_once_per_theory(monkeypatch):
    # each belief atom's argument is refuted once per theory, and the oracle
    # is asked exactly what entails() per atom and candidate would ask
    built = []

    def counted(f, _original=refutation):
        built.append(f)
        return _original(f)

    monkeypatch.setattr("nmlkit.ael.refutation", counted)
    rng = random.Random(79)
    for _ in range(40):
        sigma = random_ae_theory(rng)
        atoms = belief_atoms(sigma)
        built.clear()
        oracle = entailment_oracle("twdp")
        expansion_exists(sigma, oracle)
        assert built == [bel.arg for bel in atoms]
        asked = entailment_oracle("brute")
        for mask in range(1 << len(atoms)):
            entries = tuple((bel, bool(mask >> i & 1)) for i, bel in enumerate(atoms))
            premises = list(sigma.formulas) + candidate(*entries).literals()
            for bel, positive in entries:
                if asked.entails(premises, bel.arg) != positive:
                    break
        assert oracle._cache.keys() == asked._cache.keys()


def test_mso_agreement():
    rng = random.Random(74)
    enc = expansion_existence(Basis())
    for _ in range(60):
        sigma = random_ae_theory(rng)
        verdict = eval_mso(build_ael_structure(sigma.formulas), enc)
        assert verdict == expansion_exists(sigma)[0]


def test_parse_ae_theory():
    sigma = parse_ae_theory("L p -> p\n# comment\nq | L r\n")
    assert len(sigma.formulas) == 2
    assert sigma.formulas[0] == limp(LP, P)


def test_parse_ae_error_carries_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_ae_theory("p\np &\n")


def test_format_roundtrip():
    sigma = AeTheory((limp(LP, P), Believes(Believes(Var("q")))))
    assert parse_ae_theory(format_ae_theory(sigma)) == sigma


def test_queries_meet_the_theory_by_identity():
    # every formula of every query, its negations peeled, is itself a vertex
    # of the compiled universe, so each query only pins units on it
    sigma = parse_ae_theory(
        "(L L L (p <-> r) | L L (p <-> r) -> L (p | L (p <-> r))) | r\n"
        "L !q | L (p <-> r) <-> r\n"
        "L p & L (p ^ L L L (p <-> r)) <-> q\n"
    )
    k = len(belief_atoms(sigma))
    assert k == 7
    want = expansion_exists(sigma, entailment_oracle("brute"))
    oracle = entailment_oracle("twdp")
    got = expansion_exists(sigma, oracle)
    vertices = {id(f) for f in oracle._universe.cg.vertex_of}
    assert len(oracle._cache) > 2 ** k
    for _, query in oracle._cache:
        for f in query:
            while isinstance(f, App) and f.op == "not":
                f = f.args[0]
            assert id(f) in vertices
    assert got == want and want[0]
