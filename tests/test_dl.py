import random
import sys

import pytest

from nmlkit import dl
from nmlkit.dl import (
    DefaultRule,
    DefaultTheory,
    extension_exists,
    format_default_theory,
    parse_default_theory,
    stage_fixpoint,
)
from nmlkit.encodings import extension_existence
from nmlkit.errors import ParseError, ResourceLimitError
from nmlkit.families import gen_dl_lower
from nmlkit.formula import Basis, FALSE, TRUE, Var, lnot
from nmlkit.limits import Limits
from nmlkit.mso import eval_mso
from nmlkit.randgen import random_literal_default_theory
from nmlkit.structures import build_dl_structure
from nmlkit.twdp import EntailmentOracle, entailment_oracle

P, Q, R = Var("p"), Var("q"), Var("r")


def test_stage_fixpoint_applies_rule():
    theory = DefaultTheory((), (DefaultRule(TRUE, P, Q),))
    ok, applied = stage_fixpoint(theory, {1})
    assert ok and applied == frozenset({1})


def test_stage_fixpoint_self_blocking_rule():
    theory = DefaultTheory((), (DefaultRule(TRUE, P, lnot(P)),))
    ok, applied = stage_fixpoint(theory, {1})
    assert not ok and applied == frozenset()


def test_stage_fixpoint_no_defaults():
    theory = DefaultTheory((R,), ())
    ok, applied = stage_fixpoint(theory, set())
    assert ok and applied == frozenset()


def test_stage_fixpoint_inconsistent_knowledge():
    # inconsistent knowledge blocks every justified rule, so the empty
    # candidate is the unique extension
    theory = DefaultTheory((P, lnot(P)), (DefaultRule(TRUE, Q, R),))
    ok, applied = stage_fixpoint(theory, set())
    assert ok and applied == frozenset()
    exists, witnesses = extension_exists(theory)
    assert exists and [w.generating for w in witnesses] == [frozenset()]


def test_stage_fixpoint_rejects_unknown_indices():
    theory = DefaultTheory((), (DefaultRule(TRUE, P, Q),))
    with pytest.raises(ValueError):
        stage_fixpoint(theory, {2})


def test_extension_exists_simple():
    theory = DefaultTheory((), (DefaultRule(TRUE, P, Q),))
    exists, witnesses = extension_exists(theory)
    assert exists and [sorted(w.generating) for w in witnesses] == [[1]]


def test_extension_exists_none():
    theory = DefaultTheory((), (DefaultRule(TRUE, P, lnot(P)),))
    exists, witnesses = extension_exists(theory)
    assert not exists and witnesses == []


def test_extension_exists_empty_theory():
    exists, witnesses = extension_exists(DefaultTheory((), ()))
    assert exists and [w.generating for w in witnesses] == [frozenset()]


def test_extension_exists_rule_cap():
    rules = tuple(DefaultRule(TRUE, P, Q) for _ in range(3))
    theory = DefaultTheory((), rules)
    with pytest.raises(ResourceLimitError):
        extension_exists(theory, limits=Limits(search_nodes=3))


def test_search_node_budget_fires_mid_search():
    # gen_dl_lower(17) has 153 rules and the search visits 154 nodes, one per
    # rule decided from 153 down plus the leaf
    theory = gen_dl_lower(17)
    with pytest.raises(ResourceLimitError) as info:
        extension_exists(theory, limits=Limits(search_nodes=100))
    assert str(info.value).endswith("search_nodes=100 while deciding rule 53")
    exists, _ = extension_exists(theory, limits=Limits(search_nodes=154))
    assert exists


def test_search_does_not_recurse_per_rule():
    # 153 rules at a recursion limit below 153: a search that took one frame
    # per decided rule raises RecursionError here
    theory = gen_dl_lower(17)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        exists, witnesses = extension_exists(theory, entailment_oracle("twdp"))
    finally:
        sys.setrecursionlimit(saved)
    assert exists and [w.generating for w in witnesses] == [frozenset()]


def test_witnesses_list_in_binary_counting_order():
    # two independent rules: candidates enumerated with rule 1 on the low bit
    theory = DefaultTheory(
        (), (DefaultRule(TRUE, P, P), DefaultRule(TRUE, Q, Q))
    )
    exists, witnesses = extension_exists(theory)
    assert exists
    assert [sorted(w.generating) for w in witnesses] == [[1, 2]]


def test_every_witness_passes_reverification():
    rng = random.Random(61)
    for _ in range(100):
        theory = random_literal_default_theory(rng)
        for witness in extension_exists(theory)[1]:
            ok, applied = stage_fixpoint(theory, witness.generating)
            assert ok and applied == witness.generating


def test_oracle_independence():
    rng = random.Random(62)
    for _ in range(200):
        theory = random_literal_default_theory(rng)
        a = extension_exists(theory, entailment_oracle("brute"))
        b = extension_exists(theory, entailment_oracle("twdp"))
        assert a[0] == b[0]
        assert [w.generating for w in a[1]] == [w.generating for w in b[1]]


def _enumerated_witnesses(theory, oracle):
    """Reference: every candidate in binary counting order (rule 1 on the
    least significant bit), kept when the stage construction closes."""
    m = len(theory.defaults)
    candidates = (
        frozenset(i + 1 for i in range(m) if (mask >> i) & 1) for mask in range(1 << m)
    )
    return [c for c in candidates if stage_fixpoint(theory, c, oracle)[0]]


@pytest.mark.parametrize("kind,count,seed", [("brute", 200, 64), ("twdp", 50, 65)])
def test_search_matches_enumeration_up_to_8_rules(kind, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        theory = random_literal_default_theory(rng, max_rules=8)
        oracle = entailment_oracle(kind)
        exists, witnesses = extension_exists(theory, oracle)
        expected = _enumerated_witnesses(theory, oracle)
        assert [w.generating for w in witnesses] == expected
        assert exists == bool(expected)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mutually_blocking_pairs_have_all_extensions(k):
    # rules 2i-1 = T : !a_i / b_i and 2i = T : !b_i / a_i; each pair picks one
    rules = []
    for i in range(k):
        a, b = Var(f"a{i}"), Var(f"b{i}")
        rules += [DefaultRule(TRUE, lnot(a), b), DefaultRule(TRUE, lnot(b), a)]
    theory = DefaultTheory((), tuple(rules))
    oracle = entailment_oracle("brute")
    exists, witnesses = extension_exists(theory, oracle)
    expected = _enumerated_witnesses(theory, oracle)
    assert exists and len(witnesses) == 2 ** k
    assert [w.generating for w in witnesses] == expected


class _CountingOracle(EntailmentOracle):
    def __init__(self, kind):
        super().__init__(kind)
        self.calls = 0

    def satisfiable(self, formulas):
        self.calls += 1
        return super().satisfiable(formulas)


def test_search_nodes_inherit_blocked_rules():
    # each node asks only about the rules between its parent's blocked(IN)
    # and blocked(IN | OPEN), and a leaf is confirmed under its FLOOR;
    # asking about every rule at every node made 17,211 calls on these
    # theories, and working out blocked(IN) again at each leaf 14,462
    calls = 0
    for seed in range(300):
        theory = random_literal_default_theory(random.Random(seed), max_rules=7)
        oracle = _CountingOracle("twdp")
        exists, witnesses = extension_exists(theory, oracle)
        calls += oracle.calls
        expected = _enumerated_witnesses(theory, entailment_oracle("brute"))
        assert [w.generating for w in witnesses] == expected
        assert exists == bool(expected)
    assert calls == 13478


def test_leaf_is_confirmed_under_its_floor(monkeypatch):
    # at a surviving leaf the search's FLOOR is blocked(IN), so the leaf's
    # stage_fixpoint is handed it and asks no blocked query of its own; it
    # is still called once per surviving leaf
    leaves = []

    def confirm(theory, candidate, oracle=None, *, blocked=None, _original=dl.stage_fixpoint):
        brute = entailment_oracle("brute")
        assert blocked == dl._blocked(theory, frozenset(candidate), brute)
        got = _original(theory, candidate, oracle, blocked=blocked)
        assert got == _original(theory, candidate, brute)
        leaves.append(got[0])
        return got

    monkeypatch.setattr(dl, "stage_fixpoint", confirm)
    confirmed = 0
    for seed in range(200):
        theory = random_literal_default_theory(random.Random(seed), max_rules=6)
        exists, witnesses = extension_exists(theory, entailment_oracle("twdp"))
        assert len(witnesses) == leaves.count(True)
        confirmed += len(leaves)
        leaves.clear()
    assert confirmed >= 100
    assert extension_exists(gen_dl_lower(4), entailment_oracle("twdp"))[0]
    assert leaves == [True]


def test_search_work_grows_polynomially_on_lower_bound_family():
    calls = {}
    for n in (4, 5, 6, 8):
        oracle = _CountingOracle("twdp")
        exists, witnesses = extension_exists(gen_dl_lower(n), oracle)
        assert exists and [w.generating for w in witnesses] == [frozenset()]
        calls[n] = oracle.calls
    # enumerating all 2^15 candidates of n=5 makes 491,535 calls
    assert calls[5] <= 1000
    # quadratic growth in n gives 2.25x; enumeration gives 48x
    assert calls[5] <= 2.5 * calls[4]
    # past 20 rules (21 and 36): the calls stay within quadratic growth in
    # the number of rules n(n+1)/2, where enumeration would need 2^36 leaves
    rules = {n: n * (n + 1) // 2 for n in calls}
    for a, b in ((5, 6), (6, 8)):
        assert calls[b] <= (rules[b] / rules[a]) ** 2 * calls[a]


def test_mso_agreement_small_theories():
    rng = random.Random(63)
    enc = extension_existence(Basis())
    for _ in range(60):
        theory = random_literal_default_theory(rng)
        verdict = eval_mso(build_dl_structure(theory), enc)
        assert verdict == extension_exists(theory)[0]


def test_parse_default_theory():
    theory = parse_default_theory("w: r\nd: T ; p ; q\n")
    assert theory.knowledge == (R,)
    assert theory.defaults == (DefaultRule(TRUE, P, Q),)


def test_parse_empty_file():
    theory = parse_default_theory("")
    assert theory == DefaultTheory((), ())


def test_parse_rejects_two_part_rule():
    with pytest.raises(ParseError, match="three"):
        parse_default_theory("d: p ; q\n")


def test_parse_rejects_unknown_line():
    with pytest.raises(ParseError):
        parse_default_theory("x: p\n")


def test_parse_comments_and_roundtrip():
    text = "# a comment\nw: p | q\nd: p ; q ; r  # inline\n"
    theory = parse_default_theory(text)
    assert len(theory.knowledge) == 1 and len(theory.defaults) == 1
    assert parse_default_theory(format_default_theory(theory)) == theory


def test_rules_must_be_propositional():
    from nmlkit.formula import Believes

    with pytest.raises(ValueError):
        DefaultRule(Believes(P), P, Q)
