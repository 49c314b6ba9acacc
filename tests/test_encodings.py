"""Oracle-equivalence and regression tests for the MSO encodings."""
import hashlib
import random

import pytest

from nmlkit.ael import AeTheory, expansion_exists
from nmlkit.dl import DefaultRule, DefaultTheory, extension_exists
from nmlkit.encodings import (
    _subsetneq,
    expansion_existence,
    extension_existence,
    implication,
    mso_encoding,
    satisfiability,
    structure_check,
)
from nmlkit.formula import (
    App,
    Basis,
    Believes,
    FALSE,
    TRUE,
    Var,
    implies_bruteforce,
    land,
    limp,
    lnot,
    lor,
    sat_bruteforce,
    subformulae,
)
from nmlkit.mso import (
    And,
    ExistsSO,
    ForallSO,
    Imp,
    Not,
    RelAtom,
    conj,
    eval_mso,
    rename_set,
    subformulas,
    to_text,
)
from nmlkit.randgen import (
    random_ae_theory,
    random_formula_set,
    random_literal_default_theory,
)
from nmlkit.structures import (
    build_ael_structure,
    build_dl_structure,
    build_imp_structure,
    build_prop_structure,
)

BASIS = Basis()


def _extension_without_groundedness(basis: Basis):
    """Corrected entailments but verbatim subset-minimality instead of
    groundedness, to document that minimality admits ungrounded fixpoints."""
    corrected = extension_existence(basis, "corrected")
    struc, exists_g = corrected.parts
    guard, stable, _grounded = exists_g.body.parts
    minimal = ForallSO("G1", Imp(_subsetneq("G1", "G"), Not(rename_set(stable, "G", "G1"))))
    return And((struc, ExistsSO("G", conj([guard, stable, minimal]))))


def test_sat_encoding_fixtures():
    sat = satisfiability(BASIS)
    assert eval_mso(build_prop_structure([lor(Var("p"), Var("q"))]), sat) is True
    assert eval_mso(build_prop_structure([land(Var("p"), lnot(Var("p")))]), sat) is False
    assert eval_mso(build_prop_structure([]), sat) is True


def test_sat_encoding_agrees_with_bruteforce():
    rng = random.Random(100)
    sat = satisfiability(BASIS)
    for _ in range(100):
        gamma = random_formula_set(rng, max_subformulae=8)
        st = build_prop_structure(gamma)
        assert eval_mso(st, sat) == (sat_bruteforce(gamma) is not None)


def test_imp_encoding_agrees_with_bruteforce():
    rng = random.Random(200)
    imp = implication(BASIS)
    done = 0
    while done < 100:
        f = random_formula_set(rng, max_subformulae=5, max_formulas=2)
        g = random_formula_set(rng, max_subformulae=4, max_formulas=2)
        if len(subformulae(f + g)) > 8:
            continue
        done += 1
        st = build_imp_structure(f, g)
        assert eval_mso(st, imp) == implies_bruteforce(f, g)


def test_structure_check_holds_on_all_built_structures():
    rng = random.Random(300)
    checks = {
        "prop": structure_check(BASIS, "prop"),
        "imp": structure_check(BASIS, "imp"),
        "dl": structure_check(BASIS, "dl"),
        "ae": structure_check(BASIS, "ae"),
    }
    printed = {
        flavor: mso_encoding("struc", BASIS, "as_printed", flavor)
        for flavor in checks
    }
    for _ in range(40):
        st = build_prop_structure(random_formula_set(rng, max_subformulae=8))
        assert eval_mso(st, checks["prop"]) and eval_mso(st, printed["prop"])
        f = random_formula_set(rng, max_subformulae=4, max_formulas=2)
        g = random_formula_set(rng, max_subformulae=4, max_formulas=2)
        st = build_imp_structure(f, g)
        assert eval_mso(st, checks["imp"]) and eval_mso(st, printed["imp"])
        st = build_dl_structure(random_literal_default_theory(rng))
        assert eval_mso(st, checks["dl"]) and eval_mso(st, printed["dl"])
        st = build_ael_structure(random_ae_theory(rng).formulas)
        assert eval_mso(st, checks["ae"]) and eval_mso(st, printed["ae"])


def _relation_names(phi, names=None) -> set:
    names = set() if names is None else names
    if isinstance(phi, RelAtom):
        names.add(phi.rel)
    for sub in subformulas(phi):
        _relation_names(sub, names)
    return names


# every connective of Basis() and both constants, each at least once
_ALL_CONNECTIVES = App("xor3", (
    land(Var("p"), Var("q")),
    lor(Var("q"), TRUE),
    limp(App("iff", (Var("p"), FALSE)), App("xor", (lnot(Var("r")), Var("p")))),
))


@pytest.mark.parametrize(
    "sentence, flavor, structure",
    [
        ("sat", "prop", lambda: build_prop_structure([_ALL_CONNECTIVES])),
        ("imp", "imp", lambda: build_imp_structure([_ALL_CONNECTIVES], [Var("p")])),
        ("extension", "dl", lambda: build_dl_structure(
            DefaultTheory((_ALL_CONNECTIVES,), (DefaultRule(Var("p"), Var("q"), Var("r")),)))),
        ("full_exists", "ae", lambda: build_ael_structure([_ALL_CONNECTIVES, Believes(Var("p"))])),
    ],
    ids=["prop", "imp", "dl", "ae"],
)
def test_encodings_read_exactly_the_relations_builders_write(sentence, flavor, structure):
    # the relation names live twice, written by the builders and read by the
    # encodings; a name misspelt on either side shows here
    read = _relation_names(mso_encoding("struc", BASIS, flavor=flavor))
    for variant in ("corrected", "as_printed"):
        _relation_names(mso_encoding(sentence, BASIS, variant), read)
    assert read == set(structure().relations)


def test_extension_encoding_fixtures():
    ext = extension_existence(BASIS)
    th = DefaultTheory((), (DefaultRule(TRUE, Var("p"), Var("q")),))
    assert eval_mso(build_dl_structure(th), ext) is True
    th = DefaultTheory((), (DefaultRule(TRUE, Var("p"), lnot(Var("p"))),))
    assert eval_mso(build_dl_structure(th), ext) is False
    th = DefaultTheory((), ())
    assert eval_mso(build_dl_structure(th), ext) is True


def test_extension_encoding_agrees_with_stage_oracle():
    rng = random.Random(400)
    ext = extension_existence(BASIS)
    for _ in range(100):
        th = random_literal_default_theory(rng)
        st = build_dl_structure(th)
        assert eval_mso(st, ext) == extension_exists(th)[0], th


def test_groundedness_regression():
    # The applicability fixpoint {rule 1} of this theory is subset-minimal
    # but not reachable from below, so no stable extension exists.  The
    # corrected encoding must reject it; replacing groundedness with bare
    # subset-minimality wrongly accepts it.
    x = Var("x")
    th = DefaultTheory(
        (),
        (
            DefaultRule(x, TRUE, x),
            DefaultRule(TRUE, lnot(x), lnot(x)),
            DefaultRule(lnot(x), TRUE, x),
        ),
    )
    assert extension_exists(th)[0] is False
    st = build_dl_structure(th)
    assert eval_mso(st, extension_existence(BASIS, "corrected")) is False
    assert eval_mso(st, _extension_without_groundedness(BASIS)) is True


def test_extension_as_printed_is_vacuous():
    # the verbatim stable-set matrix conjoins default(d) under a universal
    # quantifier, so it fails on any structure with a non-rule element
    th = DefaultTheory((), (DefaultRule(TRUE, Var("p"), Var("q")),))
    st = build_dl_structure(th)
    assert eval_mso(st, extension_existence(BASIS, "as_printed")) is False


def test_expansion_encoding_fixtures():
    full = expansion_existence(BASIS)
    p = Var("p")
    pos = AeTheory((limp(Believes(p), p),))
    assert eval_mso(build_ael_structure(pos.formulas), full) is True
    assert len(expansion_exists(pos)[1]) == 2
    neg = AeTheory((limp(lnot(Believes(p)), p),))
    assert eval_mso(build_ael_structure(neg.formulas), full) is False
    assert expansion_exists(neg)[1] == []
    empty = AeTheory(())
    assert eval_mso(build_ael_structure(empty.formulas), full) is True
    assert len(expansion_exists(empty)[1]) == 1


def test_expansion_as_printed_accepts_broken_fixture():
    # the verbatim fullness test reads the belief atom itself, which the
    # candidate set controls, so it wrongly accepts this theory
    p = Var("p")
    neg = AeTheory((limp(lnot(Believes(p)), p),))
    st = build_ael_structure(neg.formulas)
    assert eval_mso(st, expansion_existence(BASIS, "as_printed")) is True


def test_expansion_encoding_agrees_with_fullset_oracle():
    rng = random.Random(500)
    full = expansion_existence(BASIS)
    for _ in range(100):
        sigma = random_ae_theory(rng)
        st = build_ael_structure(sigma.formulas)
        assert eval_mso(st, full) == expansion_exists(sigma)[0], sigma


def test_nested_belief_encoding():
    full = expansion_existence(BASIS)
    sigma = AeTheory((Believes(Believes(Var("p"))),))
    st = build_ael_structure(sigma.formulas)
    assert eval_mso(st, full) == expansion_exists(sigma)[0] == False  # noqa: E712


def test_encoding_dispatcher():
    for name in ("struc", "assign", "sat", "imp", "extension", "full_exists"):
        assert mso_encoding(name, BASIS) is not None
    with pytest.raises(ValueError):
        mso_encoding("nope", BASIS)
    with pytest.raises(ValueError):
        mso_encoding("sat", BASIS, variant="fixed")
    with pytest.raises(ValueError, match="unknown flavor 'x'; expected prop, imp, dl, or ae"):
        mso_encoding("struc", flavor="x")


def test_assignment_constraint_is_open_in_set_variable():
    from nmlkit.mso import free_vars

    assign = mso_encoding("assign", BASIS)
    fo, so = free_vars(assign)
    assert so == {"M"} and not fo


def test_serialization_golden_small_basis():
    sat = satisfiability(Basis({"or", "not"}), "as_printed")
    text = to_text(sat)
    # frozen golden for the two-connective basis
    expected = (
        "(((A x. (~repr(x) -> (E y. (~var(y) & (conn_not_1(x, y) | conn_or_1(x, y) |"
        " conn_or_2(x, y)))))) & (A x. (~var(x) -> (F ^ ((E y. (conn_not_1(y, x) &"
        " (A z. (conn_not_1(z, x) -> z = y)))) | ((E y. (conn_or_1(y, x) & (A z."
        " (conn_or_1(z, x) -> z = y)))) & (E y. (conn_or_2(y, x) & (A z. (conn_or_2(z,"
        " x) -> z = y)))))))))) & (E M. ((A x. (A y1. (A y2. ((conn_not_1(y1, x) ->"
        " (x in M <-> ~y1 in M)) & ((conn_or_1(y1, x) & conn_or_2(y2, x)) -> (x in M"
        " <-> (y1 in M | y2 in M))))))) & (A x. (repr(x) -> x in M)))))"
    )
    assert text == expected


# SHA-256 of to_text for every encoding tree, in both variants, every
# structure-check flavor and the minimality variant of the extension sentence.
# A change to a builder or to the MSO syntax helpers that alters a tree fails here.
TREE_BASES = {
    "full": Basis(),
    "and-or-not": Basis({"and", "or", "not"}),
    "xor3-true": Basis({"xor3", "true"}),
    "imp-false": Basis({"imp", "false"}),
}
TREE_DIGESTS = {
    ("sat/as_printed", "full"):
        "77b7611e1cc85de79c88c43666a9c02e370c6d3115323a180f8a9504aeb810cb",
    ("sat/corrected", "full"):
        "77b7611e1cc85de79c88c43666a9c02e370c6d3115323a180f8a9504aeb810cb",
    ("imp/as_printed", "full"):
        "45d83b52266cf173d7ed999c5146167dc67bd24cc97af4f1218df0ac9258a1ac",
    ("imp/corrected", "full"):
        "45d83b52266cf173d7ed999c5146167dc67bd24cc97af4f1218df0ac9258a1ac",
    ("extension/as_printed", "full"):
        "5d71bf5044516107ae75c6877421b632e2465e24bda6af8dc6e27e4cc5e18acf",
    ("extension/corrected", "full"):
        "bc02e220ac9598e7ba09bce13e5c414d4b4ba09eb6381d007d83f23e41646661",
    ("full_exists/as_printed", "full"):
        "d360066230cf2d989d74d3f820007ac88996212e04cd4589e3796b68fbb572b5",
    ("full_exists/corrected", "full"):
        "ded46fa8264ab98ed882b000441af31707a753a1613a0e1e4b8ccece26c643e6",
    ("assign/as_printed", "full"):
        "ca7526b37894c4f3c63c0eafe58ad28d9bf62d88df37ba7dae5998e02fc879fd",
    ("assign/corrected", "full"):
        "ca7526b37894c4f3c63c0eafe58ad28d9bf62d88df37ba7dae5998e02fc879fd",
    ("struc/prop", "full"):
        "8d6ee170882e49bb7ecd93e6f647ce13a1288bd14a08a567ae3c57391062469c",
    ("struc/imp", "full"):
        "8d6ee170882e49bb7ecd93e6f647ce13a1288bd14a08a567ae3c57391062469c",
    ("struc/dl", "full"):
        "202e40c8835bcf12dbddd59358877c9e563ca8bfd0105dfdf60d36e5ca385198",
    ("struc/ae", "full"):
        "8f1dc4473434420fca8d04a75243cf9b661c4dc0f122c03deeb78f58b22d46b5",
    ("without-groundedness", "full"):
        "a62e157b7aa2cf686637b8b3e07d56ce926365c166b1a1c9ec3ada592163500a",
    ("sat/as_printed", "and-or-not"):
        "cbb82b900d666f9f5d5ea705c74aed8e014ff5e8fe0905d7968155d02d381454",
    ("sat/corrected", "and-or-not"):
        "cbb82b900d666f9f5d5ea705c74aed8e014ff5e8fe0905d7968155d02d381454",
    ("imp/as_printed", "and-or-not"):
        "9ea2956a09d317ed60a9873b432c7e50193e5de448b6cf58ac07a233a2104d10",
    ("imp/corrected", "and-or-not"):
        "9ea2956a09d317ed60a9873b432c7e50193e5de448b6cf58ac07a233a2104d10",
    ("extension/as_printed", "and-or-not"):
        "ff5bae9a4c331ca3d60c567313b38407e813940c3c7cce82a3633d8c53bf4511",
    ("extension/corrected", "and-or-not"):
        "650faed36847c44b4bf291c8367441738a86c4a67b8400bd4895bec36cabb369",
    ("full_exists/as_printed", "and-or-not"):
        "d5b497924cc2ece9fd2eca3b54d8eb7d04bfa4eaf3b280156c8572b8a850723c",
    ("full_exists/corrected", "and-or-not"):
        "abd32a9d5261594192e4f770d79fd609fe0ad9db4f344d251b986680c3a5c54b",
    ("assign/as_printed", "and-or-not"):
        "bf10d8d6c0f637bba59474622a9a52cca0008531c6116357ee292fca3e7fd956",
    ("assign/corrected", "and-or-not"):
        "bf10d8d6c0f637bba59474622a9a52cca0008531c6116357ee292fca3e7fd956",
    ("struc/prop", "and-or-not"):
        "811641248da4de127e7ea587370b5717a6502c2af74b7a218861acb1b7f59806",
    ("struc/imp", "and-or-not"):
        "811641248da4de127e7ea587370b5717a6502c2af74b7a218861acb1b7f59806",
    ("struc/dl", "and-or-not"):
        "2040389e163a11fe3f27bab43dd61daf4842f1b92191436d6d533b0b848d78a2",
    ("struc/ae", "and-or-not"):
        "5656fada15f8ca518a0e30fa3bce6ed82b4da4e541559074730826baa539f76a",
    ("without-groundedness", "and-or-not"):
        "2288a66fb65c5811da6cf5df12137eca1cc4c07effd63f74283a0124f07c0ba3",
    ("sat/as_printed", "xor3-true"):
        "da61047d14a61035b0bc77301d250eb684494cf00ba29c98fb3faef33e52b9b3",
    ("sat/corrected", "xor3-true"):
        "da61047d14a61035b0bc77301d250eb684494cf00ba29c98fb3faef33e52b9b3",
    ("imp/as_printed", "xor3-true"):
        "a053a14083304d273f9a664041ab37ef53b9476dd89161622e1a7ee2220a9125",
    ("imp/corrected", "xor3-true"):
        "a053a14083304d273f9a664041ab37ef53b9476dd89161622e1a7ee2220a9125",
    ("extension/as_printed", "xor3-true"):
        "2da6040ddc9d362953004d891a2d6804660eb90580cb6e126b40784413869524",
    ("extension/corrected", "xor3-true"):
        "400669035c0c3925c0f1c29468e90129b1f92c263302bf73b23407153de3215c",
    ("full_exists/as_printed", "xor3-true"):
        "8b8b670691d5ac9115a318640f254bf1426ae4a97e966ac55c1016de6c3a4ebe",
    ("full_exists/corrected", "xor3-true"):
        "2c9cc6c72aa672a634e10763bfa46cb7ff5dcf74031228eb535b503d564796da",
    ("assign/as_printed", "xor3-true"):
        "40e9e59b3f5586b412a141f890caf0377184dc0ffe0d29856a8859ccb4862b71",
    ("assign/corrected", "xor3-true"):
        "40e9e59b3f5586b412a141f890caf0377184dc0ffe0d29856a8859ccb4862b71",
    ("struc/prop", "xor3-true"):
        "51da55ca389a2343f38f3a2352be410892a1419416c46e1b7b87bf57fa9487cd",
    ("struc/imp", "xor3-true"):
        "51da55ca389a2343f38f3a2352be410892a1419416c46e1b7b87bf57fa9487cd",
    ("struc/dl", "xor3-true"):
        "8b5f892beeb854f9673c9c61880a7e5ef9de69d81cc2b63531dba1ad3e2a8f5f",
    ("struc/ae", "xor3-true"):
        "a05eca1ff748ca2cf560eb41ed44763d757cf787027076fc3abda0cf588bed4d",
    ("without-groundedness", "xor3-true"):
        "aefde7fec9c3539fe27989e41824d3fc4d422d0479d1dcbcbd08a286d83d20a4",
    ("sat/as_printed", "imp-false"):
        "a3ae14394f3a9dd4d067b8a195c5d49166da47eb67af5c048bd778fcd6b82520",
    ("sat/corrected", "imp-false"):
        "a3ae14394f3a9dd4d067b8a195c5d49166da47eb67af5c048bd778fcd6b82520",
    ("imp/as_printed", "imp-false"):
        "87abc64318c67201bc66fce94bf2ab638005118c1e7010b73e15b0a182c894c6",
    ("imp/corrected", "imp-false"):
        "87abc64318c67201bc66fce94bf2ab638005118c1e7010b73e15b0a182c894c6",
    ("extension/as_printed", "imp-false"):
        "4beed9ddc24ed6ec4f716434de77da1b3cffed26b6ac8b63237a4ef81e28cee9",
    ("extension/corrected", "imp-false"):
        "91d7ed5e461d35256b86b22bac65d78dc0c18a5cce147144e1ceb5dd9e95ad56",
    ("full_exists/as_printed", "imp-false"):
        "d16cfb54a4527c439ef25f939042c23027301a582f067f2f73f891a675df3033",
    ("full_exists/corrected", "imp-false"):
        "41dbe87d7f1f8b430d9f15b332cae0b1e38725dc2237eac885f124f465b35103",
    ("assign/as_printed", "imp-false"):
        "deb9e522e447400270a4c4d9915af15af33c4e7e7269f11fc516aae8f3b49bc9",
    ("assign/corrected", "imp-false"):
        "deb9e522e447400270a4c4d9915af15af33c4e7e7269f11fc516aae8f3b49bc9",
    ("struc/prop", "imp-false"):
        "5d19acd9c463341b490193950393f65df76fecca5815d37535deff5cc881fe3a",
    ("struc/imp", "imp-false"):
        "5d19acd9c463341b490193950393f65df76fecca5815d37535deff5cc881fe3a",
    ("struc/dl", "imp-false"):
        "4c166771838d315f17e0a721358f0fc65c1e24e0f4e7c49e4e1a7bb36470e701",
    ("struc/ae", "imp-false"):
        "d7c875a1292c63314e233bcb7f5bd6a31bb098736c5cfc21409ba8e36d6f252a",
    ("without-groundedness", "imp-false"):
        "217e9b0d797f8ea5367e4696ae187e96ca13d8e597ad55e50c5e63166b36884f",
}


def _build_tree(builder: str, basis: Basis):
    name, _, arg = builder.partition("/")
    if name == "struc":
        return structure_check(basis, arg)
    if name == "without-groundedness":
        return _extension_without_groundedness(basis)
    return mso_encoding(name, basis, arg)


@pytest.mark.parametrize(
    "builder, basis", sorted(TREE_DIGESTS), ids=[f"{e}-{b}" for e, b in sorted(TREE_DIGESTS)]
)
def test_encoding_tree_digest(builder, basis):
    text = to_text(_build_tree(builder, TREE_BASES[basis]))
    assert hashlib.sha256(text.encode()).hexdigest() == TREE_DIGESTS[builder, basis]
