"""MSO encodings of satisfiability, implication, stable-extension existence,
and stable-expansion existence over the relational structures of
:mod:`nmlkit.structures`.

Every encoding comes in two build variants:

* ``as_printed`` is the classical formulation kept verbatim, including its
  known defects (documented at each builder).  It exists for inspection and
  serialization; several of its pieces are not semantically meaningful.
* ``corrected`` is the repaired form used by every oracle comparison in the
  test suite.  The repairs are listed below and covered by regression tests:

  1. Entailment subformulas quantify their premise sweep as an antecedent:
     ``forall M ((assign(M) & forall x chi(x)) -> M(target))``.  The verbatim
     scoping ``forall x (chi(x) -> M(target))`` collapses to an existential
     premise check and does not express entailment.
  2. The negated-justification test existentially picks a semantic negation
     and genuinely entails it (the verbatim form is an implication under an
     existential, which is vacuously satisfiable).
  3. The per-rule matrix of the stable-set check is guarded by
     ``default(d) ->`` instead of being conjoined with ``default(d)``.
  4. Generating sets and full sets are sort-guarded (sets of rule elements,
     sets of belief literals); unguarded set variables admit junk members
     that change the entailment tests.
  5. Subset-minimality of the generating set is replaced by groundedness:
     no proper subset may be closed under rule application.  Minimality
     accepts ungrounded self-supporting fixpoints, e.g. the rule set
     {x:T/x, T:!x/!x, !x:T/x} has the minimal applicability fixpoint {d1}
     but no iteratively constructible extension.
  6. The fullness test entails the argument of each belief atom (reached
     through the belief-argument link) rather than the belief atom itself,
     which is trivially controlled by the candidate set.
"""
from __future__ import annotations

from .formula import Basis
from .mso import (
    And,
    BOTTOM,
    Eq,
    ExistsFO,
    ExistsSO,
    ForallFO,
    ForallSO,
    Iff,
    Imp,
    MsoFormula,
    Not,
    Or,
    RelAtom,
    SetAtom,
    TOP,
    Xor,
    conj,
    disj,
    rename_set,
)
from .structures import CONN_BELIEF, conn_rel, const_rel

VARIANTS = ("as_printed", "corrected")
ENCODING_NAMES = ("struc", "assign", "sat", "imp", "extension", "full_exists")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _nullary(basis: Basis) -> list[str]:
    return [op for op in sorted(basis.names) if basis.arity(op) == 0]


def _proper(basis: Basis) -> list[tuple[str, int]]:
    return [(op, basis.arity(op)) for op in sorted(basis.names) if basis.arity(op) >= 1]


def _is_const(basis: Basis, x: str) -> MsoFormula:
    return disj(RelAtom(const_rel(op), (x,)) for op in _nullary(basis))


def _some_parent(basis: Basis, x: str, y: str, include_belief: bool = False) -> MsoFormula:
    """x occurs as an argument of the connective rooted at y."""
    atoms = [
        RelAtom(conn_rel(op, i), (x, y))
        for op, arity in _proper(basis)
        for i in range(1, arity + 1)
    ]
    if include_belief:
        atoms.append(RelAtom(CONN_BELIEF, (x, y)))
    return disj(atoms)


def _unique_child(rel: str, x: str) -> MsoFormula:
    """x has exactly one ``rel``-child."""
    return ExistsFO(
        "y",
        And(
            (
                RelAtom(rel, ("y", x)),
                ForallFO("z", Imp(RelAtom(rel, ("z", x)), Eq("z", "y"))),
            )
        ),
    )


def _negates_belief(x: str) -> MsoFormula:
    """x is the materialized negation of a belief atom."""
    return ExistsFO("w", And((RelAtom("L", ("w",)), RelAtom(conn_rel("not", 1), ("w", x)))))


def _well_formed_node(basis: Basis, x: str) -> MsoFormula:
    """x is a constant XOR x carries exactly one child per argument slot of
    exactly one connective shape."""
    shaped = disj(
        conj(_unique_child(conn_rel(op, i), x) for i in range(1, arity + 1))
        for op, arity in _proper(basis)
    )
    return Xor(_is_const(basis, x), shaped)


def structure_check(basis: Basis, flavor: str = "prop") -> MsoFormula:
    """Sanity of a formula structure: non-root elements occur as arguments,
    and every non-atom element is a constant or has unique argument slots.

    The shape follows the relations: the ``dl`` flavor exempts rule
    elements, and the ``ae`` flavor (whose relations have no ``var``) treats
    belief atoms and materialized belief negations as atoms.  Identical in
    both build variants.
    """
    if flavor in ("prop", "imp", "dl"):
        rule_guard = []
        if flavor == "dl":
            basis = basis.with_negation()
            rule_guard = [Not(RelAtom("default", ("x",)))]
        first = ForallFO(
            "x",
            Imp(
                conj([Not(RelAtom("repr", ("x",)))] + rule_guard),
                ExistsFO(
                    "y",
                    And((Not(RelAtom("var", ("y",))), _some_parent(basis, "x", "y"))),
                ),
            ),
        )
        second = ForallFO(
            "x",
            Imp(conj([Not(RelAtom("var", ("x",)))] + rule_guard), _well_formed_node(basis, "x")),
        )
        return And((first, second))
    if flavor == "ae":
        basis = basis.with_negation()
        first = ForallFO(
            "x",
            Imp(
                conj([Not(RelAtom("repr", ("x",))), Not(_negates_belief("x"))]),
                ExistsFO("y", _some_parent(basis, "x", "y", include_belief=True)),
            ),
        )
        has_children = ExistsFO("y", _some_parent(basis, "y", "x"))
        second = ForallFO(
            "x",
            Imp(
                conj(
                    [
                        Not(RelAtom("L", ("x",))),
                        disj([_is_const(basis, "x"), has_children]),
                    ]
                ),
                _well_formed_node(basis, "x"),
            ),
        )
        third = ForallFO(
            "x",
            Imp(
                RelAtom("L", ("x",)),
                conj(
                    [
                        Not(_is_const(basis, "x")),
                        Not(has_children),
                        _unique_child(CONN_BELIEF, "x"),
                    ]
                ),
            ),
        )
        return And((first, second, third))
    raise ValueError(f"unknown flavor {flavor!r}; expected prop, imp, dl, or ae")


def _op_expr(op: str, args: list[MsoFormula]) -> MsoFormula:
    if op == "not":
        return Not(args[0])
    if op == "and":
        return And(tuple(args))
    if op == "or":
        return Or(tuple(args))
    if op == "imp":
        return Imp(args[0], args[1])
    if op == "iff":
        return Iff(args[0], args[1])
    if op == "xor":
        return Xor(args[0], args[1])
    if op == "xor3":
        return Xor(Xor(args[0], args[1]), args[2])
    raise ValueError(f"unknown connective {op!r}")


def assignment_constraint(basis: Basis) -> MsoFormula:
    """Open formula: the set variable ``M`` is truth-functionally consistent.

    Constants take their fixed value; an element whose argument slots are
    filled by y1..yk takes the connective's value on their memberships.
    Atoms (variables, belief atoms) are unconstrained.
    """
    n = basis.max_arity()
    yvars = [f"y{i}" for i in range(1, n + 1)]
    parts: list[MsoFormula] = []
    for op in _nullary(basis):
        parts.append(
            Imp(
                RelAtom(const_rel(op), ("x",)),
                Iff(SetAtom("M", "x"), TOP if op == "true" else BOTTOM),
            )
        )
    for op, arity in _proper(basis):
        guard = conj(
            RelAtom(conn_rel(op, i), (yvars[i - 1], "x")) for i in range(1, arity + 1)
        )
        value = _op_expr(op, [SetAtom("M", yvars[i - 1]) for i in range(1, arity + 1)])
        parts.append(Imp(guard, Iff(SetAtom("M", "x"), value)))
    body: MsoFormula = conj(parts)
    for v in reversed(yvars):
        body = ForallFO(v, body)
    return ForallFO("x", body)


def satisfiability(basis: Basis, variant: str = "corrected") -> MsoFormula:
    """Closed sentence: the represented formula set is satisfiable.

    Both variants coincide (the verbatim form is already sound here, up to a
    repaired unbalanced parenthesis that does not change the tree).
    """
    _check_variant(variant)
    force_roots = ForallFO("x", Imp(RelAtom("repr", ("x",)), SetAtom("M", "x")))
    exists_assign = ExistsSO("M", And((assignment_constraint(basis), force_roots)))
    return And((structure_check(basis, "prop"), exists_assign))


def implication(basis: Basis, variant: str = "corrected") -> MsoFormula:
    """Closed sentence: the premise set entails the conclusion set.
    Both variants coincide (same parenthesis repair as satisfiability)."""
    _check_variant(variant)
    premise = ForallFO("x", Imp(RelAtom("reprPrem", ("x",)), SetAtom("M", "x")))
    conclusion = ForallFO("x", Imp(RelAtom("reprConc", ("x",)), SetAtom("M", "x")))
    implies = ForallSO(
        "M", Imp(And((assignment_constraint(basis), premise)), conclusion)
    )
    return And((structure_check(basis, "imp"), implies))


# ---------------------------------------------------------------------------
# Entailment, shared by default and autoepistemic logic
# ---------------------------------------------------------------------------


def _chi(premise_rel: str, cset: str, x: str) -> MsoFormula:
    """Premise sweep: element x, if a premise (``premise_rel``) or in the
    candidate set, is true under the assignment M."""
    return Imp(Or((RelAtom(premise_rel, (x,)), SetAtom(cset, x))), SetAtom("M", x))


def _entails(basis: Basis, premise_rel: str, cset: str, target: str, x: str) -> MsoFormula:
    """Corrected: every consistent assignment satisfying the premises and
    the candidate set satisfies the target element.  The premises are ``kb``
    for default logic and ``repr`` (the theory) for autoepistemic logic."""
    return ForallSO(
        "M",
        Imp(
            And((assignment_constraint(basis), ForallFO(x, _chi(premise_rel, cset, x)))),
            SetAtom("M", target),
        ),
    )


def _entails_printed(basis: Basis, premise_rel: str, cset: str, target: str) -> MsoFormula:
    # Verbatim defect: the premise sweep sits inside the per-element
    # implication, so a single out-of-premise element trivializes the test.
    return ForallSO(
        "M",
        Imp(
            assignment_constraint(basis),
            ForallFO("x", Imp(_chi(premise_rel, cset, "x"), SetAtom("M", target))),
        ),
    )


# ---------------------------------------------------------------------------
# Default logic
# ---------------------------------------------------------------------------


def _is_negation(basis: Basis, struc: MsoFormula, a: str, b: str) -> MsoFormula:
    """b is a semantic negation of a: opposite under every consistent
    assignment.  Follows the verbatim shape (structure check conjoined)."""
    return And(
        (
            struc,
            ForallSO(
                "M",
                Imp(
                    assignment_constraint(basis),
                    Iff(SetAtom("M", a), Not(SetAtom("M", b))),
                ),
            ),
        )
    )


def _conclusion_set_def(cset: str, gset: str) -> MsoFormula:
    return ForallFO(
        "x",
        Iff(
            SetAtom(cset, "x"),
            ExistsFO("y", And((SetAtom(gset, "y"), RelAtom("concl", ("x", "y"))))),
        ),
    )


def _subsetneq(a: str, b: str) -> MsoFormula:
    return And(
        (
            ForallFO("z", Imp(SetAtom(a, "z"), SetAtom(b, "z"))),
            ExistsFO("z", And((SetAtom(b, "z"), Not(SetAtom(a, "z"))))),
        )
    )


def _sort_guard(sset: str, sort_body) -> MsoFormula:
    return ForallFO("z", Imp(SetAtom(sset, "z"), sort_body("z")))


def extension_existence(basis: Basis, variant: str = "corrected") -> MsoFormula:
    """Closed sentence over a default-theory structure: a stable extension
    exists.  See the module docstring for the corrected-variant repairs."""
    _check_variant(variant)
    basis_n = basis.with_negation()
    struc = structure_check(basis, "dl")

    if variant == "as_printed":
        entails_neg = ExistsFO(
            "bb",
            ExistsSO(
                "M",
                Imp(
                    assignment_constraint(basis_n),
                    ForallFO(
                        "x",
                        conj(
                            [
                                _chi("kb", "C", "x"),
                                SetAtom("M", "bb"),
                                _is_negation(basis_n, struc, "be", "bb"),
                            ]
                        ),
                    ),
                ),
            ),
        )
        app = ExistsFO(
            "al",
            ExistsFO(
                "be",
                ExistsSO(
                    "C",
                    conj(
                        [
                            RelAtom("prem", ("al", "d")),
                            RelAtom("just", ("be", "d")),
                            _conclusion_set_def("C", "G"),
                            _entails_printed(basis_n, "kb", "C", "al"),
                            Not(entails_neg),
                        ]
                    ),
                ),
            ),
        )
        stable = ForallFO(
            "d", And((RelAtom("default", ("d",)), Iff(SetAtom("G", "d"), app)))
        )

        def stable_for(gset: str) -> MsoFormula:
            return rename_set(stable, "G", gset)

        gd = And(
            (
                stable,
                ForallSO("G1", Imp(_subsetneq("G1", "G"), Not(stable_for("G1")))),
            )
        )
        return And((struc, ExistsSO("G", gd)))

    entails_neg = ExistsFO(
        "bb",
        And(
            (
                _is_negation(basis_n, struc, "be", "bb"),
                _entails(basis_n, "kb", "C", "bb", "x"),
            )
        ),
    )

    # applicability of rule d: prerequisite entailed from G's conclusions C,
    # justification not refuted w.r.t. C
    app = ExistsFO(
        "al",
        ExistsFO(
            "be",
            ExistsSO(
                "C",
                conj(
                    [
                        RelAtom("prem", ("al", "d")),
                        RelAtom("just", ("be", "d")),
                        _conclusion_set_def("C", "G"),
                        _entails(basis_n, "kb", "C", "al", "x"),
                        Not(entails_neg),
                    ]
                ),
            ),
        ),
    )

    is_default = lambda z: RelAtom("default", (z,))  # noqa: E731
    stable = ForallFO(
        "d", Imp(RelAtom("default", ("d",)), Iff(SetAtom("G", "d"), app))
    )
    # Applicability with prerequisites from G1 but blocking w.r.t. G's
    # conclusions: used to state that no proper subset is application-closed.
    blocked_outer = ExistsSO(
        "C0", And((_conclusion_set_def("C0", "G"), rename_set(entails_neg, "C", "C0")))
    )
    app_from_subset = ExistsFO(
        "al",
        ExistsFO(
            "be",
            conj(
                [
                    RelAtom("prem", ("al", "d")),
                    RelAtom("just", ("be", "d")),
                    ExistsSO(
                        "C1",
                        And(
                            (
                                _conclusion_set_def("C1", "G1"),
                                _entails(basis_n, "kb", "C1", "al", "x"),
                            )
                        ),
                    ),
                    Not(blocked_outer),
                ]
            ),
        ),
    )
    closed_subset = ForallFO(
        "d", Imp(RelAtom("default", ("d",)), Imp(app_from_subset, SetAtom("G1", "d")))
    )
    grounded = Not(
        ExistsSO(
            "G1",
            conj(
                [
                    _sort_guard("G1", is_default),
                    _subsetneq("G1", "G"),
                    closed_subset,
                ]
            ),
        )
    )
    body = conj([_sort_guard("G", is_default), stable, grounded])
    return And((struc, ExistsSO("G", body)))


# ---------------------------------------------------------------------------
# Autoepistemic logic
# ---------------------------------------------------------------------------


def _polarity_exclusion(lset: str) -> MsoFormula:
    """Exactly one of each belief atom and its materialized negation is in
    the candidate set."""
    return ForallFO(
        "x",
        Imp(
            RelAtom("L", ("x",)),
            Xor(
                SetAtom(lset, "x"),
                ExistsFO(
                    "y",
                    And((RelAtom(conn_rel("not", 1), ("x", "y")), SetAtom(lset, "y"))),
                ),
            ),
        ),
    )


def expansion_existence(basis: Basis, variant: str = "corrected") -> MsoFormula:
    """Closed sentence over an autoepistemic structure: a stable expansion
    exists (equivalently, a full set of belief literals exists)."""
    _check_variant(variant)
    basis_n = basis.with_negation()
    struc = structure_check(basis, "ae")

    if variant == "as_printed":
        # Verbatim defects: the test runs on the belief atom itself (which
        # the candidate set controls directly), and the set is unguarded.
        fulltest = ForallFO(
            "x",
            Imp(
                RelAtom("L", ("x",)),
                Iff(SetAtom("Lam", "x"), _entails_printed(basis_n, "repr", "Lam", "x")),
            ),
        )
        return And(
            (struc, ExistsSO("Lam", And((_polarity_exclusion("Lam"), fulltest))))
        )

    literal_guard = _sort_guard("Lam", lambda z: Or((RelAtom("L", (z,)), _negates_belief(z))))
    fulltest = ForallFO(
        "x",
        Imp(
            RelAtom("L", ("x",)),
            ForallFO(
                "p",
                Imp(
                    RelAtom(CONN_BELIEF, ("p", "x")),
                    Iff(SetAtom("Lam", "x"), _entails(basis_n, "repr", "Lam", "p", "z")),
                ),
            ),
        ),
    )
    body = conj([literal_guard, _polarity_exclusion("Lam"), fulltest])
    return And((struc, ExistsSO("Lam", body)))


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


_SENTENCES = {
    "sat": satisfiability,
    "imp": implication,
    "extension": extension_existence,
    "full_exists": expansion_existence,
}


def mso_encoding(
    name: str,
    basis: Basis = None,
    variant: str = "corrected",
    flavor: str = "prop",
) -> MsoFormula:
    """Build one of the named encodings.

    ``struc`` takes the structure flavor (prop, imp, dl, ae); ``assign`` is
    the open assignment constraint; the rest are closed sentences.
    """
    basis = basis or Basis()
    _check_variant(variant)
    if name == "struc":
        return structure_check(basis, flavor)
    if name == "assign":
        return assignment_constraint(basis)
    if name not in _SENTENCES:
        raise ValueError(f"unknown encoding {name!r}; expected one of {ENCODING_NAMES}")
    return _SENTENCES[name](basis, variant)
