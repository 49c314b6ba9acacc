"""Generators for pseudo-cliques and for the restricted instance families
whose structures certify unbounded treewidth, plus a syntactic class linter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .ael import AeTheory
from .dl import DefaultRule, DefaultTheory
from .formula import (
    App,
    Believes,
    Const,
    FALSE,
    Formula,
    Var,
    land,
    limp,
    lor,
    lxor3,
)
from .structures import Graph, make_graph


@dataclass(frozen=True)
class PseudoCliqueSpec:
    """Size (number of main-nodes) and path cardinality: one length for every
    pair, or a per-pair mapping keyed by (i, j) with i < j."""

    n: int
    cardinality: Union[int, dict[tuple[int, int], int]]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a pseudo-clique needs at least two main-nodes")
        pairs = {(i, j) for i in range(1, self.n + 1) for j in range(i + 1, self.n + 1)}
        if isinstance(self.cardinality, int):
            if self.cardinality < 0:
                raise ValueError("cardinality must be nonnegative")
        else:
            if set(self.cardinality) != pairs:
                raise ValueError("per-pair cardinalities must cover exactly the main pairs")
            if any(k < 0 for k in self.cardinality.values()):
                raise ValueError("cardinality must be nonnegative")

    def pair_lengths(self) -> dict[tuple[int, int], int]:
        if isinstance(self.cardinality, int):
            return {
                (i, j): self.cardinality
                for i in range(1, self.n + 1)
                for j in range(i + 1, self.n + 1)
            }
        return dict(self.cardinality)


def gen_pseudo_clique(spec: PseudoCliqueSpec) -> Graph:
    """Labeled pseudo-clique: mains 1..n, then the edge-nodes of each pair in
    (i, j, position) order, each pair joined by its own path."""
    lengths = spec.pair_lengths()
    labels = {v: "main" for v in range(1, spec.n + 1)}
    descriptions = {v: f"m{v}" for v in range(1, spec.n + 1)}
    edges: list[tuple[int, int]] = []
    nxt = spec.n + 1
    for (i, j) in sorted(lengths):
        k = lengths[(i, j)]
        path = list(range(nxt, nxt + k))
        nxt += k
        for r, v in enumerate(path, start=1):
            labels[v] = "edge"
            descriptions[v] = f"d{r}_{i}_{j}"
        edges.extend(zip([i] + path, path + [j]))  # i, d1, ..., dk, j; k = 0 is the edge i-j
    return make_graph(nxt - 1, edges, labels, descriptions)


def gen_dl_lower(n: int, variant: str = "printed") -> DefaultTheory:
    """Rule families over an empty knowledge base with literal parts only.

    ``printed`` is the asymmetric family x_i : y_j / F for 1 <= i <= j <= n;
    ``symmetric`` uses x_i : x_j / F for 1 <= i < j <= n, whose structure
    restricted to the x-vertices and rule elements is a pseudo-clique of
    size n and cardinality 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rules = []
    if variant == "printed":
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                rules.append(DefaultRule(Var(f"x{i}"), Var(f"y{j}"), FALSE))
    elif variant == "symmetric":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                rules.append(DefaultRule(Var(f"x{i}"), Var(f"x{j}"), FALSE))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return DefaultTheory((), tuple(rules))


def gen_ael_lower(k: int) -> AeTheory:
    """The disjunction family x_i | x_j for 1 <= i <= j <= k (diagonal
    included), in lexicographic order."""
    if k < 1:
        raise ValueError("k must be positive")
    formulas = [
        lor(Var(f"x{i}"), Var(f"x{j}"))
        for i in range(1, k + 1)
        for j in range(i, k + 1)
    ]
    return AeTheory(tuple(formulas))


def gen_imp_lower(kind: str, n: int) -> tuple[list[Formula], list[Formula]]:
    """Representative implication instances of the restricted classes:
    ``xor3`` builds premises from the ternary parity connective only;
    ``cnf_dnf`` builds monotone two-literal clauses against one DNF formula.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    xs = [Var(f"x{i}") for i in range(1, n + 1)]
    if kind == "xor3":
        premises: list[Formula] = [
            lxor3(xs[i], xs[i + 1], xs[i + 2]) for i in range(n - 2)
        ]
        conclusions: list[Formula] = [lxor3(xs[0], xs[1], xs[n - 1])]
        return premises, conclusions
    if kind == "cnf_dnf":
        premises = [lor(xs[i], xs[j]) for i in range(n) for j in range(i, n)]
        conjuncts = [land(xs[i], xs[i + 1]) for i in range(n - 1)]
        dnf = conjuncts[0]
        for c in conjuncts[1:]:
            dnf = lor(dnf, c)
        return premises, [dnf]
    raise ValueError(f"unknown kind {kind!r}")


def chain(m: int) -> list[Formula]:
    """The satisfiable implication chain x1, x1 -> x2, ..., x(m-1) -> xm:
    its constraint graph keeps the same treewidth as m grows."""
    if m < 1:
        raise ValueError("m must be positive")
    return [Var("x1")] + [limp(Var(f"x{i}"), Var(f"x{i+1}")) for i in range(1, m)]


# ---------------------------------------------------------------------------
# Syntactic class linter
# ---------------------------------------------------------------------------

def _spine(f: Formula, op: str) -> list[Formula]:
    """The operands of the ``op`` chain at the root of ``f``: ``f`` itself
    when its root is not ``op``.  Walked with an explicit stack."""
    operands, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, App) and g.op == op:
            stack.extend(g.args)
        else:
            operands.append(g)
    return operands


def _is_literal(f: Formula) -> bool:
    if isinstance(f, Var):
        return True
    return isinstance(f, App) and f.op == "not" and isinstance(f.args[0], Var)


def _rule_parts(theory: DefaultTheory) -> list[Formula]:
    return [p for r in theory.defaults for p in (r.prerequisite, r.justification, r.conclusion)]


def _dl_literals(instance) -> bool:
    return (
        isinstance(instance, DefaultTheory)
        and not instance.knowledge
        and all(_is_literal(p) or isinstance(p, Const) for p in _rule_parts(instance))
    )


def _dl_props_false(instance) -> bool:
    return (
        isinstance(instance, DefaultTheory)
        and len(instance.knowledge) <= 1
        and all(isinstance(f, Var) for f in instance.knowledge)
        and all(isinstance(p, Var) or p == FALSE for p in _rule_parts(instance))
    )


def _ael_disjunctions(instance) -> bool:
    """Disjunctions (possibly trivial) of propositions or L-prefixed
    propositions."""
    return isinstance(instance, AeTheory) and all(
        isinstance(d, Var) or (isinstance(d, Believes) and isinstance(d.arg, Var))
        for f in instance.formulas
        for d in _spine(f, "or")
    )


def _imp_xor3(instance) -> bool:
    premises, conclusions = instance
    return all(
        isinstance(d, Var) for f in [*premises, *conclusions] for d in _spine(f, "xor3")
    )


def _is_monotone_2clause(f: Formula) -> bool:
    return isinstance(f, Var) or (
        isinstance(f, App) and f.op == "or" and all(isinstance(a, Var) for a in f.args)
    )


def _imp_cnf_dnf(instance) -> bool:
    """Monotone clauses of at most two variables against DNF conclusions."""
    premises, conclusions = instance
    return all(_is_monotone_2clause(f) for f in premises) and all(
        _is_literal(c) for f in conclusions for d in _spine(f, "or") for c in _spine(d, "and")
    )


# class name -> membership test of an instance
_CLASSES = {
    "dl_literals": _dl_literals,
    "dl_props_false": _dl_props_false,
    "ael_disjunctions": _ael_disjunctions,
    "imp_xor3": _imp_xor3,
    "imp_cnf_dnf": _imp_cnf_dnf,
}
CLASS_NAMES = tuple(_CLASSES)


def check_class(instance, class_name: str) -> bool:
    """Syntactic membership of an instance in one of the restricted classes
    the lower-bound families are drawn from."""
    test = _CLASSES.get(class_name)
    if test is None:
        raise ValueError(f"unknown class {class_name!r}; expected one of {CLASS_NAMES}")
    return test(instance)
