"""Seeded random instance generators shared by the test suite, the
verification harness, and the benchmark runner."""
from __future__ import annotations

import random
from typing import Optional

from .ael import AeTheory
from .dl import DefaultRule, DefaultTheory
from .formula import (
    App,
    Believes,
    Const,
    Formula,
    Var,
    believes_subformulae,
    lnot,
    subformulae,
)
from .structures import Graph, make_graph

_BINARY = ("and", "or", "imp", "iff", "xor")


def random_formula(
    rng: random.Random,
    variables: list[str],
    max_depth: int = 3,
    allow_believes: bool = False,
    allow_const: bool = True,
) -> Formula:
    if max_depth <= 0 or rng.random() < 0.3:
        if allow_const and rng.random() < 0.15:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(variables))
    roll = rng.random()
    if allow_believes and roll < 0.25:
        return Believes(random_formula(rng, variables, max_depth - 1, allow_believes))
    if roll < 0.4:
        return lnot(random_formula(rng, variables, max_depth - 1, allow_believes))
    if roll < 0.48:
        return App(
            "xor3",
            tuple(
                random_formula(rng, variables, max_depth - 2, allow_believes)
                for _ in range(3)
            ),
        )
    op = rng.choice(_BINARY)
    return App(
        op,
        (
            random_formula(rng, variables, max_depth - 1, allow_believes),
            random_formula(rng, variables, max_depth - 1, allow_believes),
        ),
    )


def random_formula_set(
    rng: random.Random,
    *,
    max_formulas: int = 3,
    max_subformulae: int = 8,
    variables: Optional[list[str]] = None,
    allow_believes: bool = False,
) -> list[Formula]:
    """A small formula set whose deduplicated subformula count stays under
    the given bound (resampled until it fits)."""
    variables = variables or ["p", "q", "r", "s"]
    while True:
        count = rng.randint(1, max_formulas)
        formulas = [
            random_formula(rng, variables, max_depth=3, allow_believes=allow_believes)
            for _ in range(count)
        ]
        if len(subformulae(formulas)) <= max_subformulae:
            return formulas


def random_literal(rng: random.Random, variables: list[str]) -> Formula:
    v = Var(rng.choice(variables))
    return lnot(v) if rng.random() < 0.5 else v


def random_literal_default_theory(
    rng: random.Random,
    *,
    max_rules: int = 3,
    variables: Optional[list[str]] = None,
    with_knowledge: bool = True,
) -> DefaultTheory:
    """Rules whose parts are literals or constants over few variables; the
    knowledge base, when present, holds at most two literals."""
    variables = variables or ["x", "y", "z"]

    def part() -> Formula:
        roll = rng.random()
        if roll < 0.15:
            return Const(True)
        if roll < 0.3:
            return Const(False)
        return random_literal(rng, variables)

    knowledge: list[Formula] = []
    if with_knowledge and rng.random() < 0.4:
        knowledge = [random_literal(rng, variables) for _ in range(rng.randint(1, 2))]
    rules = [
        DefaultRule(part(), part(), part()) for _ in range(rng.randint(0, max_rules))
    ]
    return DefaultTheory(tuple(knowledge), tuple(rules))


def random_ae_theory(
    rng: random.Random,
    *,
    max_belief_atoms: int = 3,
    max_subformulae: int = 8,
    variables: Optional[list[str]] = None,
) -> AeTheory:
    variables = variables or ["p", "q"]
    while True:
        count = rng.randint(1, 2)
        formulas = [
            random_formula(rng, variables, max_depth=3, allow_believes=True)
            for _ in range(count)
        ]
        if (
            len(subformulae(formulas)) <= max_subformulae
            and len(believes_subformulae(formulas)) <= max_belief_atoms
        ):
            return AeTheory(tuple(formulas))


def random_graph(rng: random.Random, n: int, p: float = 0.35) -> Graph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return make_graph(n, edges)


def random_entailment_query(
    rng: random.Random, *, max_subformulae: int = 12
) -> tuple[list[Formula], Formula]:
    variables = ["p", "q", "r", "s"]
    while True:
        premises = [
            random_formula(rng, variables, max_depth=3) for _ in range(rng.randint(1, 3))
        ]
        conclusion = random_formula(rng, variables, max_depth=3)
        if len(subformulae(premises + [conclusion])) <= max_subformulae:
            return premises, conclusion
