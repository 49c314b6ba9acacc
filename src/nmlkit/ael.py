"""Autoepistemic logic via full sets: fullness checking, expansion existence,
and full-set enumeration.

A stable expansion is represented by its full set: a polarity choice over the
belief atoms (the ``L``-rooted subformulas).  Entailment treats belief atoms
opaquely, so the brute-force and decomposition oracles apply unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import (
    Basis,
    Believes,
    Formula,
    believes_subformulae,
    format_formula,
    format_formula_set,
    lnot,
    parse_formula,
    read_lines,
)
from .limits import Limits, check
from .twdp import EntailmentOracle, entailment_oracle, refutation


@dataclass(frozen=True)
class AeTheory:
    formulas: tuple[Formula, ...]


@dataclass(frozen=True)
class FullSetCandidate:
    """One polarity (positive = believed) per belief atom of the theory, in
    first-occurrence order."""

    entries: tuple[tuple[Believes, bool], ...]

    def literals(self) -> list[Formula]:
        """The believed atoms, and the negations of the others."""
        return [bel if positive else lnot(bel) for bel, positive in self.entries]

    def __str__(self) -> str:
        return "{" + ", ".join(
            ("" if positive else "!") + format_formula(bel)
            for bel, positive in self.entries
        ) + "}"


def belief_atoms(sigma: AeTheory) -> list[Believes]:
    """Every L-rooted subformula of the theory (nested ones included),
    deduplicated, in first-occurrence order."""
    return believes_subformulae(list(sigma.formulas))


def is_full(
    sigma: AeTheory,
    candidate: FullSetCandidate,
    oracle: Optional[EntailmentOracle] = None,
    refutations: Optional[list[Formula]] = None,
    negations: Optional[list[Formula]] = None,
) -> bool:
    """The candidate is full iff, for each belief atom L-phi, the theory plus
    the candidate's literals entails phi exactly when the atom is positive,
    that is, is unsatisfiable with phi's ``refutation`` exactly then.
    ``refutations`` are those of the atoms' arguments and ``negations`` the
    negated atoms, both in entry order, for a caller that asks about many
    candidates; each is built here when None."""
    oracle = oracle or entailment_oracle("brute")
    if refutations is None:
        refutations = [refutation(bel.arg) for bel, _ in candidate.entries]
    if negations is None:
        negations = [lnot(bel) for bel, _ in candidate.entries]
    premises = [*sigma.formulas, *(
        bel if positive else negated
        for (bel, positive), negated in zip(candidate.entries, negations)
    )]
    for (_, positive), refuted in zip(candidate.entries, refutations):
        if oracle.satisfiable(premises + [refuted]) == positive:
            return False
    return True


def expansion_exists(
    sigma: AeTheory,
    oracle: Optional[EntailmentOracle] = None,
    *,
    limits: Limits | None = None,
) -> tuple[bool, list[FullSetCandidate]]:
    """Enumerate all polarity choices (binary counting order, all-negative
    first) and return the full ones, charging ``Limits.search_nodes`` up
    front for all 2^(k+1) - 1 nodes of the decision tree over k belief atoms.
    The oracle compiles the theory's universe once: its formulas and every
    belief atom's argument.  The atoms' refutations and negations are built
    once, too, and handed to every ``is_full``."""
    oracle = oracle or entailment_oracle("brute")
    atoms = belief_atoms(sigma)
    check(limits, "search_nodes", (2 << len(atoms)) - 1, "AEL expansion search: node count")
    oracle.compile_universe([*sigma.formulas, *(bel.arg for bel in atoms)])
    refutations = [refutation(bel.arg) for bel in atoms]
    negations = [lnot(bel) for bel in atoms]
    found = []
    for mask in range(1 << len(atoms)):
        candidate = FullSetCandidate(
            tuple((bel, bool((mask >> i) & 1)) for i, bel in enumerate(atoms))
        )
        if is_full(sigma, candidate, oracle, refutations, negations):
            found.append(candidate)
    return bool(found), found


def parse_ae_theory(text: str, basis: Basis = None) -> AeTheory:
    """Parse the .ae format: one formula per line, '#' comments."""
    basis = basis or Basis()
    return AeTheory(tuple(read_lines(text, lambda _, line: parse_formula(line, "ae", basis))[""]))


def format_ae_theory(sigma: AeTheory) -> str:
    return format_formula_set(sigma.formulas)
