"""Default logic: stage construction, stable-extension existence, and
generating-default enumeration.

Extensions are deductively closed and infinite, so they are represented by
the set of generating rules; membership questions are entailment queries
against a pluggable oracle.  Rule indices are 1-based throughout, matching
the rule elements d1..dm of the relational structure.

The stage construction has two steps, shared by the acceptance check and the
search: the *blocked set* of a rule set C (rules whose negated justification
follows from knowledge plus C's conclusions) and the *least fixpoint* of
rules applied under a given blocked set.  ``extension_exists`` searches the
generating sets depth first on an explicit stack, within a budget of search
nodes, and bounds the fixpoint of every completion of a partial choice from
below and above, which prunes whole subtrees instead of running the stage
construction on all 2^m candidates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ParseError, ResourceLimitError
from .formula import (
    Basis,
    Formula,
    format_formula,
    is_propositional,
    join_lines,
    parse_formula,
    read_lines,
)
from .limits import Limits, get_limits
from .twdp import EntailmentOracle, entailment_oracle, refutation


@dataclass(frozen=True)
class DefaultRule:
    prerequisite: Formula
    justification: Formula
    conclusion: Formula

    def __post_init__(self):
        for part in (self.prerequisite, self.justification, self.conclusion):
            if not is_propositional(part):
                raise ValueError("default-rule parts must be propositional")

    def __str__(self) -> str:
        return (
            f"{format_formula(self.prerequisite)} : "
            f"{format_formula(self.justification)} / "
            f"{format_formula(self.conclusion)}"
        )


@dataclass(frozen=True)
class DefaultTheory:
    knowledge: tuple[Formula, ...]
    defaults: tuple[DefaultRule, ...]

    def __post_init__(self):
        for f in self.knowledge:
            if not is_propositional(f):
                raise ValueError("knowledge base must be propositional")


@dataclass(frozen=True)
class ExtensionWitness:
    """A stable extension, represented by its generating rule indices."""

    generating: frozenset[int]


def _blocked(
    theory: DefaultTheory,
    chosen: Iterable[int],
    oracle: EntailmentOracle,
    known: frozenset[int] = frozenset(),
    possible: Optional[frozenset[int]] = None,
) -> frozenset[int]:
    """Rules whose negated justification follows from the knowledge base
    plus the conclusions of ``chosen``, that is, whose justification is
    inconsistent with them.  Monotone in ``chosen``; if those premises are
    inconsistent every rule is blocked, which one query settles.  A caller
    that knows the blocked sets of a subset and a superset of ``chosen``
    passes them as ``known`` and ``possible``, and only the rules between
    the two are asked about.  A ``possible`` short of every rule comes from
    a consistent superset, so ``chosen``'s premises are consistent too."""
    rules = theory.defaults
    if possible is not None and len(possible) == len(known):
        return known
    closure = list(theory.knowledge) + [rules[i - 1].conclusion for i in sorted(chosen)]
    if possible is None or len(possible) == len(rules):
        if not oracle.satisfiable(closure):
            return frozenset(range(1, len(rules) + 1))
    asked = range(1, len(rules) + 1) if possible is None else sorted(possible - known)
    return known.union([
        i for i in asked if not oracle.satisfiable([*closure, rules[i - 1].justification])
    ])


def _least_fixpoint(
    theory: DefaultTheory, blocked: frozenset[int], oracle: EntailmentOracle, refuted: list
) -> frozenset[int]:
    """Rules applied from the knowledge base upward: an unblocked rule fires
    once its prerequisite follows from what has been applied, that is, once
    that is unsatisfiable with ``refuted[i - 1]``, the ``refutation`` of rule
    i's prerequisite, built once per theory.  Antitone in ``blocked``."""
    rules = theory.defaults
    base = list(theory.knowledge)
    applied: set[int] = set()
    changed = True
    while changed:
        changed = False
        derived = base + [rules[i - 1].conclusion for i in sorted(applied)]
        for i in range(1, len(rules) + 1):
            if i in applied or i in blocked:
                continue
            if not oracle.satisfiable([*derived, refuted[i - 1]]):
                applied.add(i)
                changed = True
    return frozenset(applied)


def stage_fixpoint(
    theory: DefaultTheory,
    candidate: Iterable[int],
    oracle: Optional[EntailmentOracle] = None,
    *,
    blocked: Optional[frozenset[int]] = None,
) -> tuple[bool, frozenset[int]]:
    """Run the iterative stage construction against a candidate generating
    set.

    With C the candidate's conclusions, rules are applied from the knowledge
    base upward: a rule fires once its prerequisite follows from what has
    been applied, unless its negated justification follows from knowledge+C.
    Returns (applied == candidate, applied).  If knowledge+C is inconsistent
    every negated justification follows, so nothing is applicable.  A caller
    that already knows the candidate's blocked set passes it as ``blocked``,
    and it is not asked for again.
    """
    oracle = oracle or entailment_oracle("brute")
    candidate = frozenset(candidate)
    if not candidate <= set(range(1, len(theory.defaults) + 1)):
        raise ValueError("candidate contains unknown rule indices")
    if blocked is None:
        blocked = _blocked(theory, candidate, oracle)
    refuted = [refutation(r.prerequisite) for r in theory.defaults]
    applied = _least_fixpoint(theory, blocked, oracle, refuted)
    return applied == candidate, applied


def extension_exists(
    theory: DefaultTheory,
    oracle: Optional[EntailmentOracle] = None,
    *,
    limits: Limits | None = None,
) -> tuple[bool, list[ExtensionWitness]]:
    """All generating sets C with ``stage_fixpoint`` applied(C) = C, in
    binary counting order (rule 1 on the least significant bit).

    A depth-first search decides rule m first, then m-1, ..., 1, trying OUT
    before IN, so its leaves come in counting order.  At a node with rules
    k+1..m decided and 1..k open, every completion C satisfies
    IN <= C <= IN | OPEN.  Blocking is monotone in C and the fixpoint is
    antitone in the blocked set, so

        LO = fix(blocked(IN | OPEN))  <=  applied(C)  <=  UP = fix(blocked(IN)).

    A witness has applied(C) = C, so the node is pruned when IN is not
    within UP or when LO meets OUT.  Nodes ``(k, IN, OUT, LO, UP, FLOOR,
    CEILING)`` wait on an explicit stack.  The OUT child keeps its parent's
    UP and the IN child its parent's LO; the other bound is None until the
    child is popped, so the oracle sees the queries in depth-first order.
    A child's IN and IN | OPEN both lie between its parent's, so by
    monotonicity their blocked sets lie between the parent's blocked(IN)
    (FLOOR) and blocked(IN | OPEN) (CEILING), which every child inherits:
    ``_blocked`` then asks only about the rules in CEILING - FLOOR.  A
    surviving leaf has LO = UP = IN and is confirmed by ``stage_fixpoint``
    under its FLOOR, which there is blocked(IN).
    Each popped node counts against
    ``Limits.search_nodes``; m rules give at most 2^(m+1) - 1 nodes.  The
    oracle compiles the theory's universe once: the knowledge and every
    rule's prerequisite, justification and conclusion.
    """
    oracle = oracle or entailment_oracle("brute")
    m = len(theory.defaults)
    budget = get_limits(limits).search_nodes
    oracle.compile_universe([
        *theory.knowledge,
        *(p for r in theory.defaults for p in (r.prerequisite, r.justification, r.conclusion)),
    ])

    refuted = [refutation(r.prerequisite) for r in theory.defaults]
    witnesses: list[ExtensionWitness] = []
    nodes = 0
    stack = [(m, frozenset(), frozenset(), None, None, frozenset(), None)]
    while stack:
        k, chosen, out, lo, up, floor, ceiling = stack.pop()
        nodes += 1
        if nodes > budget:
            where = f"deciding rule {k}" if k else "confirming a leaf"
            raise ResourceLimitError(
                f"DL extension search: node {nodes} exceeds NMLKIT_LIMITS "
                f"search_nodes={budget} while {where}"
            )
        if lo is None:
            ceiling = _blocked(theory, chosen | frozenset(range(1, k + 1)), oracle, floor, ceiling)
            lo = _least_fixpoint(theory, ceiling, oracle, refuted)
        if up is None:
            floor = _blocked(theory, chosen, oracle, floor, ceiling)
            up = _least_fixpoint(theory, floor, oracle, refuted)
        if not chosen <= up or lo & out:
            continue
        if k == 0:
            # stage_fixpoint is looked up at call time, so a wrapper
            # installed on this module sees every leaf
            if stage_fixpoint(theory, chosen, oracle, blocked=floor)[0]:
                witnesses.append(ExtensionWitness(chosen))
            continue
        # the children's bounds nest inside the parent's, so rule k in LO
        # already prunes the OUT child and rule k outside UP the IN child;
        # the OUT child is pushed last, so its subtree is searched first
        if k in up:
            stack.append((k - 1, chosen | {k}, out, lo, None, floor, ceiling))
        if k not in lo:
            stack.append((k - 1, chosen, out | {k}, None, up, floor, ceiling))
    return bool(witnesses), witnesses


def parse_default_theory(text: str, basis: Basis = None) -> DefaultTheory:
    """Parse the .dt format: '#' comments, ``w: <formula>`` knowledge lines,
    ``d: <alpha> ; <beta> ; <gamma>`` rule lines."""
    basis = basis or Basis()

    def parse_line(head: str, rest: str):
        if head == "w":
            return parse_formula(rest, "prop", basis)
        parts = rest.split(";")
        if len(parts) != 3:
            raise ParseError("default needs three ';'-separated parts")
        return DefaultRule(*(parse_formula(p, "prop", basis) for p in parts))

    groups = read_lines(text, parse_line, ("w", "d"))
    return DefaultTheory(tuple(groups["w"]), tuple(groups["d"]))


def format_default_theory(theory: DefaultTheory) -> str:
    return join_lines(
        [f"w: {format_formula(f)}" for f in theory.knowledge]
        + [
            "d: " + " ; ".join(map(format_formula, (r.prerequisite, r.justification, r.conclusion)))
            for r in theory.defaults
        ]
    )
