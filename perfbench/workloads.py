"""The four workloads: seeded instance lists (set-up), the step timed per
instance (input to verdict), and an independent reference verdict for every
instance, computed outside the timed region.

Every nmlkit entry point is called through its defining module
(``twdp.dp_sat``, ``dl.extension_exists``, ...) so that the traced pass sees
it.

The random content of every instance is drawn once, from CONTENT_SEED.  The
run's seed renames the variables, permutes the rules of a default theory
(``dl-enum`` only) and shuffles the instance list.  Every seed thus hands the
solvers new inputs that ask for the same amount of work, and runs with
different seeds can be compared.
"""
from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable

from nmlkit import ael, dl, encodings, families, formula, mso, structures, treewidth, twdp
from nmlkit.formula import App, Believes, Var, limp, lnot, lxor
from nmlkit.limits import Limits
from nmlkit.randgen import (
    random_ae_theory,
    random_formula,
    random_formula_set,
    random_literal_default_theory,
)

BASIS = formula.Basis()
CONTENT_SEED = 11100623


@dataclass(frozen=True)
class Setup:
    instances: list
    context: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool], Setup]  # (seed, small) -> instance list
    reference: Callable[[Any], Any]  # instance -> expected verdict
    solve: Callable[[Any, Any, Limits], Any]  # (instance, context, limits) -> verdict
    agrees: Callable[[Any, Any], bool] = operator.eq  # (verdict, reference) -> right?


def _names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct variable names in seeded order."""
    return [f"v{i}" for i in rng.sample(range(10 * count + 10), count)]


def _rename(f: formula.Formula, new: dict[str, str]) -> formula.Formula:
    if isinstance(f, Var):
        return Var(new[f.name])
    if isinstance(f, App):
        return App(f.op, tuple(_rename(a, new) for a in f.args))
    if isinstance(f, Believes):
        return Believes(_rename(f.arg, new))
    return f


def _renaming(rng: random.Random, formulas) -> dict[str, str]:
    """Seeded fresh names for every variable of ``formulas``."""
    old = sorted({s.name for s in formula.subformulae(list(formulas)) if isinstance(s, Var)})
    return dict(zip(old, _names(rng, len(old))))


def _renamed_theory(rng: random.Random, theory: dl.DefaultTheory,
                    permute: bool) -> dl.DefaultTheory:
    parts = [p for r in theory.defaults
             for p in (r.prerequisite, r.justification, r.conclusion)]
    new = _renaming(rng, [*theory.knowledge, *parts])
    rules = [dl.DefaultRule(*(_rename(p, new) for p in
                              (r.prerequisite, r.justification, r.conclusion)))
             for r in theory.defaults]
    if permute:
        rng.shuffle(rules)
    return dl.DefaultTheory(tuple(_rename(f, new) for f in theory.knowledge), tuple(rules))


# ---------------------------------------------------------------------------
# sat-dp: formula sets held as text, parsed and solved by dp_sat
# ---------------------------------------------------------------------------

# (size, satisfiable): implication chains of `size` links, and band-limited
# random sets of `size` formulas over a sliding window of BAND variables.
# A pass takes well under a second, so that a run has enough passes for
# steady best times.
SAT_CHAINS = [(250, True), (500, True), (500, False), (1000, True), (1000, False),
              (2000, True)]
SAT_BANDED = [(50, True), (100, False), (200, True), (300, True)]
SAT_SMALL = [(60, True), (40, False)]
BAND = 3


@dataclass(frozen=True)
class SatInstance:
    label: str
    text: str
    formulas: tuple
    model: dict | None  # planted model of a satisfiable set
    core: tuple  # planted unsatisfiable subset of an unsatisfiable set


def _chain(names: list[str], content: random.Random, size: int, sat: bool) -> SatInstance:
    x = [Var(name) for name in names]
    formulas = [x[0]] + [limp(x[i], x[i + 1]) for i in range(size)]
    core: tuple = ()
    if not sat:
        k = content.randrange(size)
        core = (x[k], limp(x[k], x[k + 1]), lnot(x[k + 1]))
        formulas += [core[0], core[2]]
    model = {v.name: True for v in x} if sat else None
    return _sat_instance(f"chain-{size}", formulas, model, core)


def _banded(names: list[str], content: random.Random, size: int, sat: bool) -> SatInstance:
    model = {name: content.random() < 0.5 for name in names}
    formulas = []
    for k in range(size):
        lo = k * (len(names) - BAND) // size
        f = random_formula(content, names[lo:lo + BAND], max_depth=3)
        formulas.append(f if formula.evaluate(f, model) else lnot(f))
    core: tuple = ()
    if not sat:
        lo = content.randrange(len(names) - BAND + 1)
        a, b, c = (Var(name) for name in names[lo:lo + BAND])
        core = (lxor(a, b), lxor(b, c), lxor(a, c))  # odd parity cycle
        formulas += core
    return _sat_instance(f"banded-{size}", formulas, model if sat else None, core)


def _sat_instance(label, formulas, model, core) -> SatInstance:
    text = "\n".join(formula.format_formula(f) for f in formulas)
    return SatInstance(label, text, tuple(formulas), model, core)


def _sat_setup(seed: int, small: bool) -> Setup:
    content, rng = random.Random(CONTENT_SEED), random.Random(seed)
    chains = SAT_SMALL if small else SAT_CHAINS
    banded = SAT_SMALL if small else SAT_BANDED
    instances = [_chain(_names(rng, n + 1), content, n, s) for n, s in chains]
    instances += [_banded(_names(rng, n // 2 + BAND), content, n, s) for n, s in banded]
    rng.shuffle(instances)
    return Setup(instances)


def _sat_reference(inst: SatInstance) -> bool:
    if inst.model is not None:
        if not all(formula.evaluate(f, inst.model) for f in inst.formulas):
            raise AssertionError(f"{inst.label}: planted model does not satisfy the set")
        return True
    if formula.sat_bruteforce(inst.core) is not None:
        raise AssertionError(f"{inst.label}: planted core is satisfiable")
    return False


def _sat_solve(inst: SatInstance, context, limits: Limits) -> bool:
    gamma = [formula.parse_formula(line) for line in inst.text.splitlines()]
    return twdp.dp_sat(gamma, limits=limits)


# ---------------------------------------------------------------------------
# dl-enum: extension_exists with the twdp oracle on the DL lower-bound families
# ---------------------------------------------------------------------------

# (variant, n, copies); printed n has n(n+1)/2 rules, symmetric n(n-1)/2
DL_FAMILIES = [("printed", 2, 3), ("symmetric", 3, 3), ("printed", 3, 12),
               ("printed", 4, 4), ("symmetric", 5, 4)]
DL_SMALL = [("printed", 3, 1), ("symmetric", 4, 1)]


def _dl_setup(seed: int, small: bool) -> Setup:
    rng = random.Random(seed)
    instances = [
        _renamed_theory(rng, families.gen_dl_lower(n, variant), permute=True)
        for variant, n, copies in (DL_SMALL if small else DL_FAMILIES)
        for _ in range(copies)
    ]
    rng.shuffle(instances)
    return Setup(instances)


def _dl_reference(theory: dl.DefaultTheory):
    # Every rule of the lower-bound families concludes F from a prerequisite
    # that nothing derives, so the only extension is Th({}) with no
    # generating rule.
    return True, [frozenset()]


def _dl_solve(theory, context, limits: Limits):
    ok, witnesses = dl.extension_exists(
        theory, twdp.entailment_oracle("twdp", limits), limits=limits
    )
    return ok, [w.generating for w in witnesses]


# ---------------------------------------------------------------------------
# ael-exp: expansion_exists with the twdp oracle on random AE theories
# ---------------------------------------------------------------------------

# belief atoms -> number of theories with that many
AEL_SCHEDULE = {5: 5, 6: 2, 7: 1}
AEL_SMALL = {3: 1, 4: 1}
AEL_VARIABLES = tuple(Var(name) for name in ("p", "q", "r"))
AEL_FORMULAS = 3
BINARY = ("and", "or", "imp", "iff", "xor")


def _ae_theory(rng: random.Random, k: int) -> ael.AeTheory:
    """A random theory with exactly ``k`` belief atoms.  Each atom believes a
    variable, an earlier atom, a negation of one or a binary connective over
    two of them; the atoms are then spread over AEL_FORMULAS formulas joined
    by random connectives, with one variable each."""
    atoms: list = []
    while len(atoms) < k:
        a, b = rng.sample(AEL_VARIABLES + tuple(atoms), 2)
        roll = rng.random()
        arg = App(rng.choice(BINARY), (a, b)) if roll < 0.4 else lnot(a) if roll < 0.6 else a
        if Believes(arg) not in atoms:
            atoms.append(Believes(arg))
    rng.shuffle(atoms)
    formulas = []
    for j in range(AEL_FORMULAS):
        parts = atoms[j::AEL_FORMULAS] + [rng.choice(AEL_VARIABLES)]
        f = parts[0]
        for part in parts[1:]:
            f = App(rng.choice(BINARY), (f, part))
        formulas.append(f)
    return ael.AeTheory(tuple(formulas))


def _renamed_ae(rng: random.Random, sigma: ael.AeTheory) -> ael.AeTheory:
    new = _renaming(rng, sigma.formulas)
    return ael.AeTheory(tuple(_rename(f, new) for f in sigma.formulas))


def _ael_setup(seed: int, small: bool) -> Setup:
    content, rng = random.Random(CONTENT_SEED), random.Random(seed)
    schedule = AEL_SMALL if small else AEL_SCHEDULE
    instances = [_renamed_ae(rng, _ae_theory(content, k))
                 for k, count in schedule.items() for _ in range(count)]
    rng.shuffle(instances)
    return Setup(instances)


def full_sets_by_truth_table(sigma: ael.AeTheory) -> tuple[bool, list[tuple[bool, ...]]]:
    """Full sets of ``sigma`` as polarity tuples, in ``expansion_exists``
    order, by truth tables over the theory's variables.

    Belief atoms are opaque, and a candidate fixes all of them, so the models
    of theory plus candidate are the variable assignments that satisfy the
    theory under the candidate's polarities.  No oracle and no DP is used.
    """
    atoms = ael.belief_atoms(sigma)
    names = sorted({s.name for s in formula.subformulae(list(sigma.formulas))
                    if isinstance(s, Var)})
    rows = [dict(zip(names, bits))
            for bits in itertools.product((False, True), repeat=len(names))]
    found = []
    for polarities in itertools.product((False, True), repeat=len(atoms)):
        polarities = polarities[::-1]  # atom 0 is the least significant bit
        fixed = dict(zip(atoms, polarities))
        models = [{**row, **fixed} for row in rows]
        models = [m for m in models if all(formula.evaluate(f, m) for f in sigma.formulas)]
        if all(
            all(formula.evaluate(bel.arg, m) for m in models) == positive
            for bel, positive in fixed.items()
        ):
            found.append(polarities)
    return bool(found), found


def _ael_solve(sigma, context, limits: Limits):
    ok, found = ael.expansion_exists(
        sigma, twdp.entailment_oracle("twdp", limits), limits=limits
    )
    return ok, [tuple(positive for _, positive in c.entries) for c in found]


# ---------------------------------------------------------------------------
# mso-check: the Courcelle route, structure -> Gaifman graph -> exact
# treewidth -> MSO model checking, plus pseudo-clique treewidth
# ---------------------------------------------------------------------------

# random instances per kind, and copies of the printed lower-bound theory n=3
MSO_RANDOM = {"prop": 10, "dl": 5, "ae": 10}
MSO_DL_LOWER = 2
MSO_PSEUDO_MAINS = (6, 8, 10, 12, 14)
MSO_SMALL_RANDOM = {"prop": 1, "dl": 1, "ae": 1}
MSO_SMALL_DL_LOWER = 1
MSO_SMALL_PSEUDO_MAINS = (5,)
ENCODING_OF = {"prop": "sat", "dl": "extension", "ae": "full_exists"}


def _sample(draw, accept):
    while True:
        obj = draw()
        if accept(obj):
            return obj


def _random_mso_instance(content: random.Random, rng: random.Random, kind: str):
    """A formula set with 8 subformulas, a literal default theory with 2
    rules, or an AE theory with 6 subformulas and one belief atom; drawn from
    ``content`` and renamed by ``rng``."""
    def subs(fs):
        return len(formula.subformulae(list(fs)))

    if kind == "prop":
        gamma = _sample(lambda: random_formula_set(content, max_subformulae=8),
                        lambda fs: subs(fs) == 8)
        new = _renaming(rng, gamma)
        return [_rename(f, new) for f in gamma]
    if kind == "dl":
        theory = _sample(lambda: random_literal_default_theory(content),
                         lambda th: len(th.defaults) == 2)
        return _renamed_theory(rng, theory, permute=False)
    sigma = _sample(lambda: random_ae_theory(content, max_belief_atoms=1),
                    lambda s: subs(s.formulas) == 6 and ael.belief_atoms(s))
    return _renamed_ae(rng, sigma)


def _pseudo_clique(content: random.Random, n: int, limits: Limits) -> structures.Graph:
    """Pseudo-clique on ``n`` mains whose edge-nodes fill the clique-search
    vertex cap exactly (at most two per pair), spread over random pairs."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    budget = min(limits.clique_vertices - n, 2 * len(pairs))
    content.shuffle(pairs)
    twos = max(0, budget - len(pairs))
    card = {p: (2 if r < twos else 1 if r < budget - twos else 0)
            for r, p in enumerate(pairs)}
    return families.gen_pseudo_clique(families.PseudoCliqueSpec(n, card))


def _mso_setup(seed: int, small: bool) -> Setup:
    content, rng = random.Random(CONTENT_SEED), random.Random(seed)
    counts = MSO_SMALL_RANDOM if small else MSO_RANDOM
    lower = MSO_SMALL_DL_LOWER if small else MSO_DL_LOWER
    mains = MSO_SMALL_PSEUDO_MAINS if small else MSO_PSEUDO_MAINS
    instances = [(kind, _random_mso_instance(content, rng, kind))
                 for kind, count in counts.items() for _ in range(count)]
    instances += [("dl", families.gen_dl_lower(3, "printed"))] * lower
    instances += [("pseudo-clique", _pseudo_clique(content, n, Limits())) for n in mains]
    rng.shuffle(instances)
    encs = {kind: encodings.mso_encoding(name, BASIS) for kind, name in ENCODING_OF.items()}
    return Setup(instances, encs)


def _structure(kind: str, obj):
    if kind == "prop":
        return structures.build_prop_structure(obj, BASIS)
    if kind == "dl":
        return structures.build_dl_structure(obj, BASIS)
    return structures.build_ael_structure(obj.formulas, BASIS)


def _degeneracy(g) -> int:
    """Largest minimum degree over the subgraphs peeled off by removing a
    vertex of least degree: a lower bound on treewidth."""
    adj = g.adjacency()
    best = 0
    while adj:
        v = min(adj, key=lambda u: len(adj[u]))
        best = max(best, len(adj[v]))
        for u in adj.pop(v):
            adj[u].discard(v)
    return best


def _mso_reference(inst):
    """For a theory or formula set: the brute-force verdict, the Gaifman
    graph, and bounds on its treewidth (degeneracy below, min-fill above).
    For a pseudo-clique on n mains: treewidth n-1 and a clique of n."""
    kind, obj = inst
    brute = twdp.entailment_oracle("brute")
    if kind == "pseudo-clique":
        mains = sum(1 for label in obj.labels.values() if label == "main")
        return mains - 1, mains
    if kind == "prop":
        verdict = formula.sat_bruteforce(obj) is not None
    elif kind == "dl":
        verdict = dl.extension_exists(obj, brute)[0]
    else:
        verdict = ael.expansion_exists(obj, brute)[0]
    g = structures.gaifman_graph(_structure(kind, obj))
    return verdict, g, _degeneracy(g), treewidth.width(treewidth.heuristic_decomposition(g))


def _mso_solve(inst, encs, limits: Limits):
    kind, obj = inst
    if kind == "pseudo-clique":
        return (treewidth.exact_treewidth(obj, limits=limits)[0],
                treewidth.pseudo_clique_lower_bound(obj, limits=limits))
    s = _structure(kind, obj)
    tw, td = treewidth.exact_treewidth(structures.gaifman_graph(s), limits=limits)
    return mso.eval_mso(s, encs[kind], limits=limits), tw, td


def _mso_agrees(got, want) -> bool:
    """The verdict matches, and the treewidth is witnessed by a valid
    decomposition of that width and lies within the reference's bounds."""
    if len(want) == 2:  # pseudo-clique
        return got == want
    verdict, tw, td = got
    want_verdict, g, low, high = want
    return (verdict == want_verdict and low <= tw <= high
            and treewidth.width(td) == tw and not treewidth.validate_decomposition(g, td))


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sat-dp", _sat_setup, _sat_reference, _sat_solve),
        Workload("dl-enum", _dl_setup, _dl_reference, _dl_solve),
        Workload("ael-exp", _ael_setup, full_sets_by_truth_table, _ael_solve),
        Workload("mso-check", _mso_setup, _mso_reference, _mso_solve, _mso_agrees),
    )
}
