"""Verification harness: every headline property of the toolkit as a named,
seeded check.  The acceptance test module and the ``verify-paper`` CLI
subcommand both run these, so there is a single source of truth.
"""
from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from .ael import AeTheory, expansion_exists
from .dl import extension_exists, stage_fixpoint
from .encodings import (
    expansion_existence,
    extension_existence,
    implication,
    satisfiability,
    structure_check,
)
from .errors import ResourceLimitError
from .families import PseudoCliqueSpec, chain, gen_ael_lower, gen_dl_lower, gen_pseudo_clique
from .formula import (
    Basis,
    Believes,
    Var,
    implies_bruteforce,
    limp,
    lnot,
    sat_bruteforce,
    subformulae,
)
from .limits import get_limits
from .mso import MsoFormula, _compiled, _Evaluator, eval_mso
from .randgen import (
    random_ae_theory,
    random_entailment_query,
    random_formula_set,
    random_graph,
    random_literal_default_theory,
)
from .structures import (
    RelationalStructure,
    build_ael_structure,
    build_dl_structure,
    build_imp_structure,
    build_prop_structure,
    emit_gr,
    gaifman_graph,
    parse_gr,
)
from .treewidth import (
    TreeDecomposition,
    decomposition_from_order,
    emit_td,
    exact_treewidth,
    heuristic_decomposition,
    normalize_pseudo,
    parse_td,
    pseudo_clique_lower_bound,
    validate_decomposition,
    width,
)
from .twdp import compile_set, dp_sat, entailment_oracle

BASIS = Basis()


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    millis: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail} [{self.millis:.0f} ms]"


def _timed(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    t0 = time.perf_counter()
    passed, detail = fn()
    return CheckResult(name, passed, detail, (time.perf_counter() - t0) * 1000)


def check_pseudo_clique_treewidth(seed: int = 1, quick: bool = False) -> CheckResult:
    """Exact treewidth of every pseudo-clique with 3..6 mains and uniform
    cardinality 0..3 equals size minus one, within 60 seconds total, and
    its pseudo-clique lower bound reads the n mains, so tw = n - 1 is
    certified from below as well as from above."""

    def run():
        t0 = time.perf_counter()
        bad = []
        for n in range(3, 7):
            for k in range(0, 4):
                g = gen_pseudo_clique(PseudoCliqueSpec(n, k))
                w, td = exact_treewidth(g)
                clique = pseudo_clique_lower_bound(g)
                if w != n - 1 or clique != n or validate_decomposition(g, td):
                    bad.append((n, k, w, clique))
        elapsed = time.perf_counter() - t0
        ok = not bad and elapsed < 60.0
        return ok, (f"16/16 instances at width n-1 with a clique minor of n, {elapsed:.2f}s"
                    if ok else f"failures (n, k, width, clique): {bad}")

    return _timed("pseudo-clique treewidth", run)


def check_normalization(seed: int = 1, quick: bool = False) -> CheckResult:
    """Bag rewriting on random labeled pseudo-clique decompositions: output
    valid, width never larger, and edge-nodes confined to small bags.

    The printed claim, every edge-node in exactly one bag of size at most
    three, cannot hold once a main pair carries two edge-nodes d1, d2: in a
    valid decomposition of the induced path i-d1-d2-j, a single bag for d1
    must hold {i, d1, d2} and a single bag for d2 must hold {d1, d2, j}; both
    contain d1, so they are one bag of four vertices.  The check therefore
    demands the strongest form that can hold: every bag holding an edge-node
    has at most three vertices, an edge-node that is alone on its pair's path
    lies in exactly one bag, and every other edge-node lies in at most two.
    It still reports the printed clause, and requires it to hold on exactly
    the samples where no pair carries two or more edge-nodes.
    """
    samples = 20 if quick else 100

    def run():
        rng = random.Random(seed)
        valid_ok = width_ok = confined_ok = printed_ok = printed_agrees = 0
        singles = 0
        for _ in range(samples):
            n = rng.randint(3, 6)
            pairs = {
                (a, b): rng.randint(0, 3)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
            }
            g = gen_pseudo_clique(PseudoCliqueSpec(n, pairs))
            if rng.random() < 0.5:
                td = heuristic_decomposition(g)
            else:
                td = TreeDecomposition({1: frozenset(range(1, g.n + 1))}, frozenset())
            out = normalize_pseudo(g, td)
            if not validate_decomposition(g, out):
                valid_ok += 1
            if width(out) <= width(td):
                width_ok += 1
            adj = g.adjacency()
            bags = out.bags.values()
            small = all(len(bag) <= 3 for bag in bags if any(g.labels[v] == "edge" for v in bag))
            confined = small
            printed = small
            for d, lab in g.labels.items():
                if lab != "edge":
                    continue
                count = sum(1 for bag in bags if d in bag)
                # alone on its pair's path iff both neighbours are mains
                if all(g.labels[u] == "main" for u in adj[d]):
                    singles += 1
                    confined &= count == 1
                else:
                    confined &= count <= 2
                printed &= count == 1
            confined_ok += confined
            printed_ok += printed
            printed_agrees += printed == (max(pairs.values()) <= 1)
        ok = valid_ok == width_ok == confined_ok == printed_agrees == samples
        return ok, (
            f"valid {valid_ok}/{samples}, width-monotone {width_ok}/{samples}, "
            f"edge-nodes confined {confined_ok}/{samples} (bags of <=3; "
            f"{singles} alone on their pair once, others at most twice), "
            f"exactly-once-small (as printed) {printed_ok}/{samples}, "
            f"holds exactly where no pair carries >=2 edge-nodes {printed_agrees}/{samples}"
        )

    return _timed("pseudo-clique normalization", run)


def mso_steps(structure: RelationalStructure, phi: MsoFormula) -> tuple[bool, int]:
    """``eval_mso``'s verdict on a closed sentence under the default limits,
    and the steps it took: the evaluator's work, counted exactly."""
    ev = _Evaluator(structure, {}, {}, get_limits())
    return _compiled(phi)(ev), ev.steps


def check_sat_imp_encodings(seed: int = 1, quick: bool = False) -> CheckResult:
    """Model checking the satisfiability and implication encodings agrees
    with the truth-table oracles on random instances, within 120 seconds,
    and decides both on chain(1000) and chain(2000) in steps that grow
    about linearly, as the fixed-width scaling check's program work does."""
    samples = 20 if quick else 100

    def run():
        rng = random.Random(seed)
        sat_enc = satisfiability(BASIS, "corrected")
        imp_enc = implication(BASIS, "corrected")
        t0 = time.perf_counter()
        sat_agree = 0
        for _ in range(samples):
            gamma = random_formula_set(rng, max_subformulae=8)
            verdict = eval_mso(build_prop_structure(gamma), sat_enc)
            if verdict == (sat_bruteforce(gamma) is not None):
                sat_agree += 1
        imp_agree = 0
        done = 0
        while done < samples:
            f = random_formula_set(rng, max_subformulae=5, max_formulas=2)
            g = random_formula_set(rng, max_subformulae=4, max_formulas=2)
            if len(subformulae(f + g)) > 8:
                continue
            done += 1
            verdict = eval_mso(build_imp_structure(f, g), imp_enc)
            if verdict == implies_bruteforce(f, g):
                imp_agree += 1
        elapsed = time.perf_counter() - t0
        steps = {}
        for name, enc, build in (
            ("sat", sat_enc, lambda m: build_prop_structure(chain(m))),
            ("imp", imp_enc, lambda m: build_imp_structure(chain(m), [Var(f"x{m}")])),
        ):
            steps[name] = [mso_steps(build(m), enc) for m in (1000, 2000)]
        decided = all(verdict for pair in steps.values() for verdict, _ in pair)
        ratio = max(large / small for (_, small), (_, large) in steps.values())
        ok = (sat_agree == samples and imp_agree == samples and elapsed < 120.0
              and decided and ratio <= 2.05)
        chains = ", ".join(f"{name} {small:,} -> {large:,}"
                           for name, ((_, small), (_, large)) in steps.items())
        return ok, (
            f"sat {sat_agree}/{samples}, imp {imp_agree}/{samples}, {elapsed:.1f}s; "
            f"chain(1000) -> chain(2000) steps: {chains}, ratio {ratio:.3f}"
        )

    return _timed("satisfiability/implication encodings", run)


def check_extension_encoding(seed: int = 1, quick: bool = False) -> CheckResult:
    """Model checking the extension-existence encoding agrees with the stage
    construction on random literal default theories, and finds the
    extension that the printed lower-bound theories have (no rule applies,
    as no prerequisite follows from the empty knowledge) for n = 2..8."""
    samples = 20 if quick else 100
    lower = range(2, 9)

    def run():
        rng = random.Random(seed)
        enc = extension_existence(BASIS, "corrected")
        agree = 0
        for _ in range(samples):
            th = random_literal_default_theory(rng)
            verdict = eval_mso(build_dl_structure(th), enc)
            if verdict == extension_exists(th)[0]:
                agree += 1
        found = sum(eval_mso(build_dl_structure(gen_dl_lower(n, "printed")), enc) for n in lower)
        ok = agree == samples and found == len(lower)
        return ok, (f"{agree}/{samples} agreement, dl-lower n={lower[0]}..{lower[-1]} "
                    f"{found}/{len(lower)} found")

    return _timed("extension-existence encoding", run)


def check_expansion_encoding(seed: int = 1, quick: bool = False) -> CheckResult:
    """Model checking the expansion-existence encoding agrees with full-set
    enumeration on random theories and on the three classic fixtures."""
    samples = 20 if quick else 100

    def run():
        rng = random.Random(seed)
        enc = expansion_existence(BASIS, "corrected")
        agree = 0
        for _ in range(samples):
            sigma = random_ae_theory(rng)
            verdict = eval_mso(build_ael_structure(sigma.formulas), enc)
            if verdict == expansion_exists(sigma)[0]:
                agree += 1
        p = Var("p")
        pos = AeTheory((limp(Believes(p), p),))
        neg = AeTheory((limp(lnot(Believes(p)), p),))
        empty = AeTheory(())
        fixtures = (
            len(expansion_exists(pos)[1]) == 2
            and len(expansion_exists(neg)[1]) == 0
            and len(expansion_exists(empty)[1]) == 1
            and eval_mso(build_ael_structure(pos.formulas), enc)
            and not eval_mso(build_ael_structure(neg.formulas), enc)
            and eval_mso(build_ael_structure(empty.formulas), enc)
        )
        ok = agree == samples and fixtures
        return ok, f"{agree}/{samples} agreement, fixtures {'ok' if fixtures else 'FAILED'}"

    return _timed("expansion-existence encoding", run)


def _gc_free_time(fn: Callable[[], object]) -> tuple[object, float, float]:
    """Run ``fn`` after a collection, with the garbage collector off, and
    return its value, its wall time and its process CPU time in seconds."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        value = fn()
        return value, time.perf_counter() - t0, time.process_time() - c0
    finally:
        if was_enabled:
            gc.enable()


def dp_scaling(small: list, large: list) -> tuple[bool, float, float]:
    """Time ``dp_sat`` on ``small`` and ``large`` in alternation, nine pairs
    after one warm-up call.  Returns whether every call was satisfiable,
    the median over the pairs of the large/small ratio of process CPU
    times, and the best wall time on ``large`` in seconds.

    A shared host's speed moves between states that outlast a pair
    (chain(1000) took about 22 or about 35 ms on a 2-core host), so each
    pair's ratio reads the solver's growth in one state, and the median
    drops the pairs that a stall, a collection or a change of state split.
    The ratio of each size's least time paired a fast state's small run
    with a slower state's large run: in 30 readings over full tier-1 runs
    it reached 2.54 and 2.71, where the median of pairs stayed within
    1.93-2.25.  Process CPU time does not count the time a shared host
    gives to other processes.
    """
    dp_sat(small)  # warm-up: interning caches, allocator
    all_sat = True
    ratios, best_large = [], float("inf")
    for _ in range(9):
        v_small, _, cpu_small = _gc_free_time(lambda: dp_sat(small))
        v_large, wall, cpu_large = _gc_free_time(lambda: dp_sat(large))
        ratios.append(cpu_large / max(cpu_small, 1e-9))
        best_large = min(best_large, wall)
        all_sat = all_sat and v_small and v_large
    return all_sat, statistics.median(ratios), best_large


def program_work(gamma: list) -> int:
    """Instructions plus links of the bag program ``gamma`` compiles to: the
    DP's work, counted exactly, whatever the host's speed."""
    program = compile_set(gamma).program
    return len(program) + sum(parent is not None for _, parent, _ in program)


def peak_live_tables(gamma: list) -> int:
    """The most tables open at once when the bag program ``gamma`` compiles
    to runs (``twdp._run_dp``), read off the program order: a table opens
    at its bag's first finished linked child, or at its own instruction, and
    closes there, as its parent opens if it was not open yet."""
    open_, peak = set(), 0
    for slot, (_, parent, _) in enumerate(compile_set(gamma).program):
        open_.add(slot)
        if parent is not None:
            open_.add(parent)
        peak = max(peak, len(open_))
        open_.remove(slot)
    return peak


def check_dp_scaling(seed: int = 1, quick: bool = False) -> CheckResult:
    """The decomposition DP solves the 2000-rule chain in under a second and
    scales about linearly from 1000 to 2000, in CPU time and in program
    work, while the truth-table oracle is rejected by its atom cap on the
    same instance."""

    def run():
        c1000, c2000 = chain(1000), chain(2000)
        all_sat, ratio, time2000 = dp_scaling(c1000, c2000)
        work_ratio = program_work(c2000) / program_work(c1000)
        try:
            sat_bruteforce(c2000)
            brute_rejected = False
        except ResourceLimitError:
            brute_rejected = True
        ok = (all_sat and time2000 < 1.0 and ratio <= 2.5 and work_ratio <= 2.05
              and brute_rejected)
        return ok, (
            f"chain(2000) in {time2000*1000:.0f} ms, CPU-time ratio {ratio:.2f}, "
            f"work ratio {work_ratio:.3f}, brute-force rejected: {brute_rejected}"
        )

    return _timed("fixed-width scaling", run)


def check_oracle_agreement(seed: int = 1, quick: bool = False) -> CheckResult:
    """Truth-table and decomposition oracles agree on random entailment
    queries; extension and expansion verdicts are oracle-independent."""
    n_queries = 60 if quick else 300
    n_theories = 40 if quick else 200

    def run():
        rng = random.Random(seed)
        brute = entailment_oracle("brute")
        twdp = entailment_oracle("twdp")
        q_agree = 0
        for _ in range(n_queries):
            premises, conclusion = random_entailment_query(rng)
            if brute.entails(premises, conclusion) == twdp.entails(premises, conclusion):
                q_agree += 1
        dl_agree = 0
        for _ in range(n_theories):
            th = random_literal_default_theory(rng)
            a = extension_exists(th, entailment_oracle("brute"))
            b = extension_exists(th, entailment_oracle("twdp"))
            if a[0] == b[0] and [w.generating for w in a[1]] == [w.generating for w in b[1]]:
                dl_agree += 1
        ae_agree = 0
        for _ in range(n_theories):
            sigma = random_ae_theory(rng)
            a = expansion_exists(sigma, entailment_oracle("brute"))
            b = expansion_exists(sigma, entailment_oracle("twdp"))
            if a[0] == b[0] and a[1] == b[1]:
                ae_agree += 1
        ok = q_agree == n_queries and dl_agree == n_theories and ae_agree == n_theories
        return ok, (
            f"queries {q_agree}/{n_queries}, extensions {dl_agree}/{n_theories}, "
            f"expansions {ae_agree}/{n_theories}"
        )

    return _timed("oracle cross-validation", run)


def check_family_growth(seed: int = 1, quick: bool = False) -> CheckResult:
    """Structure treewidth grows along the lower-bound families: strictly
    increasing for the rule family, exactly k-1 for the disjunction family."""

    def run():
        dl_widths = []
        for n in range(2, 6):
            g = gaifman_graph(build_dl_structure(gen_dl_lower(n, "printed")))
            dl_widths.append(exact_treewidth(g)[0])
        increasing = all(a < b for a, b in zip(dl_widths, dl_widths[1:]))
        ael_widths = []
        for k in range(3, 7):
            g = gaifman_graph(build_ael_structure(gen_ael_lower(k).formulas))
            ael_widths.append(exact_treewidth(g)[0])
        exact = ael_widths == [k - 1 for k in range(3, 7)]
        ok = increasing and exact
        return ok, f"rule family widths {dl_widths}, disjunction family widths {ael_widths}"

    return _timed("family treewidth growth", run)


def check_format_roundtrips(seed: int = 1, quick: bool = False) -> CheckResult:
    """.gr and .td emission round-trips are bit-exact on generated instances,
    and every emitted decomposition validates."""
    samples = 10 if quick else 40

    def run():
        rng = random.Random(seed)
        graphs = [
            gen_pseudo_clique(PseudoCliqueSpec(rng.randint(2, 6), rng.randint(0, 3)))
            for _ in range(samples // 2)
        ]
        graphs += [random_graph(rng, rng.randint(1, 14), rng.random()) for _ in range(samples // 2)]
        graphs.append(gaifman_graph(build_dl_structure(gen_dl_lower(3, "printed"))))
        bit_exact = 0
        valid = 0
        for g in graphs:
            text = emit_gr(g)
            again = emit_gr(parse_gr(text))
            if text == again:
                bit_exact += 1
            td = heuristic_decomposition(g)
            td_text = emit_td(td, g.n)
            parsed, n = parse_td(td_text)
            if td_text == emit_td(parsed, n) and not validate_decomposition(g, parsed):
                valid += 1
        total = len(graphs)
        ok = bit_exact == total and valid == total
        return ok, f"gr round-trips {bit_exact}/{total}, td round-trips+validation {valid}/{total}"

    return _timed("format round-trips", run)


def check_module_invariants(seed: int = 1, quick: bool = False) -> CheckResult:
    """Bundle of module-level invariants: the structural sanity encoding
    holds on every built structure, stage fixpoints echo their candidates,
    and min-fill's decomposition and that of a shuffled order validate on
    random graphs."""
    samples = 15 if quick else 60

    def run():
        rng = random.Random(seed)
        struc_prop = structure_check(BASIS, "prop")
        struc_imp = structure_check(BASIS, "imp")
        struc_dl = structure_check(BASIS, "dl")
        struc_ae = structure_check(BASIS, "ae")
        struc_ok = True
        for _ in range(samples):
            gamma = random_formula_set(rng, max_subformulae=8)
            struc_ok &= eval_mso(build_prop_structure(gamma), struc_prop)
            f = random_formula_set(rng, max_subformulae=4, max_formulas=2)
            g = random_formula_set(rng, max_subformulae=4, max_formulas=2)
            struc_ok &= eval_mso(build_imp_structure(f, g), struc_imp)
            th = random_literal_default_theory(rng)
            struc_ok &= eval_mso(build_dl_structure(th), struc_dl)
            sigma = random_ae_theory(rng)
            struc_ok &= eval_mso(build_ael_structure(sigma.formulas), struc_ae)
        echo_ok = True
        for _ in range(samples):
            th = random_literal_default_theory(rng)
            for witness in extension_exists(th)[1]:
                ok, applied = stage_fixpoint(th, witness.generating)
                echo_ok &= ok and applied == witness.generating
        td_ok = True
        for _ in range(samples * 3):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            order = list(g.vertices)
            rng.shuffle(order)
            for td in (heuristic_decomposition(g), decomposition_from_order(g, order)):
                td_ok &= not validate_decomposition(g, td)
        ok = bool(struc_ok and echo_ok and td_ok)
        return ok, (
            f"structure checks {'ok' if struc_ok else 'FAILED'}, "
            f"fixpoint echo {'ok' if echo_ok else 'FAILED'}, "
            f"decomposition validity {'ok' if td_ok else 'FAILED'}"
        )

    return _timed("module invariants", run)


ALL_CHECKS = (
    check_pseudo_clique_treewidth,
    check_normalization,
    check_sat_imp_encodings,
    check_extension_encoding,
    check_expansion_encoding,
    check_dp_scaling,
    check_oracle_agreement,
    check_family_growth,
    check_format_roundtrips,
    check_module_invariants,
)


def run_all(seed: int = 1, quick: bool = False) -> list[CheckResult]:
    return [check(seed=seed, quick=quick) for check in ALL_CHECKS]
