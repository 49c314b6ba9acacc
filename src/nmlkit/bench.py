"""Benchmark runner: timed rows over instance families, each checked.

Families: ``chain`` (the implication chain of ``families.chain``, solved by
the treewidth DP or, with method ``brute``, by the truth-table oracle) and
``pseudo-clique`` (exact treewidth of ``gen_pseudo_clique(n, 2)``).

A chain row's size and width are those of the graph ``dp_sat`` compiles,
the chain under its own assertions (``twdp.build_constraint_graph``).  Rows
that hit a resource cap are recorded with verdict ``resource-limit`` and the
run continues.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .errors import ResourceLimitError
from .families import PseudoCliqueSpec, chain, gen_pseudo_clique
from .formula import sat_bruteforce
from .limits import Limits
from .treewidth import exact_treewidth
from .twdp import compile_set, dp_sat

# the methods each family runs, its default first
METHODS = {"chain": ("dp", "brute"), "pseudo-clique": ("exact",)}


@dataclass
class BenchRow:
    family: str
    param: int
    n_vertices: int
    width: Optional[int]
    method: str
    wall_ms: float
    verdict: str
    passed: bool

    def line(self) -> str:
        return (f"{'PASS' if self.passed else 'FAIL'}  {self.family}/{self.param}: {self.verdict} "
                f"by {self.method}, n={self.n_vertices} width={self.width} [{self.wall_ms:.2f} ms]")


def run_bench(family: str, sizes: list[int], method: Optional[str] = None) -> list[BenchRow]:
    """One row per size.  ``method`` defaults to the family's first in
    ``METHODS``; one the family does not run is a ValueError naming both."""
    runs = METHODS.get(family)
    if runs is None:
        raise ValueError(f"unknown family {family!r}")
    method = method or runs[0]
    if method not in runs:
        raise ValueError(f"family {family!r} does not run method {method!r}, "
                         f"only {' or '.join(runs)}")
    rows = []
    for size in sizes:
        if family == "chain":
            gamma = chain(size)
            # untimed, default caps: the asserted compile dp_sat makes sizes the row
            cs = compile_set(gamma, limits=Limits(), asserted=True)
            n, w = cs.cg.graph.n, cs.width
        else:
            g = gen_pseudo_clique(PseudoCliqueSpec(size, 2))
            n, w = g.n, None
        t0 = time.perf_counter()
        try:
            if method == "exact":
                w, _ = exact_treewidth(g)
                verdict = "ok"
            elif method == "dp":
                verdict = "sat" if dp_sat(gamma) else "unsat"
            else:
                verdict = "sat" if sat_bruteforce(gamma) is not None else "unsat"
        except ResourceLimitError:
            verdict = "resource-limit"
        ms = (time.perf_counter() - t0) * 1000
        # chain(m) is satisfiable by construction, and a pseudo-clique on m
        # mains has treewidth m - 1 (criterion 1); a row cut by a resource
        # cap decided nothing and passes
        passed = verdict == "resource-limit" or (
            verdict == "sat" if family == "chain" else w == size - 1)
        rows.append(BenchRow(family, size, n, w, method, ms, verdict, passed))
    return rows
