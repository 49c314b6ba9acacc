"""Benchmark runner: timed rows over instance families, emitted as CSV.

Families: ``chain`` (the implication chain of ``families.chain``, solved by
the treewidth DP or, with method ``brute``, by the truth-table oracle) and
``pseudo-clique`` (exact treewidth of ``gen_pseudo_clique(n, 2)``).

Columns: family,param,n_vertices,width,method,wall_ms,verdict.  A chain
row's size and width are those of the graph ``dp_sat`` compiles, the chain
under its own assertions (``twdp.build_constraint_graph``).  Rows that hit
a resource cap are recorded with verdict ``resource-limit`` and the run
continues.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import ResourceLimitError
from .families import PseudoCliqueSpec, chain, gen_pseudo_clique
from .formula import sat_bruteforce
from .limits import Limits
from .treewidth import exact_treewidth
from .twdp import compile_set, dp_sat

# the methods each family runs, its default first
METHODS = {"chain": ("dp", "brute"), "pseudo-clique": ("exact",)}
CSV_FIELDS = ("family", "param", "n_vertices", "width", "method", "wall_ms", "verdict")


@dataclass
class BenchRow:
    family: str
    param: int
    n_vertices: int
    width: Optional[int]
    method: str
    wall_ms: float
    verdict: str

    def as_record(self) -> dict:
        record = asdict(self)
        record["width"] = "" if self.width is None else self.width
        record["wall_ms"] = f"{self.wall_ms:.2f}"
        return record


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
        rows.append(BenchRow(family, size, n, w, method, ms, verdict))
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_record())
    return buf.getvalue()
