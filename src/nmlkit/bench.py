"""Benchmark runner: timed rows over instance families, emitted as CSV.

Families: ``chain`` (the implication chain of ``families.chain``, solved by
the treewidth DP or, with method ``brute``, by the truth-table oracle) and
``pseudo-clique`` (exact treewidth of ``gen_pseudo_clique(n, 2)``).

Columns: family,param,n_vertices,width,method,wall_ms,verdict.  Rows that hit
a resource cap are recorded with verdict ``resource-limit`` and the run
continues.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Optional

from .errors import ResourceLimitError
from .families import PseudoCliqueSpec, chain, gen_pseudo_clique
from .formula import sat_bruteforce
from .limits import Limits
from .treewidth import exact_treewidth
from .twdp import compile_set, dp_sat

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
        return {
            "family": self.family,
            "param": self.param,
            "n_vertices": self.n_vertices,
            "width": "" if self.width is None else self.width,
            "method": self.method,
            "wall_ms": f"{self.wall_ms:.2f}",
            "verdict": self.verdict,
        }


def run_bench(family: str, sizes: list[int], method: str = "dp") -> list[BenchRow]:
    rows = []
    for size in sizes:
        if family == "chain":
            gamma = chain(size)
            cs = compile_set(gamma, limits=Limits())  # untimed, default caps: sizes the row
            t0 = time.perf_counter()
            try:
                if method == "dp":
                    verdict = "sat" if dp_sat(gamma) else "unsat"
                elif method == "brute":
                    verdict = "sat" if sat_bruteforce(gamma) is not None else "unsat"
                else:
                    raise ValueError(f"unknown method {method!r} for chain")
            except ResourceLimitError:
                verdict = "resource-limit"
            ms = (time.perf_counter() - t0) * 1000
            rows.append(BenchRow("chain", size, cs.cg.graph.n, cs.width, method, ms, verdict))
        elif family == "pseudo-clique":
            g = gen_pseudo_clique(PseudoCliqueSpec(size, 2))
            t0 = time.perf_counter()
            try:
                w, _ = exact_treewidth(g)
                verdict = "ok"
            except ResourceLimitError:
                w = None
                verdict = "resource-limit"
            ms = (time.perf_counter() - t0) * 1000
            rows.append(BenchRow("pseudo-clique", size, g.n, w, "exact", ms, verdict))
        else:
            raise ValueError(f"unknown family {family!r}")
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_record())
    return buf.getvalue()
