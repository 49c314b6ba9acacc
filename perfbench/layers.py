"""Which nmlkit functions the traced pass wraps, and how spans and counters
become the per-layer metrics.

Each function is patched where its caller looks it up: ``dp_sat`` calls
``heuristic_decomposition`` through the ``nmlkit.twdp`` namespace, the
enumeration loops call ``stage_fixpoint``/``is_full`` through their own
modules, and the benchmark itself calls every entry point through its
defining module.
"""
from __future__ import annotations

from .tracer import COUNTERS_SPAN, SPAN_COST, Tracer

HARNESS_SPAN = "bench.instance"

# span name -> per-layer metric that receives its self time
SELF_MS = {
    "formula.parse": "formula.parse_ms",
    "twdp.cgraph": "twdp.cgraph_ms",
    "treewidth.minfill": "treewidth.minfill_ms",
    "treewidth.nice": "treewidth.nice_ms",
    "twdp.dp": "twdp.dp_self_ms",
    "twdp.oracle": "twdp.oracle_self_ms",
    "twdp.entails": "twdp.oracle_self_ms",
    "dl.enum": "dl.enum_self_ms",
    "dl.stage": "dl.enum_self_ms",
    "ael.enum": "ael.enum_self_ms",
    "ael.full": "ael.enum_self_ms",
    "structures.build": "structures.build_ms",
    "structures.gaifman": "structures.gaifman_ms",
    "treewidth.exact": "treewidth.exact_ms",
    "treewidth.pc_bound": "treewidth.pc_bound_ms",
    "mso.eval": "mso.eval_ms",
    "encodings.build": "encodings.build_ms",
    HARNESS_SPAN: "bench.harness_ms",
    COUNTERS_SPAN: "trace.counters_ms",
    SPAN_COST: "trace.span_cost_ms",
}

# every per-layer metric the benchmark reports, in BENCHMARK.json order
PER_LAYER = (
    "formula.parse_ms",
    "twdp.cgraph_ms",
    "twdp.cgraph_vertices",
    "treewidth.minfill_ms",
    "treewidth.max_width",
    "treewidth.nice_ms",
    "treewidth.nice_nodes",
    "twdp.dp_self_ms",
    "twdp.dp_calls",
    "twdp.oracle_calls",
    "twdp.oracle_misses",
    "twdp.oracle_hit_ratio",
    "twdp.oracle_self_ms",
    "dl.candidates",
    "dl.witnesses",
    "dl.witness_ratio",
    "dl.enum_self_ms",
    "ael.candidates",
    "ael.full_ratio",
    "ael.enum_self_ms",
    "structures.build_ms",
    "structures.universe_max",
    "structures.gaifman_ms",
    "treewidth.exact_ms",
    "treewidth.pc_bound_ms",
    "mso.eval_ms",
    "mso.calls",
    "mso.limit_hits",
    "encodings.build_ms",
    "bench.harness_ms",
    "trace.counters_ms",
    "trace.span_cost_ms",
    "trace.wall_ms",
    "trace.untraced_wall_ms",
    "trace.overhead_ms",
    "trace.unattributed_ms",
    "wrong_verdicts",
)


def install(tracer: Tracer) -> None:
    """Wrap every traced nmlkit entry point; undo with ``tracer.restore()``."""
    from nmlkit import ael, dl, encodings, formula, mso, structures, treewidth, twdp

    def universe(t: Tracer, s) -> None:
        t.peak("structures.universe_max", len(s.universe))

    w = tracer.wrap
    w(formula, "parse_formula", "formula.parse")
    w(twdp, "build_constraint_graph", "twdp.cgraph",
      lambda t, cg: t.add("twdp.cgraph_vertices", cg.graph.n))
    w(twdp, "heuristic_decomposition", "treewidth.minfill",
      lambda t, td: t.peak("treewidth.max_width", treewidth.width(td)))
    w(twdp, "make_nice", "treewidth.nice",
      lambda t, nice: t.add("treewidth.nice_nodes", len(nice.bags)))
    w(twdp, "dp_sat", "twdp.dp")
    w(twdp.EntailmentOracle, "satisfiable", "twdp.oracle")
    w(twdp.EntailmentOracle, "entails", "twdp.entails")
    w(dl, "stage_fixpoint", "dl.stage")
    w(dl, "extension_exists", "dl.enum",
      lambda t, r: t.add("dl.witnesses", len(r[1])))
    w(ael, "is_full", "ael.full")
    w(ael, "expansion_exists", "ael.enum",
      lambda t, r: t.add("ael.full", len(r[1])))
    for builder in ("build_prop_structure", "build_dl_structure", "build_ael_structure"):
        w(structures, builder, "structures.build", universe)
    w(structures, "gaifman_graph", "structures.gaifman")
    w(treewidth, "exact_treewidth", "treewidth.exact")
    w(treewidth, "pseudo_clique_lower_bound", "treewidth.pc_bound")
    w(mso, "eval_mso", "mso.eval")
    w(encodings, "mso_encoding", "encodings.build")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds.
    ``trace.unattributed_ms`` is the part of ``trace.wall_ms`` that lies in
    no span's self time and is not wrapper cost (``trace.span_cost_ms``)."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    attributed = 0.0
    for name, seconds in tracer.self_times().items():
        m[SELF_MS[name]] += seconds * 1e3
        attributed += seconds * 1e3
    m["trace.wall_ms"] = wall_s * 1e3
    m["trace.unattributed_ms"] = wall_s * 1e3 - attributed

    m["twdp.cgraph_vertices"] = tracer.counts["twdp.cgraph_vertices"]
    m["treewidth.max_width"] = tracer.peaks.get("treewidth.max_width", 0)
    m["treewidth.nice_nodes"] = tracer.counts["treewidth.nice_nodes"]
    m["twdp.dp_calls"] = tracer.count("twdp.dp")
    calls = tracer.count("twdp.oracle")
    misses = tracer.count("twdp.dp", parent="twdp.oracle")
    m["twdp.oracle_calls"] = calls
    m["twdp.oracle_misses"] = misses
    m["twdp.oracle_hit_ratio"] = _ratio(calls - misses, calls)
    m["dl.candidates"] = tracer.count("dl.stage")
    m["dl.witnesses"] = tracer.counts["dl.witnesses"]
    m["dl.witness_ratio"] = _ratio(m["dl.witnesses"], m["dl.candidates"])
    m["ael.candidates"] = tracer.count("ael.full")
    m["ael.full_ratio"] = _ratio(tracer.counts["ael.full"], m["ael.candidates"])
    m["structures.universe_max"] = tracer.peaks.get("structures.universe_max", 0)
    m["mso.calls"] = tracer.count("mso.eval")
    m["mso.limit_hits"] = tracer.counts["mso.eval.errors"]
    return m
