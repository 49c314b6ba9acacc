"""Command-line front end.

Verdicts never ride the exit code: 0 means the computation ran (whatever the
answer), 2 is a usage error, 3 a resource limit, 1 a failed verification run.
``--json`` emits a self-describing report (command echo, input fingerprint,
timings, limits hit) that validates against the shipped schema.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from .ael import expansion_exists, format_ae_theory, parse_ae_theory
from .bench import METHODS, run_bench
from .dl import extension_exists, format_default_theory, parse_default_theory
from .encodings import mso_encoding
from .errors import NmlkitError, ResourceLimitError
from .families import PseudoCliqueSpec, gen_ael_lower, gen_dl_lower, gen_imp_lower, gen_pseudo_clique
from .formula import (
    Basis,
    atom_label,
    format_formula,
    format_implication,
    parse_formula_set,
    parse_implication,
    sat_bruteforce,
)
from .harness import run_all
from .limits import get_limits
from .mso import eval_mso
from .structures import (
    Graph,
    build_ael_structure,
    build_dl_structure,
    build_imp_structure,
    build_prop_structure,
    element_descriptions,
    emit_gr,
    emit_labels,
    gaifman_graph,
    parse_gr,
    parse_labels,
)
from .treewidth import (
    emit_td,
    exact_treewidth,
    heuristic_decomposition,
    normalize_pseudo,
    parse_td,
    pseudo_clique_lower_bound,
    validate_decomposition,
    width,
)
from .twdp import dp_sat, entailment_oracle

BASIS = Basis()


class _Report:
    def __init__(self, argv: list[str]):
        self.command = "nmlkit " + " ".join(shlex.quote(a) for a in argv)
        self.input_sha256: Optional[str] = None
        self.timings: dict[str, float] = {}
        self.limits_hit: list[str] = []
        self.result: dict = {}
        self.exit_code = 0

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "input_sha256": self.input_sha256,
            "timings_ms": {k: round(v, 3) for k, v in self.timings.items()},
            "limits_hit": self.limits_hit,
        }
        payload.update(self.result)
        return json.dumps(payload, indent=2, sort_keys=True)


def _read(path: str, report: _Report) -> str:
    text = Path(path).read_text()
    report.input_sha256 = hashlib.sha256(text.encode()).hexdigest()
    return text


def _write_or_print(text: str, out: Optional[str | Path], as_json: bool) -> None:
    """Write an artifact to a file, or to stdout unless a JSON report is the
    requested stdout payload."""
    if out:
        Path(out).write_text(text)
    elif not as_json:
        sys.stdout.write(text)


def _write_graph(g: Graph, args) -> None:
    """The .gr text to ``-o`` or stdout; with ``--labels`` also the .labels
    text next to ``-o`` (both on stdout could not be read back apart)."""
    if args.labels and not args.output:
        raise ValueError("--labels needs -o: the .labels file is written next to it")
    _write_or_print(emit_gr(g), args.output, args.json)
    if args.labels:
        _write_or_print(emit_labels(g), Path(args.output).with_suffix(".labels"), args.json)


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes the parsed arguments and the report, fills
# in the report and returns the plain-text lines
# ---------------------------------------------------------------------------


def _cmd_check_sat(args, report: _Report) -> list[str]:
    formulas = parse_formula_set(_read(args.file, report), BASIS)
    t0 = time.perf_counter()
    if args.oracle == "brute":
        witness = sat_bruteforce(formulas)
        satisfiable = witness is not None
        witness_obj = None if witness is None else {atom_label(k): v for k, v in witness.items()}
    else:
        satisfiable = dp_sat(formulas)
        witness_obj = None
    report.timings["solve"] = (time.perf_counter() - t0) * 1000
    report.result = {"satisfiable": satisfiable, "witness": witness_obj}
    return [f"satisfiable: {satisfiable}"]


def _cmd_check_imp(args, report: _Report) -> list[str]:
    premises, conclusions = parse_implication(_read(args.file, report), BASIS)
    t0 = time.perf_counter()
    oracle = entailment_oracle(args.oracle)
    oracle.compile_universe([*premises, *conclusions])
    holds = all(oracle.entails(premises, c) for c in conclusions)
    report.timings["solve"] = (time.perf_counter() - t0) * 1000
    report.result = {"implies": holds}
    return [f"implies: {holds}"]


def _cmd_dl(args, report: _Report) -> list[str]:
    theory = parse_default_theory(_read(args.file, report), BASIS)
    t0 = time.perf_counter()
    oracle = entailment_oracle(args.oracle)
    exists, found = extension_exists(theory, oracle)
    report.timings["solve"] = (time.perf_counter() - t0) * 1000
    witnesses = [sorted(w.generating) for w in found]
    report.result = {"exists": exists, "witnesses": witnesses}
    _report_universe_width(oracle, report)
    return [f"exists: {exists}"] + [f"generating defaults: {w}" for w in witnesses]


def _cmd_ael(args, report: _Report) -> list[str]:
    sigma = parse_ae_theory(_read(args.file, report), BASIS)
    t0 = time.perf_counter()
    oracle = entailment_oracle(args.oracle)
    exists, found = expansion_exists(sigma, oracle)
    report.timings["solve"] = (time.perf_counter() - t0) * 1000
    full_sets = [
        [
            {"Lphi": format_formula(bel), "sign": "+" if positive else "-"}
            for bel, positive in candidate.entries
        ]
        for candidate in found
    ]
    report.result = {"exists": exists, "full_sets": full_sets}
    _report_universe_width(oracle, report)
    return [f"exists: {exists}"] + [f"full set: {c}" for c in found]


def _report_universe_width(oracle, report: _Report) -> None:
    """The width of the theory's compiled universe, the parameter the
    decomposition oracle's cost depends on; absent for the brute oracle and
    for a universe over the width cap."""
    if oracle.universe_width is not None:
        report.result["width"] = oracle.universe_width


def _build_structure(kind: str, text: str):
    if kind == "prop":
        return build_prop_structure(parse_formula_set(text, BASIS), BASIS)
    if kind == "imp":
        return build_imp_structure(*parse_implication(text, BASIS), BASIS)
    if kind == "dl":
        return build_dl_structure(parse_default_theory(text, BASIS), BASIS)
    return build_ael_structure(parse_ae_theory(text, BASIS).formulas, BASIS)


def _cmd_struct(args, report: _Report) -> list[str]:
    s = _build_structure(args.kind, _read(args.file, report))
    g = gaifman_graph(s)
    if args.labels and args.output:  # without -o, _write_graph refuses --labels
        g = Graph(g.n, g.edges, descriptions=element_descriptions(s))
    _write_graph(g, args)
    lines = [f"universe: {g.n} elements, {len(g.edges)} gaifman edges"]
    if args.labels:
        lines.append(f"labels written next to {args.output}")
    report.result = {"n_vertices": g.n, "n_edges": len(g.edges)}
    return lines


def _cmd_tw_compute(args, report: _Report) -> list[str]:
    g = parse_gr(_read(args.file, report))
    t0 = time.perf_counter()
    if args.exact:
        w, td = exact_treewidth(g)
        method = "exact"
    else:
        td = heuristic_decomposition(g)
        w = width(td)
        method = "min_fill"
    report.timings["compute"] = (time.perf_counter() - t0) * 1000
    if args.output:
        Path(args.output).write_text(emit_td(td, g.n))
    report.result = {"width": w, "method": method, "n_vertices": g.n}
    return [f"width: {w} ({method})"]


def _cmd_tw_verify(args, report: _Report) -> list[str]:
    g = parse_gr(_read(args.graph, report))
    td, _ = parse_td(Path(args.decomposition).read_text())
    violations = validate_decomposition(g, td)
    report.result = {"valid": not violations, "violations": violations}
    return [f"valid: {not violations}"] + violations


def _cmd_tw_normalize(args, report: _Report) -> list[str]:
    g = parse_gr(_read(args.graph, report))
    labels, descriptions = parse_labels(Path(args.labels_file).read_text())
    g = Graph(g.n, g.edges, labels, descriptions)
    td, _ = parse_td(Path(args.decomposition).read_text())
    out = normalize_pseudo(g, td)
    _write_or_print(emit_td(out, g.n), args.output, args.json)
    report.result = {"width": width(out), "valid": not validate_decomposition(g, out)}
    return [f"normalized width: {width(out)}"]


def _cmd_tw_lower_bound(args, report: _Report) -> list[str]:
    r = pseudo_clique_lower_bound(parse_gr(_read(args.file, report)))
    report.result = {"pseudo_clique_size": r, "tw_lower_bound": r - 1}
    return [f"pseudo-clique size: {r} (treewidth >= {r - 1})"]


def _cmd_gen_pseudo_clique(args, report: _Report) -> list[str]:
    g = gen_pseudo_clique(PseudoCliqueSpec(args.n, args.k))
    _write_graph(g, args)
    report.result = {"n_vertices": g.n, "n_edges": len(g.edges)}
    return []


def _cmd_gen_dl_lower(args, report: _Report) -> list[str]:
    theory = gen_dl_lower(args.n, args.variant)
    _write_or_print(format_default_theory(theory), args.output, args.json)
    report.result = {"n_rules": len(theory.defaults)}
    return []


def _cmd_gen_ael_lower(args, report: _Report) -> list[str]:
    sigma = gen_ael_lower(args.k)
    _write_or_print(format_ae_theory(sigma), args.output, args.json)
    report.result = {"n_formulas": len(sigma.formulas)}
    return []


def _cmd_gen_imp_lower(args, report: _Report) -> list[str]:
    premises, conclusions = gen_imp_lower(args.kind, args.n)
    _write_or_print(format_implication(premises, conclusions), args.output, args.json)
    report.result = {"n_premises": len(premises), "n_conclusions": len(conclusions)}
    return []


def _cmd_mso(args, report: _Report) -> list[str]:
    structure = _build_structure(args.kind, _read(args.file, report))
    name = args.name.replace("-", "_")
    default_kind = {"sat": "prop", "imp": "imp", "extension": "dl", "full_exists": "ae"}
    if name in default_kind and args.kind != default_kind[name]:
        raise NmlkitError(
            f"encoding {args.name!r} expects --kind {default_kind[name]}"
        )
    phi = mso_encoding(name, BASIS, args.variant, flavor=args.kind)
    t0 = time.perf_counter()
    verdict = eval_mso(structure, phi)
    report.timings["eval"] = (time.perf_counter() - t0) * 1000
    report.result = {"holds": verdict, "method": f"mso/{args.variant}"}
    return [f"holds: {verdict}"]


def _cmd_verify(args, report: _Report) -> list[str]:
    results = run_all(seed=args.seed, quick=args.quick)
    checks = [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    report.result = {"checks": checks}
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    report.exit_code = 0 if n_pass == len(results) else 1
    return lines


def _cmd_bench(args, report: _Report) -> list[str]:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if not sizes:
        raise ValueError("--sizes names no instance size")
    rows = run_bench(args.family, sizes, method=args.method)
    report.result = {"rows": [asdict(r) for r in rows]}
    return [r.line() for r in rows]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmlkit",
        description="Nonmonotonic-logic toolkit: formulas, structures, MSO model checking, treewidth",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output")

    def leaf(group, name: str, handler, *parents, **kwargs) -> argparse.ArgumentParser:
        p = group.add_parser(name, parents=[common, *parents], **kwargs)
        p.set_defaults(handler=handler)
        return p

    def group(name: str, help: str):
        return sub.add_parser(name, help=help).add_subparsers(dest=f"{name}_cmd", required=True)

    sub = parser.add_subparsers(dest="cmd", required=True)

    fmt = group("fmt", "propositional formula sets")
    for name, filehelp, handler in (
        ("check-sat", ".fs file", _cmd_check_sat),
        ("check-imp", ".imp file", _cmd_check_imp),
    ):
        p = leaf(fmt, name, handler)
        p.add_argument("file", help=filehelp)
        p.add_argument("--oracle", choices=("brute", "twdp"), default="twdp")

    p = leaf(group("dl", "default logic"), "solve", _cmd_dl)
    p.add_argument("file", help=".dt file")
    p.add_argument("--oracle", choices=("brute", "twdp"), default="brute")

    p = leaf(group("ael", "autoepistemic logic"), "solve", _cmd_ael)
    p.add_argument("file", help=".ae file")
    p.add_argument("--oracle", choices=("brute", "twdp"), default="brute")

    p = leaf(group("struct", "relational structures"), "build", _cmd_struct, output)
    p.add_argument("file")
    p.add_argument("--kind", choices=("prop", "imp", "dl", "ae"), required=True)
    p.add_argument("--labels", action="store_true", help="print element texts to a .labels file next to -o")

    tw = group("tw", "tree decompositions")
    p = leaf(tw, "compute", _cmd_tw_compute, output)
    p.add_argument("file", help=".gr file")
    p.add_argument("--exact", action="store_true")
    p = leaf(tw, "verify", _cmd_tw_verify)
    p.add_argument("graph", help=".gr file")
    p.add_argument("decomposition", help=".td file")
    p = leaf(tw, "normalize", _cmd_tw_normalize, output)
    p.add_argument("graph", help=".gr file")
    p.add_argument("decomposition", help=".td file")
    p.add_argument("--labels-file", required=True)
    p = leaf(tw, "lower-bound", _cmd_tw_lower_bound)
    p.add_argument("file", help=".gr file")

    gen = group("gen", "instance generators")
    p = leaf(gen, "pseudo-clique", _cmd_gen_pseudo_clique, output)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--labels", action="store_true")
    p = leaf(gen, "dl-lower", _cmd_gen_dl_lower, output)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--variant", choices=("printed", "symmetric"), default="printed")
    p = leaf(gen, "ael-lower", _cmd_gen_ael_lower, output)
    p.add_argument("-k", type=int, required=True)
    p = leaf(gen, "imp-lower", _cmd_gen_imp_lower, output)
    p.add_argument("--kind", choices=("xor3", "cnf_dnf"), required=True)
    p.add_argument("-n", type=int, required=True)

    p = leaf(group("mso", "MSO model checking"), "eval", _cmd_mso)
    p.add_argument("file")
    p.add_argument("--kind", choices=("prop", "imp", "dl", "ae"), required=True)
    p.add_argument(
        "--name",
        choices=("struc", "sat", "imp", "extension", "full-exists", "full_exists"),
        required=True,
    )
    p.add_argument("--variant", choices=("corrected", "as_printed"), default="corrected")

    p = leaf(sub, "verify-paper", _cmd_verify, help="run the full verification suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=1)

    p = leaf(sub, "bench", _cmd_bench, help="benchmark runner")
    p.add_argument("--family", choices=tuple(METHODS), required=True)
    p.add_argument("--sizes", required=True, help="comma-separated instance sizes")
    p.add_argument("--method", help="chain: dp (default) or brute; pseudo-clique: exact")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    report = _Report(argv)
    try:
        try:
            # a bad NMLKIT_LIMITS entry is a usage error even where no limit is read
            get_limits()
            lines = args.handler(args, report)
            if args.json:
                print(report.to_json())
            else:
                for line in lines:
                    print(line)
        except (ResourceLimitError, RecursionError) as exc:
            # the printer (formula._fmt) and the truth-table evaluator
            # (formula.evaluate) still recurse, and meet Python's recursion limit
            # on very deep input (or on wide input's printed labels): a resource limit too
            report.limits_hit.append(str(exc))
            report.exit_code = 3
            if args.json:
                print(report.to_json())
            else:
                print(f"resource limit: {exc}", file=sys.stderr)
    except BrokenPipeError:
        # the reader closed stdout (``| head``): the rest and the exit flush go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return report.exit_code
    except (OSError, NmlkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
