import argparse
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from nmlkit.bench import run_bench
from nmlkit.cli import build_parser, main
from nmlkit.families import chain, gen_imp_lower
from nmlkit.formula import implies_bruteforce, parse_implication
from nmlkit.twdp import compile_set

SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMA = json.loads((SRC / "nmlkit" / "report_schema.json").read_text())


def run_json(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_dl_solve_json(tmp_path, capsys):
    f = tmp_path / "ex1.dt"
    f.write_text("d: T ; p ; q\n")
    code, payload = run_json(capsys, ["dl", "solve", str(f), "--json"])
    assert code == 0
    assert payload["exists"] is True
    assert payload["witnesses"] == [[1]]
    assert payload["input_sha256"]


def test_dl_solve_negative_verdict_exits_zero(tmp_path, capsys):
    f = tmp_path / "none.dt"
    f.write_text("d: T ; p ; !p\n")
    code, payload = run_json(capsys, ["dl", "solve", str(f), "--json"])
    assert code == 0 and payload["exists"] is False


def test_mso_eval_decides_extension_existence(tmp_path, capsys):
    # model checking has one entry point, `mso eval`; `solve` only enumerates
    f = tmp_path / "t.dt"
    for text, exists in (("d: T ; p ; q\n", True), ("d: T ; p ; !p\n", False)):
        f.write_text(text)
        code, payload = run_json(
            capsys, ["mso", "eval", str(f), "--kind", "dl", "--name", "extension", "--json"]
        )
        assert code == 0 and payload["holds"] is exists
    for logic in ("dl", "ael"):
        with pytest.raises(SystemExit):
            main([logic, "solve", str(f), "--method", "mso"])
    capsys.readouterr()


def test_ael_solve_json(tmp_path, capsys):
    f = tmp_path / "pos.ae"
    f.write_text("L p -> p\n")
    code, payload = run_json(capsys, ["ael", "solve", str(f), "--json"])
    assert code == 0
    assert payload["exists"] is True
    assert payload["full_sets"] == [
        [{"Lphi": "L p", "sign": "-"}],
        [{"Lphi": "L p", "sign": "+"}],
    ]


def test_fmt_check_sat_and_imp(tmp_path, capsys):
    fs = tmp_path / "a.fs"
    fs.write_text("p | q\n!p\n")
    code, payload = run_json(capsys, ["fmt", "check-sat", str(fs), "--oracle", "brute", "--json"])
    assert code == 0 and payload["satisfiable"] is True
    assert payload["witness"] == {"p": False, "q": True}
    # the empty model is a witness, not its absence
    for text in ("T\n", ""):
        fs.write_text(text)
        code, payload = run_json(capsys, ["fmt", "check-sat", str(fs), "--oracle", "brute", "--json"])
        assert code == 0 and payload["satisfiable"] is True and payload["witness"] == {}
    imp = tmp_path / "a.imp"
    imp.write_text("p: p\np: p -> q\nc: q\n")
    code, payload = run_json(capsys, ["fmt", "check-imp", str(imp), "--json"])
    assert code == 0 and payload["implies"] is True


def test_gen_and_tw_pipeline(tmp_path, capsys):
    gr = tmp_path / "pc5_2.gr"
    code = main(["gen", "pseudo-clique", "-n", "5", "-k", "2", "-o", str(gr), "--labels"])
    assert code == 0
    assert gr.exists() and gr.with_suffix(".labels").exists()
    capsys.readouterr()
    code, payload = run_json(capsys, ["tw", "compute", str(gr), "--exact", "--json"])
    assert code == 0 and payload["width"] == 4 and payload["method"] == "exact"
    code, payload = run_json(capsys, ["tw", "compute", str(gr), "--json"])
    assert code == 0 and payload["method"] == "min_fill"
    # min-fill is the one heuristic: there is no method to choose
    with pytest.raises(SystemExit) as exc:
        main(["tw", "compute", str(gr), "--method", "min_fill"])
    assert exc.value.code == 2
    capsys.readouterr()

    td = tmp_path / "pc5_2.td"
    code = main(["tw", "compute", str(gr), "--exact", "-o", str(td)])
    capsys.readouterr()
    code, payload = run_json(capsys, ["tw", "verify", str(gr), str(td), "--json"])
    assert code == 0 and payload["valid"] is True

    code, payload = run_json(
        capsys,
        ["tw", "normalize", str(gr), str(td), "--labels-file", str(gr.with_suffix(".labels")), "--json"],
    )
    assert code == 0 and payload["valid"] is True

    code, payload = run_json(capsys, ["tw", "lower-bound", str(gr), "--json"])
    assert code == 0 and payload["pseudo_clique_size"] == 5
    assert payload["tw_lower_bound"] == 4


@pytest.mark.parametrize(
    "command",
    [
        ["struct", "build", "--kind", "prop", "FILE"],
        ["gen", "pseudo-clique", "-n", "3", "-k", "1"],
    ],
    ids=["struct-build", "gen-pseudo-clique"],
)
def test_labels_without_output_is_a_usage_error(tmp_path, capsys, command):
    # .gr and .labels back to back on stdout could not be parsed apart
    fs = tmp_path / "a.fs"
    fs.write_text("p & !q\n")
    argv = [str(fs) if a == "FILE" else a for a in command] + ["--labels"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "-o" in captured.err and captured.out == ""
    assert main(argv + ["--json"]) == 2


def test_tw_verify_reports_violations(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    gr.write_text("p tw 2 1\n1 2\n")
    td = tmp_path / "bad.td"
    td.write_text("s td 2 1 2\nb 1 1\nb 2 2\n1 2\n")
    code, payload = run_json(capsys, ["tw", "verify", str(gr), str(td), "--json"])
    assert code == 0 and payload["valid"] is False and payload["violations"]
    td.write_text("s td 2 2 2\nb 1 1 2\nb 2 2\n1 5\n")
    code, payload = run_json(capsys, ["tw", "verify", str(gr), str(td), "--json"])
    assert code == 0 and payload["valid"] is False
    assert payload["violations"] == ["(tree) edge (1,5) references a missing bag"]


def test_struct_build(tmp_path, capsys):
    dt = tmp_path / "t.dt"
    dt.write_text("d: x1 ; y1 ; F\n")
    out = tmp_path / "t.gr"
    code, payload = run_json(
        capsys, ["struct", "build", str(dt), "--kind", "dl", "-o", str(out), "--json"]
    )
    assert code == 0 and payload["n_vertices"] == 5 and payload["n_edges"] == 4
    assert out.read_text().startswith("p tw 5 4")


def test_imp_kind_structure(tmp_path, capsys):
    # the MSO implication sentence on the imp structure agrees with the oracle
    imp = tmp_path / "a.imp"
    imp.write_text("p: p\np: p -> q\nc: q\n")
    code, payload = run_json(capsys, ["struct", "build", str(imp), "--kind", "imp", "--json"])
    assert code == 0 and payload["n_vertices"] == 3 and payload["n_edges"] == 2
    for text, holds in (("p: p\np: p -> q\nc: q\n", True), ("p: p\nc: q\n", False)):
        imp.write_text(text)
        code, payload = run_json(
            capsys, ["mso", "eval", str(imp), "--kind", "imp", "--name", "imp", "--json"])
        assert code == 0 and payload["holds"] is holds
        code, payload = run_json(capsys, ["fmt", "check-imp", str(imp), "--json"])
        assert code == 0 and payload["implies"] is holds


def test_struct_build_labels(tmp_path, capsys):
    dt = tmp_path / "t.dt"
    dt.write_text("w: a & b\nd: a ; !c ; c | b\nd: T ; c ; a\n")
    out = tmp_path / "t.gr"
    assert main(["struct", "build", str(dt), "--kind", "dl", "--labels", "-o", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"labels written next to {out}"
    assert (tmp_path / "t.labels").read_text().splitlines() == [
        "1 none a",
        "2 none b",
        "3 none a & b",
        "4 none c",
        "5 none !c",
        "6 none c | b",
        "7 none T",
        "8 none !!c",
        "9 none d1",
        "10 none d2",
    ]


def test_gen_dl_ael_imp_lower(tmp_path, capsys):
    code = main(["gen", "dl-lower", "-n", "2", "-o", str(tmp_path / "d.dt")])
    assert code == 0
    assert (tmp_path / "d.dt").read_text().count("d:") == 3
    code = main(["gen", "ael-lower", "-k", "2", "-o", str(tmp_path / "a.ae")])
    assert code == 0
    assert len((tmp_path / "a.ae").read_text().splitlines()) == 3
    code = main(["gen", "imp-lower", "--kind", "cnf_dnf", "-n", "3", "-o", str(tmp_path / "i.imp")])
    assert code == 0
    text = (tmp_path / "i.imp").read_text()
    assert text.count("p:") == 6 and text.count("c:") == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, counts",
    [
        (["gen", "pseudo-clique", "-n", "3", "-k", "1"], {"n_vertices": 6, "n_edges": 6}),
        (["gen", "dl-lower", "-n", "2"], {"n_rules": 3}),
        (["gen", "ael-lower", "-k", "2"], {"n_formulas": 3}),
        (["gen", "imp-lower", "--kind", "cnf_dnf", "-n", "3"], {"n_premises": 6, "n_conclusions": 1}),
    ],
    ids=["pseudo-clique", "dl-lower", "ael-lower", "imp-lower"],
)
def test_gen_json_report(capsys, command, counts):
    # without -o the report is the whole of stdout
    code, payload = run_json(capsys, command + ["--json"])
    assert code == 0 and {k: payload[k] for k in counts} == counts


@pytest.mark.parametrize(
    "command, message",
    [
        (["gen", "dl-lower", "-n", "0"], "n must be positive"),
        (["gen", "ael-lower", "-k", "0"], "k must be positive"),
        (["gen", "imp-lower", "--kind", "xor3", "-n", "1"], "n must be at least 2"),
        (["gen", "pseudo-clique", "-n", "1", "-k", "0"], "a pseudo-clique needs at least two main-nodes"),
    ],
    ids=["dl-lower", "ael-lower", "imp-lower", "pseudo-clique"],
)
def test_gen_rejects_a_family_too_small(capsys, command, message):
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_report_schema_rejects_an_undeclared_key():
    report = {"command": "nmlkit", "timings_ms": {}, "limits_hit": [], "satisfiabel": True}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, SCHEMA)


class _ClosedStdout:
    """A stdout whose reader has gone: every write fails with EPIPE."""

    def __init__(self, f):
        self.fileno = f.fileno

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "command,limits,expected",
    [
        (["tw", "compute", "{gr}", "--json"], "", 0),
        (["gen", "dl-lower", "-n", "2"], "", 0),
        (["fmt", "check-sat", "{fs}", "--oracle", "brute", "--json"], "brute_atoms=1", 3),
    ],
    ids=["json-report", "gen-artifact", "limit-report"],
)
def test_closed_stdout_ends_quietly(tmp_path, capsys, monkeypatch, command, limits, expected):
    # `nmlkit ... | head -1`: no traceback, and the run's own exit code, not
    # that of a usage error; a resource-limit report too
    gr, fs = tmp_path / "g.gr", tmp_path / "s.fs"
    gr.write_text("p tw 2 1\n1 2\n")
    fs.write_text("!x1\n!x2\n!x3\n")
    monkeypatch.setenv("NMLKIT_LIMITS", limits)
    with open(tmp_path / "stdout", "w") as f:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(f))
        code = main([a.format(gr=gr, fs=fs) for a in command])
        monkeypatch.undo()
    assert code == expected
    assert capsys.readouterr().err == ""


def test_dl_solve_lower_bound_n5_twdp(tmp_path, capsys):
    # 15 rules: 2^15 candidates by enumeration, a few hundred queries by search
    f = tmp_path / "d5.dt"
    assert main(["gen", "dl-lower", "-n", "5", "-o", str(f)]) == 0
    capsys.readouterr()
    code, payload = run_json(capsys, ["dl", "solve", str(f), "--oracle", "twdp", "--json"])
    assert code == 0
    assert payload["exists"] is True
    assert payload["witnesses"] == [[]]
    assert payload["width"] == 0  # literal rules: the universe has no operator node


def test_dl_solve_reports_the_universe_width(tmp_path, capsys):
    f = tmp_path / "w.dt"
    f.write_text("w: p -> q\nd: p & r ; !q ; s\n")
    code, payload = run_json(capsys, ["dl", "solve", str(f), "--oracle", "twdp", "--json"])
    assert code == 0 and payload["width"] == 2
    code, payload = run_json(capsys, ["dl", "solve", str(f), "--json"])
    assert code == 0 and "width" not in payload


def test_ael_solve_oracles_agree(tmp_path, capsys):
    f = tmp_path / "t.ae"
    f.write_text("L p -> p\nL (p & L q) | q\n!L q -> r\n")
    payloads = {}
    for oracle in ("brute", "twdp"):
        code, payloads[oracle] = run_json(
            capsys, ["ael", "solve", str(f), "--oracle", oracle, "--json"]
        )
        assert code == 0
    assert payloads["twdp"]["full_sets"] == payloads["brute"]["full_sets"]
    assert payloads["brute"]["full_sets"] == [[
        {"Lphi": "L p", "sign": "-"},
        {"Lphi": "L q", "sign": "+"},
        {"Lphi": "L (p & L q)", "sign": "-"},
    ]]
    assert payloads["twdp"]["width"] == 2 and "width" not in payloads["brute"]


def test_ael_solve_width_absent_when_the_universe_falls_back(tmp_path, capsys, monkeypatch):
    # four variables pairwise joined under belief atoms: universe width 3,
    # every query width 2
    xs = [f"x{i}" for i in range(4)]
    f = tmp_path / "k4.ae"
    f.write_text("".join(f"L ({a} ^ {b}) | {a}\n" for i, a in enumerate(xs) for b in xs[i + 1:]))
    want = run_json(capsys, ["ael", "solve", str(f), "--json"])[1]["full_sets"]
    monkeypatch.setenv("NMLKIT_LIMITS", "dp_width=2")
    code, payload = run_json(capsys, ["ael", "solve", str(f), "--oracle", "twdp", "--json"])
    assert code == 0 and payload["full_sets"] == want and "width" not in payload


def test_mso_eval_subcommand(tmp_path, capsys):
    ae = tmp_path / "neg.ae"
    ae.write_text("!L p -> p\n")
    code, payload = run_json(
        capsys,
        ["mso", "eval", str(ae), "--kind", "ae", "--name", "full-exists", "--json"],
    )
    assert code == 0 and payload["holds"] is False
    ae.write_text("L p -> p\n")
    code, payload = run_json(
        capsys,
        ["mso", "eval", str(ae), "--kind", "ae", "--name", "full-exists", "--json"],
    )
    assert code == 0 and payload["holds"] is True
    code, payload = run_json(
        capsys,
        ["mso", "eval", str(ae), "--kind", "ae", "--name", "struc", "--json"],
    )
    assert code == 0 and payload["holds"] is True


def test_mso_eval_kind_mismatch_is_usage_error(tmp_path, capsys):
    fs = tmp_path / "x.fs"
    fs.write_text("p\n")
    code = main(["mso", "eval", str(fs), "--kind", "prop", "--name", "extension"])
    assert code == 2
    capsys.readouterr()


def test_resource_limit_exit_code(tmp_path, capsys, monkeypatch):
    fs = tmp_path / "big.fs"
    fs.write_text("\n".join(f"!x{i:02d}" for i in range(30)) + "\n")
    code = main(["fmt", "check-sat", str(fs), "--oracle", "brute"])
    assert code == 3
    capsys.readouterr()
    # caps are overridable through the environment
    monkeypatch.setenv("NMLKIT_LIMITS", "brute_atoms=30")
    code = main(["fmt", "check-sat", str(fs), "--oracle", "brute"])
    assert code == 0
    capsys.readouterr()


def test_missing_file_is_usage_error(capsys):
    code = main(["dl", "solve", "/nonexistent/file.dt"])
    assert code == 2
    capsys.readouterr()


def test_bench_chain_rows(capsys):
    code, payload = run_json(capsys, ["bench", "--family", "chain", "--sizes", "50,100", "--json"])
    assert code == 0
    rows = payload["rows"]
    assert [(r["family"], r["param"], r["method"], r["verdict"], r["passed"]) for r in rows] == [
        ("chain", 50, "dp", "sat", True),
        ("chain", 100, "dp", "sat", True),
    ]
    # a row's size and width are those of the set the DP compiles
    for row in rows:
        compiled = compile_set(chain(row["param"]), asserted=True)
        assert (row["n_vertices"], row["width"]) == (compiled.cg.graph.n, compiled.width)
    # plain mode prints one line per row
    assert main(["bench", "--family", "chain", "--sizes", "50,100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["PASS  chain/50", "PASS  chain/100"]
    with pytest.raises(SystemExit):
        main(["bench", "--family", "chain", "--sizes", "5", "--csv", "bench.csv"])
    capsys.readouterr()


@pytest.mark.parametrize("size", ["0", "-3"])
def test_bench_chain_rejects_a_nonpositive_size(capsys, size):
    assert main(["bench", "--family", "chain", "--sizes", size]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "m must be positive" in captured.err


@pytest.mark.parametrize("sizes", ["", " , "])
def test_bench_rejects_an_empty_size_list(capsys, sizes):
    assert main(["bench", "--family", "chain", "--sizes", sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--sizes" in captured.err


def test_run_bench_names_an_unknown_family():
    # the CLI's --family choices stop this input before it gets here
    with pytest.raises(ValueError, match="^unknown family 'x'$"):
        run_bench("x", [1])


def test_bench_brute_sat_records_limit_row(capsys):
    argv = ["bench", "--family", "chain", "--method", "brute", "--sizes", "26,4", "--json"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert [(r["param"], r["verdict"], r["passed"]) for r in payload["rows"]] == [
        (26, "resource-limit", True),
        (4, "sat", True),
    ]


def test_bench_check_follows_the_verdict(capsys, monkeypatch):
    argv = ["bench", "--family", "chain", "--sizes", "5", "--json"]
    code, payload = run_json(capsys, argv)
    assert code == 0 and [r["passed"] for r in payload["rows"]] == [True]
    code, payload = run_json(capsys, ["bench", "--family", "pseudo-clique", "--sizes", "3", "--json"])
    assert code == 0 and [(r["width"], r["passed"]) for r in payload["rows"]] == [(2, True)]
    # chain(m) is satisfiable by construction, so an unsat row fails its check
    monkeypatch.setattr("nmlkit.bench.dp_sat", lambda *args, **kwargs: False)
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert [(r["verdict"], r["passed"]) for r in payload["rows"]] == [("unsat", False)]
    assert main(argv[:-1]) == 0
    assert capsys.readouterr().out.startswith("FAIL  chain/5: unsat")


@pytest.mark.parametrize(
    "family, method, default",
    [("chain", "exact", "dp"), ("pseudo-clique", "brute", "exact"), ("pseudo-clique", "dp", "exact")],
)
def test_bench_method_follows_the_family(capsys, family, method, default):
    # a method the family does not run is a usage error naming both
    assert main(["bench", "--family", family, "--sizes", "3", "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"family {family!r} does not run method {method!r}" in captured.err
    # without --method the family's own method runs, and the row says so
    code, payload = run_json(capsys, ["bench", "--family", family, "--sizes", "3", "--json"])
    (row,) = payload["rows"]
    assert row["family"] == family and row["method"] == default and row["verdict"] in ("sat", "ok")
    argv = ["bench", "--family", family, "--sizes", "3", "--method", default, "--json"]
    assert [r["method"] for r in run_json(capsys, argv)[1]["rows"]] == [default]


def test_verify_paper_quick(capsys):
    code = main(["verify-paper", "--quick"])
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    failed = [l for l in lines if l.startswith("FAIL")]
    assert len(lines) == 10, out
    # criterion 2 checks the strongest normalization clause that can hold
    # (the printed exactly-once clause fails for any valid decomposition once
    # a pair carries two edge-nodes), so every check passes and the exit is 0
    assert code == 0, failed
    assert not failed, failed


def test_nmlkit_limits_env_rejects_unknown_keys(monkeypatch):
    monkeypatch.setenv("NMLKIT_LIMITS", "bogus=1")
    from nmlkit.limits import get_limits

    with pytest.raises(ValueError):
        get_limits()


@pytest.mark.parametrize(
    "command, name, text",
    [
        (["fmt", "check-sat"], "bad.fs", "p\nq |\n"),
        (["fmt", "check-imp"], "bad.imp", "p: p\nc: q |\n"),
        (["dl", "solve"], "bad.dt", "w: p\nd: q | ; p ; p\n"),
        (["ael", "solve"], "bad.ae", "L p\nq |\n"),
        (["tw", "compute"], "bad.gr", "p tw 3 2\ntd #\n"),
        (["tw", "compute"], "header.gr", "c one\np tw 3 two\n"),
        (["tw", "verify", "{gr}"], "header.td", "c one\ns td x 3 3\n"),
        (["tw", "verify", "{gr}"], "bare.td", "s td 1 3 3\nb\n"),
        (["tw", "verify", "{gr}"], "bad.td", "s td 1 3 3\nb c 1\n"),
        (["tw", "normalize", "{gr}", "{td}", "--labels-file"], "bad.labels", "1 main -\nx main\n"),
        (["tw", "compute"], "loop.gr", "p tw 3 1\n2 2\n"),
        (["tw", "compute"], "range.gr", "p tw 3 1\n1 5\n"),
        (["tw", "verify", "{gr}"], "few.td", "c five\ns td 5 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"),
        (["tw", "verify", "{gr}"], "many.td", "s td 0 0 3\nb 1 1 2\n"),
        (["tw", "verify", "{gr}"], "max.td", "c three\ns td 1 3 3\nb 1 1 2\n"),
        (["tw", "verify", "{gr}"], "range.td", "s td 1 2 3\nb 1 1 9\n"),
        (["tw", "normalize", "{gr}", "{td}", "--labels-file"], "twice.labels", "1 main -\n1 edge -\n"),
        (["tw", "normalize", "{gr}", "{td}", "--labels-file"], "zero.labels", "1 main -\n0 main -\n"),
        (["tw", "normalize", "{gr}", "{td}", "--labels-file"], "minus.labels", "1 main -\n-2 none\n"),
    ],
)
def test_parse_error_names_its_line(tmp_path, capsys, command, name, text):
    # a well-formed graph and decomposition for the other file arguments
    (tmp_path / "g.gr").write_text("p tw 3 2\n1 2\n2 3\n")
    (tmp_path / "g.td").write_text("s td 1 3 3\nb 1 1 2 3\n")
    f = tmp_path / name
    f.write_text(text)
    args = [a.format(gr=tmp_path / "g.gr", td=tmp_path / "g.td") for a in command]
    assert main(args + [str(f)]) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith("(line 2)") and "Traceback" not in err


def test_labels_beyond_the_graph_are_a_usage_error(tmp_path, capsys):
    gr, td, labels = tmp_path / "g.gr", tmp_path / "g.td", tmp_path / "far.labels"
    gr.write_text("p tw 3 2\n1 2\n2 3\n")
    td.write_text("s td 1 3 3\nb 1 1 2 3\n")
    labels.write_text("1 main -\n9 main -\n")
    assert main(["tw", "normalize", str(gr), str(td), "--labels-file", str(labels)]) == 2
    err = capsys.readouterr().err
    assert "vertex 9 outside 1..3" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "td_text, labels_text, message",
    [
        ("s td 2 2 6\nb 1 1 2\nb 2 3 4\n", None,
         "error: invalid decomposition: (tree) 2 bags need 1 tree edges, found 0"),
        ("s td 1 6 6\nb 1 1 2 3 4 5 6\n", "", "error: graph carries no main/edge labels"),
    ],
    ids=["forest-decomposition", "empty-labels"],
)
def test_normalize_refuses_what_it_cannot_rewrite(tmp_path, capsys, td_text, labels_text, message):
    gr, td = tmp_path / "pc.gr", tmp_path / "pc.td"
    assert main(["gen", "pseudo-clique", "-n", "3", "-k", "1", "-o", str(gr), "--labels"]) == 0
    labels = gr.with_suffix(".labels")
    if labels_text is not None:
        labels.write_text(labels_text)
    td.write_text(td_text)
    capsys.readouterr()
    assert main(["tw", "normalize", str(gr), str(td), "--labels-file", str(labels)]) == 2
    err = capsys.readouterr().err
    assert err.rstrip() == message


def test_td_repeated_tree_edge_is_a_parse_error(tmp_path, capsys):
    # the copy would otherwise vanish from the edge set and pass validation
    gr, td = tmp_path / "g.gr", tmp_path / "twice.td"
    gr.write_text("p tw 3 2\n1 2\n2 3\n")
    td.write_text("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n1 2\n")
    assert main(["tw", "verify", str(gr), str(td)]) == 2
    err = capsys.readouterr().err
    assert "repeated tree edge 1 2" in err and err.rstrip().endswith("(line 5)")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("p tw 3 5\n1 2\n1 2\n2 1\n", "repeated edge 1 2", 3),
        ("p tw 3 2\n1 2\n2 1\n", "repeated edge 2 1", 3),
        ("p tw 3 1\n1 2\n2 3\n", "more edge lines than the header's 1", 3),
        ("c short\np tw 3 5\n1 2\n", "the header says 5 edges, the file has 1", 2),
    ],
)
def test_gr_edges_must_match_the_header(tmp_path, capsys, text, message, line):
    # a repeat would otherwise vanish from the edge set, and a count the
    # header contradicts would go unnoticed
    gr = tmp_path / "bad.gr"
    gr.write_text(text)
    assert main(["tw", "compute", str(gr)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.rstrip().endswith(f"(line {line})")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("bogus=1", "unknown NMLKIT_LIMITS entry: 'bogus=1'"),
        ("dl_rules=40", "unknown NMLKIT_LIMITS entry: 'dl_rules=40'"),
        ("ael_prefixes=40", "unknown NMLKIT_LIMITS entry: 'ael_prefixes=40'"),
        ("dp_width=abc", "entry 'dp_width=abc': the value must be a non-negative integer"),
        ("dp_width=-1", "entry 'dp_width=-1': the value must be a non-negative integer"),
        ("dp_width=0,dp_width=14", "entry 'dp_width=14': the key dp_width is given twice"),
    ],
)
def test_bad_nmlkit_limits_is_a_usage_error(tmp_path, capsys, monkeypatch, entry, message):
    # tw compute reads no limit, yet the entry is rejected
    gr = tmp_path / "g.gr"
    gr.write_text("p tw 2 1\n1 2\n")
    monkeypatch.setenv("NMLKIT_LIMITS", entry)
    assert main(["tw", "compute", str(gr)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_dl_solve_lower_bound_family_past_twenty_rules(tmp_path, capsys, monkeypatch):
    # n = 6 has 21 rules; the search visits a few nodes per rule
    dt = tmp_path / "dl6.dt"
    assert main(["gen", "dl-lower", "-n", "6", "-o", str(dt)]) == 0
    capsys.readouterr()
    assert main(["dl", "solve", str(dt)]) == 0
    assert capsys.readouterr().out.splitlines() == ["exists: True", "generating defaults: []"]
    monkeypatch.setenv("NMLKIT_LIMITS", "search_nodes=3")
    assert main(["dl", "solve", str(dt)]) == 3
    err = capsys.readouterr().err
    assert "search_nodes=3" in err and "Traceback" not in err


@pytest.fixture
def fresh_recursion_limit():
    """The recursion limit of a fresh interpreter, so these inputs meet the
    same limit whatever test or harness ran before."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


WIDE = " & ".join(f"x{i}" for i in range(10_000))


@pytest.mark.parametrize(
    "command, text, limits, hit",
    [
        # building prints nothing; the labels of a left-nested chain are
        # printed one frame per level
        (["struct", "build", "--kind", "prop", "--labels", "-o", "{out}"], WIDE, "", "recursion"),
        (["mso", "eval", "--kind", "prop", "--name", "sat"], WIDE, "mso_steps=200000", "mso_steps"),
    ],
    ids=["wide-struct", "wide-mso"],
)
def test_deep_or_wide_input_is_a_resource_limit(
    tmp_path, capsys, monkeypatch, fresh_recursion_limit, command, text, limits, hit
):
    monkeypatch.setenv("NMLKIT_LIMITS", limits)
    f = tmp_path / "big.fs"
    f.write_text(text + "\n")
    command = [a.format(out=tmp_path / "big.gr") for a in command]
    code, payload = run_json(capsys, command + [str(f), "--json"])
    assert code == 3
    assert any(hit in h for h in payload["limits_hit"])
    assert main(command + [str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("resource limit:") and "Traceback" not in captured.err


def test_wide_struct_build_prints_nothing(tmp_path, capsys, fresh_recursion_limit):
    f = tmp_path / "wide.fs"
    f.write_text(WIDE + "\n")
    out = tmp_path / "wide.gr"
    code, payload = run_json(capsys, ["struct", "build", str(f), "--kind", "prop", "-o", str(out), "--json"])
    assert code == 0
    assert (payload["n_vertices"], payload["n_edges"]) == (19_999, 19_998)
    assert out.read_text().startswith("p tw 19999 19998\n")


def test_deep_negation_solves(tmp_path, capsys, fresh_recursion_limit):
    # prefix runs are read in a loop and the DP's walk keeps its own stack
    f = tmp_path / "deep.fs"
    f.write_text("!" * 5000 + "x\n")
    code, payload = run_json(capsys, ["fmt", "check-sat", str(f), "--json"])
    assert code == 0 and payload["satisfiable"] is True


@pytest.mark.parametrize(
    "text",
    ["(" * 5000 + "x" + ")" * 5000, "".join(f"(x{i} & " for i in range(5000)) + "y" + ")" * 5000],
    ids=["parens", "nested-and"],
)
def test_deep_parentheses_solve(tmp_path, capsys, fresh_recursion_limit, text):
    # groups are parsed on the parser's own stack
    f = tmp_path / "deep.fs"
    f.write_text(text + "\n")
    code, payload = run_json(capsys, ["fmt", "check-sat", str(f), "--json"])
    assert code == 0 and payload["satisfiable"] is True


@pytest.mark.parametrize("kind", ["xor3", "cnf_dnf"])
def test_generated_imp_file_reads_back(tmp_path, capsys, kind):
    f = tmp_path / "i.imp"
    assert main(["gen", "imp-lower", "--kind", kind, "-n", "5", "-o", str(f)]) == 0
    premises, conclusions = gen_imp_lower(kind, 5)
    assert parse_implication(f.read_text()) == (premises, conclusions)
    for oracle in ("brute", "twdp"):
        code, payload = run_json(capsys, ["fmt", "check-imp", str(f), "--oracle", oracle, "--json"])
        assert code == 0 and payload["implies"] == implies_bruteforce(premises, conclusions)


def _leaf_parsers(parser, path=()):
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def _required_argv(parser):
    argv = []
    for action in parser._actions:
        if action.option_strings and not action.required:
            continue
        value = str(action.choices[0] if action.choices else 1)
        argv += action.option_strings[:1] + [value]
    return argv


def test_every_leaf_command_takes_json_and_resolves_to_a_handler():
    leaves = list(_leaf_parsers(build_parser()))
    assert len(leaves) == 16
    handlers = set()
    for path, leaf in leaves:
        args = build_parser().parse_args([*path, *_required_argv(leaf), "--json"])
        assert args.json is True, path
        assert callable(args.handler) and args.handler is leaf.get_default("handler"), path
        handlers.add(args.handler)
    assert len(handlers) == len(leaves)


def test_python_dash_m_runs_the_cli():
    env = {k: v for k, v in os.environ.items() if k != "NMLKIT_LIMITS"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-m", "nmlkit", "gen", "dl-lower", "-n", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "d: x1 ; y1 ; F"


def test_main_module_runs_the_cli(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p.fs"
    path.write_text("p\n")
    monkeypatch.setattr(sys, "argv", ["nmlkit", "fmt", "check-sat", str(path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("nmlkit", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out == "satisfiable: True\n"
