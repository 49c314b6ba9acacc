"""Tests of the benchmark itself.  Not collected by the repository's test
run (the file name does not match ``test_*.py``); run them with

    PYTHONPATH=src python3 -m pytest -q perfbench/bench_tests.py
"""
from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nmlkit import ael, twdp
from nmlkit.limits import Limits

from perfbench import layers, workloads
from perfbench.tracer import Tracer
from perfbench.worker import measure

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name: str, trace: bool, limits: Limits = Limits(), workload=None) -> dict:
    return measure(workload or workloads.WORKLOADS[name], 3, 0.05, trace,
                   limits=limits, small=True)


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert set(layers.SELF_MS.values()) <= set(layers.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_every_workload(name):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    plain = _run(name, trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["unit"] == units[k] for k, m in plain["metrics"].items())
    assert plain["metrics"]["decided_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = _run(name, trace=True)
    assert traced["correct"]
    assert sorted(traced["metrics"]) == sorted(layers.PER_LAYER)
    assert all(m["unit"] == units[k] for k, m in traced["metrics"].items())
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    # Self times, wrapper cost and the unattributed rest cover the traced
    # wall time; a span that escaped the harness, a wrapper that loses time
    # or an overestimated wrapper cost would break one of these.
    assert all(m[k] >= 0 for k in set(layers.SELF_MS.values()))
    assert 0 <= m["trace.unattributed_ms"] < 0.05 * m["trace.wall_ms"]


def test_each_workload_exercises_its_layers():
    m = {name: {k: v["value"] for k, v in _run(name, trace=True)["metrics"].items()}
         for name in workloads.WORKLOADS}
    assert m["sat-dp"]["formula.parse_ms"] > 0 and m["sat-dp"]["twdp.dp_calls"] > 0
    assert m["sat-dp"]["twdp.oracle_calls"] == 0
    assert m["dl-enum"]["twdp.oracle_misses"] < m["dl-enum"]["twdp.oracle_calls"]
    assert m["dl-enum"]["dl.candidates"] > 0 and m["dl-enum"]["dl.witnesses"] > 0
    assert m["ael-exp"]["twdp.oracle_misses"] == m["ael-exp"]["twdp.oracle_calls"] > 0
    assert m["ael-exp"]["ael.candidates"] > 0
    assert m["mso-check"]["mso.calls"] > 0 and m["mso-check"]["treewidth.exact_ms"] > 0
    assert m["mso-check"]["encodings.build_ms"] > 0
    assert m["mso-check"]["structures.universe_max"] > 0


def test_tracer_self_time_on_a_synthetic_call_tree():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    with t.span("root"):          # 0 .. 10
        with t.span("a"):         # 1 .. 4
            pass
        with t.span("b"):         # 5 .. 9
            with t.span("a"):     # 6 .. 7
                pass
    assert t.self_times() == {"root": 3.0, "a": 4.0, "b": 3.0}
    assert t.count("a") == 2
    assert t.count("a", parent="b") == 1
    assert t.count("missing") == 0


def test_calibrated_wrapper_cost_moves_to_its_own_bucket():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    with t.span("root"):
        with t.span("a"):
            pass
        with t.span("b"):
            with t.span("a"):
                pass
    t.outer_cost, t.inner_cost = 0.5, 0.25
    assert t.self_times() == {"root": 1.75, "a": 3.5, "b": 2.25, "trace.span_cost": 2.5}


def test_calibration_measures_a_positive_wrapper_cost():
    outer, inner = Tracer().calibrate(calls=500, rounds=3)
    assert 0 < outer < 1e-4 and 0 < inner < 1e-4


def test_a_wrong_treewidth_is_caught():
    mso_check = workloads.WORKLOADS["mso-check"]
    setup = mso_check.setup(3, True)
    structured = [i for i in setup.instances if i[0] != "pseudo-clique"]
    pairs = [(mso_check.solve(i, setup.context, Limits()), mso_check.reference(i))
             for i in structured]
    assert all(mso_check.agrees(got, want) for got, want in pairs)
    got, want = next((got, want) for got, want in pairs if got[1] >= 1)
    verdict, tw, td = got
    assert not mso_check.agrees((verdict, tw + 1, td), want)
    assert not mso_check.agrees((verdict, tw - 1, td), want)
    narrow = dataclasses.replace(td, bags={b: frozenset(sorted(bag)[:1])
                                           for b, bag in td.bags.items()})
    assert not mso_check.agrees((verdict, 0, narrow), want)


def test_wrapped_functions_are_restored():
    targets = {}
    probe = Tracer()
    layers.install(probe)
    for owner, attr, original in probe._saved:
        targets[(owner, attr)] = original
        assert vars(owner)[attr] is not original
    probe.restore()
    assert all(vars(owner)[attr] is original for (owner, attr), original in targets.items())

    _run("dl-enum", trace=True)
    assert all(vars(owner)[attr] is original for (owner, attr), original in targets.items())


def test_a_wrapped_call_that_raises_is_counted_and_closed():
    class Box:
        def boom(self):
            raise ValueError("no")

    t = Tracer()
    t.wrap(Box, "boom", "box.boom")
    with pytest.raises(ValueError):
        Box().boom()
    t.restore()
    assert t.counts["box.boom.errors"] == 1
    assert t.count("box.boom") == 1 and not t._open


def test_an_injected_wrong_verdict_is_caught():
    real = workloads.WORKLOADS["sat-dp"]
    flipped = dataclasses.replace(real, reference=lambda inst: not real.reference(inst))
    for trace in (False, True):
        result = _run("sat-dp", trace, workload=flipped)
        assert not result["correct"]
        assert result["failed"] == result["attempted"]
    assert result["metrics"]["wrong_verdicts"]["value"] == result["attempted"]


def test_a_tiny_limit_leaves_instances_undecided_without_crashing():
    result = _run("sat-dp", trace=False, limits=Limits(dp_width=1))
    assert result["correct"]
    assert result["metrics"]["decided_ratio"]["value"] < 1.0
    assert result["failed"] > 0


def test_truth_table_reference_matches_the_brute_force_oracle():
    rng = random.Random(7)
    for k in (1, 2, 3, 4):
        sigma = workloads._ae_theory(rng, k)
        ok, found = ael.expansion_exists(sigma, twdp.entailment_oracle("brute"))
        expected = (ok, [tuple(pos for _, pos in c.entries) for c in found])
        assert workloads.full_sets_by_truth_table(sigma) == expected


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sat-dp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
