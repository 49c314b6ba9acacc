"""Run the benchmark once per seed and report, for every metric, the median
and the quartile spread (Q3 - Q1) / median over the seeds.

    python3 perfbench/spread.py --workloads sat-dp,dl-enum --seeds 1-10
        [--out perfbench/baseline.json]

Run from the root of a checkout.  Each run is ``perfbench/run.py`` with
``run_seconds`` from BENCHMARK.json and ``--trace 0``.  A spread is flagged
when it exceeds a third of the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="spread")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict = {}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            report[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "runs": len(vals)}
            flag = ""
            if spread > bounds[name] / 3:
                flag = f"  > bound/3 ({bounds[name] / 3:.3f})"
            print(f"{workload:10s} {name:26s} median {median:12.4f}  spread {spread:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
