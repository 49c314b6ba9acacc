"""One benchmark run of one workload, in its own interpreter.

``perfbench/run.py`` starts this module as a child process so that each
workload has its own peak resident set, its own recursion limit (``eval_mso``
raises it process-wide) and an environment without ``NMLKIT_LIMITS``.  The
last line of standard output is the JSON result.

A run: set up, compute the reference verdicts (untimed), run one untimed
warm-up pass, then timed passes until ``--seconds`` are used.  ``setup_s`` is
the least import time, measured in fresh interpreters, plus the least set-up
time, over SETUP_REPEATS samples spread over the run.  With ``--trace 1`` the
timed passes alternate between untraced and traced, and the per-layer metrics
are means over the traced passes.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from . import layers
from .tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
SPANS_DIR = ROOT / ".perfbench"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import perfbench.workloads; "
                "print(time.perf_counter() - t)")


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    decided: int
    wrong: int
    samples: list[float] = field(default_factory=list)


def run_pass(workload, setup, expected, limits, tracer=None) -> PassResult:
    """Solve every instance once.  An exception (a ResourceLimitError or any
    other) leaves the instance undecided; a verdict the workload's check does
    not accept against the reference counts as wrong.  The sample is the time
    of the solve alone; the traced harness span holds the check as well."""
    from nmlkit.errors import ResourceLimitError

    res = PassResult(0.0, 0, 0, 0)
    gc.collect()
    start = time.perf_counter()
    for inst, want in zip(setup.instances, expected):
        with (tracer.span(layers.HARNESS_SPAN) if tracer is not None
              else contextlib.nullcontext()):
            t0 = time.perf_counter()
            decided = False
            try:
                got = workload.solve(inst, setup.context, limits)
                decided = True
            except ResourceLimitError:
                pass
            except Exception:  # undecided too, but not expected: show it
                traceback.print_exc()
            res.samples.append(time.perf_counter() - t0)
            res.attempted += 1
            if decided:
                res.decided += 1
                res.wrong += not workload.agrees(got, want)
    res.wall_s = time.perf_counter() - start
    return res


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    limits,
    small: bool = False,
    import_probe: Optional[Callable[[], float]] = None,
    spans_path: Optional[Path] = None,
) -> dict:
    """One run; returns the result object (``correct``, ``attempted``,
    ``failed``, ``metrics``) plus a ``summary`` line for humans."""
    tracer = Tracer() if trace else None
    import_times: list[float] = []
    setup_times: list[float] = []

    def time_setup():
        # Set-up samples are spread over the run, so that their least does
        # not hang on one stretch of the host.
        if import_probe is not None:
            import_times.append(import_probe())
        gc.collect()
        t0 = time.perf_counter()
        made = workload.setup(seed, small)
        setup_times.append(time.perf_counter() - t0)
        return made

    setup = time_setup()
    setup_trace = {}
    if tracer is not None:
        layers.install(tracer)
        try:
            workload.setup(seed, small)
            setup_trace = tracer.self_times()
        finally:
            tracer.restore()
        tracer.clear()
    expected = [workload.reference(inst) for inst in setup.instances]

    run_pass(workload, setup, expected, limits)  # warm-up
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    layer_sums = dict.fromkeys(layers.PER_LAYER, 0.0)
    begin = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.calibrate()  # at the host's speed of the coming pass
            tracer.clear()
            layers.install(tracer)
            try:
                res = run_pass(workload, setup, expected, limits, tracer)
            finally:
                tracer.restore()
            for key, value in layers.summarize(tracer, res.wall_s).items():
                layer_sums[key] += value
            traced.append(res)
        else:
            plain.append(res := run_pass(workload, setup, expected, limits))
            if len(setup_times) < SETUP_REPEATS * (
                    time.perf_counter() - begin) / seconds and tracer is None:
                time_setup()
        elapsed = time.perf_counter() - begin
        if len(traced) == len(plain) * (tracer is not None) and elapsed + res.wall_s > seconds:
            break
    while tracer is None and len(setup_times) < SETUP_REPEATS:
        time_setup()

    done = plain + traced
    attempted = sum(p.attempted for p in done)
    decided = sum(p.decided for p in done)
    wrong = sum(p.wrong for p in done)
    # each instance's best time over the untraced passes (see README.md)
    best = [min(times) for times in zip(*(p.samples for p in plain))]
    metrics: dict
    if tracer is None:
        metrics = {
            "verdicts_per_s": _metric(
                sum(p.decided for p in plain) / len(plain) / sum(best), "1/s"),
            "solve_ms_p50": _metric(statistics.median(best) * 1e3, "ms"),
            "decided_ratio": _metric(decided / attempted, "ratio"),
            # the least sample, as for solve times: imports in a fresh
            # interpreter take one of two speeds, and the median flips
            # between them
            "setup_s": _metric(min(import_times or [0.0]) + min(setup_times), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        n = len(traced)
        means = {key: value / n for key, value in layer_sums.items()}
        means["encodings.build_ms"] = setup_trace.get("encodings.build", 0.0) * 1e3
        means["trace.untraced_wall_ms"] = statistics.fmean(p.wall_s for p in plain) * 1e3
        means["trace.overhead_ms"] = means["trace.wall_ms"] - means["trace.untraced_wall_ms"]
        means["wrong_verdicts"] = wrong
        metrics = {
            key: _metric(value, _unit(key)) for key, value in means.items()
        }
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_path)
    summary = (
        f"{workload.name} seed={seed} trace={int(trace)} passes={len(plain)}+{len(traced)} "
        f"instances={len(setup.instances)} decided={decided}/{attempted} "
        f"wrong={wrong} timed={time.perf_counter() - begin:.2f}s"
    )
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": attempted - decided + wrong,
        "metrics": metrics,
        "summary": summary,
    }


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _import_seconds() -> float:
    """Time to import nmlkit and the workloads in a fresh interpreter (this
    process has imported them already)."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                           capture_output=True, text=True, check=True, timeout=60)
    return float(probe.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import nmlkit
    from . import workloads
    if Path(nmlkit.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: imported nmlkit from {nmlkit.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")

    from nmlkit.limits import Limits

    result = measure(
        workloads.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        limits=Limits(),
        import_probe=None if args.trace else _import_seconds,
        spans_path=SPANS_DIR / f"spans-{args.workload}.tsv",
    )
    print(result.pop("summary"), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
