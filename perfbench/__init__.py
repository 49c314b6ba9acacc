"""Layered benchmark for nmlkit: seeded workloads, end-to-end metrics from
untraced passes, per-layer metrics from an outside-in traced pass.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout.  See ``perfbench/README.md``.
"""
