"""Benchmark entry point.

    python3 perfbench/run.py --workload sat-dp --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a child interpreter
(``perfbench.worker``) that imports nmlkit from ``src/`` of this checkout,
with ``NMLKIT_LIMITS`` removed from its environment and a fixed hash seed;
this process relays its output and exit code.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "nmlkit" / "__init__.py").is_file():
        print(f"perfbench: no nmlkit sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "NMLKIT_LIMITS"}
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    # Set iteration order, and with it the decompositions the oracle builds,
    # depends on string hashing; a fixed hash seed makes a run repeatable.
    env["PYTHONHASHSEED"] = "0"
    try:
        child = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *argv],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(child.stdout)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
