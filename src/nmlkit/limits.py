"""Resource caps, overridable through the NMLKIT_LIMITS environment variable.

NMLKIT_LIMITS is a comma-separated ``key=value`` list, e.g.
``NMLKIT_LIMITS="brute_atoms=26,dp_width=16"``.  Unknown keys are rejected so
typos do not silently leave a cap at its default.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

_ENV_VAR = "NMLKIT_LIMITS"


@dataclass(frozen=True)
class Limits:
    brute_atoms: int = 24        # atom cap for truth-table enumeration
    mso_steps: int = 5_000_000   # evaluation-step budget per MSO model-checking call
    mso_brute_cost: int = 2_000_000  # a-priori cost cap for the reference MSO evaluator
    exact_tw_core: int = 24      # vertex cap for the branch-and-bound core (after reductions)
    clique_vertices: int = 64    # vertex cap for max-clique based lower bounds
    dp_width: int = 14           # decomposition-width cap for the treewidth DP
    dl_rules: int = 20           # default-rule cap for the generating-set search
    ael_prefixes: int = 20       # belief-atom cap for full-set enumeration


DEFAULT_LIMITS = Limits()
_VALID_KEYS = {f.name for f in fields(Limits)}


def get_limits(overrides: Limits | None = None) -> Limits:
    """Return the effective limits: explicit overrides win, then the environment."""
    if overrides is not None:
        return overrides
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_LIMITS
    parsed = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in _VALID_KEYS:
            raise ValueError(f"unknown {_ENV_VAR} entry: {item!r}")
        parsed[key] = int(value)
    return replace(DEFAULT_LIMITS, **parsed)
