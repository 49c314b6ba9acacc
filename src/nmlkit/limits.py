"""Resource limits, overridable through the NMLKIT_LIMITS environment variable.

Each key bounds one layer, in one unit:

    brute_atoms      truth-table enumeration (sat/implies_bruteforce): atoms
    mso_steps        eval_mso: evaluation steps per call, a bag-program
                     run counting one per instruction
    mso_brute_cost   eval_mso_bruteforce: estimated enumeration steps
    exact_tw_core    exact_treewidth: core vertices left by safe reductions
    clique_vertices  pseudo_clique_lower_bound: graph vertices
    dp_width         the treewidth DP (compile_set): decomposition width;
                     eval_mso searches a set whose bag program is wider
    search_nodes     extension_exists, expansion_exists: nodes of the binary
                     decision tree over rules or belief atoms

NMLKIT_LIMITS is a comma-separated ``key=value`` list of non-negative
integers, e.g. ``NMLKIT_LIMITS="brute_atoms=26,dp_width=16"``.  Unknown keys
are rejected so typos do not silently leave a limit at its default, and a
key given twice is rejected so neither value silently wins.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import ResourceLimitError

_ENV_VAR = "NMLKIT_LIMITS"


@dataclass(frozen=True)
class Limits:
    brute_atoms: int = 24
    mso_steps: int = 5_000_000
    mso_brute_cost: int = 2_000_000
    exact_tw_core: int = 24
    clique_vertices: int = 64
    dp_width: int = 14
    # the 2^21 - 1 nodes of any search over 20 rules or belief atoms
    search_nodes: int = 1 << 21


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
    for item in filter(None, map(str.strip, raw.split(","))):
        key, sep, value = map(str.strip, item.partition("="))
        if not sep or key not in _VALID_KEYS:
            raise ValueError(f"unknown {_ENV_VAR} entry: {item!r}")
        if key in parsed:
            raise ValueError(f"{_ENV_VAR} entry {item!r}: the key {key} is given twice")
        if not value.isdecimal():
            raise ValueError(f"{_ENV_VAR} entry {item!r}: the value must be a non-negative integer")
        parsed[key] = int(value)
    return replace(DEFAULT_LIMITS, **parsed)


def check(limits: Limits | None, key: str, needed: int, what: str) -> None:
    """Refuse ``needed`` above the limit ``key``, naming the layer ``what``."""
    cap = getattr(get_limits(limits), key)
    if needed > cap:
        raise ResourceLimitError(f"{what} {needed} exceeds {_ENV_VAR} {key}={cap}")
