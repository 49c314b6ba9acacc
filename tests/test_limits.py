from dataclasses import fields

import pytest

from nmlkit.ael import AeTheory, expansion_exists
from nmlkit.dl import DefaultRule, DefaultTheory, extension_exists
from nmlkit.encodings import satisfiability
from nmlkit.errors import ResourceLimitError
from nmlkit.families import chain
from nmlkit.formula import TRUE, Basis, Believes, Var, sat_bruteforce
from nmlkit.limits import Limits
from nmlkit.mso import eval_mso, eval_mso_bruteforce
from nmlkit.structures import build_prop_structure, make_graph
from nmlkit.treewidth import exact_treewidth, pseudo_clique_lower_bound
from nmlkit.twdp import dp_sat

P, Q = Var("p"), Var("q")
# the Petersen graph: 3-regular with girth 5, so no safe reduction applies
PETERSEN = make_graph(
    10,
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)],
)

# (key, value that the input exceeds, call that reads the limit)
CASES = [
    ("brute_atoms", 1, lambda lim: sat_bruteforce([P, Q], limits=lim)),
    (
        "mso_steps",
        10,
        lambda lim: eval_mso(build_prop_structure(chain(3)), satisfiability(Basis()), limits=lim),
    ),
    (
        "mso_brute_cost",
        10,
        lambda lim: eval_mso_bruteforce(
            build_prop_structure(chain(3)), satisfiability(Basis()), limits=lim
        ),
    ),
    ("exact_tw_core", 9, lambda lim: exact_treewidth(PETERSEN, limits=lim)),
    ("clique_vertices", 9, lambda lim: pseudo_clique_lower_bound(PETERSEN, limits=lim)),
    ("dp_width", 0, lambda lim: dp_sat(chain(3), limits=lim)),
    (
        "search_nodes",
        1,
        lambda lim: extension_exists(DefaultTheory((), (DefaultRule(TRUE, P, Q),)), limits=lim),
    ),
    ("search_nodes", 6, lambda lim: expansion_exists(AeTheory((Believes(Believes(P)),)), limits=lim)),
]


def test_every_limit_has_a_case():
    assert {key for key, _, _ in CASES} == {f.name for f in fields(Limits)}


@pytest.mark.parametrize("key, value, call", CASES, ids=[key for key, _, _ in CASES])
def test_each_limit_names_its_key(key, value, call):
    call(Limits())  # within the defaults
    with pytest.raises(ResourceLimitError, match=f"NMLKIT_LIMITS {key}={value}"):
        call(Limits(**{key: value}))
