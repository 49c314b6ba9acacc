"""nmlkit: nonmonotonic-logic toolkit.

Propositional/autoepistemic formulas with brute-force oracles, relational
structures and their Gaifman graphs, an MSO model checker with the standard
encodings of satisfiability, implication, extension existence and expansion
existence, treewidth machinery (min-fill and exact decompositions, nice
form, pseudo-clique theory), treewidth dynamic programming, and generators
for the lower-bound instance families.
"""

from .errors import NmlkitError, ParseError, ResourceLimitError
from .formula import (
    Basis,
    DEFAULT_BASIS,
    Formula,
    Var,
    Const,
    App,
    Believes,
    TRUE,
    FALSE,
    parse_formula,
    format_formula,
    evaluate,
    atoms,
    subformulae,
    believes_subformulae,
    sat_bruteforce,
    implies_bruteforce,
)
from .structures import (
    Graph,
    RelationalStructure,
    Vocabulary,
    build_prop_structure,
    build_imp_structure,
    build_dl_structure,
    build_ael_structure,
    gaifman_graph,
    make_graph,
    emit_gr,
    parse_gr,
    emit_labels,
    parse_labels,
)
from .mso import eval_mso, eval_mso_bruteforce, to_text
from .encodings import mso_encoding
from .treewidth import (
    TreeDecomposition,
    NiceTreeDecomposition,
    width,
    validate_decomposition,
    heuristic_decomposition,
    exact_treewidth,
    make_nice,
    normalize_pseudo,
    is_pseudo_clique,
    pseudo_clique_lower_bound,
    emit_td,
    parse_td,
)
from .twdp import dp_sat, dp_implication, entailment_oracle, EntailmentOracle
from .dl import (
    DefaultRule,
    DefaultTheory,
    ExtensionWitness,
    stage_fixpoint,
    extension_exists,
    parse_default_theory,
)
from .ael import (
    AeTheory,
    FullSetCandidate,
    belief_atoms,
    is_full,
    expansion_exists,
    parse_ae_theory,
)
from .families import (
    PseudoCliqueSpec,
    gen_pseudo_clique,
    gen_dl_lower,
    gen_ael_lower,
    gen_imp_lower,
    check_class,
)

__version__ = "0.1.0"
