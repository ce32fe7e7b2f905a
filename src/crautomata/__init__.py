"""Complete reachability analysis and word synthesis for deterministic automata.

The central question: given a DFA, is every non-empty subset of states the
image of the full state set under some word?  The decision runs over a
hierarchy of graphs built from word signatures (excluded and duplicated
states); on success, witness words are synthesized for any subset, and reset
words with proven cubic length bounds become available.  A brute-force
powerset oracle cross-checks everything at small sizes.
"""

from .automaton import (
    Dfa,
    ExclDuplPair,
    StateSet,
    Transformation,
    Word,
    apply_word,
    defect,
    excl_dupl,
    extend_excl_dupl,
    preimage_table,
    shortlex_key,
    transformation_of,
)
from .canonical import CanonicalWordSet
from .cli import main, run_cli
from .digraph import (
    ClusterPartition,
    SimpleDigraph,
    is_strongly_connected,
    strongly_connected_components,
)
from .dot import forest_dot, level_dot
from .formats import (
    dfa_to_doc,
    doc_to_dfa,
    format_states,
    format_word,
    gamma_to_doc,
    parse_dfa,
    serialize_dfa,
)
from .gamma import (
    FAILURE,
    SUCCESS,
    ClusterForest,
    GammaLevel,
    GammaResult,
    build_gamma,
    decide_complete_reachability,
    unreachable_witness,
)
from .generators import cerny, e_family, fixed_example, random_dfa
from .oracle import (
    Monoid,
    ReachMap,
    is_cr_bruteforce,
    powerset_reach_map,
    reset_threshold_exact,
    transition_monoid,
)
from .synchro import (
    ResetReport,
    TwoLetterReport,
    avoiding_length_bound,
    avoiding_word,
    cerny_bound,
    check_two_letter_properties,
    compress_length_bound,
    compress_word,
    cubic_reset_bound,
    halving_length_bound,
    halving_word,
    reset_word,
)
from .witness import ReachStep, expand_step, reach_word

__version__ = "0.1.0"

__all__ = [
    "Dfa",
    "ExclDuplPair",
    "StateSet",
    "Transformation",
    "Word",
    "apply_word",
    "defect",
    "excl_dupl",
    "extend_excl_dupl",
    "preimage_table",
    "shortlex_key",
    "transformation_of",
    "CanonicalWordSet",
    "main",
    "run_cli",
    "ClusterPartition",
    "SimpleDigraph",
    "is_strongly_connected",
    "strongly_connected_components",
    "forest_dot",
    "level_dot",
    "dfa_to_doc",
    "doc_to_dfa",
    "format_states",
    "format_word",
    "gamma_to_doc",
    "parse_dfa",
    "serialize_dfa",
    "FAILURE",
    "SUCCESS",
    "ClusterForest",
    "GammaLevel",
    "GammaResult",
    "build_gamma",
    "decide_complete_reachability",
    "unreachable_witness",
    "cerny",
    "e_family",
    "fixed_example",
    "random_dfa",
    "Monoid",
    "ReachMap",
    "is_cr_bruteforce",
    "powerset_reach_map",
    "reset_threshold_exact",
    "transition_monoid",
    "ResetReport",
    "TwoLetterReport",
    "avoiding_length_bound",
    "avoiding_word",
    "cerny_bound",
    "check_two_letter_properties",
    "compress_length_bound",
    "compress_word",
    "cubic_reset_bound",
    "halving_length_bound",
    "halving_word",
    "reset_word",
    "ReachStep",
    "expand_step",
    "reach_word",
    "__version__",
]
