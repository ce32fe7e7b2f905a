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
    apply_word,
    defect,
    excl_dupl,
    extend_excl_dupl,
    preimage_table,
    transformation_of,
)
from .canonical import CanonicalWordSet
from .digraph import (
    ClusterPartition,
    SimpleDigraph,
    is_strongly_connected,
    strongly_connected_components,
)
from .formats import (
    dfa_to_doc,
    doc_to_dfa,
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
from .witness import ReachStep, reach_word

# Bound as ``crautomata.cli`` for callers that drive the command line through
# the package; ``run_cli`` and ``main`` are not re-exported.
from . import cli

__version__ = "0.1.0"

__all__ = [
    "Dfa",
    "ExclDuplPair",
    "StateSet",
    "apply_word",
    "defect",
    "excl_dupl",
    "extend_excl_dupl",
    "preimage_table",
    "transformation_of",
    "CanonicalWordSet",
    "ClusterPartition",
    "SimpleDigraph",
    "is_strongly_connected",
    "strongly_connected_components",
    "dfa_to_doc",
    "doc_to_dfa",
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
    "reach_word",
    "__version__",
]
