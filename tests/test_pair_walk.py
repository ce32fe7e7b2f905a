"""The pair walk against an independent search.

``CanonicalWordSet`` keeps the least word of every (excl, duplicate state)
pair.  The reference, ``canonical_reference.shortlex_signatures``, is a
breadth-first search that finds the least word of every whole (excl, dupl)
signature, stepping state by state through ``extend_excl_dupl``; it shares
no code with the walk.  One corpus serves both checks: the kept words are
exactly the pairs' least words, as the search reduces them, and levels
built from whole signatures are the levels ``build_gamma`` builds from
pairs.  The first check also runs on automata of up to 65 states, on 260
letters and on one letter, which stress the walk's packed letter rows.
"""

import random

from canonical_reference import least_pairs, shortlex_signatures
from test_synchro_reference import cycle_idempotent

from crautomata import (
    FAILURE,
    SUCCESS,
    Dfa,
    SimpleDigraph,
    build_gamma,
    cerny,
    e_family,
    excl_dupl,
    random_dfa,
    strongly_connected_components,
)
from crautomata.canonical import CanonicalWordSet


def corpus():
    dfas = [random_dfa(1 + i % 9, 1 + i % 4, i) for i in range(300)]
    for n in range(3, 9):
        dfas += [e_family(n, k) for k in range(2, n)]
        dfas.append(e_family(n, n - 1, drop_last_b=True))
    dfas += [cerny(n) for n in range(2, 11)]
    rng = random.Random(9)
    dfas += [cycle_idempotent(n, d, rng) for n in range(2, 10) for d in range(1, n)]
    return dfas


def wide_and_unary():
    """A 260-letter automaton, whose packed keys hold more than 256 fields
    and whose letter digits need more than a byte, and unary automata, whose
    codes are word lengths; the same automata as the canonical walk's
    wide and unary alphabet check."""
    n, m = 5, 260
    rotate = tuple((p + 1) % n for p in range(n))
    swap = (1, 0, *range(2, n))
    merge = (0, 0, *range(2, n))
    letters = [rotate, swap] + [tuple(range(n))] * (m - 3) + [merge]
    delta = tuple(tuple(images[p] for images in letters) for p in range(n))
    dfas = [Dfa(n, tuple(f"x{a}" for a in range(m)), delta)]
    dfas += [random_dfa(n, 1, 300 + n) for n in range(1, 21)]
    # A tail 6 -> 7 -> 8 -> 0 into the cycle 0 -> 1 -> ... -> 5 -> 0.
    tail = tuple(((p + 1) % (6 if p < 6 else 9),) for p in range(9))
    dfas.append(Dfa(9, ("a",), tail))
    return dfas


def walk_inputs():
    """(automaton, defect cap): the corpus and the wide and unary automata
    at cap n - 1, then automata of 18 to 65 states.  A uniform draw past 16
    states rarely has a word of defect 2; random_dfa(18, 2, 7123) has 45
    signatures of defect 2 but only 9 pair entries, 5 of them holding
    several states."""
    inputs = [(dfa, max(dfa.n - 1, 0)) for dfa in corpus() + wide_and_unary()]
    inputs += [(cerny(33), 1), (cerny(65), 1), (random_dfa(18, 2, 7123), 2)]
    return inputs


def decoded(walk, k):
    """The walk's defect-k triples with each code decoded to its word."""
    return [(walk.word(c), em, dm) for c, em, dm in walk.signatures_of_defect(k)]


def test_pair_walk_keeps_exactly_the_least_word_of_every_pair():
    multi = 0  # entries holding several duplicate states
    for dfa, cap in walk_inputs():
        walk = CanonicalWordSet(dfa)
        walk.grow(cap)
        whole = shortlex_signatures(dfa, cap)
        least = least_pairs(whole)
        for k in range(cap + 1):
            kept = decoded(walk, k)
            assert kept == least[k], (dfa, k)
            assert len(kept) <= len(whole[k]), (dfa, k)
            first = set()
            for w, em, dm in kept:
                pair = excl_dupl(dfa, w)
                assert pair.excl.mask == em and dm & ~pair.dupl.mask == 0, (dfa, w)
                if em not in first:  # the excl set's least word holds it all
                    first.add(em)
                    assert dm == pair.dupl.mask, (dfa, w)
                multi += dm & (dm - 1) != 0
    assert multi


def graph(n, edges):
    """The graph on n vertices with the given (s, t) edges, as its rows."""
    rows = [0] * n
    for s, t in edges:
        rows[s] |= 1 << t
    return SimpleDigraph(n, rows)


def reference_levels(dfa):
    """Outcome, terminal step and (vertices, forcing items, inherited) per level.

    Levels are built from whole signatures: a defect-k signature (X, D)
    forces an edge from the cluster whose leafage holds X to every other
    cluster whose leafage meets D, the first signature forcing an edge
    giving its word, the targets of one signature taken in vertex order.
    """
    n = dfa.n
    leafages = [1 << q for q in range(n)]
    ids = list(range(n))
    inherited = frozenset()
    levels = []
    k = 1
    while True:
        forcing = {}
        for w, em, dm in shortlex_signatures(dfa, k)[k]:
            for src, outer in enumerate(leafages):
                if em & ~outer:
                    continue
                for dst, inner in enumerate(leafages):
                    if dst != src and dm & inner:
                        forcing.setdefault((src, dst), w)
        levels.append((tuple(ids), list(forcing.items()), inherited))
        edges = inherited | set(forcing)
        part = strongly_connected_components(graph(len(ids), edges))
        leafages = [
            sum(leafages[v] for v in cluster) for cluster in part.clusters
        ]
        ids = list(range(ids[-1] + 1, ids[-1] + 1 + len(leafages)))
        if len(leafages) == 1:
            return SUCCESS, k, levels
        if all(leaf.bit_count() <= k for leaf in leafages):
            return FAILURE, k, levels
        cid = part.cluster_id
        inherited = frozenset(
            (cid[s], cid[t]) for s, t in edges if cid[s] != cid[t]
        )
        k += 1


def test_levels_from_pairs_equal_levels_from_signatures():
    outcomes = set()
    for dfa in corpus():
        result = build_gamma(dfa)
        got = [
            (lv.vertices, list(lv.forcing.items()), lv.inherited)
            for lv in result.levels
        ]
        want = reference_levels(dfa)
        assert (result.outcome, result.terminal_step, got) == want, dfa
        outcomes.add((result.outcome, result.terminal_step > 1))
    assert len(outcomes) == 4  # both answers, at step 1 and deeper
