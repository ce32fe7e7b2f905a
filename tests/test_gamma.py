import random

import pytest
from test_synchro_reference import cycle_idempotent

from crautomata import (
    ClusterForest,
    Dfa,
    FAILURE,
    SUCCESS,
    StateSet,
    build_gamma,
    cerny,
    decide_complete_reachability,
    e_family,
    fixed_example,
    is_cr_bruteforce,
    is_strongly_connected,
    powerset_reach_map,
    random_dfa,
    strongly_connected_components,
    unreachable_witness,
)
from crautomata.canonical import CanonicalWordSet


def leafages_at(result, level):
    return [
        sorted(result.forest.leafage(nid))
        for nid in result.levels[level - 1].vertices
    ]


def test_e5_levels_exact():
    e5 = fixed_example("e5")
    result = build_gamma(e5)
    assert result.outcome == SUCCESS and result.terminal_step == 3
    lv1, lv2, lv3 = result.levels
    assert lv1.graph.edges == frozenset({(0, 1), (1, 0), (2, 0), (3, 4), (4, 3)})
    assert leafages_at(result, 2) == [[0, 1], [2], [3, 4]]
    assert lv2.graph.edges == frozenset({(0, 1), (1, 0), (2, 0), (2, 1)})
    assert lv2.inherited == frozenset({(1, 0)})
    assert set(lv2.forcing) == {(0, 1), (2, 0), (2, 1)}
    assert is_strongly_connected(lv3.graph)


def test_e5_forcing_words():
    e5 = fixed_example("e5")
    result = build_gamma(e5)
    lv2 = result.levels[1]
    names = e5.alphabet
    words = {edge: names[w[0]] for edge, w in lv2.forcing.items() if len(w) == 1}
    assert words == {(0, 1): "a[1,2]", (2, 0): "a[4,5]", (2, 1): "a[4,5]"}
    lv3 = result.levels[2]
    assert lv3.forcing == {(0, 1): (7,)}  # a[1,3]
    assert lv3.inherited == frozenset({(1, 0)})


def test_e5_forest_shape():
    result = build_gamma(fixed_example("e5"))
    forest = result.forest
    assert forest.node_count == 11  # 5 + 3 + 2 + 1
    assert forest.level_count == 4
    assert len(forest.level_nodes(4)) == 1
    root = forest.level_nodes(4)[0]
    assert forest.leafage(root) == StateSet.full(5)
    assert forest.parent_of(root) is None
    for level in range(1, 5):
        masks = [forest.leafage_mask(nid) for nid in forest.level_nodes(level)]
        union = 0
        for mask in masks:
            assert union & mask == 0
            union |= mask
        assert union == 0b11111
    for nid in range(forest.node_count):
        children = [c for c in range(forest.node_count) if forest.parent_of(c) == nid]
        if children:
            combined = 0
            for child in children:
                assert forest.parent_of(child) == nid
                combined |= forest.leafage_mask(child)
            assert combined == forest.leafage_mask(nid)


def test_cerny_success_at_step_one():
    for n in range(2, 9):
        ok, result = decide_complete_reachability(cerny(n))
        assert ok and result.terminal_step == 1
        assert len(result.levels[0].graph.edges) == n * (n - 1)


def test_e12_clusters_and_success():
    e12 = fixed_example("e12")
    result = build_gamma(e12)
    assert result.outcome == SUCCESS and result.terminal_step == 2
    part = strongly_connected_components(result.levels[0].graph)
    assert set(part.clusters) == {tuple(range(0, 12, 2)), tuple(range(1, 12, 2))}
    # the 12 hand-derived edges are present (the full set is larger)
    expected = {(k, (10 + k) % 12) for k in range(12)}
    assert expected <= result.levels[0].graph.edges


def test_e_family_terminates_at_k():
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 4)):
        result = build_gamma(e_family(n, k))
        assert result.outcome == SUCCESS and result.terminal_step == k, (n, k)


def test_e_family_gamma1_condensation_star():
    # level-1 clusters: the bottom block plus singletons, edges into the block;
    # level 2 inherits exactly that condensation
    d = e_family(6, 4)  # l = 3
    result = build_gamma(d)
    part = strongly_connected_components(result.levels[0].graph)
    assert set(part.clusters) == {(0, 1, 2), (3,), (4,), (5,)}
    block = part.clusters.index((0, 1, 2))
    assert result.levels[1].inherited == {
        (part.clusters.index((j,)), block) for j in (3, 4, 5)
    }


def test_dropped_letter_family_fails():
    for n in (4, 5, 6):
        bad = e_family(n, n - 1, drop_last_b=True)
        ok, result = decide_complete_reachability(bad)
        assert not ok
        assert result.outcome == FAILURE and result.terminal_step == n - 1
        witness = unreachable_witness(result, bad)
        assert witness == StateSet([n - 1])


def test_witness_is_oracle_unreachable():
    bad = e_family(5, 4, drop_last_b=True)
    result = build_gamma(bad)
    witness = unreachable_witness(result, bad)
    reach = powerset_reach_map(bad)
    assert reach.word_for(witness) is None


@pytest.mark.parametrize(
    "n, m, seed, step, witness",
    [
        (3, 2, 4, 1, [0, 2]),
        (4, 2, 42, 2, [0, 2, 3]),
        (5, 2, 10, 2, [0, 2, 3, 4]),  # three sink clusters
    ],
)
def test_witness_sink_is_not_always_the_first_cluster(n, m, seed, step, witness):
    # The chosen sink is the one whose lowest state is smallest, which here
    # is not the first SCC Tarjan completes on the last level.
    d = random_dfa(n, m, seed)
    result = build_gamma(d)
    assert result.outcome == FAILURE and result.terminal_step == step
    got = unreachable_witness(result, d)
    assert got == StateSet(witness)
    assert powerset_reach_map(d).word_for(got) is None


def test_witness_usage_error_on_success():
    e5 = fixed_example("e5")
    result = build_gamma(e5)
    with pytest.raises(ValueError):
        unreachable_witness(result, e5)


def test_gamma1_edgeless_failure():
    # both letters have defect 2: no defect-1 word exists, failure at step 1
    d = Dfa(4, ("a", "b"), ((0, 1), (0, 1), (0, 1), (0, 1)))
    result = build_gamma(d)
    assert result.outcome == FAILURE and result.terminal_step == 1
    assert result.levels[0].graph.edges == frozenset()
    witness = unreachable_witness(result, d)
    assert witness == StateSet([1, 2, 3])  # complement of the smallest sink


def test_single_state_automaton():
    for alphabet, row in ((("a",), (0,)), (("a", "b"), (0, 0))):
        d = Dfa(1, alphabet, (row,))
        ok, result = decide_complete_reachability(d)
        assert ok and result.outcome == SUCCESS
        assert result.terminal_step == 1
        (level,) = result.levels
        assert level.level == 1 and level.vertices == (0,)
        assert level.graph.vertex_count == 1
        assert level.graph.edges == frozenset()
        assert level.forcing == {} and level.inherited == frozenset()
        forest = result.forest
        assert forest.node_count == 2 and forest.level_count == 2
        assert forest.level_nodes(1) == [0] and forest.level_nodes(2) == [1]
        assert forest.parent_of(0) == 1 and forest.parent_of(1) is None
        assert [c for c in range(2) if forest.parent_of(c) == 1] == [0]
        assert forest.leafage_mask(0) == forest.leafage_mask(1) == 1


def test_forest_levels_and_their_guards():
    forest = ClusterForest(3)
    assert forest.add_level([[2], [0, 1]]) == [3, 4]
    assert forest.add_level([[4, 3]]) == [5]
    assert forest.level_count == 3 and forest.node_count == 6
    assert [forest.level_nodes(k) for k in (1, 2, 3)] == [[0, 1, 2], [3, 4], [5]]
    assert [forest.level_of(nid) for nid in range(6)] == [1, 1, 1, 2, 2, 3]
    assert [forest.parent_of(nid) for nid in range(6)] == [4, 4, 3, 5, 5, None]
    assert forest.leafage_mask(4) == 0b011 and forest.leafage_mask(5) == 0b111
    masks = [forest.leafage_masks(k) for k in (1, 2, 3)]
    assert masks == [(0b001, 0b010, 0b100), (0b100, 0b011), (0b111,)]
    accessors = (
        forest.parent_of, forest.level_of, forest.leafage_mask, forest.leafage
    )
    for accessor in accessors:
        for nid in (6, -1, -6):
            with pytest.raises(IndexError):
                accessor(nid)
    e5 = build_gamma(fixed_example("e5")).forest
    for accessor in (e5.parent_of, e5.level_of, e5.leafage_mask, e5.leafage):
        with pytest.raises(IndexError, match="no node -1 in a forest of 11"):
            accessor(-1)
        with pytest.raises(IndexError, match="no node 11 in a forest of 11"):
            accessor(11)
    for level in (0, 4):
        for accessor in (forest.level_nodes, forest.leafage_masks):
            with pytest.raises(ValueError, match=f"no level {level} in a forest of 3"):
                accessor(level)
    for groups in ([], [[5], [5]], [[4]]):
        with pytest.raises(ValueError, match="partition the current top level"):
            forest.add_level(groups)
    assert forest.level_count == 3 and forest.node_count == 6


def test_permutation_automaton_fails_immediately():
    rot = Dfa(3, ("a",), ((1,), (2,), (0,)))
    ok, result = decide_complete_reachability(rot)
    assert not ok and result.terminal_step == 1


def test_idle_levels_are_crossed():
    # E_{7,3} needs steps 1, 2, 3; nothing new happens at step 2 in the
    # condensation yet the loop must keep going
    result = build_gamma(e_family(7, 3))
    assert result.outcome == SUCCESS and result.terminal_step == 3


def test_terminal_step_bounded():
    for seed in range(100):
        d = random_dfa(2 + seed % 6, 1 + seed % 3, 7000 + seed)
        result = build_gamma(d)
        assert 1 <= result.terminal_step <= max(1, d.n - 1)
        assert result.outcome in (SUCCESS, FAILURE)


def test_build_gamma1_matches_defect1_signatures():
    e12 = fixed_example("e12")
    cws = CanonicalWordSet(e12)
    cws.grow(1)
    level = build_gamma(e12).levels[0]
    first = {}  # each edge's shortlex-least defect-1 word, in that order
    for code, em, dm in cws.signatures_of_defect(1):
        first.setdefault((em.bit_length() - 1, dm.bit_length() - 1), cws.word(code))
    assert level.graph.edges == frozenset(first)
    assert list(level.forcing.items()) == list(first.items())
    assert level.inherited == frozenset()


def test_forcing_builds_a_word_only_when_read(decodes):
    failing = e_family(8, 7, drop_last_b=True)
    result = build_gamma(failing)
    unreachable_witness(result, failing)
    result = build_gamma(fixed_example("e12"))
    assert decodes == []
    read = 0
    for level in result.levels:
        forest = result.forest
        assert level.leafage == tuple(map(forest.leafage_mask, level.vertices))
        forcing = level.forcing
        edges = list(forcing)
        assert len(forcing) == len(edges) > 0
        assert all(edge in forcing for edge in edges)
        assert (0, 0) not in forcing and forcing.get((0, 0)) is None
        assert len(decodes) == read
        items = list(forcing.items())  # one decode per item
        assert len(decodes) == read + len(items)
        assert [edge for edge, _ in items] == edges
        assert forcing == dict(items)
        assert repr(forcing) == f"ForcingWords({dict(items)!r})"
        read = len(decodes)


def test_decision_matches_oracle_on_random_sample():
    for seed in range(150):
        d = random_dfa(3 + seed % 5, 1 + seed % 3, seed)
        got, _ = decide_complete_reachability(d)
        assert got == is_cr_bruteforce(d), seed


def hierarchy_corpus():
    """Shallow and deep hierarchies of both outcomes: random draws, Cerny
    automata, every E family member with n <= 10 and its failing twin, and
    cycle + idempotent members."""
    rng = random.Random(15)
    dfas = [
        random_dfa(rng.randint(2, 9), rng.randint(1, 3), 20000 + i) for i in range(400)
    ]
    dfas += [cerny(n) for n in (*range(2, 12), 33)]
    for n in range(3, 11):
        dfas += [e_family(n, k) for k in range(2, n)]
        dfas.append(e_family(n, n - 1, drop_last_b=True))
    dfas += [cycle_idempotent(n, d, rng) for n in range(2, 12) for d in range(1, n)]
    return dfas


def test_forcing_is_in_word_order():
    # reach_word takes a level's first penetrating entry as the one with the
    # shortest, then shortlex-least, forcing word.
    for dfa in hierarchy_corpus():
        for level in build_gamma(dfa).levels:
            items = list(level.forcing.items())
            assert items == sorted(items, key=lambda it: (len(it[1]), it[1], it[0]))


def test_least_penetrating_level_forces_all_its_penetrating_edges():
    # The witness docstring's argument: an inherited edge penetrating the
    # target at level L implies a penetrating edge at level L - 1.
    rng = random.Random(16)
    checked = 0
    for dfa in hierarchy_corpus():
        result = build_gamma(dfa)
        full = (1 << dfa.n) - 1
        if dfa.n <= 6:
            targets = range(1, full)
        else:
            targets = [rng.randrange(1, full) for _ in range(20)]
        for target in targets:
            out = full & ~target
            for level in result.levels:
                leaf = [result.forest.leafage_mask(nid) for nid in level.vertices]
                penetrating = {
                    (s, t)
                    for s, t in level.graph.edges
                    if leaf[s] & out and not leaf[t] & out
                }
                if penetrating:
                    assert penetrating <= level.forcing.keys()
                    checked += 1
                    break
            else:
                # On SUCCESS every proper target has a penetrating edge.
                assert not result.success
    assert checked > 3000
