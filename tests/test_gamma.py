import json
import math
import random

import pytest
from canonical_reference import shortlex_signatures
from test_synchro_reference import cycle_idempotent

from crautomata import (
    CanonicalWordSet,
    Dfa,
    FAILURE,
    SUCCESS,
    StateSet,
    build_gamma,
    cerny,
    decide_complete_reachability,
    e_family,
    fixed_example,
    gamma_to_doc,
    is_cr_bruteforce,
    is_strongly_connected,
    powerset_reach_map,
    preimage_table,
    random_dfa,
    reach_word,
    strongly_connected_components,
    unreachable_witness,
)
from crautomata import gamma as gamma_module
from crautomata.automaton import iter_bits, packed_images


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


def test_witness_refuses_a_hierarchy_of_another_size():
    # The e_family twin's 5-state hierarchy used to give cerny(7) the
    # witness {4, 5, 6}.
    twin = build_gamma(e_family(5, 4, drop_last_b=True))
    for dfa, n in ((cerny(7), 7), (cerny(4), 4)):
        message = f"^the hierarchy was built for 5 states, the automaton has {n}$"
        with pytest.raises(ValueError, match=message):
            unreachable_witness(twin, dfa)
    assert unreachable_witness(twin, e_family(5, 4, drop_last_b=True)) == StateSet([4])


FOREIGN = "^the hierarchy was built for another automaton of the same size$"


def test_readers_refuse_a_hierarchy_of_another_automaton_of_the_same_size():
    # The twin's hierarchy used to give the completely reachable cerny(5)
    # the witness {4}, and a one-letter automaton made gamma_to_doc raise
    # IndexError.
    twin = build_gamma(e_family(5, 4, drop_last_b=True))
    with pytest.raises(ValueError, match=FOREIGN):
        unreachable_witness(twin, cerny(5))
    with pytest.raises(ValueError, match=FOREIGN):
        reach_word(e_family(5, 4), build_gamma(cerny(5)), StateSet([0]))
    for other in (cerny(5), Dfa(5, ("a",), tuple((q,) for q in range(5)))):
        with pytest.raises(ValueError, match=FOREIGN):
            gamma_to_doc(twin, other)
    size = "^the hierarchy was built for 5 states, the automaton has 4$"
    with pytest.raises(ValueError, match=size):
        gamma_to_doc(twin, cerny(4))
    for seed in range(100):
        a, b = random_dfa(6, 2, seed), random_dfa(6, 2, seed + 10000)
        assert a != b
        result = build_gamma(a)
        if result.success:
            with pytest.raises(ValueError, match=FOREIGN):
                reach_word(b, result, StateSet([0]))
        else:
            with pytest.raises(ValueError, match=FOREIGN):
                unreachable_witness(result, b)
        with pytest.raises(ValueError, match=FOREIGN):
            gamma_to_doc(result, b)


def test_readers_accept_an_equal_copy_of_the_automaton():
    for dfa in (e_family(5, 4, drop_last_b=True), cerny(5)):
        copy = Dfa(dfa.n, list(dfa.alphabet), [list(row) for row in dfa.delta])
        assert copy == dfa and copy is not dfa
        result = build_gamma(dfa)
        assert result.dfa is dfa
        assert gamma_to_doc(result, copy) == gamma_to_doc(result, dfa)
        if result.success:
            assert reach_word(copy, result, StateSet([0])) == reach_word(
                dfa, result, StateSet([0])
            )
        else:
            assert unreachable_witness(result, copy) == StateSet([4])


def test_gamma1_edgeless_failure():
    # No defect-1 word exists, so level 1 has no edge and fails at step 1:
    # both letters of the first automaton have defect 2, the second is a
    # permutation, and the last has more states than one machine word.
    dfas = [
        Dfa(4, ("a", "b"), ((0, 1), (0, 1), (0, 1), (0, 1))),
        Dfa(3, ("a",), ((1,), (2,), (0,))),
        random_dfa(8, 2, 1),
        random_dfa(70, 2, 1),
    ]
    for dfa in dfas:
        n = dfa.n
        walk = CanonicalWordSet(dfa)
        walk.grow(1)
        assert walk.signatures_of_defect(1) == []
        result = build_gamma(dfa)
        assert result.outcome == FAILURE and result.terminal_step == 1
        (level,) = result.levels
        assert level.vertices == tuple(range(n)) and level.graph.vertex_count == n
        assert level.graph.edges == frozenset() and level.graph.rows == (0,) * n
        assert level.forcing == {} and level.inherited == frozenset()
        forest = result.forest
        assert forest.level_count == 2
        top = [forest.leafage_mask(nid) for nid in forest.level_nodes(2)]
        assert top == [1 << q for q in range(n)]
        assert [forest.parent_of(q) for q in range(n)] == list(range(n, 2 * n))
        # the complement of the smallest sink, {0}
        witness = unreachable_witness(result, dfa)
        assert witness == StateSet(range(1, n))
        if n <= 12:
            assert powerset_reach_map(dfa).word_for(witness) is None
        else:  # every letter's image misses two states, so every word's does
            assert all(len(set(column)) <= n - 2 for column in zip(*dfa.delta))


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
    e5 = build_gamma(fixed_example("e5")).forest
    assert e5.level_count == 4 and e5.node_count == 11
    assert [e5.level_nodes(k) for k in (1, 2, 3, 4)] == [
        [0, 1, 2, 3, 4], [5, 6, 7], [8, 9], [10]
    ]
    assert [e5.level_of(nid) for nid in range(11)] == [1] * 5 + [2] * 3 + [3] * 2 + [4]
    assert [e5.parent_of(nid) for nid in range(11)] == [
        5, 5, 6, 7, 7, 8, 8, 9, 10, 10, None
    ]
    masks = [[e5.leafage_mask(nid) for nid in e5.level_nodes(k)] for k in (1, 2, 3, 4)]
    assert masks == [
        [0b00001, 0b00010, 0b00100, 0b01000, 0b10000],
        [0b00011, 0b00100, 0b11000],
        [0b00111, 0b11000],
        [0b11111],
    ]
    assert e5.leafage(9) == StateSet([3, 4])
    # With no defect-1 word the forest is the states under n singletons.
    flat = build_gamma(Dfa(3, ("a",), ((1,), (2,), (0,)))).forest
    assert [flat.level_nodes(k) for k in (1, 2)] == [[0, 1, 2], [3, 4, 5]]
    assert [flat.level_of(nid) for nid in range(6)] == [1, 1, 1, 2, 2, 2]
    assert [flat.parent_of(nid) for nid in range(6)] == [3, 4, 5, None, None, None]
    assert [flat.leafage_mask(nid) for nid in range(6)] == [1, 2, 4, 1, 2, 4]
    wide = build_gamma(random_dfa(8, 2, 1)).forest
    for forest, size, levels in ((e5, 11, 4), (flat, 6, 2), (wide, 16, 2)):
        assert forest.node_count == size and forest.level_count == levels
        accessors = (
            forest.parent_of, forest.level_of, forest.leafage_mask, forest.leafage
        )
        for accessor in accessors:
            for nid in (size, size + 5, -1, -size):
                message = f"no node {nid} in a forest of {size}"
                with pytest.raises(IndexError, match=message):
                    accessor(nid)
        for level in (0, levels + 1, -1):
            message = f"no level {level} in a forest of {levels}"
            with pytest.raises(ValueError, match=message):
                forest.level_nodes(level)


def test_forest_refuses_non_integer_nodes_and_levels():
    # 1.5 used to be read as node 1, True as node 1, and 1.0 or 2.0 raised
    # TypeError from list indexing.
    forest = build_gamma(fixed_example("e5")).forest
    accessors = (forest.parent_of, forest.level_of, forest.leafage_mask, forest.leafage)
    for bad in (1.5, 1.0, 2.0, True, False, "1", None):
        for accessor in accessors:
            with pytest.raises(ValueError, match=f"^node index {bad!r} is not an integer$"):
                accessor(bad)
        with pytest.raises(ValueError, match=f"^level {bad!r} is not an integer$"):
            forest.level_nodes(bad)


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
    level = build_gamma(e12).levels[0]
    first = {}  # each edge's shortlex-least defect-1 word, in that order
    for w, em, dm in shortlex_signatures(e12, 1)[1]:
        first.setdefault((em.bit_length() - 1, dm.bit_length() - 1), w)
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
        first = forcing.get(edges[0])  # one decode for a present edge
        assert len(decodes) == read + 1
        read += 1
        items = list(forcing.items())  # one decode per item
        assert len(decodes) == read + len(items)
        assert [edge for edge, _ in items] == edges
        assert first == items[0][1]
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
    # shortest, then shortlex-least, forcing word.  A level's edges are its
    # inherited and forced edges.
    for dfa in hierarchy_corpus():
        for level in build_gamma(dfa).levels:
            assert level.graph.edges == level.inherited | set(level.forcing)
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


def block_family(h):
    """B_h: states 0..2h-1 in blocks A = {0..h-1} and B = {h..2h-1}.  c
    rotates each block, t swaps 0 <-> 1 and h <-> h+1, s maps q to q + h
    mod 2h, and a sends 0 to 1 and fixes every other state.  No word
    extends B, though its permutations make many preimage tuples of B."""
    n = 2 * h
    swap = {0: 1, 1: 0, h: h + 1, h + 1: h}
    delta = [
        (q // h * h + (q + 1) % h, swap.get(q, q), (q + h) % n, 1 if q == 0 else q)
        for q in range(n)
    ]
    return Dfa(n, ("c", "t", "s", "a"), delta)


def settle_corpus():
    """Every shape the edgeless stops meet or must not meet: random draws
    with one to three letters and 1 <= n <= 10, every cycle + idempotent
    member with 4 <= n <= 14, the E family and its twins with n <= 11, the
    Cerny automata with n <= 19, and B_h with h <= 7."""
    rng = random.Random(27)
    dfas = [
        random_dfa(n, m, seed)
        for n in range(1, 11)
        for m in range(1, 4)
        for seed in range(60)
    ]
    dfas += [cycle_idempotent(n, d, rng) for n in range(4, 15) for d in range(1, n)]
    for n in range(3, 12):
        dfas += [e_family(n, k) for k in range(2, n)]
        dfas.append(e_family(n, n - 1, drop_last_b=True))
    dfas += [cerny(n) for n in range(2, 20)]
    dfas += [block_family(h) for h in range(2, 8)]
    return dfas


def hierarchy_bytes(dfa):
    result = build_gamma(dfa)
    witness = None if result.success else unreachable_witness(result, dfa)
    return gamma_to_doc(result, dfa), witness, result.terminal_step


def test_edgeless_stop_keeps_the_hierarchy_byte_for_byte(monkeypatch):
    # An automaton with no letter of defect 1 ends the run before the walk,
    # and a level whose condensation has no edge ends it once no word
    # extends the complement of any cluster's leafage.  The same automata
    # walked to the end, with neither stop taken and every search answering
    # "unknown", must give the same documents, witnesses and terminal steps.
    dfas = settle_corpus()
    walked_before_stop = {}  # id(dfa) -> levels built before _settle_edgeless
    settle = gamma_module._settle_edgeless

    def spy(dfa, forest, levels):
        walked_before_stop[id(dfa)] = len(levels)
        return settle(dfa, forest, levels)

    monkeypatch.setattr(gamma_module, "_settle_edgeless", spy)
    shortcut = [hierarchy_bytes(dfa) for dfa in dfas]
    stops = [walked_before_stop.get(id(dfa)) for dfa in dfas]
    walked_before_stop.clear()
    monkeypatch.setattr(gamma_module, "_has_defect_one_letter", lambda dfa: True)
    monkeypatch.setattr(gamma_module, "_extension_search", lambda dfa, s: None)
    walked = [hierarchy_bytes(dfa) for dfa in dfas]
    assert not walked_before_stop
    for dfa, short, full in zip(dfas, shortcut, walked):
        assert json.dumps(short[0]) == json.dumps(full[0]), dfa
        assert short[1:] == full[1:], dfa
    # Not vacuous: many draws stop before the walk, and random draws and
    # deep cycle members stop at an edgeless level, some of them several
    # levels before their terminal step.
    before_walk = [full[2] for stop, full in zip(stops, walked) if stop == 0]
    assert len(before_walk) > 100 and set(before_walk) == {1}
    steps = [full[2] for stop, full in zip(stops, walked) if stop]
    assert len(steps) > 30 and max(steps) == 7


def small_corpus():
    rng = random.Random(28)
    dfas = [
        random_dfa(n, m, seed)
        for n in range(2, 8)
        for m in range(1, 4)
        for seed in range(25)
    ]
    dfas += [cycle_idempotent(n, d, rng) for n in range(2, 8) for d in range(1, n)]
    for n in range(3, 8):
        dfas += [e_family(n, k) for k in range(2, n)]
        dfas.append(e_family(n, n - 1, drop_last_b=True))
    dfas += [cerny(n) for n in range(2, 8)]
    return dfas


def test_extension_search_is_sound_against_the_oracle():
    # "none" is a proof that the set is unreachable: a reachable proper set
    # Q·u is extended by u.  So no completely reachable automaton has a set
    # without an extending word.
    answers = {True: 0, False: 0, None: 0}
    for dfa in small_corpus():
        reach = powerset_reach_map(dfa)
        cr = is_cr_bruteforce(dfa)
        for s in range(1, (1 << dfa.n) - 1):
            answer = gamma_module._extension_search(dfa, s)
            answers[answer] += 1
            if answer is False:
                assert reach.word_for(StateSet.from_mask(s)) is None, (dfa, s)
                assert not cr
    assert answers[True] > 1000 and answers[False] > 1000


def _extension_search_tuples(dfa, s):
    """The tuple search that the set search replaced, with no cap.

    It is breadth-first over the tuples (q·w^-1 for q in S), dropping a
    tuple with an empty block and answering True at one with a two-state
    block.  It always ends: there are finitely many tuples of states.
    """
    none, many = -2, -1  # ``min`` of a tuple sees an empty block first
    single = [
        tuple(
            none if not pre else many if pre & (pre - 1) else pre.bit_length() - 1
            for pre in column
        )
        for column in preimage_table(dfa)
    ]
    queue = [tuple(iter_bits(s))]
    seen = set(queue)
    for blocks in queue:  # grows while it is read
        for column in single:
            t = tuple(map(column.__getitem__, blocks))
            low = min(t)
            if low == many:
                return True
            if low != none and t not in seen:
                seen.add(t)
                queue.append(t)
    return False


def test_extension_search_matches_tuple_version():
    # The set search answers what the tuple search answers on every
    # non-empty proper subset, and never stops at its cap on these inputs.
    answers = {True: 0, False: 0}
    for dfa in small_corpus():
        for s in range(1, (1 << dfa.n) - 1):
            want = _extension_search_tuples(dfa, s)
            assert gamma_module._extension_search(dfa, s) is want, (dfa, s)
            answers[want] += 1
    assert answers[True] > 1000 and answers[False] > 1000


def test_extension_search_at_its_cap_answers_unknown(monkeypatch):
    monkeypatch.setattr(gamma_module, "_SEARCH_CAP", 0)
    for dfa in small_corpus()[::7]:
        for s in range(1, (1 << dfa.n) - 1):
            assert gamma_module._extension_search(dfa, s) is None


def cycle_member(n, d):
    """b is the n-cycle q -> q + 1 and a sends 0 to d, fixing every other state."""
    return Dfa(n, ("a", "b"), tuple((d if q == 0 else q, (q + 1) % n) for q in range(n)))


@pytest.mark.parametrize("n, d", [(30, 5), (48, 12), (96, 24), (192, 48)])
def test_cycle_members_past_the_oracle_settle_at_step_n_over_g(n, d):
    # b is the n-cycle q -> q + 1 and a sends 0 to d: gcd(n, d) = g level-1
    # clusters of n/g states, the residue classes mod g, and no edge between
    # them.  Walking defects 2 to n/g took 134 s and 3.56 GB at (30, 5).
    dfa = cycle_member(n, d)
    g = math.gcd(n, d)
    result = build_gamma(dfa)
    assert result.outcome == FAILURE and result.terminal_step == n // g
    assert result.forest.level_count == n // g + 1
    assert not any(row for level in result.levels[1:] for row in level.graph.rows)
    witness = unreachable_witness(result, dfa)
    assert witness == StateSet(q for q in range(n) if q % g)
    assert gamma_module._extension_search(dfa, witness.mask) is False


@pytest.mark.parametrize("h", range(2, 11))
def test_block_family_fails_at_step_h_with_a_certified_witness(h):
    dfa = block_family(h)
    result = build_gamma(dfa)
    assert result.outcome == FAILURE and result.terminal_step == h
    witness = unreachable_witness(result, dfa)
    assert witness == StateSet(range(h, 2 * h))
    assert gamma_module._extension_search(dfa, witness.mask) is False
    if h <= 5:
        assert powerset_reach_map(dfa).word_for(witness) is None


@pytest.mark.parametrize("h", range(7, 11))
def test_block_family_settles_at_an_edgeless_level(h, monkeypatch):
    # A tuple search expands 2·h! preimage tuples of B, past its cap from
    # h = 7 on; the set search expands two sets.  So the run settles after
    # level 1 instead of walking every defect to step h.
    settled = []
    settle = gamma_module._settle_edgeless

    def spy(dfa, forest, levels):
        settled.append(len(levels))
        return settle(dfa, forest, levels)

    monkeypatch.setattr(gamma_module, "_settle_edgeless", spy)
    result = build_gamma(block_family(h))
    assert result.terminal_step == h
    assert settled == [1]


def test_stop_before_the_walk_is_sound(monkeypatch):
    # A completely reachable automaton reaches an (n-1)-set Q·w, so w has
    # defect 1, and some letter of w has defect 1: a word's defect is at
    # least each of its letters', and a word of permutations has defect 0.
    # So every automaton stopped before the walk is not completely reachable.
    stopped = []
    has_one = gamma_module._has_defect_one_letter

    def spy(dfa):
        answer = has_one(dfa)
        if not answer:
            stopped.append(dfa)
        return answer

    monkeypatch.setattr(gamma_module, "_has_defect_one_letter", spy)
    corpus = small_corpus() + [dfa for dfa in settle_corpus() if dfa.n <= 8]
    for dfa in corpus:
        build_gamma(dfa)
        if dfa.n > 1 and is_cr_bruteforce(dfa):
            assert has_one(dfa), dfa
    assert len(stopped) > 100
    for dfa in stopped:
        assert dfa.n >= 2 and not is_cr_bruteforce(dfa), dfa
    # One state: no letter has defect 1, and the run stays SUCCESS at step 1.
    for m in (1, 2, 3):
        dfa = random_dfa(1, m, m)
        result = build_gamma(dfa)
        assert result.outcome == SUCCESS and result.terminal_step == 1


def test_the_decision_fills_no_image_table():
    # The edgeless stop's search reads Q's images off the letter columns and
    # steps backwards, and the walk builds its own rows, so neither the
    # decision nor the witness fills the forward image table.  The cycle
    # member and B_8 reach the search; e5 succeeds and the twin fails by the
    # leafage test.
    dfas = [
        cycle_member(30, 5),
        block_family(8),
        fixed_example("e5"),
        e_family(6, 5, drop_last_b=True),
    ]
    for dfa in dfas:
        packed_images.cache_clear()
        result = build_gamma(dfa)
        if not result.success:
            unreachable_witness(result, dfa)
        assert packed_images.cache_info().currsize == 0, dfa


def test_failure_ends_at_the_largest_top_leafage(monkeypatch):
    # Before the walk, at an edgeless level, and by the paper's leafage test
    # alike, FAILURE comes at the step of the largest leafage on the
    # forest's top level, and the witness is the complement of one of them.
    # The leafage test stops at k with every leafage at most k, and one was
    # at least k a step earlier, so the largest is exactly k.
    routes = []
    settle = gamma_module._settle_edgeless

    def spy(dfa, forest, levels):
        routes[-1] = "before walk" if not levels else "edgeless"
        return settle(dfa, forest, levels)

    monkeypatch.setattr(gamma_module, "_settle_edgeless", spy)
    for dfa in settle_corpus():
        routes.append("leafage test")
        result = build_gamma(dfa)
        if result.success:
            routes.pop()
            continue
        forest = result.forest
        top = [forest.leafage_mask(c) for c in forest.level_nodes(forest.level_count)]
        assert result.terminal_step == max(map(int.bit_count, top)), dfa
        full = (1 << dfa.n) - 1
        assert full ^ unreachable_witness(result, dfa).mask in top, dfa
    counts = {route: routes.count(route) for route in set(routes)}
    assert set(counts) == {"before walk", "edgeless", "leafage test"}, counts
    assert min(counts.values()) > 10, counts


def test_results_compare_by_value_and_show_no_address():
    stop_path = random_dfa(8, 2, 1)  # no letter of defect 1
    assert not gamma_module._has_defect_one_letter(stop_path)
    builds = []
    for dfa in (fixed_example("e5"), e_family(5, 4, drop_last_b=True), stop_path):
        first, second = build_gamma(dfa), build_gamma(Dfa(dfa.n, dfa.alphabet, dfa.delta))
        assert first == second and first.forest == second.forest
        assert repr(first) == repr(second) and " at 0x" not in repr(first)
        builds.append(first)
    e5, twin, stopped = builds
    assert e5 != twin and e5.forest != twin.forest != stopped.forest
    assert repr(e5.forest) == (
        "ClusterForest(starts=[0, 5, 8, 10, 11], "
        "parent=[5, 5, 6, 7, 7, 8, 8, 9, 10, 10, None], "
        "leafage=[1, 2, 4, 8, 16, 3, 4, 24, 7, 24, 31])"
    )
