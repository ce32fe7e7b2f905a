import random

import pytest

from crautomata import (
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
from crautomata.automaton import (
    packed_images,
    packed_preimages,
    shortlex_key,
    step_all,
)
from crautomata.generators import cerny, fixed_example, random_dfa


def test_state_set_basics():
    s = StateSet([3, 0, 3])
    assert list(s) == [0, 3]
    assert len(s) == 2
    assert 0 in s and 3 in s and 1 not in s
    assert s.mask == 0b1001
    assert StateSet.from_mask(0b1001) == s
    assert StateSet.full(3) == StateSet([0, 1, 2])
    assert not StateSet()
    assert repr(s) == "StateSet({0, 3})"


def test_state_set_membership_answers_as_a_frozenset():
    import numpy as np

    s = StateSet([0, 1, 3])
    probes = [
        0, 1, 2, 3, 4, -1, 2**70,
        True, False,
        0.0, -0.0, 1.0, 1.5, 3.0, -1.0, 1e30, float("inf"), float("nan"),
        "1", "a", "", None,
        np.int64(3), np.int64(2), np.float64(1.0), np.float64(0.5),
    ]
    for q in probes:
        assert (q in s) is (q in frozenset(s)), q


def test_state_set_algebra():
    a = StateSet([0, 1, 2])
    assert StateSet([1]).issubset(a)
    assert StateSet([4]).isdisjoint(a)
    assert hash(a) == hash(StateSet([0, 1, 2]))


def test_state_set_immutable_and_validated():
    s = StateSet([1])
    with pytest.raises(AttributeError):
        s.mask = 5
    with pytest.raises(ValueError):
        StateSet([-1])
    for q in (1.5, True):
        with pytest.raises(ValueError, match=f"state index {q} is not an integer"):
            StateSet([q])
    with pytest.raises(ValueError, match="non-negative"):
        StateSet.from_mask(-1)


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(0, ("a",), ())
    with pytest.raises(ValueError):
        Dfa(1, (), ((),))
    with pytest.raises(ValueError):
        Dfa(1, ("a", "a"), ((0, 0),))
    with pytest.raises(ValueError):
        Dfa(2, ("a",), ((0,),))  # missing row
    with pytest.raises(ValueError):
        Dfa(2, ("a",), ((0,), (2,)))  # out-of-range target
    with pytest.raises(ValueError, match="non-empty"):
        Dfa(1, ("",), ((0,),))
    with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
        Dfa(2, ("a", "b"), ((0, 1), (0,)))
    for n, alphabet, delta in (
        (2.0, ("a",), ((1,), (0,))),
        (True, ("a",), ((0,),)),
        (2, "a", ((1,), (0,))),
        (2, (1,), ((1,), (0,))),
        (2, ("a",), (1, 0)),
        (2, ("a",), ("1", "0")),
        (2, ("a",), ((1.0,), (0,))),
        (2, ("a",), ((True,), (0,))),
    ):
        with pytest.raises(ValueError):
            Dfa(n, alphabet, delta)
    d = Dfa(2, ("a",), ((1,), (0,)))
    assert d.m == 1
    assert d.states() == StateSet([0, 1])


def test_apply_word_on_fixtures():
    e5 = fixed_example("e5")
    full = e5.states()
    # letter a[1,3] maps the full set onto the two top states
    a13 = (7,)
    assert apply_word(e5, full, a13) == StateSet([3, 4])
    assert apply_word(e5, full, ()) == full
    c4 = cerny(4)
    assert apply_word(c4, c4.states(), (0, 1)) == StateSet([0, 2, 3])


def test_apply_word_errors():
    c4 = cerny(4)
    with pytest.raises(ValueError):
        apply_word(c4, StateSet(), (0,))
    with pytest.raises(ValueError):
        apply_word(c4, StateSet([7]), (0,))
    with pytest.raises(ValueError):
        apply_word(c4, c4.states(), (5,))
    c3 = cerny(3)
    for letter in (1.0, True):
        with pytest.raises(ValueError, match=f"letter index {letter} is not an int"):
            apply_word(c3, StateSet([0, 1]), (letter,))


def test_transformation_of():
    e5 = fixed_example("e5")
    assert transformation_of(e5, (6,)) == (0, 0, 1, 2, 2)  # a[4,5]
    assert transformation_of(e5, ()) == (0, 1, 2, 3, 4)
    e12 = fixed_example("e12")
    assert transformation_of(e12, (0,)) == (10, 1, 2, 8, 4, 3, 10, 9, 5, 7, 6, 11)


def test_defect():
    e5 = fixed_example("e5")
    assert defect(e5, (6,)) == 2  # a[4,5] image has three states
    assert defect(e5, ()) == 0
    c5 = cerny(5)
    assert defect(c5, (1,)) == 0  # b is a permutation
    assert defect(c5, (0,)) == 1


def test_excl_dupl_fixtures():
    e12 = fixed_example("e12")
    pair = excl_dupl(e12, (0,))
    assert pair.excl == StateSet([0]) and pair.dupl == StateSet([10])
    assert excl_dupl(e12, ()).excl == StateSet()
    e5 = fixed_example("e5")
    pair = excl_dupl(e5, (7,))  # a[1,3]
    assert pair.excl == StateSet([0, 1, 2])
    assert pair.dupl == StateSet([3, 4])
    assert pair.defect == 3


def test_excl_dupl_pair_invariants():
    with pytest.raises(ValueError):
        ExclDuplPair(StateSet([0]), StateSet([0]))
    with pytest.raises(ValueError):
        ExclDuplPair(StateSet([0]), StateSet())
    pair = ExclDuplPair(StateSet(), StateSet())
    assert pair.defect == 0
    assert pair.key() == (0, 0)


def test_preimage_table():
    ff = fixed_example("flipflop")
    table = preimage_table(ff)
    assert table[0][0] == StateSet([0, 1]).mask
    assert table[0][1] == 0
    e5 = fixed_example("e5")
    t5 = preimage_table(e5)
    # letter a[1]: both bottom states merge onto state 1, state 0 is excluded
    assert t5[0][1] == StateSet([0, 1]).mask
    assert t5[0][0] == 0
    for a in range(e5.m):
        union = 0
        total = 0
        for q in range(e5.n):
            mask = t5[a][q]
            assert union & mask == 0  # pairwise disjoint
            union |= mask
            total += mask.bit_count()
        assert union == (1 << e5.n) - 1 and total == e5.n


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 24, 25])
def test_packed_tables_match_per_state_steps(n, m):
    dfa = random_dfa(n, m, 100 * n + m)
    forward, backward = packed_images(dfa), packed_preimages(dfa)
    sizes = [2 ** min(8, n - c) for c in range(0, n, 8)]
    assert [len(t) for t in forward] == [len(t) for t in backward] == sizes
    full = (1 << n) - 1
    last = (n - 1) // 8 * 8  # first state of the last chunk
    rng = random.Random(n * m)
    masks = [0, full] + [1 << q for q in range(n)]
    masks += [rng.getrandbits(n) for _ in range(20)]
    masks += [rng.randrange(1, 1 << n - last) << last for _ in range(5)]
    for mask in masks:
        images, preimages = step_all(forward, mask), step_all(backward, mask)
        assert images >> m * n == preimages >> m * n == 0
        members = [p for p in range(n) if mask >> p & 1]
        for a in range(m):
            image = sum({1 << dfa.delta[p][a] for p in members})
            preimage = sum(1 << p for p in range(n) if mask >> dfa.delta[p][a] & 1)
            assert images >> a * n & full == image
            assert preimages >> a * n & full == preimage


def test_extend_excl_dupl_walk():
    # walk a b^10 a (then one more b) letter by letter, never re-simulating
    e12 = fixed_example("e12")
    table = preimage_table(e12)
    pair = excl_dupl(e12, ())
    word = (0,) + (1,) * 10 + (0,)
    for a in word:
        pair = extend_excl_dupl(pair, e12, a, table)
    assert pair.excl == StateSet([0, 6])
    assert pair.dupl == StateSet([5, 10])
    pair = extend_excl_dupl(pair, e12, 1, table)
    assert pair.excl == StateSet([1, 7])
    assert pair.dupl == StateSet([6, 11])


def test_extend_excl_dupl_permutation_keeps_empty():
    c5 = cerny(5)
    table = preimage_table(c5)
    empty = excl_dupl(c5, ())
    assert extend_excl_dupl(empty, c5, 1, table) == empty
    with pytest.raises(ValueError):
        extend_excl_dupl(empty, c5, 9, table)


def test_shortlex_key():
    words = [(1,), (0, 1), (), (0,), (1, 0)]
    assert sorted(words, key=shortlex_key) == [(), (0,), (1,), (0, 1), (1, 0)]
