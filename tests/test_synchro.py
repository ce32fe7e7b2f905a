import pytest

from crautomata import (
    Dfa,
    StateSet,
    apply_word,
    avoiding_length_bound,
    avoiding_word,
    cerny,
    cerny_bound,
    check_two_letter_properties,
    compress_length_bound,
    compress_word,
    cubic_reset_bound,
    fixed_example,
    halving_length_bound,
    halving_word,
    random_dfa,
    reset_threshold_exact,
    reset_word,
)


def test_bound_formulas_frozen():
    assert [cerny_bound(n) for n in range(2, 9)] == [1, 4, 9, 16, 25, 36, 49]
    assert [cubic_reset_bound(n) for n in range(2, 9)] == [1, 4, 11, 21, 38, 58, 89]
    assert [halving_length_bound(n) for n in range(2, 9)] == [1, 4, 5, 11, 13, 22, 25]
    assert avoiding_length_bound(6) == 6
    assert compress_length_bound(6, 3) == 10
    assert compress_length_bound(6, 2) == 15
    assert compress_length_bound(6, 6) == 1
    with pytest.raises(ValueError):
        compress_length_bound(6, 1)
    with pytest.raises(ValueError):
        compress_length_bound(6, 7)
    for bound in (
        cerny_bound, cubic_reset_bound, avoiding_length_bound, halving_length_bound
    ):
        with pytest.raises(ValueError, match="state count must be at least 1, got 0"):
            bound(0)
    # The state count is checked before the subset size, as in the bounds above.
    with pytest.raises(ValueError, match="state count must be at least 1, got 0"):
        compress_length_bound(0, 2)
    with pytest.raises(ValueError, match="subset size 2 out of range 2..1"):
        compress_length_bound(1, 2)


def test_cubic_grows_slower_than_cerny_eventually():
    assert cubic_reset_bound(100) > cerny_bound(100)  # cubic term dominates
    assert cubic_reset_bound(4) > cerny_bound(4)


def test_avoiding_word_fixtures():
    flip = fixed_example("flipflop")
    w = avoiding_word(flip, 0)
    assert w == (1,)
    assert 0 not in apply_word(flip, StateSet.full(2), w)

    e5 = fixed_example("e5")
    for q in range(5):
        w = avoiding_word(e5, q)
        assert w is not None and len(w) <= avoiding_length_bound(5)
        assert q not in apply_word(e5, StateSet.full(5), w)


def test_avoiding_word_none_cases():
    assert avoiding_word(Dfa(1, ("a",), ((0,),)), 0) is None
    # state 0 is an absorbing sink: it occurs in every image of Q
    sink = Dfa(3, ("a",), ((0,), (0,), (1,)))
    assert avoiding_word(sink, 0) is None
    assert avoiding_word(sink, 2) == (0,)


def test_compress_word():
    c4 = cerny(4)
    w = compress_word(c4, StateSet.full(4))
    assert w == (0,)
    assert compress_word(c4, StateSet([2])) is None
    p = StateSet([0, 2])
    w = compress_word(c4, p)
    assert w is not None
    assert len(apply_word(c4, p, w)) < 2
    assert len(w) <= compress_length_bound(4, 2)


def test_compress_word_none_when_impossible():
    rot = Dfa(3, ("a",), ((1,), (2,), (0,)))
    assert compress_word(rot, StateSet([0, 1])) is None


def test_halving_word_fixtures():
    flip = fixed_example("flipflop")
    w = halving_word(flip)
    assert w == (0,)
    assert len(apply_word(flip, StateSet.full(2), w)) == 1

    c6 = cerny(6)
    w = halving_word(c6)
    image = apply_word(c6, StateSet.full(6), w)
    assert 2 * len(image) <= 6
    assert len(w) <= halving_length_bound(6)

    e12 = fixed_example("e12")
    w = halving_word(e12)
    image = apply_word(e12, StateSet.full(12), w)
    assert 2 * len(image) <= 12
    assert len(w) <= halving_length_bound(12)


def test_halving_word_rejects_permutation_automaton():
    rot = Dfa(3, ("a", "b"), ((1, 0), (2, 1), (0, 2)))
    with pytest.raises(ValueError, match="permutation"):
        halving_word(rot)


def test_reset_word_fixtures():
    for d, bound_n in ((cerny(4), 4), (fixed_example("e5"), 5)):
        report = reset_word(d)
        assert report.n == bound_n
        image = apply_word(d, StateSet.full(bound_n), report.word)
        assert len(image) == 1
        assert report.length == len(report.word)
        assert report.within_cubic
        assert report.cubic_bound == cubic_reset_bound(bound_n)
        assert report.halving_length <= halving_length_bound(bound_n)
        assert report.length >= reset_threshold_exact(d)


def test_reset_word_compression_ledger():
    report = reset_word(cerny(5))
    # halving leaves an image of size <= 2, then compressions shrink it to 1
    sizes = list(range(2 + len(report.compression_lengths) - 1, 1, -1))
    for (k, length) in zip(sizes, report.compression_lengths):
        assert length <= compress_length_bound(5, k)
    assert report.halving_length + sum(report.compression_lengths) == report.length


def test_reset_word_single_state():
    report = reset_word(Dfa(1, ("a",), ((0,),)))
    assert report.word == () and report.length == 0
    assert report.within_cerny and report.within_cubic


def test_reset_word_stall_raises():
    rot = Dfa(4, ("a", "b"), ((1, 1), (2, 0), (3, 3), (0, 2)))
    # letter b has defect 1 so halving starts, but the automaton never
    # synchronizes below 2 states
    with pytest.raises(ValueError):
        reset_word(rot)


def test_reset_matches_oracle_on_random_cr():
    checked = 0
    for seed in range(60):
        d = random_dfa(5, 2, 900 + seed)
        threshold = reset_threshold_exact(d)
        if threshold is None:
            continue
        try:
            report = reset_word(d)
        except ValueError:
            continue  # not completely reachable: halving may stall
        assert report.length >= threshold
        image = apply_word(d, StateSet.full(5), report.word)
        assert len(image) == 1
        checked += 1
    assert checked >= 10


def test_two_letter_cerny():
    rep = check_two_letter_properties(cerny(5))
    assert rep.n == 5
    assert rep.permutation_letters == (1,)
    assert rep.single_cycle == (True,)
    assert rep.reset_threshold == 16
    assert rep.within_cerny


def test_two_letter_flipflop():
    rep = check_two_letter_properties(fixed_example("flipflop"))
    assert rep.permutation_letters == ()
    assert rep.single_cycle == ()
    assert rep.reset_threshold == 1
    assert rep.within_cerny


def test_two_letter_without_reset_word():
    # Two permutations: no reset word, so nothing to compare with (n-1)^2.
    rep = check_two_letter_properties(Dfa(2, ("a", "b"), ((1, 0), (0, 1))))
    assert rep.reset_threshold is None
    assert rep.within_cerny is None


def test_two_letter_requires_two_letters():
    with pytest.raises(ValueError):
        check_two_letter_properties(fixed_example("e5"))
