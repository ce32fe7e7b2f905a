import itertools

import pytest

from crautomata import (
    Dfa,
    StateSet,
    apply_word,
    cerny,
    e_family,
    fixed_example,
    is_cr_bruteforce,
    powerset_reach_map,
    random_dfa,
    reset_threshold_exact,
    transition_monoid,
)
from crautomata import oracle
from crautomata.automaton import packed_images

IDENTITY2 = Dfa(2, ("a", "b"), ((0, 0), (1, 1)))


def test_reach_map_e5_complete():
    e5 = fixed_example("e5")
    reach = powerset_reach_map(e5)
    assert len(reach) == 31
    assert reach.word_for(StateSet.full(5)) == ()
    for mask, word in reach.words.items():
        assert apply_word(e5, StateSet.full(5), word).mask == mask


def test_reach_map_missing_subset():
    bad = e_family(5, 4, drop_last_b=True)
    reach = powerset_reach_map(bad)
    assert reach.word_for(StateSet([4])) is None
    assert len(reach) < 31


def test_reach_map_shortest_shortlex():
    # BFS must return shortest words, ties broken by letter order
    c4 = cerny(4)
    reach = powerset_reach_map(c4)
    assert reach.word_for(StateSet.full(4)) == ()
    assert reach.word_for(StateSet([1, 2, 3])) == (0,)
    lengths = {mask: len(w) for mask, w in reach.words.items()}
    # no word can be one letter shorter: re-BFS depth check on a few samples
    for mask, word in list(reach.words.items())[:10]:
        if not word:
            continue
        prefix_mask = apply_word(c4, StateSet.full(4), word[:-1]).mask
        assert lengths[prefix_mask] == len(word) - 1


def test_is_cr_bruteforce():
    assert is_cr_bruteforce(fixed_example("e12"))
    assert is_cr_bruteforce(cerny(6))
    assert not is_cr_bruteforce(IDENTITY2)


def _small_automata():
    """Every automaton with n <= 3 and m <= 2, seeded random draws, and the
    completely reachable families with their near misses, which random
    draws of more than five states almost never are."""
    for n in (1, 2, 3):
        maps = list(itertools.product(range(n), repeat=n))
        for m in (1, 2):
            for columns in itertools.product(maps, repeat=m):
                yield Dfa(n, ("a", "b")[:m], tuple(zip(*columns)))
    for n in range(1, 11):
        for m in (1, 2, 3):
            for seed in range(12):
                yield random_dfa(n, m, seed)
    for n in range(2, 11):
        yield cerny(n)
    for n in range(3, 9):
        for k in range(2, n):
            yield e_family(n, k)
        yield e_family(n, n - 1, drop_last_b=True)


def test_is_cr_bruteforce_agrees_with_the_reach_map():
    answers = set()
    for d in _small_automata():
        want = len(powerset_reach_map(d)) == 2**d.n - 1
        assert is_cr_bruteforce(d) is want, d
        answers.add((d.n, want))
    # n = 1 is completely reachable; a one-letter permutation is not (n >= 2).
    assert (1, False) not in answers
    assert not is_cr_bruteforce(Dfa(3, ("a",), ((1,), (2,), (0,))))
    # both answers occur at every larger size
    for n in range(2, 11):
        assert {(n, True), (n, False)} <= answers, n


def _count_steps(monkeypatch):
    calls = []
    step_all = oracle.step_all

    def spy(packed, mask):
        calls.append(mask)
        return step_all(packed, mask)

    monkeypatch.setattr(oracle, "step_all", spy)
    return calls


def test_is_cr_bruteforce_stops_at_the_first_incomplete_size(monkeypatch):
    # No letter of this automaton has defect 1, so the (n-1)-sets stay
    # unreached after expanding Q, and nothing smaller is expanded.  Q's
    # images come from the letter columns, so no set steps through a table
    # and no table is filled.
    d = random_dfa(8, 2, 1)
    calls = _count_steps(monkeypatch)
    packed_images.cache_clear()
    assert not is_cr_bruteforce(d)
    assert calls == []
    assert packed_images.cache_info().currsize == 0


def test_is_cr_bruteforce_fills_the_table_once_past_q():
    # A letter of defect 1 reaches an (n-1)-set, so a second set is
    # expanded and the table is filled, once.
    c5 = cerny(5)
    packed_images.cache_clear()
    assert is_cr_bruteforce(c5)
    info = packed_images.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)


def test_reset_threshold_cerny():
    for n, expected in ((3, 4), (4, 9), (5, 16)):
        assert reset_threshold_exact(cerny(n)) == expected


def test_reset_threshold_edge_cases():
    assert reset_threshold_exact(fixed_example("flipflop")) == 1
    assert reset_threshold_exact(IDENTITY2) is None
    one = Dfa(1, ("a",), ((0,),))
    assert reset_threshold_exact(one) == 0


def test_guard_refuses_large_inputs(monkeypatch):
    searches = (powerset_reach_map, is_cr_bruteforce, reset_threshold_exact)
    steps = _count_steps(monkeypatch)
    big = cerny(23)
    for search in searches:
        # The refusal names the search, whose max_states the caller can raise.
        message = (
            r"^powerset search refused: 23 states exceeds the limit of 22 "
            rf"\(pass a larger max_states to {search.__name__} to override\)$"
        )
        with pytest.raises(ValueError, match=message):
            search(big)
    # the guard is a parameter, not a constant
    small = cerny(8)
    for search in searches:
        with pytest.raises(ValueError, match="exceeds the limit of 7"):
            search(small, max_states=7)
    # A string limit used to raise TypeError, and True was read as 1.
    for limit in ("22", True, False, 22.0, None):
        for search in searches:
            with pytest.raises(ValueError, match="^max_states must be an integer"):
                search(small, limit)
            with pytest.raises(ValueError, match="^max_states must be an integer"):
                search(small, max_states=limit)
    # every refusal comes before the first step
    assert steps == []
    assert reset_threshold_exact(small, max_states=8) == 49
    assert is_cr_bruteforce(small, max_states=8)
    assert steps


def test_monoid_flipflop():
    ff = fixed_example("flipflop")
    mon = transition_monoid(ff)
    assert len(mon) == 3  # identity plus the two constant maps
    singular = [t for t in mon.elements if len(set(t)) < ff.n]
    assert len(singular) == 2
    assert set(singular) == {(0, 0), (1, 1)}


def test_monoid_identity_only():
    one_letter = Dfa(3, ("a",), ((0,), (1,), (2,)))
    mon = transition_monoid(one_letter)
    assert set(mon.elements) == {(0, 1, 2)}
    assert mon.elements[(0, 1, 2)] == ()
    assert [t for t in mon.elements if len(set(t)) < one_letter.n] == []


def test_monoid_words_reproduce_elements():
    e5 = fixed_example("e5")
    mon = transition_monoid(e5)
    from crautomata import transformation_of

    assert len(mon) == 31  # identity plus every singular transformation
    for t, word in mon.elements.items():
        assert transformation_of(e5, word) == t


def test_monoid_guard(monkeypatch):
    # The limit is read at each call, and a closure of exactly the limit
    # is kept.
    flipflop = fixed_example("flipflop")
    monkeypatch.setattr(oracle, "DEFAULT_MAX_MONOID", 3)
    assert len(transition_monoid(flipflop)) == 3
    refused = "^monoid closure refused: more than {} elements$"
    for limit, dfa in ((10, cerny(10)), (2, flipflop)):
        monkeypatch.setattr(oracle, "DEFAULT_MAX_MONOID", limit)
        with pytest.raises(ValueError, match=refused.format(limit)):
            transition_monoid(dfa)
