import pytest

from crautomata import (
    Dfa,
    StateSet,
    apply_word,
    build_gamma,
    cerny,
    excl_dupl,
    expand_step,
    fixed_example,
    powerset_reach_map,
    random_dfa,
    reach_word,
    transformation_of,
)


def test_expand_step_fixture():
    e5 = fixed_example("e5")
    # a[2] maps {0,1} onto {1}; expanding {0} through it gives both preimages
    r = expand_step(e5, StateSet([0]), (1,), 0)
    assert r == StateSet([0, 1])
    assert apply_word(e5, r, (1,)) == StateSet([0])


def test_expand_step_keeps_other_states():
    e5 = fixed_example("e5")
    r = expand_step(e5, StateSet([0, 2]), (1,), 0)
    assert apply_word(e5, r, (1,)) == StateSet([0, 2])
    assert len(r) == 3


def test_expand_step_rejects_excluded_target():
    e5 = fixed_example("e5")
    # a[1] has excl {0}: no preimage for state 0
    with pytest.raises(ValueError, match="excludes"):
        expand_step(e5, StateSet([0]), (0,), 0)


def test_expand_step_rejects_non_duplicate():
    e5 = fixed_example("e5")
    with pytest.raises(ValueError, match="duplicate"):
        expand_step(e5, StateSet([0]), (1,), 2)


def test_expand_step_rejects_states_outside():
    e5 = fixed_example("e5")
    with pytest.raises(ValueError, match="outside"):
        expand_step(e5, StateSet([0, 7]), (1,), 0)


def test_expand_step_size_exhaustive():
    # |R| = |P| + (multiplicity of the duplicate) - 1, and R maps back onto P
    for seed in (5, 23):
        d = random_dfa(5, 2, seed)
        for wlen in range(1, 4):
            for widx in range(d.m ** wlen):
                w, x = [], widx
                for _ in range(wlen):
                    w.append(x % d.m)
                    x //= d.m
                w = tuple(w)
                t = transformation_of(d, w)
                pair = excl_dupl(d, w)
                for dup in pair.dupl:
                    for pmask in range(1, 1 << d.n):
                        p = StateSet.from_mask(pmask)
                        if dup not in p or not p.isdisjoint(pair.excl):
                            continue
                        r = expand_step(d, p, w, dup)
                        mult = sum(1 for q in range(d.n) if t[q] == dup)
                        assert len(r) == len(p) + mult - 1
                        assert apply_word(d, r, w) == p
                        break  # one subset per duplicate keeps this quick


def test_reach_word_full_set_is_trivial():
    e5 = fixed_example("e5")
    result = build_gamma(e5)
    word, steps = reach_word(e5, result, StateSet.full(5))
    assert word == () and steps == []


def test_reach_word_all_subsets_e5():
    e5 = fixed_example("e5")
    result = build_gamma(e5)
    q = StateSet.full(5)
    for mask in range(1, 32):
        p = StateSet.from_mask(mask)
        word, steps = reach_word(e5, result, p)
        assert apply_word(e5, q, word) == p
        if steps:
            assert steps[0].source == q
            assert steps[-1].target == p
            for a, b in zip(steps, steps[1:]):
                assert a.target == b.source
            for st in steps:
                assert apply_word(e5, st.source, st.word) == st.target
                assert 1 <= st.level <= result.terminal_step
            assert word == tuple(x for st in steps for x in st.word)


def test_reach_word_cerny_and_random():
    fixtures = [cerny(5), random_dfa(6, 3, 41), random_dfa(5, 2, 208)]
    for d in fixtures:
        result = build_gamma(d)
        if not result.success:
            continue
        reach = powerset_reach_map(d)
        assert len(reach) == (1 << d.n) - 1
        q = StateSet.full(d.n)
        for mask in range(1, 1 << d.n):
            p = StateSet.from_mask(mask)
            word, _ = reach_word(d, result, p)
            assert apply_word(d, q, word) == p


def test_reach_word_requires_success():
    d = Dfa(3, ("a",), ((1,), (2,), (0,)))
    result = build_gamma(d)
    with pytest.raises(ValueError, match="succeeded"):
        reach_word(d, result, StateSet([0]))


def test_reach_word_rejects_bad_subsets():
    e5 = fixed_example("e5")
    result = build_gamma(e5)
    with pytest.raises(ValueError):
        reach_word(e5, result, StateSet([]))
    with pytest.raises(ValueError):
        reach_word(e5, result, StateSet([5]))


def test_reach_word_singleton_via_sync():
    # reaching a singleton from Q is exactly a word sending Q to one state
    e12 = fixed_example("e12")
    result = build_gamma(e12)
    word, steps = reach_word(e12, result, StateSet([0]))
    assert apply_word(e12, StateSet.full(12), word) == StateSet([0])
    assert all(st.level <= result.terminal_step for st in steps)
