import dataclasses
import random

import pytest
from test_synchro_reference import cycle_idempotent

from crautomata import (
    Dfa,
    StateSet,
    apply_word,
    build_gamma,
    cerny,
    e_family,
    excl_dupl,
    fixed_example,
    powerset_reach_map,
    random_dfa,
    reach_word,
    transformation_of,
    witness,
)
from crautomata.automaton import iter_bits, preimage_masks
from crautomata.witness import expand_step


def _pre(d, w):
    return preimage_masks(transformation_of(d, w))


def test_expand_step_fixture():
    e5 = fixed_example("e5")
    # a[2] maps {0,1} onto {1}; expanding {0} through it gives both preimages
    r = expand_step(_pre(e5, (1,)), 0b1, 0b1)
    assert r == 0b11
    assert apply_word(e5, StateSet.from_mask(r), (1,)) == StateSet([0])


def test_expand_step_keeps_other_states():
    e5 = fixed_example("e5")
    r = StateSet.from_mask(expand_step(_pre(e5, (1,)), 0b101, 0b1))
    assert apply_word(e5, r, (1,)) == StateSet([0, 2])
    assert len(r) == 3


def test_expand_step_rejects_excluded_target():
    e5 = fixed_example("e5")
    # a[1] has excl {0}: no preimage for state 0
    with pytest.raises(ValueError, match="excludes"):
        expand_step(_pre(e5, (0,)), 0b1, 0b1)


def test_expand_step_rejects_non_duplicate():
    e5 = fixed_example("e5")
    # a[2] duplicates only state 0, and 2 is the one allowed state
    with pytest.raises(ValueError, match="duplicate"):
        expand_step(_pre(e5, (1,)), 0b101, 0b100)
    with pytest.raises(ValueError, match="duplicate"):
        expand_step(_pre(e5, (1,)), 0b1, 0)


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
                pre = preimage_masks(t)
                pair = excl_dupl(d, w)
                for dup in pair.dupl:
                    for pmask in range(1, 1 << d.n):
                        p = StateSet.from_mask(pmask)
                        if dup not in p or not p.isdisjoint(pair.excl):
                            continue
                        r = StateSet.from_mask(expand_step(pre, pmask, 1 << dup))
                        mult = sum(1 for q in range(d.n) if t[q] == dup)
                        assert len(r) == len(p) + mult - 1
                        assert apply_word(d, r, w) == p
                        break  # one subset per duplicate keeps this quick


def _expand_step_generators(pre, p, allowed):
    """The generator-based ``expand_step`` that the bit loops replaced."""
    if any(not pre[r] for r in iter_bits(p)):
        raise ValueError("the word excludes part of the target set")
    dup = next((r for r in iter_bits(p & allowed) if pre[r] & (pre[r] - 1)), None)
    if dup is None:
        raise ValueError("no allowed duplicate state in the target set")
    mask = pre[dup]
    for r in iter_bits(p & ~(1 << dup)):
        mask |= pre[r] & -pre[r]
    return mask


def _outcome(step, pre, p, allowed):
    try:
        return step(pre, p, allowed)
    except ValueError as exc:
        return str(exc)


def test_expand_step_matches_generator_version():
    # Every (p, allowed) pair over random transformations, plus a
    # permutation and a constant map, which refuse for want of a duplicate
    # and for an excluded state.
    rng = random.Random(29)
    seen = set()
    for n in range(1, 9):
        maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(4 if n <= 6 else 1)]
        maps += [tuple(rng.sample(range(n), n)), (rng.randrange(n),) * n]
        for t in maps:
            pre = preimage_masks(t)
            for p in range(1 << n):
                for allowed in range(1 << n):
                    want = _outcome(_expand_step_generators, pre, p, allowed)
                    assert _outcome(expand_step, pre, p, allowed) == want, (t, p, allowed)
                    seen.add(want if isinstance(want, str) else "mask")
    assert seen == {
        "mask",
        "the word excludes part of the target set",
        "no allowed duplicate state in the target set",
    }


def _reach_trace(word, steps):
    return word, [(st.level, st.edge, st.word, st.source, st.target) for st in steps]


@pytest.mark.parametrize(
    "make",
    [
        lambda: fixed_example("e5"),
        lambda: e_family(8, 7),
        lambda: cycle_idempotent(10, 3, random.Random(1)),
    ],
    ids=["e5", "e8_7", "cycle10_3"],
)
def test_reach_word_memo_matches_fresh_hierarchies(make):
    dfa = make()
    result = build_gamma(dfa)
    assert result.success
    twin = dataclasses.replace(result)  # same fields, an empty memo
    shown = repr(result)
    masks = list(range(1, (1 << dfa.n) - 1))
    fresh = {
        mask: _reach_trace(*reach_word(dfa, build_gamma(dfa), StateSet.from_mask(mask)))
        for mask in masks
    }
    copy = Dfa(dfa.n, dfa.alphabet, dfa.delta)
    assert copy is not dfa and copy == dfa
    rng = random.Random(dfa.n)
    read = set()
    for reader in (dfa, copy):
        rng.shuffle(masks)
        for mask in masks:
            word, steps = reach_word(reader, result, StateSet.from_mask(mask))
            assert _reach_trace(word, steps) == fresh[mask], mask
            read.update(st.word for st in steps)
    # One list of n preimage masks per distinct forcing word read.
    assert result._preimages.keys() == read
    for w, pre in result._preimages.items():
        assert pre == preimage_masks(transformation_of(dfa, w))
    assert repr(result) == shown
    assert result == twin and not twin._preimages


def test_reach_word_calls_expand_step_once_per_round(monkeypatch):
    e5 = fixed_example("e5")
    result = build_gamma(e5)
    calls = []

    def spy(pre, p, allowed):
        calls.append(p)
        return expand_step(pre, p, allowed)

    monkeypatch.setattr(witness, "expand_step", spy)
    word, steps = reach_word(e5, result, StateSet([0, 2]))
    assert len(steps) == len(calls) == 3
    # Rounds run outermost last, so the calls see the targets in reverse.
    assert calls == [step.target.mask for step in reversed(steps)]


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


def test_reach_word_refuses_a_hierarchy_of_another_size():
    # cerny(5)'s hierarchy used to fail on cerny(4) with the message meant
    # for a level-selection bug.
    for n, built in ((4, 5), (6, 5), (5, 4)):
        with pytest.raises(
            ValueError,
            match=f"^the hierarchy was built for {built} states, the automaton has {n}$",
        ):
            reach_word(cerny(n), build_gamma(cerny(built)), StateSet([0, 1]))


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


def assert_reach_words_within_bound(dfa, result, targets):
    """Q . w = P and |w| <= 2n(n - k) for each k-subset P in ``targets``.

    Ferens and Szykula give 2n(n - k) as an upper bound on the shortest
    such word in a completely reachable automaton.
    """
    n = dfa.n
    q = StateSet.full(n)
    for mask in targets:
        word, _ = reach_word(dfa, result, StateSet.from_mask(mask))
        assert apply_word(dfa, q, word).mask == mask
        assert len(word) <= 2 * n * (n - mask.bit_count()), (dfa, mask)


def test_reach_word_length_bound_on_every_subset():
    rng = random.Random(3)
    dfas = [random_dfa(3 + i % 6, 2 + i % 2, 50000 + i) for i in range(300)]
    dfas += [cerny(n) for n in range(2, 11)]
    dfas += [e_family(n, k) for n in range(3, 10) for k in range(2, n)]
    dfas.append(e_family(10, 9))
    dfas += [
        cycle_idempotent(n, d, rng) for n in range(2, 11) for d in range(1, min(n, 4))
    ]
    checked = 0
    for dfa in dfas:
        result = build_gamma(dfa)
        if result.success:
            assert_reach_words_within_bound(dfa, result, range(1, (1 << dfa.n) - 1))
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("n, d", [(64, 1), (64, 5), (128, 3)])
def test_reach_word_length_bound_on_large_cycles(n, d):
    dfa = cycle_idempotent(n, d, random.Random(n + d))
    result = build_gamma(dfa)
    assert result.success
    rng = random.Random(n * d)
    targets = []
    for _ in range(20):
        states = rng.sample(range(n), rng.randint(1, n - 1))
        targets.append(sum(1 << q for q in states))
    assert_reach_words_within_bound(dfa, result, targets)
