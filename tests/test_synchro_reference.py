"""Differential tests: the synchro searches against forward breadth-first search.

The reference functions below are the original exponential searches over
images of Q or of P, kept here only as ground truth.  The library rebuilds
the same shortlex-least shortest words from a pair-distance table and a
backward preimage search, so every word, None and ValueError must agree.
The last test runs ``reset_word`` at n = 64, out of the reference's reach,
and checks the word by applying it and against its length bounds.
"""

import math
import random
from collections import deque

import pytest

from crautomata import (
    Dfa,
    StateSet,
    apply_word,
    avoiding_word,
    cerny,
    compress_length_bound,
    compress_word,
    cubic_reset_bound,
    e_family,
    excl_dupl,
    random_dfa,
    reset_word,
    transformation_of,
)
from crautomata.automaton import apply_letter_mask, apply_word_mask


def ref_avoiding_word(dfa, q):
    if not 0 <= q < dfa.n:
        raise ValueError(f"state index {q} out of range 0..{dfa.n - 1}")
    full = (1 << dfa.n) - 1
    if dfa.n == 1:
        return None
    seen = {full}
    queue = deque([(full, ())])
    while queue:
        mask, word = queue.popleft()
        for a in range(dfa.m):
            nxt = apply_letter_mask(dfa.delta, mask, a)
            if nxt in seen:
                continue
            if not nxt & (1 << q):
                return word + (a,)
            seen.add(nxt)
            queue.append((nxt, word + (a,)))
    return None


def ref_compress_word(dfa, p):
    if not p:
        raise ValueError("cannot compress an empty state set")
    if p.mask >> dfa.n:
        raise ValueError("state set contains states outside the automaton")
    size = len(p)
    if size == 1:
        return None
    seen = {p.mask}
    queue = deque([(p.mask, ())])
    while queue:
        mask, word = queue.popleft()
        for a in range(dfa.m):
            nxt = apply_letter_mask(dfa.delta, mask, a)
            if nxt in seen:
                continue
            if nxt.bit_count() < size:
                return word + (a,)
            seen.add(nxt)
            queue.append((nxt, word + (a,)))
    return None


def ref_reset_word(dfa):
    """(word, halving length, compression lengths) as first implemented."""
    full = (1 << dfa.n) - 1
    defects = [
        dfa.n - apply_letter_mask(dfa.delta, full, a).bit_count() for a in range(dfa.m)
    ]
    w = (defects.index(max(defects)),)
    while 2 * apply_word_mask(dfa, full, w).bit_count() > dfa.n:
        image = apply_word_mask(dfa, full, w)
        unique_mask = image & ~excl_dupl(dfa, w).dupl.mask
        p = (unique_mask & -unique_mask).bit_length() - 1
        w = ref_avoiding_word(dfa, transformation_of(dfa, w).index(p)) + w
    halving_length = len(w)
    lengths = []
    image = apply_word_mask(dfa, full, w)
    while image.bit_count() > 1:
        u = ref_compress_word(dfa, StateSet.from_mask(image))
        lengths.append(len(u))
        w += u
        image = apply_word_mask(dfa, image, u)
    return w, halving_length, tuple(lengths)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_searches_agree(dfa):
    for q in range(-1, dfa.n + 1):
        assert outcome(avoiding_word, dfa, q) == outcome(ref_avoiding_word, dfa, q)
    for mask in range(1 << (dfa.n + 1)):
        p = StateSet.from_mask(mask)
        assert outcome(compress_word, dfa, p) == outcome(ref_compress_word, dfa, p)


def cycle_idempotent(n, d, rng):
    """Random n-cycle b plus the idempotent a sending x to x + d along it."""
    order = list(range(n))
    rng.shuffle(order)
    start = rng.randrange(n)
    x, y = order[start], order[(start + d) % n]
    succ = [0] * n
    for i, q in enumerate(order):
        succ[q] = order[(i + 1) % n]
    return Dfa(n, ("a", "b"), tuple((y if q == x else q, succ[q]) for q in range(n)))


def test_searches_match_reference_on_random_dfas():
    rng = random.Random(7)
    avoidable = set()
    for seed in range(1500):
        d = random_dfa(rng.randint(1, 7), rng.randint(1, 3), seed)
        assert_searches_agree(d)
        avoidable.update(avoiding_word(d, q) is not None for q in range(d.n))
    assert avoidable == {True, False}  # both outcomes were exercised


@pytest.mark.parametrize("n", range(3, 10))
def test_searches_match_reference_on_e_family(n):
    for k in range(2, n):
        assert_searches_agree(e_family(n, k))
    assert_searches_agree(e_family(n, n - 1, drop_last_b=True))


@pytest.mark.parametrize("n", range(2, 13))
def test_searches_match_reference_on_cerny(n):
    assert_searches_agree(cerny(n))


def test_searches_match_reference_on_none_cases():
    sink = Dfa(3, ("a",), ((0,), (0,), (1,)))
    rot = Dfa(3, ("a",), ((1,), (2,), (0,)))
    for d in (Dfa(1, ("a",), ((0,),)), sink, rot):
        assert_searches_agree(d)
    assert avoiding_word(sink, 0) is None
    assert compress_word(rot, StateSet([0, 1])) is None


def test_reset_word_matches_reference_on_cycle_idempotent():
    rng = random.Random(11)
    for n in range(2, 17):
        for d in range(1, n):
            if math.gcd(n, d) != 1:
                continue
            dfa = cycle_idempotent(n, d, rng)
            report = reset_word(dfa)
            assert (
                report.word,
                report.halving_length,
                report.compression_lengths,
            ) == ref_reset_word(dfa)


@pytest.mark.parametrize(
    "dfa",
    [cerny(64), cycle_idempotent(64, 5, random.Random(64))],
    ids=["cerny64", "cycle64"],
)
def test_reset_word_at_scale(dfa):
    n = dfa.n
    report = reset_word(dfa)
    assert len(apply_word(dfa, dfa.states(), report.word)) == 1
    pos = report.halving_length
    image = apply_word(dfa, dfa.states(), report.word[:pos])
    assert 2 * len(image) <= n
    for length in report.compression_lengths:
        assert length <= compress_length_bound(n, len(image))
        image = apply_word(dfa, image, report.word[pos : pos + length])
        pos += length
    assert report.length <= cubic_reset_bound(n)
    assert report.within_cubic
