import hashlib

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
from crautomata.generators import _uniform_draws


def test_cerny_table():
    c4 = cerny(4)
    assert c4.alphabet == ("a", "b")
    assert c4.delta == ((1, 1), (1, 2), (2, 3), (3, 0))
    # exactly one non-permutation letter, defect 1
    assert len(excl_dupl(c4, (0,)).excl) == 1
    assert len(excl_dupl(c4, (1,)).excl) == 0
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
    # Only truthiness was read, so "yes" and 1 built the twin.
    for flag in ("yes", 1, 0, None):
        with pytest.raises(ValueError, match=f"^drop_last_b must be a bool, got {flag!r}$"):
            e_family(5, 4, drop_last_b=flag)


def test_e_family_dupl_confined_for_a_words():
    # words over the a-letters only keep duplicates among the first l states
    import random

    d = e_family(6, 3)  # l = 4
    low = StateSet(range(4))
    rng = random.Random(99)
    for _ in range(200):
        w = tuple(rng.randrange(6) for _ in range(rng.randint(1, 8)))
        pair = excl_dupl(d, w)
        assert set(pair.dupl) <= set(low)


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


# Pinned output of random_dfa, recorded while it still called numpy; guards
# drift across versions, platforms and rewrites of the generator.
FROZEN_TABLES = {
    (4, 2, 0): ((3, 2), (2, 1), (1, 0), (0, 0)),
    (3, 1, 42): ((0,), (2,), (1,)),
    (1, 3, 7): ((0, 0, 0),),
    (9, 3, 2**64 + 5): (
        (8, 6, 5), (3, 7, 6), (6, 3, 2), (8, 3, 7), (1, 3, 8),
        (1, 2, 5), (4, 6, 8), (1, 7, 7), (3, 3, 3),
    ),
}
# Seeds around the 32-bit word boundaries SeedSequence splits a seed at,
# and seeds of more than four words, which it mixes in after the pool.
EDGE_SEEDS = (
    0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**128 + 1, 3**100,
)


def _corpus_triples(count):
    for i in range(count):
        seed = EDGE_SEEDS[i] if i < len(EDGE_SEEDS) else i ** (1 + i % 13)
        yield 1 + i % 12, 1 + i // 12 % 4, seed


def test_random_dfa_frozen_sample():
    for (n, m, seed), delta in FROZEN_TABLES.items():
        assert random_dfa(n, m, seed).delta == delta, (n, m, seed)
    digest = hashlib.sha256()
    for n, m, seed in _corpus_triples(2000):
        d = random_dfa(n, m, seed)
        digest.update(bytes([n, m, *(t for row in d.delta for t in row)]))
    assert digest.hexdigest() == (
        "3dad0169fb72e2ea7fa12d6cd0c6e32c4eccb6160bb96850f9e42ed81b294c89"
    )


def _numpy_draws(np, seed, n, size):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return rng.integers(0, n, size=size).tolist()


def test_random_dfa_matches_numpy():
    np = pytest.importorskip("numpy")
    triples = list(_corpus_triples(2000))
    for i in range(8000):
        n, m = 1 + i % 40, 1 + i // 40 % 5
        seed = i if i % 4 == 0 else (i * 0x9E3779B97F4A7C15) ** (i % 4)  # up to 231 bits
        triples.append((n, m, seed))
    for n, m, seed in triples:
        expected = _numpy_draws(np, seed, n, (n, m))
        assert [list(row) for row in random_dfa(n, m, seed).delta] == expected, (n, m, seed)


def test_uniform_draws_reject_like_numpy_near_the_32_bit_limit():
    # At these bounds Lemire's method rejects up to half of all 32-bit
    # outputs, so a draw that mishandles rejection drifts from the stream;
    # 2**32 itself takes numpy's separate unbounded 32-bit path.
    np = pytest.importorskip("numpy")
    for n in (2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 10**9 + 7):
        for seed in (0, 5, 2**64 + 3, 3**100):
            assert _uniform_draws(seed, n, 256) == _numpy_draws(np, seed, n, 256), (n, seed)
