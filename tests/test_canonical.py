import math
from collections import deque
from itertools import product

import pytest

from crautomata import (
    Dfa,
    ExclDuplPair,
    StateSet,
    cerny,
    e_family,
    excl_dupl,
    extend_excl_dupl,
    fixed_example,
    preimage_table,
    random_dfa,
    transition_monoid,
)
from crautomata.automaton import shortlex_key, transformation_signature
from crautomata.canonical import CanonicalWordSet, word_decoder


def grown_to(dfa, cap):
    cws = CanonicalWordSet(dfa)
    cws.grow(cap)
    return cws


def decoded(cws, k):
    """The walk's defect-k triples with each code decoded to its word."""
    return [(cws.word(c), em, dm) for c, em, dm in cws.signatures_of_defect(k)]


def shortlex_signatures(dfa, cap):
    """Per defect up to cap, (word, excl, dupl) of each signature's least word.

    A breadth-first search over words that extends each signature once,
    through the per-state ``extend_excl_dupl``.  Children go on the queue in
    letter order, so it stays in shortlex order, and the prefix of a least
    word is least: the first word found with a signature is its least word.
    """
    table = preimage_table(dfa)
    root = ExclDuplPair(StateSet(), StateSet())
    by_defect = [[] for _ in range(cap + 1)]
    seen = {root.key()}
    queue = deque([((), root)])
    while queue:
        w, pair = queue.popleft()
        by_defect[pair.defect].append((w, pair.excl.mask, pair.dupl.mask))
        for a in range(dfa.m):
            child = extend_excl_dupl(pair, dfa, a, table)
            if child.defect <= cap and child.key() not in seen:
                seen.add(child.key())
                queue.append((w + (a,), child))
    return by_defect


def assert_matches_reference(dfa, cws, stride=1):
    """Compare with the reference, and apply every stride-th kept word."""
    cap = cws.defect_cap
    got = [decoded(cws, k) for k in range(cap + 1)]
    assert got == shortlex_signatures(dfa, cap), (dfa, cap)
    for w, pair in cws.entries[::stride]:
        assert excl_dupl(dfa, w) == pair


def test_word_decoder_inverts_the_shortlex_code():
    # Code order is shortlex order, and a decoded word is built once: the
    # decoder hands back the same tuple each time the code is read.
    for m in (1, 2, 3, 260):
        letters = sorted({0, 1 % m, m - 1})
        words = [w for size in range(5) for w in product(letters, repeat=size)]
        codes = []
        for w in words:
            code = 0
            for a in w:
                code = code * m + a + 1
            codes.append(code)
        by_code = [w for _, w in sorted(zip(codes, words))]
        assert by_code == sorted(words, key=shortlex_key)
        decode = word_decoder(m)
        for code, w in reversed(list(zip(codes, words))):
            assert decode(code) == w
            assert decode(code) is decode(code)


def test_e5_defect1_is_the_five_letters():
    e5 = fixed_example("e5")
    entries = decoded(grown_to(e5, 1), 1)
    assert [w for w, _, _ in entries] == [(0,), (1,), (2,), (3,), (4,)]
    edges = {(em.bit_length() - 1, dm.bit_length() - 1) for _, em, dm in entries}
    assert edges == {(0, 1), (1, 0), (2, 0), (3, 4), (4, 3)}


def test_epsilon_entry_always_present():
    for dfa in (cerny(3), fixed_example("flipflop")):
        cws = grown_to(dfa, 1)
        empty = ExclDuplPair(StateSet(), StateSet())
        assert cws.entries[0] == ((), empty)  # shortlex-least overall
        assert decoded(cws, 0) == [((), 0, 0)]


def test_entries_shortlex_sorted_and_unique():
    cws = grown_to(fixed_example("e5"), 3)
    words = [w for w, _ in cws.entries]
    assert words == sorted(words, key=shortlex_key)
    keys = [p.key() for _, p in cws.entries]
    assert len(keys) == len(set(keys))
    # each per-defect list is the shortlex-ordered slice of the entries
    for k in range(4):
        listed = [w for w, _, _ in decoded(cws, k)]
        assert listed == [w for w, p in cws.entries if p.defect == k]


def test_prefix_closure():
    for dfa in (fixed_example("e5"), cerny(6), e_family(6, 4)):
        cws = grown_to(dfa, dfa.n - 1)
        words = {w for w, _ in cws.entries}
        for w in words:
            for i in range(len(w)):
                assert w[:i] in words


def test_cardinality_bound():
    for dfa in (fixed_example("e5"), cerny(7), e_family(7, 3)):
        n = dfa.n
        cws = grown_to(dfa, n - 1)
        for k in range(1, n):
            assert len(cws.signatures_of_defect(k)) < math.comb(n, k) ** 2


def test_stored_signature_matches_word():
    dfa = e_family(6, 4)
    cws = grown_to(dfa, 4)
    for w, pair in cws.entries:
        assert excl_dupl(dfa, w) == pair


def test_signature_sets_match_monoid_oracle():
    # gamma's defect-k signature sets must equal the monoid's, per k
    for seed in range(25):
        dfa = random_dfa(3 + seed % 4, 2 + seed % 2, 4000 + seed)
        n = dfa.n
        cws = grown_to(dfa, n - 1)
        mon = transition_monoid(dfa)
        by_defect = {k: set() for k in range(1, n)}
        for t in mon.elements:
            d = n - len(set(t))
            if d >= 1:
                by_defect[d].add(transformation_signature(t).key())
        for k in range(1, n):
            got = {(em, dm) for _, em, dm in cws.signatures_of_defect(k)}
            assert got == by_defect[k], (seed, k)


def test_shortlex_minimality_against_exhaustion():
    # the stored witness must be the first word with its signature in
    # shortlex enumeration order
    for seed in (3, 11):
        dfa = random_dfa(4, 2, seed)
        cws = grown_to(dfa, 3)
        stored = {p.key(): w for w, p in cws.entries}
        seen = {}
        for length in range(0, 7):
            for letters in product(range(dfa.m), repeat=length):
                key = excl_dupl(dfa, letters).key()
                if key not in seen:
                    seen[key] = letters
        for key, word in stored.items():
            if len(word) <= 6:
                assert seen[key] == word


def test_resumable_growth_equals_fresh_build():
    e5 = fixed_example("e5")
    grown = CanonicalWordSet(e5)
    grown.grow(1)
    assert grown.defect_cap == 1
    grown.grow(2)
    grown.grow(4)
    fresh = CanonicalWordSet(e5)
    fresh.grow(4)
    assert grown.entries == fresh.entries
    assert len(grown) == len(fresh)
    for k in range(5):
        assert grown.signatures_of_defect(k) == fresh.signatures_of_defect(k)

    # Caps raised one at a time give what one jump gives, defect by defect.
    dfas = [random_dfa(2 + i % 7, 1 + i % 3, 7000 + i) for i in range(20)]
    for dfa in dfas + [e_family(7, 6)]:
        top = dfa.n - 1
        stepped = CanonicalWordSet(dfa)
        jumped = CanonicalWordSet(dfa)
        jumped.grow(top)
        for cap in range(1, top + 1):
            stepped.grow(cap)
            assert stepped.defect_cap == cap
            got = stepped.signatures_of_defect(cap)
            assert got == jumped.signatures_of_defect(cap), (dfa, cap)
        assert stepped.entries == jumped.entries
        assert len(stepped) == len(jumped)


def test_defect_cap_is_monotone_noop_downward():
    e5 = fixed_example("e5")
    cws = CanonicalWordSet(e5)
    cws.grow(3)
    before = list(cws.entries)
    cws.grow(2)  # lower cap: nothing to do
    assert cws.entries == before


def test_signatures_of_defect_validation():
    cws = grown_to(fixed_example("e5"), 2)
    with pytest.raises(ValueError, match="cap"):
        cws.signatures_of_defect(3)
    with pytest.raises(ValueError):
        cws.signatures_of_defect(-1)


def test_xd_pairs_fixtures():
    e5 = fixed_example("e5")
    cws = grown_to(e5, 3)
    k3 = {(em, dm) for _, em, dm in cws.signatures_of_defect(3)}
    assert (0b00111, 0b11000) in k3  # excl {0,1,2}, dupl {3,4}


def test_xd_pairs_empty_and_top_state_never_duplicate():
    # permutation automata have no positive-defect words at all
    rot = Dfa(3, ("a",), ((1,), (2,), (0,)))
    cws = grown_to(rot, 2)
    assert cws.signatures_of_defect(1) == [] and cws.signatures_of_defect(2) == []
    # the truncated staircase family: the top state is never duplicated,
    # at any defect, which is what keeps its singleton cluster unreachable
    bad = e_family(5, 4, drop_last_b=True)
    cws = grown_to(bad, 4)
    for k in range(1, 5):
        for _, _, dm in cws.signatures_of_defect(k):
            assert not dm >> 4 & 1
    assert len(cws.signatures_of_defect(4)) == 4


def test_walk_matches_per_state_reference_across_chunks():
    # These automata have 9 to 65 states, so their masks run past a byte
    # and, for cerny(65), past 64 bits.
    cases = [(e_family(10, 9), 9), (fixed_example("e12"), 2)]
    for n in (9, 12, 16, 17, 20):
        for seed in range(2):
            dfa = random_dfa(n, 2 + seed, 900 + seed)
            cases += [(dfa, 1), (dfa, 2)]
            # Random letters already have a large defect; go on to the
            # first cap with a few hundred signatures.
            cws = CanonicalWordSet(dfa)
            cap = 1
            while cap < n - 1 and len(cws) < 300:
                cap += 1
                cws.grow(cap)
            cases.append((dfa, cap))
    for dfa, cap in cases:
        assert_matches_reference(dfa, grown_to(dfa, cap))
    # cerny(65) has 65-bit masks.  Its 4161 words of defect 1 run to 191
    # letters, and applying them all would take a second.
    assert_matches_reference(cerny(65), grown_to(cerny(65), 1), stride=16)


def test_walk_matches_per_state_reference_on_wide_and_unary_alphabets():
    # The walk ranks words by their bijective base-m numeral.  With 260
    # letters, letter 259's digit, 260, needs more than a byte: a byte per
    # letter would rank (a, 259) after (a + 1, 0).
    n, m = 5, 260
    rotate = tuple((p + 1) % n for p in range(n))
    swap = (1, 0, *range(2, n))
    merge = (0, 0, *range(2, n))
    letters = [rotate, swap] + [tuple(range(n))] * (m - 3) + [merge]
    delta = tuple(tuple(images[p] for images in letters) for p in range(n))
    wide = Dfa(n, tuple(f"x{a}" for a in range(m)), delta)
    cws = grown_to(wide, n - 1)
    assert_matches_reference(wide, cws)
    assert any(259 in w for w, _ in cws.entries)
    # With one letter a word's numeral is its length.
    unary = [random_dfa(n, 1, 300 + n) for n in range(1, 21)]
    # A tail 6 -> 7 -> 8 -> 0 into the cycle 0 -> 1 -> ... -> 5 -> 0.
    tail = tuple(((p + 1) % (6 if p < 6 else 9),) for p in range(9))
    unary.append(Dfa(9, ("a",), tail))
    for dfa in unary:
        cws = grown_to(dfa, dfa.n - 1)
        assert_matches_reference(dfa, cws)
        assert [w for w, _ in cws.entries] == [(0,) * i for i in range(len(cws))]


def _late_finds(dfa, cws):
    """Signatures whose least word a later walk finds, by the word it beat.

    The walk of defect d runs after every lower defect's walk, so a child of
    a lower-defect word waits before the least word's parent is walked.
    "replace": a child of the same length waited; "move": only longer ones.
    """
    table = preimage_table(dfa)
    least = {pair.key(): w for w, pair in cws.entries}
    earliest = {}  # signature -> shortest child length from an earlier walk
    for u, pair in cws.entries:
        for a in range(dfa.m):
            key = extend_excl_dupl(pair, dfa, a, table).key()
            w = least.get(key)
            if w is None or w == u + (a,):
                continue
            if excl_dupl(dfa, w[:-1]).defect > pair.defect:
                earliest[key] = min(earliest.get(key, len(u) + 1), len(u) + 1)
    return {
        "replace": sum(1 for key, m in earliest.items() if m == len(least[key])),
        "move": sum(1 for key, m in earliest.items() if m > len(least[key])),
    }


def test_queue_takes_a_later_walks_better_word():
    # When a later walk finds a smaller word for a signature that waits, the
    # waiting entry is left behind, whether its word had the same length or
    # was longer.  These draws do both.
    for seed in (2, 7, 54, 119):
        dfa = random_dfa(4, 3, seed)
        jumped = grown_to(dfa, 3)
        finds = _late_finds(dfa, jumped)
        assert finds["replace"] and finds["move"], (seed, finds)
        assert_matches_reference(dfa, jumped)
        stepped = CanonicalWordSet(dfa)
        for cap in (1, 2, 3):
            stepped.grow(cap)
        assert stepped.entries == jumped.entries
