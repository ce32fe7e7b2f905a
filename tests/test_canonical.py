import math
from itertools import product

import pytest

from crautomata import (
    ExclDuplPair,
    StateSet,
    cerny,
    e_family,
    excl_dupl,
    fixed_example,
    random_dfa,
    transition_monoid,
)
from crautomata.automaton import shortlex_key, transformation_signature
from crautomata.canonical import CanonicalWordSet


def grown_to(dfa, cap):
    cws = CanonicalWordSet(dfa)
    cws.grow(cap)
    return cws


def test_e5_defect1_is_the_five_letters():
    e5 = fixed_example("e5")
    entries = grown_to(e5, 1).signatures_of_defect(1)
    assert [w for w, _, _ in entries] == [(0,), (1,), (2,), (3,), (4,)]
    edges = {(em.bit_length() - 1, dm.bit_length() - 1) for _, em, dm in entries}
    assert edges == {(0, 1), (1, 0), (2, 0), (3, 4), (4, 3)}


def test_epsilon_entry_always_present():
    for dfa in (cerny(3), fixed_example("flipflop")):
        cws = grown_to(dfa, 1)
        empty = ExclDuplPair(StateSet(), StateSet())
        assert cws.entries[0] == ((), empty)  # shortlex-least overall
        assert cws.signatures_of_defect(0) == [((), 0, 0)]


def test_entries_shortlex_sorted_and_unique():
    cws = grown_to(fixed_example("e5"), 3)
    words = [w for w, _ in cws.entries]
    assert words == sorted(words, key=shortlex_key)
    keys = [p.key() for _, p in cws.entries]
    assert len(keys) == len(set(keys))
    # each per-defect list is the shortlex-ordered slice of the entries
    for k in range(4):
        listed = [w for w, _, _ in cws.signatures_of_defect(k)]
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
    from crautomata import Dfa

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
