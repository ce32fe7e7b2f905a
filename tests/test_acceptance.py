"""Acceptance gate: one test per published claim the package must reproduce.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure report).  Values are exact; no tolerances apply anywhere."""

import math
import random
import time

from crautomata import (
    Dfa,
    SUCCESS,
    FAILURE,
    StateSet,
    apply_word,
    avoiding_length_bound,
    avoiding_word,
    build_gamma,
    cerny,
    cerny_bound,
    check_two_letter_properties,
    compress_length_bound,
    compress_word,
    cubic_reset_bound,
    decide_complete_reachability,
    defect,
    e_family,
    excl_dupl,
    extend_excl_dupl,
    fixed_example,
    halving_length_bound,
    halving_word,
    is_cr_bruteforce,
    is_strongly_connected,
    powerset_reach_map,
    preimage_table,
    random_dfa,
    reach_word,
    reset_threshold_exact,
    reset_word,
    strongly_connected_components,
    transition_monoid,
    unreachable_witness,
)
from crautomata.canonical import CanonicalWordSet

CORPUS_SEEDS = range(1000)


def corpus_dfa(seed):
    return random_dfa(3 + seed % 5, 1 + seed % 3, seed)


def report(num, description, fn):
    try:
        fn()
    except AssertionError:
        print(f"criterion {num:02d}: FAIL  {description}")
        raise
    print(f"criterion {num:02d}: PASS  {description}")


def leafages(result, level):
    return [
        sorted(result.forest.leafage(nid))
        for nid in result.levels[level - 1].vertices
    ]


def test_criterion_01():
    def body():
        e5 = fixed_example("e5")
        result = build_gamma(e5)
        lv1 = result.levels[0]
        # published edges are 1-based state pairs; vertices of level 1 are
        # the singletons in state order, so translating means subtracting 1
        one_based = {
            (src + 1, dst + 1) for src, dst in lv1.graph.edges
        }
        assert one_based == {(1, 2), (2, 1), (3, 1), (4, 5), (5, 4)}
        assert leafages(result, 2) == [[0, 1], [2], [3, 4]]
        assert len(result.levels[1].graph.edges) == 4
        assert is_strongly_connected(result.levels[2].graph)
        assert result.outcome == SUCCESS and result.terminal_step == 3

    report(1, "level hierarchy of the 5-state 8-letter example", body)


def test_criterion_02():
    def body():
        for n in range(2, 9):
            ok, result = decide_complete_reachability(cerny(n))
            assert ok, n
            if n <= 6:
                assert len(result.levels[0].graph.edges) == n * (n - 1), n

    report(2, "cerny family is completely reachable with full level-1 graphs", body)


def test_criterion_03():
    def body():
        for n in range(3, 7):
            assert reset_threshold_exact(cerny(n)) == (n - 1) ** 2, n

    report(3, "exact reset thresholds of the cerny family", body)


def test_criterion_04():
    def body():
        for n, k in ((4, 2), (5, 2), (5, 3), (6, 4), (7, 3), (8, 7)):
            result = build_gamma(e_family(n, k))
            assert result.outcome == SUCCESS, (n, k)
            assert result.terminal_step == k, (n, k)

    report(4, "parameterized family succeeds at exactly the design step", body)


def test_criterion_05():
    def body():
        for n in (4, 5, 6):
            bad = e_family(n, n - 1, drop_last_b=True)
            result = build_gamma(bad)
            assert result.outcome == FAILURE and result.terminal_step == n - 1
            witness = unreachable_witness(result, bad)
            assert witness == StateSet([n - 1])
            assert powerset_reach_map(bad).word_for(witness) is None

    report(5, "dropping the last letter breaks reachability with witness", body)


def test_criterion_06():
    def body():
        started = time.perf_counter()
        e12 = fixed_example("e12")
        result = build_gamma(e12)
        part = strongly_connected_components(result.levels[0].graph)
        assert set(part.clusters) == {
            tuple(range(0, 12, 2)),
            tuple(range(1, 12, 2)),
        }
        assert result.outcome == SUCCESS and result.terminal_step == 2
        assert len(powerset_reach_map(e12)) == 4095
        assert time.perf_counter() - started < 1.0

    report(6, "12-state example: parity clusters, success at 2, full map", body)


def test_criterion_07():
    def body():
        monoid = transition_monoid(fixed_example("e5"))
        singular = [t for t in monoid.elements if len(set(t)) < 5]
        assert len(singular) == 30 == 2**5 - 2

    report(7, "singular part of the 5-state example's monoid has 30 elements", body)


def test_criterion_08():
    def body():
        for seed in CORPUS_SEEDS:
            d = corpus_dfa(seed)
            got, _ = decide_complete_reachability(d)
            assert got == is_cr_bruteforce(d), seed

    report(8, "decision agrees with the powerset oracle on 1000 random DFAs", body)


def test_criterion_09():
    def body():
        for name in ("e5", "e12"):
            d = fixed_example(name)
            result = build_gamma(d)
            q = StateSet.full(d.n)
            for mask in range(1, 1 << d.n):
                p = StateSet.from_mask(mask)
                word, steps = reach_word(d, result, p)
                assert apply_word(d, q, word) == p, (name, mask)
                for step in steps:
                    assert defect(d, step.word) <= result.terminal_step

    report(9, "reachability words reproduce all subsets of both examples", body)


def _cr_random_samples(count):
    picked = []
    for seed in CORPUS_SEEDS:
        d = corpus_dfa(seed)
        if decide_complete_reachability(d)[0]:
            picked.append(d)
            if len(picked) == count:
                break
    return picked


def test_criterion_10():
    def body():
        fixtures = [cerny(n) for n in range(2, 9)]
        fixtures.append(fixed_example("e5"))
        fixtures.append(fixed_example("e12"))
        fixtures.extend(_cr_random_samples(40))
        for d in fixtures:
            n = d.n
            for q in range(n):
                w = avoiding_word(d, q)
                if n == 1:
                    assert w is None
                    continue
                assert w is not None and len(w) <= avoiding_length_bound(n)
                assert q not in apply_word(d, StateSet.full(n), w)
            if n >= 2:
                hw = halving_word(d)
                image = apply_word(d, StateSet.full(n), hw)
                assert len(image) <= n // 2
                assert len(hw) <= halving_length_bound(n)
                for k in range(2, n + 1):
                    p = StateSet(range(k))
                    cw = compress_word(d, p)
                    assert cw is not None
                    assert len(cw) <= compress_length_bound(n, k)
                    assert len(apply_word(d, p, cw)) < k
            rep = reset_word(d)
            assert len(apply_word(d, StateSet.full(n), rep.word)) == 1
            assert rep.length <= cubic_reset_bound(n)

    report(10, "avoiding/halving/compress/reset words stay within bounds", body)


def test_criterion_11():
    def body():
        suite = [cerny(n) for n in range(2, 9)]
        for seed in CORPUS_SEEDS:
            d = corpus_dfa(seed)
            if d.m == 2 and d.n <= 8 and decide_complete_reachability(d)[0]:
                suite.append(d)
        assert len(suite) > len(range(2, 9))  # corpus contributed something
        for d in suite:
            rep = check_two_letter_properties(d)
            assert all(rep.single_cycle)  # permutation letters are n-cycles
            assert rep.reset_threshold is not None
            assert rep.reset_threshold <= cerny_bound(d.n)

    report(11, "two-letter structure: permutation letters cycle, threshold bound", body)


def test_criterion_12():
    def body():
        rng = random.Random(2024)
        checked = 0
        while checked < 10_000:
            n = rng.randint(2, 8)
            m = rng.randint(1, 3)
            delta = tuple(
                tuple(rng.randrange(n) for _ in range(m)) for _ in range(n)
            )
            d = Dfa(n, tuple("abc")[:m], delta)
            table = preimage_table(d)
            for _ in range(25):
                u = tuple(rng.randrange(m) for _ in range(rng.randint(0, 6)))
                a = rng.randrange(m)
                assert extend_excl_dupl(
                    excl_dupl(d, u), d, a, table
                ) == excl_dupl(d, u + (a,))
                checked += 1
        builds = [
            (cerny(5), 4),
            (fixed_example("e5"), 3),
            (random_dfa(6, 2, 5), 3),
            (random_dfa(7, 3, 17), 2),
        ]
        for d, cap in builds:
            cws = CanonicalWordSet(d)
            cws.grow(cap)
            words = {w for w, _ in cws.entries}
            for w in words:
                if w:
                    assert w[:-1] in words
            for k in range(1, cap + 1):
                assert len(cws.signatures_of_defect(k)) < math.comb(d.n, k) ** 2

    report(12, "composition, prefix closure, and size bound invariants hold", body)
