"""Randomized invariants: composition of signatures, defect algebra, and the
structural guarantees of both canonical walks; and a check that a failing
property test fails the run under the repository's warning filters."""

import math
import random
import subprocess
import sys
import textwrap
from pathlib import Path

from hypothesis import given, settings, strategies as st

from crautomata import (
    Dfa,
    StateSet,
    apply_word,
    defect,
    excl_dupl,
    extend_excl_dupl,
    preimage_table,
)
from crautomata.canonical import CanonicalWordSet, PairWordSet

LETTERS = tuple("abcdefgh")


def make_dfa(rng, n, m):
    delta = tuple(
        tuple(rng.randrange(n) for _ in range(m)) for _ in range(n)
    )
    return Dfa(n, LETTERS[:m], delta)


def test_signature_extension_matches_direct_computation():
    # one letter at a time, a signature extends without re-simulating the word
    rng = random.Random(0xC0FFEE)
    checked = 0
    while checked < 10_000:
        n = rng.randint(2, 10)
        m = rng.randint(1, 4)
        d = make_dfa(rng, n, m)
        table = preimage_table(d)
        for _ in range(25):
            u = tuple(rng.randrange(m) for _ in range(rng.randint(0, 6)))
            a = rng.randrange(m)
            extended = extend_excl_dupl(excl_dupl(d, u), d, a, table)
            assert extended == excl_dupl(d, u + (a,))
            checked += 1
    assert checked >= 10_000


@st.composite
def dfa_and_two_words(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 3))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(m)) for _ in range(n)
    )
    d = Dfa(n, LETTERS[:m], delta)
    u = tuple(draw(st.lists(st.integers(0, m - 1), max_size=8)))
    v = tuple(draw(st.lists(st.integers(0, m - 1), max_size=8)))
    return d, u, v


@settings(derandomize=True, max_examples=80, deadline=None)
@given(dfa_and_two_words(), st.integers(1, (1 << 8) - 1))
def test_apply_word_splits(bundle, raw_mask):
    d, u, v = bundle
    mask = raw_mask & ((1 << d.n) - 1)
    if mask == 0:
        mask = 1
    p = StateSet.from_mask(mask)
    assert apply_word(d, p, u + v) == apply_word(d, apply_word(d, p, u), v)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(dfa_and_two_words())
def test_defect_monotone_under_concatenation(bundle):
    d, u, v = bundle
    assert defect(d, u + v) >= max(defect(d, u), defect(d, v))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(dfa_and_two_words())
def test_signature_shape(bundle):
    d, u, _ = bundle
    pair = excl_dupl(d, u)
    image = apply_word(d, StateSet.full(d.n), u)
    assert len(image) + len(pair.excl) == d.n
    assert len(pair.excl) == defect(d, u)
    assert pair.excl.isdisjoint(image)
    assert pair.dupl.issubset(image)
    if pair.defect > 0:
        assert 1 <= len(pair.dupl) <= min(len(pair.excl), d.n - len(pair.excl))
    else:
        assert len(pair.dupl) == 0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(dfa_and_two_words(), st.integers(1, 3))
def test_canonical_set_closure_and_size(bundle, cap):
    # build_gamma's reading of the pair walk rests on its prefix closure too
    d, _, _ = bundle
    cap = min(cap, d.n - 1)
    for walk in (CanonicalWordSet, PairWordSet):
        cws = walk(d)
        cws.grow(cap)
        words = {w for w, _ in cws.entries}
        assert () in words
        for w in words:
            if w:
                assert w[:-1] in words, walk  # prefix of a kept word is kept
        for k in range(1, cap + 1):
            count = len(cws.signatures_of_defect(k))
            assert count < math.comb(d.n, k) ** 2
        for w, pair in cws.entries:
            whole = excl_dupl(d, w)
            if walk is CanonicalWordSet:
                assert pair == whole
            else:  # a pair entry's dupl set is the states it holds
                assert pair.excl == whole.excl
                assert pair.dupl.issubset(whole.dupl)


def test_failing_property_test_fails_the_run_without_aborting_it(tmp_path):
    # Hypothesis explains a failing example inside a pytest report hook.  A
    # warning it raises there, turned into an error by the repository's
    # filterwarnings, used to abort the whole run with INTERNALERROR (exit 3)
    # and skip every test after it.
    (tmp_path / "test_sample.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @settings(derandomize=True, max_examples=5, deadline=None)
            @given(st.integers())
            def test_fails(x):
                assert x < 0

            def test_after():
                pass
            """
        )
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(config), "--rootdir", str(tmp_path), "test_sample.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
