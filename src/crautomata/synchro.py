"""Synchronizing words for completely reachable automata.

The reset word is assembled in two phases.  The halving phase repeatedly
prepends a shortest avoiding word: if state p of the current image has the
single preimage q under the suffix built so far, any word whose image misses
q knocks p out of the image.  This drives the image size to at most n/2 in
at most n/2 - 1 rounds of cost at most n each.  The compression phase then
appends shortest image-shrinking words until a single state remains.  On
completely reachable input the total length stays within a cubic bound that
is roughly 7n^3/48, proven unconditionally here.  It is never below the
Cerny bound (n-1)^2: the two agree for n <= 3, and from n = 4 on the cubic
bound is larger (11 against 9 at n = 4).

Both searches return the shortest word, shortlex-least among those, without
walking images of the whole state set.  A word shrinks P exactly when it
merges some pair of P, so compressing words are read off one table of pair
distances per automaton: a breadth-first search backwards on the pair graph
from the merged pairs, O(m n^2), as in Eppstein's greedy synchronization.
A word u avoids q exactly when the preimage {q} . u^-1 is empty, so avoiding
words come from a breadth-first search backwards over preimage sets of {q}.
The pair search steps backwards through the letter-preimage masks of
``automaton.preimage_table``; the avoiding search reads a set's preimages
under every letter at once from ``automaton.packed_preimages``, one lookup
per 8-state chunk.  Either way the word is then rebuilt from the front,
each letter the first that leaves a completion of the remaining length;
the avoiding rebuild and the halving phase's first letter read images
from ``automaton.packed_images`` the same way.  The pair table is
polynomial.  The backward preimage search has no proven polynomial bound
on general automata: nothing bounds the number of distinct preimage sets
it meets by a polynomial in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

# Nothing here calls excl_dupl, but bench/tracing.py counts its calls through
# this module's name, so the name stays bound.
from .automaton import (  # noqa: F401
    Dfa,
    StateSet,
    Word,
    apply_word_mask,
    excl_dupl,
    iter_bits,
    packed_images,
    packed_preimages,
    preimage_table,
    step_all,
    transformation_of,
)
from .oracle import DEFAULT_MAX_STATES, reset_threshold_exact


def cerny_bound(n: int) -> int:
    """(n-1)^2, the conjectured tight reset length for synchronizing automata."""
    if n < 1:
        raise ValueError(f"state count must be at least 1, got {n}")
    return (n - 1) ** 2


def cubic_reset_bound(n: int) -> int:
    """Guaranteed reset length for completely reachable automata.

    Exact integer arithmetic: both numerators are divisible by 48 for the
    matching parity, so the floor division is exact.
    """
    if n < 1:
        raise ValueError(f"state count must be at least 1, got {n}")
    if n % 2 == 0:
        return (7 * n**3 + 18 * n**2 - 64 * n + 48) // 48
    return (7 * n**3 + 15 * n**2 - 55 * n + 33) // 48


def avoiding_length_bound(n: int) -> int:
    """Avoiding-word length bound for completely reachable automata.

    With n >= 2 states every state is avoidable within n letters.  With one
    state no word avoids it, and ``avoiding_word`` returns None.
    """
    if n < 1:
        raise ValueError(f"state count must be at least 1, got {n}")
    return n


def halving_length_bound(n: int) -> int:
    """One max-defect letter plus at most ceil(n/2)-1 avoiding words of length n."""
    if n < 1:
        raise ValueError(f"state count must be at least 1, got {n}")
    return n * ((n + 1) // 2 - 1) + 1


def compress_length_bound(n: int, k: int) -> int:
    """Shrinking a k-subset of a completely reachable automaton costs at most C(n-k+2, 2)."""
    if n < 1:
        raise ValueError(f"state count must be at least 1, got {n}")
    if not 2 <= k <= n:
        raise ValueError(f"subset size {k} out of range 2..{n}")
    return math.comb(n - k + 2, 2)


# Cached, not passed in: bench/tracing.py counts compress_word calls by name.
@lru_cache(maxsize=8)
def _pair_distances(dfa: Dfa) -> tuple[int, ...]:
    """Length of the shortest word merging x and y, stored at x * n + y.

    0 on the diagonal and -1 where no word merges the pair.  Breadth-first
    search backwards on the pair graph from the merged pairs: {x', y'} is
    one letter further from merging than {x, y} when x' a = x and y' a = y.
    Each pair is expanded once, so the cost is O(m n^2).
    """
    n = dfa.n
    pre = [[tuple(iter_bits(mask)) for mask in col] for col in preimage_table(dfa)]
    dist = [-1] * (n * n)
    for z in range(n):
        dist[z * n + z] = 0
    frontier = [(z, z) for z in range(n)]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x, y in frontier:
            for col in pre:
                for x2 in col[x]:
                    for y2 in col[y]:
                        if dist[x2 * n + y2] < 0:
                            dist[x2 * n + y2] = dist[y2 * n + x2] = d
                            nxt.append((x2, y2))
        frontier = nxt
    return tuple(dist)


def _avoiding_levels(dfa: Dfa, q: int) -> list[list[int]] | None:
    """Levels of the backward search from {q}, or None if it never empties.

    Level j holds the preimage sets {q} . v^-1 over words v of length j
    that no earlier level holds.  The search stops at the first empty
    preimage; the levels before it are returned, so their count is the
    length of the shortest avoiding word.
    """
    packed = packed_preimages(dfa)
    n, m = dfa.n, dfa.m
    full = (1 << n) - 1
    levels = [[1 << q]]
    seen = {1 << q}
    while levels[-1]:
        nxt = []
        for s in levels[-1]:
            pres = step_all(packed, s)
            for a in range(m):
                t = pres >> a * n & full
                if not t:
                    return levels
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        levels.append(nxt)
    return None


def avoiding_word(dfa: Dfa, q: int) -> Word | None:
    """Shortest (then shortlex-least) word u with q not in Q . u, or None.

    u avoids q exactly when the preimage {q} . u^-1 is empty, so the length
    comes from a breadth-first search backwards over preimage sets of {q}.
    The word is then rebuilt from the front: each letter is the first whose
    image of Q misses some preimage set of the remaining length.  Completely
    reachable automata with at least two states always admit one of length
    at most n.
    """
    if not 0 <= q < dfa.n:
        raise ValueError(f"state index {q} out of range 0..{dfa.n - 1}")
    levels = _avoiding_levels(dfa, q)
    if levels is None:
        return None
    packed = packed_images(dfa)
    n = dfa.n
    full = (1 << n) - 1
    word = []
    image = full
    for targets in reversed(levels):
        images = step_all(packed, image)
        for a in range(dfa.m):
            nxt = images >> a * n & full
            if any(not nxt & t for t in targets):
                break
        word.append(a)
        image = nxt
    return tuple(word)


def compress_word(dfa: Dfa, p: StateSet) -> Word | None:
    """Shortest (then shortlex-least) word shrinking the image of p, or None.

    A word shrinks p exactly when it merges some pair of p, so the length is
    the least pair distance over p.  The word is rebuilt from the front,
    following the pairs that can still merge in the remaining length: each
    letter is the first that takes one of them one step closer.  Singletons
    cannot shrink, so they yield None straight away.
    """
    if not p:
        raise ValueError("cannot compress an empty state set")
    if p.mask >> dfa.n:
        raise ValueError("state set contains states outside the automaton")
    n = dfa.n
    dist = _pair_distances(dfa)
    pairs = [(x, y) for x, y in combinations(p, 2) if dist[x * n + y] > 0]
    if not pairs:
        return None
    length = min(dist[x * n + y] for x, y in pairs)
    live = [(x, y) for x, y in pairs if dist[x * n + y] == length]
    delta = dfa.delta
    word = []
    for rest in range(length - 1, -1, -1):
        for a in range(dfa.m):
            nxt = {
                (delta[x][a], delta[y][a])
                for x, y in live
                if dist[delta[x][a] * n + delta[y][a]] == rest
            }
            if nxt:
                break
        word.append(a)
        live = nxt
    return tuple(word)


def halving_word(dfa: Dfa) -> Word:
    """A word taking the full state set to at most floor(n/2) states.

    Start from a letter of maximal defect (first in the alphabet on ties).
    While the image P is still larger than n/2, pick the smallest state p of
    P with a unique preimage q under the current word, prepend a shortest
    word avoiding q, and repeat; each round removes at least p from the
    image.  Requires some letter of positive defect, and complete
    reachability for the avoiding words to exist.
    """
    n = dfa.n
    full = (1 << n) - 1
    images = step_all(packed_images(dfa), full)
    letter = min(range(dfa.m), key=lambda a: (images >> a * n & full).bit_count())
    if images >> letter * n & full == full:
        raise ValueError(
            "every letter is a permutation, so no word can shrink the image"
        )
    w: Word = (letter,)
    trans = tuple(row[letter] for row in dfa.delta)
    avoiding: dict[int, Word | None] = {}
    while True:
        counts = [0] * dfa.n
        for x in trans:
            counts[x] += 1
        if 2 * (dfa.n - counts.count(0)) <= dfa.n:
            return w
        # An image larger than n/2 always has a state with a single preimage.
        q = trans.index(counts.index(1))
        if q not in avoiding:
            avoiding[q] = avoiding_word(dfa, q)
        u = avoiding[q]
        if u is None:
            raise ValueError(
                f"state {q} occurs in every image; "
                "the automaton is not completely reachable"
            )
        w = u + w
        trans = tuple(trans[x] for x in transformation_of(dfa, u))


@dataclass(frozen=True)
class ResetReport:
    """A reset word together with the per-phase lengths and the bounds hit."""

    n: int
    word: Word
    halving_length: int
    compression_lengths: tuple[int, ...]
    cerny_bound: int
    cubic_bound: int

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def within_cerny(self) -> bool:
        return self.length <= self.cerny_bound

    @property
    def within_cubic(self) -> bool:
        return self.length <= self.cubic_bound


def reset_word(dfa: Dfa) -> ResetReport:
    """A synchronizing word built as halving followed by compressions.

    Intended for completely reachable automata; other inputs may raise
    ValueError when an avoiding or compressing word fails to exist.
    """
    if dfa.n == 1:
        return ResetReport(1, (), 0, (), cerny_bound(1), cubic_reset_bound(1))
    w = halving_word(dfa)
    halving_length = len(w)
    compression_lengths: list[int] = []
    full = (1 << dfa.n) - 1
    image = apply_word_mask(dfa, full, w)
    while image.bit_count() > 1:
        u = compress_word(dfa, StateSet.from_mask(image))
        if u is None:
            raise ValueError(
                "image cannot be compressed further; the automaton is not synchronizing"
            )
        compression_lengths.append(len(u))
        w = w + u
        image = apply_word_mask(dfa, image, u)
    return ResetReport(
        dfa.n,
        w,
        halving_length,
        tuple(compression_lengths),
        cerny_bound(dfa.n),
        cubic_reset_bound(dfa.n),
    )


@dataclass(frozen=True)
class TwoLetterReport:
    """Structural facts specific to two-letter automata."""

    n: int
    permutation_letters: tuple[int, ...]
    single_cycle: tuple[bool, ...]
    reset_threshold: int | None
    cerny_bound: int

    @property
    def within_cerny(self) -> bool | None:
        if self.reset_threshold is None:
            return None
        return self.reset_threshold <= self.cerny_bound


def check_two_letter_properties(
    dfa: Dfa, max_states: int = DEFAULT_MAX_STATES
) -> TwoLetterReport:
    """Permutation-letter structure and the exact reset threshold.

    For completely reachable two-letter automata with n >= 2, a permutation
    letter is necessarily a single n-cycle, and the exact reset threshold
    stays within (n-1)^2.  The threshold is computed by the powerset oracle
    and is None when no reset word exists.
    """
    if dfa.m != 2:
        raise ValueError(f"expected a two-letter automaton, got {dfa.m} letters")
    perm_letters = []
    cycles = []
    for a, t in enumerate(zip(*dfa.delta)):
        if len(set(t)) != dfa.n:
            continue
        perm_letters.append(a)
        orbit = 1
        q = t[0]
        while q != 0:
            q = t[q]
            orbit += 1
        cycles.append(orbit == dfa.n)
    threshold = reset_threshold_exact(dfa, max_states)
    return TwoLetterReport(
        dfa.n,
        tuple(perm_letters),
        tuple(cycles),
        threshold,
        cerny_bound(dfa.n),
    )
