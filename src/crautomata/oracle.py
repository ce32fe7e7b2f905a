"""Brute-force ground truth at desk scale.

Everything here is deliberately exponential: powerset searches over subset
images and transformation-monoid closure.  Soft size guards keep misuse
loud.  The searches that return words or lengths (``powerset_reach_map``,
``reset_threshold_exact``, ``transition_monoid``) are breadth-first, with
tie-breaks in the shortlex order of the declared alphabet, so all their
outputs are deterministic golden values.  ``is_cr_bruteforce`` needs only a
yes or no, so it builds no words and expands image sets in order of
non-increasing size instead.  Stopping it at the first size class with a
subset missing is exact: an image is never larger than its set, so once
every set of size s or more has been expanded, no later step can reach a
new set of size s.  The powerset searches read all m images of a subset at
once from ``automaton.packed_images``, one lookup per 8-state chunk.

Q is the exception in ``is_cr_bruteforce``: it is the one set that search
always expands, and on most automata it rejects it is the only one, since
without a letter of defect 1 no (n-1)-set is reached.  So Q's images come
from ``automaton.images_of_full``, n·m bit-ORs over the letter columns,
and the chunk table is filled only when a second set is expanded.  The
other searches almost never stop at Q and use the table from the start.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb

from .automaton import (
    Dfa,
    StateSet,
    Transformation,
    Word,
    _is_int,
    images_of_full,
    packed_images,
    step_all,
)

DEFAULT_MAX_STATES = 22
DEFAULT_MAX_MONOID = 10**6


@dataclass(frozen=True)
class ReachMap:
    """Shortest (then shortlex-least) word from Q to each reachable subset."""

    words: dict[int, Word]

    def __len__(self) -> int:
        return len(self.words)

    def word_for(self, p: StateSet) -> Word | None:
        return self.words.get(p.mask)


@dataclass(frozen=True)
class Monoid:
    """Distinct word-induced transformations with shortlex-least witnesses."""

    elements: dict[Transformation, Word]

    def __len__(self) -> int:
        return len(self.elements)


def _check_guard(dfa: Dfa, max_states: int, search: str) -> None:
    """Refuse automata over ``max_states`` states, naming the search to call
    with a larger limit, since a caller may reach it through another function."""
    if not _is_int(max_states):
        raise ValueError(f"max_states must be an integer, got {max_states!r}")
    if dfa.n > max_states:
        raise ValueError(
            f"powerset search refused: {dfa.n} states exceeds the limit of "
            f"{max_states} (pass a larger max_states to {search} to override)"
        )


def powerset_reach_map(dfa: Dfa, max_states: int = DEFAULT_MAX_STATES) -> ReachMap:
    """Breadth-first search over subset images starting from the full set."""
    _check_guard(dfa, max_states, "powerset_reach_map")
    packed = packed_images(dfa)
    n, m = dfa.n, dfa.m
    full = (1 << n) - 1
    words: dict[int, Word] = {full: ()}
    queue = deque([full])
    while queue:
        mask = queue.popleft()
        w = words[mask]
        images = step_all(packed, mask)
        for a in range(m):
            image = images >> a * n & full
            if image not in words:
                words[image] = w + (a,)
                queue.append(image)
    return ReachMap(words)


def is_cr_bruteforce(dfa: Dfa, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """True iff every non-empty subset of Q occurs as the image of Q.

    Expands sets by non-increasing size and answers False as soon as a size
    class is left with fewer than C(n, s) sets, since no smaller set's image
    can add to it.  Q is always expanded, and on most rejected automata it
    is the only set expanded, so its images come from the letter columns
    and ``packed_images`` is filled only when a second set is expanded.
    """
    _check_guard(dfa, max_states, "is_cr_bruteforce")
    n, m = dfa.n, dfa.m
    full = (1 << n) - 1
    seen = {full}
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    by_size[n].append(full)
    packed = None
    for size in range(n, 0, -1):
        # An image of the size being walked joins this list, so the loop
        # reaches it before the count below is taken.
        level = by_size[size]
        for mask in level:
            if mask == full:
                images = images_of_full(dfa)
            else:
                packed = packed or packed_images(dfa)
                images = step_all(packed, mask)
            for a in range(m):
                image = images >> a * n & full
                if image not in seen:
                    seen.add(image)
                    by_size[image.bit_count()].append(image)
        if len(level) < comb(n, size):
            return False
    return True


def reset_threshold_exact(dfa: Dfa, max_states: int = DEFAULT_MAX_STATES) -> int | None:
    """Length of the shortest word collapsing Q to one state; None if none exists."""
    _check_guard(dfa, max_states, "reset_threshold_exact")
    n, m = dfa.n, dfa.m
    full = (1 << n) - 1
    if n == 1:
        return 0
    packed = packed_images(dfa)
    lengths = {full: 0}
    queue = deque([full])
    while queue:
        mask = queue.popleft()
        depth = lengths[mask]
        images = step_all(packed, mask)
        for a in range(m):
            image = images >> a * n & full
            if image not in lengths:
                if image & (image - 1) == 0:
                    return depth + 1
                lengths[image] = depth + 1
                queue.append(image)
    return None


def transition_monoid(dfa: Dfa) -> Monoid:
    """Closure of the letter transformations under composition.

    The closure always starts from the identity (the empty word), so the
    result holds every transformation of a word; its singular elements,
    those of defect at least 1, are the transformations of words of positive
    defect.  The closure is refused once it would pass
    ``DEFAULT_MAX_MONOID`` elements, read at each call.
    """
    limit = DEFAULT_MAX_MONOID
    delta = dfa.delta
    identity: Transformation = tuple(range(dfa.n))
    elements: dict[Transformation, Word] = {identity: ()}
    queue = deque([identity])
    while queue:
        t = queue.popleft()
        w = elements[t]
        for a in range(dfa.m):
            t2 = tuple(delta[q][a] for q in t)
            if t2 not in elements:
                if len(elements) >= limit:
                    raise ValueError(
                        f"monoid closure refused: more than {limit} elements"
                    )
                elements[t2] = w + (a,)
                queue.append(t2)
    return Monoid(elements)
