"""Brute-force ground truth at desk scale.

Everything here is deliberately exponential: powerset breadth-first search
over subset images and transformation-monoid closure.  Soft size guards keep
misuse loud; tie-breaks follow the shortlex order of the declared alphabet,
so all outputs are deterministic golden values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automaton import (
    Dfa,
    StateSet,
    Transformation,
    Word,
    apply_letter_mask,
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


def _check_guard(dfa: Dfa, max_states: int) -> None:
    if dfa.n > max_states:
        raise ValueError(
            f"powerset search refused: {dfa.n} states exceeds the limit of "
            f"{max_states} (raise max_states to override)"
        )


def powerset_reach_map(dfa: Dfa, max_states: int = DEFAULT_MAX_STATES) -> ReachMap:
    """Breadth-first search over subset images starting from the full set."""
    _check_guard(dfa, max_states)
    delta = dfa.delta
    full = (1 << dfa.n) - 1
    words: dict[int, Word] = {full: ()}
    queue = deque([full])
    while queue:
        mask = queue.popleft()
        w = words[mask]
        for a in range(dfa.m):
            image = apply_letter_mask(delta, mask, a)
            if image not in words:
                words[image] = w + (a,)
                queue.append(image)
    return ReachMap(words)


def is_cr_bruteforce(dfa: Dfa, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """True iff every non-empty subset of Q occurs as the image of Q."""
    return len(powerset_reach_map(dfa, max_states)) == (1 << dfa.n) - 1


def reset_threshold_exact(dfa: Dfa, max_states: int = DEFAULT_MAX_STATES) -> int | None:
    """Length of the shortest word collapsing Q to one state; None if none exists."""
    _check_guard(dfa, max_states)
    delta = dfa.delta
    full = (1 << dfa.n) - 1
    if dfa.n == 1:
        return 0
    lengths = {full: 0}
    queue = deque([full])
    while queue:
        mask = queue.popleft()
        depth = lengths[mask]
        for a in range(dfa.m):
            image = apply_letter_mask(delta, mask, a)
            if image not in lengths:
                if image & (image - 1) == 0:
                    return depth + 1
                lengths[image] = depth + 1
                queue.append(image)
    return None


def transition_monoid(
    dfa: Dfa,
    positive_defect_only: bool = False,
    max_size: int = DEFAULT_MAX_MONOID,
) -> Monoid:
    """Closure of the letter transformations under composition.

    The closure always starts from the identity (the empty word).  With
    ``positive_defect_only`` the result is filtered to transformations of
    defect at least 1 after the closure; since defect can only grow under
    composition, this equals the set of transformations of positive-defect
    words.
    """
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
                if len(elements) >= max_size:
                    raise ValueError(
                        f"monoid closure refused: more than {max_size} elements"
                    )
                elements[t2] = w + (a,)
                queue.append(t2)
    if positive_defect_only:
        elements = {
            t: w for t, w in elements.items() if len(set(t)) < dfa.n
        }
    return Monoid(elements)
