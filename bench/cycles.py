"""Seeded cycle-plus-idempotent automata with a known answer.

Letter ``b`` is a single n-cycle through a random ordering of the states and
letter ``a`` sends one state x to the state y lying d steps further along
that cycle, fixing every other state.  ``cerny(n)`` is the member with the
identity ordering, x = 0 and d = 1.

The answer is known by construction.  The defect-1 words are exactly
``a b^i`` up to a permutation prefix, so the level-1 graph has the edges
(x b^i, y b^i): every state is joined to the one d cycle steps ahead.  Its
strongly connected components are the g = gcd(d, n) residue classes of n/g
states each.  With g = 1 the automaton is completely reachable and the
hierarchy succeeds at step 1.  With g > 1 it is not.  Leafages only grow,
so FAILURE (every cluster's leafage at most k after step k) cannot come
before step n/g; it comes exactly there on every member tried, up to n = 14.
The benchmark's tests check both rules against the powerset oracle and
``build_gamma`` for every (n, d) with n <= 10.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

LETTERS = ("a", "b")


@dataclass(frozen=True)
class CycleIdempotent:
    """One generated automaton with the facts that fix its answers."""

    n: int
    d: int
    order: tuple[int, ...]
    delta: tuple[tuple[int, ...], ...]

    @property
    def gcd(self) -> int:
        return math.gcd(self.d, self.n)

    @property
    def completely_reachable(self) -> bool:
        return self.gcd == 1

    @property
    def terminal_step(self) -> int:
        return 1 if self.gcd == 1 else self.n // self.gcd


def cycle_idempotent(n: int, d: int, rng: random.Random) -> CycleIdempotent:
    """A random labelling of the n-cycle plus the idempotent x -> x + d."""
    if n < 2 or not 1 <= d < n:
        raise ValueError(f"need n >= 2 and 1 <= d < n, got n={n}, d={d}")
    order = list(range(n))
    rng.shuffle(order)
    start = rng.randrange(n)
    x, y = order[start], order[(start + d) % n]
    succ = [0] * n
    for i, q in enumerate(order):
        succ[q] = order[(i + 1) % n]
    delta = tuple((y if q == x else q, succ[q]) for q in range(n))
    return CycleIdempotent(n, d, tuple(order), delta)
