"""Constructive reachability: a word mapping Q onto any requested subset.

Works backwards from the target.  An edge penetrates the target when its
source cluster meets the outside and its target cluster lies inside.  Each
round takes the least level with a penetrating edge, and there the edge
whose forcing word w is shortest, then shortlex-least, ties broken by edge.
The target is the w-image of a strictly larger set: the full w-preimage of
one duplicate state plus one preimage of every other target state, read off
the preimage masks of w's transformation.  Rounds repeat until that set is
Q; the word is the concatenation of the step words, outermost round first.

``build_gamma`` inserts ``forcing`` in (len(w), w, edge) order, so a round
takes a level's first penetrating edge and nothing is sorted.  The scan
reads edges and the levels' leafage masks only; ``forcing`` holds words as
shortlex codes, and the round builds the chosen edge's word alone.  Inherited
edges need no scan: at the least penetrating level L, every penetrating
edge is freshly forced.  An inherited C -> D comes from a level-(L-1) edge
c -> d with d inside the target.  Either c meets the outside, or the
strongly connected C has a path to c from a vertex that does, and an edge
of that path penetrates; so level L-1 has a penetrating edge, against the
choice of L.  Each distinct word's preimage masks are built once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

# Nothing here calls excl_dupl, but bench/tracing.py counts its calls through
# this module's name, so the name stays bound.
from .automaton import (  # noqa: F401
    Dfa,
    StateSet,
    Word,
    excl_dupl,
    iter_bits,
    preimage_masks,
    transformation_of,
)
from .gamma import GammaResult, SUCCESS


@dataclass(frozen=True)
class ReachStep:
    """One expansion round: ``target`` is recovered as ``source . word``."""

    level: int
    edge: tuple[int, int]
    word: Word
    source: StateSet
    target: StateSet


def _expand(pre: list[int], p: int, allowed: int) -> int:
    """The mask of R with R . w = p, where ``pre`` is w's preimage masks.

    The duplicate state is the smallest duplicate of w in ``p & allowed``.
    R is its full preimage together with the smallest-index preimage of
    every other state of p.  Raises ValueError when w excludes part of p or
    no duplicate state is allowed.
    """
    if any(not pre[r] for r in iter_bits(p)):
        raise ValueError("the word excludes part of the target set")
    dup = next((r for r in iter_bits(p & allowed) if pre[r] & (pre[r] - 1)), None)
    if dup is None:
        raise ValueError("dup_state must be a duplicate state inside the target set")
    mask = pre[dup]
    for r in iter_bits(p & ~(1 << dup)):
        mask |= pre[r] & -pre[r]
    return mask


def expand_step(dfa: Dfa, p: StateSet, w: Word, dup_state: int) -> StateSet:
    """The preimage set R with R . w = p and |R| > |p|.

    R is the full w-preimage of ``dup_state`` together with the
    smallest-index preimage of every other state of p.  Preconditions (the
    word excludes nothing of p; ``dup_state`` is a duplicate state of w lying
    in p) are enforced because their failure signals a bug in level
    selection.
    """
    if p.mask >> dfa.n:
        raise ValueError("target set contains states outside the automaton")
    allowed = 1 << dup_state if dup_state in p else 0
    pre = preimage_masks(transformation_of(dfa, w))
    return StateSet.from_mask(_expand(pre, p.mask, allowed))


def reach_word(
    dfa: Dfa, result: GammaResult, p: StateSet
) -> tuple[Word, list[ReachStep]]:
    """A word w with Q . w = p, plus the expansion trace that produced it.

    Steps are returned in application order: the first step starts from Q,
    each target equals the next source, and the last target is p.
    """
    if result.outcome != SUCCESS:
        raise ValueError("reach words exist only when the hierarchy succeeded")
    if not p:
        raise ValueError("the target subset must be non-empty")
    if p.mask >> dfa.n:
        raise ValueError("target subset contains states outside the automaton")

    full = (1 << dfa.n) - 1
    preimages: dict[Word, list[int]] = {}
    current = p.mask
    rounds: list[ReachStep] = []
    while current != full:
        out = ~current  # the states outside the target
        found = next(
            (
                (level, e)
                for level in result.levels
                for e in level.forcing
                if level.leafage[e[0]] & out and not level.leafage[e[1]] & out
            ),
            None,
        )
        if found is None:
            raise RuntimeError("no penetrating edge found; hierarchy is inconsistent")
        level, edge = found
        w = level.forcing[edge]
        pre = preimages.get(w)
        if pre is None:
            pre = preimages[w] = preimage_masks(transformation_of(dfa, w))
        source = _expand(pre, current, level.leafage[edge[1]])
        before, after = StateSet.from_mask(source), StateSet.from_mask(current)
        rounds.append(ReachStep(level.level, edge, w, before, after))
        current = source

    steps = rounds[::-1]
    return tuple(a for step in steps for a in step.word), steps
