"""Constructive reachability: a word mapping Q onto any requested subset.

Works backwards from the target.  At each round, find the least hierarchy
level with an edge penetrating the current target (source cluster outside,
target cluster inside); such an edge is always freshly forced there, and its
word w lets the target be rewritten as the image of a strictly larger set:
the full w-preimage of one duplicate state plus one chosen preimage of every
other target state.  Each round reads the duplicate states and that larger
set off the preimage masks of w's transformation.  Rounds repeat until the
larger set is Q; the final word is the concatenation of the step words,
outermost round first.  One call reads each level's leafage masks and sorts
its edges once, and builds each distinct word's preimage masks once,
however many rounds use it.
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
    leaves = [
        [result.forest.leafage_mask(nid) for nid in level.vertices]
        for level in result.levels
    ]
    ordered = [sorted(level.graph.edges) for level in result.levels]
    preimages: dict[Word, list[int]] = {}
    current = p.mask
    rounds: list[ReachStep] = []
    while current != full:
        # ``out`` holds the states outside the target.  The edges are sorted,
        # so the first penetrating edge is the least one.
        out = ~current
        for level, leaf, edges in zip(result.levels, leaves, ordered):
            edge = next(
                (e for e in edges if leaf[e[0]] & out and not leaf[e[1]] & out), None
            )
            if edge is not None:
                break
        else:
            raise RuntimeError("no penetrating edge found; hierarchy is inconsistent")
        w = level.forcing.get(edge)
        if w is None:
            raise RuntimeError(
                "penetrating edge at the least level must be freshly forced"
            )
        pre = preimages.get(w)
        if pre is None:
            pre = preimages[w] = preimage_masks(transformation_of(dfa, w))
        source = _expand(pre, current, leaf[edge[1]])
        rounds.append(
            ReachStep(
                level.level,
                edge,
                w,
                StateSet.from_mask(source),
                StateSet.from_mask(current),
            )
        )
        current = source

    steps = list(reversed(rounds))
    word: Word = ()
    for step in steps:
        word += step.word
    return word, steps
