"""Constructive reachability: a word mapping Q onto any requested subset.

Works backwards from the target.  At each round, find the least hierarchy
level with an edge penetrating the current target (source cluster outside,
target cluster inside); such an edge is always freshly forced there, and its
word w lets the target be rewritten as the image of a strictly larger set:
the full w-preimage of one duplicate state plus one chosen preimage of every
other target state.  Each round applies w once, as a transformation, and
reads the duplicate states and that larger set off its preimage masks.
Rounds repeat until the larger set is Q; the final word is the
concatenation of the step words, outermost round first.
"""

from __future__ import annotations

from dataclasses import dataclass

# Nothing here calls excl_dupl, but bench/tracing.py counts its calls through
# this module's name, so the name stays bound.
from .automaton import (  # noqa: F401
    Dfa,
    StateSet,
    Transformation,
    Word,
    excl_dupl,
    iter_bits,
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


def _expand(trans: Transformation, p: int, allowed: int) -> int:
    """The mask of R with R . w = p, where ``trans`` is the transformation of w.

    The duplicate state is the smallest duplicate of w in ``p & allowed``.
    R is its full preimage together with the smallest-index preimage of
    every other state of p.  Raises ValueError when w excludes part of p or
    no duplicate state is allowed.
    """
    pre = [0] * len(trans)
    for q, image in enumerate(trans):
        pre[image] |= 1 << q
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
    return StateSet.from_mask(_expand(transformation_of(dfa, w), p.mask, allowed))


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
    current = p.mask
    rounds: list[ReachStep] = []
    while current != full:
        chosen = None
        for level in result.levels:
            inside = [
                result.forest.leafage_mask(nid) & ~current == 0
                for nid in level.vertices
            ]
            pens = sorted(
                e for e in level.graph.edges if not inside[e[0]] and inside[e[1]]
            )
            if pens:
                chosen = (level, pens[0])
                break
        if chosen is None:
            raise RuntimeError("no penetrating edge found; hierarchy is inconsistent")
        level, edge = chosen
        w = level.forcing.get(edge)
        if w is None:
            raise RuntimeError(
                "penetrating edge at the least level must be freshly forced"
            )
        target_leaf = result.forest.leafage_mask(level.vertices[edge[1]])
        source = _expand(transformation_of(dfa, w), current, target_leaf)
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
