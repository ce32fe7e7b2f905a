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
choice of L.  Each distinct word's preimage masks are built once per
hierarchy: the ``GammaResult`` keeps them for every later call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

# Nothing here calls excl_dupl, but bench/tracing.py counts its calls through
# this module's name, so the name stays bound.
from .automaton import (  # noqa: F401
    Dfa,
    StateSet,
    Word,
    excl_dupl,
    preimage_masks,
    transformation_of,
)
from .gamma import SUCCESS, GammaResult, _check_built_for


@dataclass(frozen=True)
class ReachStep:
    """One expansion round: ``target`` is recovered as ``source . word``."""

    level: int
    edge: tuple[int, int]
    word: Word
    source: StateSet
    target: StateSet


def expand_step(pre: list[int], p: int, allowed: int) -> int:
    """The mask of R with R . w = p, where ``pre`` is w's preimage masks.

    The duplicate state is the smallest duplicate of w in ``p & allowed``.
    R is its full preimage together with the smallest-index preimage of
    every other state of p, so |R| > |p|.  Raises ValueError when w
    excludes part of p or no allowed state of p is a duplicate of w; either
    signals a bug in level selection.
    """
    # One pass over p: the preimages of distinct states are disjoint, so
    # ORing the duplicate's full preimage over the lowest preimages gives R.
    lowest = dup_pre = 0
    rest = p
    while rest:
        bit = rest & -rest
        rest ^= bit
        m = pre[bit.bit_length() - 1]
        if not m:
            raise ValueError("the word excludes part of the target set")
        if not dup_pre and bit & allowed and m & (m - 1):
            dup_pre = m
        lowest |= m & -m
    if not dup_pre:
        raise ValueError("no allowed duplicate state in the target set")
    return lowest | dup_pre


def reach_word(
    dfa: Dfa, result: GammaResult, p: StateSet
) -> tuple[Word, list[ReachStep]]:
    """A word w with Q . w = p, plus the expansion trace that produced it.

    Steps are returned in application order: the first step starts from Q,
    each target equals the next source, and the last target is p.  The
    preimage masks of each forcing word read are kept in ``result``'s
    private memo for the result's lifetime, one list of n masks per
    distinct word, so later calls on the same hierarchy reuse them.
    """
    if result.outcome != SUCCESS:
        raise ValueError("reach words exist only when the hierarchy succeeded")
    _check_built_for(result, dfa)
    if not p:
        raise ValueError("the target subset must be non-empty")
    if p.mask >> dfa.n:
        raise ValueError("target subset contains states outside the automaton")

    full = (1 << dfa.n) - 1
    preimages = result._preimages
    levels = result.levels
    current = p.mask
    rounds: list[ReachStep] = []
    while current != full:
        out = ~current  # the states outside the target
        for level in levels:
            leafage = level.leafage
            for edge in level.forcing:
                if leafage[edge[0]] & out and not leafage[edge[1]] & out:
                    break
            else:
                continue
            break
        else:
            raise RuntimeError("no penetrating edge found; hierarchy is inconsistent")
        w = level.forcing[edge]
        pre = preimages.get(w)
        if pre is None:
            pre = preimages[w] = preimage_masks(transformation_of(dfa, w))
        source = expand_step(pre, current, leafage[edge[1]])
        before, after = StateSet.from_mask(source), StateSet.from_mask(current)
        rounds.append(ReachStep(level.level, edge, w, before, after))
        current = source

    steps = rounds[::-1]
    return tuple(chain.from_iterable(step.word for step in steps)), steps
