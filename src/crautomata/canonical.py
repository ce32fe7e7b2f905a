"""Shortlex enumeration of canonical words, one per (excl, dupl) signature.

A word is canonical when it is the shortlex-least word with its signature.
Every prefix of a canonical word is canonical (the signature of an extension
depends only on the signature of what it extends), so the canonical words
form a tree, walked here from the empty word.  A word whose signature has
been seen before is rejected together with its whole subtree.

Defect never decreases along extensions, so the walk goes one defect at a
time.  Raising the cap to k walks only the defect-k words that wait in the
frontier, shortest length first: every defect-k word of a given length
comes from a kept word of defect at most k one letter shorter, so the whole
batch is waiting when its length is reached, and sorting it puts it in
shortlex order.

``_best`` maps each signature, as the int ``excl << n | dupl``, to the
least word found for it so far.  A child is queued at its own length unless
``_best`` already holds a word for its signature that is shorter, or of the
same length and smaller; a queued child becomes the signature's best word
and overwrites any entry of that length.  When a lower defect's walk queued
the signature further out, the child leaves that longer entry behind, and
the entry is skipped when its batch comes up because it is no longer the
signature's best word.  So a word taken off the frontier and not skipped is
least with its signature.

A child's signature comes from its parent's alone.  With alive = Q \\ excl,
the child's excl is the complement of alive·a, and its dupl holds the
states hit twice from alive plus the image of dupl (dupl lies inside
alive, so "the a-preimage of q meets dupl" is "q lies in dupl·a").  Both
images are read eight states at a time: ``_memo[a]`` maps ``chunk << 8 |
byte`` to the pair (image, states hit twice) under a of the states that
the byte marks in that chunk, filled the first time a walk needs it.
Across chunks a state is hit twice when two chunks both reach it.
``automaton.extend_excl_dupl`` is the per-state statement of the same
rule.

Kept words are stored in one list per defect, filled by the one walk of
that defect, already in shortlex order.
"""

from __future__ import annotations

from .automaton import Dfa, ExclDuplPair, StateSet, Word, shortlex_key

# (word, excl mask, dupl mask)
_Entry = tuple[Word, int, int]


def _chunk_image(
    delta: tuple[tuple[int, ...], ...], a: int, cb: int
) -> tuple[int, int]:
    """(image, states hit twice) under a of the states that ``cb`` marks."""
    image = twice = 0
    byte, p = cb & 255, (cb >> 8) << 3
    while byte:
        if byte & 1:
            t = 1 << delta[p][a]
            twice |= image & t
            image |= t
        byte >>= 1
        p += 1
    return image, twice


def _chunks(mask: int) -> list[int]:
    """``chunk << 8 | byte`` for each non-zero byte of ``mask``."""
    out = []
    c = 0
    while mask:
        if mask & 255:
            out.append(c | mask & 255)
        mask >>= 8
        c += 256
    return out


class CanonicalWordSet:
    """Shortlex-least witnesses for every realizable signature up to a defect cap."""

    def __init__(self, dfa: Dfa):
        self._n = dfa.n
        self._delta = dfa.delta
        self._memo: list[dict[int, tuple[int, int]]] = [{} for _ in range(dfa.m)]
        # _best[excl << n | dupl] is the least word found with that signature.
        self._best: dict[int, Word] = {0: ()}
        # _by_defect[k] holds the kept words of defect k in shortlex order.
        self._by_defect: list[list[_Entry]] = []
        # _waiting[k][length] maps signatures of defect k to the words queued
        # for them at that length; an entry whose word is no longer in _best
        # is stale.
        self._waiting: dict[int, dict[int, dict[int, Word]]] = {
            0: {0: dict(self._best)}
        }
        self._walk_next_defect()

    @property
    def defect_cap(self) -> int:
        return len(self._by_defect) - 1

    @property
    def entries(self) -> list[tuple[Word, ExclDuplPair]]:
        """Every kept word with its signature, in shortlex order."""
        merged = sorted(
            (e for entries in self._by_defect for e in entries),
            key=lambda e: shortlex_key(e[0]),
        )
        return [
            (w, ExclDuplPair(StateSet.from_mask(em), StateSet.from_mask(dm)))
            for w, em, dm in merged
        ]

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._by_defect)

    def grow(self, defect_cap: int) -> None:
        """Raise the defect cap, walking the waiting words of each new defect."""
        while len(self._by_defect) <= defect_cap:
            self._walk_next_defect()

    def _walk_next_defect(self) -> None:
        """Keep the waiting words of the next defect, shortest length first."""
        n, delta, memos = self._n, self._delta, self._memo
        best, waiting = self._best, self._waiting
        full = (1 << n) - 1
        defect = len(self._by_defect)
        kept: list[_Entry] = []
        self._by_defect.append(kept)
        by_length = waiting.setdefault(defect, {})
        while by_length:
            length = min(by_length)
            batch = by_length.pop(length)
            grown = length + 1
            # buckets[k] is waiting[k][grown], looked up once per batch.
            buckets: dict[int, dict[int, Word]] = {}
            # Words of one length are distinct, so the tuple sort is by word.
            for w, key in sorted(zip(batch.values(), batch.keys())):
                if best[key] is not w:  # left behind by a shorter word
                    continue
                em, dm = key >> n, key & full
                kept.append((w, em, dm))
                alive = _chunks(full ^ em)
                dupl = _chunks(dm)
                for a, memo in enumerate(memos):
                    image = twice = 0
                    for cb in alive:
                        hit = memo.get(cb)
                        if hit is None:
                            hit = memo[cb] = _chunk_image(delta, a, cb)
                        i, t = hit
                        twice |= t | (image & i)
                        image |= i
                    for cb in dupl:
                        hit = memo.get(cb)
                        if hit is None:
                            hit = memo[cb] = _chunk_image(delta, a, cb)
                        twice |= hit[0]
                    ckey = (full ^ image) << n | twice
                    old = best.get(ckey)
                    if old is not None and (
                        len(old) < grown or len(old) == grown and old < w + (a,)
                    ):
                        continue
                    child = best[ckey] = w + (a,)
                    child_defect = n - image.bit_count()
                    bucket = buckets.get(child_defect)
                    if bucket is None:
                        queue = waiting.setdefault(child_defect, {})
                        bucket = buckets[child_defect] = queue.setdefault(grown, {})
                    bucket[ckey] = child
        del waiting[defect]

    def signatures_of_defect(self, k: int) -> list[_Entry]:
        """Raw (word, excl mask, dupl mask) triples of defect exactly k.

        This is the stored list itself, in shortlex order; do not mutate it.
        """
        if k > self.defect_cap:
            raise ValueError(
                f"canonical word set was built with defect cap {self.defect_cap}, "
                f"cannot list defect {k}"
            )
        if k < 0:
            raise ValueError("defect must be non-negative")
        return self._by_defect[k]
