"""Shortlex enumeration of canonical words, one per (excl, dupl) signature.

A word is canonical when it is the shortlex-least word with its signature.
Every prefix of a canonical word is canonical (the signature of an extension
depends only on the signature of what it extends), so the canonical words
form a tree, walked here from the empty word.  A word whose signature has
been seen before is rejected together with its whole subtree.

Defect never decreases along extensions, so the walk goes one defect at a
time.  Each child of a kept word waits in a frontier keyed by its own
defect and then by its length; a child whose signature is already seen is
not queued at all.  Raising the cap to k walks only the defect-k bucket,
shortest length first: every defect-k word of a given length comes from a
kept word of defect at most k one letter shorter, so the whole batch is
waiting when its length is reached, and sorting it (a merge of sorted runs)
puts it in shortlex order.  Each generated word is queued once and examined
once, and the seen-signature set is shared by all defects.

Kept words are stored in one list per defect, filled by the one walk of
that defect, already in shortlex order.
"""

from __future__ import annotations

from .automaton import (
    Dfa,
    ExclDuplPair,
    StateSet,
    Word,
    extend_signature_masks,
    preimage_table,
    shortlex_key,
)

# (word, excl mask, dupl mask)
_Entry = tuple[Word, int, int]


class CanonicalWordSet:
    """Shortlex-least witnesses for every realizable signature up to a defect cap."""

    def __init__(self, dfa: Dfa):
        self._dfa = dfa
        self._pre = preimage_table(dfa)
        self._seen: set[tuple[int, int]] = set()
        # _by_defect[k] holds the kept words of defect k in shortlex order.
        self._by_defect: list[list[_Entry]] = []
        # _waiting[k][length] holds queued words of defect k not yet walked.
        self._waiting: dict[int, dict[int, list[_Entry]]] = {0: {0: [((), 0, 0)]}}
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
        n, m, pre = self._dfa.n, self._dfa.m, self._pre
        seen, waiting = self._seen, self._waiting
        defect = len(self._by_defect)
        kept: list[_Entry] = []
        self._by_defect.append(kept)
        by_length = waiting.setdefault(defect, {})
        while by_length:
            length = min(by_length)
            # Words of one length are distinct, so the tuple sort is by word.
            for w, em, dm in sorted(by_length.pop(length)):
                if (em, dm) in seen:
                    continue
                seen.add((em, dm))
                kept.append((w, em, dm))
                for a in range(m):
                    cem, cdm = extend_signature_masks(pre[a], em, dm, n)
                    if (cem, cdm) not in seen:
                        queue = waiting.setdefault(cem.bit_count(), {})
                        queue.setdefault(length + 1, []).append((w + (a,), cem, cdm))
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
