"""Shortlex enumeration of canonical words, one per (excl, dupl) signature.

The enumeration is a breadth-first walk of the word tree in shortlex order.
A word is kept when its signature has not been seen before, rejected together
with its whole subtree when it has (the signature of an extension depends
only on the signature of what it extends), and parked when its defect exceeds
the current cap (defect never decreases along extensions, so the subtree can
wait).  Parked words are revisited when the cap is raised: the walk resumes
from its frontier instead of restarting, and the seen-signature set is
global across defect levels.

``grow`` is one loop over word lengths.  At each length it sorts the words
parked at that length together with the children of the words it has just
kept, then keeps, rejects or parks each in turn; it ends when nothing is
pending or parked.

Kept words are stored in one list per defect.  Every signature of defect k
is found by the first ``grow`` whose cap reaches k, and that walk accepts
words in shortlex order, so each list is filled once, already in order.
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
        self._cap = 0
        self._seen: set[tuple[int, int]] = {(0, 0)}
        # _by_defect[k] holds the kept words of defect k in shortlex order.
        self._by_defect: list[list[_Entry]] = [[((), 0, 0)]]
        # Candidates whose defect exceeded the cap when generated, keyed by
        # word length; each list stays in shortlex order.  The walk starts
        # from the children of the empty word.
        self._parked: dict[int, list[_Entry]] = {
            1: [
                ((a,), *extend_signature_masks(self._pre[a], 0, 0, dfa.n))
                for a in range(dfa.m)
            ]
        }

    @property
    def defect_cap(self) -> int:
        return self._cap

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
        """Raise the defect cap, resuming the shortlex walk where it stopped."""
        if defect_cap <= self._cap:
            return
        self._by_defect.extend([] for _ in range(defect_cap - self._cap))
        self._cap = defect_cap
        n, m, pre, seen = self._dfa.n, self._dfa.m, self._pre, self._seen
        parked, self._parked = self._parked, {}
        pending: list[_Entry] = []
        length = min(parked, default=0)
        while pending or parked:
            # Words of one length are distinct, so the tuple sort is by word.
            candidates = sorted(parked.pop(length, []) + pending)
            pending = []
            for w, em, dm in candidates:
                sig = (em, dm)
                if sig in seen:
                    continue
                defect = em.bit_count()
                if defect > defect_cap:
                    self._parked.setdefault(length, []).append((w, em, dm))
                    continue
                seen.add(sig)
                self._by_defect[defect].append((w, em, dm))
                for a in range(m):
                    cem, cdm = extend_signature_masks(pre[a], em, dm, n)
                    pending.append((w + (a,), cem, cdm))
            length += 1

    def signatures_of_defect(self, k: int) -> list[_Entry]:
        """Raw (word, excl mask, dupl mask) triples of defect exactly k.

        This is the stored list itself, in shortlex order; do not mutate it.
        """
        if k > self._cap:
            raise ValueError(
                f"canonical word set was built with defect cap {self._cap}, "
                f"cannot list defect {k}"
            )
        if k < 0:
            raise ValueError("defect must be non-negative")
        return self._by_defect[k]
