"""Shortlex enumeration of least words, per signature or per (excl, q) pair.

A word is canonical when it is the shortlex-least word with its signature.
Every prefix of a canonical word is canonical (the signature of an extension
depends only on the signature of what it extends), so the canonical words
form a tree, walked here from the empty word.  A word whose signature has
been seen before is rejected together with its whole subtree.

Words over m letters are carried as integer codes: a1 ... aL has code
(a1 + 1)·m^(L-1) + ... + (aL + 1), its bijective base-m numeral, so
numeric order on codes is shortlex order and the child w·a has code
code(w)·m + a + 1.  The walks never build a word.  A caller that reads
one asks the walk's ``word`` decoder (``word_decoder``), which builds each
word from its memoised parent, code (c - 1) // m, and its last letter,
(c - 1) % m, so every prefix is built once, and only where it is read.
``_best`` maps each signature, as the int ``excl << n | dupl``, to the
code of the least word found for it so far.  A child is dropped when
``_best`` holds a smaller code; otherwise it becomes the signature's best
word and waits.

Defect never decreases along extensions, so the walk goes one defect at a
time.  The words of defect k wait in one heap, ``_waiting[k]``, as
(code, signature); raising the cap to k pops that heap until it is empty,
pushing children of defect k onto it as it goes.  A child's code is larger
than its parent's, so the pops come in shortlex order.  A later walk, of a
higher defect than the walk that queued a signature, can find a smaller
code for it; the older entry is then skipped when popped, because its code
is no longer the signature's best.  So an entry popped and not skipped
holds the least word with its signature.  Each word waits at most once, so
the codes in a heap are distinct and the heap never compares signatures.

A child's signature comes from its parent's alone, by
``automaton.extend_excl_dupl``: with alive = Q \\ excl, the child's excl
is the complement of alive·a, and its dupl holds the states hit twice from
alive plus the image of dupl (dupl lies inside alive, so "the a-preimage
of q meets dupl" is "q lies in dupl·a").  The signature walk applies that
rule state by state, and serves as the reference for the pair walk below.

Kept words are stored as (code, excl mask, dupl mask) in one list per
defect, filled by the one walk of that defect, already in shortlex order.

``PairWordSet`` walks the same tree more sparsely: it keeps the least word
of every pair (X, q), the shortlex-least word whose excl set is X and whose
dupl set holds q.  That is all the hierarchy reads, and there are at most
n·2^(n-1) + 1 keys (q lies outside X), where signatures are bounded only by
3^n.  The least word u·a of (X, q) extends a least word: if a hits q twice
from alive(u), then u is the least word whose excl set is excl(u), because
that word followed by a also has excl set X and q in its dupl set;
otherwise q = p·a for some p in dupl(u), and u is the least word of
(excl(u), p).  X itself needs no node.  Once a state is excluded some state
is hit twice, so X's least word is the least word of (X, q) for every q in
its dupl set; every entry kept with excl set X is the least word of some
(X, q), so none comes before X's least word in the defect's code-ordered
walk, and X's least word is the first entry kept with excl set X.  That
entry adds the states hit twice from alive to its children and stores the
packed child excl sets; each later entry of X reads them back and passes
on only the image of the states it holds.

The pair walk steps every letter at once: letter a owns the 2n bits from
a·2n on, and ``_rows[p]`` holds every letter's image of state p in the
high n bits of its field.  ORing the rows of alive gives its image, and a
row that meets the image of the states before it marks states hit twice.
Then ``(_high ^ image) | twice >> n``, with ``_high`` all ones in every
high half, holds letter a's child signature ``excl << n | dupl`` in its
field.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from heapq import heappop, heappush

from .automaton import (
    Dfa,
    ExclDuplPair,
    StateSet,
    Word,
    extend_excl_dupl,
    preimage_table,
)

# (code, excl mask, dupl mask)
_Entry = tuple[int, int, int]


def word_decoder(m: int) -> Callable[[int], Word]:
    """The word behind each shortlex code over m letters, built when read.

    Code c > 0 is the word of code (c - 1) // m followed by the letter
    (c - 1) % m.  Every word built stays in the memo, so a word is built by
    one concatenation onto its parent, and each prefix once.
    """
    words: dict[int, Word] = {0: ()}

    def decode(code: int) -> Word:
        word = words.get(code)
        if word is not None:
            return word
        # Ancestors missing from the memo, nearest first, are built first.
        missing = []
        parent = (code - 1) // m
        word = words.get(parent)
        while word is None:
            missing.append(parent)
            parent = (parent - 1) // m
            word = words.get(parent)
        for parent in reversed(missing):
            word = words[parent] = word + ((parent - 1) % m,)
        word = words[code] = word + ((code - 1) % m,)
        return word

    return decode


class CanonicalWordSet:
    """Shortlex-least witnesses for every realizable signature up to a defect cap."""

    def __init__(self, dfa: Dfa):
        self._dfa = dfa
        self._n = dfa.n
        self._m = dfa.m
        # word(code) builds the word behind a kept entry's code.
        self.word = word_decoder(dfa.m)
        # _best[excl << n | dupl] is the code of the least word found with
        # that signature.
        self._best: dict[int, int] = {0: 0}
        # _by_defect[k] holds the kept words of defect k in shortlex order.
        self._by_defect: list[list[_Entry]] = []
        # _waiting[k] is the heap of (code, signature) of the words of
        # defect k; an entry whose code is not the signature's in _best is
        # stale.
        self._waiting: dict[int, list[tuple[int, int]]]
        self._waiting = defaultdict(list, {0: [(0, 0)]})
        self._walk_next_defect()

    @property
    def defect_cap(self) -> int:
        return len(self._by_defect) - 1

    @property
    def entries(self) -> list[tuple[Word, ExclDuplPair]]:
        """Every kept word with its signature, in shortlex order."""
        # Codes are distinct and ordered as their words are.
        merged = sorted(e for entries in self._by_defect for e in entries)
        word = self.word
        return [
            (word(code), ExclDuplPair(StateSet.from_mask(em), StateSet.from_mask(dm)))
            for code, em, dm in merged
        ]

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._by_defect)

    def grow(self, defect_cap: int) -> None:
        """Raise the defect cap, walking the waiting words of each new defect."""
        while len(self._by_defect) <= defect_cap:
            self._walk_next_defect()

    def _walk_next_defect(self) -> None:
        """Keep the waiting words of the next defect, in shortlex order."""
        kept: list[_Entry] = []
        heap = self._waiting[len(self._by_defect)]
        self._by_defect.append(kept)
        if not heap:
            return
        n, m, dfa = self._n, self._m, self._dfa
        best, waiting = self._best, self._waiting
        table = preimage_table(dfa)
        full = (1 << n) - 1
        while heap:
            code, key = heappop(heap)
            if best[key] != code:  # left behind by a smaller word
                continue
            em, dm = key >> n, key & full
            kept.append((code, em, dm))
            pair = ExclDuplPair(StateSet.from_mask(em), StateSet.from_mask(dm))
            ccode = code * m
            for a in range(m):
                ccode += 1
                child = extend_excl_dupl(pair, dfa, a, table)
                ckey = child.excl.mask << n | child.dupl.mask
                if best.get(ckey, ccode) < ccode:
                    continue
                best[ckey] = ccode
                heappush(waiting[child.defect], (ccode, ckey))

    def signatures_of_defect(self, k: int) -> list[_Entry]:
        """Raw (code, excl mask, dupl mask) triples of defect exactly k.

        This is the stored list itself, in shortlex order; do not mutate it.
        ``word(code)`` builds a triple's word.
        """
        if k > self.defect_cap:
            raise ValueError(
                f"canonical word set was built with defect cap {self.defect_cap}, "
                f"cannot list defect {k}"
            )
        if k < 0:
            raise ValueError("defect must be non-negative")
        return self._by_defect[k]


class PairWordSet(CanonicalWordSet):
    """Least words of the (excl, duplicate state) pairs up to a defect cap.

    A kept entry ``(code, excl mask, held mask)`` says that the code's word
    is the least word with that excl set and q in its dupl set, for every q
    in the held mask, which ``entries`` reports as the dupl set.  The first
    entry kept for an excl set holds the whole dupl set of its word.  A waiting
    entry's key is ``excl << n | held``, the held states being those for
    which its word may still be least.  ``_best`` maps each pair, as
    ``excl << n | 1 << q``, to the code of the least word found for it, and
    the empty word's key 0 to 0; a key with several held states is never
    in it.
    """

    def __init__(self, dfa: Dfa):
        n, m = dfa.n, dfa.m
        width = 2 * n
        # _rows[p] has letter a's image of state p at bit delta[p][a] + a·2n + n.
        self._rows = [
            sum(1 << (q + a * width + n) for a, q in enumerate(row))
            for row in dfa.delta
        ]
        # Every field's high half set: that half's mask times the m-digit
        # repunit in base 2**width.
        self._high = ((1 << n) - 1 << n) * ((1 << m * width) - 1) // ((1 << width) - 1)
        super().__init__(dfa)

    def _walk_next_defect(self) -> None:
        """Keep the waiting words of the next defect, in shortlex order."""
        kept: list[_Entry] = []
        heap = self._waiting[len(self._by_defect)]
        self._by_defect.append(kept)
        if not heap:  # skip the set-up: most small random automata stop here
            return
        n, m, rows, high = self._n, self._m, self._rows, self._high
        best, waiting = self._best, self._waiting
        full = (1 << n) - 1
        width = 2 * n
        field = (1 << width) - 1
        # excl_keys[excl] is high ^ image(alive): every letter's child excl
        # set, filled by the excl set's least word.
        excl_keys: dict[int, int] = {}
        while heap:
            code, key = heappop(heap)
            dm = key & full
            # Left behind by a smaller word, or a key with several duplicate
            # states, which is not in _best: keep the pairs whose best code
            # this entry still holds.
            if best.get(key) != code:
                ek, held, rest = key ^ dm, 0, dm
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if best[ek | bit] == code:
                        held |= bit
                if not held:
                    continue
                dm = held
            em = key >> n
            kept.append((code, em, dm))
            keys = excl_keys.get(em)
            twice = 0
            if keys is None:
                # The least word of its excl set: dm is its whole dupl set,
                # and its children add the states hit twice from alive.
                image, rest = 0, full ^ em
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    row = rows[bit.bit_length() - 1]
                    twice |= image & row
                    image |= row
                keys = excl_keys[em] = high ^ image
            # The held states' images join every child's dupl set.
            rest = dm
            while rest:
                bit = rest & -rest
                rest ^= bit
                twice |= rows[bit.bit_length() - 1]
            keys |= twice >> n
            ccode = code * m
            for _ in range(m):
                ccode += 1
                ckey = keys & field
                keys >>= width
                if best.get(ckey, ccode) < ccode:
                    continue
                dd = ckey & full
                if dd & (dd - 1):  # one _best entry per duplicate state
                    ek, held = ckey ^ dd, 0
                    while dd:
                        bit = dd & -dd
                        dd ^= bit
                        if best.get(ek | bit, ccode) >= ccode:
                            best[ek | bit] = ccode
                            held |= bit
                    if not held:
                        continue
                    ckey = ek | held
                else:
                    best[ckey] = ccode
                heappush(waiting[(ckey >> n).bit_count()], (ccode, ckey))
