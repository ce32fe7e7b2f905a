"""Shortlex enumeration of the least word of every (excl, q) pair.

The hierarchy reads a word only through its excl set, the states with no
preimage, and one state of its dupl set, the states with at least two.  So
the walk keeps, for every excl set X and state q outside it, the least
word of the pair (X, q): the shortlex-least word whose excl set is X and
whose dupl set holds q.  There are at most n·2^(n-1) + 1 keys, the empty
word's included, where whole (excl, dupl) signatures are bounded only by
3^n.

The least words form a tree, walked here from the empty word: the least
word u·a of (X, q) extends a least word.  With alive(u) = Q \\ excl(u), if
a hits q twice from alive(u), then u is the least word whose excl set is
excl(u), because that word followed by a also has excl set X and q in its
dupl set; otherwise q = p·a for some p in dupl(u), and u is the least word
of (excl(u), p).  A word whose pairs all have a smaller word already is
rejected together with its whole subtree.

Words over m letters are carried as integer codes: a1 ... aL has code
(a1 + 1)·m^(L-1) + ... + (aL + 1), its bijective base-m numeral, so
numeric order on codes is shortlex order and the child w·a has code
code(w)·m + a + 1.  The walk never builds a word.  A caller that reads
one asks the walk's ``word`` decoder (``word_decoder``), which builds each
word from its memoised parent, code (c - 1) // m, and its last letter,
(c - 1) % m, so every prefix is built once, and only where it is read.
``_best`` maps each pair, as the int ``X << n | 1 << q``, to the code of
the least word found for it so far, and the empty word's key 0 to 0.  A
child takes the pairs for which ``_best`` holds no smaller code, becomes
their best word and waits; a child that takes none is dropped.

Defect never decreases along extensions, so the walk goes one defect at a
time.  The words of defect k wait in one heap, ``_waiting[k]``, as
(code, key), the key being ``excl << n | held`` with held the states for
which the word may still be least.  Raising the cap to k pops that heap
until it is empty, pushing children of defect k onto it as it goes.  A
child's code is larger than its parent's, so the pops come in shortlex
order.  A later walk, of a higher defect than the walk that queued a word,
can find a smaller code for one of its pairs; the popped entry then keeps
only the pairs whose best code it still holds, and is skipped when it
holds none.  So an entry kept holds the least word of every pair it holds.
Each word waits at most once, so the codes in a heap are distinct and the
heap never compares keys.  No image is empty, so no word has defect n, and
no cap walks past n.

Kept words are stored as (code, excl mask, held mask) in one list per
defect, filled by the one walk of that defect, already in shortlex order.

X itself needs no node.  Once a state is excluded some state is hit
twice, so X's least word is the least word of (X, q) for every q in its
dupl set; every entry kept with excl set X is the least word of some
(X, q), so none comes before X's least word in the defect's code-ordered
walk, and X's least word is the first entry kept with excl set X, holding
its whole dupl set.  That entry adds the states hit twice from alive to
its children and stores the packed child excl sets; each later entry of X
reads them back and passes on only the image of the states it holds.

The walk steps every letter at once: letter a owns the 2n bits from a·2n
on, and ``_rows[p]`` holds every letter's image of state p in the high n
bits of its field, from the same ``automaton.letter_rows`` builder as the
image table.  ORing the rows of alive gives its image, whose complement is
the child's excl set, and a row that meets the image of the states before
it marks states hit twice.  Then
``(_high ^ image) | twice >> n``, with ``_high`` all ones in every high
half, holds letter a's child key ``excl << n | held`` in its field.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappop, heappush

from .automaton import Dfa, ExclDuplPair, StateSet, Word, _is_int, letter_rows

# (code, excl mask, held mask)
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


def _check_defect(k: int) -> None:
    if not _is_int(k):
        raise ValueError(f"defect {k!r} is not an integer")
    if k < 0:
        raise ValueError("defect must be non-negative")


class CanonicalWordSet:
    """Least words of the (excl, duplicate state) pairs up to a defect cap.

    A kept entry ``(code, excl mask, held mask)`` says that the code's word
    is the least word with that excl set and q in its dupl set, for every q
    in the held mask, a subset of the word's dupl set that ``entries``
    reports in the dupl field.  The first entry kept for an excl set holds
    the whole dupl set of its word.
    """

    def __init__(self, dfa: Dfa):
        n, m = dfa.n, dfa.m
        self._n = n
        self._m = m
        # word(code) builds the word behind a kept entry's code.
        self.word = word_decoder(m)
        width = 2 * n
        # _rows[p] has letter a's image of state p at bit delta[p][a] + a·2n + n.
        self._rows = letter_rows(dfa, n, width)
        # Every field's high half set: that half's mask times the m-digit
        # repunit in base 2**width.
        self._high = ((1 << n) - 1 << n) * ((1 << m * width) - 1) // ((1 << width) - 1)
        # _best[excl << n | 1 << q] is the code of the least word found for
        # the pair (excl, q); a key with several held states is never in it.
        self._best: dict[int, int] = {0: 0}
        # _by_defect[k] holds the kept words of defect k in shortlex order.
        self._by_defect: list[list[_Entry]] = []
        # _waiting[k] is the heap of (code, excl << n | held) of the words
        # of defect k; an entry holds a pair only while _best has its code.
        self._waiting: list[list[tuple[int, int]]]
        self._waiting = [[(0, 0)]] + [[] for _ in range(n)]
        self._walk_next_defect()

    @property
    def defect_cap(self) -> int:
        return len(self._by_defect) - 1

    @property
    def entries(self) -> list[tuple[Word, ExclDuplPair]]:
        """Every kept word with its excl set and held states, in shortlex order.

        The ``ExclDuplPair`` of an entry holds the word's excl set, and in
        its ``dupl`` field the entry's held states: a subset of the word's
        dupl set, the states for which the word is the least word.  The
        first entry kept for an excl set holds the whole dupl set of its
        word; ``excl_dupl`` gives any word's own pair.
        """
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
        """Raise the defect cap, walking the waiting words of each new defect.

        The cap stops at n, since no word has defect n.
        """
        _check_defect(defect_cap)
        while len(self._by_defect) <= min(defect_cap, self._n):
            self._walk_next_defect()

    def signatures_of_defect(self, k: int) -> list[_Entry]:
        """Raw (code, excl mask, held mask) triples of defect exactly k.

        These are pair entries, not whole signatures: the held mask is the
        subset of the word's dupl set for which the word is the least word,
        and it is the whole dupl set only in the first entry kept for an
        excl set.  This is the stored list itself, in shortlex order; do not
        mutate it.  ``word(code)`` builds a triple's word.
        """
        _check_defect(k)
        if k > self.defect_cap:
            raise ValueError(
                f"canonical word set was built with defect cap {self.defect_cap}, "
                f"cannot list defect {k}"
            )
        return self._by_defect[k]

    def _walk_next_defect(self) -> None:
        """Keep the waiting words of the next defect, in shortlex order."""
        kept: list[_Entry] = []
        heap = self._waiting[len(self._by_defect)]
        self._by_defect.append(kept)
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
