"""Core data model: automata, state sets, words, and the excl/dupl algebra.

States are dense integers 0..n-1 so that transition tables are flat tuples
and state sets are bit masks.  Words are tuples of letter indices and act on
the right: q . uv = (q . u) . v.  The letter order is the declaration order
of the alphabet and defines the shortlex order used everywhere downstream.

State sets step through packed letter tables, one per automaton and
direction.  ``packed_images`` holds a table per 8-state chunk whose entry
for a byte is every letter's image of the states that byte marks, letter a
at bits a·n; ``packed_preimages`` holds the preimages the same way.
``step_all`` ORs one entry per chunk, so a set's images under all m letters
cost one lookup per chunk instead of m loops over its states.  Chunk c's
table is filled whole, 2^min(8, n - 8c) entries, and cached per automaton.

``letter_rows`` builds the per-state rows behind both the image table and
the canonical walk.  ``images_of_full`` reads Q's images off the letter
columns and fills no table; the decision, the oracle's yes/no search and
the halving phase read Q's images from it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]
Transformation = tuple[int, ...]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(states: Iterable[int]) -> int:
    mask = 0
    for q in states:
        if not _is_int(q):
            raise ValueError(f"state index {q!r} is not an integer")
        if q < 0:
            raise ValueError(f"state index must be non-negative, got {q}")
        mask |= 1 << q
    return mask


class StateSet:
    """An immutable set of state indices backed by a bit mask.

    Iteration yields members in strictly increasing order, which is the
    canonical order used for serialization and tie-breaking.
    """

    __slots__ = ("mask",)

    def __init__(self, states: Iterable[int] = ()):
        object.__setattr__(self, "mask", mask_of(states))

    @classmethod
    def from_mask(cls, mask: int) -> "StateSet":
        if not _is_int(mask):
            raise ValueError(f"mask {mask!r} is not an integer")
        if mask < 0:
            raise ValueError("mask must be non-negative")
        s = cls.__new__(cls)
        object.__setattr__(s, "mask", mask)
        return s

    @classmethod
    def full(cls, n: int) -> "StateSet":
        if not _is_int(n):
            raise ValueError(f"state count must be an integer, got {n!r}")
        if n < 0:
            raise ValueError(f"state count must be non-negative, got {n}")
        return cls.from_mask((1 << n) - 1)

    def __setattr__(self, name, value):
        raise AttributeError("StateSet is immutable")

    def __contains__(self, q: object) -> bool:
        # Answers as a frozenset of the members does: an integral float
        # equals its int, and anything else that is not an integer is absent.
        try:
            q = operator.index(q)
        except TypeError:
            if not (isinstance(q, float) and q.is_integer()):
                return False
            q = int(q)
        return q >= 0 and (self.mask >> q) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, StateSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def isdisjoint(self, other: "StateSet") -> bool:
        return self.mask & other.mask == 0

    def __repr__(self) -> str:
        return f"StateSet({{{', '.join(str(q) for q in self)}}})"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_list(x) -> bool:
    return isinstance(x, (tuple, list))


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic finite automaton.

    ``n`` states 0..n-1, an ordered alphabet of ``m`` distinct letter names,
    and a total transition table ``delta`` with ``delta[q][a]`` the successor
    of state ``q`` under letter index ``a``.
    """

    n: int
    alphabet: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not _is_int(self.n):
            raise ValueError(f"state count must be an integer, got {self.n!r}")
        if not _is_list(self.alphabet):
            raise ValueError("alphabet must be a list of letter names")
        if not _is_list(self.delta) or not all(_is_list(row) for row in self.delta):
            raise ValueError("transition table must be a list of rows")
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        if self.n < 1:
            raise ValueError(f"state count must be at least 1, got {self.n}")
        if len(self.alphabet) < 1:
            raise ValueError("alphabet must contain at least one letter")
        if not all(isinstance(name, str) for name in self.alphabet):
            raise ValueError("alphabet names must be strings")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet names must be distinct")
        if any(not name for name in self.alphabet):
            raise ValueError("alphabet names must be non-empty")
        if len(self.delta) != self.n:
            raise ValueError(
                f"transition table has {len(self.delta)} rows, expected {self.n}"
            )
        for q, row in enumerate(self.delta):
            if len(row) != self.m:
                raise ValueError(
                    f"transition row {q} has {len(row)} entries, expected {self.m}"
                )
            for a, target in enumerate(row):
                if not _is_int(target):
                    raise ValueError(
                        f"transition ({q}, {self.alphabet[a]}) -> {target!r} "
                        "is not an integer"
                    )
                if not 0 <= target < self.n:
                    raise ValueError(
                        f"transition ({q}, {self.alphabet[a]}) -> {target} "
                        f"is out of range 0..{self.n - 1}"
                    )

    @property
    def m(self) -> int:
        return len(self.alphabet)

    def check_word(self, w: Sequence[int]) -> Word:
        w = tuple(w)
        m = self.m
        for a in w:
            if not _is_int(a):
                raise ValueError(f"letter index {a!r} is not an integer")
            if not 0 <= a < m:
                raise ValueError(f"letter index {a} out of range 0..{m - 1}")
        return w


@dataclass(frozen=True)
class ExclDuplPair:
    """The (excl, dupl) signature of a word.

    ``excl`` holds the states with no preimage under the word, ``dupl`` the
    states with at least two, and the word's defect is ``len(excl)``.  The
    two sets are disjoint, and one is empty exactly when the other is
    (permutation words).
    """

    excl: StateSet
    dupl: StateSet

    def __post_init__(self):
        if not self.excl.isdisjoint(self.dupl):
            raise ValueError("excl and dupl must be disjoint")
        if bool(self.excl) != bool(self.dupl):
            raise ValueError("excl is empty exactly when dupl is empty")


def _chunk_tables(rows: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """One table per 8 rows: entry b is the union of the rows that b marks.

    A chunk of k rows gets 2^k entries, built by doubling: with rows 0..i-1
    in, every entry b gains a twin b | 1 << i that also holds row i.
    """
    tables = []
    for c in range(0, len(rows), 8):
        tab = [0]
        for row in rows[c : c + 8]:
            tab += [t | row for t in tab]
        tables.append(tuple(tab))
    return tuple(tables)


def letter_rows(dfa: Dfa, first: int, width: int) -> list[int]:
    """Every letter's image of each state, one int per state.

    ``rows[p]`` has bit ``first + a·width + delta[p][a]`` set for every
    letter a: ``(0, n)`` packs the images as ``step_all`` does, and the
    walk's ``(n, 2n)`` leaves the low half of each field free.
    """
    rows = [0] * dfa.n
    shifts = range(first, first + dfa.m * width, width)
    for shift, column in zip(shifts, zip(*dfa.delta)):
        rows = [r | 1 << shift + q for r, q in zip(rows, column)]
    return rows


def images_of_full(dfa: Dfa) -> int:
    """Every letter's image of Q, letter a at bits a·n, as ``step_all`` packs it.

    Q·a is the set of values in column a of ``delta``, so no table is filled.
    """
    n = dfa.n
    images = 0
    for shift, column in zip(range(0, dfa.m * n, n), zip(*dfa.delta)):
        image = 0
        for q in column:
            image |= 1 << q
        images |= image << shift
    return images


@lru_cache(maxsize=8)
def packed_images(dfa: Dfa) -> tuple[tuple[int, ...], ...]:
    """Per 8-state chunk, every letter's image of the states a byte marks.

    ``packed_images(dfa)[c][b]`` holds, letter a at bits a·n and up, the
    image under a of the states 8c + i with bit i set in b; ``step_all``
    reads a whole set's images from it.
    """
    return _chunk_tables(letter_rows(dfa, 0, dfa.n))


@lru_cache(maxsize=8)
def packed_preimages(dfa: Dfa) -> tuple[tuple[int, ...], ...]:
    """``packed_images`` backwards: every letter's preimage of the marked states."""
    n = dfa.n
    shifts = range(0, dfa.m * n, n)
    rows = [0] * n
    for p, row in enumerate(dfa.delta):
        for shift, q in zip(shifts, row):
            rows[q] |= 1 << shift + p
    return _chunk_tables(rows)


def step_all(packed: Sequence[Sequence[int]], mask: int) -> int:
    """Every letter's image (or preimage) of ``mask`` at once.

    Letter a's set is ``step_all(packed, mask) >> a * n & (1 << n) - 1``;
    the cost is one lookup per 8-state chunk that ``mask`` reaches.
    """
    out = 0
    for tab in packed:
        if not mask:
            break
        out |= tab[mask & 255]
        mask >>= 8
    return out


def apply_word_mask(dfa: Dfa, mask: int, w: Sequence[int]) -> int:
    packed = packed_images(dfa)
    n = dfa.n
    full = (1 << n) - 1
    for a in w:
        mask = step_all(packed, mask) >> a * n & full
    return mask


def apply_word(dfa: Dfa, p: StateSet, w: Sequence[int]) -> StateSet:
    """Image {q . w | q in p} of a non-empty state set under a word."""
    if not p:
        raise ValueError("cannot apply a word to an empty state set")
    if p.mask >> dfa.n:
        raise ValueError("state set contains states outside the automaton")
    w = dfa.check_word(w)
    return StateSet.from_mask(apply_word_mask(dfa, p.mask, w))


def transformation_of(dfa: Dfa, w: Sequence[int]) -> Transformation:
    """The map q -> q . w as a tuple of length n."""
    w = dfa.check_word(w)
    delta = dfa.delta
    image = list(range(dfa.n))
    for a in w:
        image = [delta[q][a] for q in image]
    return tuple(image)


def preimage_masks(t: Sequence[int]) -> list[int]:
    """``pre[q]`` is the bit mask of the states that t sends to q."""
    pre = [0] * len(t)
    for q, image in enumerate(t):
        pre[image] |= 1 << q
    return pre


def transformation_signature(t: Transformation) -> ExclDuplPair:
    """The (excl, dupl) signature of an explicit transformation."""
    pre = preimage_masks(t)
    excl = StateSet(q for q, mask in enumerate(pre) if not mask)
    dupl = StateSet(q for q, mask in enumerate(pre) if mask & (mask - 1))
    return ExclDuplPair(excl, dupl)


def defect(dfa: Dfa, w: Sequence[int]) -> int:
    """Number of states missing from the image of Q under the word."""
    return dfa.n - apply_word_mask(dfa, (1 << dfa.n) - 1, dfa.check_word(w)).bit_count()


def excl_dupl(dfa: Dfa, w: Sequence[int]) -> ExclDuplPair:
    """States with zero preimages (excl) and at least two (dupl) under w."""
    return transformation_signature(transformation_of(dfa, w))


def preimage_table(dfa: Dfa) -> tuple[tuple[int, ...], ...]:
    """Single-letter preimage masks: ``table[a][q]`` is the bit mask of qa^-1.

    Each letter's sets partition Q.
    """
    return tuple(tuple(preimage_masks(column)) for column in zip(*dfa.delta))


def extend_excl_dupl(
    pair_u: ExclDuplPair, dfa: Dfa, a: int, table: Sequence[Sequence[int]]
) -> ExclDuplPair:
    """Signature of ua from the signature of u alone (never consults u).

    ``table`` is ``preimage_table(dfa)``.  A state joins the new excl when
    its whole a-preimage lies in excl(u); it joins the new dupl when its
    a-preimage meets dupl(u) or keeps at least two states outside excl(u).
    """
    if not _is_int(a):
        raise ValueError(f"letter index {a!r} is not an integer")
    if not 0 <= a < dfa.m:
        raise ValueError(f"letter index {a} out of range 0..{dfa.m - 1}")
    keep = ~pair_u.excl.mask
    dupl_u = pair_u.dupl.mask
    excl = dupl = 0
    for q, pm in enumerate(table[a]):
        alive = pm & keep
        if alive == 0:
            excl |= 1 << q
        elif pm & dupl_u or alive & (alive - 1):
            dupl |= 1 << q
    return ExclDuplPair(StateSet.from_mask(excl), StateSet.from_mask(dupl))
