"""Constructors for the automaton families used as fixtures and test corpora."""

from __future__ import annotations

from .automaton import Dfa, _is_int


def cerny(n: int) -> Dfa:
    """The n-state two-letter automaton with reset threshold (n-1)^2.

    Letter a sends 0 to 1 and fixes every other state; letter b adds 1
    modulo n.
    """
    if not _is_int(n) or n < 2:
        raise ValueError(f"cerny requires an integer n >= 2, got {n!r}")
    delta = tuple((i if i > 0 else 1, (i + 1) % n) for i in range(n))
    return Dfa(n, ("a", "b"), delta)


def e_family(n: int, k: int, drop_last_b: bool = False) -> Dfa:
    """The (n, k) staircase family whose hierarchy terminates at exactly step k.

    States carry the traditional 1-based numbering 1..n; state i here is
    stored internally as index i-1.  Letters come as a_1..a_n followed by
    b_l..b_{n-1} with l = n-k+1.  With ``drop_last_b`` (allowed only for
    k = n-1) the letter b_{n-1} is omitted, which turns the completely
    reachable family member into one whose construction fails at step n-1.
    """
    if not (_is_int(n) and _is_int(k) and 2 <= k < n):
        raise ValueError(f"e_family requires integers 2 <= k < n, got n={n!r}, k={k!r}")
    if not isinstance(drop_last_b, bool):
        raise ValueError(f"drop_last_b must be a bool, got {drop_last_b!r}")
    if drop_last_b and k != n - 1:
        raise ValueError("drop_last_b requires k = n - 1")
    ell = n - k + 1

    def act_a(q: int, j: int) -> int:
        # q and j are 1-based here, mirroring the family's usual presentation.
        if j < ell:
            return q + 1 if q == j else q
        if j == ell:
            return 1 if q == ell else q
        if q < ell or q > j:
            return q
        if q == ell:
            return 1
        return q - 1  # ell < q <= j

    def act_b(q: int, i: int) -> int:
        if 1 < q < ell or q > i:
            return q
        return i + 1  # q = 1 or ell <= q <= i

    b_top = n - 1 if drop_last_b else n
    names = tuple(f"a{j}" for j in range(1, n + 1)) + tuple(
        f"b{i}" for i in range(ell, b_top)
    )
    delta = []
    for q in range(1, n + 1):
        row = [act_a(q, j) - 1 for j in range(1, n + 1)]
        row += [act_b(q, i) - 1 for i in range(ell, b_top)]
        delta.append(tuple(row))
    return Dfa(n, names, tuple(delta))


_E5_ALPHABET = ("a[1]", "a[2]", "a[3]", "a[4]", "a[5]", "a[1,2]", "a[4,5]", "a[1,3]")

# Rows are 1-based states 1..5; entries are 1-based successors.
_E5_TABLE = (
    (2, 1, 1, 1, 1, 3, 1, 4),
    (2, 1, 1, 2, 2, 3, 1, 4),
    (3, 3, 2, 3, 3, 3, 2, 4),
    (4, 4, 4, 5, 4, 4, 3, 5),
    (5, 5, 5, 5, 4, 5, 3, 5),
)

_E12_A = (10, 1, 2, 8, 4, 3, 10, 9, 5, 7, 6, 11)


def fixed_example(name: str) -> Dfa:
    """Named fixture automata: ``e5``, ``e12``, and ``flipflop``.

    ``e5`` is a 5-state, 8-letter minimal completely reachable automaton
    whose hierarchy terminates at step 3 (its states 0..4 carry the
    traditional 1-based labels 1..5).  ``e12`` is a 12-state, 2-letter
    completely reachable automaton terminating at step 2.  ``flipflop`` is
    the classical 2-state automaton with two constant letters.
    """
    if name == "e5":
        delta = tuple(tuple(t - 1 for t in row) for row in _E5_TABLE)
        return Dfa(5, _E5_ALPHABET, delta)
    if name == "e12":
        delta = tuple((_E12_A[q], (q + 1) % 12) for q in range(12))
        return Dfa(12, ("a", "b"), delta)
    if name == "flipflop":
        return Dfa(2, ("a", "b"), ((0, 1), (0, 1)))
    raise ValueError(f"unknown fixture name {name!r}; expected e5, e12 or flipflop")


def _letter_names(m: int) -> tuple[str, ...]:
    base = "abcdefghijklmnopqrstuvwxyz"
    return tuple(base[i] if i < len(base) else f"x{i}" for i in range(m))


# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx) and
# PCG64's default 128-bit multiplier, for the stream random_dfa draws from.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8)``: eight 32-bit words."""
    entropy = []  # the seed's 32-bit words, least significant first
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return words


def _uniform_draws(seed: int, n: int, count: int) -> list[int]:
    """The ``count`` values of numpy's
    ``Generator(PCG64(SeedSequence(seed))).integers(0, n, size=count)``.

    Only the path numpy takes for 1 <= n <= 2**32 is here: Lemire's bounded
    draw from 32-bit outputs.  random_dfa never needs another, since n > 2**32
    would make a table of more than 2**32 entries, which no memory holds.
    For n = 1 numpy draws nothing and gives zeros; every draw here is 0 then too.
    """
    w = _seed_words(seed)
    # generate_state(4, uint64) pairs the words low half first; PCG64 takes
    # the first two 64-bit words as the initial state and the last two as
    # the stream, each 128-bit value high word first.
    lanes = [w[i] | w[i + 1] << 32 for i in (0, 2, 4, 6)]
    initstate = lanes[0] << 64 | lanes[1]
    inc = ((lanes[2] << 64 | lanes[3]) << 1 | 1) & _MASK128
    state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
    threshold = ((1 << 32) - n) % n
    out: list[int] = []
    while len(out) < count:
        # XSL-RR 128/64 on the stepped state, handed out as two 32-bit
        # halves, low half first; a half whose low product word falls
        # below the threshold is rejected.
        state = (state * _PCG_MULT + inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        x = ((x >> rot) | (x << (64 - rot))) & _MASK64
        for half in (x & _MASK32, x >> 32):
            product = half * n
            if product & _MASK32 >= threshold:
                out.append(product >> 32)
    del out[count:]
    return out


def random_dfa(n: int, m: int, seed: int) -> Dfa:
    """A uniformly random automaton with reproducible, platform-stable output.

    Transitions are drawn independently and uniformly from 0..n-1, row by
    row, as numpy's ``Generator(PCG64(SeedSequence(seed))).integers(0, n,
    size=(n, m))`` draws them.  That stream is computed here in pure Python,
    so identical (n, m, seed) triples produce identical automata everywhere,
    with or without numpy installed.
    """
    if not (_is_int(n) and _is_int(m) and _is_int(seed)) or min(n, m) < 1 or seed < 0:
        raise ValueError(
            "random_dfa requires integers n >= 1, m >= 1 and seed >= 0, "
            f"got n={n!r}, m={m!r}, seed={seed!r}"
        )
    draws = _uniform_draws(seed, n, n * m)
    delta = tuple(tuple(draws[q * m:q * m + m]) for q in range(n))
    return Dfa(n, _letter_names(m), delta)
