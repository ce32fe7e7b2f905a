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


def random_dfa(n: int, m: int, seed: int) -> Dfa:
    """A uniformly random automaton with reproducible, platform-stable output.

    Transitions are drawn independently and uniformly from 0..n-1 using a
    PCG64 stream keyed through numpy's SeedSequence, so identical
    (n, m, seed) triples produce identical automata everywhere.  SeedSequence
    also gives the stream splittable seeding if corpora ever need to be
    generated in parallel.
    """
    if not (_is_int(n) and _is_int(m) and _is_int(seed)) or min(n, m) < 1 or seed < 0:
        raise ValueError(
            "random_dfa requires integers n >= 1, m >= 1 and seed >= 0, "
            f"got n={n!r}, m={m!r}, seed={seed!r}"
        )
    # Imported here, not at module level: numpy is the package's only
    # dependency and nothing else needs it, so ``import crautomata`` stays
    # fast and small for every command that draws no random automaton.
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    table = rng.integers(0, n, size=(n, m))
    delta = tuple(tuple(int(t) for t in row) for row in table)
    return Dfa(n, _letter_names(m), delta)
