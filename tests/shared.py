"""Automata families and helpers shared by the test modules and CI; no tests."""

from crautomata import Dfa, SimpleDigraph


def cycle_member(n, d):
    """b is the n-cycle q -> q + 1 and a sends 0 to d, fixing every other state."""
    return Dfa(n, ("a", "b"), tuple((d if q == 0 else q, (q + 1) % n) for q in range(n)))


def cycle_idempotent(n, d, rng):
    """Random n-cycle b plus the idempotent a sending x to x + d along it."""
    order = list(range(n))
    rng.shuffle(order)
    start = rng.randrange(n)
    x, y = order[start], order[(start + d) % n]
    succ = [0] * n
    for i, q in enumerate(order):
        succ[q] = order[(i + 1) % n]
    return Dfa(n, ("a", "b"), tuple((y if q == x else q, succ[q]) for q in range(n)))


def block_family(h):
    """B_h: states 0..2h-1 in blocks A = {0..h-1} and B = {h..2h-1}.  c
    rotates each block, t swaps 0 <-> 1 and h <-> h+1, s maps q to q + h
    mod 2h, and a sends 0 to 1 and fixes every other state.  No word
    extends B, though its permutations make many preimage tuples of B."""
    n = 2 * h
    swap = {0: 1, 1: 0, h: h + 1, h + 1: h}
    delta = [
        (q // h * h + (q + 1) % h, swap.get(q, q), (q + h) % n, 1 if q == 0 else q)
        for q in range(n)
    ]
    return Dfa(n, ("c", "t", "s", "a"), delta)


def graph(n, edges):
    """The graph on n vertices with the given (s, t) edges, as its rows."""
    rows = [0] * n
    for s, t in edges:
        rows[s] |= 1 << t
    return SimpleDigraph(n, rows)


def decoded(walk, k):
    """The walk's defect-k triples with each code decoded to its word."""
    return [(walk.word(c), em, dm) for c, em, dm in walk.signatures_of_defect(k)]


def leafages(result, level):
    return [
        sorted(result.forest.leafage(nid))
        for nid in result.levels[level - 1].vertices
    ]
