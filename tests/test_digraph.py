import random

import pytest

from crautomata.digraph import (
    SimpleDigraph,
    is_strongly_connected,
    strongly_connected_components,
)


def _reachable(n, adjacency, start):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def cluster_edges(g, part):
    """The edges between distinct clusters, mapped through cluster_id."""
    cid = part.cluster_id
    return {(cid[s], cid[t]) for s, t in g.edges if cid[s] != cid[t]}


def scc_by_mutual_reachability(g):
    """Independent quadratic oracle: v ~ w iff each reaches the other."""
    adjacency = [[] for _ in range(g.vertex_count)]
    for s, t in g.edges:
        adjacency[s].append(t)
    reach = [_reachable(g.vertex_count, adjacency, v) for v in range(g.vertex_count)]
    classes = []
    assigned = [False] * g.vertex_count
    for v in range(g.vertex_count):
        if assigned[v]:
            continue
        cls = tuple(
            sorted(w for w in reach[v] if v in reach[w])
        )
        for w in cls:
            assigned[w] = True
        classes.append(cls)
    return set(classes)


def test_scc_edgeless():
    g = SimpleDigraph(3, frozenset())
    part = strongly_connected_components(g)
    assert set(part.clusters) == {(0,), (1,), (2,)}
    assert not is_strongly_connected(g)


def test_scc_two_cycles():
    # two disjoint 6-cycles over even and odd vertices
    edges = set()
    evens = [0, 10, 8, 6, 4, 2]
    odds = [1, 11, 9, 7, 5, 3]
    for cycle in (evens, odds):
        for i, v in enumerate(cycle):
            edges.add((v, cycle[(i + 1) % 6]))
    g = SimpleDigraph(12, frozenset(edges))
    part = strongly_connected_components(g)
    assert set(part.clusters) == {tuple(range(0, 12, 2)), tuple(range(1, 12, 2))}


def test_scc_single_vertex():
    g = SimpleDigraph(1, frozenset())
    assert is_strongly_connected(g)


def test_scc_reverse_topological_numbering():
    # a chain 0 -> 1 -> 2: clusters must be numbered sinks-first
    g = SimpleDigraph(3, frozenset({(0, 1), (1, 2)}))
    part = strongly_connected_components(g)
    assert part.clusters == ((2,), (1,), (0,))
    assert part.cluster_id == (2, 1, 0)
    for s, t in cluster_edges(g, part):
        assert s > t  # edges always point to earlier (sink-side) clusters


def test_scc_matches_bruteforce_oracle():
    rng = random.Random(20240814)
    for trial in range(200):
        n = rng.randint(1, 9)
        edges = frozenset(
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 2 * n))
        )
        g = SimpleDigraph(n, edges)
        part = strongly_connected_components(g)
        assert set(part.clusters) == scc_by_mutual_reachability(g)
        for i, cluster in enumerate(part.clusters):
            for v in cluster:
                assert part.cluster_id[v] == i


def test_scc_deterministic():
    edges = frozenset({(0, 1), (1, 0), (2, 1), (3, 4), (4, 3), (1, 3)})
    g = SimpleDigraph(5, edges)
    parts = [strongly_connected_components(g).clusters for _ in range(3)]
    assert parts[0] == parts[1] == parts[2]


def test_condensation_gamma1_e5_shape():
    # level-1 graph of the five-state fixture: three clusters, one induced edge
    edges = frozenset({(0, 1), (1, 0), (2, 0), (3, 4), (4, 3)})
    g = SimpleDigraph(5, edges)
    part = strongly_connected_components(g)
    assert set(part.clusters) == {(0, 1), (2,), (3, 4)}
    src = part.clusters.index((2,))
    dst = part.clusters.index((0, 1))
    assert cluster_edges(g, part) == {(src, dst)}


def test_condensation_strongly_connected_input():
    g = SimpleDigraph(2, frozenset({(0, 1), (1, 0)}))
    part = strongly_connected_components(g)
    assert len(part.clusters) == 1 and cluster_edges(g, part) == set()


def test_condensation_acyclic_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 8)
        edges = frozenset(
            (rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)
        )
        g = SimpleDigraph(n, edges)
        part = strongly_connected_components(g)
        edges = cluster_edges(g, part)
        # Kahn peeling must consume every cluster vertex
        count = len(part.clusters)
        indeg = [0] * count
        for _, t in edges:
            indeg[t] += 1
        queue = [v for v in range(count) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for s, t in edges:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        queue.append(t)
        assert seen == count
        # reverse topological numbering: cluster 0 is always a sink
        assert all(s > t for s, t in edges)
        assert is_strongly_connected(g) == (count == 1)


def test_graph_validation():
    with pytest.raises(ValueError):
        SimpleDigraph(2, frozenset({(0, 5)}))
    with pytest.raises(ValueError):
        is_strongly_connected(SimpleDigraph(0, frozenset()))
