import random

import pytest

from crautomata.digraph import (
    SimpleDigraph,
    is_strongly_connected,
    strongly_connected_components,
)


def graph(n, edges):
    """The graph on n vertices with the given (s, t) edges, as its rows."""
    rows = [0] * n
    for s, t in edges:
        rows[s] |= 1 << t
    return SimpleDigraph(n, rows)


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
    g = graph(3, frozenset())
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
    g = graph(12, frozenset(edges))
    part = strongly_connected_components(g)
    assert set(part.clusters) == {tuple(range(0, 12, 2)), tuple(range(1, 12, 2))}


def test_scc_single_vertex():
    g = graph(1, frozenset())
    assert is_strongly_connected(g)


def test_scc_reverse_topological_numbering():
    # a chain 0 -> 1 -> 2: clusters must be numbered sinks-first
    g = graph(3, frozenset({(0, 1), (1, 2)}))
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
        g = graph(n, edges)
        assert g.edges == edges  # read back off the rows
        part = strongly_connected_components(g)
        assert set(part.clusters) == scc_by_mutual_reachability(g)
        for i, cluster in enumerate(part.clusters):
            for v in cluster:
                assert part.cluster_id[v] == i


def tarjan_reference(g):
    """Recursive Tarjan over sorted adjacency lists, roots in vertex order:
    the numbering ``strongly_connected_components`` must reproduce."""
    adjacency = [sorted(t for s, t in g.edges if s == v) for v in range(g.vertex_count)]
    order, low, on_stack, stack = {}, {}, set(), []
    cluster_id, clusters = [None] * g.vertex_count, []

    def visit(v):
        order[v] = low[v] = len(order)
        stack.append(v)
        on_stack.add(v)
        for u in adjacency[v]:
            if u not in order:
                visit(u)
                low[v] = min(low[v], low[u])
            elif u in on_stack:
                low[v] = min(low[v], order[u])
        if low[v] == order[v]:
            members = []
            while not members or members[-1] != v:
                members.append(stack.pop())
                on_stack.discard(members[-1])
            for u in members:
                cluster_id[u] = len(clusters)
            clusters.append(tuple(sorted(members)))

    for v in range(g.vertex_count):
        if v not in order:
            visit(v)
    return tuple(cluster_id), tuple(clusters)


def test_scc_numbering_matches_recursive_tarjan():
    # Sinks, isolated vertices and self-loops at sizes on both sides of 64,
    # since forest ids and every hierarchy digest follow this numbering.
    rng = random.Random(20)
    for trial in range(300):
        n = rng.choice((rng.randint(1, 12), rng.randint(60, 140)))
        sinks = set(rng.sample(range(n), rng.randint(0, n // 3)))
        isolated = set(rng.sample(range(n), rng.randint(0, n // 4)))
        edges = set()
        for _ in range(rng.randint(0, 3 * n)):
            s, t = rng.randrange(n), rng.randrange(n)
            if s not in sinks and not {s, t} & isolated:
                edges.add((s, t))
        edges |= {(v, v) for v in rng.sample(range(n), rng.randint(0, n // 5))}
        g = graph(n, edges)
        assert g.edges == edges, trial
        part = strongly_connected_components(g)
        assert (part.cluster_id, part.clusters) == tarjan_reference(g), trial


def test_scc_deterministic():
    edges = frozenset({(0, 1), (1, 0), (2, 1), (3, 4), (4, 3), (1, 3)})
    g = graph(5, edges)
    parts = [strongly_connected_components(g).clusters for _ in range(3)]
    assert parts[0] == parts[1] == parts[2]


def test_condensation_gamma1_e5_shape():
    # level-1 graph of the five-state fixture: three clusters, one induced edge
    edges = frozenset({(0, 1), (1, 0), (2, 0), (3, 4), (4, 3)})
    g = graph(5, edges)
    part = strongly_connected_components(g)
    assert set(part.clusters) == {(0, 1), (2,), (3, 4)}
    src = part.clusters.index((2,))
    dst = part.clusters.index((0, 1))
    assert cluster_edges(g, part) == {(src, dst)}


def test_condensation_strongly_connected_input():
    g = graph(2, frozenset({(0, 1), (1, 0)}))
    part = strongly_connected_components(g)
    assert len(part.clusters) == 1 and cluster_edges(g, part) == set()


def test_condensation_acyclic_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 8)
        edges = frozenset(
            (rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)
        )
        g = graph(n, edges)
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
    for count in (-1, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="^vertex_count must be a non-negative"):
            SimpleDigraph(count, (0, 0))
    for rows in ((0,), (0, 0, 0), (), None, 3, "ab", {0, 1}):
        with pytest.raises(ValueError, match="^rows must be a sequence of 2 out-neigh"):
            SimpleDigraph(2, rows)
    # rows of a bool, a float, a string, a negative mask, or a bit at or
    # above vertex_count
    for row in (1.0, True, False, "1", None, 2**70 + 0.0, -1, 0b100, 1 << 64):
        with pytest.raises(ValueError, match="^row 1 must be a mask of vertices below 2"):
            SimpleDigraph(2, [0, row])
    for bad in ((0, 1.0), (2, (True, 0)), (1, (0, 4)), (1, (2,)), (-3, ())):
        with pytest.raises(ValueError) as info:
            SimpleDigraph(*bad)
        assert "\n" not in str(info.value)
    with pytest.raises(ValueError):
        is_strongly_connected(graph(0, frozenset()))
    g = SimpleDigraph(3, [0b110, 0, 0b001])
    assert g.rows == (0b110, 0, 0b001) and g == SimpleDigraph(3, (6, 0, 1))
    assert g.edges == frozenset({(0, 1), (0, 2), (2, 0)})
