"""Simple directed graphs and their strongly connected components.

No condensation routine lives here: the hierarchy maps each edge through
``ClusterPartition.cluster_id`` where it needs the condensation, and the
SCC numbering is reverse topological, so a sink cluster is one that no
edge leaves.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SimpleDigraph:
    """A directed graph without parallel edges on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        for s, t in self.edges:
            if not (0 <= s < self.vertex_count and 0 <= t < self.vertex_count):
                raise ValueError(f"edge ({s}, {t}) has an endpoint out of range")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for s, t in self.edges:
            adj[s].append(t)
        for row in adj:
            row.sort()
        return adj


@dataclass(frozen=True)
class ClusterPartition:
    """SCC partition: cluster_id per vertex plus the clusters as sorted tuples."""

    cluster_id: tuple[int, ...]
    clusters: tuple[tuple[int, ...], ...]


def strongly_connected_components(g: SimpleDigraph) -> ClusterPartition:
    """Tarjan's single-pass lowlink algorithm, iterative to spare the call stack.

    Components are numbered in completion order, which is the reverse
    topological order of the condensation: an edge between clusters always
    goes from a higher cluster index to a lower one.  Roots are scanned in
    vertex order and neighbor lists are sorted, so the numbering is
    deterministic.
    """
    nv = g.vertex_count
    adj = g.adjacency()
    order = [-1] * nv
    low = [0] * nv
    # A visited vertex is on the stack exactly until its component is found.
    comp_of = [-1] * nv
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0

    for root in range(nv):
        if order[root] != -1:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, children = work[-1]
            for u in children:
                if order[u] == -1:
                    order[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    work.append((u, iter(adj[u])))
                    break
                if comp_of[u] == -1:
                    low[v] = min(low[v], order[u])
            else:
                work.pop()
                if low[v] == order[v]:
                    comp = []
                    while True:
                        u = stack.pop()
                        comp_of[u] = len(components)
                        comp.append(u)
                        if u == v:
                            break
                    comp.sort()
                    components.append(tuple(comp))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])

    return ClusterPartition(tuple(comp_of), tuple(components))


def is_strongly_connected(g: SimpleDigraph) -> bool:
    if g.vertex_count == 0:
        raise ValueError("graph has no vertices")
    return len(strongly_connected_components(g).clusters) == 1
