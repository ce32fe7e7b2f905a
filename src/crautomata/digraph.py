"""Simple directed graphs and their strongly connected components.

A graph is stored only as one out-neighbour mask per vertex, its row: bit t
of ``rows[s]`` is set iff (s, t) is an edge.  Tarjan's algorithm walks the
rows, lowest bit first; the edge pairs are built only where they are read.

No condensation routine lives here: the hierarchy maps each row through
``ClusterPartition.cluster_id`` where it needs the condensation, and the
SCC numbering is reverse topological, so a sink cluster is one that no
edge leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .automaton import _is_int, _is_list, iter_bits


@dataclass(frozen=True)
class SimpleDigraph:
    """A directed graph without parallel edges on vertices 0..vertex_count-1.

    ``rows[s]`` is the mask of the out-neighbours of s.  ``edges``, the
    frozenset of (s, t) pairs, is read off the rows on first access.
    """

    vertex_count: int
    rows: tuple[int, ...]

    def __post_init__(self):
        nv, rows = self.vertex_count, self.rows
        if not _is_int(nv) or nv < 0:
            raise ValueError(f"vertex_count must be a non-negative integer, got {nv!r}")
        if not _is_list(rows) or len(rows) != nv:
            raise ValueError(f"rows must be a sequence of {nv} out-neighbour masks")
        for s, row in enumerate(rows):
            if not _is_int(row) or row < 0 or row >> nv:
                raise ValueError(
                    f"row {s} must be a mask of vertices below {nv}, got {row!r}"
                )
        object.__setattr__(self, "rows", tuple(rows))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (s, t) for s, row in enumerate(self.rows) for t in iter_bits(row)
        )


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
    vertex order and each row's neighbours in ascending order, so the
    numbering is deterministic.  A vertex with an empty row is a component
    of its own and completes as soon as it is reached.
    """
    nv = g.vertex_count
    rows = g.rows
    # todo[v] holds the neighbours of v not yet scanned.
    todo = list(rows)
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
        order[root] = counter
        if not todo[root]:
            comp_of[root] = len(components)
            components.append((root,))
            continue
        low[root] = counter
        counter += 1
        stack.append(root)
        work = [root]
        while work:
            v = work[-1]
            rest = todo[v]
            while rest:
                bit = rest & -rest
                rest ^= bit
                u = bit.bit_length() - 1
                if order[u] == -1:
                    order[u] = counter
                    if not todo[u]:
                        comp_of[u] = len(components)
                        components.append((u,))
                        continue
                    low[u] = counter
                    counter += 1
                    stack.append(u)
                    work.append(u)
                    todo[v] = rest
                    break
                if comp_of[u] == -1 and order[u] < low[v]:
                    low[v] = order[u]
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
                    parent = work[-1]
                    if low[v] < low[parent]:
                        low[parent] = low[v]

    return ClusterPartition(tuple(comp_of), tuple(components))


def is_strongly_connected(g: SimpleDigraph) -> bool:
    if g.vertex_count == 0:
        raise ValueError("graph has no vertices")
    return len(strongly_connected_components(g).clusters) == 1
