"""The level-graph hierarchy and the complete-reachability decision.

One builder makes every level.  The level-k graph has the forest's level-k
nodes as vertices; its edges are the condensation of level k-1 plus the
edges forced by the (excluded, duplicate) signatures of defect-k words.
Level 1 is the case with no previous level: its nodes are the single states
and nothing is inherited.  While a level is not strongly connected, its
clusters become the next level of the cluster forest.  The process stops
with SUCCESS on a strongly connected level and with FAILURE when every new
cluster has a leafage of at most k states after step k; it always stops by
step n-1.  The sink clusters behind the unreachable witness are read off
the SCC numbering directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import Dfa, StateSet, Word, iter_bits
from .canonical import CanonicalWordSet, _Entry
from .digraph import SimpleDigraph, strongly_connected_components

SUCCESS = "SUCCESS"
FAILURE = "FAILURE"


class ClusterForest:
    """Layered containment forest over the original states.

    Nodes get dense ids in creation order; level 1 holds one node per state
    (node id = state index).  Each higher-level node owns a group of nodes of
    the level below; its leafage is the disjoint union of theirs, and within
    every level the leafages partition the state set.
    """

    def __init__(self, n: int):
        self._n = n
        self._levels: list[list[int]] = [list(range(n))]
        self._parent: list[int | None] = [None] * n
        self._children: list[tuple[int, ...]] = [()] * n
        self._level_of: list[int] = [1] * n
        self._leafage: list[int] = [1 << q for q in range(n)]

    @property
    def n(self) -> int:
        return self._n

    @property
    def level_count(self) -> int:
        return len(self._levels)

    @property
    def node_count(self) -> int:
        return len(self._parent)

    def level_nodes(self, level: int) -> list[int]:
        if not 1 <= level <= self.level_count:
            raise ValueError(f"no level {level} in a forest of {self.level_count}")
        return list(self._levels[level - 1])

    def parent_of(self, node: int) -> int | None:
        return self._parent[node]

    def children_of(self, node: int) -> tuple[int, ...]:
        return self._children[node]

    def level_of(self, node: int) -> int:
        return self._level_of[node]

    def leafage_mask(self, node: int) -> int:
        return self._leafage[node]

    def leafage(self, node: int) -> StateSet:
        return StateSet.from_mask(self._leafage[node])

    def add_level(self, groups: list[list[int]]) -> list[int]:
        """Append a level whose nodes own the given groups of current top nodes."""
        top = self._levels[-1]
        grouped = [node for group in groups for node in group]
        if sorted(grouped) != sorted(top):
            raise ValueError("groups must partition the current top level")
        new_ids = []
        level = self.level_count + 1
        for group in groups:
            nid = len(self._parent)
            mask = 0
            for member in group:
                self._parent[member] = nid
                mask |= self._leafage[member]
            self._parent.append(None)
            self._children.append(tuple(group))
            self._level_of.append(level)
            self._leafage.append(mask)
            new_ids.append(nid)
        self._levels.append(new_ids)
        return new_ids


@dataclass(frozen=True)
class GammaLevel:
    """One level of the hierarchy.

    ``vertices[i]`` is the forest node behind graph vertex i.  ``forcing``
    maps each freshly forced edge to the shortlex-least word of defect
    ``level`` forcing it; ``inherited`` marks the condensation-induced edges.
    An edge may be both inherited and freshly forced.
    """

    level: int
    vertices: tuple[int, ...]
    graph: SimpleDigraph
    forcing: dict[tuple[int, int], Word]
    inherited: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class GammaResult:
    outcome: str
    terminal_step: int
    levels: tuple[GammaLevel, ...]
    forest: ClusterForest

    @property
    def success(self) -> bool:
        return self.outcome == SUCCESS


def _build_level(
    forest: ClusterForest,
    k: int,
    entries: list[_Entry],
    inherited: frozenset[tuple[int, int]],
) -> GammaLevel:
    """The level-k graph on the forest's level-k nodes.

    ``inherited`` is the condensation of the previous level (empty at level
    1, whose nodes are the single states).  For each defect-k signature
    (X, D): X fits inside the leafage of at most one cluster (leafages
    partition the states), and when it does, an edge runs from that cluster
    to every other cluster whose leafage meets D.  One signature may force
    several edges.
    """
    vertices = forest.level_nodes(k)
    leaf = [forest.leafage_mask(nid) for nid in vertices]
    owner = {}
    for pos, mask in enumerate(leaf):
        for q in iter_bits(mask):
            owner[q] = pos

    forcing: dict[tuple[int, int], Word] = {}
    for w, em, dm in entries:
        src = owner[em.bit_length() - 1]
        if em & ~leaf[src]:
            continue
        for dst, mask in enumerate(leaf):
            if dst != src and mask & dm:
                edge = (src, dst)
                if edge not in forcing:
                    forcing[edge] = w

    graph = SimpleDigraph(len(vertices), inherited | set(forcing))
    return GammaLevel(k, tuple(vertices), graph, forcing, inherited)


def build_gamma(dfa: Dfa) -> GammaResult:
    """Run the hierarchy until SUCCESS or FAILURE.

    Canonical words are grown one defect level at a time, resuming the
    enumeration frontier rather than restarting it.  Levels with no fresh
    edges and no condensation progress are simply iterated past; the leafage
    test bounds the number of steps by n-1.
    """
    n = dfa.n
    forest = ClusterForest(n)
    cws = CanonicalWordSet(dfa)
    levels: list[GammaLevel] = []
    inherited: frozenset[tuple[int, int]] = frozenset()
    k = 1
    while True:
        cws.grow(k)
        level = _build_level(forest, k, cws.signatures_of_defect(k), inherited)
        levels.append(level)
        part = strongly_connected_components(level.graph)
        groups = [
            [level.vertices[v] for v in cluster] for cluster in part.clusters
        ]
        forest.add_level(groups)
        if len(part.clusters) == 1:
            return GammaResult(SUCCESS, k, tuple(levels), forest)
        new_nodes = forest.level_nodes(k + 1)
        if all(forest.leafage_mask(nid).bit_count() <= k for nid in new_nodes):
            return GammaResult(FAILURE, k, tuple(levels), forest)
        # New node i is cluster i, so cluster ids are the next level's vertices.
        cid = part.cluster_id
        inherited = frozenset(
            (cid[s], cid[t]) for s, t in level.graph.edges if cid[s] != cid[t]
        )
        k += 1
        if k > n - 1:  # unreachable: with >= 2 clusters every leafage is < n
            raise RuntimeError("hierarchy failed to settle within n-1 steps")


def decide_complete_reachability(dfa: Dfa) -> tuple[bool, GammaResult]:
    """True iff every non-empty subset of states is the image of the full set."""
    result = build_gamma(dfa)
    return result.success, result


def unreachable_witness(result: GammaResult, dfa: Dfa) -> StateSet:
    """A subset guaranteed unreachable after FAILURE.

    Take a cluster of the terminal level that is minimal in the reachability
    order (a cluster that no edge leaves; ties broken by the smallest state
    in the leafage) and return the complement of its leafage.
    """
    if result.outcome != FAILURE:
        raise ValueError("an unreachable witness only exists for FAILURE results")
    last = result.levels[-1]
    part = strongly_connected_components(last.graph)
    cid = part.cluster_id
    has_out = {cid[s] for s, t in last.graph.edges if cid[s] != cid[t]}
    best_mask = None
    for i, cluster in enumerate(part.clusters):
        if i in has_out:
            continue
        mask = 0
        for v in cluster:
            mask |= result.forest.leafage_mask(last.vertices[v])
        if best_mask is None or (mask & -mask) < (best_mask & -best_mask):
            best_mask = mask
    assert best_mask is not None  # cluster 0 is a sink: Tarjan numbers sinks first
    full = (1 << dfa.n) - 1
    return StateSet.from_mask(full & ~best_mask)
