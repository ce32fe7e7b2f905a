"""The level-graph hierarchy and the complete-reachability decision.

One loop makes every level.  The level-k graph has the forest's level-k
nodes as vertices; its edges are the condensation of level k-1 plus the
edges forced by the excluded sets and duplicate states of defect-k words.
Level 1 is the case with no previous level: its nodes are the single states
and nothing is inherited.  While a level is not strongly connected, its
clusters become the next level of the cluster forest.  The process stops
with SUCCESS on a strongly connected level and with FAILURE when every new
cluster has a leafage of at most k states after step k; it always stops by
step n-1.  The sink clusters behind the unreachable witness are read off
the forest's top level, which holds the terminal level's clusters.

The decision reads only each kept word's excluded set and duplicate states.
So every forced edge records its word's shortlex code, and ``forcing``
builds a word only when it is read: the DOT and JSON renderings and
``reach_word`` read words, the decision and the unreachable witness none.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from .automaton import Dfa, StateSet, Word, iter_bits
from .canonical import PairWordSet
from .digraph import SimpleDigraph, strongly_connected_components

SUCCESS = "SUCCESS"
FAILURE = "FAILURE"


class ClusterForest:
    """Layered containment forest over the original states.

    Nodes get dense ids in creation order, one level at a time, so each level
    is a range of ids: level k holds ``_starts[k-1]`` to ``_starts[k] - 1``.
    Level 1 holds one node per state (node id = state index).  Each
    higher-level node owns a group of nodes of the level below; its leafage is
    the disjoint union of theirs, and within every level the leafages
    partition the state set.
    """

    def __init__(self, n: int):
        self._starts: list[int] = [0, n]
        self._parent: list[int | None] = [None] * n
        self._leafage: list[int] = [1 << q for q in range(n)]

    @property
    def level_count(self) -> int:
        return len(self._starts) - 1

    @property
    def node_count(self) -> int:
        return len(self._parent)

    def _level(self, level: int) -> slice:
        if not 1 <= level <= self.level_count:
            raise ValueError(f"no level {level} in a forest of {self.level_count}")
        return slice(self._starts[level - 1], self._starts[level])

    def level_nodes(self, level: int) -> list[int]:
        ids = self._level(level)
        return list(range(ids.start, ids.stop))

    def leafage_masks(self, level: int) -> tuple[int, ...]:
        """The leafage masks of the level's nodes, in id order."""
        return tuple(self._leafage[self._level(level)])

    def _id(self, node: int) -> int:
        if not 0 <= node < len(self._parent):
            raise IndexError(f"no node {node} in a forest of {self.node_count}")
        return node

    def parent_of(self, node: int) -> int | None:
        return self._parent[self._id(node)]

    def level_of(self, node: int) -> int:
        return bisect_right(self._starts, self._id(node))

    def leafage_mask(self, node: int) -> int:
        return self._leafage[self._id(node)]

    def leafage(self, node: int) -> StateSet:
        return StateSet.from_mask(self.leafage_mask(node))

    def add_level(self, groups: list[list[int]]) -> list[int]:
        """Append a level whose nodes own the given groups of current top nodes."""
        grouped = [node for group in groups for node in group]
        if sorted(grouped) != list(range(self._starts[-2], self._starts[-1])):
            raise ValueError("groups must partition the current top level")
        for group in groups:
            nid = len(self._parent)
            mask = 0
            for member in group:
                self._parent[member] = nid
                mask |= self._leafage[member]
            self._parent.append(None)
            self._leafage.append(mask)
        self._starts.append(len(self._parent))
        return self.level_nodes(self.level_count)


class ForcingWords(Mapping[tuple[int, int], Word]):
    """A read-only map from forced edges to words held as shortlex codes.

    Reading an item builds its word with ``decode``; ``len``, iteration and
    ``in`` build none.  Iteration follows the insertion order of ``codes``.
    """

    __slots__ = ("_codes", "_decode")

    def __init__(
        self, codes: dict[tuple[int, int], int], decode: Callable[[int], Word]
    ):
        self._codes = codes
        self._decode = decode

    def __getitem__(self, edge: tuple[int, int]) -> Word:
        return self._decode(self._codes[edge])

    def get(self, edge: tuple[int, int], default: Word | None = None) -> Word | None:
        code = self._codes.get(edge)
        return default if code is None else self._decode(code)

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._codes)

    def __contains__(self, edge: object) -> bool:
        return edge in self._codes

    def __repr__(self) -> str:
        return f"ForcingWords({dict(self.items())!r})"


@dataclass(frozen=True)
class GammaLevel:
    """One level of the hierarchy.

    ``vertices[i]`` is the forest node behind graph vertex i and
    ``leafage[i]`` the mask of that node's leafage.  ``forcing`` maps each
    freshly forced edge to the shortlex-least word of defect ``level``
    forcing it, inserted in (len(w), w, edge) order, which ``reach_word``
    relies on; it builds a word only when the word is read.  ``inherited``
    marks the condensation-induced edges.  An edge may be both inherited and
    freshly forced.
    """

    level: int
    vertices: tuple[int, ...]
    leafage: tuple[int, ...]
    graph: SimpleDigraph
    forcing: ForcingWords
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


def build_gamma(dfa: Dfa) -> GammaResult:
    """Run the hierarchy until SUCCESS or FAILURE.

    The pair walk is grown one defect level at a time, resuming its
    frontier rather than restarting it; the ``canonical`` module docstring
    says why its kept words (w, X, D) give every edge its least forcing
    word.  X fits inside the leafage of at most one cluster (leafages
    partition the states), and when it does, w forces an edge from that
    cluster to every other cluster whose leafage meets D; each edge keeps
    the first word that forces it.  Each edge records the code of its word,
    and the walk's decoder builds the word when ``forcing`` is read, so the
    decision itself builds no word.  New forest node i is SCC cluster i, so
    the cluster ids carry ``owner`` (state -> level-k vertex) and the
    condensation up one level.  Levels with no fresh edges and no
    condensation progress are simply iterated past; the leafage test bounds
    the number of steps by n-1.
    """
    n = dfa.n
    forest = ClusterForest(n)
    cws = PairWordSet(dfa)
    levels: list[GammaLevel] = []
    inherited: frozenset[tuple[int, int]] = frozenset()
    owner = list(range(n))
    k = 1
    while True:
        cws.grow(k)
        vertices = forest.level_nodes(k)
        leaf = forest.leafage_masks(k)
        codes: dict[tuple[int, int], int] = {}
        for code, em, dm in cws.signatures_of_defect(k):
            src = owner[em.bit_length() - 1]
            if em & ~leaf[src]:
                continue
            # Words come in shortlex order and each edge keeps its first, so
            # sorting puts ``forcing`` in (len(w), w, edge) order.
            for dst in sorted({owner[q] for q in iter_bits(dm)}):
                if dst != src:
                    codes.setdefault((src, dst), code)
        graph = SimpleDigraph(len(vertices), inherited | set(codes))
        forcing = ForcingWords(codes, cws.word)
        levels.append(GammaLevel(k, tuple(vertices), leaf, graph, forcing, inherited))
        part = strongly_connected_components(graph)
        forest.add_level([[vertices[v] for v in cluster] for cluster in part.clusters])
        if len(part.clusters) == 1:
            return GammaResult(SUCCESS, k, tuple(levels), forest)
        if all(mask.bit_count() <= k for mask in forest.leafage_masks(k + 1)):
            return GammaResult(FAILURE, k, tuple(levels), forest)
        cid = part.cluster_id
        inherited = frozenset(
            (cid[s], cid[t]) for s, t in graph.edges if cid[s] != cid[t]
        )
        owner = [cid[v] for v in owner]
        k += 1
        if k > n - 1:  # unreachable: with >= 2 clusters every leafage is < n
            raise RuntimeError("hierarchy failed to settle within n-1 steps")


def decide_complete_reachability(dfa: Dfa) -> tuple[bool, GammaResult]:
    """True iff every non-empty subset of states is the image of the full set."""
    result = build_gamma(dfa)
    return result.success, result


def unreachable_witness(result: GammaResult, dfa: Dfa) -> StateSet:
    """A subset guaranteed unreachable after FAILURE.

    The forest's top level holds the clusters of the terminal level, each
    vertex's cluster being its forest parent.  Take a sink cluster (one that
    no edge leaves; ties broken by the smallest state in the leafage) and
    return the complement of its leafage.
    """
    if result.outcome != FAILURE:
        raise ValueError("an unreachable witness only exists for FAILURE results")
    forest = result.forest
    last = result.levels[-1]
    cluster = [forest.parent_of(nid) for nid in last.vertices]
    has_out = {cluster[s] for s, t in last.graph.edges if cluster[s] != cluster[t]}
    sinks = [
        forest.leafage_mask(c)
        for c in forest.level_nodes(forest.level_count)
        if c not in has_out
    ]
    best_mask = min(sinks, key=lambda mask: mask & -mask)
    full = (1 << dfa.n) - 1
    return StateSet.from_mask(full & ~best_mask)
