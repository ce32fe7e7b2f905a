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

A level whose condensation has no edge between clusters may settle that
FAILURE early.  A word w *extends* a state set S when every state of S has
a w-preimage and some state of S has two.  A word forces an edge C -> D at
some level exactly when it extends Q \\ leaf(C): its excl set lies inside
leaf(C) and it duplicates a state outside C.  So when a search finds no
extending word for the complement of any cluster's leafage, every later
level is the same edgeless condensation, and the levels up to the step of
the largest leafage are appended without walking their defects.  A search
that stops at its cap certifies nothing, and the walk goes on.  The search
reads Q's images from ``automaton.images_of_full`` and steps backwards, and
the walk's rows come from ``automaton.letter_rows``, so the decision never
fills the forward image table.

Many small random automata never reach the walk.  A word's defect is at
least that of each of its letters, and a word of permutations has defect 0.
So when n >= 2 and no letter has defect 1, no word has defect 1, and level
1 is n singletons with no edge: FAILURE at step 1, read off the letters'
image sizes before any word is walked.  No word then extends an (n-1)-set,
so such an automaton is never completely reachable.

A level graph is stored only as rows, one out-neighbour mask per vertex:
its forced edges ORed with its inherited row, the rows of a previous-level
cluster's members mapped through the cluster ids.  Edge pairs are built
only where read, by the renderings and the witness, never by the decision
on SUCCESS; only the few inherited edges are also kept as pairs.

The decision reads only each kept word's excluded set and duplicate states.
So every forced edge records its word's shortlex code, and ``forcing``
builds a word only when it is read: the DOT and JSON renderings and
``reach_word`` read words, the decision and the unreachable witness none.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from .automaton import (
    Dfa,
    StateSet,
    Word,
    _is_int,
    images_of_full,
    iter_bits,
    packed_preimages,
    step_all,
)
from .canonical import CanonicalWordSet, word_decoder
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

    def level_nodes(self, level: int) -> list[int]:
        if not _is_int(level):
            raise ValueError(f"level {level!r} is not an integer")
        if not 1 <= level <= self.level_count:
            raise ValueError(f"no level {level} in a forest of {self.level_count}")
        return list(range(self._starts[level - 1], self._starts[level]))

    def _id(self, node: int) -> int:
        if not _is_int(node):
            raise ValueError(f"node index {node!r} is not an integer")
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterForest):
            return NotImplemented
        return (self._starts, self._parent, self._leafage) == (
            other._starts, other._parent, other._leafage
        )

    def __repr__(self) -> str:
        return (
            f"ClusterForest(starts={self._starts!r}, parent={self._parent!r}, "
            f"leafage={self._leafage!r})"
        )

    def _push_level(self, cluster_id: Sequence[int], count: int) -> None:
        """Append ``count`` nodes, new node i owning the top nodes first + v
        with ``cluster_id[v] == i``; every i below count must occur."""
        parent, leafage = self._parent, self._leafage
        first, stop = self._starts[-2:]
        masks = [0] * count
        for c, mask in zip(cluster_id, leafage[first:]):
            masks[c] |= mask
        parent[first:] = [stop + c for c in cluster_id]
        parent += [None] * count
        leafage += masks
        self._starts.append(len(parent))


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
    """The hierarchy that ``build_gamma`` built for ``dfa``.

    Its readers (``unreachable_witness``, ``reach_word`` and
    ``formats.gamma_to_doc``) refuse any automaton but ``dfa`` or an equal copy.
    ``_preimages`` is ``reach_word``'s memo: the preimage masks of each
    forcing word it has read, kept as long as the result.
    """

    outcome: str
    terminal_step: int
    levels: tuple[GammaLevel, ...]
    forest: ClusterForest
    dfa: Dfa
    _preimages: dict[Word, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
    the first word that forces it.  The loop keeps each vertex's forced
    out-neighbours as one mask: a word's destinations are D mapped to level
    vertices (D itself at level 1, where vertex q is state q), and its new
    edges go to those not yet in the source's mask, other than the source,
    recorded in ascending order.  Each edge records the code of its word, and the walk's decoder
    builds the word when ``forcing`` is read, so the decision itself builds
    no word.  New forest node i is SCC cluster i, so the cluster ids carry
    ``owner`` (state -> level-k vertex) and the graph's rows, as the
    condensation, up one level.  Levels with no fresh edges and no
    condensation progress are simply iterated past; the leafage test bounds
    the number of steps by n-1.

    A level that ends in neither outcome and whose condensation has no edge
    stops the walk once, for every new cluster C, no word extends
    Q \\ leaf(C): a word forcing C -> D at any later level would extend it.
    Each later level is then that edgeless condensation with an identity
    forest level, so the levels up to the largest leafage L are appended as
    they are, and FAILURE comes at step L with the same levels, forest and
    witness that walking every defect to L gives.

    With n >= 2 and no letter of defect 1, no word has defect 1: a word's
    defect is at least each of its letters', and a word of permutations has
    defect 0.  Level 1 is then that edgeless case, with every leafage a
    single state, so FAILURE at step 1 is returned before the walk is built.
    """
    n = dfa.n
    forest = ClusterForest(n)
    if n > 1 and not _has_defect_one_letter(dfa):
        return _settle_edgeless(dfa, forest, [])
    starts, leafages = forest._starts, forest._leafage
    cws = CanonicalWordSet(dfa)
    levels: list[GammaLevel] = []
    inherited_rows, inherited = [0] * n, frozenset()
    owner = list(range(n))
    vertex_bit: list[int] = []  # 1 << owner[q], read above level 1
    full = (1 << n) - 1
    k = 1
    while True:
        cws.grow(k)
        first, stop = starts[k - 1], starts[k]
        leaf = tuple(leafages[first:stop])
        forced = [0] * (stop - first)
        codes: dict[tuple[int, int], int] = {}
        for code, em, dm in cws.signatures_of_defect(k):
            if k == 1:  # a defect-1 excl set is one state, a vertex of its own
                src, dst = em.bit_length() - 1, dm
            else:
                src = owner[em.bit_length() - 1]
                if em & ~leaf[src]:
                    continue
                dst = _image(dm, vertex_bit)
            new = dst & ~(forced[src] | 1 << src)
            if new:
                forced[src] |= new
                # Words come in shortlex order and each edge keeps its first,
                # so ascending destinations put ``forcing`` in (len(w), w,
                # edge) order.
                while new:
                    bit = new & -new
                    new ^= bit
                    codes[src, bit.bit_length() - 1] = code
        graph = SimpleDigraph(len(leaf), [f | i for f, i in zip(forced, inherited_rows)])
        forcing = ForcingWords(codes, cws.word)
        vertices = tuple(range(first, stop))
        levels.append(GammaLevel(k, vertices, leaf, graph, forcing, inherited))
        part = strongly_connected_components(graph)
        forest._push_level(part.cluster_id, len(part.clusters))
        if len(part.clusters) == 1:
            return GammaResult(SUCCESS, k, tuple(levels), forest, dfa)
        if max(map(int.bit_count, leafages[stop:])) <= k:
            return GammaResult(FAILURE, k, tuple(levels), forest, dfa)
        cid = part.cluster_id
        cluster_bit = [1 << c for c in cid]
        rows = [0] * len(part.clusters)
        for c, row in zip(cid, graph.rows):
            rows[c] |= row
        inherited_rows = [
            _image(row, cluster_bit) & ~(1 << c) for c, row in enumerate(rows)
        ]
        # An edge C -> D of the condensation came from a word that extends
        # Q \ leaf(C), so only an edgeless condensation can be certified.
        if not any(inherited_rows) and all(
            _extension_search(dfa, full ^ mask) is False for mask in leafages[stop:]
        ):
            return _settle_edgeless(dfa, forest, levels)
        inherited = frozenset(
            (c, t) for c, row in enumerate(inherited_rows) for t in iter_bits(row)
        )
        vertex_bit = [cluster_bit[v] for v in owner]
        owner = [cid[v] for v in owner]
        k += 1
        if k > n - 1:  # unreachable: with >= 2 clusters every leafage is < n
            raise RuntimeError("hierarchy failed to settle within n-1 steps")


def _has_defect_one_letter(dfa: Dfa) -> bool:
    """Whether some letter's image misses exactly one state."""
    size = dfa.n - 1
    return any(len(set(column)) == size for column in zip(*dfa.delta))


def _settle_edgeless(
    dfa: Dfa, forest: ClusterForest, levels: list[GammaLevel]
) -> GammaResult:
    """FAILURE at the step of the largest leafage on the forest's top level.

    Every level from the top one to there is what the loop would build when
    no word can force an edge: the same vertices with no edge, each vertex a
    cluster of its own, so the forest repeats the top level.
    """
    starts, leafages = forest._starts, forest._leafage
    leaf = tuple(leafages[starts[-2]:])
    count = len(leaf)
    graph = SimpleDigraph(count, [0] * count)
    no_words = ForcingWords({}, word_decoder(dfa.m))
    last = max(map(int.bit_count, leaf))
    for k in range(len(levels) + 1, last + 1):
        vertices = tuple(range(starts[k - 1], starts[k]))
        levels.append(GammaLevel(k, vertices, leaf, graph, no_words, frozenset()))
        forest._push_level(range(count), count)
    return GammaResult(FAILURE, last, tuple(levels), forest, dfa)


# The most sets _extension_search expands before it answers None.
_SEARCH_CAP = 4096


def _extension_search(dfa: Dfa, s: int) -> bool | None:
    """Whether some word extends the non-empty state set ``s`` (a mask).

    A word w extends S when every state of S has a w-preimage and some
    state has two.  The search is breadth-first over the sets T = S·w^-1
    that keep one preimage per state of S, prepending one letter at a time.
    Every state of S keeps a preimage under aw iff T lies inside the image
    of a, and then some state gets two iff |T·a^-1| > |T|.  Both tests read
    only T, so deduplicating by T keeps the answer, and breadth-first order
    still meets a shortest extending word first.  False, found when every
    set is expanded, is a proof; None means the search stopped at the cap.
    """
    n = dfa.n
    full = (1 << n) - 1
    shifts = range(0, dfa.m * n, n)
    cover = images_of_full(dfa)
    images = [cover >> shift & full for shift in shifts]
    packed = packed_preimages(dfa)
    queue = [s]
    seen = {s}
    for expanded, t in enumerate(queue):  # grows while it is read
        if expanded >= _SEARCH_CAP:
            return None
        pres = step_all(packed, t)
        size = t.bit_count()
        for shift, image in zip(shifts, images):
            if t & ~image:
                continue
            pre = pres >> shift & full
            if pre.bit_count() > size:
                return True
            if pre not in seen:
                seen.add(pre)
                queue.append(pre)
    return False


def _image(mask: int, bits: list[int]) -> int:
    """The union of ``bits[i]`` over the set bits i of ``mask``."""
    image = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        image |= bits[bit.bit_length() - 1]
    return image


def _check_built_for(result: GammaResult, dfa: Dfa) -> None:
    """Refuse a hierarchy built for an automaton unequal to ``dfa``."""
    built = result.dfa
    if built is dfa:
        return
    if built.n != dfa.n:
        raise ValueError(
            f"the hierarchy was built for {built.n} states, the automaton has {dfa.n}"
        )
    if built != dfa:
        raise ValueError(
            "the hierarchy was built for another automaton of the same size"
        )


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
    _check_built_for(result, dfa)
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
