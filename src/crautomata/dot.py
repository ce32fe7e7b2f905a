"""Graphviz DOT rendering of hierarchy levels and the cluster forest.

Freshly forced edges are dashed and labeled with their forcing word;
inherited-only edges are solid.  The forest is drawn as a tree with one rank
per level.  All node and edge orderings are deterministic.
"""

from __future__ import annotations

from .automaton import Dfa
from .formats import format_states, format_word
from .gamma import ClusterForest, GammaLevel


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def level_dot(level: GammaLevel, forest: ClusterForest, dfa: Dfa) -> str:
    """One DOT digraph for a single hierarchy level."""
    lines = [f"digraph gamma_{level.level} {{"]
    for pos, nid in enumerate(level.vertices):
        label = format_states(forest.leafage(nid))
        lines.append(f"  v{pos} [label={_quote(label)}];")
    for src, dst in sorted(level.graph.edges):
        w = level.forcing.get((src, dst))
        if w is not None:
            label = format_word(w, dfa.alphabet)
            lines.append(f"  v{src} -> v{dst} [style=dashed, label={_quote(label)}];")
        else:
            lines.append(f"  v{src} -> v{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def forest_dot(forest: ClusterForest) -> str:
    """The containment forest as a DOT tree, one rank per level."""
    lines = ["digraph forest {", "  rankdir=BT;"]
    for nid in range(forest.node_count):
        label = format_states(forest.leafage(nid))
        lines.append(f"  f{nid} [label={_quote(label)}];")
    for level in range(1, forest.level_count + 1):
        members = "; ".join(f"f{nid}" for nid in forest.level_nodes(level))
        lines.append(f"  {{ rank=same; {members}; }}")
    for nid in range(forest.node_count):
        parent = forest.parent_of(nid)
        if parent is not None:
            lines.append(f"  f{nid} -> f{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"
