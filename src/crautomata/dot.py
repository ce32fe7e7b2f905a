"""Graphviz DOT rendering of hierarchy levels and the cluster forest.

Both renderers read the document ``formats.gamma_to_doc`` builds: a level is
one entry of ``doc["levels"]`` and the forest is ``doc["forest"]``.  Freshly
forced edges are dashed and labeled with their forcing word; inherited-only
edges are solid.  The forest is drawn as a tree with one rank per level.
All node and edge orderings are those of the document, so deterministic.
"""

from __future__ import annotations

from typing import Any

from .formats import format_states


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def level_dot(level: dict[str, Any]) -> str:
    """One DOT digraph for a single hierarchy level."""
    lines = [f"digraph gamma_{level['level']} {{"]
    for pos, states in enumerate(level["vertices"]):
        lines.append(f"  v{pos} [label={_quote(format_states(states))}];")
    for edge in level["edges"]:
        arrow = f"  v{edge['src']} -> v{edge['dst']}"
        if "forced_by" in edge:
            lines.append(f"{arrow} [style=dashed, label={_quote(edge['forced_by'])}];")
        else:
            lines.append(f"{arrow};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def forest_dot(forest: dict[str, Any]) -> str:
    """The containment forest as a DOT tree, one rank per level."""
    lines = ["digraph forest {", "  rankdir=BT;"]
    ranks: dict[int, list[str]] = {}
    for node in forest["nodes"]:
        label = format_states(node["leafage"])
        lines.append(f"  f{node['id']} [label={_quote(label)}];")
        ranks.setdefault(node["level"], []).append(f"f{node['id']}")
    for members in ranks.values():
        lines.append(f"  {{ rank=same; {'; '.join(members)}; }}")
    for nid, parent in enumerate(forest["parents"]):
        if parent is not None:
            lines.append(f"  f{nid} -> f{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"
