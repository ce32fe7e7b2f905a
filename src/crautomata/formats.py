"""Text and JSON representations of automata and hierarchy results.

The text format is line-based UTF-8: comment lines start with ``#``, the
first payload line is ``states <n>``, the second ``alphabet <name...>``, and
then n rows of m integers give the transition table (row q, column a holds
q . a, states 0-based).  Whitespace-separated letter names therefore cannot
contain spaces.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Sequence

from .automaton import Dfa, Word
from .gamma import GammaResult


def format_word(word: Word, alphabet: Sequence[str]) -> str:
    """Human-readable word: concatenated if letters are single characters."""
    if not word:
        return "ε"
    names = [alphabet[a] for a in word]
    if all(len(alphabet[a]) == 1 for a in set(word)):
        return "".join(names)
    return " ".join(names)


def format_states(states: Iterable[int]) -> str:
    return "{" + ", ".join(str(q) for q in sorted(states)) + "}"


def parse_decimal(token: str) -> int:
    """Read ``-?[0-9]+`` only; ``int`` also takes ``1_0``, ``+4``, non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_dfa(text: str | bytes) -> Dfa:
    """Parse the line-based text format; diagnostics carry 1-based line numbers.

    One leading byte-order mark is skipped, in bytes and in a ``str`` alike.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8-sig")
    else:
        text = text.removeprefix("\ufeff")
    stripped = (line.strip() for line in text.splitlines())
    payload = (
        (i, line)
        for i, line in enumerate(stripped, start=1)
        if line and not line.startswith("#")
    )

    def next_line(expected: str) -> tuple[int, str]:
        item = next(payload, None)
        if item is None:
            raise ValueError(f"unexpected end of input: expected {expected}")
        return item

    lineno, line = next_line("'states <n>'")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "states":
        raise ValueError(f"line {lineno}: expected 'states <n>', got '{line}'")
    try:
        n = parse_decimal(tokens[1])
    except ValueError:
        raise ValueError(
            f"line {lineno}: state count '{tokens[1]}' is not an integer"
        ) from None
    if n < 1:
        raise ValueError(f"line {lineno}: state count must be at least 1, got {n}")

    lineno, line = next_line("'alphabet <name...>'")
    tokens = line.split()
    if len(tokens) < 2 or tokens[0] != "alphabet":
        raise ValueError(f"line {lineno}: expected 'alphabet <name...>', got '{line}'")
    alphabet = tuple(tokens[1:])
    seen: set[str] = set()
    for name in alphabet:
        if name in seen:
            raise ValueError(f"line {lineno}: duplicate letter name '{name}'")
        seen.add(name)
    m = len(alphabet)

    delta = []
    for q in range(n):
        lineno, line = next_line(f"{n} transition rows, got {q}")
        tokens = line.split()
        if len(tokens) != m:
            raise ValueError(
                f"line {lineno}: expected {m} transition entries, got {len(tokens)}"
            )
        row = []
        for token in tokens:
            try:
                target = parse_decimal(token)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: transition entry '{token}' is not an integer"
                ) from None
            if not 0 <= target < n:
                raise ValueError(
                    f"line {lineno}: target {target} out of range 0..{n - 1}"
                )
            row.append(target)
        delta.append(tuple(row))

    extra = next(payload, None)
    if extra is not None:
        lineno, line = extra
        raise ValueError(
            f"line {lineno}: unexpected content after the transition table: '{line}'"
        )
    return Dfa(n, alphabet, tuple(delta))


def serialize_dfa(dfa: Dfa) -> str:
    """Write ``dfa`` in the text format, which ``parse_dfa`` reads back.

    A letter name holding whitespace is refused: the alphabet line is split
    at whitespace.
    """
    for name in dfa.alphabet:
        if any(c.isspace() for c in name):
            raise ValueError(
                f"letter name {name!r} holds whitespace, which the text format "
                "cannot write"
            )
    rows = "\n".join(" ".join(str(t) for t in row) for row in dfa.delta)
    return f"states {dfa.n}\nalphabet {' '.join(dfa.alphabet)}\n{rows}\n"


def dfa_to_doc(dfa: Dfa) -> dict[str, Any]:
    return {
        "states": dfa.n,
        "alphabet": list(dfa.alphabet),
        "delta": [list(row) for row in dfa.delta],
    }


def doc_to_dfa(doc: dict[str, Any]) -> Dfa:
    try:
        n = doc["states"]
        alphabet = doc["alphabet"]
        delta = doc["delta"]
    except (KeyError, TypeError):
        raise ValueError(
            "automaton document needs 'states', 'alphabet' and 'delta' fields"
        ) from None
    return Dfa(n, alphabet, delta)


def gamma_to_doc(result: GammaResult, dfa: Dfa) -> dict[str, Any]:
    """JSON-ready digest of a hierarchy run.

    Level vertices are rendered as their leafages; edges carry either the
    forcing word (preferred when an edge is both forced and inherited) or an
    ``inherited`` marker.  Forest nodes are listed by id with parent links.
    """
    forest = result.forest
    levels = []
    for level in result.levels:
        vertices = [sorted(forest.leafage(nid)) for nid in level.vertices]
        edges = []
        for src, dst in sorted(level.graph.edges):
            entry: dict[str, Any] = {"src": src, "dst": dst}
            w = level.forcing.get((src, dst))
            if w is not None:
                entry["forced_by"] = format_word(w, dfa.alphabet)
            else:
                entry["inherited"] = True
            edges.append(entry)
        levels.append({"level": level.level, "vertices": vertices, "edges": edges})
    nodes = [
        {"id": nid, "level": forest.level_of(nid), "leafage": sorted(forest.leafage(nid))}
        for nid in range(forest.node_count)
    ]
    parents = [forest.parent_of(nid) for nid in range(forest.node_count)]
    return {
        "outcome": result.outcome,
        "terminal_step": result.terminal_step,
        "levels": levels,
        "forest": {"nodes": nodes, "parents": parents},
    }
