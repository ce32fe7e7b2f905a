"""Layer spans recorded by wrapping crautomata's public functions from outside.

``Tracer.install`` replaces each traced function in every crautomata module
that holds a reference to it (the package re-exports names and modules
import each other's functions by name), and ``uninstall`` puts the originals
back, so traced and untraced passes can alternate in one process.  Spans
stay in memory; self time is a span's duration minus that of its direct
children, which on one thread never overlap.

``extend_signature_masks`` is deliberately not traced: it runs millions of
times per decide pass and a wrapper would dominate what it measures.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Span name -> (module, attribute).  A dotted attribute names a method.
SPANS = {
    "canonical.grow": ("crautomata.canonical", "CanonicalWordSet.grow"),
    "canonical.select": ("crautomata.canonical", "CanonicalWordSet.signatures_of_defect"),
    "gamma.build": ("crautomata.gamma", "build_gamma"),
    "gamma.witness": ("crautomata.gamma", "unreachable_witness"),
    "digraph.scc": ("crautomata.digraph", "strongly_connected_components"),
    "witness.reach": ("crautomata.witness", "reach_word"),
    "witness.expand": ("crautomata.witness", "expand_step"),
    "synchro.reset": ("crautomata.synchro", "reset_word"),
    "synchro.halving": ("crautomata.synchro", "halving_word"),
    "synchro.avoid": ("crautomata.synchro", "avoiding_word"),
    "synchro.compress": ("crautomata.synchro", "compress_word"),
    "oracle.reach_map": ("crautomata.oracle", "powerset_reach_map"),
    "oracle.threshold": ("crautomata.oracle", "reset_threshold_exact"),
    "formats.parse": ("crautomata.formats", "parse_dfa"),
    "cli.run": ("crautomata.cli", "run_cli"),
}

# Calls counted only where these modules make them: (counter, module, name).
COUNTED = [
    ("automaton.excl_dupl_calls", "crautomata.witness", "excl_dupl"),
    ("automaton.excl_dupl_calls", "crautomata.synchro", "excl_dupl"),
    ("automaton.transformation_calls", "crautomata.witness", "transformation_of"),
    ("automaton.transformation_calls", "crautomata.synchro", "transformation_of"),
]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans and counters of one run, pass by pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, pass, name, start, end)
        self.pass_index = 0
        self.totals: dict[str, float] = defaultdict(float)
        self.self_times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, child seconds]
        self._signatures = 0
        self._patches: list[tuple[object, str, object]] = []

    def start_pass(self) -> None:
        self.pass_index += 1
        self.totals.clear()
        self.self_times.clear()
        self.counts.clear()

    def _after(self, name: str, args, result) -> None:
        # Counts read off the layer's own arguments and results.
        if name == "canonical.grow":
            self._signatures = len(args[0])
        elif name == "gamma.build":
            self.counts["canonical.signatures"] += self._signatures
            self._signatures = 0
            self.counts["gamma.levels"] += len(result.levels)
            for level in result.levels:
                self.counts["gamma.edges_forced"] += len(level.forcing)
                self.counts["gamma.edges_inherited"] += len(level.inherited)
        elif name == "witness.reach":
            self.counts["witness.rounds"] += len(result[1])
        elif name == "oracle.reach_map":
            self.counts["oracle.subsets"] += len(result)

    def _span(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.totals[name] += duration
                self.self_times[name] += duration - frame[1]
                self.counts[name + "_calls"] += 1
                spans.append((span_id, parent, self.pass_index, name, start, end))
            self._after(name, args, result)
            return result

        return traced

    def _counted(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "crautomata"]
        for name, (module, attr) in SPANS.items():
            owner, short = _resolve(module, attr)
            original = getattr(owner, short)
            wrapper = self._span(name, original)
            if owner is sys.modules[module]:
                # Rebind every module-level alias of the function.
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, short, wrapper)
        for counter, module, attr in COUNTED:
            owner = sys.modules[module]
            self._patch(owner, attr, self._counted(counter, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def layer_metrics(self) -> dict[str, float]:
        """This pass's per-layer figures, named as in BENCHMARK.json."""
        t, s, c = self.totals, self.self_times, self.counts
        return {
            "canonical.grow_s": t["canonical.grow"],
            "canonical.select_s": t["canonical.select"],
            "canonical.grow_calls": c["canonical.grow_calls"],
            "canonical.signatures": c["canonical.signatures"],
            "gamma.build_s": t["gamma.build"],
            "gamma.self_s": s["gamma.build"] + s["gamma.witness"],
            "gamma.levels": c["gamma.levels"],
            "gamma.edges_forced": c["gamma.edges_forced"],
            "gamma.edges_inherited": c["gamma.edges_inherited"],
            "digraph.scc_s": t["digraph.scc"],
            "digraph.scc_calls": c["digraph.scc_calls"],
            "witness.reach_s": t["witness.reach"],
            "witness.self_s": s["witness.reach"],
            "witness.expand_s": t["witness.expand"],
            "witness.rounds": c["witness.rounds"],
            "automaton.excl_dupl_calls": c["automaton.excl_dupl_calls"],
            "automaton.transformation_calls": c["automaton.transformation_calls"],
            "synchro.reset_s": t["synchro.reset"],
            "synchro.halving_s": t["synchro.halving"],
            "synchro.avoid_s": t["synchro.avoid"],
            "synchro.avoid_calls": c["synchro.avoid_calls"],
            "synchro.compress_s": t["synchro.compress"],
            "synchro.compress_calls": c["synchro.compress_calls"],
            "oracle.reach_map_s": t["oracle.reach_map"],
            "oracle.threshold_s": t["oracle.threshold"],
            "oracle.subsets": c["oracle.subsets"],
            "formats.parse_s": t["formats.parse"],
            "cli.self_s": s["cli.run"],
        }

    def roots(self) -> list[dict]:
        """Each top-level span of the last pass with the time of every layer under it.

        In the CLI workloads a top-level span is one op, in case order.
        """
        last = [s for s in self.spans if s[2] == self.pass_index]
        children = defaultdict(list)
        for span in last:
            children[span[1]].append(span)
        out = []
        for root in sorted(children[None], key=lambda s: s[4]):
            layers: dict[str, float] = defaultdict(float)
            todo = [root]
            while todo:
                span = todo.pop()
                layers[span[3]] += span[5] - span[4]
                todo += children[span[0]]
            out.append({"name": root[3], "seconds": root[5] - root[4], "layers": dict(layers)})
        return out

    def write(self, path: Path, summary: dict) -> None:
        """Write every span of the run plus the summary as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "summary": summary,
            "roots_of_last_pass": self.roots(),
            "fields": ["id", "parent", "pass", "name", "start", "end"],
            "spans": self.spans,
        }
        with path.open("w", encoding="utf-8") as fh:
            json.dump(doc, fh)
