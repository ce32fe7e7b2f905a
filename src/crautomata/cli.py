"""Subcommand CLI: generate, analyze, export, and cross-check automata.

Exit codes encode the reachability decision where one is made: 0 means
completely reachable, 1 means not, 2 means an error (bad input, bad usage).
Input files may be in the text format or the JSON document format; the
``--format`` flag controls output only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .automaton import Dfa, StateSet
from .dot import forest_dot, level_dot
from .formats import (
    dfa_to_doc,
    doc_to_dfa,
    format_states,
    format_word,
    gamma_to_doc,
    parse_dfa,
    serialize_dfa,
)
from .gamma import build_gamma, unreachable_witness
from .generators import cerny, e_family, fixed_example, random_dfa
from .oracle import (
    DEFAULT_MAX_STATES,
    powerset_reach_map,
    reset_threshold_exact,
    transition_monoid,
)
from .synchro import (
    avoiding_length_bound,
    cerny_bound,
    compress_length_bound,
    cubic_reset_bound,
    halving_length_bound,
    reset_word,
)
from .witness import reach_word


class _Out:
    """stdout wrapper honoring --quiet; errors always go to stderr."""

    def __init__(self, quiet: bool):
        self.quiet = quiet

    def line(self, text: str = "") -> None:
        if not self.quiet:
            print(text)

    def write(self, text: str) -> None:
        if not self.quiet:
            sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crautomata",
        description="Complete reachability analysis and word synthesis for DFAs.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress output, keep exit codes"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("generate", help="write an automaton from a builtin family")
    p.add_argument(
        "family", choices=("cerny", "e", "e5", "e12", "flipflop", "random")
    )
    p.add_argument("--n", type=int, help="state count")
    p.add_argument("--k", type=int, help="level parameter of the e family")
    p.add_argument("--m", type=int, help="letter count for random automata")
    p.add_argument(
        "--drop-last-b",
        action="store_true",
        help="omit the last b letter of the e family (breaks reachability)",
    )
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = sub.add_parser("analyze", help="decide complete reachability")
    p.add_argument("file")

    p = sub.add_parser("gamma", help="export the level hierarchy")
    p.add_argument("file")
    p.add_argument("--dot", metavar="DIR", help="write one DOT file per level into DIR")
    p.add_argument("--json", metavar="FILE", help="write the JSON document to FILE")

    p = sub.add_parser("reach", help="synthesize a word mapping Q onto a subset")
    p.add_argument("file")
    p.add_argument(
        "--subset", required=True, help="comma-separated 0-based states, e.g. 1,2,5"
    )

    p = sub.add_parser("sync", help="synthesize a reset word and report bounds")
    p.add_argument("file")

    p = sub.add_parser("oracle", help="brute-force powerset facts")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--threshold", action="store_true", help="exact reset threshold")
    g.add_argument(
        "--reach-map", action="store_true", help="list reachable subsets with words"
    )
    g.add_argument("--monoid", action="store_true", help="transition monoid size")
    p.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_MAX_STATES,
        help="state-count guard for the powerset search",
    )

    p = sub.add_parser("bounds", help="print the word-length bounds for a size")
    p.add_argument("file")
    return parser


def _load_dfa(path: str) -> Dfa:
    raw = Path(path).read_text(encoding="utf-8")
    if raw.lstrip().startswith("{"):
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
        return doc_to_dfa(doc)
    return parse_dfa(raw)


def _emit_json(out: _Out, doc: object) -> None:
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_generate(args: argparse.Namespace, out: _Out) -> int:
    family = args.family

    def need(name: str) -> int:
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"family '{family}' requires --{name}")
        return value

    if family == "cerny":
        dfa = cerny(need("n"))
    elif family == "e":
        dfa = e_family(need("n"), need("k"), drop_last_b=args.drop_last_b)
    elif family == "random":
        if args.seed is None:
            raise ValueError("family 'random' requires --seed")
        if args.seed < 0:
            raise ValueError("--seed must be non-negative")
        dfa = random_dfa(need("n"), need("m"), args.seed)
    else:
        dfa = fixed_example(family)

    if args.format == "json":
        text = json.dumps(dfa_to_doc(dfa), indent=2) + "\n"
    else:
        text = serialize_dfa(dfa)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        out.line(f"wrote {args.output}")
    else:
        out.write(text)
    return 0


def _cmd_analyze(args: argparse.Namespace, out: _Out) -> int:
    dfa = _load_dfa(args.file)
    result = build_gamma(dfa)
    witness = None if result.success else unreachable_witness(result, dfa)
    if args.format == "json":
        doc: dict[str, object] = {
            "completely_reachable": result.success,
            "outcome": result.outcome,
            "terminal_step": result.terminal_step,
        }
        if witness is not None:
            doc["unreachable_witness"] = sorted(witness)
        _emit_json(out, doc)
    else:
        out.line(f"outcome: {result.outcome}")
        out.line(f"terminal step: {result.terminal_step}")
        out.line(f"completely reachable: {'yes' if result.success else 'no'}")
        if witness is not None:
            out.line(f"unreachable witness: {format_states(witness)}")
    return 0 if result.success else 1


def _cmd_gamma(args: argparse.Namespace, out: _Out) -> int:
    dfa = _load_dfa(args.file)
    result = build_gamma(dfa)
    wrote = False
    if args.dot:
        directory = Path(args.dot)
        directory.mkdir(parents=True, exist_ok=True)
        for level in result.levels:
            path = directory / f"gamma_{level.level}.dot"
            path.write_text(level_dot(level, result.forest, dfa), encoding="utf-8")
        (directory / "forest.dot").write_text(
            forest_dot(result.forest), encoding="utf-8"
        )
        out.line(f"wrote {len(result.levels) + 1} DOT files to {args.dot}")
        wrote = True
    if args.json:
        doc = gamma_to_doc(result, dfa)
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        out.line(f"wrote {args.json}")
        wrote = True
    if wrote:
        return 0
    if args.format == "json":
        _emit_json(out, gamma_to_doc(result, dfa))
        return 0
    out.line(f"outcome: {result.outcome}")
    out.line(f"terminal step: {result.terminal_step}")
    for level in result.levels:
        graph = level.graph
        out.line(
            f"level {level.level}: {graph.vertex_count} vertices, "
            f"{len(graph.edges)} edges"
        )
        for src, dst in sorted(graph.edges):
            src_leaf = format_states(result.forest.leafage(level.vertices[src]))
            dst_leaf = format_states(result.forest.leafage(level.vertices[dst]))
            w = level.forcing.get((src, dst))
            if w is not None:
                out.line(
                    f"  {src_leaf} -> {dst_leaf}  forced by {format_word(w, dfa.alphabet)}"
                )
            else:
                out.line(f"  {src_leaf} -> {dst_leaf}  inherited")
    return 0


def _cmd_reach(args: argparse.Namespace, out: _Out) -> int:
    dfa = _load_dfa(args.file)
    tokens = [tok.strip() for tok in args.subset.split(",")]
    try:
        targets = [int(tok) for tok in tokens if tok]
    except ValueError:
        raise ValueError(
            f"--subset must be comma-separated integers, got '{args.subset}'"
        ) from None
    p = StateSet(targets)
    result = build_gamma(dfa)
    word, steps = reach_word(dfa, result, p)
    if args.format == "json":
        doc = {
            "subset": sorted(p),
            "word": list(word),
            "word_str": format_word(word, dfa.alphabet),
            "length": len(word),
            "steps": [
                {
                    "level": step.level,
                    "word": format_word(step.word, dfa.alphabet),
                    "source": sorted(step.source),
                    "target": sorted(step.target),
                }
                for step in steps
            ],
        }
        _emit_json(out, doc)
        return 0
    out.line(f"word: {format_word(word, dfa.alphabet)}")
    out.line(f"length: {len(word)}")
    for i, step in enumerate(steps, start=1):
        out.line(
            f"step {i} (level {step.level}): {format_states(step.source)}"
            f" . {format_word(step.word, dfa.alphabet)} = {format_states(step.target)}"
        )
    return 0


def _cmd_sync(args: argparse.Namespace, out: _Out) -> int:
    dfa = _load_dfa(args.file)
    report = reset_word(dfa)
    if args.format == "json":
        doc = {
            "word": list(report.word),
            "word_str": format_word(report.word, dfa.alphabet),
            "length": report.length,
            "halving_length": report.halving_length,
            "compression_lengths": list(report.compression_lengths),
            "cerny_bound": report.cerny_bound,
            "within_cerny": report.within_cerny,
            "cubic_bound": report.cubic_bound,
            "within_cubic": report.within_cubic,
        }
        _emit_json(out, doc)
        return 0
    out.line(f"reset word: {format_word(report.word, dfa.alphabet)}")
    out.line(f"length: {report.length}")
    out.line(f"halving length: {report.halving_length}")
    if report.compression_lengths:
        joined = ", ".join(str(x) for x in report.compression_lengths)
    else:
        joined = "none"
    out.line(f"compression lengths: {joined}")
    out.line(
        f"cerny bound: {report.cerny_bound}"
        f" ({'within' if report.within_cerny else 'exceeded'})"
    )
    out.line(
        f"cubic bound: {report.cubic_bound}"
        f" ({'within' if report.within_cubic else 'exceeded'})"
    )
    return 0


def _cmd_oracle(args: argparse.Namespace, out: _Out) -> int:
    dfa = _load_dfa(args.file)
    if args.threshold:
        threshold = reset_threshold_exact(dfa, args.max_n)
        if args.format == "json":
            _emit_json(out, {"reset_threshold": threshold})
        else:
            shown = "none" if threshold is None else str(threshold)
            out.line(f"reset threshold: {shown}")
        return 0
    if args.monoid:
        monoid = transition_monoid(dfa)
        singular = sum(
            1 for t in monoid.elements if len(set(t)) < dfa.n
        )
        if args.format == "json":
            _emit_json(out, {"monoid_size": len(monoid), "singular_size": singular})
        else:
            out.line(f"monoid size: {len(monoid)}")
            out.line(f"singular size: {singular}")
        return 0
    reach = powerset_reach_map(dfa, args.max_n)
    total = (1 << dfa.n) - 1
    cr = len(reach) == total
    if args.reach_map:
        subsets = sorted(reach.words, key=lambda m: (m.bit_count(), m))
        if args.format == "json":
            doc = {
                "completely_reachable": cr,
                "reachable_count": len(reach),
                "total": total,
                "subsets": [
                    {
                        "states": sorted(StateSet.from_mask(mask)),
                        "word": format_word(reach.words[mask], dfa.alphabet),
                    }
                    for mask in subsets
                ],
            }
            _emit_json(out, doc)
        else:
            out.line(f"reachable subsets: {len(reach)} of {total}")
            for mask in subsets:
                word = format_word(reach.words[mask], dfa.alphabet)
                out.line(f"  {format_states(StateSet.from_mask(mask))}: {word}")
        return 0 if cr else 1
    if args.format == "json":
        _emit_json(
            out,
            {
                "completely_reachable": cr,
                "reachable_count": len(reach),
                "total": total,
            },
        )
    else:
        out.line(f"completely reachable: {'yes' if cr else 'no'}")
        out.line(f"reachable subsets: {len(reach)} of {total}")
    return 0 if cr else 1


def _cmd_bounds(args: argparse.Namespace, out: _Out) -> int:
    dfa = _load_dfa(args.file)
    n = dfa.n
    compress = {k: compress_length_bound(n, k) for k in range(2, n + 1)}
    if args.format == "json":
        doc = {
            "states": n,
            "cerny": cerny_bound(n),
            "cubic_reset": cubic_reset_bound(n),
            "avoiding": avoiding_length_bound(n),
            "halving": halving_length_bound(n),
            "compress": {str(k): v for k, v in compress.items()},
        }
        _emit_json(out, doc)
        return 0
    out.line(f"states: {n}")
    out.line(f"cerny bound: {cerny_bound(n)}")
    out.line(f"cubic reset bound: {cubic_reset_bound(n)}")
    out.line(f"avoiding word bound: {avoiding_length_bound(n)}")
    out.line(f"halving word bound: {halving_length_bound(n)}")
    for k, value in compress.items():
        out.line(f"compress bound (k={k}): {value}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "gamma": _cmd_gamma,
    "reach": _cmd_reach,
    "sync": _cmd_sync,
    "oracle": _cmd_oracle,
    "bounds": _cmd_bounds,
}


# Built once: parsing leaves the parser unchanged.  Handlers still look up
# build_gamma, reset_word and the rest through this module's globals.
_PARSER = _build_parser()


def run_cli(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out = _Out(args.quiet)
    try:
        return _HANDLERS[args.command](args, out)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
