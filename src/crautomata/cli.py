"""Subcommand CLI: generate, analyze, export, and cross-check automata.

Exit codes encode the reachability decision where one is made: 0 means
completely reachable, 1 means not, 2 means an error (bad input, bad usage,
or an internal fault).  Input files may be in the text format or the JSON
document format.

Each command handler builds its result once and returns it as a report: the
exit code, a JSON-ready dict (or None) and the text lines rendered from that
dict.  Only ``run_cli`` writes to stdout.  It prints the dict with sorted keys
under ``--format json``, the lines otherwise, and nothing under ``--quiet``.
A run that ends in an error prints nothing to stdout.  ``generate`` is the
one command that reads ``--format`` itself, as the format of the automaton
it writes; it and ``gamma --dot/--json`` report only text lines, so their
output and ``wrote ...`` lines come out in either format.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .automaton import Dfa, StateSet
from .dot import forest_dot, level_dot
from .formats import (
    dfa_to_doc,
    doc_to_dfa,
    format_states,
    format_word,
    gamma_to_doc,
    parse_decimal,
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

# (exit code, JSON report or None, text lines): what one command produced.
Report = tuple[int, dict[str, Any] | None, list[str]]


def decimal(token: str) -> int:
    """Option type for plain decimal integers; argparse names it in errors."""
    return parse_decimal(token)


# The generate options each family reads; giving it any other is an error.
_FAMILY_OPTIONS = {
    "cerny": ("n",),
    "e": ("n", "k", "drop_last_b"),
    "e5": (),
    "e12": (),
    "flipflop": (),
    "random": ("n", "m"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crautomata",
        description="Complete reachability analysis and word synthesis for DFAs.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument("--seed", type=decimal, default=None, help="random seed")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress output, keep exit codes"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("generate", help="write an automaton from a builtin family")
    p.add_argument("family", choices=tuple(_FAMILY_OPTIONS))
    p.add_argument("--n", type=decimal, help="state count")
    p.add_argument("--k", type=decimal, help="level parameter of the e family")
    p.add_argument("--m", type=decimal, help="letter count for random automata")
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
        type=decimal,
        default=DEFAULT_MAX_STATES,
        help="state-count guard for the brute-force searches",
    )

    p = sub.add_parser("bounds", help="print the word-length bounds for a size")
    p.add_argument("file")
    return parser


def _load_dfa(path: str) -> Dfa:
    raw = Path(path).read_text(encoding="utf-8-sig")
    if raw.lstrip().startswith("{"):
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
        return doc_to_dfa(doc)
    return parse_dfa(raw)


def _cmd_generate(args: argparse.Namespace) -> Report:
    family = args.family
    for name, unset in (("n", None), ("k", None), ("m", None), ("drop_last_b", False)):
        if getattr(args, name) is not unset and name not in _FAMILY_OPTIONS[family]:
            option = name.replace("_", "-")
            raise ValueError(f"family '{family}' does not take --{option}")

    def need(name: str) -> int:
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"family '{family}' requires --{name}")
        return value

    # The generators check these ranges too, but name their own parameters.
    if family == "cerny":
        n = need("n")
        if n < 2:
            raise ValueError(f"family 'cerny' requires --n >= 2, got --n {n}")
        dfa = cerny(n)
    elif family == "e":
        n, k = need("n"), need("k")
        got = f"got --n {n} --k {k}"
        if not 2 <= k < n:
            raise ValueError(f"family 'e' requires 2 <= --k < --n, {got}")
        if args.drop_last_b and k != n - 1:
            raise ValueError(f"--drop-last-b requires --k = --n - 1, {got}")
        dfa = e_family(n, k, drop_last_b=args.drop_last_b)
    elif family == "random":
        if args.seed is None:
            raise ValueError("family 'random' requires --seed")
        if args.seed < 0:
            raise ValueError("--seed must be non-negative")
        n, m = need("n"), need("m")
        if n < 1 or m < 1:
            raise ValueError(
                f"family 'random' requires --n >= 1 and --m >= 1, got --n {n} --m {m}"
            )
        dfa = random_dfa(n, m, args.seed)
    else:
        dfa = fixed_example(family)

    # Here --format chooses the automaton file's format, so there is no report.
    if args.format == "json":
        text = json.dumps(dfa_to_doc(dfa), indent=2) + "\n"
    else:
        text = serialize_dfa(dfa)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        return 0, None, [f"wrote {args.output}"]
    return 0, None, text.splitlines()


def _cmd_analyze(args: argparse.Namespace) -> Report:
    dfa = _load_dfa(args.file)
    result = build_gamma(dfa)
    doc: dict[str, Any] = {
        "completely_reachable": result.success,
        "outcome": result.outcome,
        "terminal_step": result.terminal_step,
    }
    lines = [
        f"outcome: {result.outcome}",
        f"terminal step: {result.terminal_step}",
        f"completely reachable: {'yes' if result.success else 'no'}",
    ]
    if not result.success:
        witness = unreachable_witness(result, dfa)
        doc["unreachable_witness"] = sorted(witness)
        lines.append(f"unreachable witness: {format_states(witness)}")
    return (0 if result.success else 1), doc, lines


def _cmd_gamma(args: argparse.Namespace) -> Report:
    dfa = _load_dfa(args.file)
    doc = gamma_to_doc(build_gamma(dfa), dfa)
    wrote: list[str] = []
    if args.dot:
        directory = Path(args.dot)
        directory.mkdir(parents=True, exist_ok=True)
        for level in doc["levels"]:
            path = directory / f"gamma_{level['level']}.dot"
            path.write_text(level_dot(level), encoding="utf-8")
        forest_path = directory / "forest.dot"
        forest_path.write_text(forest_dot(doc["forest"]), encoding="utf-8")
        wrote.append(f"wrote {len(doc['levels']) + 1} DOT files to {args.dot}")
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        wrote.append(f"wrote {args.json}")
    if wrote:
        return 0, None, wrote
    lines = [f"outcome: {doc['outcome']}", f"terminal step: {doc['terminal_step']}"]
    for level in doc["levels"]:
        vertices, edges = level["vertices"], level["edges"]
        lines.append(
            f"level {level['level']}: {len(vertices)} vertices, {len(edges)} edges"
        )
        for edge in edges:
            src = format_states(vertices[edge["src"]])
            dst = format_states(vertices[edge["dst"]])
            if "forced_by" in edge:
                lines.append(f"  {src} -> {dst}  forced by {edge['forced_by']}")
            else:
                lines.append(f"  {src} -> {dst}  inherited")
    return 0, doc, lines


def _cmd_reach(args: argparse.Namespace) -> Report:
    dfa = _load_dfa(args.file)
    tokens = [tok.strip() for tok in args.subset.split(",")]
    try:
        targets = [parse_decimal(tok) for tok in tokens if tok]
    except ValueError:
        raise ValueError(
            f"--subset must be comma-separated integers, got '{args.subset}'"
        ) from None
    # Range-check before building the mask, whose size grows with the index.
    in_range = [q for q in targets if q < dfa.n]
    p = StateSet(in_range)
    if len(in_range) < len(targets):
        raise ValueError("target subset contains states outside the automaton")
    word, steps = reach_word(dfa, build_gamma(dfa), p)
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
    lines = [f"word: {doc['word_str']}", f"length: {doc['length']}"]
    for i, step in enumerate(doc["steps"], start=1):
        lines.append(
            f"step {i} (level {step['level']}): {format_states(step['source'])}"
            f" . {step['word']} = {format_states(step['target'])}"
        )
    return 0, doc, lines


def _cmd_sync(args: argparse.Namespace) -> Report:
    dfa = _load_dfa(args.file)
    report = reset_word(dfa)
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
    compressions = ", ".join(str(x) for x in report.compression_lengths) or "none"
    lines = [
        f"reset word: {doc['word_str']}",
        f"length: {report.length}",
        f"halving length: {report.halving_length}",
        f"compression lengths: {compressions}",
        f"cerny bound: {report.cerny_bound}"
        f" ({'within' if report.within_cerny else 'exceeded'})",
        f"cubic bound: {report.cubic_bound}"
        f" ({'within' if report.within_cubic else 'exceeded'})",
    ]
    return 0, doc, lines


def _cmd_oracle(args: argparse.Namespace) -> Report:
    dfa = _load_dfa(args.file)
    if dfa.n > args.max_n:
        raise ValueError(
            f"brute-force search refused: {dfa.n} states exceeds --max-n {args.max_n}"
        )
    if args.threshold:
        threshold = reset_threshold_exact(dfa, args.max_n)
        shown = "none" if threshold is None else str(threshold)
        return 0, {"reset_threshold": threshold}, [f"reset threshold: {shown}"]
    if args.monoid:
        monoid = transition_monoid(dfa)
        singular = sum(1 for t in monoid.elements if len(set(t)) < dfa.n)
        doc = {"monoid_size": len(monoid), "singular_size": singular}
        return 0, doc, [f"monoid size: {len(monoid)}", f"singular size: {singular}"]
    reach = powerset_reach_map(dfa, args.max_n)
    total = (1 << dfa.n) - 1
    cr = len(reach) == total
    code = 0 if cr else 1
    doc = {"completely_reachable": cr, "reachable_count": len(reach), "total": total}
    counted = f"reachable subsets: {len(reach)} of {total}"
    if not args.reach_map:
        return code, doc, [f"completely reachable: {'yes' if cr else 'no'}", counted]
    doc["subsets"] = [
        {
            "states": sorted(StateSet.from_mask(mask)),
            "word": format_word(reach.words[mask], dfa.alphabet),
        }
        for mask in sorted(reach.words, key=lambda m: (m.bit_count(), m))
    ]
    lines = [counted]
    for entry in doc["subsets"]:
        lines.append(f"  {format_states(entry['states'])}: {entry['word']}")
    return code, doc, lines


def _cmd_bounds(args: argparse.Namespace) -> Report:
    n = _load_dfa(args.file).n
    doc = {
        "states": n,
        "cerny": cerny_bound(n),
        "cubic_reset": cubic_reset_bound(n),
        "avoiding": avoiding_length_bound(n),
        "halving": halving_length_bound(n),
        "compress": {str(k): compress_length_bound(n, k) for k in range(2, n + 1)},
    }
    lines = [
        f"states: {n}",
        f"cerny bound: {doc['cerny']}",
        f"cubic reset bound: {doc['cubic_reset']}",
        f"avoiding word bound: {doc['avoiding']}",
        f"halving word bound: {doc['halving']}",
    ]
    for k, value in doc["compress"].items():
        lines.append(f"compress bound (k={k}): {value}")
    return 0, doc, lines


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
    try:
        code, doc, lines = _HANDLERS[args.command](args)
        if args.format == "json" and doc is not None:
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        else:
            text = "".join(line + "\n" for line in lines)
        if not args.quiet:
            sys.stdout.write(text)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means "not completely reachable", so a fault must not end
        # in Python's traceback and exit 1.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
