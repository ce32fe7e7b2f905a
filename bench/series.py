"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/series.py --workloads decide,sync --seeds 1-10 --trace 0 \\
        --out bench/baseline/end_to_end.json

Each (workload, seed) is one fresh ``run.py`` process of ``run_seconds``
(BENCHMARK.json), as a harness would run it.  For every metric the summary gives the median and quartiles of its
values across seeds (``statistics.quantiles(values, n=4)``) and the spread:
the distance between the quartiles as a share of the median, set against the
metric's bound in BENCHMARK.json where it has one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import load_spec, run_child


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="decide,sync,reach,corpus")
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write raw results and summary here")
    parser.add_argument("--against", type=Path,
                        help="an earlier --out file: report how far each median moved")
    args = parser.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    earlier = None
    if args.against:
        earlier = json.loads(args.against.read_text(encoding="utf-8"))
        mismatch = _mismatch(earlier, report)
        if mismatch:
            print(f"error: {mismatch}", file=sys.stderr)
            return 2
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            try:
                info, result = run_child(workload, seed, seconds, bool(args.trace))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            result["seed"] = seed
            result["info"] = info
            runs.append(result)
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} gauge_ms="
                  f"{statistics.median(result['info']['gauge_ms']):.2f}", flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], **summarize(values)}
            if name in bounds:
                metrics[name]["bound"] = bounds[name]
        report["workloads"][workload] = {"metrics": metrics, "runs": runs}
        for name, m in metrics.items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {workload:7s} {name:32s} median {m['median']:14.6f} {m['unit']:7s}"
                  f" spread {spread}{bound}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if earlier is not None:
        ok &= compare(earlier, report)
    return 0 if ok else 1


def _mismatch(earlier: dict, later: dict) -> str | None:
    """Why two series are not comparable, or None when they are."""
    for key in ("seconds", "trace"):
        if earlier.get(key) != later.get(key):
            return f"cannot compare series with {key} {earlier.get(key)} and {later.get(key)}"
    return None


def compare(earlier: dict, later: dict) -> bool:
    """Print each median's move; False when one worsened by more than its bound.

    Series of different run lengths or trace modes are not comparable, and
    comparing them returns False without printing any move.
    """
    mismatch = _mismatch(earlier, later)
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return False
    ok = True
    for workload, data in later["workloads"].items():
        before = earlier["workloads"].get(workload)
        if before is None:
            continue
        for name, m in data["metrics"].items():
            old = before["metrics"].get(name, {}).get("median")
            if not old or "bound" not in m:
                continue
            change = m["median"] / old - 1
            worse = change > m["bound"]
            ok &= not worse
            print(f"  {workload:7s} {name:32s} median moved {change:+.3f}"
                  f" (bound {m['bound']}){'  WORSE' if worse else ''}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
