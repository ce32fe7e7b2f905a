"""Benchmark of crautomata, driven from outside as a user's script would.

    python3 bench/run.py --workload decide --seed 1 --seconds 25 --trace 0

runs one workload in this fresh process: it builds the seeded inputs, then
repeats passes over them for ``--seconds`` (default: ``run_seconds`` of
BENCHMARK.json) and checks every output between passes, outside the timed
intervals.  Between passes it also times ``setup_s`` in fresh interpreters
and reads a host speed gauge, by which every reported time is scaled (see
REFERENCE_GAUGE_MS).  An untraced run goes on until at least ten op samples
lie above the tail percentile and every set-up sample is in.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload, each in its own process, and prints one table.

crautomata is imported from ``src/`` of the checkout that holds this file;
without it the script exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("decide", "sync", "reach", "corpus")
SETUP_PROBES = 7  # fresh interpreters timed per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 170
# Times are reported at a reference host speed: each is scaled by
# REFERENCE_GAUGE_MS / g.  For a pass and its ops, g is the mean of the
# ``_gauge_ms()`` readings taken right before and after the pass and of those
# taken between its ops (one every GAUGE_EVERY_S); each set-up sample is
# scaled by the reading taken right before it.  On a shared host the speed
# drifts by tens of percent within seconds, and this scaling cancels much of
# that drift.  The value is the gauge's typical reading on the host the
# baseline was taken on, so scaled times read close to raw ones.
REFERENCE_GAUGE_MS = 9.0
GAUGE_EVERY_S = 0.25
# Problems printed to stderr per run; every failure is still counted.
SHOWN_PROBLEMS = 5


def load_spec() -> dict:
    """The parsed BENCHMARK.json at the root of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def _import_library():
    """Put this checkout's ``src`` first on the path and import crautomata."""
    if not (SRC / "crautomata" / "__init__.py").is_file():
        print(f"error: no crautomata package under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import crautomata

    if Path(crautomata.__file__).resolve().parent != SRC / "crautomata":
        print(f"error: imported crautomata from {crautomata.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _workdir(workload: str, seed: int) -> Path:
    return BENCH / "_work" / f"{workload}-{seed}-{os.getpid()}"


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of a setup measurement: import, generate, write, report."""
    _import_library()
    from workloads import WORKLOADS

    work = _workdir(workload, seed)
    work.mkdir(parents=True)
    try:
        WORKLOADS[workload].build(seed, False, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return elapsed


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def _gauge_ms(repeats: int = 3) -> float:
    """Host speed now: median of ``repeats`` timings of a fixed pure-Python loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def _samples_above(count: int, pct: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank percentile."""
    return count - max(1, math.ceil(pct / 100 * count))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Checker:
    """Checks each op output, reusing the verdict when an op repeats its output.

    Passes run the same ops in the same order, so the op's position in the
    pass identifies it.
    """

    def __init__(self, workload, cases):
        self.workload = workload
        self.cases = cases
        self.verdicts: dict[int, tuple[object, list[str]]] = {}
        self.shown = 0

    def __call__(self, position: int, index: int, out) -> bool:
        seen = self.verdicts.get(position)
        if seen is not None and seen[0] == out:
            problems = seen[1]
        else:
            try:
                problems = self.workload.check(self.cases[index], out)
            except Exception as exc:  # malformed output is a failed op
                problems = [f"unreadable output: {exc!r}"]
            self.verdicts[position] = (out, problems)
        if problems and self.shown < SHOWN_PROBLEMS:
            self.shown += 1
            print(f"FAIL {self.cases[index].label}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def measure(workload: str, seed: int, seconds: float, trace: bool,
            toy: bool = False, probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return the result object (see the module doc)."""
    from tracing import Tracer
    from workloads import WORKLOADS, Recorder

    spec = WORKLOADS[workload]
    setup: list[float] = []
    setup_gauges: list[float] = []
    probes = 0 if trace else probes
    work = _workdir(workload, seed)
    work.mkdir(parents=True)
    try:
        cases = spec.build(seed, toy, work)
        check = Checker(spec, cases)
        tracer = Tracer() if trace else None
        min_passes = 4 if trace else 1
        plain, traced, layers, latencies = [], [], [], []
        raw_plain, raw_traced, pass_gauges = [], [], []
        gauges = [_gauge_ms()]
        attempted = failed = 0
        peak_rss = None
        deadline = time.perf_counter() + seconds
        while True:
            in_trace = trace and len(plain) > len(traced)
            rec = Recorder(lambda: _gauge_ms(1), GAUGE_EVERY_S)
            if in_trace:
                tracer.start_pass()
                tracer.install()
            start = time.perf_counter()
            try:
                spec.run_pass(cases, rec)
            finally:
                elapsed = time.perf_counter() - start - rec.gauge_seconds
                if in_trace:
                    tracer.uninstall()
            if peak_rss is None:
                peak_rss = _peak_rss_mb()
            gauges.append(_gauge_ms())
            pass_gauges.append(statistics.fmean([gauges[-2], *rec.gauges, gauges[-1]]))
            scale = REFERENCE_GAUGE_MS / pass_gauges[-1]
            if in_trace:
                raw_traced.append(elapsed)
                traced.append(elapsed * scale)
                layers.append({k: v * scale if k.endswith("_s") else v
                               for k, v in tracer.layer_metrics().items()})
            else:
                raw_plain.append(elapsed)
                plain.append(elapsed * scale)
                latencies += [t * scale for t in rec.latencies]
            lengths = []
            for position, (index, out) in enumerate(rec.outputs):
                attempted += 1
                failed += not check(position, index, out)
                lengths += spec.word_lengths(cases[index], out)
            # Set-up samples are taken between passes, spread over the run, so
            # that they see the same host conditions as the passes.
            if len(setup) < probes:
                setup_gauges.append(_gauge_ms())
                setup.append(_time_setup(workload, seed))
            if trace or toy:
                enough = len(plain) + len(traced) >= min_passes
            else:
                enough = _samples_above(len(latencies), spec.tail_percentile) >= 10
            if enough and len(setup) == probes and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tail = _percentile(latencies, spec.tail_percentile)
    info = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain) + len(traced),
        "op_samples": len(latencies),
        "tail_percentile": spec.tail_percentile,
        "samples_above_tail": sum(x > tail for x in latencies),
        "raw_pass_seconds": raw_plain,
        "raw_traced_pass_seconds": raw_traced,
        "pass_gauge_ms": pass_gauges,
        "raw_setup_seconds": setup,
        "setup_gauge_ms": setup_gauges,
        "gauge_ms": gauges,
    }
    if trace:
        metrics = {name: statistics.median(row[name] for row in layers) for name in layers[0]}
        metrics["words.len_mean"] = statistics.fmean(lengths) if lengths else 0.0
        metrics["words.len_max"] = max(lengths, default=0)
        metrics["trace.run_s"] = statistics.median(traced)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
        tracer.write(BENCH / "_traces" / f"{workload}-seed{seed}.json", {**info, "metrics": metrics})
    else:
        metrics = {
            "setup_s": statistics.median(
                t * REFERENCE_GAUGE_MS / g for t, g in zip(setup, setup_gauges)),
            "run_s": statistics.median(plain),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail * 1000,
            "peak_rss_mb": peak_rss,
        }
    units = _declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
        },
    }


def _print_table(rows: list[tuple[str, dict, dict]]) -> None:
    for workload, info, result in rows:
        print(f"{workload}: {info['passes']} passes, {result['attempted']} ops, "
              f"{result['failed']} failed; op_tail_ms is p{info['tail_percentile']:g} "
              f"of {info['op_samples']} samples ({info['samples_above_tail']} above)")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6f} {m['unit']}")


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload in a fresh process; return its run details and result.

    The child's stderr is passed through.  Raises RuntimeError when the child
    exits with a status other than 0.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S + seconds)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, then one combined table."""
    rows = []
    for workload in WORKLOAD_NAMES:
        try:
            rows.append((workload, *run_child(workload, seed, seconds, trace)))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    _print_table(rows)
    print(json.dumps({w: r for w, _, r in rows}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the child process of a setup measurement.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_library()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, bool(args.trace))
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table([(args.workload, out["info"], out["result"])])
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
