"""The benchmark's own tests, at toy sizes.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import crautomata
import cycles
import run
import series
import verify

ROOT = Path(run.ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _measure(workload: str, trace: bool = False) -> dict:
    return run.measure(workload, seed=3, seconds=0, trace=trace, toy=True, probes=1)["result"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_runs_end_to_end(workload):
    result = _measure(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(workload):
    result = _measure(workload, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_trace_routes_layers():
    decide = _measure("decide", trace=True)["metrics"]
    sync = _measure("sync", trace=True)["metrics"]
    assert decide["canonical.grow_calls"]["value"] > 0
    assert decide["synchro.avoid_calls"]["value"] == 0
    assert decide["synchro.compress_calls"]["value"] == 0
    assert sync["canonical.grow_calls"]["value"] == 0
    assert sync["synchro.compress_calls"]["value"] > 0


def test_uninstall_restores_the_library():
    from tracing import Tracer

    before = crautomata.build_gamma, crautomata.cli.build_gamma
    grow = crautomata.CanonicalWordSet.grow
    tracer = Tracer()
    tracer.install()
    assert crautomata.build_gamma is not before[0]
    assert crautomata.cli.build_gamma is crautomata.build_gamma
    tracer.uninstall()
    assert (crautomata.build_gamma, crautomata.cli.build_gamma) == before
    assert crautomata.CanonicalWordSet.grow is grow


def test_corrupted_reset_word_counts_as_failure(monkeypatch):
    honest = crautomata.cli.reset_word

    def corrupted(dfa):
        report = honest(dfa)
        return dataclasses.replace(report, word=report.word[:-1])

    monkeypatch.setattr(crautomata.cli, "reset_word", corrupted)
    result = _measure("sync")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_corrupted_reach_word_counts_as_failure(monkeypatch):
    honest = crautomata.reach_word

    def corrupted(dfa, gamma, p):
        word, steps = honest(dfa, gamma, p)
        return word[1:], steps

    monkeypatch.setattr(crautomata, "reach_word", corrupted)
    result = _measure("reach")
    assert not result["correct"] and result["failed"] > 0


@pytest.mark.parametrize("workload, module", [("decide", crautomata.cli), ("corpus", crautomata)])
def test_flipped_decision_counts_as_failure(monkeypatch, workload, module):
    honest = module.build_gamma

    def flipped(dfa):
        result = honest(dfa)
        outcome = crautomata.FAILURE if result.success else crautomata.SUCCESS
        return dataclasses.replace(result, outcome=outcome)

    monkeypatch.setattr(module, "build_gamma", flipped)
    result = _measure(workload)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_checks_reject_bad_outputs():
    dfa = crautomata.cerny(4)
    report = crautomata.reset_word(dfa)
    args = (report.halving_length, report.compression_lengths)
    assert verify.check_reset(dfa.delta, report.word, *args, threshold=9) == []
    assert verify.check_reset(dfa.delta, report.word[:-1], *args)
    assert verify.check_reset(dfa.delta, report.word, *args, threshold=len(report.word) + 1)
    doc = {"outcome": "SUCCESS", "completely_reachable": True, "terminal_step": 1}
    assert verify.check_decision(4, True, 1, 0, doc) == []
    assert verify.check_decision(4, False, 1, 0, doc)
    assert verify.check_decision(4, True, 2, 0, doc)
    assert verify.check_reach(dfa.delta, (0,), 0b1110) == []
    assert verify.check_reach(dfa.delta, (0,), 0b1111)


def test_cubic_bound_matches_the_library():
    for n in range(1, 40):
        assert verify.cubic_bound(n) == crautomata.cubic_reset_bound(n)


@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_generator_shape_and_gcd_rule(n):
    rng = random.Random(n)
    for d in range(1, n):
        member = cycles.cycle_idempotent(n, d, rng)
        a = [row[0] for row in member.delta]
        b = [row[1] for row in member.delta]
        # b is one n-cycle, walked in the recorded order.
        q, orbit = member.order[0], []
        for _ in range(n):
            orbit.append(q)
            q = b[q]
        assert q == member.order[0] and sorted(orbit) == list(range(n))
        assert orbit == list(member.order)
        # a is idempotent of defect 1, moving one state d steps along b.
        moved = [q for q in range(n) if a[q] != q]
        assert len(moved) == 1 and all(a[a[q]] == a[q] for q in range(n))
        x = moved[0]
        assert a[x] == member.order[(member.order.index(x) + d) % n]
        assert member.gcd == math.gcd(d, n)
        dfa = crautomata.Dfa(n, cycles.LETTERS, member.delta)
        assert crautomata.is_cr_bruteforce(dfa) is member.completely_reachable
        reachable = verify.reachable_subsets(member.delta)
        assert (len(reachable) == 2**n - 1) is member.completely_reachable
        result = crautomata.build_gamma(dfa)
        assert (result.success, result.terminal_step) == (
            member.completely_reachable, member.terminal_step)


def test_cerny_is_a_member():
    assert crautomata.cerny(6).delta == tuple(
        (1 if q == 0 else q, (q + 1) % 6) for q in range(6))


def test_without_the_library_the_benchmark_refuses(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_series_of_other_length_or_trace_mode_are_not_compared():
    metrics = {"run_s": {"median": 1.0, "bound": 0.25}}
    earlier = {"seconds": 25, "trace": 0, "workloads": {"decide": {"metrics": metrics}}}
    slower = {"run_s": {"median": 2.0, "bound": 0.25}}
    assert series.compare(earlier, {**earlier, "seconds": 5}) is False
    assert series.compare(earlier, {**earlier, "trace": 1}) is False
    assert series.compare(earlier, earlier) is True
    assert series.compare(earlier, {**earlier, "workloads": {"decide": {"metrics": slower}}}) is False
