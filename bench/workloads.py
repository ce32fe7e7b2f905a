"""The four workloads: their seeded inputs, their ops and their answer checks.

Each workload is built from the run's seed alone and hands crautomata only
finished automata.  ``run_pass`` performs every op once through a
``Recorder``, which times each op and keeps its output; ``check`` then
judges one output against an answer derived without crautomata (see
``verify``).  Why each workload exists, and which layer it loads, is
recorded in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import crautomata
import cycles
import verify


@dataclass
class Case:
    """One automaton of a workload with whatever answer is known for it.

    ``success`` and ``step`` are None where the answer is not known in
    advance; ``success`` is then decided by the checker's own powerset
    search.  ``subsets`` lists the reach targets (``reach`` only).
    """

    label: str
    dfa: crautomata.Dfa
    success: bool | None = None
    step: int | None = None
    path: Path | None = None
    subsets: list[int] = field(default_factory=list)
    _reachable: set[int] | None = None
    _threshold: int | None = None

    def reachable(self) -> set[int]:
        if self._reachable is None:
            self._reachable = verify.reachable_subsets(self.dfa.delta)
        return self._reachable

    def completely_reachable(self) -> bool:
        if self.success is None:
            self.success = len(self.reachable()) == (1 << self.dfa.n) - 1
        return self.success

    def threshold(self) -> int | None:
        if self._threshold is None:
            self._threshold = verify.reset_threshold(self.dfa.delta)
        return self._threshold


class Recorder:
    """Times each op of a pass and keeps (case index, output) for checking.

    It also calls ``gauge`` (a host speed reading) before an op whenever
    ``every`` seconds have passed since the last reading; ``gauge_seconds``
    is the time those readings took, which the pass time leaves out.
    """

    def __init__(self, gauge, every: float):
        self.latencies: list[float] = []
        self.outputs: list[tuple[int, object]] = []
        self.gauges: list[float] = []
        self.gauge_seconds = 0.0
        self._gauge = gauge
        self._every = every
        self._next_gauge = time.perf_counter() + every

    def op(self, index: int, fn, *args):
        if time.perf_counter() >= self._next_gauge:
            start = time.perf_counter()
            self.gauges.append(self._gauge())
            end = time.perf_counter()
            self.gauge_seconds += end - start
            self._next_gauge = end + self._every
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # a raising op is a failed op, not an aborted run
            out = OpError(traceback.format_exc(limit=3))
        self.latencies.append(time.perf_counter() - start)
        self.outputs.append((index, out))
        return out


@dataclass(frozen=True)
class OpError:
    text: str


def _cycle_case(n: int, d: int, rng: random.Random) -> Case:
    member = cycles.cycle_idempotent(n, d, rng)
    dfa = crautomata.Dfa(n, cycles.LETTERS, member.delta)
    return Case(f"cycle({n}, d={d})", dfa, member.completely_reachable, member.terminal_step)


def _distances(n: int, count: int) -> list[int]:
    """``count`` distances cycling through those coprime to n.

    The cost of a member depends on its distance as well as on its labelling;
    an even mix keeps the first source of variance out of the seed.
    """
    coprime = [d for d in range(1, n) if math.gcd(d, n) == 1]
    return [coprime[i % len(coprime)] for i in range(count)]


def _sample_subsets(n: int, count: int, rng: random.Random, start: int) -> list[int]:
    """``count`` random proper subsets as masks, of sizes cycling through 1..n-1.

    Sizes continue from ``start``, so that across a workload every size is
    equally common; a word's length depends strongly on its target's size.
    """
    return [
        sum(1 << q for q in rng.sample(range(n), 1 + (start + i) % (n - 1)))
        for i in range(count)
    ]


def _write_text(dfa: crautomata.Dfa, path: Path) -> Path:
    rows = "".join(" ".join(map(str, row)) + "\n" for row in dfa.delta)
    path.write_text(
        f"states {dfa.n}\nalphabet {' '.join(dfa.alphabet)}\n{rows}", encoding="utf-8"
    )
    return path


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = crautomata.cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_doc(out) -> tuple[int, dict]:
    """Exit code and parsed JSON of a CLI op; raises on unusable output."""
    if isinstance(out, OpError):
        raise ValueError(out.text)
    code, stdout, stderr = out
    try:
        return code, json.loads(stdout)
    except json.JSONDecodeError:
        raise ValueError(f"exit {code}, no JSON on stdout; stderr: {stderr.strip()}")


class Workload:
    """Inputs, one pass of ops, and the check of one op's output.

    ``sizes`` holds the input sizes of the benchmark ("full") and of its own
    tests ("toy").
    """

    name: str
    sizes: dict[str, dict]
    # The percentile reported as op_tail_ms.  It is fixed per workload, so
    # that a faster program (more samples) does not move to a higher one;
    # untraced runs go on until at least ten samples lie above it.
    tail_percentile: float

    def build(self, seed: int, toy: bool, workdir: Path) -> list[Case]:
        raise NotImplementedError

    def run_pass(self, cases: list[Case], rec: Recorder) -> None:
        raise NotImplementedError

    def check(self, case: Case, out) -> list[str]:
        raise NotImplementedError

    def word_lengths(self, case: Case, out) -> list[int]:
        return []


class Decide(Workload):
    """CLI ``analyze --format json`` on large hierarchies of both answers."""

    name = "decide"
    tail_percentile = 75.0

    # The op count per pass is odd (11 full, 7 toy), so that op_p50_ms is
    # one op's time rather than the mean of two neighbouring ops.
    sizes = {
        "full": {"e": (12, 11), "e_wide": (9, 4), "cerny": 96, "cycles": [(10, 2)] * 5 + [(12, 3)] * 2},
        "toy": {"e": (6, 5), "e_wide": (5, 3), "cerny": 8, "cycles": [(6, 2), (6, 3), (6, 1)]},
    }

    def build(self, seed, toy, workdir):
        rng = random.Random(seed)
        size = self.sizes["toy" if toy else "full"]
        (n, k), wide = size["e"], size["e_wide"]
        cases = [
            Case(f"e_family({n},{k})", crautomata.e_family(n, k), True, k),
            Case(f"e_family({n},{k},drop_last_b)",
                 crautomata.e_family(n, k, drop_last_b=True), False, n - 1),
            Case("e_family(%d,%d)" % wide, crautomata.e_family(*wide), True, wide[1]),
            Case(f"cerny({size['cerny']})", crautomata.cerny(size["cerny"]), True, 1),
        ]
        cases += [_cycle_case(n, d, rng) for n, d in size["cycles"]]
        for i, case in enumerate(cases):
            case.path = _write_text(case.dfa, workdir / f"decide{i}.txt")
        return cases

    def run_pass(self, cases, rec):
        for i, case in enumerate(cases):
            rec.op(i, _cli, ["--format", "json", "analyze", str(case.path)])

    def check(self, case, out):
        code, doc = _cli_doc(out)
        reachable = None
        if not case.success and case.dfa.n <= verify.MAX_POWERSET_STATES:
            reachable = case.reachable()
        return verify.check_decision(
            case.dfa.n, case.success, case.step, code, doc, reachable
        )


class Sync(Workload):
    """CLI ``sync --format json``: Cerny plus random-labelled coprime members."""

    name = "sync"
    # The two Cerny members are the two heaviest ops of a pass; p99 of 122
    # ops would be cerny(24)'s latency alone.  p95 falls among the random
    # members, about six ops below the heaviest.
    tail_percentile = 95.0

    sizes = {
        "full": {"cerny": (24, 26), "n": 16, "count": 120},
        "toy": {"cerny": (6,), "n": 7, "count": 2},
    }

    def build(self, seed, toy, workdir):
        rng = random.Random(seed)
        size = self.sizes["toy" if toy else "full"]
        cases = [Case(f"cerny({n})", crautomata.cerny(n), True, 1) for n in size["cerny"]]
        n = size["n"]
        cases += [_cycle_case(n, d, rng) for d in _distances(n, size["count"])]
        for i, case in enumerate(cases):
            case.path = _write_text(case.dfa, workdir / f"sync{i}.txt")
        return cases

    def run_pass(self, cases, rec):
        for i, case in enumerate(cases):
            rec.op(i, _cli, ["--format", "json", "sync", str(case.path)])

    def check(self, case, out):
        code, doc = _cli_doc(out)
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        n = case.dfa.n
        if doc.get("cubic_bound") != verify.cubic_bound(n):
            problems.append(f"reported cubic bound {doc.get('cubic_bound')}")
        if doc.get("length") != len(doc.get("word", ())):
            problems.append("reported length differs from the word")
        return problems + verify.check_reset(
            case.dfa.delta, doc["word"], doc["halving_length"], doc["compression_lengths"]
        )

    def word_lengths(self, case, out):
        return [len(_cli_doc(out)[1]["word"])]


class Reach(Workload):
    """Library ``reach_word`` on sampled subsets, one ``build_gamma`` per automaton."""

    name = "reach"
    # p99 would be the two or three heaviest of ~200 ops, which the seed
    # alone fixes; p95 averages over ten.
    tail_percentile = 95.0

    sizes = {
        "full": {"n": 22, "count": 48, "subsets": 4, "deep": (11, 10), "deep_subsets": 16},
        "toy": {"n": 7, "count": 2, "subsets": 3, "deep": (5, 4), "deep_subsets": 3},
    }

    def build(self, seed, toy, workdir):
        rng = random.Random(seed)
        size = self.sizes["toy" if toy else "full"]
        n, deep = size["n"], size["deep"]
        cases = [_cycle_case(n, d, rng) for d in _distances(n, size["count"])]
        cases.append(Case("e_family(%d,%d)" % deep, crautomata.e_family(*deep), True, deep[1]))
        drawn = 0
        for case in cases:
            count = size["deep_subsets" if case is cases[-1] else "subsets"]
            case.subsets = _sample_subsets(case.dfa.n, count, rng, drawn)
            drawn += count
        return cases

    def run_pass(self, cases, rec):
        for i, case in enumerate(cases):
            dfa = case.dfa
            try:
                result = crautomata.build_gamma(dfa)
            except Exception as exc:  # every op of this automaton then fails
                result = exc
            for mask in case.subsets:
                rec.op(i, _reach, dfa, result, mask)

    def check(self, case, out):
        if isinstance(out, OpError):
            return [out.text]
        mask, word = out
        return verify.check_reach(case.dfa.delta, word, mask)

    def word_lengths(self, case, out):
        return [] if isinstance(out, OpError) else [len(out[1])]


def _reach(dfa, result, mask):
    word, _steps = crautomata.reach_word(dfa, result, crautomata.StateSet.from_mask(mask))
    return mask, word


class Corpus(Workload):
    """Library path over thousands of small automata: the per-call regime."""

    name = "corpus"
    tail_percentile = 99.0

    sizes = {
        "full": {"random": 3000, "cycle_max": 9, "cerny_max": 10, "e_max": 7},
        "toy": {"random": 30, "cycle_max": 5, "cerny_max": 5, "e_max": 4},
    }

    def build(self, seed, toy, workdir):
        rng = random.Random(seed)
        size = self.sizes["toy" if toy else "full"]
        cases = []
        for i in range(size["random"]):
            dfa = crautomata.random_dfa(rng.randint(4, 10), rng.randint(2, 3), rng.randrange(2**32))
            cases.append(Case(f"random_dfa #{i}", dfa))
        for n in range(3, size["cerny_max"] + 1):
            cases.append(Case(f"cerny({n})", crautomata.cerny(n), True, 1))
        for n in range(4, size["cycle_max"] + 1):
            for d in range(1, n):
                cases += [_cycle_case(n, d, rng), _cycle_case(n, d, rng)]
        for n in range(3, size["e_max"] + 1):
            for k in range(2, n):
                cases.append(Case(f"e_family({n},{k})", crautomata.e_family(n, k), True, k))
            cases.append(Case(f"e_family({n},{n - 1},drop_last_b)",
                              crautomata.e_family(n, n - 1, drop_last_b=True), False, n - 1))
        return cases

    def run_pass(self, cases, rec):
        for i, case in enumerate(cases):
            rec.op(i, _corpus_op, case.dfa)

    def check(self, case, out):
        if isinstance(out, OpError):
            return [out.text]
        success, step, oracle, reset, threshold = out
        n = case.dfa.n
        want = case.completely_reachable()
        problems = []
        if success is not want:
            problems.append(f"build_gamma says {success}, the powerset search {want}")
        if oracle is not want:
            problems.append(f"is_cr_bruteforce says {oracle}, the powerset search {want}")
        if case.step is not None and step != case.step:
            problems.append(f"terminal step {step}, expected {case.step}")
        if not 1 <= step <= max(1, n - 1):
            problems.append(f"terminal step {step} outside 1..{max(1, n - 1)}")
        if reset is not None:
            want_threshold = case.threshold()
            if threshold != want_threshold:
                problems.append(f"threshold {threshold}, expected {want_threshold}")
            problems += verify.check_reset(case.dfa.delta, *reset, threshold=want_threshold)
        elif want:
            problems.append("no reset word for a completely reachable automaton")
        return problems

    def word_lengths(self, case, out):
        if isinstance(out, OpError) or out[3] is None:
            return []
        return [len(out[3][0])]


def _corpus_op(dfa):
    result = crautomata.build_gamma(dfa)
    oracle = crautomata.is_cr_bruteforce(dfa)
    reset = threshold = None
    if result.success:
        report = crautomata.reset_word(dfa)
        reset = (report.word, report.halving_length, report.compression_lengths)
        threshold = crautomata.reset_threshold_exact(dfa)
    return result.success, result.terminal_step, oracle, reset, threshold


WORKLOADS = {w.name: w for w in (Decide(), Sync(), Reach(), Corpus())}
