"""Output checks that share no code with crautomata.

Every check takes plain data (a transition table as rows of successors,
words as tuples of letter indices, subsets as bit masks) and returns a list
of problems, empty when the output is right.  The brute-force searches here
are written out again on purpose, so that a defect in the library's own
oracle cannot hide a defect in the code it is compared with.
"""

from __future__ import annotations

import math
from collections import deque

# The library's powerset guard; witnesses of larger automata are not checked.
MAX_POWERSET_STATES = 22


def image(delta, mask: int, word) -> int:
    """Image of the state set ``mask`` under ``word``."""
    for a in word:
        out = 0
        q = 0
        while mask:
            if mask & 1:
                out |= 1 << delta[q][a]
            mask >>= 1
            q += 1
        mask = out
    return mask


def _successors(delta, mask: int):
    for a in range(len(delta[0])):
        yield image(delta, mask, (a,))


def reachable_subsets(delta) -> set[int]:
    """Every image of the full state set, by breadth-first search."""
    full = (1 << len(delta)) - 1
    seen = {full}
    queue = deque([full])
    while queue:
        for nxt in _successors(delta, queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def reset_threshold(delta) -> int | None:
    """Length of a shortest word taking the full set to one state."""
    full = (1 << len(delta)) - 1
    depth = {full: 0}
    queue = deque([full])
    while queue:
        mask = queue.popleft()
        if mask & (mask - 1) == 0:
            return depth[mask]
        for nxt in _successors(delta, mask):
            if nxt not in depth:
                depth[nxt] = depth[mask] + 1
                queue.append(nxt)
    return None


def cubic_bound(n: int) -> int:
    """The cubic reset-length bound for completely reachable automata."""
    if n % 2 == 0:
        return (7 * n**3 + 18 * n**2 - 64 * n + 48) // 48
    return (7 * n**3 + 15 * n**2 - 55 * n + 33) // 48


def compress_bound(n: int, k: int) -> int:
    """Bound on the word shrinking a k-subset: C(n - k + 2, 2)."""
    return math.comb(n - k + 2, 2)


def check_decision(
    n: int,
    success: bool,
    step: int | None,
    exit_code: int,
    doc: dict,
    reachable: set[int] | None = None,
) -> list[str]:
    """An ``analyze --format json`` result against the known answer.

    ``step`` may be None when only the outcome is known.  ``reachable`` is
    the set of reachable subsets; when given, a FAILURE witness must be
    missing from it.
    """
    want_outcome = "SUCCESS" if success else "FAILURE"
    problems = []
    if exit_code != (0 if success else 1):
        problems.append(f"exit code {exit_code}, expected {0 if success else 1}")
    if doc.get("outcome") != want_outcome:
        problems.append(f"outcome {doc.get('outcome')!r}, expected {want_outcome}")
    if doc.get("completely_reachable") is not success:
        problems.append(f"completely_reachable is {doc.get('completely_reachable')!r}")
    got_step = doc.get("terminal_step")
    if step is not None and got_step != step:
        problems.append(f"terminal step {got_step}, expected {step}")
    if not isinstance(got_step, int) or not 1 <= got_step <= max(1, n - 1):
        problems.append(f"terminal step {got_step!r} outside 1..{max(1, n - 1)}")
    witness = doc.get("unreachable_witness")
    if success and witness is not None:
        problems.append("SUCCESS result carries an unreachable witness")
    if not success:
        if not isinstance(witness, list) or not witness:
            problems.append(f"FAILURE result has witness {witness!r}")
        elif reachable is not None:
            mask = sum(1 << q for q in set(witness))
            if mask in reachable:
                problems.append(f"witness {witness} is reachable")
    return problems


def check_reach(delta, word, target: int) -> list[str]:
    """The word maps the full state set exactly onto ``target``."""
    got = image(delta, (1 << len(delta)) - 1, word)
    if got != target:
        return [f"Q.w = {got:#x}, expected {target:#x}"]
    return []


def check_reset(
    delta,
    word,
    halving_length: int,
    compression_lengths,
    threshold: int | None = None,
) -> list[str]:
    """A halving-then-compressing reset word against its bounds.

    The word must collapse Q to one state within the cubic bound; the
    halving prefix must leave at most n/2 states; the phase lengths must sum
    to the total; each compression must shrink the image within
    C(n - k + 2, 2) letters for the k states it starts from; and the word can
    be no shorter than the exact ``threshold`` when one is given.
    """
    n = len(delta)
    word = tuple(word)
    problems = []
    full = (1 << n) - 1
    if image(delta, full, word).bit_count() != 1:
        problems.append("word does not synchronize")
    if len(word) > cubic_bound(n):
        problems.append(f"length {len(word)} exceeds the cubic bound {cubic_bound(n)}")
    if threshold is not None and len(word) < threshold:
        problems.append(f"length {len(word)} is below the exact threshold {threshold}")
    if halving_length + sum(compression_lengths) != len(word):
        problems.append("phase lengths do not sum to the word length")
        return problems
    current = image(delta, full, word[:halving_length])
    if n > 1 and 2 * current.bit_count() > n:
        problems.append(f"halving leaves {current.bit_count()} of {n} states")
    pos = halving_length
    for length in compression_lengths:
        k = current.bit_count()
        nxt = image(delta, current, word[pos : pos + length])
        if k < 2 or nxt.bit_count() >= k:
            problems.append(f"compression at letter {pos} does not shrink the image")
        elif length > compress_bound(n, k):
            problems.append(
                f"compression of {k} states takes {length} > {compress_bound(n, k)}"
            )
        current = nxt
        pos += length
    return problems
