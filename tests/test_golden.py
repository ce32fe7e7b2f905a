"""Golden digests of the library's outputs over fixed corpora.

One sha256 per family covers, for every automaton of the family:
- the hierarchy as ``gamma_to_doc``, serialised as sorted JSON;
- the unreachable witness when the hierarchy fails;
- ``reach_word`` words and steps when it succeeds, for every subset at
  n <= 6 and for the n sets {0, ..., j} above that;
- the ``reset_word`` word and lengths, or its ``ValueError`` message.

A refactor must leave every digest unchanged.  A deliberate change of
output (such as ROADMAP item 1, shorter reach words) updates the digests
here and lists the changed families in ``CHANGES.md``.
"""

import hashlib
import json

import pytest

from crautomata import (
    StateSet,
    build_gamma,
    cerny,
    e_family,
    fixed_example,
    gamma_to_doc,
    random_dfa,
    reach_word,
    reset_word,
    unreachable_witness,
)


def _corpus(family):
    if family == "random":
        return [random_dfa(1 + i % 7, 1 + i % 3, i) for i in range(400)]
    if family == "cerny":
        return [cerny(n) for n in range(2, 11)]
    if family == "e_family":
        dfas = []
        for n in range(3, 9):
            dfas += [e_family(n, k) for k in range(2, n)]
            dfas.append(e_family(n, n - 1, drop_last_b=True))
        return dfas
    return [fixed_example(name) for name in ("e5", "e12", "flipflop")]


def _targets(n):
    if n <= 6:
        return range(1, 1 << n)
    return [(1 << (j + 1)) - 1 for j in range(n)]


def _records(dfa):
    result = build_gamma(dfa)
    yield json.dumps(gamma_to_doc(result, dfa), sort_keys=True)
    if result.success:
        for mask in _targets(dfa.n):
            word, steps = reach_word(dfa, result, StateSet.from_mask(mask))
            yield repr((mask, word))
            for s in steps:
                yield repr((s.level, s.edge, s.word, s.source.mask, s.target.mask))
    else:
        yield repr(unreachable_witness(result, dfa).mask)
    try:
        report = reset_word(dfa)
    except ValueError as exc:
        yield f"ValueError: {exc}"
    else:
        yield repr((report.word, report.halving_length, report.compression_lengths))


def _digest(family):
    h = hashlib.sha256()
    for dfa in _corpus(family):
        for record in _records(dfa):
            h.update(record.encode())
            h.update(b"\n")
    return h.hexdigest()


GOLDEN = {
    "random": "053dde74d01f009b34e7e0f8f5fa010c95924d13da2067951aec8d894ce9d754",
    "cerny": "fd9aa22bf71462aea8adf0fa6f76c8fe123fd75f6f8a4256dd2ae9cec5dc3545",
    "e_family": "eb6acf53e7884516bad397f1ed2db4445e31c5c2e268e2fa4ffe32167deffa01",
    "fixtures": "10bf8d000a4f4e6df618addb0c8d4b8fac177ca194dde79a3912cf15c6e4d602",
}


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_golden_digest(family):
    assert _digest(family) == GOLDEN[family]
