"""Golden digests of the library's outputs over fixed corpora.

One sha256 per family covers, for every automaton of the family:
- the hierarchy as ``gamma_to_doc``, serialised as sorted JSON;
- the unreachable witness when the hierarchy fails;
- ``reach_word`` words and steps when it succeeds, for every subset at
  n <= 6 and for the n sets {0, ..., j} above that;
- the ``reset_word`` word and lengths, or its ``ValueError`` message.

Every hashed reach word is checked by applying it to the full state set.

A second digest per family pins the brute-force oracle and the avoiding
search on the same corpora: the whole ``powerset_reach_map`` in mask order,
``reset_threshold_exact``, and ``avoiding_word`` for every state.

Two more sets of digests pin automata larger than the corpus: the least
words, as every per-defect list of (word, excl, dupl) triples up to a cap,
both of whole signatures, from the reference search, and of (excl, q)
pairs, from ``CanonicalWordSet.signatures_of_defect`` with each code
decoded to its word; and the hierarchy, as
``gamma_to_doc`` plus each level's vertices and ``forcing`` items in
insertion order, with reach words for the n prefix sets and the n
singletons.

A refactor must leave every digest unchanged.  A deliberate change of
output (such as the shorter reach words that re-pinned seven digests)
updates the digests here and lists the changed families in ``CHANGES.md``.
"""

import hashlib
import json

import pytest
from canonical_reference import shortlex_signatures

from crautomata import (
    StateSet,
    apply_word,
    avoiding_word,
    build_gamma,
    cerny,
    e_family,
    fixed_example,
    gamma_to_doc,
    powerset_reach_map,
    random_dfa,
    reach_word,
    reset_threshold_exact,
    reset_word,
    unreachable_witness,
)
from crautomata.canonical import CanonicalWordSet


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


def _reach_records(dfa, result, masks):
    for mask in masks:
        word, steps = reach_word(dfa, result, StateSet.from_mask(mask))
        assert apply_word(dfa, StateSet.full(dfa.n), word).mask == mask
        yield repr((mask, word))
        for s in steps:
            yield repr((s.level, s.edge, s.word, s.source.mask, s.target.mask))


def _records(dfa):
    result = build_gamma(dfa)
    yield json.dumps(gamma_to_doc(result, dfa), sort_keys=True)
    if result.success:
        yield from _reach_records(dfa, result, _targets(dfa.n))
    else:
        yield repr(unreachable_witness(result, dfa).mask)
    try:
        report = reset_word(dfa)
    except ValueError as exc:
        yield f"ValueError: {exc}"
    else:
        yield repr((report.word, report.halving_length, report.compression_lengths))


def _oracle_records(dfa):
    yield repr(sorted(powerset_reach_map(dfa).words.items()))
    yield repr(reset_threshold_exact(dfa))
    yield repr([avoiding_word(dfa, q) for q in range(dfa.n)])


def _digest(family, records=_records):
    h = hashlib.sha256()
    for dfa in _corpus(family):
        for record in records(dfa):
            h.update(record.encode())
            h.update(b"\n")
    return h.hexdigest()


GOLDEN = {
    "random": "c2ac41f77979491534eeeedd1044bf679c639e54edc5f72c22a8b6ab78e1f378",
    "cerny": "e870dc0e21ae47c3129768db14c3a30ed9bfc90798c89d15bfd57f65c4a076fa",
    "e_family": "6727f9184c605e3fe4fda80b413b5451392cd3e5175c6be7e45dcc209776447e",
    "fixtures": "47029717596f3812de3e37d98deca6f5109f74d29534db9963fd260e413b3246",
}


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_golden_digest(family):
    assert _digest(family) == GOLDEN[family]


ORACLE_GOLDEN = {
    "random": "978b1270106b67f10273ec011ba4534292eb84d4957621ffb9481bdb314d2b6f",
    "cerny": "6497530938942314e58f3df17ccda2913edc699ed4fde66c89c7c5b66c733573",
    "e_family": "22e4a1b444d4b3a9e20b0aa85ad1ac25750ae29381c50347786fc5ea3c7d5c9b",
    "fixtures": "6537e419b8759c346d8208d112eeef0b057f6bccc5824f4eb8a15cde7d6ed687",
}


@pytest.mark.parametrize("family", sorted(ORACLE_GOLDEN))
def test_oracle_digest(family):
    assert _digest(family, _oracle_records) == ORACLE_GOLDEN[family]


def _pair_lists(dfa, cap):
    cws = CanonicalWordSet(dfa)
    cws.grow(cap)
    return [
        [(cws.word(c), em, dm) for c, em, dm in cws.signatures_of_defect(k)]
        for k in range(cap + 1)
    ]


# name -> (automaton, defect cap, {lists: digest of the per-defect lists}).
# cerny(65) has 65-bit masks and its defect-1 words run to 191 letters;
# random_dfa(16, 2, 102) is a rare draw with a thousand signatures by
# defect 3, and the only one here with fewer pair entries than signatures.
WALKS = {
    "e_family(12, 11)": (
        lambda: e_family(12, 11),
        11,
        {
            shortlex_signatures: "140f2210870be6f0d590fcaa5476c84c8b884cd5727f2cc317f815dabf5e0b37",
            _pair_lists: "140f2210870be6f0d590fcaa5476c84c8b884cd5727f2cc317f815dabf5e0b37",
        },
    ),
    "e_family(12, 11, drop_last_b)": (
        lambda: e_family(12, 11, drop_last_b=True),
        11,
        {
            shortlex_signatures: "14f8cdb32ae02a2204512637d6943fe783c432de5bde0ab983cf3e1664edf1f5",
            _pair_lists: "14f8cdb32ae02a2204512637d6943fe783c432de5bde0ab983cf3e1664edf1f5",
        },
    ),
    "cerny(65)": (
        lambda: cerny(65),
        1,
        {
            shortlex_signatures: "ab07119cdc5b62b00093576bf1d93168b605a08ae8ed50654915d39511880604",
            _pair_lists: "ab07119cdc5b62b00093576bf1d93168b605a08ae8ed50654915d39511880604",
        },
    ),
    "random_dfa(16, 2, 102)": (
        lambda: random_dfa(16, 2, 102),
        3,
        {
            shortlex_signatures: "a6206f689019c094f19339e77ae2aa7c5adc023737ebe4c8763108553ddf14de",
            _pair_lists: "c1a3fefa3d481dfcc8799cfc034756365c7b59d610ba5dd04aae1d920fcca087",
        },
    ),
}


# The signature lists keep the bare name as their test id.
@pytest.mark.parametrize(
    "name, lists",
    [
        pytest.param(
            name, lists, id=name if lists is shortlex_signatures else f"{name}-pairs"
        )
        for name in sorted(WALKS)
        for lists in (shortlex_signatures, _pair_lists)
    ],
)
def test_canonical_walk_digest(name, lists):
    make, cap, digests = WALKS[name]
    h = hashlib.sha256()
    for triples in lists(make(), cap):
        h.update(repr(triples).encode())
        h.update(b"\n")
    assert h.hexdigest() == digests[lists]


# name -> (automaton, digest).  Deeper hierarchies than the corpus holds:
# e_family(12, 11) succeeds and its drop_last_b twin fails at step 11,
# e_family(10, 5) has five levels, and cerny(33) spans five 8-state chunks.
# random_dfa(6, 2, 5) fails at step 4, and each of its levels 2-4 has two
# edges that are both inherited and freshly forced, which the export shows
# with their forcing word.
HIERARCHIES = {
    "e_family(12, 11)": (
        lambda: e_family(12, 11),
        "c86af1e839ad0e30f11b5b35669769bc63279a58f5c7d6ea83ef2c6b67a167c9",
    ),
    "e_family(12, 11, drop_last_b)": (
        lambda: e_family(12, 11, drop_last_b=True),
        "1bfdabeb5092340ac89ed0302ea43f1f909e45ca1f5365e7c6407e5b8f6b3804",
    ),
    "e_family(9, 4)": (
        lambda: e_family(9, 4),
        "2bb9aa4a1e32b1d4960afd8d19861bfafcfbe48f81a1f022ba71e31f220e60cc",
    ),
    "e_family(10, 5)": (
        lambda: e_family(10, 5),
        "123dac6db0d774e0531d4fc57cc5b03d30f54be8496427967966885b89de1948",
    ),
    "cerny(33)": (
        lambda: cerny(33),
        "15766848494dbe2bb117337e97c484b24107b245be46e7b32154b3b32714816d",
    ),
    "random_dfa(6, 2, 5)": (
        lambda: random_dfa(6, 2, 5),
        "daf61463ceefadc62d8a41e781e635aa1b936dd75ce21959673cb47cd45c6588",
    ),
}


def _hierarchy_digest(dfa):
    result = build_gamma(dfa)
    records = [json.dumps(gamma_to_doc(result, dfa), sort_keys=True)]
    records += [repr((lv.vertices, list(lv.forcing.items()))) for lv in result.levels]
    if result.success:
        n = dfa.n
        masks = [(1 << (j + 1)) - 1 for j in range(n)] + [1 << q for q in range(n)]
        records += _reach_records(dfa, result, masks)
    else:
        records.append(repr(unreachable_witness(result, dfa).mask))
    h = hashlib.sha256()
    for record in records:
        h.update(record.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(HIERARCHIES))
def test_hierarchy_digest(name):
    make, digest = HIERARCHIES[name]
    assert _hierarchy_digest(make()) == digest

