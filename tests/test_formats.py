import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from crautomata import (
    Dfa,
    build_gamma,
    cerny,
    dfa_to_doc,
    doc_to_dfa,
    fixed_example,
    gamma_to_doc,
    parse_dfa,
    random_dfa,
    serialize_dfa,
)
from crautomata.formats import format_states, format_word


def test_round_trip_fixtures():
    for d in (fixed_example("e5"), cerny(4), random_dfa(6, 3, 77)):
        assert parse_dfa(serialize_dfa(d)) == d


def test_serialize_refuses_a_letter_name_with_whitespace():
    for name in ("a b", "a\tb", "a\nb", "a\u2028b"):
        d = Dfa(2, (name, "c"), ((0, 1), (1, 0)))
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            serialize_dfa(d)


def test_parse_accepts_bytes_comments_blanks():
    text = (
        "# three-state cycle\n"
        "states 3\n"
        "\n"
        "alphabet a b\n"
        "1 2\n"
        "# middle row next\n"
        "2 0\n"
        "0 1\n"
    )
    d = parse_dfa(text.encode("utf-8"))
    assert d == Dfa(3, ("a", "b"), ((1, 2), (2, 0), (0, 1)))


def test_parse_bytes_skips_a_byte_order_mark():
    text = serialize_dfa(cerny(4))
    assert parse_dfa(b"\xef\xbb\xbf" + text.encode("utf-8")) == cerny(4)


def test_parse_str_skips_a_byte_order_mark():
    # What a BOM-prefixed file read with encoding="utf-8" gives.
    assert parse_dfa("\ufeffstates 1\nalphabet a\n0\n") == Dfa(1, ("a",), ((0,),))
    with pytest.raises(ValueError, match="line 1"):
        parse_dfa("\ufeff\ufeffstates 1\nalphabet a\n0\n")


def test_parse_one_state():
    assert parse_dfa("states 1\nalphabet a\n0\n") == Dfa(1, ("a",), ((0,),))


def test_parse_diagnostics_carry_line_numbers():
    cases = [
        ("alphabet a\n0\n", "line 1", "states"),
        ("states x\nalphabet a\n0\n", "line 1", "integer"),
        ("states 0\nalphabet a\n", "line 1", "at least 1"),
        ("states 2\nrows a\n0\n1\n", "line 2", "alphabet"),
        ("states 2\nalphabet a a\n0\n1\n", "line 2", "duplicate"),
        ("states 2\nalphabet a b\n0\n1 0\n", "line 3", "2 transition entries"),
        ("states 2\nalphabet a\nq\n0\n", "line 3", "integer"),
        ("states 2\nalphabet a\n5\n0\n", "line 3", "out of range"),
        ("states 2\nalphabet a\n0\n1\n1\n", "line 5", "unexpected content"),
        # int() accepts each of these (1_0 as 10); only -?[0-9]+ is read
        ("states 1_0\nalphabet a\n0\n", "line 1", "integer"),
        ("states +2\nalphabet a\n0\n1\n", "line 1", "integer"),
        ("states \u0663\nalphabet a\n0\n1\n2\n", "line 1", "integer"),
        ("states 2\nalphabet a\n+1\n0\n", "line 3", "integer"),
        ("states 2\nalphabet a\n0\n0_1\n", "line 4", "integer"),
        ("states 2\nalphabet a\n\u0661\n0\n", "line 3", "integer"),
    ]
    for text, where, what in cases:
        with pytest.raises(ValueError) as err:
            parse_dfa(text)
        assert where in str(err.value), text
        assert what in str(err.value), text


def test_parse_truncated_input():
    with pytest.raises(ValueError, match="unexpected end of input"):
        parse_dfa("states 2\nalphabet a\n0\n")
    with pytest.raises(ValueError, match="unexpected end of input"):
        parse_dfa("states 2\n")


def test_serialized_form_is_stable():
    text = serialize_dfa(Dfa(2, ("a", "b"), ((1, 0), (0, 1))))
    assert text == "states 2\nalphabet a b\n1 0\n0 1\n"


def test_doc_round_trip():
    for d in (fixed_example("e12"), random_dfa(4, 2, 3)):
        doc = dfa_to_doc(d)
        assert json.loads(json.dumps(doc)) == doc
        assert doc_to_dfa(doc) == d


def test_doc_to_dfa_rejects_malformed():
    good = dfa_to_doc(cerny(3))
    for breaker in (
        lambda o: o.pop("states"),
        lambda o: o.__setitem__("states", "3"),
        lambda o: o.__setitem__("alphabet", ["a", "a"]),
        lambda o: o.__setitem__("delta", [[0, 1]]),
        lambda o: o.__setitem__("delta", "nope"),
        lambda o: o.__setitem__("states", True),
        lambda o: o.__setitem__("alphabet", "ab"),
        lambda o: o.__setitem__("delta", [1, 2, 0]),
        lambda o: o["delta"][0].__setitem__(0, 1.0),
    ):
        doc = {k: (list(v) if isinstance(v, list) else v) for k, v in good.items()}
        doc["delta"] = [list(r) for r in good["delta"]]
        breaker(doc)
        with pytest.raises(ValueError):
            doc_to_dfa(doc)


def test_gamma_doc_shape():
    e5 = fixed_example("e5")
    result = build_gamma(e5)
    doc = gamma_to_doc(result, e5)
    assert doc["outcome"] == "SUCCESS"
    assert doc["terminal_step"] == 3
    assert len(doc["levels"]) == 3

    lv1 = doc["levels"][0]
    assert lv1["level"] == 1
    assert lv1["vertices"] == [[0], [1], [2], [3], [4]]
    edges = {(e["src"], e["dst"]) for e in lv1["edges"]}
    assert edges == {(0, 1), (1, 0), (2, 0), (3, 4), (4, 3)}
    for e in lv1["edges"]:
        assert "forced_by" in e and "inherited" not in e

    lv2 = doc["levels"][1]
    assert lv2["vertices"] == [[0, 1], [2], [3, 4]]
    kinds = {(e["src"], e["dst"]): e for e in lv2["edges"]}
    assert kinds[(1, 0)].get("inherited") is True
    assert kinds[(0, 1)]["forced_by"] == "a[1,2]"
    assert [(e["src"], e["dst"]) for e in lv2["edges"]] == sorted(
        (e["src"], e["dst"]) for e in lv2["edges"]
    )

    forest = doc["forest"]
    assert len(forest["nodes"]) == 11
    roots = [node for node in forest["nodes"] if forest["parents"][node["id"]] is None]
    assert len(roots) == 1 and roots[0]["leafage"] == [0, 1, 2, 3, 4]
    assert json.loads(json.dumps(doc)) == doc


def test_edge_both_inherited_and_forced_exports_its_word():
    # An edge both inherited and freshly forced is exported with its
    # forcing word only; tests/test_golden.py pins this automaton's export.
    dfa = random_dfa(6, 2, 5)
    result = build_gamma(dfa)
    doc = gamma_to_doc(result, dfa)
    assert (result.outcome, result.terminal_step) == ("FAILURE", 4)
    for level, rendered in zip(result.levels, doc["levels"]):
        both = level.inherited & level.forcing.keys()
        assert len(both) == (0 if level.level == 1 else 2)
        for edge in rendered["edges"]:
            if (edge["src"], edge["dst"]) in both:
                assert "forced_by" in edge and "inherited" not in edge


def test_gamma_doc_failure_case():
    from crautomata import e_family

    bad = e_family(4, 3, drop_last_b=True)
    result = build_gamma(bad)
    doc = gamma_to_doc(result, bad)
    assert doc["outcome"] == "FAILURE"
    assert doc["terminal_step"] == 3


def test_format_word():
    assert format_word((), ("a", "b")) == "ε"
    assert format_word((0, 1, 0), ("a", "b")) == "aba"
    assert format_word((0, 2), ("a1", "a2", "b3")) == "a1 b3"
    # One long name in the alphabet keeps every word spaced, so (a, b) and
    # the one-letter word ab render apart.
    mixed = ("a", "b", "ab")
    assert format_word((0, 1), mixed) == "a b"
    assert format_word((2,), mixed) == "ab"
    assert format_word((1,), mixed) == "b"


def test_format_states():
    assert format_states([3, 0]) == "{0, 3}"
    assert format_states([]) == "{}"


# The readers take input from outside the program: whatever they are given,
# they return a Dfa or raise ValueError, never another exception.


@st.composite
def _near_valid(draw):
    """(n, letter names, rows): often a valid automaton, often just not."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=3))
    names = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=m, max_size=m))
    entries = st.integers(min_value=-1, max_value=n)
    rows = draw(
        st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)
    )
    return n, names, rows


def _as_text(parts):
    n, names, rows = parts
    table = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return f"states {n}\nalphabet {' '.join(names)}\n{table}"


_TOKENS = ["states", "alphabet", "#", "0", "1", "2", "-1", "a", "b", "1.5"]
_FORMAT_LIKE = st.lists(
    st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join), max_size=8
).map("\n".join)
_TEXTS = st.one_of(_near_valid().map(_as_text), _FORMAT_LIKE, st.text())


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TEXTS, _TEXTS.map(str.encode), st.binary()))
def test_parse_dfa_fuzz_returns_dfa_or_value_error(text):
    try:
        assert isinstance(parse_dfa(text), Dfa)
    except ValueError:
        pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@st.composite
def _doc_like(draw):
    """An automaton document, with any field possibly swapped for other JSON."""
    n, names, rows = draw(_near_valid())
    doc = {"states": n, "alphabet": names, "delta": rows}
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        doc[key] = draw(_JSON)
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(_doc_like(), _JSON))
def test_doc_to_dfa_fuzz_returns_dfa_or_value_error(doc):
    try:
        assert isinstance(doc_to_dfa(doc), Dfa)
    except ValueError:
        pass
