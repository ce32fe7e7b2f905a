import json

import pytest

from crautomata import (
    Dfa,
    build_gamma,
    cerny,
    dfa_to_doc,
    doc_to_dfa,
    fixed_example,
    format_states,
    format_word,
    gamma_to_doc,
    parse_dfa,
    random_dfa,
    serialize_dfa,
)


def test_round_trip_fixtures():
    for d in (fixed_example("e5"), cerny(4), random_dfa(6, 3, 77)):
        assert parse_dfa(serialize_dfa(d)) == d


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


def test_format_states():
    assert format_states([3, 0]) == "{0, 3}"
    assert format_states([]) == "{}"
