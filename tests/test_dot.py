from crautomata import build_gamma, fixed_example, gamma_to_doc
from crautomata.dot import forest_dot, level_dot


def test_level_dot_gamma2():
    e5 = fixed_example("e5")
    result = build_gamma(e5)
    text = level_dot(gamma_to_doc(result, e5)["levels"][1])
    assert text.startswith("digraph gamma_2 {")
    assert text.rstrip().endswith("}")
    assert text.count("label=") >= 6  # 3 vertices + 3 forced-edge labels
    assert 'v0 [label="{0, 1}"];' in text
    assert 'v1 [label="{2}"];' in text
    assert 'v2 [label="{3, 4}"];' in text
    assert "v1 -> v0;" in text  # inherited edges drawn solid, unlabeled
    assert 'v0 -> v1 [style=dashed, label="a[1,2]"];' in text
    assert 'v1 -> v2' not in text


def test_level_dot_edges_sorted():
    e5 = fixed_example("e5")
    result = build_gamma(e5)
    text = level_dot(gamma_to_doc(result, e5)["levels"][0])
    arrows = [line for line in text.splitlines() if "->" in line]
    assert arrows == sorted(arrows)
    assert len(arrows) == 5
    assert all("style=dashed" in a for a in arrows)  # level 1 is all forced


def test_forest_dot():
    e5 = fixed_example("e5")
    text = forest_dot(gamma_to_doc(build_gamma(e5), e5)["forest"])
    assert text.startswith("digraph forest {")
    assert "rankdir=BT;" in text
    assert text.count("f") >= 11
    assert text.count("rank=same;") == 4
    # each non-root node points at its parent
    arrows = [line for line in text.splitlines() if "->" in line]
    assert len(arrows) == 10


def test_quoting_special_characters():
    from crautomata.dot import _quote

    assert _quote('a"b') == '"a\\"b"'
    assert _quote("a\\b") == '"a\\\\b"'
