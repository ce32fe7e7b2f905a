import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crautomata
from crautomata import (
    StateSet,
    apply_word,
    cerny,
    e_family,
    fixed_example,
    parse_dfa,
    run_cli,
    serialize_dfa,
)


def write_dfa(tmp_path, dfa, name="machine.txt"):
    path = tmp_path / name
    path.write_text(serialize_dfa(dfa), encoding="utf-8")
    return str(path)


def test_generate_families_round_trip(tmp_path, capsys):
    cases = [
        (["generate", "cerny", "--n", "4"], cerny(4)),
        (["generate", "e", "--n", "5", "--k", "2"], e_family(5, 2)),
        (
            ["generate", "e", "--n", "5", "--k", "4", "--drop-last-b"],
            e_family(5, 4, drop_last_b=True),
        ),
        (["generate", "e5"], fixed_example("e5")),
        (["generate", "flipflop"], fixed_example("flipflop")),
    ]
    for argv, expected in cases:
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert parse_dfa(out) == expected


def test_generate_to_file(tmp_path, capsys):
    target = tmp_path / "c4.txt"
    assert run_cli(["generate", "cerny", "--n", "4", "-o", str(target)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert parse_dfa(target.read_text(encoding="utf-8")) == cerny(4)


def test_generate_json_format(capsys):
    assert run_cli(["--format", "json", "generate", "e12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["states"] == 12


def test_generate_random_seeded(capsys):
    assert run_cli(["--seed", "9", "generate", "random", "--n", "5", "--m", "2"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["--seed", "9", "generate", "random", "--n", "5", "--m", "2"]) == 0
    assert capsys.readouterr().out == first
    assert run_cli(["generate", "random", "--n", "5", "--m", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli(["--seed", "-1", "generate", "random", "--n", "5", "--m", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be non-negative\n"
    assert captured.out == ""


def test_generate_missing_parameter(capsys):
    assert run_cli(["generate", "e", "--n", "5"]) == 2
    assert "--k" in capsys.readouterr().err


def test_analyze_exit_codes(tmp_path, capsys):
    good = write_dfa(tmp_path, fixed_example("e5"), "good.txt")
    assert run_cli(["analyze", good]) == 0
    out = capsys.readouterr().out
    assert "outcome: SUCCESS" in out
    assert "terminal step: 3" in out
    assert "completely reachable: yes" in out

    bad = write_dfa(tmp_path, e_family(5, 4, drop_last_b=True), "bad.txt")
    assert run_cli(["analyze", bad]) == 1
    out = capsys.readouterr().out
    assert "completely reachable: no" in out
    assert "unreachable witness: {4}" in out


def test_analyze_json(tmp_path, capsys):
    bad = write_dfa(tmp_path, e_family(4, 3, drop_last_b=True))
    assert run_cli(["--format", "json", "analyze", bad]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["completely_reachable"] is False
    assert doc["outcome"] == "FAILURE"
    assert doc["unreachable_witness"] == [3]


def test_analyze_reads_json_documents(tmp_path, capsys):
    from crautomata import dfa_to_doc

    path = tmp_path / "machine.json"
    path.write_text(json.dumps(dfa_to_doc(cerny(4))), encoding="utf-8")
    assert run_cli(["analyze", str(path)]) == 0


def test_gamma_writes_dot_and_json(tmp_path, capsys):
    source = write_dfa(tmp_path, fixed_example("e5"))
    dots = tmp_path / "dots"
    doc_path = tmp_path / "gamma.json"
    code = run_cli(["gamma", source, "--dot", str(dots), "--json", str(doc_path)])
    assert code == 0
    names = sorted(p.name for p in dots.iterdir())
    assert names == ["forest.dot", "gamma_1.dot", "gamma_2.dot", "gamma_3.dot"]
    doc = json.loads(doc_path.read_text(encoding="utf-8"))
    assert doc["terminal_step"] == 3


def test_gamma_text_listing(tmp_path, capsys):
    source = write_dfa(tmp_path, fixed_example("e5"))
    assert run_cli(["gamma", source]) == 0
    out = capsys.readouterr().out
    assert "level 1: 5 vertices, 5 edges" in out
    assert "{3, 4} -> {0, 1}  forced by a[4,5]" in out
    assert "{2} -> {0, 1}  inherited" in out


def test_reach_text_and_json(tmp_path, capsys):
    e5 = fixed_example("e5")
    source = write_dfa(tmp_path, e5)
    assert run_cli(["reach", source, "--subset", "0,2"]) == 0
    text = capsys.readouterr().out
    assert "word: " in text and "length: " in text

    assert run_cli(["--format", "json", "reach", source, "--subset", "0,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    word = tuple(doc["word"])
    assert apply_word(e5, StateSet.full(5), word) == StateSet([0, 2])
    assert doc["length"] == len(word)
    assert doc["steps"][0]["source"] == [0, 1, 2, 3, 4]
    assert doc["steps"][-1]["target"] == [0, 2]


def test_reach_errors(tmp_path, capsys):
    source = write_dfa(tmp_path, fixed_example("e5"))
    assert run_cli(["reach", source, "--subset", "0,zebra"]) == 2
    assert "error:" in capsys.readouterr().err

    bad = write_dfa(tmp_path, e_family(4, 3, drop_last_b=True), "bad.txt")
    assert run_cli(["reach", bad, "--subset", "0"]) == 2
    assert "succeeded" in capsys.readouterr().err


def test_sync(tmp_path, capsys):
    source = write_dfa(tmp_path, cerny(4))
    assert run_cli(["sync", source]) == 0
    out = capsys.readouterr().out
    assert "reset word: " in out
    assert "cubic bound: 11 (within)" in out

    assert run_cli(["--format", "json", "sync", source]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["within_cubic"] is True
    assert doc["length"] == len(doc["word"])


def test_oracle_modes(tmp_path, capsys):
    c4 = write_dfa(tmp_path, cerny(4))
    assert run_cli(["oracle", c4]) == 0
    assert "reachable subsets: 15 of 15" in capsys.readouterr().out

    assert run_cli(["oracle", c4, "--threshold"]) == 0
    assert "reset threshold: 9" in capsys.readouterr().out

    e5 = write_dfa(tmp_path, fixed_example("e5"), "e5.txt")
    assert run_cli(["oracle", e5, "--monoid"]) == 0
    out = capsys.readouterr().out
    assert "monoid size: 31" in out
    assert "singular size: 30" in out

    assert run_cli(["--format", "json", "oracle", e5, "--reach-map"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reachable_count"] == 31 and doc["completely_reachable"] is True
    assert len(doc["subsets"]) == 31


def test_oracle_exit_one_when_not_cr(tmp_path, capsys):
    bad = write_dfa(tmp_path, e_family(4, 3, drop_last_b=True))
    assert run_cli(["--quiet", "oracle", bad]) == 1
    assert capsys.readouterr().out == ""


def test_oracle_guard(tmp_path, capsys):
    c4 = write_dfa(tmp_path, cerny(4))
    assert run_cli(["oracle", c4, "--max-n", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds(tmp_path, capsys):
    source = write_dfa(tmp_path, cerny(6))
    assert run_cli(["bounds", source]) == 0
    out = capsys.readouterr().out
    assert "cerny bound: 25" in out
    assert "cubic reset bound: 38" in out
    assert "compress bound (k=2): 15" in out


def test_quiet_keeps_exit_code(tmp_path, capsys):
    bad = write_dfa(tmp_path, e_family(5, 4, drop_last_b=True))
    assert run_cli(["--quiet", "analyze", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""


def test_usage_errors(tmp_path, capsys):
    assert run_cli([]) == 2
    capsys.readouterr()
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()
    assert run_cli(["analyze", str(tmp_path / "missing.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_input_file(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("states two\nalphabet a\n0\n", encoding="utf-8")
    assert run_cli(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err

    path.write_text("{not json", encoding="utf-8")
    assert run_cli(["analyze", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"states": 2, "alphabet": ["a"], "delta": [1, 0]},
        {"states": 2, "alphabet": ["a"], "delta": [[1.0], [0.0]]},
        {"states": 2, "alphabet": "a", "delta": [[1], [0]]},
        {"states": 2, "alphabet": "ab", "delta": [[1, 0], [0, 1]]},
        {"states": 2, "alphabet": [1], "delta": [[1], [0]]},
        {"states": True, "alphabet": ["a"], "delta": [[0]]},
        {"states": 2, "alphabet": ["a"], "delta": [[True], [0]]},
        {"states": 2, "alphabet": ["a"], "delta": "10"},
    ],
    ids=[
        "int-rows",
        "float-entries",
        "string-alphabet",
        "string-alphabet-ab",
        "int-letter-name",
        "bool-states",
        "bool-entry",
        "string-delta",
    ],
)
def test_mistyped_json_document_exits_two(tmp_path, capsys, doc):
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_python_dash_m_entry_point():
    src = str(Path(crautomata.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "crautomata", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: crautomata")
