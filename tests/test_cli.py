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
    serialize_dfa,
)
from crautomata.cli import run_cli


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


@pytest.mark.parametrize("spelling", ["1_0", "+3", "٣", " 3", "3.0", ""])
def test_numeric_options_read_plain_decimals_only(tmp_path, capsys, spelling):
    c4 = write_dfa(tmp_path, cerny(4))
    runs = [
        (["generate", "cerny", "--n", spelling], "--n"),
        (["generate", "e", "--n", "5", "--k", spelling], "--k"),
        (["generate", "random", "--n", "5", "--m", spelling], "--m"),
        (["--seed", spelling, "generate", "random", "--n", "5", "--m", "2"], "--seed"),
        (["oracle", c4, "--max-n", spelling], "--max-n"),
    ]
    for argv, option in runs:
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: invalid decimal value: {spelling!r}" in captured.err


def test_generate_missing_parameter(capsys):
    assert run_cli(["generate", "e", "--n", "5"]) == 2
    assert "--k" in capsys.readouterr().err


def test_generate_refuses_options_its_family_does_not_read(capsys):
    values = {
        "--n": ["--n", "5"],
        "--k": ["--k", "4"],
        "--m": ["--m", "2"],
        "--drop-last-b": ["--drop-last-b"],
    }
    refused = {
        "cerny": ["--k", "--m", "--drop-last-b"],
        "e": ["--m"],
        "random": ["--k", "--drop-last-b"],
        "e5": list(values),
        "e12": list(values),
        "flipflop": list(values),
    }
    # What each family needs, so that only the extra option is wrong.
    needs = {
        "cerny": ["--n", "5"],
        "e": ["--n", "5", "--k", "4"],
        "random": ["--n", "5", "--m", "2"],
    }
    for family, options in refused.items():
        for option in options:
            argv = ["--seed", "1", "generate", family, *needs.get(family, [])]
            assert run_cli([*argv, *values[option]]) == 2, (family, option)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: family '{family}' does not take {option}\n"
    # A zero is given too, and the global --seed is left to the families.
    assert run_cli(["generate", "e5", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: family 'e5' does not take --n\n"
    assert run_cli(["--seed", "1", "generate", "e5"]) == 0


def test_generate_range_errors_name_the_options(capsys):
    # The generators' own messages name their parameters; the CLI names the
    # options the user typed.
    cases = [
        (
            ["generate", "cerny", "--n", "1"],
            "family 'cerny' requires --n >= 2, got --n 1",
        ),
        (
            ["generate", "e", "--n", "2", "--k", "2"],
            "family 'e' requires 2 <= --k < --n, got --n 2 --k 2",
        ),
        (
            ["generate", "e", "--n", "5", "--k", "1"],
            "family 'e' requires 2 <= --k < --n, got --n 5 --k 1",
        ),
        (
            ["generate", "e", "--n", "4", "--k", "2", "--drop-last-b"],
            "--drop-last-b requires --k = --n - 1, got --n 4 --k 2",
        ),
        (
            ["--seed", "1", "generate", "random", "--n", "0", "--m", "2"],
            "family 'random' requires --n >= 1 and --m >= 1, got --n 0 --m 2",
        ),
        (
            ["--seed", "1", "generate", "random", "--n", "3", "--m", "0"],
            "family 'random' requires --n >= 1 and --m >= 1, got --n 3 --m 0",
        ),
    ]
    for argv, message in cases:
        assert run_cli(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    # The smallest members of each range are accepted.
    assert run_cli(["generate", "cerny", "--n", "2"]) == 0
    assert run_cli(["generate", "e", "--n", "3", "--k", "2", "--drop-last-b"]) == 0
    assert run_cli(["--seed", "1", "generate", "random", "--n", "1", "--m", "1"]) == 0
    capsys.readouterr()


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


def test_analyze_decodes_no_word(tmp_path, capsys, decodes):
    # The decision reads excluded sets and duplicate states only; words are
    # built where they are printed.
    path = write_dfa(tmp_path, cerny(24))
    assert run_cli(["analyze", path]) == 0
    assert decodes == []
    assert run_cli(["gamma", path]) == 0
    assert decodes


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_input_file_may_start_with_a_byte_order_mark(tmp_path, capsys, fmt):
    from crautomata import dfa_to_doc

    dfa = e_family(4, 3, drop_last_b=True)
    body = serialize_dfa(dfa) if fmt == "text" else json.dumps(dfa_to_doc(dfa))
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(body, encoding="utf-8")
    marked.write_text(body, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run_cli(["--format", "json", "analyze", str(plain)]) == 1
    want = capsys.readouterr()
    assert run_cli(["--format", "json", "analyze", str(marked)]) == 1
    assert capsys.readouterr() == want


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
    # int() accepts each of these (0_1 as 1); only -?[0-9]+ is read
    for subset in ("0,0_1", "+1", "\u0663"):
        assert run_cli(["reach", source, "--subset", subset]) == 2
        assert "must be comma-separated integers" in capsys.readouterr().err

    bad = write_dfa(tmp_path, e_family(4, 3, drop_last_b=True), "bad.txt")
    assert run_cli(["reach", bad, "--subset", "0"]) == 2
    assert "succeeded" in capsys.readouterr().err


def test_reach_rejects_huge_index_before_building_mask(tmp_path, capsys):
    # A mask for index 10^14 would need terabytes; the index is refused first.
    source = write_dfa(tmp_path, fixed_example("e5"))
    assert run_cli(["reach", source, "--subset", "0,99999999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: target subset contains states outside the automaton\n"
    )
    assert run_cli(["reach", source, "--subset", "0,-1"]) == 2
    assert "state index must be non-negative" in capsys.readouterr().err


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
    for mode in ([], ["--threshold"], ["--reach-map"]):
        assert run_cli(["oracle", c4, *mode, "--max-n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--max-n 3" in captured.err
        assert captured.err.count("\n") == 1


def test_oracle_monoid_honours_max_n(tmp_path, capsys):
    # Refused by the state count before the closure, which on e12 would
    # enumerate a million transformations first.
    e12 = write_dfa(tmp_path, fixed_example("e12"), "e12.txt")
    assert run_cli(["oracle", e12, "--monoid", "--max-n", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--max-n 10" in captured.err
    assert captured.err.count("\n") == 1


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


def _python(*args):
    src = str(Path(crautomata.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_python_dash_m_entry_point():
    proc = _python("-m", "crautomata", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: crautomata")


def test_import_leaves_numpy_unloaded():
    # numpy is loaded only when random_dfa draws an automaton.
    proc = _python("-c", "import sys, crautomata; print('numpy' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


# Exact stdout of every command on e5: the text and JSON renderings are
# pinned byte for byte, so any change in how a report is built shows here.


@pytest.fixture
def e5_file(tmp_path):
    return write_dfa(tmp_path, fixed_example("e5"), "e5.txt")


def _run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


E5_TEXT = {
    ("analyze",): (
        "outcome: SUCCESS\n"
        "terminal step: 3\n"
        "completely reachable: yes\n"
    ),
    ("gamma",): (
        "outcome: SUCCESS\n"
        "terminal step: 3\n"
        "level 1: 5 vertices, 5 edges\n"
        "  {0} -> {1}  forced by a[1]\n"
        "  {1} -> {0}  forced by a[2]\n"
        "  {2} -> {0}  forced by a[3]\n"
        "  {3} -> {4}  forced by a[4]\n"
        "  {4} -> {3}  forced by a[5]\n"
        "level 2: 3 vertices, 4 edges\n"
        "  {0, 1} -> {2}  forced by a[1,2]\n"
        "  {2} -> {0, 1}  inherited\n"
        "  {3, 4} -> {0, 1}  forced by a[4,5]\n"
        "  {3, 4} -> {2}  forced by a[4,5]\n"
        "level 3: 2 vertices, 2 edges\n"
        "  {0, 1, 2} -> {3, 4}  forced by a[1,3]\n"
        "  {3, 4} -> {0, 1, 2}  inherited\n"
    ),
    ("reach", "--subset", "0,2"): (
        "word: a[5] a[4,5] a[2]\n"
        "length: 3\n"
        "step 1 (level 1): {0, 1, 2, 3, 4} . a[5] = {0, 1, 2, 3}\n"
        "step 2 (level 2): {0, 1, 2, 3} . a[4,5] = {0, 1, 2}\n"
        "step 3 (level 1): {0, 1, 2} . a[2] = {0, 2}\n"
    ),
    ("sync",): (
        "reset word: a[1,3] a[4]\n"
        "length: 2\n"
        "halving length: 1\n"
        "compression lengths: 1\n"
        "cerny bound: 16 (within)\n"
        "cubic bound: 21 (within)\n"
    ),
    ("bounds",): (
        "states: 5\n"
        "cerny bound: 16\n"
        "cubic reset bound: 21\n"
        "avoiding word bound: 5\n"
        "halving word bound: 11\n"
        "compress bound (k=2): 10\n"
        "compress bound (k=3): 6\n"
        "compress bound (k=4): 3\n"
        "compress bound (k=5): 1\n"
    ),
    ("oracle",): "completely reachable: yes\nreachable subsets: 31 of 31\n",
    ("oracle", "--threshold"): "reset threshold: 2\n",
    ("oracle", "--monoid"): "monoid size: 31\nsingular size: 30\n",
}


@pytest.mark.parametrize("command", list(E5_TEXT), ids=" ".join)
def test_text_output_exact(capsys, e5_file, command):
    code, out = _run(capsys, [command[0], e5_file, *command[1:]])
    assert code == 0
    assert out == E5_TEXT[command]


def test_text_output_exact_not_reachable(tmp_path, capsys):
    bad = write_dfa(tmp_path, e_family(5, 4, drop_last_b=True))
    code, out = _run(capsys, ["analyze", bad])
    assert code == 1
    assert out == (
        "outcome: FAILURE\n"
        "terminal step: 4\n"
        "completely reachable: no\n"
        "unreachable witness: {4}\n"
    )


# Written in the key order of gamma_to_doc, which `gamma --json FILE` keeps.
E5_GAMMA_DOC = {
    "outcome": "SUCCESS",
    "terminal_step": 3,
    "levels": [
        {
            "level": 1,
            "vertices": [[0], [1], [2], [3], [4]],
            "edges": [
                {"src": 0, "dst": 1, "forced_by": "a[1]"},
                {"src": 1, "dst": 0, "forced_by": "a[2]"},
                {"src": 2, "dst": 0, "forced_by": "a[3]"},
                {"src": 3, "dst": 4, "forced_by": "a[4]"},
                {"src": 4, "dst": 3, "forced_by": "a[5]"},
            ],
        },
        {
            "level": 2,
            "vertices": [[0, 1], [2], [3, 4]],
            "edges": [
                {"src": 0, "dst": 1, "forced_by": "a[1,2]"},
                {"src": 1, "dst": 0, "inherited": True},
                {"src": 2, "dst": 0, "forced_by": "a[4,5]"},
                {"src": 2, "dst": 1, "forced_by": "a[4,5]"},
            ],
        },
        {
            "level": 3,
            "vertices": [[0, 1, 2], [3, 4]],
            "edges": [
                {"src": 0, "dst": 1, "forced_by": "a[1,3]"},
                {"src": 1, "dst": 0, "inherited": True},
            ],
        },
    ],
    "forest": {
        "nodes": [
            {"id": 0, "level": 1, "leafage": [0]},
            {"id": 1, "level": 1, "leafage": [1]},
            {"id": 2, "level": 1, "leafage": [2]},
            {"id": 3, "level": 1, "leafage": [3]},
            {"id": 4, "level": 1, "leafage": [4]},
            {"id": 5, "level": 2, "leafage": [0, 1]},
            {"id": 6, "level": 2, "leafage": [2]},
            {"id": 7, "level": 2, "leafage": [3, 4]},
            {"id": 8, "level": 3, "leafage": [0, 1, 2]},
            {"id": 9, "level": 3, "leafage": [3, 4]},
            {"id": 10, "level": 4, "leafage": [0, 1, 2, 3, 4]},
        ],
        "parents": [5, 5, 6, 7, 7, 8, 8, 9, 10, 10, None],
    },
}

E5_JSON = {
    ("analyze",): {
        "completely_reachable": True,
        "outcome": "SUCCESS",
        "terminal_step": 3,
    },
    ("gamma",): E5_GAMMA_DOC,
    ("reach", "--subset", "0,2"): {
        "subset": [0, 2],
        "word": [4, 6, 1],
        "word_str": "a[5] a[4,5] a[2]",
        "length": 3,
        "steps": [
            {"level": 1, "word": "a[5]", "source": [0, 1, 2, 3, 4],
             "target": [0, 1, 2, 3]},
            {"level": 2, "word": "a[4,5]", "source": [0, 1, 2, 3],
             "target": [0, 1, 2]},
            {"level": 1, "word": "a[2]", "source": [0, 1, 2], "target": [0, 2]},
        ],
    },
    ("sync",): {
        "word": [7, 3],
        "word_str": "a[1,3] a[4]",
        "length": 2,
        "halving_length": 1,
        "compression_lengths": [1],
        "cerny_bound": 16,
        "within_cerny": True,
        "cubic_bound": 21,
        "within_cubic": True,
    },
    ("bounds",): {
        "states": 5,
        "cerny": 16,
        "cubic_reset": 21,
        "avoiding": 5,
        "halving": 11,
        "compress": {"2": 10, "3": 6, "4": 3, "5": 1},
    },
    ("oracle",): {"completely_reachable": True, "reachable_count": 31, "total": 31},
    ("oracle", "--threshold"): {"reset_threshold": 2},
    ("oracle", "--monoid"): {"monoid_size": 31, "singular_size": 30},
}


@pytest.mark.parametrize("command", list(E5_JSON), ids=" ".join)
def test_json_output_exact(capsys, e5_file, command):
    code, out = _run(capsys, ["--format", "json", command[0], e5_file, *command[1:]])
    assert code == 0
    assert out == json.dumps(E5_JSON[command], indent=2, sort_keys=True) + "\n"


def test_json_output_exact_not_reachable(tmp_path, capsys):
    bad = write_dfa(tmp_path, e_family(5, 4, drop_last_b=True))
    code, out = _run(capsys, ["--format", "json", "analyze", bad])
    assert code == 1
    expected = {
        "completely_reachable": False,
        "outcome": "FAILURE",
        "terminal_step": 4,
        "unreachable_witness": [4],
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gamma_written_files_exact(tmp_path, capsys, e5_file, fmt):
    dots = tmp_path / "dots"
    doc_path = tmp_path / "gamma.json"
    argv = ["--format", fmt, "gamma", e5_file, "--dot", str(dots), "--json", str(doc_path)]
    code, out = _run(capsys, argv)
    assert code == 0
    assert out == f"wrote 4 DOT files to {dots}\nwrote {doc_path}\n"
    written = doc_path.read_text(encoding="utf-8")
    assert written == json.dumps(E5_GAMMA_DOC, indent=2) + "\n"
    assert (dots / "gamma_2.dot").read_text(encoding="utf-8") == (
        "digraph gamma_2 {\n"
        '  v0 [label="{0, 1}"];\n'
        '  v1 [label="{2}"];\n'
        '  v2 [label="{3, 4}"];\n'
        '  v0 -> v1 [style=dashed, label="a[1,2]"];\n'
        "  v1 -> v0;\n"
        '  v2 -> v0 [style=dashed, label="a[4,5]"];\n'
        '  v2 -> v1 [style=dashed, label="a[4,5]"];\n'
        "}\n"
    )
    assert (dots / "forest.dot").read_text(encoding="utf-8") == (
        "digraph forest {\n"
        "  rankdir=BT;\n"
        + "".join(
            f'  f{nid} [label="{label}"];\n'
            for nid, label in enumerate(
                ["{0}", "{1}", "{2}", "{3}", "{4}", "{0, 1}", "{2}", "{3, 4}",
                 "{0, 1, 2}", "{3, 4}", "{0, 1, 2, 3, 4}"]
            )
        )
        + "  { rank=same; f0; f1; f2; f3; f4; }\n"
        "  { rank=same; f5; f6; f7; }\n"
        "  { rank=same; f8; f9; }\n"
        "  { rank=same; f10; }\n"
        + "".join(
            f"  f{nid} -> f{parent};\n"
            for nid, parent in enumerate([5, 5, 6, 7, 7, 8, 8, 9, 10, 10])
        )
        + "}\n"
    )


def test_generate_output_exact(tmp_path, capsys):
    code, out = _run(capsys, ["generate", "cerny", "--n", "3"])
    assert code == 0
    assert out == "states 3\nalphabet a b\n1 1\n1 2\n2 0\n"
    # generate keeps the document's own key order, unlike the sorted reports.
    c3_doc = {"states": 3, "alphabet": ["a", "b"], "delta": [[1, 1], [1, 2], [2, 0]]}
    code, out = _run(capsys, ["--format", "json", "generate", "cerny", "--n", "3"])
    assert code == 0
    assert out == json.dumps(c3_doc, indent=2) + "\n"
    target = tmp_path / "c3.json"
    argv = ["--format", "json", "generate", "cerny", "--n", "3", "-o", str(target)]
    code, written = _run(capsys, argv)
    assert code == 0
    assert written == f"wrote {target}\n"
    assert target.read_text(encoding="utf-8") == out


def test_internal_error_exits_two(monkeypatch, capsys, e5_file):
    import crautomata.cli

    def broken(dfa):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(crautomata.cli, "build_gamma", broken)
    for argv in (["analyze", e5_file], ["--format", "json", "gamma", e5_file]):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: TypeError: unsupported operand\n"
