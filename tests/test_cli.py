"""Exit codes and output shapes of the console entry point."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hyperbetti
from hyperbetti import cli
from hyperbetti.cli import main
from hyperbetti.limits import FAMILY_BUDGET, LYUBEZNIK_BUDGET
from hyperbetti.linalg import PRIME_LIMIT, Field, parse_field


@pytest.fixture
def p3_file(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("a b / b c\n")
    return str(f)


@pytest.fixture
def c4_file(tmp_path):
    f = tmp_path / "c4.txt"
    f.write_text("a b\nb c\nc d\nd a\n")
    return str(f)


@pytest.fixture
def p6_file(tmp_path):
    f = tmp_path / "p6.json"
    f.write_text(json.dumps({
        "vertices": ["u", "v", "w", "x", "y", "z"],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]],
    }))
    return str(f)


def test_betti_methods_agree(p3_file, capsys):
    outputs = []
    for method in ("hochster", "taylor", "lyubeznik", "recursive"):
        assert main(["betti", p3_file, "--method", method]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    assert "pd=2" in outputs[0] and "reg=1" in outputs[0]


def test_python_dash_m_runs_the_cli(p3_file):
    env = dict(os.environ, PYTHONPATH=str(Path(hyperbetti.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "hyperbetti", "betti", p3_file],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "pd=2  reg=1" in done.stdout


def test_betti_field_flag(p3_file, capsys):
    assert main(["betti", p3_file, "--field", "gf2"]) == 0
    assert "GF(2)" in capsys.readouterr().out
    assert main(["betti", p3_file, "--field", "gf:5"]) == 0
    assert "GF(5)" in capsys.readouterr().out


def test_lyubeznik_over_its_symbol_budget_exits_two(tmp_path, capsys):
    # a 20-edge matching on 40 vertices has 2^20 admissible symbols
    f = tmp_path / "matching.txt"
    f.write_text("\n".join(f"a{k} b{k}" for k in range(20)) + "\n")
    start = time.perf_counter()
    assert main(["betti", str(f), "--method", "lyubeznik"]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "error" in err and f"budget {LYUBEZNIK_BUDGET}" in err


def test_hochster_over_its_vertex_cap_names_the_setting_and_lyubeznik(tmp_path, capsys,
                                                                     monkeypatch):
    # an 8-edge matching has 16 vertices, above the Hochster cap of 14
    monkeypatch.delenv("BETTI_CAP_N", raising=False)
    f = tmp_path / "matching.txt"
    f.write_text("\n".join(f"a{k} b{k}" for k in range(8)) + "\n")
    assert main(["betti", str(f)]) == 2
    captured = capsys.readouterr()
    assert "16 vertices exceeds Betti cap 14" in captured.err
    assert "BETTI_CAP_N" in captured.err and "--method lyubeznik" in captured.err
    assert not captured.out
    assert main(["betti", str(f), "--method", "lyubeznik"]) == 0
    assert "pd=8" in capsys.readouterr().out


def test_taylor_runs_up_to_the_family_budget(tmp_path, capsys):
    # the Taylor complex walks the survey's 2^m edge families, under its budget
    def matching(k):
        f = tmp_path / f"matching{k}.txt"
        f.write_text("\n".join(f"a{s} b{s}" for s in range(k)) + "\n")
        return str(f)

    assert main(["betti", matching(FAMILY_BUDGET), "--method", "taylor"]) == 0
    assert f"pd={FAMILY_BUDGET}" in capsys.readouterr().out
    assert main(["betti", matching(FAMILY_BUDGET + 1), "--method", "taylor"]) == 2
    captured = capsys.readouterr()
    assert f"family enumeration budget {FAMILY_BUDGET}" in captured.err
    assert not captured.out


def test_recursive_needs_elimination_order(c4_file, capsys):
    assert main(["betti", c4_file, "--method", "recursive"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "/definitely/not/here.txt"],
        ["betti", "FILE", "--field", "gf:composite"],
        # characteristic 0 is the rationals, which gf:P must not name
        ["betti", "FILE", "--field", "gf:0"],
        # a Carmichael number, and a strong pseudoprime to bases 2, 3, 5, 7
        ["betti", "FILE", "--field", "gf:561"],
        ["betti", "FILE", "--field", "gf:3215031751"],
        ["classify", "FILE", "--family", "zero one"],
        ["classify", "FILE", "--family", "0 99"],
        ["fuzz", "--class", "general", "--vertices", "6", "--edges", "-4", "--count", "1"],
        ["fuzz", "--class", "chordal", "--vertices", "6", "--edges", "-4", "--count", "1"],
        ["fuzz", "--class", "uniform:3", "--vertices", "6", "--edges", "-4", "--count", "1"],
        ["fuzz", "--class", "special:3", "--vertices", "6", "--edges", "-4", "--count", "1"],
    ],
)
def test_usage_errors_exit_two(argv, p3_file, capsys):
    argv = [p3_file if a == "FILE" else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


# "²" is a digit to str.isdigit, but not a decimal that int() accepts
@pytest.mark.parametrize("value", ["-3", "abc", "²"])
def test_bad_cap_env_exits_two(value, p3_file, capsys, monkeypatch):
    monkeypatch.setenv("BETTI_CAP_N", value)
    assert main(["betti", p3_file]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BETTI_CAP_N") and not captured.out


def test_large_prime_field_is_accepted_quickly():
    start = time.perf_counter()
    assert parse_field("gf:100000000000000000039").p == 10**20 + 39
    assert time.perf_counter() - start < 1.0
    # the first composite that the 13 Miller-Rabin bases pass
    with pytest.raises(ValueError):
        Field(PRIME_LIMIT)


def test_malformed_file_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"vertices": ["a"], "edges": [[0, 1]]')
    assert main(["invariants", str(f)]) == 2
    assert "error" in capsys.readouterr().err


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_invariants_output(p6_file, capsys):
    assert main(["invariants", p6_file]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    inv = payload["invariants"]
    assert inv["b"] == 3 and inv["d_g"] == 4
    assert payload["witnesses"]["b"]


def test_invariants_text_lines(p6_file, capsys):
    assert main(["invariants", p6_file]) == 0
    out = capsys.readouterr().out
    assert out[:out.index("{")].splitlines() == [
        "m          = 3   (witness edges: 0 2 4)",
        "a          = 2   (witness edges: 0 3)",
        "a_2        = 2",
        "b          = 3   (witness edges: 0 1 4)",
        "b_prime    = 2   (witness edges: 0 1 4)",
        "c          = 4   (witness edges: 0 1 3 4)",
        "c_prime    = 2   (witness edges: 0 1 3 4)",
        "d1         = 4   (witness edges: 0 1 3 4)",
        "d2         = 4   (witness edges: 0 1 3 4)",
        "d1_prime   = 2   (witness edges: 0 1 3)",
        "d2_prime   = 2   (witness edges: 0 1 3)",
        "e          = 4   (witness edges: 0 1 3 4)",
        "d_g        = 4   (witness edges: 0 1 3 4)",
        "d_g_prime  = 2   (witness edges: 0 3)",
    ]


def test_classify_flags(c4_file, capsys):
    assert main(["classify", c4_file, "--family", "0 2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matching"] is True
    assert out["semi_induced_matching"] is False
    assert out["self_ordered_some_order"] is False
    assert main(["classify", c4_file, "--family", "0 2", "--ordered"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["self_ordered_in_given_order"] is False
    assert main(["classify", c4_file, "--family", "0", "--ordered"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["self_ordered_in_given_order"] is True


def test_classify_witness_follows_the_given_order(tmp_path, capsys):
    f = tmp_path / "tie.json"
    f.write_text(json.dumps({
        "vertices": ["v0", "v1", "v2", "v3", "v4"],
        "edges": [[2, 3], [0, 4], [1, 4], [0, 3]],
    }))
    assert main(["classify", str(f), "--family", "2 1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["self_disjoint_witness"] == [2]
    assert out["self_semi_disjoint_witness"] == [2, 1]


def test_classify_above_the_family_budget_exits_two(tmp_path, capsys):
    # the eager classes would do, but the witness search refuses 17 members
    f = tmp_path / "star.txt"
    f.write_text("\n".join(f"z x{k}" for k in range(17)) + "\n")
    start = time.perf_counter()
    assert main(["classify", str(f), "--family", " ".join(map(str, range(17)))]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(FAMILY_BUDGET) in captured.err
    assert not captured.out


def test_check_reports_json(p3_file, capsys):
    assert main(["check", p3_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert len(report["checks"]) == 18


def test_check_honors_cap_env(tmp_path, capsys, monkeypatch):
    # BETTI_CAP_N replaces the Hochster cap, which the campaign never meets:
    # check runs as without it, and betti stops at it
    p4 = tmp_path / "p4.txt"
    p4.write_text("a b / b c / c d\n")

    def check_body():
        assert main(["check", str(p4)]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["meta"]
        return report

    plain = check_body()
    monkeypatch.setenv("BETTI_CAP_N", "3")
    assert check_body() == plain
    assert main(["betti", str(p4)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fuzz_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["fuzz", "--class", "general", "--vertices", "6", "--edges", "4",
            "--count", "3", "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True and report["instances"] == 3
    # byte-identical reruns apart from meta
    again = tmp_path / "again.json"
    argv[-1] = str(again)
    assert main(argv) == 0
    a, b = json.loads(out.read_text()), json.loads(again.read_text())
    a.pop("meta"), b.pop("meta")
    assert a == b


def test_fuzz_out_to_an_unwritable_path_exits_two(tmp_path, capsys, monkeypatch):
    def campaign_must_not_run(*args, **kwargs):
        pytest.fail("the campaign ran before --out was found unwritable")

    # a missing directory, since permission bits do not stop root
    monkeypatch.setattr(cli, "run_fuzz", campaign_must_not_run)
    out = tmp_path / "missing" / "report.json"
    assert main(["fuzz", "--class", "general", "--vertices", "5", "--edges", "4",
                 "--count", "1", "--seed", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}") and not captured.out
    assert not out.parent.exists()


def test_fuzz_stdout_and_bad_class(capsys):
    assert main(["fuzz", "--class", "chordal", "--vertices", "5", "--edges",
                 "4", "--count", "2", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["instances"] == 2
    assert main(["fuzz", "--class", "nope", "--vertices", "5", "--edges", "4",
                 "--count", "1", "--seed", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag,value", [("--count", "-3"), ("--count", "0"), ("--jobs", "0")])
def test_fuzz_rejects_counts_below_one(flag, value, capsys):
    argv = ["fuzz", "--class", "general", "--vertices", "5", "--edges", "4",
            "--count", "2", "--seed", "0", flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and not captured.out


def test_fuzz_special_class_above_the_triangulation_cap(capsys):
    # only the recursion is capped, so such instances fuzz, and only the
    # check that reads the recursive table skips
    argv = ["fuzz", "--class", "special:3", "--vertices", "17", "--edges", "6",
            "--count", "1", "--seed", "0"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert not captured.err
    report = json.loads(captured.out)
    assert report["ok"] is True and report["instances"] == 1
    skips = {c["name"]: c.get("detail") for c in report["checks"] if c["status"] == "skip"}
    assert skips["disjointness-characterization"] == "more than 16 vertices"


def test_no_printed_table_line_ends_in_whitespace(tmp_path, capsys):
    p4 = tmp_path / "p4.txt"
    p4.write_text("a b / b c / c d\n")
    edgeless = tmp_path / "edgeless.json"
    edgeless.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": []}))
    for path in (p4, edgeless):
        for method in cli.ENGINES:
            assert main(["betti", str(path), "--method", method]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith("      j=0"), (path, method)
            assert [line for line in lines if line != line.rstrip()] == [], (path, method)
