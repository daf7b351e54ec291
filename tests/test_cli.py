import json
import subprocess
import sys

import pytest

from braidscope import cli
from braidscope.cli import main, parse_collection_text, parse_graph_text
from braidscope.errors import InvariantError, ParseError

P3 = "e e1 1 2\ne e2 2 3\n"
K5 = "".join(f"e e{u}{v} {u} {v}\n"
             for u in range(1, 6) for v in range(u + 1, 6))
K6 = "".join(f"e e{u}{v} {u} {v}\n"
             for u in range(1, 7) for v in range(u + 1, 7))


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "braidscope.cli", *args],
        capture_output=True, text=True, input=stdin)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def p3(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text(P3)
    return str(f)


@pytest.fixture
def k5(tmp_path):
    f = tmp_path / "k5.txt"
    f.write_text(K5)
    return str(f)


def test_graph_parsing():
    g = parse_graph_text("# comment\nv 9\ne e1 1 2\n")
    assert set(g.vertices) == {"1", "2", "9"}
    with pytest.raises(ParseError):
        parse_graph_text("x nope\n")
    with pytest.raises(ParseError):
        parse_graph_text("e e# 1 2\n")
    with pytest.raises(ParseError):
        parse_graph_text("")


def test_word_command(p3, capsys):
    rc = main(["word", "--graph", p3, "--base", "1,3", "+e1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["legal"] and data["terminus"] == ["2", "3"]


def test_word_compare(p3, capsys):
    rc = main(["word", "--graph", p3, "--base", "1,3",
               "--compare", "+e1", "+e1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True


def test_build_command(k5, capsys):
    rc = main(["build", "--graph", k5, "-n", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["f_vector"] == [10, 30, 15]
    assert data["euler_characteristic"] == -5
    assert data["hyperplanes"] == 10
    assert data["npc"] is True


def test_build_dot(p3, k5, capsys):
    rc = main(["build", "--graph", k5, "-n", "2", "--format", "dot"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("graph skeleton {") and '[label="e12"]' in out
    rc = main(["build", "--graph", p3, "-n", "1", "--max-dim", "0",
               "--format", "dot"])
    assert rc == 0
    assert capsys.readouterr().out == 'graph skeleton {\n  "C1";\n  "C2";\n  "C3";\n}\n'


def test_homology_command(k5, capsys):
    rc = main(["homology", "--graph", k5, "-n", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["groups"][1] == "Z^6 + Z/2"


def test_analyze_command(k5, capsys):
    rc = main(["analyze", "--graph", k5, "-n", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    a = data["assignments"][0]
    assert a["hyperbolic"] and a["toral_rel_hyp"]
    assert data["oracle_agreement"] == {"hyperbolic": True,
                                        "toral_rel_hyp": True}


def test_table_command(capsys):
    rc = main(["table", "--family", "complete", "--max", "5",
               "--particles", "2..3"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    rows = {(r["graph"], r["n"]): r for r in data["rows"]}
    assert rows[("K_5", 2)]["hyperbolic"] is True
    assert rows[("K_5", 3)]["hyperbolic"] is False
    assert rows[("K_3", 3)]["infinite_cyclic"] is True


def test_relhyp_command(tmp_path, capsys):
    gfile = tmp_path / "k6.txt"
    gfile.write_text(K6)
    lines = []
    import itertools
    for triple in itertools.combinations("123456", 3):
        rest = tuple(v for v in "123456" if v not in triple)
        if triple < rest:
            lines.append(",".join(triple) + ";" + ",".join(rest))
    cfile = tmp_path / "gg.txt"
    cfile.write_text("\n".join(lines) + "\n")
    rc = main(["relhyp-check", "--graph", str(gfile),
               "--collection", str(cfile)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["members"] == 10
    assert data["criterion_applies"] is True


def test_collection_parse_errors(tmp_path):
    from braidscope.cli import load_graph
    gfile = tmp_path / "k6.txt"
    gfile.write_text(K6)
    g = load_graph(str(gfile))
    with pytest.raises(ParseError):
        parse_collection_text(g, "1,2,99\n")


def test_exit_codes(p3, k5):
    rc, _, err = run_cli(["word", "--graph", p3, "--base", "1,3", "+e9"])
    assert rc == 2 and "illegal move" in err
    rc, _, err = run_cli(["build", "--graph", k5, "-n", "2",
                          "--max-cells", "3"])
    assert rc == 3 and "resource limit" in err
    rc, _, err = run_cli(["analyze", "--graph", "/no/such/file", "-n", "2"])
    assert rc == 1 and "parse error" in err


def test_failed_internal_check_exits_4(k5, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantError("forged contradiction")

    monkeypatch.setattr(cli, "full_report", broken)
    assert main(["analyze", "--graph", k5, "-n", "2"]) == cli.EXIT_INVARIANT == 4
    assert "internal check failed: forged contradiction" in capsys.readouterr().err


def test_env_cell_cap(p3, k5, tmp_path):
    import os
    env = dict(os.environ, BRAIDSCOPE_MAX_CELLS="3")
    proc = subprocess.run(
        [sys.executable, "-m", "braidscope.cli", "build",
         "--graph", k5, "-n", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 3


def test_json_determinism_and_roundtrip(k5):
    rc1, out1, _ = run_cli(["analyze", "--graph", k5, "-n", "2"])
    rc2, out2, _ = run_cli(["analyze", "--graph", k5, "-n", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    # reparse and reserialize byte-identically
    data = json.loads(out1)
    again = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    assert again == out1
