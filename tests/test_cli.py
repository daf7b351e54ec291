import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from braidscope import classifier, cli
from braidscope.cli import main, parse_graph_text
from braidscope.commands import table as table_command
from braidscope.commands.relhyp import parse_collection_text
from braidscope.errors import InvariantError, ParseError

P3 = "e e1 1 2\ne e2 2 3\n"
K5 = "".join(f"e e{u}{v} {u} {v}\n"
             for u in range(1, 6) for v in range(u + 1, 6))
K6 = "".join(f"e e{u}{v} {u} {v}\n"
             for u in range(1, 7) for v in range(u + 1, 7))


def run_cli(args, stdin=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "braidscope.cli", *args],
        capture_output=True, text=True, input=stdin, timeout=timeout)
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


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, p3):
    # a graph file, a collection file and a collection on stdin; the byte
    # 0xff is never UTF-8, not even in a comment
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"e a 1 2\xff\n")
    assert run_cli(["analyze", "--graph", str(bad), "-n", "2"]) == (
        1, "", f"parse error: {bad} is not UTF-8 text\n")
    collection = tmp_path / "c.txt"
    collection.write_bytes(b"1,2 # \xff\n")
    assert run_cli(["relhyp-check", "--graph", p3, "--collection",
                    str(collection)]) == (
        1, "", f"parse error: {collection} is not UTF-8 text\n")
    proc = subprocess.run(
        [sys.executable, "-m", "braidscope.cli", "relhyp-check", "--graph", p3,
         "--collection", "-"],
        input=b"1,2 # \xff\n", capture_output=True, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, b"", b"parse error: stdin is not UTF-8 text\n")


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

    monkeypatch.setattr(classifier, "full_report", broken)
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


@pytest.mark.parametrize("command", ["homology", "build"])
def test_negative_env_cell_cap_is_refused(p3, monkeypatch, capsys, command):
    monkeypatch.setenv("BRAIDSCOPE_MAX_CELLS", "-5")
    assert main([command, "--graph", p3, "-n", "1"]) == cli.EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precondition violation: cell cap must be >= 0\n"
    # the flag wins over the variable, and a cap of 0 is a cap
    assert main([command, "--graph", p3, "-n", "1", "--max-cells", "0"]) == 3
    assert main([command, "--graph", p3, "-n", "1", "--max-cells", "9"]) == 0


def test_json_determinism_and_roundtrip(k5):
    rc1, out1, _ = run_cli(["analyze", "--graph", k5, "-n", "2"])
    rc2, out2, _ = run_cli(["analyze", "--graph", k5, "-n", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    # reparse and reserialize byte-identically
    data = json.loads(out1)
    again = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    assert again == out1


def test_build_zero_particles(tmp_path, capsys):
    gfile = tmp_path / "k4.txt"
    gfile.write_text("".join(f"e e{u}{v} {u} {v}\n"
                             for u in range(1, 5) for v in range(u + 1, 5)))
    assert main(["build", "--graph", str(gfile), "-n", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["f_vector"] == [1]
    assert data["components"] == 1
    assert data["hyperplanes"] == 0 and data["hyperplanes_per_color"] == {}
    assert data["euler_characteristic"] == 1
    assert data["npc"] is True


def test_homology_cap_refused_before_chain_complex(tmp_path, monkeypatch,
                                                   capsys):
    # K_8 subdivided for 3 particles has 31416 1-cubes, over the 20000 cap
    gfile = tmp_path / "k8.txt"
    gfile.write_text("".join(f"e e{u}{v} {u} {v}\n"
                             for u in range(1, 9) for v in range(u + 1, 9)))

    def never(*args, **kwargs):
        raise AssertionError("chain_complex ran on a refused input")

    monkeypatch.setattr("braidscope.homology.chain_complex", never)
    rc = main(["homology", "--subdivide", "--graph", str(gfile), "-n", "3"])
    assert rc == cli.EXIT_RESOURCE == 3
    assert capsys.readouterr().err == (
        "resource limit: 31416 columns exceed Smith-form cap 20000\n")


# stdout of `homology --subdivide` as printed before unit pairs were
# cancelled across dimensions; the cancellation must not change a byte
GOLDEN_GRAPHS = {
    "k5": K5,
    "k33": "".join(f"e e{u}{v} a{u} b{v}\n"
                   for u in range(1, 4) for v in range(1, 4)),
    "theta222": "".join(f"e {a}e1 u {a}1\ne {a}e2 {a}1 w\n" for a in "abc"),
    "star5": "".join(f"e a{i} c l{i}\n" for i in range(1, 6)),
    "k4": "".join(f"e e{u}{v} {u} {v}\n"
                  for u in range(1, 5) for v in range(u + 1, 5)),
    "k7": "".join(f"e e{u}{v} {u} {v}\n"
                  for u in range(1, 8) for v in range(u + 1, 8)),
    "path": "e e9 9 10\ne e10 10 100\n",
}
GOLDEN_HOMOLOGY = [
    ("k5", 2, "json",
     b'{"euler_characteristic":-5,"free_ranks":[1,6,0],'
     b'"groups":["Z","Z^6 + Z/2","0"],"schema":1,"torsion":[[],[2],[]]}\n'),
    ("k5", 2, "table", b"H_0 = Z\nH_1 = Z^6 + Z/2\nH_2 = 0\n"),
    ("k33", 3, "json",
     b'{"euler_characteristic":5,"free_ranks":[1,4,8,0],'
     b'"groups":["Z","Z^4 + Z/2","Z^8","0"],"schema":1,'
     b'"torsion":[[],[2],[],[]]}\n'),
    ("k33", 3, "table", b"H_0 = Z\nH_1 = Z^4 + Z/2\nH_2 = Z^8\nH_3 = 0\n"),
    ("theta222", 4, "json",
     b'{"euler_characteristic":-1,"free_ranks":[1,3,1,0,0],'
     b'"groups":["Z","Z^3","Z","0","0"],"schema":1,'
     b'"torsion":[[],[],[],[],[]]}\n'),
    ("theta222", 4, "table",
     b"H_0 = Z\nH_1 = Z^3\nH_2 = Z\nH_3 = 0\nH_4 = 0\n"),
    ("star5", 3, "json",
     b'{"euler_characteristic":-25,"free_ranks":[1,26,0,0],'
     b'"groups":["Z","Z^26","0","0"],"schema":1,"torsion":[[],[],[],[]]}\n'),
    ("star5", 3, "table", b"H_0 = Z\nH_1 = Z^26\nH_2 = 0\nH_3 = 0\n"),
    # f-vector 3276/13650/17640/6930, as printed while the sweep took its
    # unit pivots from a Markowitz heap
    ("k7", 3, "json",
     b'{"euler_characteristic":336,"free_ranks":[1,15,350,0],'
     b'"groups":["Z","Z^15 + Z/2","Z^350 + Z/2","0"],"schema":1,'
     b'"torsion":[[],[2],[2],[]]}\n'),
]


@pytest.mark.parametrize("name,n,fmt,expected", GOLDEN_HOMOLOGY,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in GOLDEN_HOMOLOGY])
def test_homology_golden_stdout(tmp_path, name, n, fmt, expected):
    gfile = tmp_path / f"{name}.txt"
    gfile.write_text(GOLDEN_GRAPHS[name])
    proc = subprocess.run(
        [sys.executable, "-m", "braidscope.cli", "homology", "--subdivide",
         "--graph", str(gfile), "-n", str(n), "--format", fmt],
        capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == expected


# stdout of `build --subdivide` as printed while cubes were keyed by
# string tuples; the integer kernel must not change a byte.  The dot
# lines are sorted by string label, and the path's ids ("9" < "10" in id
# order, "10" < "9" as strings) would show a sort by integer key.
GOLDEN_BUILD = [
    ("k33", 3, "json",
     b'{"components":1,"euler_characteristic":5,"f_vector":[455,1404,1386,432],'
     b'"hyperplanes":18,"hyperplanes_per_color":{"e11#p0":1,"e11#p1":1,'
     b'"e12#p0":1,"e12#p1":1,"e13#p0":1,"e13#p1":1,"e21#p0":1,"e21#p1":1,'
     b'"e22#p0":1,"e22#p1":1,"e23#p0":1,"e23#p1":1,"e31#p0":1,"e31#p1":1,'
     b'"e32#p0":1,"e32#p1":1,"e33#p0":1,"e33#p1":1},"npc":true,"schema":1}\n'),
    ("k33", 3, "table",
     b"f-vector: [455, 1404, 1386, 432]\ncomponents: 1\n"
     b"euler characteristic: 5\nhyperplanes: 18\n"),
    ("star5", 4, "json",
     b'{"components":1,"euler_characteristic":-70,'
     b'"f_vector":[1820,5460,5610,2400,360],"hyperplanes":185,'
     b'"hyperplanes_per_color":{"a1#p0#p0":34,"a1#p0#p1":2,"a1#p1":1,'
     b'"a2#p0#p0":34,"a2#p0#p1":2,"a2#p1":1,"a3#p0#p0":34,"a3#p0#p1":2,'
     b'"a3#p1":1,"a4#p0#p0":34,"a4#p0#p1":2,"a4#p1":1,"a5#p0#p0":34,'
     b'"a5#p0#p1":2,"a5#p1":1},"npc":true,"schema":1}\n'),
    ("star5", 4, "table",
     b"f-vector: [1820, 5460, 5610, 2400, 360]\ncomponents: 1\n"
     b"euler characteristic: -70\nhyperplanes: 185\n"),
    ("theta222", 4, "json",
     b'{"components":1,"euler_characteristic":-1,"f_vector":[70,180,144,38,3],'
     b'"hyperplanes":9,"hyperplanes_per_color":{"ae1#p0":1,"ae1#p1":1,'
     b'"ae2":1,"be1#p0":1,"be1#p1":1,"be2":1,"ce1#p0":1,"ce1#p1":1,"ce2":1},'
     b'"npc":true,"schema":1}\n'),
    ("theta222", 4, "table",
     b"f-vector: [70, 180, 144, 38, 3]\ncomponents: 1\n"
     b"euler characteristic: -1\nhyperplanes: 9\n"),
    ("k4", 2, "dot",
     b'graph skeleton {\n  "C1_2";\n  "C1_3";\n  "C1_4";\n  "C2_3";\n'
     b'  "C2_4";\n  "C3_4";\n'
     b'  "C1_3" -- "C2_3" [label="e12"];\n  "C1_4" -- "C2_4" [label="e12"];\n'
     b'  "C1_2" -- "C2_3" [label="e13"];\n  "C1_4" -- "C3_4" [label="e13"];\n'
     b'  "C1_2" -- "C2_4" [label="e14"];\n  "C1_3" -- "C3_4" [label="e14"];\n'
     b'  "C1_2" -- "C1_3" [label="e23"];\n  "C2_4" -- "C3_4" [label="e23"];\n'
     b'  "C1_2" -- "C1_4" [label="e24"];\n  "C2_3" -- "C3_4" [label="e24"];\n'
     b'  "C1_3" -- "C1_4" [label="e34"];\n  "C2_3" -- "C2_4" [label="e34"];\n'
     b'}\n'),
    ("path", 2, "dot",
     b'graph skeleton {\n  "C10_100";\n  "C9_10";\n  "C9_100";\n'
     b'  "C9_10" -- "C9_100" [label="e10"];\n'
     b'  "C9_100" -- "C10_100" [label="e9"];\n}\n'),
]


@pytest.mark.parametrize("name,n,fmt,expected", GOLDEN_BUILD,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in GOLDEN_BUILD])
def test_build_golden_stdout(tmp_path, name, n, fmt, expected):
    gfile = tmp_path / f"{name}.txt"
    gfile.write_text(GOLDEN_GRAPHS[name])
    proc = subprocess.run(
        [sys.executable, "-m", "braidscope.cli", "build", "--subdivide",
         "--graph", str(gfile), "-n", str(n), "--format", fmt],
        capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == expected


# stdout of analyze, relhyp-check, word and table, in the text format
# and in JSON; `{graph}` and `{collection}` name the input files
GOLDEN_TEXT_GRAPHS = {
    "k4": GOLDEN_GRAPHS["k4"],
    "theta222": GOLDEN_GRAPHS["theta222"],
    "two": "e a 1 2\ne b 2 3\ne c 3 1\ne d 4 5\n",
    "bowtie": "e a 1 2\ne b 2 3\ne c 3 1\ne d 3 4\ne f 4 5\ne g 5 6\ne h 6 4\n",
}
GOLDEN_TEXT = [
    ("k4-analyze", "k4", None,
     ["analyze", "--graph", "{graph}", "-n", "2", "--format", "table"],
     b"graph V:1,2,3,4;E:e12:1:2;E:e13:1:3;E:e14:1:4;E:e23:2:3;E:e24:2:4;..."
     b" n=2\n  split=[2] trivial=False Z=False hyp=True toralRH=True"
     b" acyl=acylindrically_hyperbolic free=unknown F2=True F2xZ=False\n"
     b"  oracle: oracles ran\n"),
    ("theta222-analyze-oracle", "theta222", None,
     ["analyze", "--graph", "{graph}", "-n", "3", "--format", "table",
      "--oracle", "on"],
     b"graph V:u,w,a1,b1,c1;E:ae1:u:a1;E:ae2:a1:w;E:be1:u:b1;E:be2:b1:w;E..."
     b" n=3\n  split=[3] trivial=False Z=False hyp=True toralRH=True"
     b" acyl=acylindrically_hyperbolic free=unknown F2=True F2xZ=False\n"
     b"  oracle: oracles ran\n"),
    ("two-analyze", "two", None,
     ["analyze", "--graph", "{graph}", "-n", "3", "--format", "table"],
     b"graph V:1,2,3,4,5;E:a:1:2;E:b:2:3;E:c:3:1;E:d:4:5 n=3\n"
     b"  split=[0, 3] trivial=True Z=False hyp=True toralRH=True acyl=trivial"
     b" free=free F2=False F2xZ=False\n"
     b"  split=[1, 2] trivial=False Z=True hyp=True toralRH=True"
     b" acyl=infinite_cyclic free=free F2=False F2xZ=False\n"
     b"  split=[2, 1] trivial=False Z=True hyp=True toralRH=True"
     b" acyl=infinite_cyclic free=free F2=False F2xZ=False\n"
     b"  split=[3, 0] trivial=False Z=True hyp=True toralRH=True"
     b" acyl=infinite_cyclic free=free F2=False F2xZ=False\n"
     b"  oracle: oracles skipped\n"),
    ("bowtie-relhyp", "bowtie", "1,2,3\n",
     ["relhyp-check", "--graph", "{graph}", "--collection", "{collection}",
      "--format", "table"],
     b"cycle_pairs_covered: False\nintersections_ok: True\npaths_ok: True\n"
     b"all_proper: True\ncriterion_applies: False\ncriterion inconclusive\n"),
    ("k4-relhyp", "k4", "1,2,3\n3,4\n",
     ["relhyp-check", "--graph", "{graph}", "--collection", "{collection}",
      "--format", "table"],
     b"cycle_pairs_covered: True\nintersections_ok: True\npaths_ok: True\n"
     b"all_proper: True\ncriterion_applies: True\n"
     b"relatively hyperbolic by the peripheral criterion\n"),
    ("k4-analyze-json", "k4", None,
     ["analyze", "--graph", "{graph}", "-n", "2"],
     b'{"assignments":[{"acyl_status":"acylindrically_hyperbolic",'
     b'"contains_f2":true,"contains_f2xz":false,"free":"unknown",'
     b'"hyperbolic":true,"infinite_cyclic":false,"shapes":["general"],'
     b'"split":[2],"toral_rel_hyp":true,"trivial":false}],"connected":true,'
     b'"fingerprint":"V:1,2,3,4;E:e12:1:2;E:e13:1:3;E:e14:1:4;E:e23:2:3;'
     b'E:e24:2:4;E:e34:3:4","oracle":"oracles ran",'
     b'"oracle_agreement":{"hyperbolic":true,"toral_rel_hyp":true},'
     b'"particles":2,"schema":1}\n'),
    ("two-analyze-json", "two", None,
     ["analyze", "--graph", "{graph}", "-n", "3"],
     b'{"assignments":[{"acyl_status":"trivial","contains_f2":false,'
     b'"contains_f2xz":false,"free":"free","hyperbolic":true,'
     b'"infinite_cyclic":false,"shapes":["cycle","segment"],"split":[0,3],'
     b'"toral_rel_hyp":true,"trivial":true},{"acyl_status":"infinite_cyclic",'
     b'"contains_f2":false,"contains_f2xz":false,"free":"free",'
     b'"hyperbolic":true,"infinite_cyclic":true,"shapes":["cycle","segment"],'
     b'"split":[1,2],"toral_rel_hyp":true,"trivial":false},'
     b'{"acyl_status":"infinite_cyclic","contains_f2":false,'
     b'"contains_f2xz":false,"free":"free","hyperbolic":true,'
     b'"infinite_cyclic":true,"shapes":["cycle","segment"],"split":[2,1],'
     b'"toral_rel_hyp":true,"trivial":false},{"acyl_status":"infinite_cyclic",'
     b'"contains_f2":false,"contains_f2xz":false,"free":"free",'
     b'"hyperbolic":true,"infinite_cyclic":true,"shapes":["cycle","segment"],'
     b'"split":[3,0],"toral_rel_hyp":true,"trivial":false}],"connected":false,'
     b'"fingerprint":"V:1,2,3,4,5;E:a:1:2;E:b:2:3;E:c:3:1;E:d:4:5",'
     b'"oracle":"oracles skipped","particles":3,"schema":1}\n'),
    ("bowtie-relhyp-json", "bowtie", "1,2,3\n",
     ["relhyp-check", "--graph", "{graph}", "--collection", "{collection}"],
     b'{"all_proper":true,"criterion_applies":false,'
     b'"cycle_pairs_covered":false,"intersections_ok":true,"members":1,'
     b'"note":"criterion inconclusive","paths_ok":true,"schema":1,'
     b'"valid":false}\n'),
    ("k4-relhyp-json", "k4", "1,2,3\n3,4\n",
     ["relhyp-check", "--graph", "{graph}", "--collection", "{collection}"],
     b'{"all_proper":true,"criterion_applies":true,"cycle_pairs_covered":true,'
     b'"intersections_ok":true,"members":2,'
     b'"note":"relatively hyperbolic by the peripheral criterion",'
     b'"paths_ok":true,"schema":1,"valid":true}\n'),
    ("k4-word-compare-json", "k4", None,
     ["word", "--graph", "{graph}", "--base", "1,2",
      "--compare", "+e24 +e13", "--", "+e13", "+e24"],
     b'{"equal":true,"legal":true,"length":2,"normal_form":["+e13","+e24"],'
     b'"schema":1,"spherical":false,"terminus":["3","4"]}\n'),
    ("k4-word-cyclic-json", "k4", None,
     ["word", "--graph", "{graph}", "--base", "1,2", "--cyclic",
      "--", "+e24", "+e12", "+e23", "-e13", "-e24"],
     b'{"cyclic_reduction":["+e12","+e23","-e13"],"legal":true,"length":5,'
     b'"normal_form":["+e24","+e12","+e23","-e13","-e24"],"particles":["1"],'
     b'"schema":1,"spherical":true,"support_vertices":["1","2","3"],'
     b'"terminus":["1","2"]}\n'),
    ("k4-word", "k4", None,
     ["word", "--graph", "{graph}", "--base", "1,2", "--format", "table",
      "--", "+e13", "+e24", "-e13", "-e24"],
     b"legal; terminus 1,2; normal form (empty)\n"),
    ("k4-word-compare", "k4", None,
     ["word", "--graph", "{graph}", "--base", "1,2", "--format", "table",
      "--compare", "+e24 +e13", "--", "+e13", "+e24"],
     b"legal; terminus 3,4; normal form +e13 +e24\nequal: True\n"),
    ("complete-table", None, None,
     ["table", "--family", "complete", "--min", "3", "--max", "5",
      "--particles", "2..4", "--format", "table"],
     b"graph       n trivial Z     hyp   toralRH free    acyl\n"
     b"K_3         2 False   True  True  True    free    infinite_cyclic\n"
     b"K_3         3 False   True  True  True    free    infinite_cyclic\n"
     b"K_3         4 False   True  True  True    free    infinite_cyclic\n"
     b"K_4         2 False   False True  True    unknown acylindrically_hyperbolic\n"
     b"K_4         3 False   False False True    unknown acylindrically_hyperbolic\n"
     b"K_4         4 False   False False False   unknown acylindrically_hyperbolic\n"
     b"K_5         2 False   False True  True    unknown acylindrically_hyperbolic\n"
     b"K_5         3 False   False False False   unknown acylindrically_hyperbolic\n"
     b"K_5         4 False   False False False   unknown acylindrically_hyperbolic\n"),
    ("bipartite-json", None, None,
     ["table", "--family", "bipartite", "--min", "2", "--max", "3",
      "--particles", "2..3"],
     b'{"rows":[{"acyl_status":"infinite_cyclic","free":"free","graph":"K_2,2",'
     b'"hyperbolic":true,"infinite_cyclic":true,"n":2,"toral_rel_hyp":true,'
     b'"trivial":false},{"acyl_status":"infinite_cyclic","free":"free",'
     b'"graph":"K_2,2","hyperbolic":true,"infinite_cyclic":true,"n":3,'
     b'"toral_rel_hyp":true,"trivial":false},'
     b'{"acyl_status":"acylindrically_hyperbolic","free":"free","graph":"K_2,3",'
     b'"hyperbolic":true,"infinite_cyclic":false,"n":2,"toral_rel_hyp":true,'
     b'"trivial":false},{"acyl_status":"acylindrically_hyperbolic",'
     b'"free":"unknown","graph":"K_2,3","hyperbolic":true,'
     b'"infinite_cyclic":false,"n":3,"toral_rel_hyp":true,"trivial":false},'
     b'{"acyl_status":"acylindrically_hyperbolic","free":"unknown",'
     b'"graph":"K_3,3","hyperbolic":true,"infinite_cyclic":false,"n":2,'
     b'"toral_rel_hyp":true,"trivial":false},'
     b'{"acyl_status":"acylindrically_hyperbolic","free":"unknown",'
     b'"graph":"K_3,3","hyperbolic":false,"infinite_cyclic":false,"n":3,'
     b'"toral_rel_hyp":false,"trivial":false}],"schema":1}\n'),
    ("bipartite-table", None, None,
     ["table", "--family", "bipartite", "--min", "2", "--max", "3",
      "--particles", "2..3", "--format", "table"],
     b"graph       n trivial Z     hyp   toralRH free    acyl\n"
     b"K_2,2       2 False   True  True  True    free    infinite_cyclic\n"
     b"K_2,2       3 False   True  True  True    free    infinite_cyclic\n"
     b"K_2,3       2 False   False True  True    free    acylindrically_hyperbolic\n"
     b"K_2,3       3 False   False True  True    unknown acylindrically_hyperbolic\n"
     b"K_3,3       2 False   False True  True    unknown acylindrically_hyperbolic\n"
     b"K_3,3       3 False   False False False   unknown acylindrically_hyperbolic\n"),
]


def _golden_argv(tmp_path, name, collection, argv):
    """argv with its input files written to tmp_path."""
    gfile, cfile = tmp_path / "graph.txt", tmp_path / "collection.txt"
    if name is not None:
        gfile.write_text(GOLDEN_TEXT_GRAPHS[name])
    if collection is not None:
        cfile.write_text(collection)
    return [a.format(graph=gfile, collection=cfile) for a in argv]


@pytest.mark.parametrize("name,collection,argv,expected",
                         [c[1:] for c in GOLDEN_TEXT],
                         ids=[c[0] for c in GOLDEN_TEXT])
def test_text_formats_golden_stdout(tmp_path, name, collection, argv,
                                    expected):
    argv = _golden_argv(tmp_path, name, collection, argv)
    proc = subprocess.run([sys.executable, "-m", "braidscope.cli", *argv],
                          capture_output=True)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == expected


GOLDEN_TABLES = [c for c in GOLDEN_TEXT if "--format" in c[3]]


@pytest.mark.parametrize("name,collection,argv,expected",
                         [c[1:] for c in GOLDEN_TABLES],
                         ids=[c[0] for c in GOLDEN_TABLES])
def test_text_format_renders_the_json_of_the_same_argv(tmp_path, capsys, name,
                                                       collection, argv,
                                                       expected):
    # the text is a view of the JSON: the command's renderer, applied to
    # the JSON that the argv without `--format table` prints
    argv = _golden_argv(tmp_path, name, collection, argv)
    at = argv.index("--format")
    assert argv[at + 1] == "table"
    assert main(argv[:at] + argv[at + 2:]) == 0
    data = json.loads(capsys.readouterr().out)
    args = cli.make_parser(argv).parse_args(argv)
    render = importlib.import_module(f"braidscope.commands.{args.handler}").render
    assert (render(data) + "\n").encode() == expected


def _patch_build(monkeypatch, fake):
    # hyperplanes binds complex.build when it is first imported: import it
    # before the patch, or it keeps the fake for the rest of the session
    import braidscope.hyperplanes  # noqa: F401
    monkeypatch.setattr("braidscope.complex.build", fake)


def test_unexpected_exception_exits_4_without_traceback(p3, monkeypatch,
                                                        capsys):
    def broken(g, n, **kwargs):
        raise KeyError("e7")

    _patch_build(monkeypatch, broken)
    rc = main(["build", "--graph", p3, "-n", "2"])
    assert rc == cli.EXIT_INVARIANT == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: KeyError: 'e7'\n"


def test_keyboard_interrupt_still_propagates(p3, monkeypatch):
    def interrupted(g, n, **kwargs):
        raise KeyboardInterrupt

    _patch_build(monkeypatch, interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["build", "--graph", p3, "-n", "2"])


class HungUpStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


# argv (P3 stands for the path graph's file), a patch, and the outcome:
# an exit code or the exception main lets out
EXITS = {
    "exit-0": (["build", "--graph", "P3", "-n", "1"], None, 0),
    "exit-1": (["analyze", "--graph", "/no/such/file", "-n", "2"], None, 1),
    "exit-2": (["word", "--graph", "P3", "--base", "1,3", "+e9"], None, 2),
    "exit-3": (["build", "--graph", "P3", "-n", "1", "--max-cells", "1"], None, 3),
    "exit-4": (["build", "--graph", "P3", "-n", "1"],
               ("braidscope.complex.build", _raise(KeyError("e7"))), 4),
    "help": (["--help"], None, SystemExit),
    "usage-error": (["build", "--graph", "P3"], None, SystemExit),
    "table-unknown-family": (["table", "--family", "wheel", "--max", "3"],
                             None, SystemExit),
    "closed-stdout": (["build", "--graph", "P3", "-n", "1"], "stdout", 0),
    "interrupt": (["build", "--graph", "P3", "-n", "1"],
                  ("braidscope.complex.build", _raise(KeyboardInterrupt)),
                  KeyboardInterrupt),
    "negative-particles": (["analyze", "--graph", "P3", "-n", "-1"], None, 2),
    "negative-max-dim": (["build", "--graph", "P3", "-n", "1", "--max-dim", "-1"],
                         None, 2),
    "table-negative-particles": (["table", "--family", "complete", "--max", "3",
                                  "--particles", "-1"], None, 2),
    "table-min-0": (["table", "--family", "complete", "--min", "0", "--max", "3",
                     "--particles", "2"], None, 2),
    "subdivide-zero-particles": (["build", "--graph", "P3", "-n", "0",
                                  "--subdivide"], None, 0),
    "subdivide-negative-particles": (["homology", "--graph", "P3", "-n", "-1",
                                      "--subdivide"], None, 2),
    "dot-coloring-negative-particles": (["build", "--graph", "P3", "-n", "-1",
                                         "--format", "dot", "--dot-what",
                                         "coloring"], None, 2),
    "dot-coloring-negative-max-dim": (["build", "--graph", "P3", "-n", "1",
                                       "--max-dim", "-1", "--format", "dot",
                                       "--dot-what", "coloring"], None, 2),
    # a cap below the one edge pair: the counts are refused first
    "dot-coloring-negative-particles-over-cap": (
        ["build", "--graph", "P3", "-n", "-1", "--max-cells", "0",
         "--format", "dot", "--dot-what", "coloring"], None, 2),
    "dot-coloring-negative-max-dim-over-cap": (
        ["build", "--graph", "P3", "-n", "1", "--max-dim", "-1",
         "--max-cells", "0", "--format", "dot", "--dot-what", "coloring"],
        None, 2),
    "homology-negative-max-cells": (["homology", "--graph", "P3", "-n", "1",
                                     "--max-cells", "-5"], None, 2),
    "build-negative-max-cells": (["build", "--graph", "P3", "-n", "1",
                                  "--max-cells", "-5"], None, 2),
    "dot-coloring-negative-max-cells": (["build", "--graph", "P3", "-n", "1",
                                         "--format", "dot", "--dot-what",
                                         "coloring", "--max-cells", "-5"],
                                        None, 2),
}

# the message of each refusal of a negative or zero count
REFUSALS = {
    "negative-particles": "particle count must be >= 0",
    "negative-max-dim": "max_dim must be >= 0",
    "table-negative-particles": "particle count must be >= 0",
    "table-min-0": "--min must be >= 1",
    "subdivide-negative-particles": "particle count must be >= 0",
    "dot-coloring-negative-particles": "particle count must be >= 0",
    "dot-coloring-negative-max-dim": "max_dim must be >= 0",
    "dot-coloring-negative-particles-over-cap": "particle count must be >= 0",
    "dot-coloring-negative-max-dim-over-cap": "max_dim must be >= 0",
    "homology-negative-max-cells": "cell cap must be >= 0",
    "build-negative-max-cells": "cell cap must be >= 0",
    "dot-coloring-negative-max-cells": "cell cap must be >= 0",
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_negative_counts_are_refused(p3, capsys, case):
    argv = [p3 if a == "P3" else a for a in EXITS[case][0]]
    assert main(argv) == cli.EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"precondition violation: {REFUSALS[case]}\n"


@pytest.mark.parametrize("collecting", (True, False), ids=("gc-on", "gc-off"))
@pytest.mark.parametrize("case", sorted(EXITS))
def test_main_restores_the_collector_on_every_exit(p3, tmp_path, monkeypatch,
                                                   case, collecting):
    argv, patch, outcome = EXITS[case]
    argv = [p3 if a == "P3" else a for a in argv]
    out = open(tmp_path / "out", "w")
    if patch == "stdout":
        monkeypatch.setattr(sys, "stdout", HungUpStdout(out.fileno()))
    elif patch is not None:
        monkeypatch.setattr(*patch)
    was_on = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is collecting
        assert gc.get_freeze_count() == 0   # run() freezes, main() never
    finally:
        (gc.enable if was_on else gc.disable)()
        out.close()


@pytest.mark.parametrize("case", sorted(EXITS))
def test_run_freezes_on_every_exit(p3, tmp_path, monkeypatch, case):
    argv, patch, outcome = EXITS[case]
    monkeypatch.setattr(sys, "argv",
                        ["braidscope", *(p3 if a == "P3" else a for a in argv)])
    out = open(tmp_path / "out", "w")
    if patch == "stdout":
        monkeypatch.setattr(sys, "stdout", HungUpStdout(out.fileno()))
    elif patch is not None:
        monkeypatch.setattr(*patch)
    raised = SystemExit if isinstance(outcome, int) else outcome
    try:
        with pytest.raises(raised) as exc:
            cli.run()
        if isinstance(outcome, int):
            assert exc.value.code == outcome
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        out.close()


# the exit code of a process whose main raises SystemExit
SYSTEM_EXIT_CODES = {"help": 0, "usage-error": 2, "table-unknown-family": 2}


@pytest.mark.parametrize("case", sorted(case for case, (_, patch, _) in
                                        EXITS.items() if patch is None))
def test_process_ends_as_main_returns(p3, monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", "80")    # help wraps at the same width
    argv = [p3 if a == "P3" else a for a in EXITS[case][0]]
    proc = subprocess.run([sys.executable, "-m", "braidscope.cli", *argv],
                          capture_output=True)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert proc.returncode == code == SYSTEM_EXIT_CODES.get(case, EXITS[case][2])
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()


def test_process_exit_runs_atexit_handlers(p3):
    # the frozen objects are skipped by the final collection only; the
    # interpreter still runs atexit handlers and flushes stdio
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print('atexit ran', file=sys.stderr))\n"
        f"sys.argv = ['braidscope', 'build', '--graph', {p3!r}, '-n', '1']\n"
        "runpy.run_module('braidscope.cli', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["f_vector"] == [3, 2]
    assert proc.stderr == "atexit ran\n"


def test_argparse_cycles_are_freed_before_the_work(p3):
    # with the collector paused, the HelpFormatter cycles that make_parser
    # leaves would stay allocated through the work
    was_on = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build", "--graph", p3, "-n", "1"]) == 0
        assert [o for o in gc.get_objects()
                if isinstance(o, argparse.HelpFormatter)] == []
    finally:
        (gc.enable if was_on else gc.disable)()


# Runs argv and prints its peak RSS in kB (Linux).  A child inherits the
# RSS high-water mark of the process that forks it, so a small process
# forks it here, not the test run.
PEAK_RSS = ("import os, subprocess, sys\n"
            "pid = subprocess.Popen(sys.argv[1:]).pid\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "print(usage.ru_maxrss)\n"
            "sys.exit(os.waitstatus_to_exitcode(status))\n")


def test_long_path_one_particle_refused_fast(tmp_path):
    # 20,001 edges: one 1-cube per edge, one over the Smith-form cap; the
    # refusal must not wait on a scan of the free vertices per edge, nor
    # index the graph's 20,002 vertices as 20,002-bit masks first
    gfile = tmp_path / "path.txt"
    gfile.write_text("".join(f"e e{i} {i} {i + 1}\n" for i in range(1, 20002)))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "braidscope.cli",
         "homology", "--graph", str(gfile), "-n", "1"],
        capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 3 and proc.stdout.strip().isdigit()
    assert proc.stderr == (
        "resource limit: 20001 columns exceed Smith-form cap 20000\n")
    assert elapsed < 5
    assert int(proc.stdout) <= 50 * 1024


def test_long_path_two_particles_analyzed_fast(tmp_path):
    # smoothing and the cycle search are linear on a graph with no cycle
    gfile = tmp_path / "path.txt"
    gfile.write_text("".join(f"e e{i} {i} {i + 1}\n" for i in range(1, 4001)))
    t0 = time.monotonic()
    rc, out, _ = run_cli(["analyze", "--graph", str(gfile), "-n", "2"])
    assert rc == 0 and json.loads(out)["assignments"][0]["shapes"] == ["segment"]
    assert time.monotonic() - t0 < 5


def test_long_path_one_particle_built_fast(tmp_path, capsys):
    # one hyperplane per edge, read off one build of UC_0 rather than one
    # build per edge of its closed-edge complement
    gfile = tmp_path / "path.txt"
    gfile.write_text("".join(f"e e{i} {i} {i + 1}\n" for i in range(1, 1001)))
    t0 = time.monotonic()
    assert main(["build", "--graph", str(gfile), "-n", "1"]) == 0
    elapsed = time.monotonic() - t0
    assert json.loads(capsys.readouterr().out) == {
        "components": 1, "euler_characteristic": 1, "f_vector": [1001, 1000],
        "hyperplanes": 1000,
        "hyperplanes_per_color": {f"e{i}": 1 for i in range(1, 1001)},
        "npc": True, "schema": 1}
    assert elapsed < 0.5


def one_point_stdout(command: str, n: int) -> str:
    """stdout of `homology` or `build` on a complex that is one point,
    reported up to dimension n."""
    if command == "homology":
        return ('{"euler_characteristic":1,"free_ranks":['
                + ",".join(["1"] + ["0"] * n) + '],"groups":['
                + ",".join(['"Z"'] + ['"0"'] * n) + '],"schema":1,"torsion":['
                + ",".join(["[]"] * (n + 1)) + "]}\n")
    return ('{"components":1,"euler_characteristic":1,"f_vector":['
            + ",".join(["1"] + ["0"] * n) + '],"hyperplanes":0,'
            '"hyperplanes_per_color":{},"npc":true,"schema":1}\n')


@pytest.mark.parametrize("n,command", [
    (n, command) for n in (20, 25, 50) for command in ("build", "homology")
] + [(2000, "homology")])
def test_particles_filling_a_path_end_fast(p3, command, n):
    # after subdivide_for the path has exactly n vertices, so UC_n is one
    # point; build must not walk the path's Fibonacci-many matchings, and
    # the f-vector keeps its n trailing zeros.  At n = 2000 subdivide_for
    # must add the 1,997 vertices in one rebuild of the graph, not one
    # each, and must not search the path for cycles
    t0 = time.monotonic()
    rc, out, err = run_cli([command, "--subdivide", "--graph", p3,
                            "-n", str(n)], timeout=10)
    assert (rc, out, err) == (0, one_point_stdout(command, n), "")
    assert time.monotonic() - t0 < 1


def test_build_filling_a_long_path_ends_fast(p3):
    # the hyperplane search runs once per edge of the 2,000-vertex path,
    # over the 2,000 configurations of UC_1999 numbered once, not hashed
    # as 2,000-bit masks in every search
    t0 = time.monotonic()
    rc, out, err = run_cli(["build", "--subdivide", "--graph", p3,
                            "-n", "2000"], timeout=30)
    assert (rc, out, err) == (0, one_point_stdout("build", 2000), "")
    assert time.monotonic() - t0 < 5


def test_subdivide_refuses_a_long_theta_fast(tmp_path):
    # the theta lacks 497 vertices and then needs 499 edges on each of
    # its three branches: all added at once, before the configuration
    # cap refuses UC_500
    gfile = tmp_path / "theta.txt"
    gfile.write_text("e a u w\ne b u x\ne c x w\ne d u w\n")
    t0 = time.monotonic()
    rc, out, err = run_cli(["homology", "--subdivide", "--graph", str(gfile),
                            "-n", "500"], timeout=30)
    assert rc == 3 and out == "" and err.startswith("resource limit: ")
    assert err.endswith(" configurations exceed cap 10000000\n")
    assert time.monotonic() - t0 < 1


def test_hyperplane_routes_that_disagree_exit_4(tmp_path, monkeypatch,
                                               capsys):
    from braidscope import hyperplanes
    real = hyperplanes._parallel_classes

    def splits_one_class(x):
        """The square route with one class of color e12 cut in two."""
        classes = real(x)
        i = next(i for i, members in enumerate(classes)
                 if x.index.edge[members[0][0]].id == "e12")
        members = classes[i]
        return classes[:i] + [members[:1], members[1:]] + classes[i + 1:]

    monkeypatch.setattr(hyperplanes, "_parallel_classes", splits_one_class)
    gfile = tmp_path / "k4.txt"
    gfile.write_text(GOLDEN_GRAPHS["k4"])
    rc = main(["build", "--subdivide", "--graph", str(gfile), "-n", "2"])
    assert rc == cli.EXIT_INVARIANT == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal check failed: hyperplane routes "
                            "disagree on color e12: 1 by components, "
                            "2 by squares\n")


@pytest.mark.parametrize("argv", [
    ["homology", "--graph", "P3", "-n", str(10**20), "--subdivide"],
    ["build", "--graph", "P3", "-n", str(10**20), "--subdivide"],
    ["table", "--family", "bipartite", "--max", "100000", "--particles", "2"],
    ["table", "--family", "complete", "--max", "100000", "--particles", "1"],
])
def test_unbounded_sizes_are_refused_before_the_work(p3, argv):
    argv = [p3 if a == "P3" else a for a in argv]
    t0 = time.monotonic()
    rc, out, err = run_cli(argv)
    assert rc == 3 and out == "" and err.startswith("resource limit: ")
    assert time.monotonic() - t0 < 5


def test_table_max_cap_is_inclusive(capsys):
    assert main(["table", "--family", "complete", "--max",
                 str(table_command.MAX_FAMILY_SIZE), "--min", str(table_command.MAX_FAMILY_SIZE),
                 "--particles", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 1
    assert main(["table", "--family", "complete", "--max",
                 str(table_command.MAX_FAMILY_SIZE + 1), "--particles", "1"]) == 3


def test_analyze_has_no_cell_cap_flag(k5):
    # analyze builds no complex; build and homology keep --max-cells
    rc, _, err = run_cli(["analyze", "--graph", k5, "-n", "2",
                          "--max-cells", "3"])
    assert rc == 2 and "unrecognized arguments: --max-cells" in err


def test_subdivide_gives_each_component_its_own_room(tmp_path, capsys):
    # K_2 plus a disjoint triangle at n=3: four splits (3+0, 2+1, 1+2,
    # 0+3), so UConf_3 has four components, and chi = 1 by Gal's series
    gfile = tmp_path / "k2k3.txt"
    gfile.write_text("e a x y\ne b p q\ne c q r\ne d r p\n")
    assert main(["homology", "--graph", str(gfile), "-n", "3",
                 "--subdivide"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["groups"][:2] == ["Z^4", "Z^3"]
    assert data["euler_characteristic"] == 1
    assert main(["analyze", "--graph", str(gfile), "-n", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["assignments"]) == 4


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # the DOT skeleton of a 5000-edge path is about 240 kB, more than a
    # pipe holds, so the write is still going when the reader hangs up
    gfile = tmp_path / "path.txt"
    gfile.write_text("".join(f"e e{i} {i} {i + 1}\n" for i in range(1, 5001)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidscope.cli", "build", "--graph",
         str(gfile), "-n", "1", "--format", "dot"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b"graph skeleton {")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_dot_coloring_of_a_long_path_is_refused_before_the_work(tmp_path):
    # the coloring graph compares every pair of edges: C(5000, 2) = 12,497,500
    # pairs exceed the default cell cap of 10^7
    gfile = tmp_path / "path.txt"
    gfile.write_text("".join(f"e e{i} {i} {i + 1}\n" for i in range(1, 5001)))
    t0 = time.monotonic()
    rc, out, err = run_cli(["build", "--graph", str(gfile), "-n", "1",
                            "--format", "dot", "--dot-what", "coloring"])
    assert time.monotonic() - t0 < 2
    assert rc == 3 and out == ""
    assert err == "resource limit: 12497500 edge pairs exceed cap 10000000\n"
    # the cap is the cell cap, so --max-cells moves it
    rc, out, _ = run_cli(["build", "--graph", str(gfile), "-n", "1",
                          "--format", "dot", "--dot-what", "coloring",
                          "--max-cells", "1000"])
    assert rc == 3 and out == ""


def test_dot_coloring_of_a_long_path_is_written_as_found(tmp_path):
    # 1,500 edges, 1,122,751 disjoint pairs: writing each edge's pairs
    # as they are found keeps the peak near the interpreter's own, where
    # building every pair line first peaked at 423 MB
    gfile = tmp_path / "path.txt"
    gfile.write_text("".join(f"e e{i} {i} {i + 1}\n" for i in range(1, 1501)))
    out = tmp_path / "out.dot"
    with open(out, "wb") as fh:   # the DOT text, then the peak RSS line
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, sys.executable, "-m",
             "braidscope.cli", "build", "--graph", str(gfile), "-n", "1",
             "--format", "dot", "--dot-what", "coloring"],
            stdout=fh, stderr=subprocess.PIPE)
    assert proc.returncode == 0 and proc.stderr == b""
    data = out.read_bytes()
    dot, peak = data[:data.rindex(b"}\n") + 2], data[data.rindex(b"}\n") + 2:]
    # the nodes, then the pairs, in string order of ids (23 MB)
    assert len(dot) == 23_058_752
    assert hashlib.sha256(dot).hexdigest() == (
        "b81b7eda781b7dff29a84e30a560e3f3d0d4056cf10912d2ab602bca955dc386")
    assert int(peak) <= 60 * 1024


def test_dot_coloring_of_k4_is_unchanged(tmp_path):
    gfile = tmp_path / "k4.txt"
    gfile.write_text(GOLDEN_GRAPHS["k4"])
    proc = subprocess.run(
        [sys.executable, "-m", "braidscope.cli", "build", "--graph",
         str(gfile), "-n", "2", "--format", "dot", "--dot-what", "coloring"],
        capture_output=True)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (
        b'graph coloring {\n  "e12";\n  "e13";\n  "e14";\n  "e23";\n'
        b'  "e24";\n  "e34";\n  "e12" -- "e34";\n  "e13" -- "e24";\n'
        b'  "e14" -- "e23";\n}\n')


def test_dot_coloring_builds_no_complex(tmp_path):
    # K_{4,4} subdivided for 4 particles: the coloring graph of its 40
    # edges is 30 KB, where building UC_4 first took 1.3 s and 265 MB
    gfile = tmp_path / "k44.txt"
    gfile.write_text("".join(f"e e{i}{j} a{i} b{j}\n"
                             for i in range(1, 5) for j in range(1, 5)))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "braidscope.cli",
         "build", "--subdivide", "--graph", str(gfile), "-n", "4",
         "--format", "dot", "--dot-what", "coloring"],
        capture_output=True)
    assert time.monotonic() - t0 < 2
    assert proc.returncode == 0 and proc.stderr == b""
    data = proc.stdout
    dot, peak = data[:data.rindex(b"}\n") + 2], data[data.rindex(b"}\n") + 2:]
    assert len(dot) == 30_067
    assert hashlib.sha256(dot).hexdigest() == (
        "ea961d3e94a4ea5c0de8dda23edf630c739ce98269c2b8c7cb72e97308e8fb14")
    assert int(peak) <= 60 * 1024


def test_dot_coloring_answers_for_any_particle_count(p3, capsys):
    # the coloring graph does not depend on n, so counts that UC_n refuses
    # (more particles than vertices, more configurations than the cap)
    # still get it
    expected = 'graph coloring {\n  "e1";\n  "e2";\n}\n'
    for n in ("0", "1", "3", "4", "400"):
        assert main(["build", "--graph", p3, "-n", n, "--max-cells", "2",
                     "--format", "dot", "--dot-what", "coloring"]) == 0
        assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("command", ["build", "homology"])
@pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
def test_subdivide_for_no_particles_changes_nothing(tmp_path, capsys, command,
                                                     name):
    gfile = tmp_path / "g.txt"
    gfile.write_text(GOLDEN_GRAPHS[name])
    argv = [command, "--graph", str(gfile), "-n", "0"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--subdivide"]) == 0
    assert capsys.readouterr() == plain and plain.err == ""


def test_word_cyclic_on_a_long_rose_conjugate(tmp_path):
    # a^1600 b a^-1600 on the rose with two triangle petals, one particle
    # at the centre: 9,603 tokens, piled once and stripped 1,600 times
    # (24.6 s when each strip rescanned and re-piled the word)
    gfile = tmp_path / "rose.txt"
    gfile.write_text("e p1e1 c p1v1\ne p1e2 p1v1 p1v2\ne p1e3 p1v2 c\n"
                     "e p2e1 c p2v1\ne p2e2 p2v1 p2v2\ne p2e3 p2v2 c\n")
    a, b = ["+p1e1", "+p1e2", "+p1e3"], ["+p2e1", "+p2e2", "+p2e3"]
    tokens = a * 1600 + b + ["-p1e3", "-p1e2", "-p1e1"] * 1600
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "braidscope.cli", "word", "--graph", str(gfile),
         "--base", "c", "--cyclic", "--", *tokens], capture_output=True)
    assert time.monotonic() - t0 < 5
    assert proc.returncode == 0 and proc.stderr == b""
    expected = json.dumps({
        "cyclic_reduction": b, "legal": True, "length": len(tokens),
        "normal_form": tokens, "particles": ["c"], "schema": 1,
        "spherical": True, "support_vertices": ["c", "p2v1", "p2v2"],
        "terminus": ["c"]}, sort_keys=True, separators=(",", ":")) + "\n"
    assert proc.stdout == expected.encode()
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "3c55cf0f73d38e5b6d9f45026430c2b88da8015e46e5177bd7fbd7f45a2c983d")


def test_process_writes_all_of_a_large_stdout(tmp_path, capsys):
    # the DOT skeleton of test_closed_stdout_pipe_exits_quietly, read to
    # the end: every byte is flushed before the process exits
    gfile = tmp_path / "path.txt"
    gfile.write_text("".join(f"e e{i} {i} {i + 1}\n" for i in range(1, 5001)))
    argv = ["build", "--graph", str(gfile), "-n", "1", "--format", "dot"]
    proc = subprocess.run([sys.executable, "-m", "braidscope.cli", *argv],
                          capture_output=True, timeout=60)
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert proc.returncode == 0 and proc.stderr == b""
    assert len(expected) > 200_000
    assert proc.stdout == expected


FUZZ_IDS = ("a", "b", "9", "10", "v7")
MALFORMED = ("e e1 a", "v a-b", "x", "e e0 a b c", "v")


@st.composite
def graph_files(draw):
    """Up to 5 vertices and 6 edges, loops, parallel edges and isolated
    vertices allowed, now and then one malformed line."""
    names = draw(st.lists(st.sampled_from(FUZZ_IDS), min_size=1, max_size=5,
                          unique=True))
    ends = draw(st.lists(st.tuples(st.sampled_from(names),
                                   st.sampled_from(names)), max_size=6))
    lines = [f"v {v}" for v in names]
    lines += [f"e e{i} {u} {v}" for i, (u, v) in enumerate(ends)]
    if draw(st.integers(0, 7)) == 0:
        lines.append(draw(st.sampled_from(MALFORMED)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.txt"


@settings(max_examples=120, deadline=None)
@given(text=graph_files(), n=st.integers(0, 3))
def test_cli_on_random_graph_files_ends_in_a_documented_code(fuzz_file,
                                                             text, n):
    fuzz_file.write_text(text)
    common = ["--graph", str(fuzz_file), "-n", str(n)]
    for argv in (["analyze"] + common, ["build"] + common,
                 ["build", "--subdivide"] + common, ["homology"] + common,
                 ["homology", "--subdivide"] + common):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2, 3), (argv, text, err.getvalue())
        assert (rc == 0) == bool(out.getvalue()), (argv, text)


def _exit_code(argv):
    """Exit code, stdout and stderr of one in-process run of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:   # argparse refusals
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


RANGE_TEXT = st.one_of(
    st.text(alphabet="0123456789.-+ _xé٣", max_size=9),
    st.builds("{}..{}".format, st.integers(-3, 10**30), st.integers(-3, 10**30)),
    st.integers(-3, 10**30).map(str))


@settings(max_examples=150, deadline=None)
@given(text=RANGE_TEXT)
@example(text="--")   # argparse before 3.12 turns "--particles=--" into []
def test_table_particle_ranges_end_in_a_documented_code(text):
    rc, out, err = _exit_code(["table", "--family", "complete", "--max", "3",
                               f"--particles={text}"])
    assert rc in (0, 1, 2, 3), (text, err)
    assert "internal error" not in err and "Traceback" not in err, (text, err)
    if rc == 0:
        assert len(json.loads(out)["rows"]) == 3 * len(
            table_command.parse_particle_range(text))


def test_table_particle_range_errors():
    for text, code, message in [("abc", 1, "parse error: bad particle range"),
                                ("2...3", 1, "parse error"),
                                ("0..100", 3, "resource limit: 101 particle counts"),
                                ("10**9", 1, "parse error")]:
        rc, out, err = _exit_code(["table", "--family", "complete",
                                   "--max", "3", f"--particles={text}"])
        assert (rc, out) == (code, "") and err.startswith(message), text
    # one component, any count: no pool of n slots is built first
    rc, out, _ = _exit_code(["table", "--family", "complete", "--max", "2",
                             "--particles", str(10**20)])
    assert rc == 0 and [r["n"] for r in json.loads(out)["rows"]] == [10**20] * 2


WORD_VERTICES = ("1", "2", "3", "4", "9", "")
WORD_TOKENS = st.one_of(
    st.builds("{}{}".format, st.sampled_from("+-"),
              st.sampled_from(("a", "b", "c", "d", "x", "a#", ""))),
    st.sampled_from(("a", "++a", "+-b", "", " ", "+a +b")))


@pytest.fixture(scope="module")
def triangle_with_tail(tmp_path_factory):
    f = tmp_path_factory.mktemp("word") / "g.txt"
    f.write_text("e a 1 2\ne b 2 3\ne c 3 1\ne d 3 4\n")
    return str(f)


@settings(max_examples=150, deadline=None)
@given(base=st.lists(st.sampled_from(WORD_VERTICES), min_size=1, max_size=3),
       tokens=st.lists(WORD_TOKENS, max_size=8),
       compare=st.one_of(st.none(), st.lists(WORD_TOKENS, max_size=4)),
       cyclic=st.booleans())
def test_word_tokens_end_in_a_documented_code(triangle_with_tail, base, tokens,
                                              compare, cyclic):
    argv = ["word", "--graph", triangle_with_tail, "--base", ",".join(base)]
    if compare is not None:
        argv.append("--compare=" + " ".join(compare))
    if cyclic:
        argv.append("--cyclic")
    rc, out, err = _exit_code(argv + ["--"] + tokens)
    assert rc in (0, 1, 2, 3), (argv, tokens, err)
    assert "internal error" not in err and "Traceback" not in err, err
    if rc == 0:
        # a legal word moves as many particles as the base holds
        assert len(json.loads(out)["terminus"]) == len(base)


def test_word_base_must_be_distinct_known_vertices(triangle_with_tail):
    for base in ("1,1", "1,9", "1,3,"):
        rc, out, err = _exit_code(["word", "--graph", triangle_with_tail,
                                   "--base", base, "+a"])
        assert (rc, out) == (2, "") and "distinct vertices" in err, base


COLLECTION_PIECES = FUZZ_IDS + ("zz", "", ";", ",", " ", ";;", ",,", "\n",
                                "# c", "#;,")


@pytest.fixture(scope="module")
def collection_file(tmp_path_factory):
    return tmp_path_factory.mktemp("relhyp") / "c.txt"


@settings(max_examples=150, deadline=None)
@given(graph=graph_files(),
       collection=st.lists(st.sampled_from(COLLECTION_PIECES),
                           max_size=16).map("".join),
       from_stdin=st.booleans())
def test_relhyp_collections_end_in_a_documented_code(fuzz_file, collection_file,
                                                     graph, collection,
                                                     from_stdin):
    # unknown ids, empty groups and lines, stray separators, comments
    fuzz_file.write_text(graph)
    collection_file.write_text(collection)
    argv = ["relhyp-check", "--graph", str(fuzz_file), "--collection",
            "-" if from_stdin else str(collection_file)]
    stdin, sys.stdin = sys.stdin, io.StringIO(collection)
    try:
        rc, out, err = _exit_code(argv)
    finally:
        sys.stdin = stdin
    assert rc in (0, 1, 2, 3), (graph, collection, err)
    assert "internal error" not in err and "Traceback" not in err, err
    assert (rc == 0) == bool(out), (graph, collection)
