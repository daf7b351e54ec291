"""The tracer rebinds every name, changes no output and counts exactly."""

import importlib
import os
import subprocess
import sys

import graphs as G
import tracer as T
from conftest import ROOT


def _write(tmp_path, spec):
    path = tmp_path / f"{spec.name}.txt"
    path.write_text(G.graph_text(spec, 7))
    return str(path)


def _untraced(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "braidscope.cli"] + argv,
                          env=env, capture_output=True, check=False)
    return [proc.returncode, proc.stdout]


def test_every_binding_is_wrapped_and_restored():
    classifier = importlib.import_module("braidscope.classifier")
    homology = importlib.import_module("braidscope.homology")
    cli = importlib.import_module("braidscope.cli")
    hyperplanes = importlib.import_module("braidscope.hyperplanes")
    original = homology.smith_invariants
    with T.Tracer():
        for fn in (classifier.simple_cycles, cli.build, hyperplanes.build,
                   homology.smith_invariants, cli.chain_complex,
                   classifier.SubgraphOracle.f2xz):
            assert hasattr(fn, "__wrapped__"), fn
    assert homology.smith_invariants is original
    assert not hasattr(cli.build, "__wrapped__")


def test_traced_stdout_is_byte_identical(tmp_path):
    theta = _write(tmp_path, G.theta(2, 2, 2))
    k5 = _write(tmp_path, G.complete(5))
    ten = _write(tmp_path, G.union("two", [G.complete(3), G.star(3)]))
    argvs = [["analyze", "--graph", theta, "-n", "3", "--oracle", "auto"],
             ["analyze", "--graph", ten, "-n", "2"],
             ["build", "--graph", k5, "-n", "2", "--subdivide"],
             ["homology", "--graph", k5, "-n", "2", "--subdivide"],
             ["table", "--family", "complete", "--max", "4", "--particles", "2..3"],
             ["build", "--graph", k5, "-n", "9"]]          # exits 2
    with T.Tracer() as tr:
        traced = T.replay(tr, argvs)
    for argv, (code, text) in zip(argvs, traced):
        assert [code, text.encode("utf-8")] == _untraced(argv), argv
    assert traced[-1][0] == 2


def test_counts_are_exact(tmp_path):
    k9 = _write(tmp_path, G.complete(9))
    with T.Tracer() as tr:
        T.replay(tr, [["analyze", "--graph", k9, "-n", "3"]])
    m = T.layer_metrics(tr.spans, tr.counts)
    assert m["graph.simple_cycles.calls"] == 4
    assert m["graph.simple_cycles.cycles"] == 4 * 62814
    assert m["classifier.contains_f2xz.calls"] == 3
    assert m["complex.build.calls"] == 0 and m["homology.smith_invariants.s"] == 0.0
    assert m["classifier.oracle.s"] > 0 and m["cli.load_graph.s"] > 0


def test_self_time_subtracts_direct_children():
    spans = [["graph.smooth", 0.0, 10.0, None, 0],
             ["graph.normalize", 2.0, 5.0, 0, 0],
             ["complex.build", 3.0, 4.0, 1, 0],
             ["graph.normalize", 6.0, 7.0, 0, 0]]
    m = T.layer_metrics(spans, {})
    assert m["graph.smooth.s"] == 10.0 - 3.0 - 1.0
    assert m["graph.normalize.s"] == (3.0 - 1.0) + 1.0
    assert m["complex.build.s"] == 1.0
    assert m["graph.simple_cycles.s"] == 0.0
