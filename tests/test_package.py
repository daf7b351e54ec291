"""Package-wide rules that no single module's tests would catch."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import braidscope

SRC = pathlib.Path(braidscope.__file__).parent


def _absolute_imports():
    """(file name, module) of every absolute import in the package, at
    module level or inside a function."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                yield path.name, node.module


def test_runtime_imports_only_the_standard_library():
    outside = [(name, module) for name, module in _absolute_imports()
               if module.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast and dis, and each
    # decorated class execs its generated methods: about 18 ms of
    # start-up per analyze run
    assert [(name, module) for name, module in _absolute_imports()
            if module.split(".")[0] == "dataclasses"] == []


# every name the package exported when it imported all its submodules
EXPORTS = {
    "errors": ("BraidscopeError IllegalMoveError InvariantError ParseError "
               "PreconditionError ResourceLimitError"),
    "graph": ("Cycle Graph Shape Subgraph classify_shape first_betti "
              "normalize simple_cycles smooth subdivide_for"),
    "complex": "CubeComplex build euler_characteristic is_surface verify_npc",
    "hyperplanes": ("Hyperplane coloring_graph hyperplanes_by_bfs "
                    "hyperplanes_by_components verify_special_coloring"),
    "diagrams": ("CoverBall Diagram LegalWord SupportData ball_oracle "
                 "check_legal concat cyclic_centralizer_witness "
                 "cyclically_reduce diagram equal inverse make_rotation "
                 "make_tripod_swap reduce_word"),
    "homology": "ChainComplex HomologySummary chain_complex",
    "classifier": ("ClassificationReport ParticleAssignment PeripheralReport "
                   "acyl_hyp_status check_peripheral_collection contains_f2xz "
                   "contains_free_nonabelian free_certificate full_report "
                   "is_hyperbolic is_infinite_cyclic is_toral_rel_hyp "
                   "is_trivial oracle_f2xz oracle_nonhyperbolic"),
}


def test_lazy_names_resolve_to_their_submodule_objects(monkeypatch):
    listed = set(dir(braidscope))
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"braidscope.{module}")
        assert getattr(braidscope, module) is sub
        for name in names.split():
            assert getattr(braidscope, name) is getattr(sub, name), name
            assert name in listed, name
    assert {"__version__", "JSON_SCHEMA_VERSION"} <= listed
    # looked up on each access, so a name rebound in its submodule shows
    assert "Graph" not in vars(braidscope) and "full_report" not in vars(braidscope)
    # a submodule not yet bound in the package loads on first access too
    monkeypatch.delattr(braidscope, "diagrams")
    assert braidscope.diagrams is sys.modules["braidscope.diagrams"]
    with pytest.raises(AttributeError, match="no_such_name"):
        braidscope.no_such_name
    with pytest.raises(ImportError):
        exec("from braidscope import no_such_name", {})


STARTUP = """\
import contextlib, io, sys
if sys.argv[1:]:
    from braidscope import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
else:
    import braidscope
print(" ".join(sorted(m for m in sys.modules if m.startswith("braidscope."))))
print(" ".join(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""
BASE = "cli complex errors graph homology"


@pytest.mark.parametrize("argv, loaded", [
    ([], "errors"),
    (["homology", "--graph", "G", "-n", "2"], BASE),
    (["build", "--graph", "G", "-n", "2"], BASE + " hyperplanes"),
    (["build", "--graph", "G", "-n", "2", "--format", "dot",
      "--dot-what", "coloring"], BASE + " hyperplanes"),
    (["analyze", "--graph", "G", "-n", "2"], BASE + " classifier"),
    (["relhyp-check", "--graph", "G", "--collection", "C"], BASE + " classifier"),
    (["table", "--family", "complete", "--max", "3", "--particles", "2"],
     BASE + " classifier families"),
    (["word", "--graph", "G", "--base", "1,3", "+d"], BASE + " diagrams"),
], ids=("import", "homology", "build", "build-dot-coloring", "analyze",
        "relhyp-check", "table", "word"))
def test_each_subcommand_imports_only_what_it_uses(tmp_path, argv, loaded):
    graph = tmp_path / "g.txt"
    graph.write_text("e a 1 2\ne b 2 3\ne c 3 1\ne d 3 4\n")
    collection = tmp_path / "c.txt"
    collection.write_text("1,2;3\n")
    argv = [{"G": str(graph), "C": str(collection)}.get(a, a) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", STARTUP, *argv], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    ours, stdlib = proc.stdout.split("\n")[:2]
    assert ours.split() == sorted(f"braidscope.{m}" for m in loaded.split())
    assert stdlib == ""   # neither dataclasses nor inspect


def _module_level_imports(body):
    """Import nodes of a module body, also under its if/try/with blocks,
    but not inside functions or classes."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level_imports(getattr(node, field, ()))


def test_every_module_level_import_is_used():
    # __init__.py imports names to re-export them, so it is left out
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in _module_level_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            unused += [(path.name, alias.asname or alias.name)
                       for alias in node.names
                       if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []
