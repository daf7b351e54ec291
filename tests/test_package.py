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
    for path in sorted(SRC.rglob("*.py")):
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
    "hyperplanes": ("Hyperplane hyperplanes_by_bfs hyperplanes_by_components "
                    "verify_special_coloring"),
    "diagrams": ("CoverBall Diagram LegalWord SupportData ball_oracle "
                 "check_legal concat cyclic_centralizer_witness "
                 "cyclically_reduce diagram equal inverse make_rotation "
                 "make_tripod_swap reduce_word"),
    "homology": "ChainComplex HomologySummary chain_complex",
    "classifier": ("ClassificationReport acyl_hyp_status contains_f2xz "
                   "contains_free_nonabelian free_certificate full_report "
                   "is_hyperbolic is_infinite_cyclic is_toral_rel_hyp is_trivial"),
    "peripheral": "PeripheralReport check_peripheral_collection",
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


def test_every_listed_name_resolves():
    # a name left in the export table after its object was deleted would
    # still be listed, and fail only when used
    missing = []
    for name in dir(braidscope):
        try:
            getattr(braidscope, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


STARTUP = """\
import contextlib, io, sys
if sys.argv[1:]:
    from braidscope import cli
    if sys.argv[1:] != ["cli"]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(sys.argv[1:]) == 0
else:
    import braidscope
print(" ".join(sorted(m for m in sys.modules if m.startswith("braidscope."))))
print(" ".join(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""
# with no bytecode cache, a run compiles every module it loads
BASE = "cli errors graph"


def _command(name):
    """The modules of a run of one subcommand, before the library's."""
    return f"{BASE} commands commands.{name}"


@pytest.mark.parametrize("argv, loaded", [
    ([], "errors"),
    (["cli"], BASE),
    (["homology", "--graph", "G", "-n", "2"],
     _command("homology") + " complex homology"),
    # K_4 at n=2: the cube complex is the smaller, and answers
    (["homology", "--graph", "K", "-n", "2", "--subdivide"],
     _command("homology") + " complex homology"),
    # the triangle with a tail at n=2: 7 Świątkowski cells against 15 cubes
    (["homology", "--graph", "G", "-n", "2", "--subdivide"],
     _command("homology") + " complex homology swiatkowski"),
    (["build", "--graph", "G", "-n", "2"],
     _command("build") + " complex hyperplanes"),
    (["build", "--graph", "G", "-n", "2", "--format", "dot",
      "--dot-what", "coloring"], _command("build")),
    (["analyze", "--graph", "G", "-n", "2"], _command("analyze") + " classifier"),
    (["relhyp-check", "--graph", "G", "--collection", "C"],
     _command("relhyp") + " peripheral"),
    (["table", "--family", "complete", "--max", "3", "--particles", "2"],
     _command("table") + " classifier families"),
    (["word", "--graph", "G", "--base", "1,3", "+d"],
     _command("word") + " complex diagrams"),
], ids=("import", "cli-import", "homology", "homology-subdivide-cubical",
        "homology-subdivide-swiatkowski", "build", "build-dot-coloring",
        "analyze", "relhyp-check", "table", "word"))
def test_each_subcommand_imports_only_what_it_uses(tmp_path, argv, loaded):
    graph = tmp_path / "g.txt"
    graph.write_text("e a 1 2\ne b 2 3\ne c 3 1\ne d 3 4\n")
    k4 = tmp_path / "k4.txt"
    k4.write_text("e a 1 2\ne b 1 3\ne c 1 4\ne d 2 3\ne e 2 4\ne f 3 4\n")
    collection = tmp_path / "c.txt"
    collection.write_text("1,2;3\n")
    argv = [{"G": str(graph), "K": str(k4), "C": str(collection)}.get(a, a)
            for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", STARTUP, *argv], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    ours, stdlib = proc.stdout.split("\n")[:2]
    assert ours.split() == sorted(f"braidscope.{m}" for m in loaded.split())
    assert stdlib == ""   # neither dataclasses nor inspect
    if not argv:
        return
    # the same run as a process, as the console script and the benchmark
    # start it: cli.py runs as __main__, so no module may import
    # braidscope.cli, or it would compile a second time; with no
    # subcommand, argparse exits 2 before any subcommand loads
    argv = [] if argv == ["cli"] else argv
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "braidscope.cli", *argv],
        env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == (0 if argv else 2), proc.stderr
    reported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "braidscope.cli" not in reported
    assert sorted(m for m in reported if m.startswith("braidscope.")) == sorted(
        f"braidscope.{m}" for m in loaded.split() if m != "cli")


def _imported_names(path):
    """The absolute name of every module or name an import of `path`
    reads, relative imports resolved."""
    package = ["braidscope", *path.relative_to(SRC).parent.parts]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_no_module_imports_cli():
    # under `python -m braidscope.cli`, cli.py runs as __main__; a module
    # that imported braidscope.cli would compile and run it a second time
    importers = [path.relative_to(SRC).as_posix()
                 for path in sorted(SRC.rglob("*.py"))
                 if any(name == "braidscope.cli" or name.startswith("braidscope.cli.")
                        for name in _imported_names(path))]
    assert importers == []


def test_no_module_asserts():
    # `python -O` strips assert statements, and a check that guards a
    # verdict must still run there; such checks raise InvariantError
    found = [(path.relative_to(SRC).as_posix(), node.lineno)
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


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


def test_cli_imports_at_start_up_only_errors_and_graph():
    # every CLI run pays for what cli.py imports at module level; the
    # other modules load inside the subcommands that call them
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    body = [node for node in tree.body
            if not (isinstance(node, ast.If)
                    and ast.unparse(node.test) == "TYPE_CHECKING")]
    relative, absolute = set(), set()
    for node in _module_level_imports(body):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.add(node.module or " ".join(a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        else:
            absolute |= {alias.name for alias in node.names}
    assert relative == {"errors", "graph", "JSON_SCHEMA_VERSION"}
    assert {m for m in absolute
            if m.split(".")[0] not in sys.stdlib_module_names} == set()


def test_every_module_level_import_is_used():
    # __init__.py imports names to re-export them, so it is left out
    unused = []
    for path in sorted(SRC.rglob("*.py")):
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


def test_cli_loads_graphs_and_writes_json_in_one_place():
    # _run loads the graph and emits the JSON that each subcommand
    # returns; a subcommand that did either itself would fork that path
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    called = [ast.unparse(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)]
    assert called.count("emit_json") == 1
    assert called.count("load_graph") == 1


def test_console_script_calls_what_python_dash_m_calls():
    # `braidscope` and `python -m braidscope.cli` must start the same way
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["braidscope"]
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    mains = [node for node in tree.body if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(mains) == 1
    (stmt,) = mains[0].body     # one call, with no arguments
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
    assert not stmt.value.args and not stmt.value.keywords
    assert script == f"braidscope.cli:{ast.unparse(stmt.value.func)}"
