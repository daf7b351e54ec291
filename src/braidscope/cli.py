"""Command-line front end.

Subcommands: analyze, build, word, homology, relhyp-check, table.
Every run takes one path from argv to stdout.  ``_run`` parses the
arguments and, for the five subcommands that read ``--graph``, loads and
normalizes the graph once (and applies ``--subdivide`` where the
subcommand has it), then resolves the cell cap where the subcommand has
one.  It then imports the subcommand's module,
``braidscope.commands.<name>`` (``relhyp`` for ``relhyp-check``), and
only that one: its ``run(args, g)`` returns the result as one dict;
``_run`` adds ``schema`` and writes it as JSON, or, under ``--format
table``, prints the text that the module's ``render`` makes from that
same dict, so the text is a view of the JSON and is made only when asked
for.  ``build --format dot`` writes its graph as it goes and returns
None.

Only ``errors`` and ``graph`` are imported at start-up; each subcommand
imports the other modules it uses when it runs.  With no bytecode cache
a run compiles every module it imports, so this module keeps only the
shared path, and code that one subcommand runs lives in that
subcommand's module.  Two rules keep it so.  No module imports
``braidscope.cli``: under ``python -m`` it would compile a second time,
next to ``__main__``; hence ``_run``, not the handler, resolves the cell
cap.  A handler imports the library functions it calls inside ``run``,
so a name rebound in its module is the one called.

``main`` runs with the cyclic garbage collector paused: every structure
braidscope builds is acyclic, so the collector would only scan; the
cycles argparse leaves are freed once, after parsing.  ``run``, the process entry point, calls ``main``
and then ``gc.freeze()``, so the interpreter's final collection at exit
skips every object alive by then; what that saves depends on what the
interpreter has loaded (mostly ``site`` and its ``.pth`` imports).
Results go to stdout (JSON is canonical: sorted keys, no floats, one
trailing newline, so identical inputs yield byte-identical output);
diagnostics go to stderr.  Exit codes: 1 parse error, 2 precondition
violation or argparse usage error, 3 resource limit, 4 failed internal
consistency check (such as a full ``build`` whose two hyperplane routes
count differently, Świątkowski homology that does not fit the cube
complex, or an H_0 that is not free of rank the number of components;
one ``internal check failed:`` line on stderr) or any other
unexpected exception (one ``internal error:`` line); never a traceback.
A negative particle count, a negative ``--max-dim``, a negative cell cap
and a ``table --min`` below 1 are precondition violations.  A reader
that closes stdout early (``| head``) ends the run quietly with exit 0.

Graph files are UTF-8 text (other bytes are a parse error): optional
``v <id>`` lines, one ``e <id> <u> <v>`` line per edge, ``#`` comments.  Ids are alphanumeric
tokens.  Words use ``+eID``/``-eID`` tokens, after ``--`` if any is a
``-eID``.  The cell cap can be overridden with the BRAIDSCOPE_MAX_CELLS
environment variable, and ``--max-cells`` overrides both.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys

from . import JSON_SCHEMA_VERSION
from .errors import (
    BraidscopeError, InvariantError, ParseError, PreconditionError,
    ResourceLimitError,
)
from .graph import Graph, normalize, subdivide_for

EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

# readable as cli.build and cli.chain_complex, looked up in their module
# on each access, so that importing cli loads neither module; no code of
# the package reads them, only bench/tests/test_tracer.py, until the
# tracer reads a stats recorder instead of rebinding names (ROADMAP item 5)
_DEFERRED = {"build": "complex", "chain_complex": "homology"}


def __getattr__(name):
    if name in _DEFERRED:
        return getattr(importlib.import_module(f".{_DEFERRED[name]}", __package__),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def parse_graph_text(text: str) -> Graph:
    vertices = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "e" and len(parts) == 4:
            edges.append((parts[1], parts[2], parts[3]))
            vertices += [parts[2], parts[3]]
        else:
            raise ParseError(f"line {lineno}: expected 'v <id>' or 'e <id> <u> <v>'")
        for tok in parts[1:]:
            if not tok.isalnum():
                raise ParseError(f"line {lineno}: id {tok!r} is not alphanumeric")
    if not vertices:
        raise ParseError("empty graph file")
    try:
        return Graph.make(vertices, edges)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


def load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_graph_text(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text") from exc


def emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def cell_cap(args) -> int:
    from .complex import DEFAULT_CELL_CAP
    cap = args.max_cells
    if cap is None:
        env = os.environ.get("BRAIDSCOPE_MAX_CELLS")
        if env is None:
            return DEFAULT_CELL_CAP
        try:
            cap = int(env)
        except ValueError as exc:
            raise ParseError("BRAIDSCOPE_MAX_CELLS must be an integer") from exc
    if cap < 0:
        raise PreconditionError("cell cap must be >= 0")
    return cap


def make_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for `argv` (default ``sys.argv[1:]``).

    All six subcommands are registered, so the top-level help and usage
    errors list them all, but only those named by a word of `argv` get
    their options.  argparse parses with the subcommand that the first
    positional word names, so that one always has them.
    """
    named = set(sys.argv[1:] if argv is None else argv)
    top = argparse.ArgumentParser(
        prog="braidscope",
        description="configuration spaces of graphs and braid group classification")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "table"), max_cells=True):
        p.add_argument("--graph", required=True, help="graph file")
        p.add_argument("-n", "--particles", type=int, required=True)
        p.add_argument("--format", choices=formats, default="json")
        if max_cells:
            p.add_argument("--max-cells", type=int, default=None)

    p = sub.add_parser("analyze", help="classification report")
    if "analyze" in named:
        common(p, max_cells=False)
        p.add_argument("--oracle", choices=("auto", "on", "off"), default="auto")
        p.set_defaults(handler="analyze")

    p = sub.add_parser("build", help="build the configuration complex")
    if "build" in named:
        common(p, formats=("json", "table", "dot"))
        p.add_argument("--max-dim", type=int, default=None)
        p.add_argument("--subdivide", action="store_true",
                       help="subdivide for the particle count first")
        p.add_argument("--dot-what", choices=("skeleton", "coloring"),
                       default="skeleton")
        p.set_defaults(handler="build")

    p = sub.add_parser("word", help="validate / reduce / compare words")
    if "word" in named:
        p.add_argument("--graph", required=True)
        p.add_argument("--base", required=True, help="comma-separated vertices")
        p.add_argument("--compare", default=None,
                       help="second word as one whitespace-separated string")
        p.add_argument("--cyclic", action="store_true",
                       help="also cyclically reduce (spherical words)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("letters", nargs="*", help="word tokens +eID / -eID")
        p.set_defaults(handler="word")

    p = sub.add_parser("homology", help="integer homology summary")
    if "homology" in named:
        common(p)
        p.add_argument("--subdivide", action="store_true")
        p.set_defaults(handler="homology")

    p = sub.add_parser("relhyp-check",
                       help="verify a peripheral collection (two particles)")
    if "relhyp-check" in named:
        p.add_argument("--graph", required=True)
        p.add_argument("--collection", required=True,
                       help="file with one subgraph per line ('-' for stdin)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(handler="relhyp")

    p = sub.add_parser("table", help="classification grid over a family")
    if "table" in named:
        p.add_argument("--family", choices=("complete", "bipartite"),
                       required=True)
        p.add_argument("--min", type=int, default=1)
        p.add_argument("--max", type=int, required=True)
        p.add_argument("--particles", required=True, help="e.g. 2..5 or 3")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(handler="table")
    return top


def main(argv=None) -> int:
    # the collector stays paused through the lazy imports and the work;
    # nothing braidscope builds holds a reference cycle, and argparse's
    # cycles are collected once, after parsing
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    parser = make_parser(argv)
    args = parser.parse_args(argv)
    # argparse before 3.12 drops the value of "--opt=--" and leaves an
    # empty list where one string was wanted; `letters` alone takes a list
    for dest, value in vars(args).items():
        if value == [] and dest != "letters":
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    # each add_argument leaves a HelpFormatter <-> _Section cycle behind
    # (argparse's metavar check); free them, young, before the work
    gc.collect(0)
    try:
        g = None
        if "graph" in args:
            g = normalize(load_graph(args.graph))
            if getattr(args, "subdivide", False):
                g = subdivide_for(g, args.particles)
        if "max_cells" in args:     # the option, else the environment, else the default
            args.max_cells = cell_cap(args)
        # __import__ is the import statement's path, which, unlike
        # importlib.import_module's, `python -X importtime` reports
        command = __import__(f"commands.{args.handler}", globals(),
                             fromlist=["run"], level=1)
        data = command.run(args, g)
        if args.format == "json":
            emit_json(dict(data, schema=JSON_SCHEMA_VERSION))
        elif args.format == "table":    # text only when asked for
            print(command.render(data))
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader hung up; writes to come, as at exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except BraidscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # a bug: report it in one line, exit 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def run() -> None:
    """Run ``main`` on ``sys.argv[1:]`` and exit the process with its code.

    ``gc.freeze()`` runs on every way out (help, usage errors and
    interrupts included): the collection at interpreter exit skips
    frozen objects, while stdio flushing, atexit handlers and module
    teardown still run.  ``main`` itself never freezes, so in-process
    callers keep a working collector.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
