"""Command-line front end.

Subcommands: analyze, build, word, homology, relhyp-check, table.
Every run takes one path from argv to stdout.  ``_run`` parses the
arguments and, for the five subcommands that read ``--graph``, loads and
normalizes the graph once (and applies ``--subdivide`` where the
subcommand has it).  Each ``cmd_*(args, g)`` returns its result as one
dict; ``_run`` adds ``schema`` and writes it as JSON, or, under
``--format table``, prints the text that the subcommand's ``*_table``
renderer makes from that same dict, so the text is a view of the JSON
and is made only when asked for.  ``build --format dot`` writes its
graph as it goes and returns None.

Only ``errors`` and ``graph`` are imported at start-up; each subcommand
imports the other modules it uses when it runs (with no bytecode cache,
a run compiles every module it imports).  ``main`` runs with the cyclic
garbage collector paused: every structure braidscope builds is acyclic,
so the collector would only scan; the cycles argparse leaves are freed
once, after parsing.  ``run``, the process entry point, calls ``main``
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

``homology`` counts the cube complex before building it: its f-vector,
χ and caps come from ``complex.count_cubes``, which refuses exactly as
``complex.build`` would.  ``homology --subdivide`` asks for H_* of the
configuration space UConf_n: the reduced Świątkowski complex of the
smoothed graph (``braidscope.swiatkowski``) answers when it has fewer
cells than the cube complex of the subdivided graph and no dimension
over the Smith cap; its groups must fit the cube complex's dimensions
and χ.  Otherwise the cube complex is built, its f-vector must equal the
count, and it answers.  Whichever complex answers, H_0 must be free of
rank its number of path components, which checks d_1 where d∘d reads
nothing.

Graph files are UTF-8 text: optional ``v <id>`` lines, one
``e <id> <u> <v>`` line per edge, ``#`` comments.  Ids are alphanumeric
tokens.  Words use ``+eID``/``-eID`` tokens, after ``--`` if any is a
``-eID``.  The cell cap can be overridden with the BRAIDSCOPE_MAX_CELLS
environment variable, and ``--max-cells`` overrides both.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from . import JSON_SCHEMA_VERSION
from .errors import (
    BraidscopeError, InvariantError, ParseError, PreconditionError,
    ResourceLimitError,
)
from .graph import (Graph, Subgraph, idkey, normalize, smooth,
                    subdivide_for)

if TYPE_CHECKING:
    from .classifier import ClassificationReport

EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

MAX_PARTICLE_COUNTS = 100   # per `table` run; each count is one row per graph
MAX_FAMILY_SIZE = 32        # largest `table --max`, checked before any graph

# readable as cli.build and cli.chain_complex (bench/tests/test_tracer.py
# reads both), looked up in their module on each access, so that
# importing cli loads neither module
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


def parse_word_tokens(tokens) -> list:
    letters = []
    for tok in tokens:
        if len(tok) < 2 or tok[0] not in "+-":
            raise ParseError(f"bad word token {tok!r}; want +eID or -eID")
        letters.append((tok[1:], 1 if tok[0] == "+" else -1))
    return letters


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


# -- report serialisation -------------------------------------------------

def report_payload(rep: ClassificationReport) -> dict:
    """The JSON data of a report: each assignment's split, shapes and
    every verdict of ``AssignmentReport`` under its field name."""
    payload = {
        "fingerprint": rep.fingerprint,
        "particles": rep.n,
        "connected": rep.connected,
        "oracle": rep.oracle_note,
        "assignments": [],
    }
    if rep.oracle_agreement is not None:
        payload["oracle_agreement"] = {
            k: bool(v) for k, v in sorted(rep.oracle_agreement.items())}
    for a in rep.assignments:
        row = a._asdict()
        row["split"] = list(row.pop("assignment"))
        row["shapes"] = [c.shape_tag for c in row.pop("per_component")]
        payload["assignments"].append(row)
    return payload


def report_table(data: dict) -> str:
    fp = data["fingerprint"]
    fp = fp if len(fp) <= 60 else fp[:60] + "..."
    lines = [f"graph {fp} n={data['particles']}"]
    for a in data["assignments"]:
        lines.append(
            f"  split={a['split']} trivial={a['trivial']}"
            f" Z={a['infinite_cyclic']} hyp={a['hyperbolic']}"
            f" toralRH={a['toral_rel_hyp']} acyl={a['acyl_status']}"
            f" free={a['free']} F2={a['contains_f2']} F2xZ={a['contains_f2xz']}")
    lines.append(f"  oracle: {data['oracle']}")
    return "\n".join(lines)


# -- subcommands ----------------------------------------------------------

def cmd_analyze(args, g) -> dict:
    from .classifier import full_report
    return report_payload(full_report(g, args.particles, run_oracles=args.oracle))


def dot_skeleton(x) -> str:
    """The 1-skeleton, configurations by id tuple and 1-cubes by label."""
    ix = x.index
    lines = ["graph skeleton {"]
    for conf in sorted(ix.ids(s) for (_, s) in x.levels[0]):
        lines.append(f'  "C{"_".join(conf)}";')
    for m, s in sorted(x.level(1), key=ix.label):
        a, b = ("C" + "_".join(ix.ids(s | end)) for end in ix.ends[m])
        lines.append(f'  "{a}" -- "{b}" [label="{ix.edge[m].id}"];')
    lines.append("}")
    return "\n".join(lines)


def dot_coloring(g: Graph) -> None:
    """Write the coloring graph (edge ids, joined when vertex-disjoint)
    to stdout: the nodes, then one write per edge of its pairs with the
    edges after it, all in string order of ids, so memory stays linear
    in the edge count."""
    edges = sorted(g.edges, key=lambda e: e.id)
    write = sys.stdout.write
    write("graph coloring {\n" + "".join(f'  "{e.id}";\n' for e in edges))
    for i, a in enumerate(edges):
        ends = (a.u, a.v)
        write("".join(f'  "{a.id}" -- "{b.id}";\n' for b in edges[i + 1:]
                      if b.u not in ends and b.v not in ends))
    write("}\n")


def check_hyperplane_routes(by_components: dict, by_squares: dict) -> None:
    """Raise InvariantError at the first color (in id order) whose number
    of hyperplanes differs between the two routes."""
    for color in sorted(by_components.keys() | by_squares.keys(), key=idkey):
        a, b = by_components.get(color, 0), by_squares.get(color, 0)
        if a != b:
            raise InvariantError(f"hyperplane routes disagree on color {color}: "
                                 f"{a} by components, {b} by squares")


def cmd_build(args, g):
    """The build's data; with --format dot, None once the graph is written.
    The coloring graph is the graph's alone, so no complex is built for it."""
    cap = cell_cap(args)
    if args.format == "dot" and args.dot_what == "coloring":
        pairs = math.comb(len(g.edges), 2)
        if pairs > cap:
            raise ResourceLimitError(f"{pairs} edge pairs exceed cap {cap}")
        if args.particles < 0:
            raise PreconditionError("particle count must be >= 0")
        if args.max_dim is not None and args.max_dim < 0:
            raise PreconditionError("max_dim must be >= 0")
        dot_coloring(g)
        return None
    from .complex import build
    from .hyperplanes import hyperplanes_by_components, verify_special_coloring
    x = build(g, args.particles, max_dim=args.max_dim, cell_cap=cap)
    if args.format == "dot":
        print(dot_skeleton(x))
        return None
    hps = hyperplanes_by_components(g, args.particles)
    data = {
        "f_vector": list(x.f_vector()),
        "components": x.component_count(),
        "hyperplanes": len(hps),
        "hyperplanes_per_color": {},
    }
    per = data["hyperplanes_per_color"]
    for h in hps:
        per[h.color] = per.get(h.color, 0) + 1
    if x.max_dim >= x.n:
        data["euler_characteristic"] = x.euler_characteristic()
        report = verify_special_coloring(x)
        data["npc"] = bool(report.ok)
        check_hyperplane_routes(per, report.classes_per_color)
    return data


def build_table(data: dict) -> str:
    lines = [f"f-vector: {data['f_vector']}", f"components: {data['components']}"]
    if "euler_characteristic" in data:
        lines.append(f"euler characteristic: {data['euler_characteristic']}")
    lines.append(f"hyperplanes: {data['hyperplanes']}")
    return "\n".join(lines)


def cmd_word(args, g) -> dict:
    from .diagrams import cyclically_reduce, diagram, equal
    base = tuple(args.base.split(","))
    letters = parse_word_tokens(args.letters)
    d = diagram(g, base, letters)
    data = {
        "legal": True,
        "terminus": list(d.terminus),
        "length": len(d),
        "normal_form": [("+" if s > 0 else "-") + e for (e, s) in d.letters],
        "spherical": d.is_spherical(),
    }
    if args.compare is not None:
        other = diagram(g, base, parse_word_tokens(args.compare.split()))
        data["equal"] = equal(d, other)
    if args.cyclic:
        if not d.is_spherical():
            raise PreconditionError("--cyclic needs a spherical word")
        sd = cyclically_reduce(d)
        data["cyclic_reduction"] = [
            ("+" if s > 0 else "-") + e for (e, s) in sd.cyclic_reduction.letters]
        data["support_vertices"] = sorted(sd.support.vertices)
        data["particles"] = sorted(sd.particles)
    return data


def word_table(data: dict) -> str:
    lines = [f"legal; terminus {','.join(data['terminus'])}; "
             f"normal form {' '.join(data['normal_form']) or '(empty)'}"]
    if "equal" in data:
        lines.append(f"equal: {data['equal']}")
    return "\n".join(lines)


def cmd_homology(args, g) -> dict:
    """H_* of the cube complex UC_n of `g`; under --subdivide, of UConf_n,
    from the smaller model (module docstring)."""
    from .complex import build, count_cubes
    from .homology import (DEFAULT_COLUMN_CAP, chain_complex,
                           check_column_cap, check_components,
                           configuration_components, homology,
                           swiatkowski_dims)
    n, nv, cap = args.particles, len(g.vertices), cell_cap(args)
    if g.edges and n > 0 and math.comb(nv, n) <= cap:
        # f_1 = |E| C(|V|-2, n-1): refuse before indexing a large graph
        check_column_cap((0, len(g.edges) * math.comb(nv - 2, n - 1)))
    # the cube complex is counted first, and built only where it answers
    f = count_cubes(g, n, cap)
    check_column_cap(f)
    euler = sum((-1) ** d * k for d, k in enumerate(f))
    h = None
    if args.subdivide:
        m = smooth(g)
        dims = swiatkowski_dims(m, n)
        if sum(dims) < sum(f) and max(dims) <= DEFAULT_COLUMN_CAP:
            from .swiatkowski import fitted, reduced_complex
            h = fitted(homology(reduced_complex(m, n)), len(f) - 1, euler,
                       configuration_components(m, n))
    if h is None:
        x = build(g, n, cell_cap=cap)
        if x.f_vector() != f:
            raise InvariantError(f"cube complex has f-vector {list(x.f_vector())}, "
                                 f"its count {list(f)}")
        h = homology(chain_complex(x))
        check_components(h, x.component_count(), "cube complex")
    return {
        "free_ranks": list(h.free_ranks),
        "torsion": [list(t) for t in h.torsion],
        "groups": [h.group(d) for d in range(len(h.free_ranks))],
        "euler_characteristic": euler,
    }


def homology_table(data: dict) -> str:
    return "\n".join(f"H_{d} = {grp}" for d, grp in enumerate(data["groups"]))


def parse_collection_text(g: Graph, text: str) -> list:
    """One subgraph per line: semicolon-separated vertex groups, each
    group comma-separated; the subgraph is the union of the induced
    subgraphs on the groups."""
    subs = []
    known = set(g.vertices)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        verts: set = set()
        eids: set = set()
        for group in line.split(";"):
            names = [t.strip() for t in group.split(",") if t.strip()]
            unknown = [t for t in names if t not in known]
            if unknown:
                raise ParseError(f"line {lineno}: unknown vertex {unknown[0]!r}")
            sub = g.induced(names)
            verts |= sub.vertices
            eids |= sub.edge_ids
        subs.append(Subgraph(g, frozenset(verts), frozenset(eids)))
    return subs


def cmd_relhyp(args, g) -> dict:
    from .classifier import check_peripheral_collection
    if args.collection == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.collection, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(str(exc)) from exc
    collection = parse_collection_text(g, text)
    rep = check_peripheral_collection(g, collection)
    return {
        "members": len(collection),
        "cycle_pairs_covered": rep.cycle_pairs_covered,
        "intersections_ok": rep.intersections_ok,
        "paths_ok": rep.paths_ok,
        "all_proper": rep.all_proper,
        "valid": rep.valid,
        "criterion_applies": rep.applies,
        "note": ("relatively hyperbolic by the peripheral criterion"
                 if rep.applies else "criterion inconclusive"),
    }


def relhyp_table(data: dict) -> str:
    lines = [f"{k}: {data[k]}" for k in ("cycle_pairs_covered", "intersections_ok",
                                         "paths_ok", "all_proper", "criterion_applies")]
    lines.append(data["note"])
    return "\n".join(lines)


def _family_graphs(args):
    from . import families
    lo = args.min
    if args.family == "complete":
        for m in range(lo, args.max + 1):
            yield f"K_{m}", families.complete_graph(m)
    elif args.family == "bipartite":
        for p in range(lo, args.max + 1):
            for q in range(p, args.max + 1):
                yield f"K_{p},{q}", families.complete_bipartite(p, q)
    else:
        raise ParseError(f"unknown family {args.family!r}")


def parse_particle_range(text: str) -> tuple:
    """The particle counts of ``N`` or ``A..B`` (empty when A > B)."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError as exc:
        raise ParseError(f"bad particle range {text!r}; want N or A..B") from exc
    if b - a + 1 > MAX_PARTICLE_COUNTS:
        raise ResourceLimitError(f"{b - a + 1} particle counts exceed cap "
                                 f"{MAX_PARTICLE_COUNTS}")
    return tuple(range(a, b + 1))


def cmd_table(args, g) -> dict:
    """One row per family graph and particle count: the main assignment's
    verdicts, all but contains_f2 and contains_f2xz."""
    from .classifier import full_report
    ns = parse_particle_range(args.particles)
    if args.max > MAX_FAMILY_SIZE:
        raise ResourceLimitError(
            f"--max {args.max} exceeds cap {MAX_FAMILY_SIZE}")
    if args.min < 1:
        raise PreconditionError("--min must be >= 1")
    rows = []
    for name, member in _family_graphs(args):
        for n in ns:
            a = full_report(member, n, run_oracles="off").main
            rows.append(dict(zip(a._fields[2:-2], a[2:-2]), graph=name, n=n))
    return {"rows": rows}


def grid_table(data: dict) -> str:
    lines = [f"{'graph':10s} {'n':>2s} {'trivial':7s} {'Z':5s} {'hyp':5s}"
             f" {'toralRH':7s} {'free':7s} acyl"]
    for r in data["rows"]:
        lines.append(f"{r['graph']:10s} {r['n']:2d} {str(r['trivial']):7s}"
                     f" {str(r['infinite_cyclic']):5s} {str(r['hyperbolic']):5s}"
                     f" {str(r['toral_rel_hyp']):7s} {r['free']:7s} {r['acyl_status']}")
    return "\n".join(lines)


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
        p.set_defaults(func=cmd_analyze, render=report_table)

    p = sub.add_parser("build", help="build the configuration complex")
    if "build" in named:
        common(p, formats=("json", "table", "dot"))
        p.add_argument("--max-dim", type=int, default=None)
        p.add_argument("--subdivide", action="store_true",
                       help="subdivide for the particle count first")
        p.add_argument("--dot-what", choices=("skeleton", "coloring"),
                       default="skeleton")
        p.set_defaults(func=cmd_build, render=build_table)

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
        p.set_defaults(func=cmd_word, render=word_table)

    p = sub.add_parser("homology", help="integer homology summary")
    if "homology" in named:
        common(p)
        p.add_argument("--subdivide", action="store_true")
        p.set_defaults(func=cmd_homology, render=homology_table)

    p = sub.add_parser("relhyp-check",
                       help="verify a peripheral collection (two particles)")
    if "relhyp-check" in named:
        p.add_argument("--graph", required=True)
        p.add_argument("--collection", required=True,
                       help="file with one subgraph per line ('-' for stdin)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(func=cmd_relhyp, render=relhyp_table)

    p = sub.add_parser("table", help="classification grid over a family")
    if "table" in named:
        p.add_argument("--family", choices=("complete", "bipartite"),
                       required=True)
        p.add_argument("--min", type=int, default=1)
        p.add_argument("--max", type=int, required=True)
        p.add_argument("--particles", required=True, help="e.g. 2..5 or 3")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(func=cmd_table, render=grid_table)
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
        data = args.func(args, g)
        if args.format == "json":
            emit_json(dict(data, schema=JSON_SCHEMA_VERSION))
        elif args.format == "table":    # text only when asked for
            print(args.render(data))
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
