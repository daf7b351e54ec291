"""``build``: the cube complex UC_n, its hyperplanes and the coloring
check, or the 1-skeleton or the coloring graph as DOT."""

from __future__ import annotations

import math
import sys

from ..errors import InvariantError, PreconditionError, ResourceLimitError
from ..graph import Graph, idkey


def run(args, g):
    """The build's data; with --format dot, None once the graph is written.
    The coloring graph is the graph's alone, so no complex is built for it."""
    cap = args.max_cells
    if args.format == "dot" and args.dot_what == "coloring":
        if args.particles < 0:
            raise PreconditionError("particle count must be >= 0")
        if args.max_dim is not None and args.max_dim < 0:
            raise PreconditionError("max_dim must be >= 0")
        pairs = math.comb(len(g.edges), 2)
        if pairs > cap:
            raise ResourceLimitError(f"{pairs} edge pairs exceed cap {cap}")
        dot_coloring(g)
        return None
    from ..complex import build
    from ..hyperplanes import hyperplanes_by_components, verify_special_coloring
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


def render(data: dict) -> str:
    lines = [f"f-vector: {data['f_vector']}", f"components: {data['components']}"]
    if "euler_characteristic" in data:
        lines.append(f"euler characteristic: {data['euler_characteristic']}")
    lines.append(f"hyperplanes: {data['hyperplanes']}")
    return "\n".join(lines)


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
