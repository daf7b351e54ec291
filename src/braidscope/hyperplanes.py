"""Hyperplanes of configuration-space complexes, two independent ways.

A hyperplane is an equivalence class of complex edges under
square-parallelism; here every class carries a color, the moving edge
of the underlying graph.  The same classes can be counted without ever
touching squares: for each graph edge e, hyperplanes colored e
correspond to connected components of the (n-1)-particle space of the
graph with the closed edge e removed.  Both computations are exposed
and the test suite insists they agree class by class.

The coloring map (color every oriented hyperplane by its oriented graph
edge, adjacency = disjointness of graph edges) satisfies the four
special-coloring axioms; :func:`verify_special_coloring` rechecks them
on any complex, mutilated fixtures included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complex import CubeComplex, build, config_key, cube_key
from .errors import PreconditionError
from .graph import Graph, UnionFind, idkey

# an oriented complex edge is (edge id, source config); the source holds
# the origin of the oriented graph edge, the target holds the other end.


@dataclass(frozen=True)
class Hyperplane:
    """One unoriented hyperplane: a color plus its member complex edges."""

    color: str                 # graph edge id
    members: frozenset         # frozenset of unoriented member edges,
                               # each a pair (config key, config key) sorted
    component_tag: tuple       # canonical member, stable identifier

    def member_count(self) -> int:
        return len(self.members)


def _unoriented(a, b):
    return tuple(sorted((a, b)))


def hyperplanes_by_bfs(x: CubeComplex) -> tuple:
    """Partition complex edges into square-parallelism classes."""
    if x.dim() < 2 and x.n >= 2:
        raise PreconditionError("hyperplane walk needs the 2-skeleton")
    edges = x.cubes[1] if len(x.cubes) > 1 else {}
    uf = UnionFind()
    for key in edges:
        e, a, b = x.edge_ends(key)
        uf.find((e.id, a))
        uf.find((e.id, b))
    if len(x.cubes) > 2:
        for (mids, stat) in x.cubes[2]:
            a, b = (x.graph.edge_by_id[i] for i in mids)
            base = set(stat)
            # the two a-colored sides differ by where b sits, and vice versa
            for move, other in ((a, b), (b, a)):
                for m_orig in (move.u, move.v):
                    s1 = config_key(base | {m_orig, other.u})
                    s2 = config_key(base | {m_orig, other.v})
                    uf.union((move.id, s1), (move.id, s2))

    classes = {}
    for key in edges:
        e, a, b = x.edge_ends(key)
        root = uf.find((e.id, a))
        classes.setdefault(root, []).append((e.id, a, b))

    # merge the two orientation classes of each hyperplane
    merged = {}
    for root, members in classes.items():
        eid = members[0][0]
        rev_root = uf.find((eid, members[0][2]))
        pair = tuple(sorted((root, rev_root)))
        merged.setdefault(pair, set()).update(
            _unoriented(a, b) for (_, a, b) in members)

    out = []
    for pair, edges in merged.items():
        eid = pair[0][0]
        tag = min(edges)
        out.append(Hyperplane(eid, frozenset(edges), tag))
    out.sort(key=lambda h: (idkey(h.color), h.component_tag))
    return tuple(out)


def _delete_closed_edge(g: Graph, eid: str) -> Graph:
    """Remove both endpoints of the edge and everything incident to them."""
    e = g.edge_by_id[eid]
    gone = {e.u, e.v}
    return Graph.make(
        [v for v in g.vertices if v not in gone],
        [(x.id, x.u, x.v) for x in g.edges
         if x.u not in gone and x.v not in gone],
    )


def hyperplanes_by_components(g: Graph, n: int,
                              cell_cap: int = 10**7) -> tuple:
    """One hyperplane per (edge e, component of UC_{n-1} of g minus e)."""
    if not g.is_simple():
        raise PreconditionError("expects a normalized graph")
    if len(g.vertices) < n:
        raise PreconditionError("not enough vertices for the particles")
    if n == 0:
        return ()   # UC_0 is one point: no complex edges, no hyperplanes
    out = []
    for e in g.edges:
        rest = _delete_closed_edge(g, e.id)
        if len(rest.vertices) < n - 1:
            continue  # no configuration can avoid the closed edge
        sub = build(rest, n - 1, max_dim=1, cell_cap=cell_cap)
        comps = {}
        for conf, label in sub.component_of.items():
            comps.setdefault(label, []).append(conf)
        for label in sorted(comps):
            members = set()
            for conf in comps[label]:
                a = config_key(set(conf) | {e.u})
                b = config_key(set(conf) | {e.v})
                members.add(_unoriented(a, b))
            out.append(Hyperplane(e.id, frozenset(members), min(members)))
    out.sort(key=lambda h: (idkey(h.color), h.component_tag))
    return tuple(out)


def coloring_graph(g: Graph) -> dict:
    """The graph on edge ids with adjacency = vertex-disjointness."""
    adj = {e.id: set() for e in g.edges}
    for a, b in itertools.combinations(g.edges, 2):
        if not a.touches(b):
            adj[a.id].add(b.id)
            adj[b.id].add(a.id)
    return adj


@dataclass(frozen=True)
class ColoringReport:
    ok: bool
    axiom_failures: tuple   # (axiom number, description tuple)

    def __bool__(self):
        return self.ok

    def failed_axioms(self) -> tuple:
        return tuple(sorted({a for a, _ in self.axiom_failures}))


def verify_special_coloring(x: CubeComplex) -> ColoringReport:
    """Check the four special-coloring axioms on a built complex.

    1. opposite orientations of a hyperplane carry inverse colors;
    2. transverse hyperplanes have disjoint (adjacent) colors;
    3. no two edges at a vertex share a color;
    4. moves with disjoint colors at a common vertex span a square.
    """
    failures = []
    hps = hyperplanes_by_bfs(x)

    # axiom 1: both orientations of every member edge realize the two
    # orientations of the class color, i.e. the configs differ exactly
    # by the endpoints of the color edge.
    for h in hps:
        e = x.graph.edge_by_id[h.color]
        for (a, b) in h.members:
            if set(a) ^ set(b) != {e.u, e.v}:
                failures.append((1, (h.color, a, b)))

    # axiom 2: squares pair disjoint colors
    if len(x.cubes) > 2:
        for (mids, stat) in x.cubes[2]:
            a, b = (x.graph.edge_by_id[i] for i in mids)
            if a.touches(b):
                failures.append((2, (a.id, b.id, stat)))

    # axiom 3: incident edges at a vertex have pairwise distinct colors
    for conf, nbrs in x.skeleton.items():
        seen = {}
        for (e, other) in nbrs:
            if e.id in seen and seen[e.id] != other:
                failures.append((3, (conf, e.id)))
            seen[e.id] = other

    # axiom 4: disjoint-color moves at a vertex span a square
    for (_, conf) in x.cubes[0]:
        occupied = set(conf)
        moves = x.moves_at(conf)
        for a, b in itertools.combinations(moves, 2):
            if a.touches(b):
                continue
            stat = occupied - {
                a.u if a.u in occupied else a.v,
                b.u if b.u in occupied else b.v,
            }
            if not x.has_cube(cube_key((a.id, b.id), stat)):
                failures.append((4, (conf, a.id, b.id)))

    return ColoringReport(not failures, tuple(failures))
