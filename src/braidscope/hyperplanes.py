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

from .complex import CubeComplex, build
from .errors import PreconditionError
from .graph import Graph, UnionFind, idkey


@dataclass(frozen=True)
class Hyperplane:
    """One unoriented hyperplane: a color plus its member complex edges."""

    color: str                 # graph edge id
    members: frozenset         # frozenset of unoriented member edges, each
                               # a pair of configuration masks, smaller first
    component_tag: tuple       # canonical member, stable identifier

    def member_count(self) -> int:
        return len(self.members)


def _hyperplane(color: str, ends) -> Hyperplane:
    members = frozenset((a, b) if a < b else (b, a) for a, b in ends)
    return Hyperplane(color, members, min(members))


def _parallel_classes(x: CubeComplex) -> list:
    """The 1-cube keys of x grouped into square-parallelism classes."""
    if x.dim() < 2 and x.n >= 2:
        raise PreconditionError("hyperplane walk needs the 2-skeleton")
    ends = x.index.ends
    uf = UnionFind()
    for (m, s) in x.level(2):
        a = m & -m
        b = m ^ a
        # the two a-colored sides differ by where b sits, and vice versa
        uf.union((a, s | ends[b][0]), (a, s | ends[b][1]))
        uf.union((b, s | ends[a][0]), (b, s | ends[a][1]))
    classes = {}
    for key in x.level(1):
        classes.setdefault(uf.find(key), []).append(key)
    return list(classes.values())


def hyperplanes_by_bfs(x: CubeComplex) -> tuple:
    """Partition complex edges into square-parallelism classes."""
    ix = x.index
    out = []
    for members in _parallel_classes(x):
        color = members[0][0]
        out.append(_hyperplane(ix.edge[color].id, (
            (s | ix.ends[m][0], s | ix.ends[m][1]) for m, s in members)))
    out.sort(key=lambda h: (idkey(h.color), h.component_tag))
    return tuple(out)


def hyperplanes_by_components(g: Graph, n: int,
                              cell_cap: int = 10**7) -> tuple:
    """One hyperplane per (edge e, component of UC_{n-1} of g minus e)."""
    if not g.is_simple():
        raise PreconditionError("expects a normalized graph")
    if len(g.vertices) < n:
        raise PreconditionError("not enough vertices for the particles")
    if n == 0:
        return ()   # UC_0 is one point: no complex edges, no hyperplanes
    pos = {v: i for i, v in enumerate(g.vertices)}
    out = []
    for e in g.edges:
        rest = Graph._make(   # g minus the closed edge e; ids may be generated
            [v for v in g.vertices if v not in (e.u, e.v)],
            [(f.id, f.u, f.v) for f in g.edges if not e.touches(f)])
        if len(rest.vertices) < n - 1:
            continue  # no configuration can avoid the closed edge
        sub = build(rest, n - 1, max_dim=1, cell_cap=cell_cap)
        # rest keeps the order of g.vertices, so a sub mask lifts to g by
        # opening a gap at the two deleted positions p < q
        p, q = sorted((pos[e.u], pos[e.v]))
        low, mid = (1 << p) - 1, (1 << (q - p - 1)) - 1
        u, v = 1 << pos[e.u], 1 << pos[e.v]
        for comp in sub.components:
            lifted = ((c & low) | ((c >> p & mid) << (p + 1))
                      | (c >> (q - 1) << (q + 1)) for c in comp)
            out.append(_hyperplane(e.id, ((c | u, c | v) for c in lifted)))
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
    ix = x.index
    failures = []

    # axiom 1: both orientations of every member edge realize the two
    # orientations of the class color, i.e. the configs differ exactly
    # by the endpoints of the color edge.
    for members in _parallel_classes(x):
        color = members[0][0]
        for (m, s) in members:
            a, b = s | ix.ends[m][0], s | ix.ends[m][1]
            if a ^ b != ix.emask[color]:
                failures.append((1, (ix.edge[color].id, ix.ids(a), ix.ids(b))))

    # axiom 2: squares pair disjoint colors
    squares = x.level(2)
    for (m, s) in squares:
        a = m & -m
        if ix.emask[a] & ix.emask[m ^ a]:
            failures.append((2, (ix.edge[a].id, ix.edge[m ^ a].id, ix.ids(s))))

    # axiom 3: incident edges at a vertex have pairwise distinct colors
    for conf, around in x.adjacency.items():
        seen = {}
        for (m, other) in around:
            if seen.get(m, other) != other:
                failures.append((3, (ix.ids(conf), ix.edge[m].id)))
            seen[m] = other

    # axiom 4: disjoint-color moves at a vertex span a square
    for (_, conf) in x.levels[0]:
        for (a, ea), (b, eb) in itertools.combinations(ix.moves(conf), 2):
            if not ea & eb and (a | b, conf & ~(ea | eb)) not in squares:
                failures.append((4, (ix.ids(conf), ix.edge[a].id, ix.edge[b].id)))

    return ColoringReport(not failures, tuple(failures))
