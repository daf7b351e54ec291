"""Hyperplanes of configuration-space complexes, two independent ways.

A hyperplane is an equivalence class of complex edges under
square-parallelism; here every class carries a color, the moving edge
of the underlying graph.  The same classes can be counted without ever
touching squares: for each graph edge e, hyperplanes colored e
correspond to connected components of the (n-1)-particle space of the
graph with the closed edge e removed.  Both are exposed; the tests
match them class by class and each full CLI ``build`` compares their
counts per color.

The coloring map (color every oriented hyperplane by its oriented graph
edge, adjacency = disjointness of graph edges) satisfies the four
special-coloring axioms; :func:`verify_special_coloring` rechecks them
on any complex, mutilated fixtures included.  It scans for failures of
axioms 3 and 4 only where one can be: a 1-cube (m, s) with s off the
ends u, v of m meets s|u and s|v once each, so only a 1-cube whose s
meets its edge repeats a color; and every key that the axiom 4 scan
looks up at an n-vertex configuration lies in U, the keys (a|b, s) with
a, b disjoint edges and s n-2 vertices off both: |U| = P C(|V|-4, n-2),
P = C(|E|, 2) - sum over vertices of C(deg, 2) on a simple graph.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import NamedTuple

from .complex import CubeComplex, build
from .errors import PreconditionError
from .graph import Graph, connected_components, idkey


class Hyperplane(NamedTuple):
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
    """The 1-cube keys of x in square-parallelism classes, by first member."""
    if x.dim() < 2 and x.n >= 2:
        raise PreconditionError("hyperplane walk needs the 2-skeleton")
    ends = x.index.ends
    keys = list(x.level(1))
    pos = {}   # moving-edge bit -> {stationary mask: position in keys}
    for i, (m, s) in enumerate(keys):
        pos.setdefault(m, {})[s] = i
    nbrs, last = [[] for _ in keys], None
    for m, s in x.level(2):
        if m != last:
            # the two a-colored sides differ by where b sits, and vice versa
            last, a = m, m & -m
            sides = ((pos[a], *ends[m ^ a]), (pos[m ^ a], *ends[a]))
        for at, u, v in sides:
            i, j = at[s | u], at[s | v]
            nbrs[i].append(j)
            nbrs[j].append(i)
    return [[keys[i] for i in sorted(comp)]
            for comp in connected_components(range(len(keys)), nbrs)]


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


def hyperplanes_by_components(g: Graph, n: int) -> tuple:
    """One hyperplane per (edge e, component of UC_{n-1} of g minus the
    closed edge e), read off one UC_{n-1}(g) 1-skeleton restricted to
    the configurations that miss both ends of e."""
    if not g.is_simple():
        raise PreconditionError("expects a normalized graph")
    if len(g.vertices) < n:
        raise PreconditionError("not enough vertices for the particles")
    if n == 0:
        return ()   # UC_0 is one point: no complex edges, no hyperplanes
    x = build(g, n - 1, max_dim=1)
    confs = [s for _, s in x.levels[0]]
    nbrs = x.skeleton[0]
    out = []
    for m, (u, v) in x.index.ends.items():
        color, emask = x.index.edge[m].id, u | v
        banned = [i for i, c in enumerate(confs) if c & emask]
        for comp in connected_components(range(len(confs)), nbrs, banned):
            out.append(_hyperplane(
                color, ((confs[i] | u, confs[i] | v) for i in comp)))
    out.sort(key=lambda h: (idkey(h.color), h.component_tag))
    return tuple(out)


class ColoringReport(NamedTuple):
    ok: bool
    axiom_failures: tuple   # (axiom number, description tuple)
    classes_per_color: Counter   # color id -> square-parallelism classes

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

    The report also counts the square-parallelism classes of each color.
    Axiom 3 scans only if a 1-cube meets its own edge, axiom 4 only unless
    every 0-cube has n vertex bits and U (module docstring) is all squares.
    """
    ix = x.index
    failures = []
    per_color = Counter()

    # axiom 1: both orientations of every member edge realize the two
    # orientations of the class color, i.e. the configs differ exactly
    # by the endpoints of the color edge.
    for members in _parallel_classes(x):
        color = members[0][0]
        per_color[ix.edge[color].id] += 1
        for (m, s) in members:
            a, b = s | ix.ends[m][0], s | ix.ends[m][1]
            if a ^ b != ix.emask[color]:
                failures.append((1, (ix.edge[color].id, ix.ids(a), ix.ids(b))))

    # axiom 2: squares pair disjoint colors; count the squares in U
    squares = x.level(2)
    nv, n = len(ix.vname), x.n
    outside = -1 << nv   # the bits that stand for no vertex
    in_u, last = 0, None
    for (m, s) in squares:
        if m != last:
            last, a = m, m & -m
            touch = ix.emask[a] & ix.emask[m ^ a]
            off = outside | ix.emask[a] | ix.emask[m ^ a]
        if touch:
            failures.append((2, (ix.edge[a].id, ix.edge[m ^ a].id, ix.ids(s))))
        elif not s & off and s.bit_count() == n - 2:
            in_u += 1

    # axiom 3: incident edges at a vertex have pairwise distinct colors
    nbrs, moves = x.skeleton   # a 1-cube with a missing end raises here
    if any(s & ix.emask[m] for m, s in x.level(1)):
        for (_, conf), around, ms in zip(x.levels[0], nbrs, moves):
            seen = {}
            for m, other in zip(ms, around):
                if seen.get(m, other) != other:
                    failures.append((3, (ix.ids(conf), ix.edge[m].id)))
                seen[m] = other

    # axiom 4: disjoint-color moves at a vertex span a square
    pairs = math.comb(len(ix.ends), 2) - sum(
        math.comb(len(around), 2) for around in ix.incident.values())
    size_u = pairs * math.comb(nv - 4, n - 2) if n >= 2 and nv >= 4 else 0
    if in_u != size_u or not x.graph.is_simple() or not all(
            not s & outside and s.bit_count() == n for _, s in x.levels[0]):
        for (_, conf) in x.levels[0]:
            for (a, ea), (b, eb) in itertools.combinations(ix.moves(conf), 2):
                if not ea & eb and (a | b, conf & ~(ea | eb)) not in squares:
                    failures.append((4, (ix.ids(conf), ix.edge[a].id, ix.edge[b].id)))

    return ColoringReport(not failures, tuple(failures), per_color)
