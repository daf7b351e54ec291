"""The unordered configuration space UC_n of a graph as a cube complex.

A 0-cube is an n-element set of vertices; a d-cube is a set of d
pairwise disjoint moving edges plus n-d stationary vertices avoiding
them.  Cubes are addressed by that (moving, stationary) label, which
makes face lookups, hyperplane walks and boundary maps direct
dictionary reads.  A finished complex is immutable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import PreconditionError, ResourceLimitError
from .graph import Edge, Graph, connected_components, idkey

DEFAULT_CELL_CAP = 10**7

# cube key: (tuple of moving edge ids, tuple of stationary vertex ids),
# both sorted by idkey.


def cube_key(moving_ids, stationary) -> tuple:
    return (config_key(moving_ids), config_key(stationary))


def config_key(vertices) -> tuple:
    return tuple(sorted(vertices, key=idkey))


@dataclass(frozen=True)
class Cube:
    moving: tuple          # Edge objects, sorted by id
    stationary: tuple      # vertex ids, sorted

    @property
    def dimension(self) -> int:
        return len(self.moving)

    @property
    def key(self) -> tuple:
        return (tuple(e.id for e in self.moving), self.stationary)

    def corners(self) -> tuple:
        """All 2^d vertex configurations of the cube."""
        outs = []
        for picks in itertools.product(*[(e.u, e.v) for e in self.moving]):
            outs.append(config_key(set(picks) | set(self.stationary)))
        return tuple(outs)

    def facets(self) -> tuple:
        """2d facet keys: each moving edge collapsed to one endpoint."""
        outs = []
        for i, e in enumerate(self.moving):
            rest = tuple(x.id for j, x in enumerate(self.moving) if j != i)
            for end in (e.u, e.v):
                outs.append(cube_key(rest, set(self.stationary) | {end}))
        return tuple(outs)


@dataclass(frozen=True)
class CubeComplex:
    graph: Graph
    n: int
    max_dim: int
    cubes: tuple           # tuple of dicts, index d -> {key: Cube}

    # -- views ----------------------------------------------------------

    def f_vector(self) -> tuple:
        return tuple(len(level) for level in self.cubes)

    def dim(self) -> int:
        return len(self.cubes) - 1

    def component_count(self) -> int:
        return len(set(self.component_of.values()))

    def configurations(self) -> tuple:
        return tuple(k[1] for k in self.cubes[0])

    def has_cube(self, key: tuple) -> bool:
        d = len(key[0])
        return d < len(self.cubes) and key in self.cubes[d]

    def moves_at(self, conf) -> tuple:
        """Edges of the graph with exactly one endpoint occupied."""
        occupied = set(conf)
        outs = []
        for e in self.graph.edges:
            if (e.u in occupied) != (e.v in occupied):
                outs.append(e)
        return tuple(outs)

    def apply_move(self, conf, edge: Edge) -> tuple:
        occupied = set(conf)
        if edge.u in occupied:
            occupied.remove(edge.u)
            occupied.add(edge.v)
        else:
            occupied.remove(edge.v)
            occupied.add(edge.u)
        return config_key(occupied)

    def edge_ends(self, key: tuple) -> tuple:
        """(edge, a, b) for a 1-cube key: its moving edge, the end
        configuration holding the edge's u end and the one holding v."""
        (eid,), stat = key
        e = self.graph.edge_by_id[eid]
        return (e, config_key(set(stat) | {e.u}), config_key(set(stat) | {e.v}))

    @cached_property
    def skeleton(self) -> dict:
        """1-skeleton adjacency: config key -> tuple of (edge, other key)."""
        adj = {k[1]: [] for k in self.cubes[0]}
        for key in (self.cubes[1] if len(self.cubes) > 1 else ()):
            e, a, b = self.edge_ends(key)
            adj[a].append((e, b))
            adj[b].append((e, a))
        return {k: tuple(v) for k, v in adj.items()}

    @cached_property
    def component_of(self) -> dict:
        """Config key -> index of its 1-skeleton component; components are
        numbered in the order of their first configuration."""
        nbrs = {a: [b for _, b in around] for a, around in self.skeleton.items()}
        return {conf: label for label, comp in
                enumerate(connected_components(nbrs, nbrs)) for conf in comp}

    def euler_characteristic(self) -> int:
        if self.max_dim < self.n:
            raise PreconditionError(
                "Euler characteristic needs the full-dimensional complex")
        return sum((-1) ** d * len(level) for d, level in enumerate(self.cubes))

    def without_cube(self, key: tuple) -> "CubeComplex":
        """Copy with one cube of positive dimension dropped (test fixture)."""
        d = len(key[0])
        if d == 0 or not self.has_cube(key):
            raise PreconditionError("can only drop an existing positive-dim cube")
        levels = []
        for dd, level in enumerate(self.cubes):
            if dd == d:
                levels.append({k: c for k, c in level.items() if k != key})
            else:
                levels.append(dict(level))
        return CubeComplex(self.graph, self.n, self.max_dim, tuple(levels))


def _matchings(edges: tuple, size: int):
    """Yield all size-`size` sets of pairwise disjoint edges, in id order."""
    chosen = []

    def rec(start: int, blocked: set):
        if len(chosen) == size:
            yield tuple(chosen)
            return
        remaining = size - len(chosen)
        for i in range(start, len(edges) - remaining + 1):
            e = edges[i]
            if e.u in blocked or e.v in blocked:
                continue
            chosen.append(e)
            yield from rec(i + 1, blocked | {e.u, e.v})
            chosen.pop()

    yield from rec(0, set())


def build(g: Graph, n: int, max_dim: Optional[int] = None,
          cell_cap: int = DEFAULT_CELL_CAP) -> CubeComplex:
    """Enumerate UC_n(g) up to dimension min(n, max_dim).

    The caller chooses whether to subdivide first; the complex is built
    for the graph exactly as given.
    """
    if not g.is_simple():
        raise PreconditionError("build expects a normalized graph")
    if n < 0:
        raise PreconditionError("particle count must be >= 0")
    if len(g.vertices) < n:
        raise PreconditionError(
            f"graph has {len(g.vertices)} vertices, cannot place {n} particles")
    if math.comb(len(g.vertices), n) > cell_cap:
        raise ResourceLimitError(
            f"{math.comb(len(g.vertices), n)} configurations exceed cap {cell_cap}")
    top = n if max_dim is None else min(n, max_dim)

    levels = []
    zero = {}
    for conf in itertools.combinations(g.vertices, n):
        key = cube_key((), conf)
        zero[key] = Cube((), key[1])
    levels.append(zero)

    total = len(zero)
    for d in range(1, top + 1):
        level = {}
        for moving in _matchings(g.edges, d):
            used = set()
            for e in moving:
                used.add(e.u)
                used.add(e.v)
            free = [v for v in g.vertices if v not in used]
            if len(free) < n - d:
                continue
            for stat in itertools.combinations(free, n - d):
                cube = Cube(moving, tuple(stat))
                level[cube.key] = cube
                total += 1
                if total > cell_cap:
                    raise ResourceLimitError(
                        f"cell count exceeds cap {cell_cap}")
        levels.append(level)

    return CubeComplex(g, n, top, tuple(levels))


def euler_characteristic(x: CubeComplex) -> int:
    return x.euler_characteristic()


@dataclass(frozen=True)
class NpcReport:
    ok: bool
    failures: tuple  # (config key, tuple of move edge ids, missing cube key)

    def __bool__(self):
        return self.ok


def verify_npc(x: CubeComplex) -> NpcReport:
    """Recheck that every vertex link is flag and faces are closed.

    For these complexes flagness says: whenever k moves at a vertex have
    pairwise disjoint moving edges, the k-cube they span is present.
    The face-closure sweep catches mutilated complexes at every level.
    """
    if x.max_dim < x.n:
        raise PreconditionError("verify_npc needs the full-dimensional complex")
    failures = []

    for level in x.cubes[1:]:
        for cube in level.values():
            for fkey in cube.facets():
                if not x.has_cube(fkey):
                    failures.append((cube.corners()[0], cube.key[0], fkey))

    for (_, conf) in x.cubes[0]:
        moves = x.moves_at(conf)
        occupied = set(conf)

        def origins(e):
            return e.u if e.u in occupied else e.v

        chosen = []

        def rec(start):
            if len(chosen) >= 2:
                moving = tuple(e.id for e in chosen)
                stat = occupied - {origins(e) for e in chosen}
                key = cube_key(moving, stat)
                if not x.has_cube(key):
                    failures.append((conf, moving, key))
            if len(chosen) == x.n:
                return
            for i in range(start, len(moves)):
                e = moves[i]
                if all(not e.touches(c) for c in chosen):
                    chosen.append(e)
                    rec(i + 1)
                    chosen.pop()

        rec(0)

    return NpcReport(not failures, tuple(failures))


@dataclass(frozen=True)
class SurfaceReport:
    ok: bool
    link_cycle_lengths: tuple   # sorted multiset when ok
    witness: Optional[tuple]    # failing vertex key

    def __bool__(self):
        return self.ok


def is_surface(x: CubeComplex) -> SurfaceReport:
    """True iff every vertex link is a single cycle (n = 2 closed surface)."""
    if x.n != 2:
        raise PreconditionError("surface check is a two-particle notion")
    if x.max_dim < x.n:
        raise PreconditionError("surface check needs the full complex")
    lengths = []
    for (_, conf) in x.cubes[0]:
        moves = x.moves_at(conf)
        occupied = set(conf)
        k = len(moves)
        if k < 3:
            return SurfaceReport(False, (), conf)
        adj = {e.id: set() for e in moves}
        for a, b in itertools.combinations(moves, 2):
            stat = occupied - {
                a.u if a.u in occupied else a.v,
                b.u if b.u in occupied else b.v,
            }
            if not a.touches(b) and x.has_cube(cube_key((a.id, b.id), stat)):
                adj[a.id].add(b.id)
                adj[b.id].add(a.id)
        if any(len(nb) != 2 for nb in adj.values()):
            return SurfaceReport(False, (), conf)
        # connected 2-regular graph on k vertices = single k-cycle
        if len(connected_components(adj, adj)) != 1:
            return SurfaceReport(False, (), conf)
        lengths.append(k)
    return SurfaceReport(True, tuple(sorted(lengths)), None)
