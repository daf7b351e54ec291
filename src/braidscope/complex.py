"""The unordered configuration space UC_n of a graph as a cube complex.

A 0-cube is an n-element set of vertices; a d-cube is a set of d
pairwise disjoint moving edges plus n-d stationary vertices avoiding
them.  A finished complex is immutable.

Cubes are stored as integers.  Bit i of a vertex mask stands for
``g.vertices[i]`` and bit i of an edge mask for ``g.edges[i]`` (both in
idkey order, so the set bits of a mask, lowest first, give its ids
sorted).  A configuration is a vertex mask and the d-cubes are the keys
``(moving-edge mask, stationary-vertex mask)`` of ``levels[d]``.  The
facet of (m, s) that leaves edge b's particle at end w is
``(m ^ b, s | w)``; edges touch when their vertex masks meet; edge e
moves at c when ``emask[e] & c`` is neither 0 nor ``emask[e]``.  Ids
are decoded only where they are printed: ``BitIndex.ids`` turns a mask
into a sorted id tuple and ``BitIndex.label`` a cube key into its label
(moving edge ids, stationary vertex ids).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import PreconditionError, ResourceLimitError
from .graph import (DEFAULT_CELL_CAP, Edge, Frozen, Graph,
                    connected_components, idkey)


def config_key(vertices) -> tuple:
    return tuple(sorted(vertices, key=idkey))


def bits(mask: int):
    """The set bits of a mask as ints, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class BitIndex:
    """Bit masks for the vertices and edges of one graph."""

    def __init__(self, g: Graph):
        self.vbit = {v: 1 << i for i, v in enumerate(g.vertices)}
        self.ebit = {e.id: 1 << i for i, e in enumerate(g.edges)}
        self.vname = {b: v for v, b in self.vbit.items()}
        self.edge = {self.ebit[e.id]: e for e in g.edges}
        self.ends = {b: (self.vbit[e.u], self.vbit[e.v])
                     for b, e in self.edge.items()}
        self.emask = {b: u | v for b, (u, v) in self.ends.items()}
        self.incident = {b: [] for b in self.vname}  # (edge bit, other end)
        for b, (u, v) in self.ends.items():
            self.incident[u].append((b, v))
            self.incident[v].append((b, u))

    def ids(self, conf: int) -> tuple:
        return tuple(self.vname[b] for b in bits(conf))

    def label(self, key: tuple) -> tuple:
        """(moving edge ids, stationary vertex ids) of a cube key."""
        return (tuple(self.edge[b].id for b in bits(key[0])), self.ids(key[1]))

    @staticmethod
    def mask(ids, bit: dict) -> Optional[int]:
        """OR of the bits of `ids`; None if one is unknown or repeated."""
        out = 0
        for i in ids:
            b = bit.get(i)
            if b is None or out & b:
                return None
            out |= b
        return out

    def moves(self, conf: int) -> list:
        """(edge bit, vertex mask) of the edges with exactly one end in
        conf, by ascending bit."""
        return sorted((b, self.emask[b]) for v in bits(conf)
                      for b, w in self.incident[v] if not w & conf)


class CubeComplex(Frozen):
    """UC_n of ``graph`` up to dimension ``max_dim``.  ``levels`` holds,
    per dimension, a dict from cube key to None; ``index`` is the graph's
    BitIndex and is left out of eq and hash.  Views: ``level`` on the
    keys, the positional 1-skeleton ``skeleton``, the counts ``f_vector``,
    ``dim``, ``component_count`` and ``euler_characteristic``, and
    ``moves_at`` and ``apply_move`` on id tuples, for :mod:`.diagrams`."""

    def __init__(self, graph: Graph, n: int, max_dim: int, levels: tuple,
                 index: BitIndex):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "max_dim", max_dim)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "index", index)

    def _key(self) -> tuple:
        return (self.graph, self.n, self.max_dim, self.levels)

    def level(self, d: int) -> dict:
        """The d-cube keys; empty above the top dimension."""
        return self.levels[d] if d < len(self.levels) else {}

    @cached_property
    def skeleton(self) -> tuple:
        """The 1-skeleton by position in ``levels[0]``: (neighbours, moves),
        where neighbours[i] lists the positions of the other ends of the
        1-cubes at 0-cube i, in ``levels[1]`` order, and moves[i] their edge
        bits.  A 1-cube with an end that is no 0-cube raises KeyError."""
        # positions, not masks: a |V|-bit mask hashes in time linear in |V|
        pos = {s: i for i, (_, s) in enumerate(self.levels[0])}
        nbrs, moves = [[] for _ in pos], [[] for _ in pos]
        ends = self.index.ends
        for (m, s) in self.level(1):
            u, v = ends[m]
            i, j = pos[s | u], pos[s | v]
            nbrs[i].append(j)
            nbrs[j].append(i)
            moves[i].append(m)
            moves[j].append(m)
        return nbrs, moves

    def f_vector(self) -> tuple:
        return tuple(len(level) for level in self.levels)

    def dim(self) -> int:
        return len(self.levels) - 1

    def component_count(self) -> int:
        """The number of components of the 1-skeleton."""
        nbrs = self.skeleton[0]
        return len(connected_components(range(len(nbrs)), nbrs))

    def moves_at(self, conf) -> tuple:
        """Edges of the graph with exactly one endpoint occupied."""
        ix = self.index
        return tuple(ix.edge[b] for b, _ in ix.moves(ix.mask(conf, ix.vbit)))

    def apply_move(self, conf, edge: Edge) -> tuple:
        ix = self.index
        return ix.ids(ix.mask(conf, ix.vbit) ^ ix.emask[ix.ebit[edge.id]])

    def euler_characteristic(self) -> int:
        if self.max_dim < self.n:
            raise PreconditionError(
                "Euler characteristic needs the full-dimensional complex")
        return sum((-1) ** d * len(level) for d, level in enumerate(self.levels))


def _matchings(edges: list, top: int):
    """(d, edge mask, vertex mask) of every set of 1..top pairwise disjoint
    edges from `edges`, a list of (edge bit, vertex mask) pairs; within
    each size, in the lexicographic order of their positions in `edges`."""
    # (next position, edge mask, vertex mask, size): the current path,
    # one frame per size below top
    stack = [(0, 0, 0, 0)] if top > 0 else []
    while stack:
        i, m, used, d = stack.pop()
        while i < len(edges) and edges[i][1] & used:
            i += 1
        if i < len(edges):
            stack.append((i + 1, m, used, d))
            b, em = edges[i]
            yield d + 1, m | b, used | em
            if d + 1 < top:
                stack.append((i + 1, m | b, used | em, d + 1))


def _admit(g: Graph, n: int, max_dim: Optional[int], cell_cap: int) -> None:
    """The refusals of ``build`` before any cube is enumerated."""
    if not g.is_simple():
        raise PreconditionError("build expects a normalized graph")
    if n < 0:
        raise PreconditionError("particle count must be >= 0")
    if max_dim is not None and max_dim < 0:
        raise PreconditionError("max_dim must be >= 0")
    if len(g.vertices) < n:
        raise PreconditionError(
            f"graph has {len(g.vertices)} vertices, cannot place {n} particles")
    if math.comb(len(g.vertices), n) > cell_cap:
        raise ResourceLimitError(
            f"{math.comb(len(g.vertices), n)} configurations exceed cap {cell_cap}")


def build(g: Graph, n: int, max_dim: Optional[int] = None,
          cell_cap: int = DEFAULT_CELL_CAP) -> CubeComplex:
    """Enumerate UC_n(g) up to dimension min(n, max_dim).

    The caller chooses whether to subdivide first; the complex is built
    for the graph exactly as given.
    """
    _admit(g, n, max_dim, cell_cap)
    top = n if max_dim is None else min(n, max_dim)

    ix = BitIndex(g)
    vbits = list(ix.vname)
    levels = [dict.fromkeys((0, sum(c)) for c in itertools.combinations(vbits, n))]
    levels += [{} for _ in range(top)]
    total = len(levels[0])
    # a d-cube spans n + d vertices, so none has d > |V| - n
    for d, m, used in _matchings(list(ix.emask.items()),
                                 min(top, len(vbits) - n)):
        level = levels[d]
        if d == n:
            level[(m, 0)] = None
            total += 1
        else:
            size = len(level)
            for c in itertools.combinations([b for b in vbits if not b & used], n - d):
                level[(m, sum(c))] = None
            total += len(level) - size
        if total > cell_cap:
            raise ResourceLimitError(f"cell count exceeds cap {cell_cap}")

    return CubeComplex(g, n, top, tuple(levels), ix)


def count_cubes(g: Graph, n: int, cell_cap: int = DEFAULT_CELL_CAP) -> tuple:
    """The f-vector of ``build(g, n, cell_cap=cell_cap)`` without building
    it; raises what that call raises, in the same order.

    A d-cube is a d-matching plus n - d of the |V| - 2d vertices off it,
    so f_0 = C(|V|, n) and f_d = m_d C(|V| - 2d, n - d), where m_d counts
    the d-matchings.  The matchings are enumerated as ``build`` does and
    the total checked against the cap after each; their stationary
    choices are only counted.
    """
    _admit(g, n, None, cell_cap)
    nv = len(g.vertices)
    vbit = {v: 1 << i for i, v in enumerate(g.vertices)}
    edges = [(1 << i, vbit[e.u] | vbit[e.v]) for i, e in enumerate(g.edges)]
    per = [math.comb(nv - 2 * d, n - d) for d in range(min(n, nv - n) + 1)]
    matchings = [1] + [0] * n
    total = per[0]
    for d, _, _ in _matchings(edges, len(per) - 1):
        matchings[d] += 1
        total += per[d]
        if total > cell_cap:
            raise ResourceLimitError(f"cell count exceeds cap {cell_cap}")
    return tuple(k * c for k, c in zip(matchings, per + [0] * n))


def euler_characteristic(x: CubeComplex) -> int:
    return x.euler_characteristic()


class NpcReport(NamedTuple):
    ok: bool
    failures: tuple  # (config key, tuple of move edge ids, missing cube label)

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
    ix = x.index
    failures = []

    for d in range(1, len(x.levels)):
        below = x.levels[d - 1]
        for (m, s) in x.levels[d]:
            for b in bits(m):
                for end in ix.ends[b]:
                    if (m ^ b, s | end) not in below:
                        corner = s | sum(ix.ends[c][0] for c in bits(m))
                        failures.append((ix.ids(corner), ix.label((m, s))[0],
                                         ix.label((m ^ b, s | end))))

    for (_, conf) in x.levels[0]:
        for k, m, used in _matchings(ix.moves(conf), x.n):
            if k >= 2 and (m, conf & ~used) not in x.levels[k]:
                key = ix.label((m, conf & ~used))
                failures.append((ix.ids(conf), key[0], key))

    return NpcReport(not failures, tuple(failures))


class SurfaceReport(NamedTuple):
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
    ix = x.index
    lengths = []
    for (_, conf) in x.levels[0]:
        moves = ix.moves(conf)
        if len(moves) < 3:
            return SurfaceReport(False, (), ix.ids(conf))
        adj = {b: [] for b, _ in moves}
        for (a, ea), (b, eb) in itertools.combinations(moves, 2):
            if not ea & eb and (a | b, conf & ~(ea | eb)) in x.levels[2]:
                adj[a].append(b)
                adj[b].append(a)
        # connected 2-regular graph on k vertices = single k-cycle
        if (any(len(nb) != 2 for nb in adj.values())
                or len(connected_components(adj, adj)) != 1):
            return SurfaceReport(False, (), ix.ids(conf))
        lengths.append(len(moves))
    return SurfaceReport(True, tuple(sorted(lengths)), None)
