"""Finite multigraphs viewed as one-dimensional CW-complexes.

A graph here is an immutable value: a sorted tuple of vertex ids and a
sorted tuple of edges.  Ids are strings; the canonical order is
``(len(id), id)`` so that numeric labels sort naturally (``"2" < "10"``).
Loops and parallel edges are permitted on input; :func:`normalize`
subdivides them away, and :func:`smooth` goes the other way, suppressing
degree-2 vertices down to the minimal multigraph of the same
homeomorphism type.  Shape detection and the first Betti number feed the
braid-group classification layer.

Generated ids (subdivision points, smoothing merges) contain ``#`` or
``~``.  :meth:`Graph.make` refuses those characters in the ids it is
given, so generated ids never collide with input labels; the functions
here that generate them, or copy ids from a graph that may hold them,
build through the unchecked ``Graph._make``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import PreconditionError, ResourceLimitError

DEFAULT_CYCLE_CAP = 10**6
SUBDIVIDE_PASS_CAP = 10**4   # subdivide_for refuses to add this many vertices


def idkey(x: str):
    """Canonical sort key for vertex/edge ids."""
    return (len(x), x)


def connected_components(vertices, adj, banned=()) -> tuple:
    """Vertex sets of the components of a graph given by adjacency.

    ``adj`` maps each vertex to its neighbours (a list will do when the
    vertices are positions 0..k-1).  Vertices in ``banned``
    are left out together with their edges.  Components come as
    frozensets, in the order of their first vertex in ``vertices``.
    """
    seen = set(banned)
    comps = []
    for start in vertices:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return tuple(comps)


class Frozen:
    """Base of the immutable values that a NamedTuple cannot model (an
    instance dict for ``cached_property``, a check on input, a field that
    equality ignores).  Instances of one class are equal when their
    ``_key()`` tuples are, and hash as that tuple; ``__init__`` sets the
    fields through ``object.__setattr__``, and later assignment or
    deletion raises AttributeError.  The fields live in the instance
    dict, which copy and pickle restore without assigning (slots would
    be restored through ``setattr``, which raises)."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class Edge(NamedTuple):
    id: str
    u: str
    v: str

    def endpoints(self) -> frozenset:
        return frozenset((self.u, self.v))

    def is_loop(self) -> bool:
        return self.u == self.v

    def touches(self, other: "Edge") -> bool:
        return bool(self.endpoints() & other.endpoints())


class Graph(Frozen):
    """Immutable multigraph; use :meth:`make` to get canonical ordering."""

    def __init__(self, vertices: tuple, edges: tuple):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def _key(self) -> tuple:
        return (self.vertices, self.edges)

    @staticmethod
    def make(vertices: Iterable[str], edges: Iterable[tuple]) -> "Graph":
        """Canonical graph on user ids; ids may not contain ``#`` or ``~``."""
        vertices = [str(v) for v in vertices]
        edges = [(str(eid), str(u), str(v)) for eid, u, v in edges]
        for x in vertices + [eid for eid, _, _ in edges]:
            if "#" in x or "~" in x:
                raise PreconditionError(
                    f"id {x!r} contains a reserved character (# or ~)")
        return Graph._make(vertices, edges)

    @staticmethod
    def _make(vertices: Iterable[str], edges: Iterable[tuple]) -> "Graph":
        """:meth:`make` without the reserved-character check."""
        vs = tuple(sorted({str(v) for v in vertices}, key=idkey))
        es = []
        seen = set()
        for eid, u, v in edges:
            eid, u, v = str(eid), str(u), str(v)
            if eid in seen:
                raise PreconditionError(f"duplicate edge id {eid!r}")
            seen.add(eid)
            es.append(Edge(eid, u, v))
        vset = set(vs)
        for e in es:
            if e.u not in vset or e.v not in vset:
                raise PreconditionError(f"edge {e.id!r} has unknown endpoint")
        es.sort(key=lambda e: idkey(e.id))
        return Graph(vs, tuple(es))

    # -- basic views ---------------------------------------------------

    @cached_property
    def edge_by_id(self) -> dict:
        return {e.id: e for e in self.edges}

    @cached_property
    def incidence(self) -> dict:
        """vertex -> tuple of incident edges (loops listed once)."""
        inc = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.u].append(e)
            if not e.is_loop():
                inc[e.v].append(e)
        return {v: tuple(lst) for v, lst in inc.items()}

    def degree(self, v: str) -> int:
        """Topological degree; a loop contributes 2."""
        d = 0
        for e in self.incidence[v]:
            d += 2 if e.is_loop() else 1
        return d

    @cached_property
    def adjacency(self) -> dict:
        """vertex -> sorted tuple of distinct neighbours (loops left out)."""
        outs = {v: set() for v in self.vertices}
        for e in self.edges:
            if not e.is_loop():
                outs[e.u].add(e.v)
                outs[e.v].add(e.u)
        return {v: tuple(sorted(nb, key=idkey)) for v, nb in outs.items()}

    def neighbors(self, v: str) -> tuple:
        return self.adjacency[v]

    @cached_property
    def _memo(self) -> dict:
        """Per-instance results derived from the value: the components,
        the cycles of simple_cycles, the Shape of classify_shape and the
        word piler of the diagrams module.  Not a field, so eq and hash
        ignore it."""
        return {}

    def is_simple(self) -> bool:
        seen = set()
        for e in self.edges:
            if e.is_loop():
                return False
            key = frozenset((e.u, e.v))
            if key in seen:
                return False
            seen.add(key)
        return True

    @cached_property
    def simple_adjacency(self) -> dict:
        """vertex -> neighbor -> edge, valid on simple graphs only."""
        adj = {v: {} for v in self.vertices}
        for e in self.edges:
            adj[e.u][e.v] = e
            adj[e.v][e.u] = e
        return adj

    def components(self) -> tuple:
        """Connected components as sorted tuples of vertices."""
        comps = self._memo.get("components")
        if comps is None:
            comps = self._memo["components"] = tuple(
                tuple(sorted(comp, key=idkey)) for comp in
                connected_components(self.vertices, self.adjacency))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def essential_vertices(self) -> tuple:
        """Vertices of degree >= 3 (unchanged by subdivision)."""
        return tuple(v for v in self.vertices if self.degree(v) >= 3)

    def first_betti(self) -> int:
        return len(self.edges) - len(self.vertices) + len(self.components())

    def induced(self, vertices) -> "Subgraph":
        vset = frozenset(vertices)
        eids = frozenset(
            e.id for e in self.edges if e.u in vset and e.v in vset
        )
        return Subgraph(self, vset, eids)

    def full_subgraph(self, edge_ids) -> "Subgraph":
        """Smallest subgraph containing the given edges."""
        eids = frozenset(edge_ids)
        vs = set()
        for eid in eids:
            e = self.edge_by_id[eid]
            vs.add(e.u)
            vs.add(e.v)
        return Subgraph(self, frozenset(vs), eids)

    def fingerprint(self) -> str:
        parts = ["V:" + ",".join(self.vertices)]
        parts += [f"E:{e.id}:{e.u}:{e.v}" for e in self.edges]
        return ";".join(parts)


class Subgraph(Frozen):
    """A subgraph closed under endpoints, referencing its parent."""

    def __init__(self, parent: Graph, vertices: frozenset, edge_ids: frozenset):
        by_id = parent.edge_by_id
        for eid in edge_ids:
            e = by_id.get(eid)
            if e is None:
                raise PreconditionError(f"unknown edge {eid!r} in subgraph")
            if e.u not in vertices or e.v not in vertices:
                raise PreconditionError(f"subgraph not closed under endpoints at {eid!r}")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edge_ids", edge_ids)

    def _key(self) -> tuple:
        return (self.parent, self.vertices, self.edge_ids)

    def as_graph(self) -> Graph:
        by_id = self.parent.edge_by_id
        return Graph._make(
            self.vertices,
            [(eid, by_id[eid].u, by_id[eid].v) for eid in self.edge_ids],
        )

    def first_betti(self) -> int:
        return self.as_graph().first_betti()

    def is_proper(self) -> bool:
        return (self.vertices != frozenset(self.parent.vertices)
                or self.edge_ids != frozenset(e.id for e in self.parent.edges))


class Cycle(NamedTuple):
    """A simple cycle in canonical rotation.

    ``vertices[0]`` is the least vertex of the cycle and ``vertices[1]``
    the lesser of its two cycle neighbors; ``edge_ids[i]`` joins
    ``vertices[i]`` to ``vertices[(i+1) % k]``.
    """

    vertices: tuple
    edge_ids: tuple

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)


# -- shape taxonomy ----------------------------------------------------

SEGMENT = "segment"
CYCLE = "cycle"
STAR = "star"
THETA = "theta"
HGRAPH = "h_graph"
CYCLE_TWO_RAYS = "cycle_two_rays"
ROSE = "rose"
SUN = "sun"
PULSAR = "pulsar"
TREE = "tree"
GENERAL = "general"

SHAPE_PRECEDENCE = (
    SEGMENT, CYCLE, STAR, THETA, HGRAPH, CYCLE_TWO_RAYS,
    ROSE, SUN, PULSAR, TREE, GENERAL,
)


class Shape(Frozen):
    """Precedence tag plus the full set of class memberships.

    The tag is the first matching class in the fixed precedence order
    and is what reports display; theorem predicates consult
    ``memberships`` because the classes overlap (a single cycle is also
    a rose, a sun and a pulsar).  ``detail`` is left out of eq and hash.
    """

    def __init__(self, tag: str, memberships: frozenset, detail: Mapping = None):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "memberships", memberships)
        # read-only: classify_shape hands one memoised Shape to every caller
        object.__setattr__(self, "detail", MappingProxyType(dict(detail or {})))

    def _key(self) -> tuple:
        return (self.tag, self.memberships)

    def __reduce__(self):   # a mappingproxy cannot be pickled or copied
        return (Shape, (self.tag, self.memberships, dict(self.detail)))

    def is_a(self, cls: str) -> bool:
        return cls in self.memberships


def normalize(g: Graph) -> Graph:
    """Subdivide every loop twice and every parallel edge once.

    The result is a simple graph homeomorphic to the input; simple
    inputs come back unchanged.
    """
    if g.is_simple():
        return g
    # every member of a parallel family counts as "a parallel edge"
    ends = Counter(e.endpoints() for e in g.edges)
    parallels = {e for e in g.edges if ends[e.endpoints()] > 1}

    vertices = list(g.vertices)
    edges = []
    for e in g.edges:
        if e.is_loop() or e in parallels:
            # new edges end at fresh vertices named after them: one pass will do
            inner, path = _subdivided(e, 2 if e.is_loop() else 1)
            vertices += inner
            edges += path
        else:
            edges.append((e.id, e.u, e.v))
    return Graph._make(vertices, edges)


def _subdivided(e: Edge, times: int) -> tuple:
    """Interior vertex ids and edge triples of the path replacing e."""
    chain = [e.u] + [f"{e.id}#s{i}" for i in range(1, times + 1)] + [e.v]
    return chain[1:-1], [(f"{e.id}#p{i}", chain[i], chain[i + 1])
                         for i in range(len(chain) - 1)]


def subdivide_all(g: Graph, times: int) -> Graph:
    """Subdivide every edge the same number of times, in one Graph._make."""
    if times < 1:
        return g
    vertices, edges = list(g.vertices), []
    for e in g.edges:
        inner, path = _subdivided(e, times)
        vertices += inner
        edges += path
    return Graph._make(vertices, edges)


def _split_least(edges, times: int, vertices: list, out: list):
    """Split the least of `edges` in id order `times` times, in two halves
    that go back into the running; append the new vertices to `vertices`
    and the edge triples left at the end to `out`.

    The halves ``{id}#p0`` and ``{id}#p1`` sort after the edge they
    replace, so the edges wait in a heap keyed by ``idkey``.
    """
    # imported here: only subdivide_for splits, and a top-level import
    # would add its start-up time to every CLI run
    import heapq

    heap = [(idkey(e.id), e) for e in edges]
    heapq.heapify(heap)
    for _ in range(times):
        inner, path = _subdivided(heapq.heappop(heap)[1], 1)
        vertices += inner
        for eid, u, v in path:
            heapq.heappush(heap, (idkey(eid), Edge(eid, u, v)))
    out += [(e.id, e.u, e.v) for _, e in heap]


def subdivide_for(g: Graph, n: int) -> Graph:
    """Subdivide until the complex UC_n faithfully models the braid group.

    Ensures: at least ``n`` vertices on every component with an edge
    (any one of them may get all n particles), every path from an
    essential vertex to another vertex of degree other than two (branch
    point or leaf) has length >= n-1, and every simple cycle has length
    >= n+1.  Leaf arcs matter: on the minimal three-arm star with three
    particles the discrete complex is a tree even though the braid
    group is free of rank three, and arm length n-1 is exactly where
    the homology stabilises.  Compliant graphs come back unchanged.

    A component with too few vertices first has its least edge in id
    order split until it has n.  Then each branch (:func:`_branches`)
    has its least edge split until it has its quota: n+1 edges if it
    closes on itself (a circle, or a loop branch at an essential
    vertex), n-1 if an end is essential, none otherwise.  A too-short
    path between two such ends runs along branches with an essential
    end, and once those have n-1 edges, a cycle through two essential
    vertices has 2n-2 >= n+1 of them when n >= 3 (every simple cycle
    has 3 >= n+1 when n <= 2).  So the result is the graph that
    splitting the least edge of one too-short path or cycle per pass
    would give, and the cap counts the vertices those passes add.
    """
    if not g.is_simple():
        raise PreconditionError("subdivide_for expects a normalized graph")
    if n < 0:
        raise PreconditionError("particle count must be >= 0")
    if not g.edges and len(g.vertices) < n:
        raise PreconditionError(
            f"cannot host {n} particles on an edgeless graph")
    # in a simple graph a component has an edge iff it has 2+ vertices;
    # each vertex a small one lacks counts against the cap, so refuse
    # before any split if they alone reach it
    small = [c for c in g.components() if 1 < len(c) < n]
    lacking = sum(n - len(c) for c in small)
    if lacking >= SUBDIVIDE_PASS_CAP:
        raise ResourceLimitError("subdivide_for did not converge")
    if small:
        where = {v: i for i, c in enumerate(small) for v in c}
        grouped = [[] for _ in small]
        vertices, edges = list(g.vertices), []
        for e in g.edges:
            i = where.get(e.u)
            if i is None:
                edges.append((e.id, e.u, e.v))
            else:
                grouped[i].append(e)
        for c, es in zip(small, grouped):
            _split_least(es, n - len(c), vertices, edges)
        g = Graph._make(vertices, edges)
    inc = g.incidence
    branches = _branches(g)[1]
    # the splits each branch lacks to reach its quota
    splits = [max(0, (n + 1 if start == end else
                      n - 1 if len(inc[start]) >= 3 or len(inc[end]) >= 3
                      else 0) - len(walk))
              for start, end, walk in branches]
    if lacking + sum(splits) >= SUBDIVIDE_PASS_CAP:
        raise ResourceLimitError("subdivide_for did not converge")
    if not any(splits):
        return g
    vertices, edges = list(g.vertices), []
    for (_, _, walk), times in zip(branches, splits):
        _split_least(walk, times, vertices, edges)
    return Graph._make(vertices, edges)


def _branches(g: Graph) -> tuple:
    """The kept vertices of `g` and its branches as (start, end, edges).

    Every vertex but a plain degree-2 one (two edges, neither a loop) is
    kept, and from each kept vertex every unused edge is walked through
    plain vertices to the next kept vertex; ``edges`` lists the Edges in
    walk order.  A component that is a bare circle keeps its least
    vertex, and its branch starts and ends there.
    """
    inc = g.incidence
    plain = {v for v, es in inc.items()
             if len(es) == 2 and not (es[0].is_loop() or es[1].is_loop())}
    kept, branches, used = [], [], set()
    # kept vertices first, so a plain vertex left unwalked is on a circle
    for v in sorted(g.vertices, key=plain.__contains__):
        if v in plain and inc[v][0].id in used:
            continue
        kept.append(v)
        for first in inc[v]:
            if first.id in used:
                continue
            used.add(first.id)
            walk, e = [first], first
            end = e.v if e.u == v else e.u
            while end in plain and end != v:
                a, b = inc[end]
                e = b if a is e else a
                used.add(e.id)
                walk.append(e)
                end = e.v if e.u == end else e.u
            branches.append((v, end, walk))
    return kept, branches


def smooth(g: Graph) -> Graph:
    """Suppress degree-2 vertices down to the minimal homeomorphic multigraph.

    One pass over the branches (:func:`_branches`): each becomes one edge
    ``(id~id~...)`` between its kept ends, and an edge with nothing to
    merge keeps its id and ends.  A component that is a bare circle keeps
    its least vertex, carrying one loop.  Loops and parallel edges may
    appear, graphs that are already minimal come back equal, and
    disconnected graphs are fine.
    """
    kept, branches = _branches(g)
    return Graph._make(kept, [
        (walk[0].id, walk[0].u, walk[0].v) if len(walk) == 1
        else (f"({'~'.join(e.id for e in walk)})", start, end)
        for start, end, walk in branches])


# -- membership predicates on the smoothed multigraph -------------------

def _shape_memberships(m: Graph) -> tuple:
    """Shape classes of a smoothed multigraph, plus details, read from its
    degrees.  Hubs are the vertices that are not leaves.  The classes
    describe connected graphs; a disconnected one is in TREE if it is a
    forest and in no other class."""
    nv, ne, parts = len(m.vertices), len(m.edges), len(m.components())
    b1 = ne - nv + parts
    classes, detail = ({TREE} if b1 == 0 else set()), {}
    if parts > 1:
        return classes, detail
    degs = sorted(m.degree(v) for v in m.vertices)
    loops = sum(e.is_loop() for e in m.edges)
    inner = {v: 0 for v in m.vertices if m.degree(v) != 1}   # ends at hubs
    for e in m.edges:
        if e.u in inner and e.v in inner:
            inner[e.u] += 1
            inner[e.v] += 1
    if nv <= 2 and ne <= 1 and not loops:
        classes.add(SEGMENT)
    if degs == [2]:   # smoothed, a lone degree-2 vertex carries a loop
        classes |= {CYCLE, PULSAR}
    if b1 == 0 and len(inner) == 1 and degs[-1] >= 3:
        classes.add(STAR)
        detail["arms"] = degs[-1]
    if degs == [3, 3] and not loops:
        classes.add(THETA)
    if degs == [1, 1, 1, 1, 3, 3]:   # connected, so a tree: two hubs, a bridge
        classes.add(HGRAPH)
    if nv and len(inner) <= 1:   # every edge is a loop or a ray at one hub
        classes.add(ROSE)
        detail.update(rose_cycles=loops, rose_rays=ne - loops)
    if b1 == 1 and min(inner.values()) >= 2:   # every hub on the cycle
        classes.add(SUN)
        if degs == [1, 1, 3, 3]:
            classes.add(CYCLE_TWO_RAYS)
    if len(inner) == 2 and not loops and b1 >= 1:   # parallel arcs, rays
        classes.add(PULSAR)
    return classes, detail


def classify_shape(g: Graph) -> Shape:
    """Shape of the smoothed graph under the fixed precedence order.

    The classes describe connected graphs and are read from the degrees,
    loops and first Betti number of the smoothed multigraph.  A
    disconnected graph is in TREE when it is a forest and in no other
    class, so its tag is TREE or GENERAL whatever its labels.  Memoised
    on the graph instance: g is smoothed once, and later calls return
    the same Shape.
    """
    shape = g._memo.get("shape")
    if shape is None:
        m = smooth(g)
        classes, detail = _shape_memberships(m)
        tag = next((t for t in SHAPE_PRECEDENCE if t in classes), GENERAL)
        detail["smoothed_vertices"] = len(m.vertices)
        shape = g._memo["shape"] = Shape(tag, frozenset(classes), detail)
    return shape


def simple_cycles(g: Graph) -> "Cycles":
    """All simple cycles of a normalized graph, shortest first, as a lazy
    read-only sequence (:class:`Cycles`) memoised on the graph instance.

    The order is by length, then by the cycle's vertex ids sorted by
    ``idkey`` (those tuples compared as strings), then by the vertex
    tuple of its canonical rotation: the least vertex first, and the
    second vertex below the last.  Iterative backtracking rooted at the
    least vertex of each cycle, over the 2-core left once the earlier
    roots are deleted, so trees and hanging trees are never searched
    and long cycles need no deep recursion.  It fills in two batches, a
    search bounded at depth 4 for the cycles of length <= 4 and one
    unbounded search for the rest, and only as far as it is read:
    iteration and ``[k]`` with k >= 0 stop there, while ``len``,
    negative indices, slices and ``==`` drain it.  A fill past
    ``DEFAULT_CYCLE_CAP`` cycles raises ResourceLimitError and evicts
    the memo, so an enumeration that raises caches nothing.
    """
    cycles = g._memo.get("cycles")
    if cycles is None:
        if not g.is_simple():
            raise PreconditionError("simple_cycles expects a normalized graph")
        cycles = g._memo["cycles"] = Cycles(g)
    return cycles


class Cycles(Sequence):
    """The cycles of :func:`simple_cycles`, enumerated batch by batch as
    they are read."""

    def __init__(self, g: Graph):
        self._g, self._found = g, []
        self._batches = _cycle_batches(g, DEFAULT_CYCLE_CAP)

    def _fill(self) -> bool:
        """Append the next batch; False once every cycle is in."""
        try:
            self._found += next(self._batches)
            return True
        except StopIteration:
            return False
        except ResourceLimitError:   # evict; a later read starts afresh
            if self._g._memo.get("cycles") is self:
                del self._g._memo["cycles"]
            self._found, self._batches = [], _cycle_batches(self._g, DEFAULT_CYCLE_CAP)
            raise

    def __iter__(self):
        i = 0
        while i < len(self._found) or self._fill():
            yield self._found[i]
            i += 1

    def __len__(self) -> int:
        while self._fill():
            pass
        return len(self._found)

    def __getitem__(self, k):
        while not (isinstance(k, int) and 0 <= k < len(self._found)) and self._fill():
            pass
        return tuple(self._found[k]) if isinstance(k, slice) else self._found[k]

    def __eq__(self, other):   # also makes Cycles unhashable, like a list
        return tuple(self) == (tuple(other) if isinstance(other, Cycles) else other)

    def __reduce__(self):   # a copy starts unfilled: a generator cannot be copied
        return Cycles, (self._g,)


def _cycle_batches(g: Graph, cap: int):
    """The cycles of length <= 4, then the longer ones, each batch sorted
    and left out when empty."""
    order = {v: i for i, v in enumerate(g.vertices)}
    eid = {a: {b: e.id for b, e in nb.items()}
           for a, nb in g.simple_adjacency.items()}
    # neighbour sets as dicts, which keep the canonical adjacency order
    core = {v: dict.fromkeys(nb) for v, nb in g.adjacency.items()}

    def drop(live, v):   # delete v, then every vertex left with < 2 neighbours
        stack = [v]
        while stack:
            x = stack.pop()
            if x in live:
                for y in live.pop(x):
                    del live[y][x]
                    if len(live[y]) < 2:
                        stack.append(y)

    for v in g.vertices:
        if v in core and len(core[v]) < 2:
            drop(core, v)
    left = cap   # cycles that may still be found
    # each cycle's ids sorted by position, which is idkey order, then
    # compared as strings: the order of the key (len, sorted(ids,
    # key=idkey), vertices) with no idkey call
    at = order.__getitem__
    for least, most in ((3, 4), (5, len(core))):
        live = {v: dict(nb) for v, nb in core.items()}
        found = []
        for start in g.vertices:
            if start not in live:
                continue
            # live holds the 2-core of g minus the earlier roots; pending
            # holds the unexplored neighbours of each path vertex
            path, on_path, pending = [start], {start}, [iter(live[start])]
            while pending:
                for y in pending[-1]:
                    if y == start:
                        # canonical direction: second vertex below last vertex
                        if len(path) >= least and order[path[1]] < order[path[-1]]:
                            found.append(Cycle(tuple(path), tuple(
                                [eid[a][b] for a, b in zip(path, path[1:] + path[:1])])))
                            if len(found) > left:
                                raise ResourceLimitError(
                                    f"cycle count exceeds cap {cap}")
                    elif len(path) < most and y not in on_path:
                        path.append(y)
                        on_path.add(y)
                        pending.append(iter(live[y]))
                        break
                else:
                    pending.pop()
                    on_path.remove(path.pop())
            drop(live, start)
        left -= len(found)
        found.sort(key=lambda c: (
            len(c.vertices), tuple(sorted(c.vertices, key=at)), c.vertices))
        if found:
            yield found


def first_betti(x) -> int:
    """|E| - |V| + #components for a Graph or Subgraph."""
    return x.first_betti()
