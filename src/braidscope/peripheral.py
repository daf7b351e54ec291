"""Peripheral collections for two-particle relative hyperbolicity.

``check_peripheral_collection`` verifies the three sufficient conditions
for B_2(g) to be hyperbolic relative to the braid groups of a collection
of subgraphs (arXiv:1912.10674).  Only ``relhyp-check`` calls it, so it
lives apart from the classifier, which every ``analyze`` run loads.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

from .errors import InvariantError, PreconditionError
from .graph import Cycle, Graph, Subgraph, connected_components, idkey


class PeripheralReport(NamedTuple):
    cycle_pairs_covered: bool
    uncovered_pair: Optional[tuple]
    intersections_ok: bool
    bad_intersection: Optional[tuple]
    paths_ok: bool
    bad_path: Optional[tuple]
    all_proper: bool

    @property
    def valid(self) -> bool:
        return (self.cycle_pairs_covered and self.intersections_ok
                and self.paths_ok)

    @property
    def applies(self) -> bool:
        """Criterion verdict: relative hyperbolicity follows only when the
        conditions hold with proper members."""
        return self.valid and self.all_proper


def _subgraph_contains_cycle(sub: Subgraph, c: Cycle) -> bool:
    return (sub.vertices.issuperset(c.vertices)
            and sub.edge_ids.issuperset(c.edge_ids))


def _uncovered_cycle_pair(cycles, collection) -> Optional[tuple]:
    """The first vertex-disjoint pair of cycles, in combinations order,
    that no member contains, or None."""
    vertex_sets = [frozenset(c.vertices) for c in cycles]
    for i, (a, va) in enumerate(zip(cycles, vertex_sets)):
        for b, vb in zip(cycles[i + 1:], vertex_sets[i + 1:]):
            if va.isdisjoint(vb) and not any(
                    _subgraph_contains_cycle(s, a)
                    and _subgraph_contains_cycle(s, b) for s in collection):
                return a, b
    return None


def check_peripheral_collection(
        g: Graph, collection: Sequence[Subgraph]) -> PeripheralReport:
    """Verify the three sufficient conditions for two-particle relative
    hyperbolicity of a collection of subgraphs.

    1. every vertex-disjoint pair of simple cycles lies in one member;
    2. pairwise intersections are disjoint unions of segments;
    3. a reduced path between member vertices avoiding one of the
       member's cycles stays inside the member.
    """
    # looked up at call time, so that a name rebound in `graph` is seen
    from .graph import simple_cycles
    if not g.is_simple():
        raise PreconditionError("expects a normalized graph")
    cycles = simple_cycles(g)

    uncovered = _uncovered_cycle_pair(cycles, collection)
    bad_inter = None
    for s1, s2 in itertools.combinations(collection, 2):
        part = Subgraph(g, s1.vertices & s2.vertices,
                        s1.edge_ids & s2.edge_ids).as_graph()
        # disjoint segments: no cycle and no vertex of degree 3 or more
        if part.first_betti() or part.essential_vertices():
            bad_inter = s1, s2
            break

    bad_path = _path_missing_a_cycle(g, cycles, collection)
    return PeripheralReport(uncovered is None, uncovered, bad_inter is None,
                            bad_inter, bad_path is None, bad_path,
                            all(s.is_proper() for s in collection))


def _path_missing_a_cycle(g: Graph, cycles, collection) -> Optional[tuple]:
    """Condition 3: (member, path, cycle) for the first path that joins two
    member vertices outside the member and misses a member cycle, or None.
    Such a path is a non-member edge ab or runs through a component of g
    minus the member touching a and b; it misses the cycles off a and b."""
    for sub in collection:
        sub_cycles = [(c, c.vertex_set) for c in cycles
                      if _subgraph_contains_cycle(sub, c)]
        if not sub_cycles:
            continue
        where = {v: i for i, comp in enumerate(connected_components(
            g.vertices, g.adjacency, sub.vertices)) for v in comp}
        # what joins v to other member vertices: components, non-member edges
        joins = {v: {where.get(y, e.id) for y, e in g.adjacency[v].items()
                     if y in where or e.id not in sub.edge_ids}
                 for v in sub.vertices}
        for a, b in itertools.combinations(sorted(sub.vertices, key=idkey), 2):
            if not joins[a].isdisjoint(joins[b]):
                for c, vs in sub_cycles:
                    if a not in vs and b not in vs:
                        return sub, _first_path(g, sub, a, b), c
    return None


def _first_path(g: Graph, sub: Subgraph, a: str, b: str) -> tuple:
    """The first a-b path of a depth-first search over sorted neighbours
    whose interior avoids the member, other than the member's edge ab.  A
    vertex that failed to reach b fails from any later prefix too (g is
    undirected), so one visited set finds the enumeration's first path."""
    path, seen = [a], {a}
    adj = g.adjacency
    pending = [iter(adj[a])]   # unexplored neighbours per path vertex
    while pending:
        y = next(pending[-1], None)
        if y is None:
            pending.pop()
            path.pop()
        elif y == b and (len(path) > 1 or adj[a][b].id not in sub.edge_ids):
            return tuple(path + [b])
        elif y not in seen and y not in sub.vertices:
            seen.add(y)
            path.append(y)
            pending.append(iter(adj[y]))
    raise InvariantError("no path between a joined pair")
