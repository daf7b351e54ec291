"""Deciding when a graph braid group is trivial, cyclic, free,
hyperbolic, toral relatively hyperbolic or acylindrically hyperbolic.

Two independent routes are implemented for the headline properties.
The fast path evaluates the classification criteria directly on the
graph: shape memberships for three or more particles, cycle and
complement-component predicates for two and three.  The oracle route
replays the structure of the proofs: it hunts for a pair of disjoint
subgraphs whose braid groups are respectively nontrivial/nontrivial
(destroying hyperbolicity) or free-containing/nontrivial (producing
F2 x Z), over a doubly subdivided copy of the graph so that subgraphs
may legitimately keep half-edges toward deleted material.  The two
routes are checked against each other exhaustively in the test suite.

The criteria are existence statements, so each fast predicate and the
oracle scan the cycles until the first hit, in the order of
``simple_cycles``, which is shortest first: a short cycle leaves the
largest complement, so a hit, if there is one, comes early, while a
long cycle leaves almost nothing.  The order decides only which witness
is returned, never the verdict, since a scan with no hit reads every
cycle in any order.  The sequence fills as it is read, the cycles of
length <= 4 first and the rest only when a scan reads past them, so a
scan pays only for the prefix it reads; one with no hit drains it, and
that is when the cycle cap can fire.  The oracle's star scans read no
cycles.

A vertex v is off some cycle iff b1(g - v) >= 1.  The vertex questions
(freeness, obstructions (b) and (d)) read one table from one depth-first
search: b1(g - v) = b1(g) - deg(v) + pieces(v), where pieces(v) counts
the components that v's component falls into without v.

The predicates take one connected graph and a particle count; the
product over components lives in ``_combine``.  A connected graph's
braid group is trivial, infinite cyclic or acylindrically hyperbolic
(arXiv:1912.10674), and an acylindrically hyperbolic group contains F2,
so F2 is read off the first two verdicts.

Disjoint always means vertex-disjoint; degrees of original vertices are
preserved by subdivision, which is what makes the complement trick
sound.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Optional

from .errors import InvariantError, PreconditionError, ResourceLimitError
from .graph import (
    CYCLE, CYCLE_TWO_RAYS, HGRAPH, PULSAR, ROSE, SEGMENT, STAR, SUN, THETA,
    TREE, Cycle, Graph, classify_shape, connected_components, normalize,
    simple_cycles, subdivide_all, subdivision_points,
)

ORACLE_SMOOTH_VERTEX_CAP = 15
ASSIGNMENT_CAP = 10**5


# -- elementary verdict helpers -----------------------------------------

def _component_graphs(g: Graph) -> tuple:
    """One graph per component; a connected g comes back as itself, so
    its cached cycles serve every caller."""
    comps = g.components()
    if len(comps) == 1:
        return (g,)
    return tuple(g.induced(comp).as_graph() for comp in comps)


def assignments(g: Graph, n: int) -> tuple:
    """Every way to spread n particles over the components, as tuples of
    counts in component order, in lexicographic order.

    Stars and bars: each choice of k-1 bar positions among n+k-1 slots
    is one composition of n into k parts.
    """
    k = len(g.components())
    if n < 0 or k == 0:
        return ((),) if n == k == 0 else ()
    if k == 1:   # combinations() would first copy all n slots
        return ((n,),)
    total = math.comb(n + k - 1, k - 1)
    if total > ASSIGNMENT_CAP:
        raise ResourceLimitError(
            f"{total} particle assignments exceed cap {ASSIGNMENT_CAP}")
    outs = []
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        ends = (-1,) + bars + (n + k - 1,)
        outs.append(tuple(b - a - 1 for a, b in zip(ends, ends[1:])))
    return tuple(outs)


def _require_component(g: Graph, n: int) -> None:
    """The precondition of every per-component predicate below."""
    if not g.is_connected():
        raise PreconditionError("expects a connected graph")
    if n < 0:
        raise PreconditionError("particle count must be >= 0")


def is_trivial(g: Graph, n: int) -> bool:
    """No particles, one particle on a tree, or two or more on a segment
    (a lone vertex counts as one)."""
    _require_component(g, n)
    if n <= 1:
        return n == 0 or g.first_betti() == 0
    return classify_shape(g).is_a(SEGMENT)


def is_infinite_cyclic(g: Graph, n: int) -> bool:
    """Z for one particle on a single cycle class, for two particles on a
    cycle or a three-arm star, and for three or more only on a cycle."""
    _require_component(g, n)
    if n <= 1:
        return n == 1 and g.first_betti() == 1
    shape = classify_shape(g)
    return shape.is_a(CYCLE) or (
        n == 2 and shape.is_a(STAR) and shape.detail["arms"] == 3)


# -- disjoint-cycle machinery -------------------------------------------

def _complement(g: Graph, banned) -> Iterator[tuple]:
    """(vertex set, b1) of each component of a simple graph minus a vertex
    set; a component's edges are half its degree sum inside it."""
    adj = g.adjacency
    for comp in connected_components(g.vertices, adj, banned):
        edges = sum(1 for x in comp for y in adj[x] if y in comp) // 2
        yield comp, edges - len(comp) + 1


def _betti_without(g: Graph) -> dict:
    """v -> b1(g - v) for every vertex of a simple graph, in vertex order,
    by the low-point search of J. Hopcroft & R. Tarjan (CACM 16 (1973),
    Algorithm 447): pieces(v) counts the DFS children c with low(c) >=
    disc(v), plus one for the part above v when v is not a root."""
    adj = g.adjacency
    disc, low, pieces = {}, {}, {}
    for root in g.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        pieces[root] = 0
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for y in nbrs:
                if y not in disc:
                    disc[y] = low[y] = len(disc)
                    pieces[y] = 1
                    stack.append((y, v, iter(adj[y])))
                    break
                if y != parent:
                    low[v] = min(low[v], disc[y])
            else:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    pieces[parent] += low[v] >= disc[parent]
    b1 = g.first_betti()
    return {v: b1 - len(adj[v]) + pieces[v] for v in g.vertices}


def _first_cycle_in(cycles, comp: frozenset) -> Cycle:
    return next(d for d in cycles if comp.issuperset(d.vertices))


def disjoint_cycle_pair(g: Graph) -> Optional[tuple]:
    """A vertex-disjoint pair of simple cycles, or None.

    A pair exists iff the complement of some cycle still carries a
    cycle, so the scan is linear in the number of cycles.  It runs
    shortest first and returns a pair whose first cycle is a shortest
    one with a cycle in its complement, and whose second is a shortest
    cycle there; with no pair, every cycle is read, so the verdict does
    not depend on the order.
    """
    cycles = simple_cycles(g)
    for c in cycles:
        for comp, b1 in _complement(g, c.vertex_set):
            if b1 >= 1:
                return (c, _first_cycle_in(cycles, comp))
    return None


def essential_vertex_off_cycle(g: Graph) -> Optional[tuple]:
    """(v, component) for the least essential vertex v off some simple
    cycle, with the first component of g - v that has a cycle, or None."""
    if not g.is_simple():
        raise PreconditionError("expects a normalized graph")
    without = _betti_without(g)
    for v in g.essential_vertices():
        if without[v] >= 1:
            return (v, next(c for c, k in _complement(g, (v,)) if k >= 1))
    return None


def is_hyperbolic(g: Graph, n: int) -> tuple:
    """(verdict, witness) following the per-n characterisation.

    No particle or one is always free; two exclude a disjoint cycle
    pair; three demand a tree, sun, rose or pulsar; four or more a rose.
    """
    _require_component(g, n)
    if n <= 1:
        return (True, "free fundamental group")
    if n == 2:
        pair = disjoint_cycle_pair(g)
        return (pair is None, pair)
    shape = classify_shape(g)
    if n == 3:
        ok = any(shape.is_a(t) for t in (TREE, SUN, ROSE, PULSAR))
        return (ok, shape)
    return (shape.is_a(ROSE), shape)


def is_hyperbolic_by_obstructions(g: Graph, n: int) -> bool:
    """The equivalent obstruction form: none for no particle or one (a
    free group), no disjoint cycle pair for two, for three also no
    essential vertex off a cycle, for four or more at most one essential
    vertex."""
    _require_component(g, n)
    if n <= 1:
        return True
    if disjoint_cycle_pair(g) is not None:
        return False
    if n == 2:
        return True
    if essential_vertex_off_cycle(g) is not None:
        return False
    if n == 3:
        return True
    return len(g.essential_vertices()) <= 1


def contains_f2xz(g: Graph, n: int) -> tuple:
    """(verdict, witness) for an F2 x Z subgroup, connected graphs.

    None for at most one particle.  Two particles: a cycle whose
    complement keeps a component of first Betti number two.  Three: the
    five obstruction patterns.  Four: anything but rose / H /
    cycle-with-two-rays / theta.  Five and up: anything but a rose.  The
    two- and three-particle scans read the cycles shortest first and stop
    at the first hit, so a cycle in the witness is a shortest one that
    gives a hit; a negative scan reads every cycle, so the verdict does
    not depend on the order.
    """
    _require_component(g, n)
    if n <= 1:
        return (False, None)
    if n == 2:
        for c in simple_cycles(g):
            for comp, b1 in _complement(g, c.vertex_set):
                if b1 >= 2:
                    return (True, ("cycle with b1>=2 complement", c, comp))
        return (False, None)
    if n == 3:
        witness = _f2xz_obstruction_n3(g)
        return (witness is not None, witness)
    shape = classify_shape(g)
    if n == 4:
        ok_shapes = (ROSE, HGRAPH, CYCLE_TWO_RAYS, THETA)
        if any(shape.is_a(t) for t in ok_shapes):
            return (False, None)
        return (True, ("shape outside the four-particle list", shape.tag))
    if shape.is_a(ROSE):
        return (False, None)
    return (True, ("not a rose", shape.tag))


def _f2xz_obstruction_n3(g: Graph) -> Optional[tuple]:
    """First matching three-particle obstruction, or None.

    (a) a cycle with a complement component of first Betti number >= 2;
    (b) a degree->=4 vertex off some cycle;
    (c) a cycle with a complement component holding two essential vertices;
    (d) an essential vertex whose complement has a b1 >= 2 component;
    (e) a cycle disjoint from a cycle through an essential vertex.

    A pass over the cycles, shortest first, looks for (a), (c) and (e);
    then the essential vertices, in vertex order, for (d) and (b).

    A component K of g - c with a cycle that is neither (a) nor (c) is
    (e): K has one cycle c2, an edge joins K to c as g is connected, and
    a path in K from c2 to that edge leaves c2 at a vertex of degree >= 3,
    K's only essential vertex as K is not (c).  So a pass with no hit met
    no disjoint cycles, g - v has at most one component with a cycle, and
    b1(g - v) alone decides (d) and (b).
    """
    ess = g.essential_vertices()
    cycles = simple_cycles(g)
    for c in cycles:
        for comp, b1 in _complement(g, c.vertex_set):
            if b1 >= 2:
                return ("a", c, comp)
            if len(comp.intersection(ess)) >= 2:
                return ("c", c, comp)
            if b1 >= 1:
                return ("e", c, _first_cycle_in(cycles, comp))
    without = _betti_without(g)
    for v in ess:
        b1 = without[v]
        if b1 >= 2 or (b1 == 1 and g.degree(v) >= 4):
            return ("d" if b1 >= 2 else "b", v,
                    next(c for c, k in _complement(g, (v,)) if k >= 1))
    return None


def is_toral_rel_hyp(g: Graph, n: int) -> tuple:
    """(verdict, witness): hyperbolic relative to free abelian subgroups,
    which for these groups is exactly the absence of F2 x Z."""
    has, witness = contains_f2xz(g, n)
    return (not has, witness)


def acyl_hyp_status(g: Graph, n: int) -> str:
    """'trivial', 'infinite_cyclic' or 'acylindrically_hyperbolic'."""
    if is_trivial(g, n):
        return "trivial"
    if is_infinite_cyclic(g, n):
        return "infinite_cyclic"
    return "acylindrically_hyperbolic"


def free_certificate(g: Graph, n: int) -> tuple:
    """('free'|'unknown', reason).  Never claims non-freeness.

    Two particles: free when some vertex v lies on every cycle, which on
    a connected graph with a cycle means that g - v is a forest.  The
    vertex named is the first such in vertex order; no cycle is listed.
    """
    _require_component(g, n)
    if n <= 1:
        return ("free", "at most one particle: a point or the graph")
    if classify_shape(g).is_a(ROSE):
        return ("free", "rose graph")
    if n == 2:
        b1 = g.first_betti()
        if b1 == 0:
            return ("free", "no cycles at all")
        if not g.is_simple():
            raise PreconditionError("expects a normalized graph")
        for v, k in _betti_without(g).items():
            if k == 0:
                return ("free", f"vertex {v} lies on every cycle")
    return ("unknown", "no freeness criterion applies")


def contains_free_nonabelian(g: Graph, n: int) -> bool:
    """An acylindrically hyperbolic group contains F2, so by the
    trichotomy F2 holds exactly when the group is neither trivial nor Z.

    For one particle that leaves b1 >= 2 (b1 = 0 trivial, b1 = 1 Z); for
    two, anything but a segment (trivial), a cycle or a three-arm star
    (Z); for three or more, anything but a segment or a cycle.
    """
    return not (is_trivial(g, n) or is_infinite_cyclic(g, n))


# -- proof-derived oracles ----------------------------------------------
#
# Searches run on the twice-subdivided graph.  The removable witnesses
# are the minimal carriers of a nontrivial braid group: a simple cycle
# (one particle) or additionally a three-arm star germ (two or more).
# Everything else is read off the components of the complement, whose
# half-edge stubs survive as subdivision vertices.

def _component_flags(g: Graph, banned) -> list:
    """(b1, max degree, vertices of degree >= 3, vertex count) for each
    component of g minus a vertex set."""
    adj = g.adjacency
    out = []
    for comp in connected_components(g.vertices, adj, banned):
        degs = [sum(1 for y in adj[x] if y in comp) for x in comp]
        b1 = sum(degs) // 2 - len(comp) + 1
        out.append((b1, max(degs), sum(1 for d in degs if d >= 3), len(comp)))
    return out


def _oracle_flags(flags: tuple) -> dict:
    """Translate component shape data into the lemma conditions."""
    b1, maxdeg, deg3plus, _ = flags
    segment = b1 == 0 and maxdeg <= 2
    cycle = b1 == 1 and maxdeg == 2 and deg3plus == 0
    star3 = b1 == 0 and deg3plus == 1 and maxdeg == 3
    return {
        "nt1": b1 >= 1,                       # one particle: has a cycle
        "nt2": not segment,                   # two or more: not a segment
        "free1": b1 >= 2,
        "free2": not (segment or cycle or star3),
        "free3": maxdeg >= 3,
    }


# (least particle count, lemma flag wanted on a component of a witness's
# complement, witness kind, split label), scanned in this order
_NONHYPERBOLIC_SCANS = (
    (2, "nt1", "cycle", "1+1"),
    (3, "nt2", "cycle", "1+2"),   # cycle + >=2 particles
    (3, "nt1", "star", "2+1"),    # star pair + 1 particle
    (4, "nt2", "star", "2+2"),
)
_F2XZ_SCANS = (
    (2, "free1", "cycle", "1+1"), (3, "free1", "star", "1+2"),
    (3, "free2", "cycle", "2+1"), (4, "free2", "star", "2+2"),
    (4, "free3", "cycle", "3+1"), (5, "free3", "star", "3+2"),
)


class OracleVerdict(NamedTuple):
    verdict: bool
    witness: Optional[tuple] = None


class SubgraphOracle:
    """Exhaustive Λ1/Λ2 search over a doubly subdivided graph.

    Witness subgraphs are kept by kind and reused for every particle
    count: the graph's cycle sequence, shortest first and filled as far
    as the scans read, and the stars in centre and arm order.  Each
    witness's complement is analysed on the cached adjacency when a scan
    first reaches it, and later scans reuse the flags.  A cycle scan that
    hits stops at a shortest cycle that gives a hit; a scan that misses
    reads every witness of its kind, so the verdict does not depend on
    the order.
    """

    def __init__(self, g: Graph):
        if not g.is_simple():
            raise PreconditionError("oracle expects a normalized graph")
        smoothed = classify_shape(g).detail["smoothed_vertices"]
        if smoothed > ORACLE_SMOOTH_VERTEX_CAP:
            raise ResourceLimitError(
                f"smoothed graph exceeds {ORACLE_SMOOTH_VERTEX_CAP} vertices")
        self.base = g
        self.g2 = subdivide_all(g, 2)
        self.by_kind = {"cycle": simple_cycles(g), "star": [
            (v, tuple(a.id for a in arms)) for v in g.essential_vertices()
            for arms in itertools.combinations(g.incidence[v], 3)]}
        self._flags = {}   # (kind, index) -> complement component flags

    def witnesses(self) -> list:
        """(kind, info) pairs: ('cycle', Cycle) or ('star', (centre,
        arm edge ids)); removed vertex sets are built by :meth:`removed`.
        Lists every cycle; the scans read ``by_kind`` instead."""
        return [(kind, info) for kind, infos in self.by_kind.items()
                for info in infos]

    def removed(self, kind: str, info) -> frozenset:
        """Vertices of the doubly subdivided graph that a witness takes
        away: a cycle with both midpoints of each of its edges, or a star
        centre with the midpoint next to it on each arm."""
        if kind == "cycle":
            return frozenset(itertools.chain(
                info.vertices, *(subdivision_points(eid, 2)
                                 for eid in info.edge_ids)))
        v, arm_ids = info
        by_id = self.base.edge_by_id
        return frozenset([v] + [
            subdivision_points(eid, 2)[0 if by_id[eid].u == v else 1]
            for eid in arm_ids])

    def _scan(self, want_key: str, want_kind: str) -> Optional[tuple]:
        for i, info in enumerate(self.by_kind[want_kind]):
            key = (want_kind, i)
            if key not in self._flags:   # the removed set lives only this long
                self._flags[key] = _component_flags(
                    self.g2, self.removed(want_kind, info))
            for flags in self._flags[key]:
                if _oracle_flags(flags)[want_key]:
                    return (want_kind, info, flags)
        return None

    def _first_hit(self, n: int, scans: tuple) -> OracleVerdict:
        for least, want, kind, split in scans:
            if n >= least:
                hit = self._scan(want, kind)
                if hit:
                    return OracleVerdict(True, (split,) + hit)
        return OracleVerdict(False)

    def nonhyperbolic(self, n: int) -> OracleVerdict:
        """A disjoint pair of nontrivial-braid-group subgraphs reachable
        with n particles destroys hyperbolicity."""
        return self._first_hit(n, _NONHYPERBOLIC_SCANS)

    def f2xz(self, n: int) -> OracleVerdict:
        """A free-containing subgraph disjoint from a nontrivial one."""
        return self._first_hit(n, _F2XZ_SCANS)


# -- aggregation ---------------------------------------------------------

class ComponentVerdict(NamedTuple):
    particles: int
    trivial: bool
    infinite_cyclic: bool
    hyperbolic: bool
    toral_rel_hyp: bool
    acyl_status: str
    free: str
    contains_f2: bool
    contains_f2xz: bool
    shape_tag: str


class AssignmentReport(NamedTuple):
    assignment: tuple
    per_component: tuple
    trivial: bool
    infinite_cyclic: bool
    hyperbolic: bool
    toral_rel_hyp: bool
    acyl_status: str
    free: str
    contains_f2: bool
    contains_f2xz: bool


class ClassificationReport(NamedTuple):
    fingerprint: str
    n: int
    connected: bool
    assignments: tuple
    oracle_agreement: Optional[dict]   # None when oracles were skipped
    oracle_note: str

    @property
    def main(self) -> AssignmentReport:
        if len(self.assignments) != 1:
            raise PreconditionError("main verdict needs a connected graph")
        return self.assignments[0]


def _classify_component(comp: Graph, k: int) -> ComponentVerdict:
    trivial = is_trivial(comp, k)
    cyclic = is_infinite_cyclic(comp, k)
    hyp, _ = is_hyperbolic(comp, k)
    trh, _ = is_toral_rel_hyp(comp, k)
    f2 = contains_free_nonabelian(comp, k)
    f2z, _ = contains_f2xz(comp, k)
    status = acyl_hyp_status(comp, k)
    free, _ = free_certificate(comp, k)
    return ComponentVerdict(k, trivial, cyclic, hyp, trh, status,
                            free, f2, f2z, classify_shape(comp).tag)


def _combine(per: tuple) -> dict:
    """Product rules across components (torsion-free factors)."""
    nontrivial = [c for c in per if not c.trivial]
    trivial = not nontrivial
    cyclic = len(nontrivial) == 1 and nontrivial[0].infinite_cyclic
    hyperbolic = (len(nontrivial) == 0
                  or (len(nontrivial) == 1 and nontrivial[0].hyperbolic))
    f2 = any(c.contains_f2 for c in per)
    f2xz = (any(c.contains_f2xz for c in per)
            or (f2 and any(not c.trivial and not c.contains_f2 for c in per))
            or (sum(1 for c in per if c.contains_f2) >= 2))
    trh = not f2xz
    if trivial:
        acyl = "trivial"
    elif cyclic:
        acyl = "infinite_cyclic"
    elif len(nontrivial) == 1:
        acyl = nontrivial[0].acyl_status
    else:
        acyl = "product_of_infinite_groups"
    if all(c.free == "free" for c in per):
        free = "free" if len(nontrivial) <= 1 else "unknown"
    else:
        free = "unknown"
    return dict(trivial=trivial, infinite_cyclic=cyclic,
                hyperbolic=hyperbolic, toral_rel_hyp=trh,
                acyl_status=acyl, free=free,
                contains_f2=f2, contains_f2xz=f2xz)


def _check_consistency(r: AssignmentReport):
    """Raise InvariantError when the combined verdicts contradict the
    implications between the properties."""
    if ((r.trivial and (r.contains_f2 or r.contains_f2xz
                        or not (r.hyperbolic and r.toral_rel_hyp)))
            or (r.infinite_cyclic and (r.contains_f2 or not r.hyperbolic))
            or (r.hyperbolic and not r.toral_rel_hyp)
            or (r.contains_f2xz and not r.contains_f2)):
        raise InvariantError(
            f"inconsistent verdicts for split {list(r.assignment)}")


def full_report(g: Graph, n: int, run_oracles: str = "auto") -> ClassificationReport:
    """Classify B_n over all particle assignments of the graph.

    ``run_oracles``: 'auto' runs the brute-force cross-checks when the
    graph is connected and small enough, 'on' forces them (may raise),
    'off' skips.  Skips are flagged, never silent.
    """
    if n < 0:
        raise PreconditionError("particle count must be >= 0")
    g = normalize(g)
    reports = []
    comps = _component_graphs(g)
    verdicts = {}   # (component index, particles) -> ComponentVerdict
    for counts in assignments(g, n):
        for i, k in enumerate(counts):
            if (i, k) not in verdicts:
                verdicts[i, k] = _classify_component(comps[i], k)
        per = tuple(verdicts[i, k] for i, k in enumerate(counts))
        rep = AssignmentReport(counts, per, **_combine(per))
        _check_consistency(rep)
        reports.append(rep)

    oracle_agreement = None
    note = "oracles skipped"
    if run_oracles != "off" and g.is_connected() and n >= 2:
        try:
            oracle = SubgraphOracle(g)
            fast_hyp, _ = is_hyperbolic(g, n)
            fast_f2xz, _ = contains_f2xz(g, n)
            o_nonhyp = oracle.nonhyperbolic(n)
            o_f2xz = oracle.f2xz(n)
            oracle_agreement = {
                "hyperbolic": fast_hyp == (not o_nonhyp.verdict),
                "toral_rel_hyp": fast_f2xz == o_f2xz.verdict,
            }
            note = "oracles ran"
        except ResourceLimitError as exc:
            if run_oracles == "on":
                raise
            oracle_agreement = None
            note = f"oracles skipped: {exc}"
    return ClassificationReport(g.fingerprint(), n, g.is_connected(),
                                tuple(reports), oracle_agreement, note)
