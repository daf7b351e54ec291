import copy
import itertools
import os
import subprocess
import sys
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from braidscope import classifier as C
from braidscope import families as F
from braidscope.classifier import (
    AssignmentReport, ParticleAssignment, SubgraphOracle, acyl_hyp_status,
    assignments, check_peripheral_collection, contains_f2xz,
    contains_free_nonabelian, disjoint_cycle_pair, essential_vertex_off_cycle,
    free_certificate, full_report, is_hyperbolic,
    is_hyperbolic_by_obstructions, is_infinite_cyclic, is_toral_rel_hyp,
    is_trivial, oracle_f2xz, oracle_nonhyperbolic,
)
from braidscope.complex import build
from braidscope.errors import InvariantError, ResourceLimitError
from braidscope.graph import (
    ROSE, Graph, Subgraph, classify_shape, connected_components, idkey,
    simple_cycles, subdivide_for,
)
from braidscope.homology import chain_complex, homology


def one(n):
    return ParticleAssignment((n,))


# -- trivial / cyclic -----------------------------------------------------

def test_trivial_examples():
    assert is_trivial(F.path_graph(6), one(5))[0]
    ok, witness = is_trivial(F.star_graph(3), one(2))
    assert not ok and witness is not None
    assert not is_trivial(F.cycle_graph(4), one(1))[0]


def test_trivial_componentwise():
    g1, g2 = F.path_graph(3), F.star_graph(3)
    both = Graph.make(
        [f"a{v}" for v in g1.vertices] + [f"b{v}" for v in g2.vertices],
        [(f"a{e.id}", f"a{e.u}", f"a{e.v}") for e in g1.edges]
        + [(f"b{e.id}", f"b{e.u}", f"b{e.v}") for e in g2.edges],
    )
    assert is_trivial(both, ParticleAssignment((3, 1)))[0]
    assert not is_trivial(both, ParticleAssignment((2, 2)))[0]


def test_infinite_cyclic_examples():
    assert is_infinite_cyclic(F.star_graph(3), 2)
    assert not is_infinite_cyclic(F.star_graph(3), 3)
    assert is_infinite_cyclic(F.cycle_graph(7), 4)
    assert not is_infinite_cyclic(F.star_graph(4), 2)
    assert is_infinite_cyclic(F.cycle_graph(5), 1)
    assert not is_infinite_cyclic(F.theta_graph(2, 2, 2), 1)


# -- hyperbolicity ----------------------------------------------------------

def test_hyperbolic_complete_graphs():
    assert is_hyperbolic(F.complete_graph(5), 2)[0]
    verdict, witness = is_hyperbolic(F.complete_graph(6), 2)
    assert not verdict
    a, b = witness
    assert len(a) == 3 and len(b) == 3 and a.vertex_set.isdisjoint(b.vertices)


def test_hyperbolic_bipartite():
    assert is_hyperbolic(F.complete_bipartite(2, 4), 3)[0]
    assert not is_hyperbolic(F.complete_bipartite(3, 3), 3)[0]
    assert is_hyperbolic(F.complete_bipartite(2, 2), 5)[0]
    assert is_hyperbolic(F.complete_bipartite(1, 5), 4)[0]


def test_hyperbolic_shape_cases():
    assert is_hyperbolic(F.sun_graph(5, (1, 3)), 3)[0]
    assert is_hyperbolic(F.rose_graph(3, 3, rays=2), 6)[0]
    assert not is_hyperbolic(F.sun_graph(5, (1, 3)), 4)[0]
    assert is_hyperbolic(F.h_graph(), 3)[0]       # trees stay hyperbolic at three
    assert not is_hyperbolic(F.h_graph(), 4)[0]   # two essential vertices


def test_hyperbolic_formulations_agree():
    fixtures = [F.complete_graph(4), F.complete_graph(5), F.complete_graph(6),
                F.complete_bipartite(2, 3), F.complete_bipartite(3, 3),
                F.star_graph(4), F.theta_graph(2, 2, 2), F.h_graph(),
                F.sun_graph(5, (1, 2)), F.rose_graph(2, 3, rays=1),
                F.path_graph(4), F.cycle_graph(5)]
    for g in fixtures:
        for n in (2, 3, 4, 5):
            assert is_hyperbolic(g, n)[0] == is_hyperbolic_by_obstructions(g, n)


def test_h_graph_has_no_disjoint_cycles_nor_off_cycle_vertex():
    g = F.h_graph()
    assert disjoint_cycle_pair(g) is None
    assert essential_vertex_off_cycle(g) is None


# -- toral relative hyperbolicity ---------------------------------------------

def test_toral_rh_complete_graphs():
    # the theorem machinery: a triangle disjoint from a two-cycle subgraph
    # first fits inside K_7
    assert is_toral_rel_hyp(F.complete_graph(6), 2)[0]
    assert not is_toral_rel_hyp(F.complete_graph(7), 2)[0]
    assert is_toral_rel_hyp(F.complete_graph(4), 3)[0]
    assert not is_toral_rel_hyp(F.complete_graph(5), 3)[0]
    assert not is_toral_rel_hyp(F.complete_graph(4), 4)[0]


def test_toral_rh_bipartite():
    assert is_toral_rel_hyp(F.complete_bipartite(4, 4), 2)[0]
    assert not is_toral_rel_hyp(F.complete_bipartite(4, 5), 2)[0]
    assert is_toral_rel_hyp(F.complete_bipartite(2, 5), 3)[0]
    assert not is_toral_rel_hyp(F.complete_bipartite(3, 3), 3)[0]
    assert is_toral_rel_hyp(F.complete_bipartite(2, 3), 4)[0]
    assert not is_toral_rel_hyp(F.complete_bipartite(2, 4), 4)[0]
    assert not is_toral_rel_hyp(F.complete_bipartite(2, 3), 5)[0]
    assert is_toral_rel_hyp(F.complete_bipartite(1, 5), 5)[0]


def test_toral_rh_four_particle_shapes():
    for g in (F.rose_graph(2, 3, rays=1), F.h_graph(),
              F.sun_graph(5, (1, 3)), F.theta_graph(2, 2, 2)):
        assert is_toral_rel_hyp(g, 4)[0]
        if g.essential_vertices():
            pass
    # sun with three rayed vertices falls outside the list
    assert not is_toral_rel_hyp(F.sun_graph(6, (1, 3, 5)), 4)[0]


def test_f2xz_witnesses_n2():
    has, witness = contains_f2xz(F.complete_graph(7), 2)
    assert has and witness[0] == "cycle with b1>=2 complement"


def test_f2xz_obstruction_a_at_three_particles():
    # a triangle bridged to a theta (arcs u-p-w, u-q-w, u-r-s-w): the
    # theta is the triangle's complement, with b1 = 2; no vertex has
    # degree 4, so obstruction (b) cannot come first
    g = Graph.make("t1 t2 t3 u w p q r s".split(),
                   [("a", "t1", "t2"), ("b", "t2", "t3"), ("c", "t3", "t1"),
                    ("d", "u", "p"), ("f", "p", "w"), ("h", "u", "q"),
                    ("i", "q", "w"), ("j", "u", "r"), ("k", "r", "s"),
                    ("l", "s", "w"), ("m", "t1", "r")])
    assert max(g.degree(v) for v in g.vertices) == 3
    (triangle,) = [c for c in simple_cycles(g) if len(c) == 3]
    assert triangle.vertex_set == {"t1", "t2", "t3"}
    assert contains_f2xz(g, 3) == (
        True, ("a", triangle, frozenset({"u", "w", "p", "q", "r", "s"})))
    rep = full_report(g, 3)
    assert rep.oracle_agreement == {"hyperbolic": True, "toral_rel_hyp": True}


def test_f2xz_witness_at_three_particles_is_the_same_under_every_hash_seed():
    # a triangle 1-2-3 with a three-leaf star on 4 hung from 1 and one on 5
    # hung from 2: no cycle gives (a), (c) or (e), and the degree-4 vertices
    # 4 and 5 are both off the triangle, so the vertex pass finds (b); the
    # witness is the least of them, whatever order sets of ids iterate in
    code = ("from braidscope import classifier\n"
            "from braidscope.graph import Graph\n"
            "pairs = '1-2 2-3 3-1 1-4 4-6 4-7 4-8 2-5 5-9 5-10 5-11'.split()\n"
            "g = Graph.make([str(v) for v in range(1, 12)],\n"
            "               [(f'e{i}', *p.split('-')) for i, p in enumerate(pairs)])\n"
            "has, w = classifier.contains_f2xz(g, 3)\n"
            "print(has, w[:2], sorted(w[2]))\n")
    outs = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, env=dict(
                               os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                               PYTHONHASHSEED=seed)).stdout
            for seed in ("0", "3")}
    assert outs == {"True ('b', '4') ['1', '10', '11', '2', '3', '5', '9']\n"}


def test_analyze_prints_the_same_bytes_under_every_hash_seed(tmp_path):
    # the 6x6 grid and K_11 answer from the first cycles they read
    grid = [(f"v{r}x{c}", f"v{r}x{c + 1}") for r in range(6) for c in range(5)]
    grid += [(f"v{r}x{c}", f"v{r + 1}x{c}") for r in range(5) for c in range(6)]
    k11 = list(itertools.combinations([f"v{i}" for i in range(11)], 2))
    for name, pairs in (("grid", grid), ("k11", k11)):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"e e{i} {u} {v}\n" for i, (u, v) in enumerate(pairs)))
        outs = {subprocess.run(
            [sys.executable, "-m", "braidscope.cli", "analyze", "--graph", str(path),
             "-n", "2"], capture_output=True, check=True, env=dict(
                 os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                 PYTHONHASHSEED=seed)).stdout for seed in ("0", "3")}
        assert len(outs) == 1 and b'"hyperbolic":false' in outs.pop(), name


# -- acylindrical trichotomy ----------------------------------------------------

def test_acyl_status():
    assert acyl_hyp_status(F.cycle_graph(5), 2) == "infinite_cyclic"
    assert acyl_hyp_status(F.complete_graph(5), 2) == "acylindrically_hyperbolic"
    assert acyl_hyp_status(F.path_graph(3), 3) == "trivial"
    assert acyl_hyp_status(F.star_graph(3), 2) == "infinite_cyclic"
    assert acyl_hyp_status(F.star_graph(3), 3) == "acylindrically_hyperbolic"


# -- freeness ---------------------------------------------------------------------

def test_free_certificate():
    assert free_certificate(F.rose_graph(3, 3), 5)[0] == "free"
    verdict, reason = free_certificate(F.rose_graph(2, 3), 2)
    assert verdict == "free"
    assert free_certificate(F.complete_graph(5), 2)[0] == "unknown"
    assert free_certificate(F.complete_graph(5), 1)[0] == "free"
    # vertex on all cycles: two triangles sharing a vertex plus a tail
    g = F.rose_graph(2, 3, rays=2)
    assert free_certificate(g, 2)[0] == "free"


def test_free_certificate_never_contradicts_torsion():
    # wherever a free certificate is issued, homology must be torsion free
    cases = [(F.rose_graph(2, 3), 2), (F.rose_graph(1, 4, rays=1), 2),
             (F.star_graph(4), 2), (F.cycle_graph(5), 2)]
    for g, n in cases:
        verdict, _ = free_certificate(g, n)
        if verdict == "free":
            sub = subdivide_for(g, n)
            h = homology(chain_complex(build(sub, n)))
            assert all(not t for t in h.torsion)


def test_free_certificate_matches_the_homology_of_a_graph_on_the_atlas():
    # a free group of rank r has H_0 = Z, H_1 = Z^r and nothing above;
    # UC_n is aspherical, so r = 1 - chi
    checked = 0
    for G in nx.graph_atlas_g():
        if not (2 <= G.number_of_nodes() <= 6 and nx.is_connected(G)):
            continue
        g = Graph.make([str(v) for v in G.nodes],
                       [(f"e{i}", str(u), str(v))
                        for i, (u, v) in enumerate(G.edges)])
        for n in (2, 3):
            if free_certificate(g, n)[0] != "free":
                continue
            x = build(subdivide_for(g, n), n)
            h = homology(chain_complex(x))
            case = (sorted(G.edges), n)
            assert h.free_ranks[0] == 1, case
            assert all(r == 0 for r in h.free_ranks[2:]), case
            assert all(not t for t in h.torsion), case
            assert h.free_ranks[1] == 1 - x.euler_characteristic(), case
            checked += 1
    assert checked == 103


def test_contains_free_nonabelian():
    assert contains_free_nonabelian(F.theta_graph(2, 2, 2), one(1))
    assert not contains_free_nonabelian(F.star_graph(3), one(2))
    assert contains_free_nonabelian(F.star_graph(3), one(3))
    assert not contains_free_nonabelian(F.cycle_graph(6), one(4))
    assert contains_free_nonabelian(F.star_graph(4), one(2))


def test_braidembed_monotonicity():
    # a free-nonabelian certificate in a connected induced proper subgraph
    # with m <= n particles survives in the ambient graph
    pairs = [
        (F.complete_graph(5), ["1", "2", "3", "4"]),
        (F.complete_graph(6), ["1", "2", "3", "4", "5"]),
        (F.complete_bipartite(3, 3), ["a1", "a2", "b1", "b2", "b3"]),
    ]
    for g, sub_vertices in pairs:
        sub = g.induced(sub_vertices).as_graph()
        for m in (1, 2, 3):
            if contains_free_nonabelian(sub, one(m)):
                for n in range(m, 5):
                    assert contains_free_nonabelian(g, one(n))


# -- implication chain --------------------------------------------------------------

def test_implication_chain():
    fixtures = [F.complete_graph(m) for m in range(2, 8)] + [
        F.complete_bipartite(p, q) for p in (1, 2, 3) for q in (2, 3, 4)] + [
        F.star_graph(3), F.star_graph(4), F.theta_graph(2, 2, 2),
        F.h_graph(), F.rose_graph(2, 3), F.sun_graph(5, (1, 3)),
        F.path_graph(3), F.cycle_graph(6)]
    for g in fixtures:
        for n in (1, 2, 3, 4, 5):
            hyp, _ = is_hyperbolic(g, n)
            trh, _ = is_toral_rel_hyp(g, n)
            cyclic = is_infinite_cyclic(g, n)
            f2 = contains_free_nonabelian(g, one(n))
            f2xz, _ = contains_f2xz(g, n)
            if hyp:
                assert trh
            if trh:
                assert not f2xz
            if cyclic:
                assert hyp and not f2
            if f2xz:
                assert f2


# -- the shape memo against the oracle's lemma flags ---------------------------

@st.composite
def connected_graphs(draw, max_vertices=8):
    """A random spanning tree plus random extra edges: connected, simple."""
    n = draw(st.integers(1, max_vertices))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 1:
        extra = st.sampled_from(list(itertools.combinations(range(n), 2)))
        pairs |= set(draw(st.lists(extra, max_size=12)))
    return Graph.make([str(v) for v in range(n)],
                      [(f"e{i}", str(u), str(v))
                       for i, (u, v) in enumerate(sorted(pairs))])


@settings(max_examples=300, deadline=None)
@given(connected_graphs())
def test_shape_predicates_match_the_oracle_lemma_flags(g):
    # the lemma flags read degrees and b1 straight off the graph; the
    # predicates read the memoised shape of its smoothed form
    flags = C._oracle_flags(C._component_flags(g, ())[0])
    for k, nt, free in ((1, "nt1", "free1"), (2, "nt2", "free2"),
                        (3, "nt2", "free3")):
        assert is_trivial(g, one(k))[0] == (not flags[nt]), k
        assert contains_free_nonabelian(g, one(k)) == flags[free], k


def test_shape_is_memoised_and_ignored_by_eq_and_hash():
    from braidscope.diagrams import diagram
    from braidscope.graph import classify_shape
    g, twin = F.star_graph(3), F.star_graph(3)
    shape = classify_shape(g)
    assert classify_shape(g) is shape and shape.detail["arms"] == 3
    with pytest.raises(TypeError):
        shape.detail["arms"] = 4   # a shared memo is read-only
    clone = copy.deepcopy(g)       # the memo copies along with the graph
    assert clone == g and clone._memo["shape"] == shape
    assert clone._memo["shape"].detail == shape.detail
    diagram(g, ("c",), [("a1e1", 1)])
    assert {"shape", "piler"} <= set(g._memo) and not twin.__dict__.get("_memo")
    assert g == twin and hash(g) == hash(twin)
    assert classify_shape(twin) == shape and classify_shape(twin) is not shape


# -- oracles ---------------------------------------------------------------------

def test_oracle_witnesses():
    v = oracle_nonhyperbolic(F.complete_graph(6), 2)
    assert v.verdict and v.witness[0] == "1+1" and v.witness[1] == "cycle"
    assert not oracle_nonhyperbolic(F.complete_graph(5), 2).verdict
    v = oracle_f2xz(F.complete_graph(8), 2)
    assert v.verdict and v.witness[0] == "1+1"
    assert oracle_f2xz(F.complete_graph(7), 2).verdict
    assert not oracle_f2xz(F.complete_graph(6), 2).verdict


def test_oracle_resource_cap():
    with pytest.raises(ResourceLimitError):
        SubgraphOracle(F.complete_graph(16))


def test_oracle_agreement_small_graphs():
    # the exhaustive <=7-vertex sweep lives in the acceptance suite;
    # here a fast spot check over all connected graphs on <=5 vertices
    graphs = [g for g in nx.graph_atlas_g()
              if 1 <= g.number_of_nodes() <= 5 and nx.is_connected(g)]
    assert len(graphs) == 31
    for G in graphs:
        g = Graph.make(
            [str(v) for v in G.nodes],
            [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(G.edges)])
        oracle = SubgraphOracle(g)
        for n in (2, 3, 4, 5):
            assert is_hyperbolic(g, n)[0] == (not oracle.nonhyperbolic(n).verdict)
            assert contains_f2xz(g, n)[0] == oracle.f2xz(n).verdict


def _unmemoized_oracle(g):
    """A fresh oracle whose scans recompute every complement, as the
    oracle did before it kept per-witness flags."""
    oracle = SubgraphOracle(g)

    def scan(want_key, want_kind):
        for kind, info in oracle.witnesses():
            if kind == want_kind:
                removed = oracle.removed(kind, info)
                for flags in C._component_flags(oracle.g2, removed):
                    if C._oracle_flags(flags)[want_key]:
                        return (kind, info, flags)
        return None

    oracle._scan = scan
    return oracle


def test_one_oracle_serves_every_particle_count():
    # the shared oracles reuse witness flags between scans, in two query
    # orders; the references recompute them for every query
    for g in (F.complete_graph(6), F.complete_bipartite(3, 3),
              F.theta_graph(2, 2, 2), F.h_graph(), F.sun_graph(4, (1, 3)),
              F.two_bouquets(2, 1)):
        shared, backwards = SubgraphOracle(g), SubgraphOracle(g)
        for n in (2, 3, 4, 5):
            ref = _unmemoized_oracle(g)
            assert shared.nonhyperbolic(n) == ref.nonhyperbolic(n)
            assert shared.f2xz(n) == ref.f2xz(n)
        for n in (5, 4, 3, 2):
            ref = _unmemoized_oracle(g)
            assert backwards.f2xz(n) == ref.f2xz(n)
            assert backwards.nonhyperbolic(n) == ref.nonhyperbolic(n)


# -- shortest-first scans against the enumeration-order references -------------
#
# The references are the scans as first written: cycles in the order
# simple_cycles had before it put the shortest first, a component's
# edges counted by a scan of every edge of g.  They take the cycles to
# scan as an argument, so a scan of one cycle, or of the cycles shorter
# than a witness, asks whether those give a hit.

def _enumeration_order(g):
    """g's cycles by their ids sorted by idkey, those tuples compared as
    strings, ties broken by rotation: no length first."""
    return sorted(simple_cycles(g), key=lambda c: (
        tuple(sorted(c.vertices, key=idkey)), c.vertices))


def _betti_by_edge_scan(g, comp):
    edges = sum(1 for e in g.edges if e.u in comp and e.v in comp)
    return edges - len(comp) + 1


def _components_without(g, banned):
    return connected_components(g.vertices, g.adjacency, banned)


def _pair_scan(g, order):
    for c in order:
        for comp in _components_without(g, c.vertex_set):
            if _betti_by_edge_scan(g, comp) >= 1:
                return (c, next(d for d in _enumeration_order(g)
                                if comp.issuperset(d.vertices)))
    return None


def _f2xz_n2_scan(g, order):
    for c in order:
        for comp in _components_without(g, c.vertex_set):
            if _betti_by_edge_scan(g, comp) >= 2:
                return ("cycle with b1>=2 complement", c, comp)
    return None


def _obstruction_n3_scan(g, order):
    in_order = g.essential_vertices()   # tried in vertex order, as the library does
    ess = set(in_order)
    for c in order:
        on = c.vertex_set
        for comp in _components_without(g, on):
            if _betti_by_edge_scan(g, comp) >= 2:
                return ("a", c, comp)
            if len(comp & ess) >= 2:
                return ("c", c, comp)
            if _betti_by_edge_scan(g, comp) >= 1 and (comp & ess):
                (v,) = comp & ess
                nbrs = [y for y in g.adjacency[v] if y in comp]
                if len(connected_components(
                        nbrs, g.adjacency, on | {v})) < len(nbrs):
                    return ("e", c, next(d for d in _enumeration_order(g)
                                         if comp.issuperset(d.vertices)))
    for v in in_order:
        for comp in _components_without(g, {v}):
            if _betti_by_edge_scan(g, comp) >= 2:
                return ("d", v, comp)
            if g.degree(v) >= 4 and _betti_by_edge_scan(g, comp) >= 1:
                return ("b", v, comp)
    return None


def _essential_vertex_off_cycle_by_scan(g):
    """The least essential vertex off some cycle, by a scan of the
    cycles, with the first component of g - v that holds a cycle."""
    cycles = simple_cycles(g)
    for v in g.essential_vertices():
        if any(v not in c.vertex_set for c in cycles):
            return (v, next(comp for comp in _components_without(g, {v})
                            if any(comp.issuperset(c.vertices)
                                   for c in cycles)))
    return None


def _enumeration_order_oracle(g):
    """An oracle whose cycle witnesses come in the enumeration order."""
    oracle = SubgraphOracle(g)
    oracle.by_kind["cycle"] = _enumeration_order(g)
    return oracle


def _assert_least_cycle_hit(g, scan, cycle):
    """`cycle` gives a hit of `scan`, and no shorter cycle does."""
    cycles = simple_cycles(g)
    assert cycle in cycles and scan(g, [cycle]) is not None
    assert scan(g, [c for c in cycles if len(c) < len(cycle)]) is None


def _check_oracle_hit(got, ref, oracle, scans):
    """A verdict of the shortest-first oracle against the reference's:
    the same split and witness kind, the reference's own star, or a
    cycle that hits while no shorter cycle does."""
    assert got.verdict == ref.verdict
    if not ref.verdict:
        return
    split, kind, info, flags = got.witness
    assert (split, kind) == ref.witness[:2]
    (want,) = [w for _, w, k, s in scans if (k, s) == (kind, split)]
    assert C._oracle_flags(flags)[want]
    if kind == "star":
        assert got.witness == ref.witness
        return
    for c in simple_cycles(oracle.base):
        if len(c) < len(info):
            assert not any(C._oracle_flags(f)[want] for f in C._component_flags(
                oracle.g2, oracle.removed("cycle", c)))


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_shortest_first_scans_match_the_enumeration_order_references(g):
    cycles = _enumeration_order(g)
    pair = disjoint_cycle_pair(g)
    assert (pair is None) == (_pair_scan(g, cycles) is None)
    if pair is not None:
        c, d = pair
        _assert_least_cycle_hit(g, _pair_scan, c)
        assert d in cycles and c.vertex_set.isdisjoint(d.vertices)

    has, witness = contains_f2xz(g, 2)
    assert has == (_f2xz_n2_scan(g, cycles) is not None)
    if has:
        _assert_least_cycle_hit(g, _f2xz_n2_scan, witness[1])

    has, witness = contains_f2xz(g, 3)
    ref = _obstruction_n3_scan(g, cycles)
    assert has == (ref is not None)
    if has and witness[0] in ("b", "d"):   # no cycle gives (a), (c) or (e)
        assert witness == ref
    elif has:
        cycle = witness[1]
        assert cycle in cycles
        assert _obstruction_n3_scan(g, [cycle])[0] == witness[0]
        shorter = _obstruction_n3_scan(
            g, [c for c in cycles if len(c) < len(cycle)])
        assert shorter is None or shorter[0] in ("b", "d")

    assert free_certificate(g, 2) == _free_certificate_by_full_intersection(g, 2)
    assert essential_vertex_off_cycle(g) == _essential_vertex_off_cycle_by_scan(g)

    oracle, reference = SubgraphOracle(g), _enumeration_order_oracle(g)
    for n in (2, 3, 4, 5):
        _check_oracle_hit(oracle.nonhyperbolic(n), reference.nonhyperbolic(n),
                          oracle, C._NONHYPERBOLIC_SCANS)
        _check_oracle_hit(oracle.f2xz(n), reference.f2xz(n),
                          oracle, C._F2XZ_SCANS)
    assert sorted(oracle.witnesses(), key=repr) == sorted(
        reference.witnesses(), key=repr)


def test_oracle_on_k55_flags_one_witness_at_three_particles():
    # enumeration order reached the first hit after 2,701 witnesses,
    # 1,440 of them Hamiltonian cycles
    oracle = SubgraphOracle(F.complete_bipartite(5, 5))
    assert oracle.nonhyperbolic(3).verdict and oracle.f2xz(3).verdict
    assert len(oracle._flags) == 1


def _free_certificate_by_full_intersection(g, n):
    shape = classify_shape(g)
    if n == 1 or shape.is_a(ROSE):
        return free_certificate(g, n)
    if n == 2:
        cycles = simple_cycles(g)
        if not cycles:
            return ("free", "no cycles at all")
        common = frozenset.intersection(*[c.vertex_set for c in cycles])
        if common:
            v = sorted(common, key=idkey)[0]
            return ("free", f"vertex {v} lies on every cycle")
    return ("unknown", "no freeness criterion applies")


def _no_cycles(g):
    raise AssertionError("cycles enumerated")


def test_free_certificate_matches_the_full_intersection_on_the_atlas(
        monkeypatch):
    # the library reads the components of g - v, never the cycles
    monkeypatch.setattr(C, "simple_cycles", _no_cycles)
    checked = 0
    for G in nx.graph_atlas_g():
        if 1 <= G.number_of_nodes() <= 6 and nx.is_connected(G):
            g = Graph.make([str(v) for v in G.nodes],
                           [(f"e{i}", str(u), str(v))
                            for i, (u, v) in enumerate(G.edges)])
            assert free_certificate(g, 2) == \
                _free_certificate_by_full_intersection(g, 2), sorted(G.edges)
            assert essential_vertex_off_cycle(g) == \
                _essential_vertex_off_cycle_by_scan(g), sorted(G.edges)
            checked += 1
    assert checked == 143


def test_free_certificate_tries_only_vertices_of_the_two_core():
    # a 300-cycle with two 1,000-vertex rays that come first in vertex
    # order: one depth-first search answers every vertex, where a
    # component search per vertex would be quadratic
    rays = [[str(r * 1000 + i) for i in range(1, 1001)] for r in (0, 1)]
    cycle = [str(v) for v in range(2001, 2301)]
    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
    for hub, ray in zip((cycle[0], cycle[150]), rays):
        edges += list(zip([hub] + ray, ray))
    g = Graph.make(cycle + rays[0] + rays[1],
                   [(f"e{i}", u, v) for i, (u, v) in enumerate(edges)])
    t0 = time.monotonic()
    assert free_certificate(g, 2) == ("free", "vertex 2001 lies on every cycle")
    assert time.monotonic() - t0 < 1


@settings(max_examples=200, deadline=None)
@given(connected_graphs(max_vertices=9))
def test_vertex_questions_match_the_cycle_scans_without_enumerating(g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "simple_cycles", _no_cycles)
        got = free_certificate(g, 2), essential_vertex_off_cycle(g)
    assert got == (_free_certificate_by_full_intersection(g, 2),
                   _essential_vertex_off_cycle_by_scan(g))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_betti_without_each_vertex_matches_the_component_scan(data):
    # disconnected graphs and isolated vertices included
    n = data.draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                max_size=24)) if pairs else []
    g = Graph.make([str(v) for v in range(n)],
                   [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(chosen)])
    got = C._betti_without(g)
    assert list(got) == list(g.vertices)
    for v in g.vertices:
        assert got[v] == sum(_betti_by_edge_scan(g, comp)
                             for comp in _components_without(g, {v})), v


def _check_three_particle_witness(g):
    """The n=3 witness is the reference scan's over the same cycle order,
    and a disjoint cycle pair gives it from the cycle scan."""
    ref = _obstruction_n3_scan(g, list(simple_cycles(g)))
    assert contains_f2xz(g, 3) == (ref is not None, ref)
    if disjoint_cycle_pair(g) is not None:
        assert ref[0] in ("a", "c", "e")


@settings(max_examples=200, deadline=None)
@given(connected_graphs(max_vertices=10))
def test_three_particle_witness_matches_the_reference_scan(g):
    _check_three_particle_witness(g)


def test_three_particle_witness_matches_the_reference_scan_on_the_atlas():
    for G in nx.graph_atlas_g():
        if 1 <= G.number_of_nodes() <= 6 and nx.is_connected(G):
            _check_three_particle_witness(Graph.make(
                [str(v) for v in G.nodes],
                [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(G.edges)]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_component_betti_matches_the_edge_scan(data):
    n = data.draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                max_size=20)) if pairs else []
    g = Graph.make([str(v) for v in range(n)],
                   [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(chosen)])
    banned = frozenset(data.draw(st.lists(st.sampled_from(g.vertices))))
    got = list(C._complement(g, banned))
    assert [comp for comp, _ in got] == list(_components_without(g, banned))
    for comp, b1 in got:
        assert b1 == _betti_by_edge_scan(g, comp)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(("a", "9", "10", "zz", "v7", "v12", "b")),
                min_size=1, max_size=7, unique=True), st.data())
def test_component_graphs_are_the_induced_components(names, data):
    pairs = list(itertools.combinations(names, 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                max_size=9)) if pairs else []
    g = Graph.make(names, [(f"e{i}", u, v) for i, (u, v) in enumerate(chosen)])
    comps = C._component_graphs(g)
    assert comps == tuple(g.induced(c).as_graph() for c in g.components())
    if len(comps) == 1:
        assert comps[0] is g


def test_analyze_enumerates_the_cycles_once(tmp_path, monkeypatch, capsys):
    # fast predicates and the oracle on a connected graph share one
    # enumeration of the graph's cycles
    from braidscope import cli, graph as G
    calls = []
    cycle_batches = G._cycle_batches

    def counting(g, cap):   # one enumerator per graph, counted when it runs
        calls.append(len(g.vertices))
        yield from cycle_batches(g, cap)

    monkeypatch.setattr(G, "_cycle_batches", counting)
    gfile = tmp_path / "k8.txt"
    gfile.write_text("".join(f"e e{u}{v} {u} {v}\n"
                             for u in range(1, 9) for v in range(u + 1, 9)))
    assert cli.main(["analyze", "--graph", str(gfile), "-n", "3"]) == 0
    assert '"oracle":"oracles ran"' in capsys.readouterr().out
    assert calls == [8]


# -- peripheral collections -----------------------------------------------------

def triangle_pairs_of_k6():
    g = F.complete_graph(6)
    outs = []
    for triple in itertools.combinations(g.vertices, 3):
        rest = tuple(v for v in g.vertices if v not in triple)
        if triple < rest:
            a = g.induced(triple)
            b = g.induced(rest)
            outs.append(Subgraph(g, a.vertices | b.vertices,
                                 a.edge_ids | b.edge_ids))
    return g, outs


def test_peripheral_k6_triangle_pairs():
    g, collection = triangle_pairs_of_k6()
    assert len(collection) == 10
    rep = check_peripheral_collection(g, collection)
    assert rep.valid and rep.all_proper and rep.applies


def test_peripheral_empty_collection_rejected():
    g = F.complete_graph(6)
    rep = check_peripheral_collection(g, [])
    assert not rep.cycle_pairs_covered
    assert rep.uncovered_pair is not None


def test_peripheral_two_bouquets():
    g = F.two_bouquets(2, 2, circle_len=3, bridge_length=2)
    lam_vertices = [v for v in g.vertices if not v.startswith("br")]
    lam = g.induced(lam_vertices)
    rep = check_peripheral_collection(g, [lam])
    assert rep.valid and rep.all_proper


def test_peripheral_square_cone_points():
    g = F.square_with_two_cone_points()
    collection = []
    for apex_edge, other_edge in ((("c1", "c2"), ("c3", "c4")),
                                  (("c2", "c3"), ("c4", "c1"))):
        for x_side in ("x", "y"):
            y_side = "y" if x_side == "x" else "x"
            t1 = g.induced([x_side, *apex_edge])
            t2 = g.induced([y_side, *other_edge])
            collection.append(Subgraph(g, t1.vertices | t2.vertices,
                                       t1.edge_ids | t2.edge_ids))
    assert len(collection) == 4
    rep = check_peripheral_collection(g, collection)
    assert rep.valid and rep.all_proper


def test_peripheral_k44_square_pairs():
    g = F.complete_bipartite(4, 4)
    lefts = ["a1", "a2", "a3", "a4"]
    rights = ["b1", "b2", "b3", "b4"]
    collection = []
    for la in itertools.combinations(lefts, 2):
        rest_a = tuple(v for v in lefts if v not in la)
        if la > rest_a:
            continue
        for lb in itertools.combinations(rights, 2):
            rest_b = tuple(v for v in rights if v not in lb)
            s1 = g.induced(la + lb)
            s2 = g.induced(rest_a + rest_b)
            collection.append(Subgraph(g, s1.vertices | s2.vertices,
                                       s1.edge_ids | s2.edge_ids))
    assert len(collection) == 18
    rep = check_peripheral_collection(g, collection)
    assert rep.valid and rep.all_proper


def test_peripheral_condition3_violation():
    # dumbbell with a detour: the member holds both triangles and the
    # bridge, but the detour connects two bridge vertices while avoiding
    # both cycles, so condition 3 must flag it
    base = F.two_bouquets(1, 1, circle_len=3, bridge_length=3)
    vs = list(base.vertices) + ["q"]
    es = [(e.id, e.u, e.v) for e in base.edges]
    es += [("det1", "br1", "q"), ("det2", "q", "br2")]
    g = Graph.make(vs, es)
    member_vs = [v for v in g.vertices if v != "q"]
    member_es = [e.id for e in g.edges if e.id not in ("det1", "det2")]
    member = Subgraph(g, frozenset(member_vs), frozenset(member_es))
    rep = check_peripheral_collection(g, [member])
    assert not rep.paths_ok
    assert rep.bad_path is not None
    sub, path, avoided = rep.bad_path
    assert "q" in path
    assert not rep.applies


def test_peripheral_condition3_witness_is_the_first_enumerated_path():
    # the member holds the edge 1-2 and a triangle off 1 and 2; outside it,
    # x joins 1 to 2 through y and through z.  The witness skips the member
    # edge and takes the first branch in sorted order.
    g = Graph.make(["1", "2", "t1", "t2", "t3", "x", "y", "z"], [
        ("m12", "1", "2"), ("m1t", "1", "t1"), ("t12", "t1", "t2"),
        ("t23", "t2", "t3"), ("t31", "t3", "t1"), ("a", "1", "x"),
        ("b", "x", "y"), ("c", "x", "z"), ("d", "y", "2"), ("e", "z", "2")])
    member = Subgraph(g, frozenset(["1", "2", "t1", "t2", "t3"]),
                      frozenset(["m12", "m1t", "t12", "t23", "t31"]))
    sub, path, avoided = check_peripheral_collection(g, [member]).bad_path
    assert path == ("1", "x", "y", "2")
    assert avoided.vertices == ("t1", "t2", "t3")


def test_peripheral_condition3_witness_may_be_long():
    # the witness search keeps its own stack: a 1500-edge detour from 1 to
    # 2 around the member needs no deep recursion
    detour = ["1"] + [f"p{i}" for i in range(1499)] + ["2"]
    g = Graph.make(detour + ["t1", "t2", "t3"], [
        ("m1t", "1", "t1"), ("t12", "t1", "t2"), ("t23", "t2", "t3"),
        ("t31", "t3", "t1")] + [(f"d{i}", u, v) for i, (u, v)
                                 in enumerate(zip(detour, detour[1:]))])
    member = g.induced(["1", "2", "t1", "t2", "t3"])
    assert check_peripheral_collection(g, [member]).bad_path[1] == tuple(detour)


def _uncovered_pair_by_pairs(cycles, collection):
    """Condition 1 as it was first written: both cycles' vertex sets are
    rebuilt for every pair."""
    for a, b in itertools.combinations(cycles, 2):
        if not a.vertex_set.isdisjoint(b.vertex_set):
            continue
        if not any(C._subgraph_contains_cycle(s, a)
                   and C._subgraph_contains_cycle(s, b) for s in collection):
            return a, b
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_peripheral_report_matches_the_pairwise_reference(data):
    g = data.draw(connected_graphs())
    groups = st.lists(st.sampled_from(sorted(g.vertices)), min_size=1)
    collection = []
    for member in data.draw(st.lists(st.lists(groups, min_size=1, max_size=2),
                                     max_size=4)):
        parts = [g.induced(group) for group in member]
        collection.append(Subgraph(
            g, frozenset().union(*(p.vertices for p in parts)),
            frozenset().union(*(p.edge_ids for p in parts))))
    fast = check_peripheral_collection(g, collection)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_uncovered_cycle_pair", _uncovered_pair_by_pairs)
        assert check_peripheral_collection(g, collection) == fast


def _nx_paths_avoiding(g, a, b, banned):
    keep = [v for v in g.vertices if v not in banned or v in (a, b)]
    h = nx.Graph()
    h.add_nodes_from(keep)
    for v in keep:   # sorted insertion gives networkx sorted adjacency
        h.add_edges_from((v, y) for y in g.neighbors(v) if y in h)
    return [list(p) for p in nx.all_simple_paths(h, a, b)]


def _path_missing_a_cycle_by_enumeration(g, cycles, collection):
    """Condition 3 as it was first written: every simple path between two
    member vertices, with its interior off the member, that is not made
    of member edges is tested against every member cycle."""
    for sub in collection:
        sub_cycles = [c for c in cycles if C._subgraph_contains_cycle(sub, c)]
        if not sub_cycles:
            continue
        for a, b in itertools.combinations(sorted(sub.vertices, key=idkey), 2):
            for path in _nx_paths_avoiding(g, a, b, sub.vertices - {a, b}):
                edges = {g.simple_adjacency[x][y].id
                         for x, y in zip(path, path[1:])}
                if edges <= sub.edge_ids:
                    continue
                for c in sub_cycles:
                    if set(path).isdisjoint(c.vertices):
                        return sub, tuple(path), c
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_peripheral_report_matches_the_path_enumeration(data):
    # a member is g less a few vertices and a few more edges, so that
    # complement components and non-member edges join member vertices
    g = data.draw(connected_graphs())
    removed = st.sets(st.sampled_from(g.vertices), min_size=1, max_size=4)
    collection = []
    for _ in range(data.draw(st.integers(0, 3))):
        member = g.induced(set(g.vertices) - data.draw(removed))
        edge_ids = sorted(member.edge_ids)
        dropped = data.draw(st.sets(st.sampled_from(edge_ids), max_size=2)
                            if edge_ids else st.just(set()))
        collection.append(Subgraph(g, member.vertices,
                                   member.edge_ids - dropped))
    fast = check_peripheral_collection(g, collection)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_path_missing_a_cycle",
                   _path_missing_a_cycle_by_enumeration)
        assert check_peripheral_collection(g, collection) == fast


# -- full report ----------------------------------------------------------------

def test_full_report_k5():
    rep = full_report(F.complete_graph(5), 2)
    a = rep.main
    assert not a.trivial and not a.infinite_cyclic
    assert a.hyperbolic and a.toral_rel_hyp
    assert a.acyl_status == "acylindrically_hyperbolic"
    assert a.free == "unknown"
    assert rep.oracle_agreement == {"hyperbolic": True, "toral_rel_hyp": True}


def test_full_report_c4():
    rep = full_report(F.cycle_graph(4), 2)
    a = rep.main
    assert a.infinite_cyclic and a.hyperbolic and a.toral_rel_hyp
    assert a.acyl_status == "infinite_cyclic"


def test_full_report_rose():
    rep = full_report(F.rose_graph(2, 3), 6, run_oracles="off")
    a = rep.main
    assert a.free == "free" and a.hyperbolic and a.toral_rel_hyp


def test_full_report_disconnected_assignments():
    g1 = F.cycle_graph(3)
    both = Graph.make(
        [f"a{v}" for v in g1.vertices] + [f"b{v}" for v in g1.vertices],
        [(f"a{e.id}", f"a{e.u}", f"a{e.v}") for e in g1.edges]
        + [(f"b{e.id}", f"b{e.u}", f"b{e.v}") for e in g1.edges],
    )
    rep = full_report(both, 2, run_oracles="off")
    assert len(rep.assignments) == 3
    split = {a.assignment: a for a in rep.assignments}
    # both particles on one triangle: infinite cyclic
    assert split[(2, 0)].infinite_cyclic
    # one per triangle: Z x Z, not hyperbolic, still toral RH
    mixed = split[(1, 1)]
    assert not mixed.hyperbolic and mixed.toral_rel_hyp
    assert mixed.acyl_status == "product_of_infinite_groups"


def isolated(k):
    return Graph.make([str(i) for i in range(k)], [])


def test_assignments_keep_the_product_order():
    for k in range(7):
        for n in range(6):
            filtered = tuple(split for split in itertools.product(range(n + 1), repeat=k)
                             if sum(split) == n)
            assert tuple(a.counts for a in assignments(isolated(k), n)) == filtered
    assert assignments(isolated(3), -1) == ()


def test_assignments_are_counted_before_they_are_listed():
    start = time.perf_counter()
    assert len(assignments(isolated(18), 2)) == 171
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ResourceLimitError):
        assignments(isolated(30), 10)      # C(39, 29) compositions


def test_full_report_classifies_each_component_count_once(monkeypatch):
    calls = []
    classify = C._classify_component

    def counting(comp, k):
        calls.append(k)
        return classify(comp, k)

    monkeypatch.setattr(C, "_classify_component", counting)
    tens = Graph.make([f"{c}x{i}" for c in range(10) for i in range(3)],
                      [(f"{c}e{i}", f"{c}x{i}", f"{c}x{(i + 1) % 3}")
                       for c in range(10) for i in range(3)])
    rep = full_report(tens, 4, run_oracles="off")
    assert len(rep.assignments) == 715 and len(calls) == 50
    calls.clear()
    full_report(F.complete_graph(5), 3, run_oracles="off")
    assert calls == [3]


def test_consistency_check_survives_optimize():
    # a trivial group cannot contain F2; the check must not be an assert
    forged = AssignmentReport((2,), (), True, False, True, True, "trivial",
                              "free", True, False)
    with pytest.raises(InvariantError):
        C._check_consistency(forged)
    code = ("from braidscope.classifier import AssignmentReport, _check_consistency\n"
            f"_check_consistency({forged!r})")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 1 and "InvariantError" in proc.stderr


def test_full_report_flags_oracle_skip():
    # a sun with sixteen rayed vertices is cheap for the fast path but
    # exceeds the oracle's smoothed-vertex cap
    g = F.sun_graph(20, tuple(range(1, 17)))
    rep = full_report(g, 2, run_oracles="auto")
    assert rep.oracle_agreement is None
    assert "skipped" in rep.oracle_note
    with pytest.raises(ResourceLimitError):
        full_report(g, 2, run_oracles="on")
