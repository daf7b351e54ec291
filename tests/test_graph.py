import os
import random
import subprocess
import sys
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from braidscope import families as F
from braidscope.errors import PreconditionError, ResourceLimitError
from braidscope.graph import (
    CYCLE, CYCLE_TWO_RAYS, GENERAL, HGRAPH, PULSAR, ROSE, SEGMENT, STAR,
    SUN, THETA, TREE,
    Graph, UnionFind, classify_shape, connected_components, first_betti,
    normalize, simple_cycles, smooth, subdivide_all, subdivide_edge,
    subdivide_for,
)


def to_nx_multigraph(g):
    m = nx.MultiGraph()
    m.add_nodes_from(g.vertices)
    m.add_edges_from((e.u, e.v) for e in g.edges)
    return m


def homeomorphic_multigraphs(a, b):
    return nx.is_isomorphic(to_nx_multigraph(a), to_nx_multigraph(b))


def random_connected_graph(rng, nv):
    while True:
        m = nx.gnp_random_graph(nv, 0.5, seed=rng.randint(0, 10**9))
        if m.number_of_nodes() and nx.is_connected(m):
            return Graph.make(
                [str(v) for v in m.nodes],
                [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(m.edges)],
            )


# -- normalize -----------------------------------------------------------

def test_normalize_loop_becomes_triangle():
    g = Graph.make(["x"], [("l", "x", "x")])
    n = normalize(g)
    assert n.is_simple()
    assert len(n.vertices) == 3 and len(n.edges) == 3


def test_normalize_identity_on_simple():
    g = F.complete_graph(4)
    assert normalize(g) is g


def test_normalize_parallel_pair_becomes_square():
    g = Graph.make(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
    n = normalize(g)
    assert n.is_simple()
    assert len(n.vertices) == 4 and len(n.edges) == 4
    assert homeomorphic_multigraphs(smooth(n), smooth(normalize(F.cycle_graph(4))))


@pytest.mark.parametrize("vertices,edges", [
    (["u", "v", "e#s1"], [("e", "u", "v")]),   # would merge with e's midpoint
    (["x", "y"], [("a~b", "x", "y")]),
    (["x~", "y"], []),
    (["x", "y"], [("#", "x", "y")]),
])
def test_make_refuses_reserved_characters(vertices, edges):
    with pytest.raises(PreconditionError, match="reserved character"):
        Graph.make(vertices, edges)


def test_generated_ids_round_trip_through_normalize_subdivide_and_smooth():
    g = Graph.make(["x", "y"], [("l", "x", "x"), ("p", "x", "y"),
                                ("q", "x", "y")])
    n = normalize(g)
    assert n.is_simple() and "l#s2" in n.vertices and "p#s1" in n.vertices
    twice = subdivide_edge(n, "l#p1", 2)
    assert {"l#p1#s1", "l#p1#s2"} <= set(twice.vertices)
    every = subdivide_all(twice, 1)
    assert len(every.vertices) == len(twice.vertices) + len(twice.edges)
    m = smooth(every)
    assert all("~" in e.id for e in m.edges)
    assert smooth(m) == m and homeomorphic_multigraphs(m, smooth(g))
    assert first_betti(m) == first_betti(g) == 2
    assert n.induced(v for v in n.vertices if v != "y").as_graph().vertices \
        == ("x", "l#s1", "l#s2", "p#s1", "q#s1")


# -- subdivide_for ---------------------------------------------------------

def test_subdivide_for_k5_two_particles_unchanged():
    g = F.complete_graph(5)
    assert subdivide_for(g, 2) is g


def test_subdivide_for_triangle_three_particles():
    out = subdivide_for(F.cycle_graph(3), 3)
    assert len(out.vertices) == 4 and len(out.edges) == 4


def test_subdivide_for_segment_two_particles_unchanged():
    g = F.path_graph(1)
    assert subdivide_for(g, 2) is g


def test_subdivide_for_conditions_hold():
    rng = random.Random(11)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 6))
        for n in (2, 3, 4):
            out = subdivide_for(g, n)
            assert len(out.vertices) >= n
            ess = out.essential_vertices()
            for a in ess:
                for b in ess:
                    if a < b:
                        dist = _distance(out, a, b)
                        assert dist >= n - 1
            cycles = simple_cycles(out)
            assert all(len(c) >= n + 1 for c in cycles)


def test_subdivide_for_gives_every_component_with_an_edge_n_vertices():
    # K_2 plus a triangle plus an isolated vertex: all three particles may
    # sit on the segment, so it needs 3 vertices of its own
    g = Graph.make(["x", "y", "p", "q", "r", "z"],
                   [("a", "x", "y"), ("b", "p", "q"), ("c", "q", "r"),
                    ("d", "r", "p")])
    out = subdivide_for(g, 3)
    assert sorted(len(c) for c in out.components()) == [1, 3, 4]
    assert ("z",) in out.components()
    with pytest.raises(PreconditionError):
        subdivide_for(Graph.make(["x", "y"], []), 3)


def _distance(g, a, b):
    frontier, dist = [a], {a: 0}
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.neighbors(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist[b]


def test_subdivide_for_refuses_a_hopeless_count_at_once(monkeypatch):
    # a component on c vertices needs n - c vertex-adding passes and a
    # last one that checks; from n = cap + c on, that exceeds the cap,
    # so not a single pass may start
    import braidscope.graph as G
    monkeypatch.setattr(G, "subdivide_edge", None)
    g = F.path_graph(3)
    for n in (G.SUBDIVIDE_PASS_CAP + len(g.vertices), 10**20):
        with pytest.raises(ResourceLimitError, match="did not converge"):
            subdivide_for(g, n)


# -- smooth ---------------------------------------------------------------

def test_smooth_cycle_to_loop():
    m = smooth(F.cycle_graph(6))
    assert len(m.vertices) == 1 and len(m.edges) == 1
    assert m.edges[0].is_loop()
    # a bare circle keeps its least vertex; the walk names the merged edge
    assert m.vertices == ("1",) and m.edges[0].id == "(e1~e2~e3~e4~e5~e6)"


def test_smooth_k5_unchanged():
    m = smooth(F.complete_graph(5))
    assert len(m.vertices) == 5 and len(m.edges) == 10


def test_smooth_path_to_single_edge():
    m = smooth(F.path_graph(5))
    assert len(m.vertices) == 2 and len(m.edges) == 1
    assert m.edges[0].id == "(e1~e2~e3~e4~e5)"


def test_smooth_subdivision_invariance():
    rng = random.Random(5)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(2, 6))
        for n in (2, 4, 6):
            left = smooth(subdivide_for(g, n))
            right = smooth(g)
            assert homeomorphic_multigraphs(left, right)


# -- shapes ---------------------------------------------------------------

def test_shape_spec_examples():
    # two triangles sharing a vertex form a rose with two petals
    s = classify_shape(F.rose_graph(2, 3))
    assert s.tag == ROSE
    assert s.detail["rose_cycles"] == 2 and s.detail["rose_rays"] == 0
    # two triangles sharing an edge form a theta
    k4_minus = Graph.make(
        "uvab",
        [("e1", "u", "v"), ("e2", "u", "a"), ("e3", "a", "v"),
         ("e4", "u", "b"), ("e5", "b", "v")],
    )
    assert classify_shape(k4_minus).tag == THETA
    # a cycle with pendant paths at two vertices
    assert classify_shape(F.sun_graph(5, (1, 3))).tag == CYCLE_TWO_RAYS


@pytest.mark.parametrize("graph,tag,members", [
    (F.path_graph(4), SEGMENT, {SEGMENT, TREE, ROSE}),
    (F.cycle_graph(7), CYCLE, {CYCLE, ROSE, SUN, PULSAR}),
    (F.star_graph(3), STAR, {STAR, TREE, ROSE}),
    (F.star_graph(4, 2), STAR, {STAR, TREE, ROSE}),
    (F.theta_graph(2, 2, 2), THETA, {THETA, PULSAR}),
    (F.complete_bipartite(2, 3), THETA, {THETA, PULSAR}),
    (F.h_graph(2), HGRAPH, {HGRAPH, TREE}),
    (F.sun_graph(6, (1, 4)), CYCLE_TWO_RAYS, {CYCLE_TWO_RAYS, SUN, PULSAR}),
    (F.rose_graph(2, 4, rays=1), ROSE, {ROSE}),
    (F.sun_graph(6, (1, 3, 5)), SUN, {SUN}),
    (F.complete_bipartite(2, 4), PULSAR, {PULSAR}),
    (F.complete_graph(4), GENERAL, set()),
    (F.complete_graph(5), GENERAL, set()),
])
def test_shape_taxonomy(graph, tag, members):
    s = classify_shape(graph)
    assert s.tag == tag
    assert set(s.memberships) == members


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shape_ignores_labels(data):
    # forests plus a few loops, parallels and cycles, connected or not
    nv = data.draw(st.integers(1, 8))
    ends = st.integers(0, nv - 1)
    parents = [data.draw(st.none() | st.integers(0, i - 1))
               for i in range(1, nv)]
    edges = [(i, p) for i, p in enumerate(parents, 1) if p is not None]
    edges += data.draw(st.lists(st.tuples(ends, ends), max_size=4))
    a = classify_shape(Graph.make(
        map(str, range(nv)),
        [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(edges)]))
    for _ in range(3):
        vp = data.draw(st.permutations([f"w{v}" for v in range(nv)]))
        ep = data.draw(st.permutations([f"f{i}" for i in range(len(edges))]))
        b = classify_shape(Graph.make(
            vp, [(ep[i], vp[u], vp[v]) for i, (u, v) in enumerate(edges)]))
        assert (a.tag, a.memberships) == (b.tag, b.memberships)


def test_shape_of_disconnected_graph_ignores_the_hash_seed():
    code = ("from braidscope.graph import Graph, classify_shape\n"
            "g = Graph.make('abcde', [('l', 'a', 'a'), ('x', 'b', 'c'),\n"
            "                         ('y', 'b', 'd'), ('z', 'b', 'e')])\n"
            "s = classify_shape(g)\n"
            "print(s.tag, sorted(s.memberships))\n")
    outs = set()
    for seed in ("1", "2"):   # two seeds that order string sets differently
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed}, check=True)
        outs.add(proc.stdout)
    assert outs == {"general []\n"}


def test_shape_subdivision_invariance():
    fixtures = [F.path_graph(3), F.cycle_graph(5), F.star_graph(4),
                F.theta_graph(2, 2, 2), F.h_graph(), F.rose_graph(3, 3, 2),
                F.sun_graph(5, (1, 2)), F.complete_bipartite(2, 5),
                F.complete_graph(4)]
    for g in fixtures:
        base = classify_shape(g)
        for n in (2, 3, 5):
            sub = classify_shape(subdivide_for(g, n))
            assert sub.tag == base.tag
            assert sub.memberships == base.memberships


# -- cycles and betti ------------------------------------------------------

def test_cycle_counts():
    assert len(simple_cycles(F.cycle_graph(4))) == 1
    assert len(simple_cycles(F.complete_graph(4))) == 7
    assert len(simple_cycles(F.star_graph(3))) == 0


def test_cycles_match_networkx():
    rng = random.Random(11)
    graphs = [random_connected_graph(rng, rng.randint(3, 7))
              for _ in range(40)]
    for _ in range(10):   # trees, and long cycles with trees hanging off
        nv = rng.randint(1, 30)
        tree = [(f"t{i}", str(i), str(rng.randrange(i))) for i in range(1, nv)]
        graphs.append(Graph.make(map(str, range(nv)), tree))
        k = rng.randint(3, 40)
        ring = [(f"c{i}", str(i), str((i + 1) % k)) for i in range(k)]
        hang = [(f"h{i}", str(i), str(rng.randrange(i)))
                for i in range(k, k + rng.randint(0, 10))]
        graphs.append(Graph.make(map(str, range(k + len(hang))), ring + hang))
    for g in graphs:
        ours = sorted(sorted(c.vertices) for c in simple_cycles(g))
        theirs = sorted(sorted(c) for c in nx.simple_cycles(to_nx_multigraph(g)))
        assert ours == theirs


def test_long_cycle_needs_no_recursion():
    # one path vertex per stack frame would pass the default limit of 1000
    (c,) = simple_cycles(F.cycle_graph(1100))
    assert len(c) == 1100 and c.vertices[0] == "1"


def test_long_cycle_is_enumerated_in_linear_time():
    import braidscope.graph as G
    g = F.cycle_graph(4000)
    t0 = time.monotonic()
    (c,) = G._enumerate_cycles(g, G.DEFAULT_CYCLE_CAP)
    assert time.monotonic() - t0 < 1
    assert len(c) == 4000 and c.vertices[:2] == ("1", "2")


def test_cycle_order_deterministic_and_canonical():
    cycles = simple_cycles(F.complete_graph(4))
    again = simple_cycles(F.complete_graph(4))
    assert cycles == again
    for c in cycles:
        assert c.vertices[0] == min(c.vertices)
        assert c.vertices[1] < c.vertices[-1]


def test_cycle_cache_returns_the_same_tuple_and_keeps_the_cap():
    g = F.complete_graph(5)
    cycles = simple_cycles(g)
    assert len(cycles) == 37
    assert simple_cycles(g) is cycles
    assert simple_cycles(g, cap=37) is cycles
    with pytest.raises(ResourceLimitError):
        simple_cycles(g, cap=36)
    # the cache is no field: equality and hashing ignore it
    assert g == F.complete_graph(5) and hash(g) == hash(F.complete_graph(5))


def test_cycle_enumeration_that_raises_caches_nothing(monkeypatch):
    import braidscope.graph as G
    calls = []
    enumerate_cycles = G._enumerate_cycles

    def counting(g, cap):
        calls.append(cap)
        return enumerate_cycles(g, cap)

    monkeypatch.setattr(G, "_enumerate_cycles", counting)
    g = F.complete_graph(5)
    with pytest.raises(ResourceLimitError):
        simple_cycles(g, cap=36)
    cycles = simple_cycles(g)
    assert len(cycles) == 37 and simple_cycles(g) is cycles
    assert calls == [36, G.DEFAULT_CYCLE_CAP]


def test_cycles_project_under_subdivision():
    for g in [F.complete_graph(4), F.theta_graph(2, 2, 2),
              F.complete_bipartite(2, 3)]:
        base = simple_cycles(g)
        sub = simple_cycles(subdivide_all(g, 1))
        assert len(base) == len(sub)
        originals = set(g.vertices)
        projected = sorted(frozenset(c.vertex_set & originals) for c in sub)
        assert projected == sorted(c.vertex_set for c in base)


def test_first_betti():
    assert first_betti(F.star_graph(5)) == 0
    assert first_betti(F.theta_graph(2, 2, 2)) == 2
    assert first_betti(F.complete_graph(5)) == 6


def test_first_betti_additive_and_subdivision_invariant():
    g1, g2 = F.complete_graph(4), F.theta_graph(2, 2, 2)
    both = Graph.make(
        [f"a{v}" for v in g1.vertices] + [f"b{v}" for v in g2.vertices],
        [(f"a{e.id}", f"a{e.u}", f"a{e.v}") for e in g1.edges]
        + [(f"b{e.id}", f"b{e.u}", f"b{e.v}") for e in g2.edges],
    )
    assert first_betti(both) == first_betti(g1) + first_betti(g2)
    assert first_betti(subdivide_all(g1, 2)) == first_betti(g1)


def test_subgraph_betti():
    g = F.complete_graph(5)
    tri = g.induced(["1", "2", "3"])
    assert first_betti(tri) == 1
    assert tri.is_proper()


def test_subgraph_disjointness():
    g = F.complete_graph(6)
    a = g.induced(["1", "2", "3"])
    b = g.induced(["4", "5", "6"])
    assert a.vertex_disjoint(b)
    assert not a.vertex_disjoint(g.induced(["3", "4"]))


# -- the shared component search and union-find ----------------------------

@st.composite
def graphs_with_banned(draw):
    vs = list(range(draw(st.integers(1, 12))))
    vertex = st.sampled_from(vs)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=24))
    banned = draw(st.sets(vertex))
    order = draw(st.permutations(vs))
    return order, edges, banned


@settings(max_examples=300, deadline=None)
@given(graphs_with_banned())
def test_connected_components_match_networkx(case):
    order, edges, banned = case
    adj = {v: [] for v in order}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comps = connected_components(order, adj, banned)
    nxg = nx.MultiGraph()
    nxg.add_nodes_from(order)
    nxg.add_edges_from(edges)
    nxg.remove_nodes_from(banned)
    assert sorted(map(sorted, comps)) == sorted(map(sorted, nx.connected_components(nxg)))
    firsts = [min(order.index(v) for v in comp) for comp in comps]
    assert firsts == sorted(firsts)


def test_adjacency_is_cached_sorted_and_loop_free():
    g = Graph.make(["1", "2", "10"], [("a", "1", "1"), ("b", "1", "10"),
                                      ("c", "1", "2"), ("d", "2", "1")])
    assert g.adjacency == {"1": ("2", "10"), "2": ("1",), "10": ("1",)}
    assert g.neighbors("1") is g.neighbors("1")
    assert g.components() == (("1", "2", "10"),)


def test_union_find_joins_classes():
    uf = UnionFind()
    uf.union(1, 2)
    uf.union(3, 4)
    uf.union(2, 4)
    assert len({uf.find(x) for x in (1, 2, 3, 4)}) == 1
    assert uf.find(5) == 5 and uf.find(1) != uf.find(5)


@pytest.mark.parametrize("times", [1, 2, 3])
def test_subdivide_all_equals_the_per_edge_loop(times):
    rng = random.Random(times)
    for _ in range(25):
        nv = rng.randint(1, 7)
        names = [f"v{i}" for i in range(nv)]
        edges = [(f"e{i}", rng.choice(names), rng.choice(names))
                 for i in range(rng.randint(0, 12))]   # loops and parallels too
        g = Graph.make(names, edges)
        one_by_one = g
        for e in g.edges:
            one_by_one = subdivide_edge(one_by_one, e.id, times)
        assert subdivide_all(g, times) == one_by_one
    assert subdivide_all(g, 0) is g
