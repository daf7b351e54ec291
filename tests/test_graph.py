import copy
import os
import pickle
import random
import subprocess
import sys
import time

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

import cycles_reference as R
import labels as L
from braidscope import families as F
from braidscope.errors import PreconditionError, ResourceLimitError
from braidscope.graph import (
    CYCLE, CYCLE_TWO_RAYS, GENERAL, HGRAPH, PULSAR, ROSE, SEGMENT, STAR,
    SUN, THETA, TREE,
    Graph, classify_shape, connected_components, first_betti, idkey,
    _subdivided, normalize, simple_cycles, smooth, subdivide_all, subdivide_for,
)


def to_nx_multigraph(g):
    m = nx.MultiGraph()
    m.add_nodes_from(g.vertices)
    m.add_edges_from((e.u, e.v) for e in g.edges)
    return m


def homeomorphic_multigraphs(a, b):
    return nx.is_isomorphic(to_nx_multigraph(a), to_nx_multigraph(b))


def subdivide_edge(g: Graph, edge_id: str, times: int = 1) -> Graph:
    """Replace one edge by a path with `times` interior vertices."""
    if times < 1:
        return g
    inner, path = _subdivided(g.edge_by_id[edge_id], times)
    return Graph._make(
        list(g.vertices) + inner,
        [(x.id, x.u, x.v) for x in g.edges if x.id != edge_id] + path)


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
            for y in L.neighbours(g, x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist[b]


def test_subdivide_for_refuses_a_hopeless_count_at_once(monkeypatch):
    # a component on c vertices lacks n - c vertices; from n = cap + c
    # on, they alone reach the cap, so not a single edge may be split
    import braidscope.graph as G
    monkeypatch.setattr(G, "_split_least", None)
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


# -- families -------------------------------------------------------------

@pytest.mark.parametrize("graph,vertices,edges", [
    (F.star_graph(2, 2), "c a1v1 a1v2 a2v1 a2v2",
     "a1e1:c-a1v1 a1e2:a1v1-a1v2 a2e1:c-a2v1 a2e2:a2v1-a2v2"),
    (F.rose_graph(1, 3, rays=1, ray_length=2), "c p1v1 p1v2 r1v1 r1v2",
     "p1e1:c-p1v1 p1e2:p1v1-p1v2 p1e3:p1v2-c r1e1:c-r1v1 r1e2:r1v1-r1v2"),
    (F.sun_graph(3, (2,), ray_length=2), "1 2 3 s2v1 s2v2",
     "e1:1-2 e2:2-3 e3:3-1 s2e1:2-s2v1 s2e2:s2v1-s2v2"),
    (F.theta_graph(1, 2, 3), "u w b1 c1 c2",
     "ae1:u-w be1:u-b1 be2:b1-w ce1:u-c1 ce2:c1-c2 ce3:c2-w"),
    (F.h_graph(2, 2), "u w m1 u1v1 u1v2 u2v1 u2v2 w1v1 w1v2 w2v1 w2v2",
     "me1:u-m1 me2:m1-w u1e1:u-u1v1 u1e2:u1v1-u1v2 u2e1:u-u2v1 "
     "u2e2:u2v1-u2v2 w1e1:w-w1v1 w1e2:w1v1-w1v2 w2e1:w-w2v1 w2e2:w2v1-w2v2"),
    (F.two_bouquets(1, 1, circle_len=3, bridge_length=2),
     "u w br1 up1v1 up1v2 wp1v1 wp1v2",
     "bre1:u-br1 bre2:br1-w up1e1:u-up1v1 up1e2:up1v1-up1v2 up1e3:up1v2-u "
     "wp1e1:w-wp1v1 wp1e2:wp1v1-wp1v2 wp1e3:wp1v2-w"),
], ids=["star", "rose", "sun", "theta", "h_graph", "two_bouquets"])
def test_family_ids_and_ends(graph, vertices, edges):
    assert graph.vertices == tuple(vertices.split())
    assert [f"{e.id}:{e.u}-{e.v}" for e in graph.edges] == edges.split()


def test_families_refuse_an_arc_of_length_zero_between_two_vertices():
    # such an arc once came out as one edge numbered 0
    for make in (lambda: F.h_graph(bridge_length=0),
                 lambda: F.two_bouquets(1, 1, bridge_length=0),
                 lambda: F.two_bouquets(1, 1, circle_len=0)):
        with pytest.raises(ValueError, match="length >= 1"):
            make()


@pytest.mark.parametrize("length", (1, 2))
def test_families_refuse_cycles_too_short_to_stay_simple(length):
    # a loop or a parallel pair once came out, with is_simple() False
    for make in (lambda: F.cycle_graph(length),
                 lambda: F.sun_graph(length, (1,)),
                 lambda: F.two_bouquets(1, 0, circle_len=length),
                 lambda: F.two_bouquets(0, 2, circle_len=length)):
        with pytest.raises(ValueError, match="length >= 3 to stay simple"):
            make()
    # no circles, nothing to refuse; the shortest simple lengths still build
    assert F.two_bouquets(0, 0, circle_len=length).is_simple()
    assert F.cycle_graph(3).is_simple()
    assert F.sun_graph(3, (1,)).is_simple()
    assert F.two_bouquets(1, 1, circle_len=3).is_simple()


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


def components_and_betti(g):
    m = to_nx_multigraph(g)
    comps = nx.number_connected_components(m)
    return comps, m.number_of_edges() - m.number_of_nodes() + comps


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shape_ignores_labels(data):
    # forests plus a few loops, parallels and cycles, connected or not,
    # isolated vertices included
    nv = data.draw(st.integers(1, 8))
    ends = st.integers(0, nv - 1)
    parents = [data.draw(st.none() | st.integers(0, i - 1))
               for i in range(1, nv)]
    edges = [(i, p) for i, p in enumerate(parents, 1) if p is not None]
    edges += data.draw(st.lists(st.tuples(ends, ends), max_size=4))
    g = Graph.make(map(str, range(nv)),
                   [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(edges)])
    assert normalize(g).is_simple()
    # normalize and smooth are homeomorphisms: components and b1 stay
    assert components_and_betti(normalize(g)) == components_and_betti(g)
    assert components_and_betti(smooth(g)) == components_and_betti(g)
    a = classify_shape(g)
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
    (c,) = G.simple_cycles(g)   # unpacking drains both batches
    assert time.monotonic() - t0 < 1
    assert len(c) == 4000 and c.vertices[:2] == ("1", "2")


def test_cycle_order_deterministic_and_canonical():
    cycles = simple_cycles(F.complete_graph(4))
    again = simple_cycles(F.complete_graph(4))
    assert cycles == again
    for c in cycles:
        assert c.vertices[0] == min(c.vertices)
        assert c.vertices[1] < c.vertices[-1]


@st.composite
def graphs_with_mixed_id_lengths(draw):
    # numeric ids of one to three digits: "10" < "9" as strings, while
    # idkey puts 9 first.  One id of 2..9 and one of 10..19 make the two
    # orders differ on every draw, and a K_4 less an edge on four of the
    # ids gives three cycles at least, so no draw needs filtering
    must = [draw(st.integers(2, 9)), draw(st.integers(10, 19))]
    rest = draw(st.lists(st.integers(0, 150), min_size=4, max_size=6, unique=True))
    ids = draw(st.permutations(list(dict.fromkeys(must + rest))))
    a, b, c, d = ids[:4]
    pairs = [(a, b), (b, c), (c, a), (a, d), (d, b)]
    pairs += [p for p in draw(st.lists(st.tuples(
        st.sampled_from(ids), st.sampled_from(ids)), max_size=11)) if p[0] != p[1]]
    pairs = {(min(u, v), max(u, v)) for u, v in pairs}
    return Graph.make(map(str, ids), [(f"e{i}", str(u), str(v))
                                      for i, (u, v) in enumerate(sorted(pairs))])


@settings(max_examples=100, deadline=None)
@given(graphs_with_mixed_id_lengths())
def test_cycle_order_is_shortest_first_then_the_idkey_sorted_ids_as_strings(g):
    # shortest first; one length in the order simple_cycles had before:
    # each cycle's ids sorted by idkey, those tuples compared as strings,
    # ties broken by rotation
    from braidscope.graph import idkey
    assert sorted(g.vertices) != list(g.vertices)
    cycles = simple_cycles(g)
    assert len(cycles) >= 3
    assert list(cycles) == sorted(cycles, key=lambda c: (
        len(c), tuple(sorted(c.vertices, key=idkey)), c.vertices))


def test_cycle_cache_returns_the_same_tuple_and_keeps_the_cap(monkeypatch):
    import braidscope.graph as G
    monkeypatch.setattr(G, "DEFAULT_CYCLE_CAP", 37)
    g = F.complete_graph(5)
    cycles = simple_cycles(g)
    assert len(cycles) == 37
    assert simple_cycles(g) is cycles
    # the cap is read when an enumeration runs; a cached tuple is returned
    monkeypatch.setattr(G, "DEFAULT_CYCLE_CAP", 36)
    assert simple_cycles(g) is cycles
    # the cap fires when a fill passes it; len drains
    with pytest.raises(ResourceLimitError):
        len(simple_cycles(F.complete_graph(5)))
    # the cache is no field: equality and hashing ignore it
    assert g == F.complete_graph(5) and hash(g) == hash(F.complete_graph(5))


def test_cycle_enumeration_that_raises_caches_nothing(monkeypatch):
    import braidscope.graph as G
    calls = []
    cycle_batches = G._cycle_batches

    def counting(g, cap):   # records an enumeration when it starts to run
        calls.append(cap)
        yield from cycle_batches(g, cap)

    monkeypatch.setattr(G, "_cycle_batches", counting)
    monkeypatch.setattr(G, "DEFAULT_CYCLE_CAP", 36)
    g = F.complete_graph(5)
    first = simple_cycles(g)
    with pytest.raises(ResourceLimitError):
        len(first)
    monkeypatch.setattr(G, "DEFAULT_CYCLE_CAP", 37)
    cycles = simple_cycles(g)
    assert len(cycles) == 37 and simple_cycles(g) is cycles
    assert calls == [36, 37]
    # a sequence that raised starts afresh when read again, under its cap
    with pytest.raises(ResourceLimitError):
        len(first)
    assert calls == [36, 37, 36] and simple_cycles(g) is cycles


@st.composite
def graphs_on_nine_vertices(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=16)) if pairs else []
    return Graph.make([str(v) for v in range(n)],
                      [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(chosen)])


@settings(max_examples=150, deadline=None)
@given(graphs_on_nine_vertices(), st.integers(0, 12), st.integers(0, 10**4),
       st.integers(-20, 20), st.integers(-20, 20))
def test_lazy_cycles_match_the_eager_reference(g, stop, k, lo, hi):
    R.check_lazy_cycles(g, stop, k, lo, hi)


def test_lazy_cycles_match_the_eager_reference_under_python_O(tmp_path):
    # the library's checks must not rest on assert statements
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import test_graph\n"
            "test_graph.test_lazy_cycles_match_the_eager_reference()\n"
            "print(__debug__)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, check=True, env=dict(
                             os.environ, PYTHONPATH=os.pathsep.join([here] + sys.path)))
    assert out.stdout == "False\n"


def test_a_graph_with_cycles_in_its_memo_copies_and_pickles():
    g = F.complete_graph(5)
    assert simple_cycles(g)[0].vertices == ("1", "2", "3")   # filled in part
    for clone in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert clone == g and simple_cycles(clone) == simple_cycles(g)
        assert len(simple_cycles(clone)) == 37


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
    assert a.vertices.isdisjoint(b.vertices)
    assert not a.vertices.isdisjoint(g.induced(["3", "4"]).vertices)


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
    assert {v: L.neighbours(g, v) for v in g.vertices} \
        == {"1": ("2", "10"), "2": ("1",), "10": ("1",)}
    assert g.adjacency is g.adjacency
    assert g.components() == (("1", "2", "10"),)


@st.composite
def multigraphs_with_mixed_ids(draw):
    # numeric ids, so that idkey order and string order differ; loops and
    # parallel edges allowed
    ids = draw(st.lists(st.integers(0, 120), min_size=1, max_size=8, unique=True))
    end = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(end, end), max_size=14))
    return Graph.make(map(str, ids), [(f"e{i}", str(u), str(v))
                                      for i, (u, v) in enumerate(pairs)])


@settings(max_examples=200, deadline=None)
@given(multigraphs_with_mixed_ids())
def test_adjacency_matches_networkx_on_multigraphs(g):
    m = to_nx_multigraph(g)
    assert list(g.adjacency) == list(g.vertices)
    for v, nb in g.adjacency.items():
        assert list(nb) == sorted(set(m[v]) - {v}, key=idkey)
        for y, e in nb.items():
            assert e in g.edges and {e.u, e.v} == {v, y}
    # incident edges come in id order, as in g.edges
    for v, es in g.incidence.items():
        assert list(es) == sorted(es, key=lambda e: idkey(e.id))


def test_components_are_searched_once_per_graph(monkeypatch):
    g = Graph.make(["3", "1", "2", "10", "z"],
                   [("a", "1", "10"), ("b", "3", "2")])
    first = g.components()
    assert first == (("1", "10"), ("2", "3"), ("z",))
    # later calls, is_connected and first_betti read the kept tuple
    monkeypatch.setattr("braidscope.graph.connected_components", None)
    assert g.components() is first
    assert not g.is_connected() and g.first_betti() == 0


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


def grow_one_vertex_per_pass(g, n):
    """The small-component passes of subdivide_for as they were: while a
    component has 2..n-1 vertices, split its least edge and rebuild."""
    out = g
    while True:
        small = next((c for c in out.components() if 1 < len(c) < n), None)
        if small is None:
            return out
        out = subdivide_edge(out, next(
            e.id for e in out.edges if e.u in small))


@st.composite
def graphs_with_small_components(draw):
    # ids of mixed lengths, so that an edge's halves may sort before or
    # after its neighbours; simple graphs, as subdivide_for expects
    names = draw(st.lists(st.sampled_from(
        ["a", "b", "c", "d", "x1", "x10", "y2", "y22", "long1", "zz"]),
        min_size=2, max_size=8, unique=True))
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True,
                           max_size=min(len(pairs), 8)))
    eids = draw(st.lists(st.sampled_from(
        ["e", "f", "g1", "g10", "h22", "e3", "k", "edge", "q7", "r"]),
        min_size=len(chosen), max_size=len(chosen), unique=True))
    return Graph.make(names, [(i, u, v) for i, (u, v) in zip(eids, chosen)])


@settings(max_examples=150, deadline=None)
@given(graphs_with_small_components(), st.integers(2, 9))
def test_small_components_grown_as_one_vertex_per_pass(g, n):
    # the branch quotas give a small component the vertices it lacks, in
    # the same places and under the same ids as one pass per vertex and
    # as the per-pass search that grew small components first
    assert subdivide_for(g, n) == subdivide_for(grow_one_vertex_per_pass(g, n), n)
    assert subdivide_for(g, n) == subdivide_one_pass_at_a_time(g, n)


def _shortest_path(g, a, b, direct=True):
    """Vertex list of one shortest a-b path, ties broken canonically;
    with ``direct=False`` the path may not take an a-b edge."""
    prev = {a: None}
    frontier = [a]
    while frontier and b not in prev:
        nxt = []
        for x in frontier:
            for y in L.neighbours(g, x):
                if y not in prev and (direct or x != a or y != b):
                    prev[y] = x
                    nxt.append(y)
        frontier = nxt
    if b not in prev:
        return None
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _girth_cycle(g):
    """Vertices of one shortest simple cycle of a simple graph, or None."""
    best = None
    for e in g.edges:
        path = _shortest_path(g, e.u, e.v, direct=False)
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    return best


def subdivide_one_pass_at_a_time(g, n):
    """subdivide_for as it was, on a simple graph: grow the small
    components, then per pass search every essential-essential and
    essential-leaf shortest path and then the girth again, and split the
    least edge of the first one that is too short.  A pass that finds
    none ends; the passes, the growth's vertices included, may number
    at most the cap."""
    import braidscope.graph as G
    lacking = sum(n - len(c) for c in g.components() if 1 < len(c) < n)
    if lacking >= G.SUBDIVIDE_PASS_CAP:
        raise ResourceLimitError("subdivide_for did not converge")
    out = grow_one_vertex_per_pass(g, n)
    for _ in range(G.SUBDIVIDE_PASS_CAP - lacking):
        ess = out.essential_vertices()
        leaves = [v for v in out.vertices if out.degree(v) == 1]
        pairs = [(a, b) for i, a in enumerate(ess) for b in ess[i + 1:]]
        pairs += [(a, b) for a in ess for b in leaves]
        short = None
        for a, b in pairs:
            path = _shortest_path(out, a, b)
            if path is not None and len(path) - 1 < n - 1:
                short = path
                break
        if short is None:
            cyc = _girth_cycle(out)
            if cyc is None or len(cyc) >= n + 1:
                return out
            short = cyc + cyc[:1]
        out = subdivide_edge(out, min(
            (L.edge_between(out, x, y) for x, y in zip(short, short[1:])),
            key=lambda eid: (len(eid), eid)))
    raise ResourceLimitError("subdivide_for did not converge")


@st.composite
def graphs_with_circles_and_trees(draw):
    # one to three components, each a circle or a tree with up to two
    # chords and up to three pendant vertices, or a point; ids of mixed
    # lengths, so that a split edge's halves may sort before or after
    # the other edges of its branch
    vnames = iter(draw(st.permutations(range(1, 120)))[:60])
    enames = iter(draw(st.permutations(range(1, 120)))[:60])
    vertices, edges = [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["circle", "tree", "point"]))
        comp = [f"v{next(vnames)}" for _ in range(
            1 if kind == "point" else draw(st.integers(2, 5)))]
        if kind == "circle" and len(comp) >= 3:
            pairs = {(i - 1, i) for i in range(1, len(comp))} | {(0, len(comp) - 1)}
        else:
            pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, len(comp))}
        if kind != "point":
            for _ in range(draw(st.integers(0, 2))):
                pairs.add(tuple(sorted(draw(st.lists(
                    st.integers(0, len(comp) - 1),
                    min_size=2, max_size=2, unique=True)))))
            for _ in range(draw(st.integers(0, 3))):
                pairs.add((draw(st.integers(0, len(comp) - 1)), len(comp)))
                comp.append(f"v{next(vnames)}")
        vertices += comp
        edges += [(f"e{next(enames)}", comp[a], comp[b]) for a, b in sorted(pairs)]
    return Graph.make(vertices, edges)


def _outcome(subdivide, g, n):
    try:
        return subdivide(g, n)
    except ResourceLimitError as exc:
        return repr(exc)


@settings(max_examples=150, deadline=None)
@given(graphs_with_circles_and_trees(), st.integers(1, 12), st.integers(8, 50))
def test_subdivide_for_equals_one_pass_at_a_time(g, n, cap):
    # each branch is split up to its quota at once, in the same places
    # and under the same ids as one violating path or cycle per pass,
    # and the pass cap refuses exactly the same inputs: at a cap drawn
    # from 8..50 and at the two caps around the vertices added
    import braidscope.graph as G
    assume(g.edges or len(g.vertices) >= n)
    out = subdivide_for(g, n)
    assert out == subdivide_one_pass_at_a_time(g, n)
    added = len(out.vertices) - len(g.vertices)
    for lowered in (cap, added, added + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(G, "SUBDIVIDE_PASS_CAP", lowered)
            assert (_outcome(subdivide_for, g, n)
                    == _outcome(subdivide_one_pass_at_a_time, g, n))
            assert isinstance(_outcome(subdivide_for, g, n), str) == (added >= lowered)
