import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import labels as L
from braidscope import families as F
from braidscope.complex import build, count_cubes, is_surface, verify_npc
from braidscope.errors import PreconditionError, ResourceLimitError
from braidscope.graph import Graph, normalize, subdivide_for
from braidscope.hyperplanes import verify_special_coloring


def test_f_vector_path():
    x = build(F.path_graph(2), 2)
    assert x.f_vector() == (3, 2, 0)
    assert x.component_count() == 1
    confs = set(L.configuration_ids(x))
    assert confs == {("1", "2"), ("1", "3"), ("2", "3")}


def test_f_vector_k5():
    x = build(F.complete_graph(5), 2)
    assert x.f_vector() == (10, 30, 15)


def test_f_vector_star():
    x = build(F.star_graph(3), 2)
    assert x.f_vector() == (6, 6, 0)
    assert x.component_count() == 1


def test_euler_characteristic_examples():
    assert build(F.path_graph(2), 2).euler_characteristic() == 1
    assert build(F.cycle_graph(4), 2).euler_characteristic() == 0
    assert build(F.complete_graph(5), 2).euler_characteristic() == -5


def test_euler_characteristic_requires_full_build():
    x = build(F.complete_graph(5), 2, max_dim=1)
    with pytest.raises(PreconditionError):
        x.euler_characteristic()


def test_cell_cap():
    with pytest.raises(ResourceLimitError):
        build(F.complete_graph(5), 2, cell_cap=9)


def test_every_cube_has_2d_facets_present():
    for g, n in [(F.complete_graph(5), 2),
                 (subdivide_for(F.complete_graph(4), 3), 3)]:
        x = build(g, n)
        for d in range(1, len(x.levels)):
            below = {L.label(g, k) for k in x.level(d - 1)}
            for key in x.level(d):
                facets = L.facets(g, L.label(g, key))
                assert len(facets) == 2 * d
                assert all(k in below for k in facets)


def test_connectivity_after_subdivision():
    rng = random.Random(3)
    fixtures = [F.complete_graph(4), F.star_graph(3), F.theta_graph(2, 2, 2),
                F.cycle_graph(5), F.h_graph()]
    for g in fixtures:
        for n in (2, 3):
            sub = subdivide_for(g, n)
            if len(sub.vertices) >= n + 1:
                assert build(sub, n).component_count() == 1


def test_npc_passes_on_builds():
    cases = [(F.complete_graph(5), 2),
             (subdivide_for(F.complete_graph(4), 3), 3),
             (subdivide_for(F.complete_graph(5), 3), 3),
             (F.star_graph(3), 2)]
    for g, n in cases:
        assert verify_npc(build(g, n)).ok


def test_npc_fails_after_square_removal():
    x = build(F.cycle_graph(4), 2)
    mutated = L.without(x, next(iter(x.level(2))))
    report = verify_npc(mutated)
    assert not report.ok
    assert report.failures
    # the missing square, once from each of its four corners
    assert report.failures == tuple(
        (conf, ("e1", "e3"), (("e1", "e3"), ()))
        for conf in [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")])


def test_npc_names_the_facet_missing_under_a_kept_square():
    # the square (e1, e3) at corner (1, 3) lacks the facet e1 with 3 kept
    x = build(F.cycle_graph(4), 2)
    mutated = L.without(x, L.key(x.graph, (("e1",), ("3",))))
    assert verify_npc(mutated).failures == (
        (("1", "3"), ("e1", "e3"), (("e1",), ("3",))),)


def test_surface_k5():
    rep = is_surface(build(F.complete_graph(5), 2))
    assert rep.ok
    assert set(rep.link_cycle_lengths) == {6}


def test_surface_negative_cases():
    assert not is_surface(build(F.path_graph(2), 2)).ok
    assert not is_surface(build(F.cycle_graph(4), 2)).ok


def test_product_f_vector_multiplicativity():
    # disjoint union of a triangle and a segment, one particle per side
    g1, g2 = F.cycle_graph(3), F.path_graph(2)
    both = Graph.make(
        [f"a{v}" for v in g1.vertices] + [f"b{v}" for v in g2.vertices],
        [(f"a{e.id}", f"a{e.u}", f"a{e.v}") for e in g1.edges]
        + [(f"b{e.id}", f"b{e.u}", f"b{e.v}") for e in g2.edges],
    )
    x = build(both, 2)
    left = build(g1, 1)
    right = build(g2, 1)

    split_conf = ("a1", "b1")
    numbers = L.component_numbers(x)
    label = numbers[tuple(sorted(split_conf, key=lambda t: (len(t), t)))]
    per_dim = [0] * len(x.levels)
    for d, level in enumerate(x.levels):
        for (m, s) in level:
            corner = L.ids(both, s | L.mask(both, [e.u for e in L.moving(both, m)]))
            if numbers[corner] == label:
                per_dim[d] += 1
    fl, fr = left.f_vector(), right.f_vector()
    expected = []
    for d in range(len(per_dim)):
        expected.append(sum(fl[i] * fr[d - i]
                            for i in range(len(fl)) if 0 <= d - i < len(fr)))
    assert per_dim == expected


def test_dimension_zero_complex_has_one_component_per_configuration():
    x = build(F.path_graph(3), 1, max_dim=0)
    assert {L.ids(x.graph, a): around for a, around in L.skeleton(x).items()} \
        == {("1",): [], ("2",): [], ("3",): [], ("4",): []}
    assert x.component_count() == 4
    assert sorted(L.component_numbers(x).values()) == [0, 1, 2, 3]
    y = build(F.complete_graph(4), 2, max_dim=0)
    assert y.component_count() == len(L.configuration_ids(y)) == 6


def test_edge_ends_follow_the_edge_orientation():
    x = build(F.path_graph(2), 2)
    g, skeleton = x.graph, L.skeleton(x)
    for (m, s) in x.level(1):
        u, v = x.index.ends[m]
        (e,), a, b = L.moving(g, m), L.ids(g, s | u), L.ids(g, s | v)
        assert (set(a) ^ set(b)) == {e.u, e.v}
        assert e.u in a and e.v in b
        assert (m, s | v) in skeleton[s | u] and (m, s | u) in skeleton[s | v]


@st.composite
def small_simple_graphs(draw):
    """Up to 7 vertices, simple, isolated vertices and several components
    allowed."""
    nv = draw(st.integers(1, 7))
    pairs = draw(st.sets(st.tuples(st.integers(0, nv - 1),
                                   st.integers(0, nv - 1)), max_size=12))
    pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    return Graph.make([str(i) for i in range(nv)],
                      [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(pairs)])


@settings(max_examples=150, deadline=None)
@given(small_simple_graphs(), st.integers(0, 4), st.sampled_from([0, 1, None]))
def test_component_count_matches_networkx(g, n, max_dim):
    x = build(g, min(n, len(g.vertices)), max_dim=max_dim)
    # the 1-skeleton decoded from labels: a 1-cube joins its stationary
    # ids plus either end of its moving edge
    h = nx.Graph()
    h.add_nodes_from(L.configuration_ids(x))
    for key in x.level(1):
        (e,), s = L.moving(g, key[0]), key[1]
        h.add_edge(L.ids(g, s | L.mask(g, [e.u])), L.ids(g, s | L.mask(g, [e.v])))
    assert x.component_count() == nx.number_connected_components(h)


def test_a_one_cube_off_the_zero_cubes_raises_key_error():
    x = build(F.cycle_graph(4), 2)
    m, s = next(iter(x.level(1)))
    # drop an end of a 1-cube: the 1-cube is left with no 0-cube there
    mutant = L.without(x, (0, s | x.index.ends[m][0]))
    with pytest.raises(KeyError):
        mutant.component_count()
    with pytest.raises(KeyError):
        verify_special_coloring(mutant)


def test_component_count_of_split_configurations():
    # two triangles, two particles: components by particle distribution
    g1 = F.cycle_graph(3)
    both = Graph.make(
        [f"a{v}" for v in g1.vertices] + [f"b{v}" for v in g1.vertices],
        [(f"a{e.id}", f"a{e.u}", f"a{e.v}") for e in g1.edges]
        + [(f"b{e.id}", f"b{e.u}", f"b{e.v}") for e in g1.edges],
    )
    x = build(both, 2)
    assert x.component_count() == 3  # 2+0, 1+1, 0+2


# -- the f-vector counted without building ------------------------------------

@st.composite
def multigraphs(draw):
    """Up to 8 vertices, loops and parallel edges allowed, normalized."""
    nv = draw(st.integers(1, 8))
    ends = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=9))
    return normalize(Graph.make(
        [f"v{i}" for i in range(nv)],
        [(f"e{i}", f"v{u}", f"v{v}") for i, (u, v) in enumerate(edges)]))


def outcome(count, g, n, cap):
    """("counts", f-vector) or ("raised", type, message)."""
    try:
        return "counts", count(g, n, cap)
    except (PreconditionError, ResourceLimitError) as exc:
        return "raised", type(exc), str(exc)


def built(g, n, cap):
    return build(g, n, cell_cap=cap).f_vector()


# cube complexes over this many cells are compared only at the caps below it
COUNT_BUDGET = 20000


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.integers(0, 4), st.booleans())
def test_count_cubes_refuses_and_counts_as_build_does(g, n, subdivided):
    if subdivided:
        try:
            g = subdivide_for(g, n)
        except PreconditionError:
            return   # no room for n particles
    first = outcome(count_cubes, g, n, COUNT_BUDGET)
    assert first == outcome(built, g, n, COUNT_BUDGET)
    if first[0] != "counts":
        return
    total = sum(first[1])
    for cap in (0, math.comb(len(g.vertices), n) - 1, total - 1, total):
        if cap >= 0:
            assert outcome(count_cubes, g, n, cap) == outcome(built, g, n, cap)
    assert outcome(count_cubes, g, n, total) == first


def test_count_cubes_examples():
    assert count_cubes(F.path_graph(2), 2) == (3, 2, 0)
    assert count_cubes(F.complete_graph(5), 2) == (10, 30, 15)
    # n = |V|: no cube moves, but the f-vector still runs to dimension n
    assert count_cubes(F.path_graph(2), 3) == (1, 0, 0, 0)
    with pytest.raises(ResourceLimitError, match="^cell count exceeds cap 54$"):
        count_cubes(F.complete_graph(5), 2, cell_cap=54)
    with pytest.raises(PreconditionError, match="normalized"):
        count_cubes(Graph.make(["a"], [("e", "a", "a")]), 1)
