import random

import pytest

from braidscope import families as F
from braidscope.complex import build, is_surface, verify_npc
from braidscope.errors import PreconditionError, ResourceLimitError
from braidscope.graph import Graph, subdivide_for


def test_f_vector_path():
    x = build(F.path_graph(2), 2)
    assert x.f_vector() == (3, 2, 0)
    assert x.component_count() == 1
    confs = set(x.configurations())
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
        for d in range(1, len(x.cubes)):
            for cube in x.cubes[d].values():
                facets = cube.facets()
                assert len(facets) == 2 * d
                assert all(x.has_cube(k) for k in facets)


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
    mutated = x.without_cube(next(iter(x.cubes[2])))
    report = verify_npc(mutated)
    assert not report.ok
    assert report.failures


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
    label = x.component_of[tuple(sorted(split_conf, key=lambda t: (len(t), t)))]
    per_dim = [0] * len(x.cubes)
    for d, level in enumerate(x.cubes):
        for cube in level.values():
            if x.component_of[cube.corners()[0]] == label:
                per_dim[d] += 1
    fl, fr = left.f_vector(), right.f_vector()
    expected = []
    for d in range(len(per_dim)):
        expected.append(sum(fl[i] * fr[d - i]
                            for i in range(len(fl)) if 0 <= d - i < len(fr)))
    assert per_dim == expected


def test_dimension_zero_complex_has_one_component_per_configuration():
    x = build(F.path_graph(3), 1, max_dim=0)
    assert x.skeleton == {("1",): (), ("2",): (), ("3",): (), ("4",): ()}
    assert x.component_count() == 4
    assert sorted(x.component_of.values()) == [0, 1, 2, 3]
    y = build(F.complete_graph(4), 2, max_dim=0)
    assert y.component_count() == len(y.configurations()) == 6


def test_edge_ends_follow_the_edge_orientation():
    x = build(F.path_graph(2), 2)
    for key in x.cubes[1]:
        e, a, b = x.edge_ends(key)
        assert (set(a) ^ set(b)) == {e.u, e.v}
        assert e.u in a and e.v in b
        assert (e, b) in x.skeleton[a] and (e, a) in x.skeleton[b]


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
