"""Hand values for the references the checks rely on."""

import graphs as G
import references as R


def test_gal_euler_characteristic_hand_values():
    assert R.gal_euler_characteristic(G.complete(5), 2) == -5
    assert R.gal_euler_characteristic(G.complete(7), 3) == 336
    # one particle: the graph itself, V - E
    assert R.gal_euler_characteristic(G.complete(5), 1) == 5 - 10
    assert R.gal_euler_characteristic(G.theta(2, 2, 2), 1) == -1
    # a circle's configuration spaces are circles; B_2(star_3) = Z
    cycle = G.GraphSpec("c5", 5, tuple((i, (i + 1) % 5) for i in range(5)))
    assert [R.gal_euler_characteristic(cycle, n) for n in range(1, 5)] == [0] * 4
    assert R.gal_euler_characteristic(G.star(3), 2) == 0
    # no edges: n distinct points among V
    assert R.gal_euler_characteristic(G.GraphSpec("pts", 4, ()), 2) == 6


def test_star_rank_formula():
    assert R.star_h1_rank(3, 2) == 1
    assert R.star_h1_rank(3, 3) == 3
    assert R.star_h1_rank(4, 3) == 11
    assert R.star_h1_rank(2, 5) == 0      # a segment
    # free group: rank = 1 - chi
    for k, n in ((4, 4), (5, 4), (3, 5)):
        assert R.star_h1_rank(k, n) == 1 - R.gal_euler_characteristic(G.star(k), n)


def test_assignment_count():
    assert R.assignment_count(4, 10) == 715
    assert R.assignment_count(2, 1) == 1
    assert R.assignment_count(2, 2) == 3


def test_planarity_and_disjoint_cycles():
    assert not R.is_planar(G.complete(5))
    assert not R.is_planar(G.bipartite(3, 3))
    assert not R.is_planar(G.petersen())
    assert R.is_planar(G.complete(4)) and R.is_planar(G.rose(3, 2))
    assert not R.has_disjoint_cycles(G.complete(5))
    assert R.has_disjoint_cycles(G.complete(6))
    assert not R.has_disjoint_cycles(G.bipartite(3, 3))
    assert R.has_disjoint_cycles(G.bipartite(4, 4))
    assert R.has_disjoint_cycles(G.petersen())
    assert not R.has_disjoint_cycles(G.theta(2, 3, 4))


def test_complete_grid():
    v = R.complete_verdict
    assert v(5, 2)["hyperbolic"] and not v(6, 2)["hyperbolic"]
    assert v(6, 2)["toral_rel_hyp"] and not v(7, 2)["toral_rel_hyp"]
    assert v(4, 3)["toral_rel_hyp"] and not v(4, 3)["hyperbolic"]
    assert not v(5, 3)["toral_rel_hyp"]
    assert v(3, 5) == dict(trivial=False, infinite_cyclic=True, hyperbolic=True,
                           toral_rel_hyp=True, acyl_status="infinite_cyclic")
    assert v(2, 4)["acyl_status"] == "trivial"
    assert v(9, 3)["acyl_status"] == "acylindrically_hyperbolic"


def test_bipartite_grid():
    v = R.bipartite_verdict
    assert not v(4, 5, 2)["toral_rel_hyp"] and v(4, 4, 2)["toral_rel_hyp"]
    assert not v(4, 4, 2)["hyperbolic"] and v(3, 5, 2)["hyperbolic"]
    assert v(1, 3, 2)["infinite_cyclic"] and not v(1, 3, 3)["infinite_cyclic"]
    assert v(2, 3, 4)["toral_rel_hyp"] and not v(2, 4, 4)["toral_rel_hyp"]
    assert not v(3, 3, 3)["toral_rel_hyp"] and v(2, 5, 3)["hyperbolic"]
    assert v(1, 2, 5)["trivial"] and v(2, 2, 5)["hyperbolic"]


def test_graph_text_is_seeded_and_keeps_order():
    spec = G.complete(5)
    assert G.graph_text(spec, 3) == G.graph_text(spec, 3)
    assert G.graph_text(spec, 3) != G.graph_text(spec, 4)
    lines = [line.split() for line in G.graph_text(spec, 3).splitlines()]
    assert all(tok.isalnum() for line in lines for tok in line[1:])
    vids = sorted((line[1] for line in lines if line[0] == "v"),
                  key=lambda x: (len(x), x))
    eids = sorted((line for line in lines if line[0] == "e"),
                  key=lambda line: (len(line[1]), line[1]))
    # the i-th edge in the program's order joins the vertices of spec.edges[i]
    assert [(vids.index(u), vids.index(v)) for _, _, u, v in eids] == list(spec.edges)
