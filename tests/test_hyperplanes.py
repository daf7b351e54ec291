import random
from collections import Counter

import networkx as nx

import labels as L
from braidscope import families as F
from braidscope.complex import build
from braidscope.graph import Graph, normalize, subdivide_for
from braidscope.hyperplanes import (
    coloring_graph, hyperplanes_by_bfs, hyperplanes_by_components,
    verify_special_coloring,
)


def as_partition(hyperplanes):
    return sorted((h.color, tuple(sorted(h.members))) for h in hyperplanes)


def random_normalized_graph(rng, max_v=8):
    while True:
        nv = rng.randint(2, max_v)
        m = nx.gnp_random_graph(nv, rng.uniform(0.3, 0.8),
                                seed=rng.randint(0, 10**9))
        if m.number_of_edges() == 0:
            continue
        return normalize(Graph.make(
            [str(v) for v in m.nodes],
            [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(m.edges)]))


def test_counts_on_fixtures():
    by_comp = hyperplanes_by_components(F.cycle_graph(4), 2)
    assert len(by_comp) == 4
    assert all(h.member_count() == 2 for h in by_comp)

    by_comp = hyperplanes_by_components(F.star_graph(3), 2)
    assert len(by_comp) == 6
    assert all(h.member_count() == 1 for h in by_comp)

    assert len(hyperplanes_by_components(F.path_graph(2), 2)) == 2


def test_same_color_distinct_hyperplanes_on_star():
    hps = hyperplanes_by_components(F.star_graph(3), 2)
    per_color = Counter(h.color for h in hps)
    assert set(per_color.values()) == {2}


def test_methods_agree_on_fixtures():
    cases = [(F.cycle_graph(4), 2), (F.star_graph(3), 2),
             (F.path_graph(2), 2), (F.complete_graph(5), 2),
             (subdivide_for(F.complete_graph(4), 3), 3),
             (F.theta_graph(2, 2, 2), 2)]
    for g, n in cases:
        x = build(g, n)
        assert as_partition(hyperplanes_by_bfs(x)) == \
            as_partition(hyperplanes_by_components(g, n))


def test_methods_agree_on_random_graphs():
    rng = random.Random(20260809)
    done = 0
    while done < 20:
        g = random_normalized_graph(rng)
        for n in (2, 3):
            if len(g.vertices) < n:
                continue
            x = build(g, n)
            assert as_partition(hyperplanes_by_bfs(x)) == \
                as_partition(hyperplanes_by_components(g, n))
        done += 1


def test_member_counts_sum_to_edge_count():
    for g, n in [(F.complete_graph(5), 2), (F.cycle_graph(4), 2),
                 (subdivide_for(F.complete_graph(4), 3), 3)]:
        x = build(g, n)
        hps = hyperplanes_by_bfs(x)
        assert sum(h.member_count() for h in hps) == len(x.level(1))


def test_coloring_graph_is_disjointness():
    adj = coloring_graph(F.complete_graph(4))
    # in K4 each edge is disjoint from exactly its opposite edge
    assert all(len(nbrs) == 1 for nbrs in adj.values())


def test_special_coloring_passes_on_builds():
    cases = [(F.complete_graph(5), 2),
             (subdivide_for(F.complete_graph(4), 3), 3),
             (F.star_graph(3), 2), (F.cycle_graph(4), 2)]
    for g, n in cases:
        assert verify_special_coloring(build(g, n)).ok


def test_special_coloring_axiom4_fails_on_mutation():
    x = build(F.cycle_graph(4), 2)
    mutated = L.without(x, next(iter(x.level(2))))
    report = verify_special_coloring(mutated)
    assert not report.ok
    assert report.failed_axioms() == (4,)
