"""Boundary cells and edge cases not reached by the exhaustive sweeps.

The acceptance grids include graphs with eight or more vertices, which
fall outside the seven-vertex atlas; the brute-force oracles still
handle them, so the decisive cells are pinned here both ways.
"""

import random

import networkx as nx
import pytest

from braidscope import families as F
from braidscope.classifier import SubgraphOracle, contains_f2xz, is_hyperbolic
from braidscope.complex import build
from braidscope.diagrams import CoverBall, ball_oracle
from braidscope.graph import Graph, normalize, smooth, subdivide_for
from braidscope.hyperplanes import hyperplanes_by_bfs, hyperplanes_by_components


def test_grid_boundary_cells_against_oracle():
    cells = [
        (F.complete_graph(7), (2, 3)),
        (F.complete_graph(8), (2,)),
        (F.complete_bipartite(4, 4), (2, 3)),
        (F.complete_bipartite(4, 5), (2,)),
        (F.complete_bipartite(5, 5), (2,)),
        (F.complete_bipartite(3, 5), (2, 3)),
        (F.complete_bipartite(2, 5), (2, 3, 4, 5)),
    ]
    for g, ns in cells:
        oracle = SubgraphOracle(g)
        for n in ns:
            assert is_hyperbolic(g, n)[0] == (not oracle.nonhyperbolic(n).verdict)
            assert contains_f2xz(g, n)[0] == oracle.f2xz(n).verdict


def test_decisive_toral_cells():
    # the two-particle toral boundary sits between K_4,4 and K_4,5,
    # and between K_6 and K_7
    assert not contains_f2xz(F.complete_bipartite(4, 4), 2)[0]
    assert contains_f2xz(F.complete_bipartite(4, 5), 2)[0]
    assert not contains_f2xz(F.complete_graph(6), 2)[0]
    assert contains_f2xz(F.complete_graph(7), 2)[0]


def test_cover_matches_ball_on_three_particles():
    g = subdivide_for(F.star_graph(3), 3)
    x = build(g, 3)
    base = tuple(sorted(g.vertices, key=lambda t: (len(t), t)))[:3]
    ball = ball_oracle(x, base, 6)
    cover = CoverBall(x, base, 6)
    assert len(ball) == len(cover.proj)
    seen = set()
    for d in ball.values():
        v = cover.lift(d.letters)
        assert cover.dist[v] == len(d) and cover.proj[v] == d.terminus
        seen.add(v)
    assert len(seen) == len(cover.proj)


def test_normalize_random_multigraphs():
    def to_multi(g):
        m = nx.MultiGraph()
        m.add_nodes_from(g.vertices)
        m.add_edges_from((e.u, e.v) for e in g.edges)
        return m

    rng = random.Random(7)
    for _ in range(25):
        nv = rng.randint(1, 5)
        vs = [str(i) for i in range(nv)]
        es = []
        for i in range(rng.randint(1, 8)):
            u = rng.choice(vs)
            v = rng.choice(vs)  # loops and parallels welcome
            es.append((f"e{i}", u, v))
        g = Graph.make(vs, es)
        norm = normalize(g)
        assert norm.is_simple()
        assert nx.is_isomorphic(to_multi(smooth(norm)), to_multi(smooth(g)))


def test_hyperplanes_single_particle():
    # with one particle the complex is the graph itself and every edge
    # is its own hyperplane
    for g in (F.complete_graph(4), F.star_graph(3), F.theta_graph(2, 2, 2)):
        x = build(g, 1)
        assert x.f_vector()[0] == len(g.vertices)
        a = hyperplanes_by_bfs(x)
        b = hyperplanes_by_components(g, 1)
        assert len(a) == len(b) == len(g.edges)
        assert sorted(h.color for h in a) == sorted(e.id for e in g.edges)


def test_smooth_handles_multigraph_input():
    g = Graph.make(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b"),
                                ("l", "a", "a")])
    m = smooth(g)
    # already minimal: two hubs would collapse further only if degree 2
    assert len(m.vertices) <= 2
