"""Cross-module consistency: graph-level verdicts against the complex.

These groups embed in right-angled Artin groups, which are residually
torsion-free nilpotent; the property passes to subgroups, so a
nontrivial braid group has nontrivial abelianisation.  That turns the
trivial/cyclic verdicts into homology statements checkable on the
built complex: trivial means every component of the configuration
space is acyclic, infinite cyclic means circle homology.
"""

import networkx as nx

from braidscope import families as F
from braidscope.classifier import (
    acyl_hyp_status, contains_free_nonabelian, is_infinite_cyclic, is_trivial,
)
from braidscope.complex import build
from braidscope.diagrams import ball_oracle
from braidscope.graph import Graph, subdivide_for
from braidscope.homology import chain_complex, homology


def atlas_graphs(max_v):
    for G in nx.graph_atlas_g():
        if 1 <= G.number_of_nodes() <= max_v and nx.is_connected(G):
            yield Graph.make(
                [str(v) for v in G.nodes],
                [(f"e{i}", str(u), str(v))
                 for i, (u, v) in enumerate(G.edges)])


def test_trivial_and_cyclic_verdicts_match_homology():
    for g in atlas_graphs(5):
        for n in (1, 2, 3):
            if not g.edges and n >= 2:
                continue  # no room to subdivide a single point
            sub = subdivide_for(g, n)
            if len(sub.vertices) == n and sub.edges:
                # one extra split keeps the complex connected
                sub = subdivide_for(sub, n + 1)
            x = build(sub, n)
            h = homology(chain_complex(x))
            trivial = is_trivial(g, n)
            cyclic = is_infinite_cyclic(g, n)
            if x.component_count() == 1:
                if trivial:
                    assert h.free_ranks[1] == 0 and not h.torsion[1]
                else:
                    assert h.free_ranks[1] > 0 or h.torsion[1]
                if cyclic:
                    assert h.free_ranks[1] == 1 and not h.torsion[1]
                    assert all(r == 0 for r in h.free_ranks[2:])


def test_free_subgroup_matches_trichotomy():
    # for connected graphs: a free nonabelian subgroup exists exactly
    # when the group is neither trivial nor infinite cyclic; the library
    # defines F2 so, and test_shape_predicates_match_the_oracle_lemma_flags
    # checks all three verdicts against the lemma flags
    for g in atlas_graphs(6):
        for n in (1, 2, 3, 4, 5):
            trivial = is_trivial(g, n)
            cyclic = is_infinite_cyclic(g, n)
            f2 = contains_free_nonabelian(g, n)
            assert f2 == (not trivial and not cyclic), (g.fingerprint(), n)
            status = acyl_hyp_status(g, n)
            assert (status == "trivial") == trivial
            assert (status == "infinite_cyclic") == cyclic


def test_star_braid_groups_match_rank_formula():
    # star braid groups are free; the classical closed form for the rank
    # is an oracle fully independent of the complex machinery:
    #   1 + (n(k-2) - k + 1) * (n+k-2)! / (n! (k-1)!)
    from math import factorial

    def star_rank(k, n):
        return 1 + (n * (k - 2) - k + 1) * factorial(n + k - 2) \
            // (factorial(n) * factorial(k - 1))

    for k in (3, 4, 5):
        for n in (2, 3, 4):
            g = subdivide_for(F.star_graph(k), n)
            x = build(g, n)
            h = homology(chain_complex(x))
            assert not any(h.torsion)
            assert all(r == 0 for r in h.free_ranks[2:])
            assert h.free_ranks[1] == star_rank(k, n), (k, n)


def test_cyclic_group_spherical_ball_structure():
    # B_2 of the three-arm star is infinite cyclic: the ball of radius 6
    # holds exactly the trivial diagram and the two length-6 generators
    g = F.star_graph(3)
    x = build(g, 2)
    h = homology(chain_complex(x))
    assert h.free_ranks == (1, 1, 0) and not any(h.torsion)
    ball = ball_oracle(x, ("a1v1", "a2v1"), 6)
    sphericals = sorted(len(d) for d in ball.values() if d.is_spherical())
    assert sphericals == [0, 6, 6]
