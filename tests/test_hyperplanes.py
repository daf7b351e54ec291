import os
import random
import subprocess
import sys
from collections import Counter

import networkx as nx

import braidscope
import coloring_reference as R
import labels as L
from braidscope import families as F
from braidscope.complex import build
from braidscope.graph import Graph, normalize, subdivide_for
from braidscope.hyperplanes import (
    _parallel_classes, hyperplanes_by_bfs,
    hyperplanes_by_components, verify_special_coloring,
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


# -- the certificates against the scans as first written ---------------------

def test_reference_union_find_joins_classes():
    uf = R.UnionFind(6)
    uf.union(1, 2)
    uf.union(3, 4)
    uf.union(2, 4)
    assert len({uf.find(x) for x in (1, 2, 3, 4)}) == 1
    assert uf.find(5) == 5 and uf.find(1) != uf.find(5)


def atlas_complexes():
    """Every connected atlas graph with at most 6 vertices at n = 0..4,
    built with max_dim None, 1 and 2."""
    for G in nx.graph_atlas_g():
        if not 1 <= G.number_of_nodes() <= 6 or not nx.is_connected(G):
            continue
        g = Graph.make([str(v) for v in G.nodes],
                       [(f"e{i}", str(u), str(v))
                        for i, (u, v) in enumerate(G.edges)])
        for n in range(min(4, len(g.vertices)) + 1):
            for max_dim in (None, 1, 2):
                yield build(g, n, max_dim)


def test_special_coloring_matches_the_reference_on_the_atlas():
    kinds = Counter()
    for x in atlas_complexes():
        got = R.outcome(verify_special_coloring, x)
        assert got == R.outcome(R.reference_special_coloring, x), (
            x.graph.fingerprint(), x.n, x.max_dim)
        assert (R.outcome(_parallel_classes, x)
                == R.outcome(R.reference_classes, x))
        kinds[isinstance(got, type)] += 1
    assert kinds == {False: 1702, True: 422}   # reports, PreconditionErrors


def test_special_coloring_matches_the_reference_on_mutants():
    rng = random.Random(20261019)
    kinds = Counter()
    for x in atlas_complexes():
        for _ in range(2):
            y = R.random_mutant(x, rng)
            got = R.outcome(verify_special_coloring, y)
            assert got == R.outcome(R.reference_special_coloring, y), (
                y.graph.fingerprint(), y.n, y.max_dim)
            assert (R.outcome(_parallel_classes, y)
                    == R.outcome(R.reference_classes, y))
            kinds[got if isinstance(got, type) else got.failed_axioms()] += 1
    # every axiom fails somewhere, and most mutants do not just raise
    assert {a for k in kinds if isinstance(k, tuple) for a in k} == {1, 2, 3, 4}
    assert sum(c for k, c in kinds.items() if isinstance(k, tuple)) > 2000


def test_each_certificate_reports_what_the_scan_reports():
    assert R.targeted_mismatches() == []


def test_each_certificate_reports_what_the_scan_reports_under_optimize():
    # the certificates must not rest on assert statements
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(braidscope.__file__))
    script = ("import sys\n"
              f"sys.path.insert(0, {tests!r})\n"
              "from coloring_reference import targeted_mismatches\n"
              "if not sys.flags.optimize:\n"
              "    sys.exit('not optimized')\n"
              "sys.exit(' '.join(targeted_mismatches()) or 0)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
