"""Acceptance suite: one test per criterion, exact integer comparisons,
one printed PASS line each (run with -s to see them inline).

Expected classification grids are derived from the per-particle-count
criteria: two-particle hyperbolicity fails exactly at a disjoint cycle
pair, two-particle toral relative hyperbolicity fails exactly at a
cycle disjoint from a subgraph with two independent cycles, and so on.
The smallest complete graph carrying a triangle disjoint from a diamond
is K_7, so the two-particle toral boundary for complete graphs is m=6;
every grid cell below is pinned by those criteria and cross-checked
against the brute-force subgraph oracles (criterion 6) on every member
small enough to fall inside the exhaustive sweep.
"""

import itertools
import random
import time

import networkx as nx

import labels as L
from braidscope import families as F
from braidscope.classifier import (
    SubgraphOracle, check_peripheral_collection, contains_f2xz,
    full_report, is_hyperbolic,
)
from braidscope.complex import build, is_surface, verify_npc
from braidscope.diagrams import (
    CoverBall, ball_oracle, cyclic_centralizer_witness, cyclically_reduce,
    diagram, make_rotation, make_tripod_swap,
)
from braidscope.graph import Graph, Subgraph, normalize, simple_cycles, subdivide_for
from braidscope.homology import chain_complex, homology
from braidscope.hyperplanes import (
    hyperplanes_by_bfs, hyperplanes_by_components, verify_special_coloring,
)


def _sorted_conf(conf):
    return tuple(sorted(conf, key=lambda t: (len(t), t)))


# ---------------------------------------------------------------- 1

def expected_hyp_complete(n, m):
    return n == 1 or (n == 2 and m <= 5) or m <= 3


def expected_trh_complete(n, m):
    # the n=2 boundary is m=6: K_7 holds a triangle disjoint from a
    # diamond, giving a rank-two free subgroup times an infinite cyclic
    return (n == 1 or (n == 2 and m <= 6) or (n == 3 and m <= 4)
            or m <= 3)


def test_criterion_1_complete_graph_grid():
    t0 = time.monotonic()
    for m in range(1, 9):
        g = F.complete_graph(m)
        for n in range(1, 6):
            rep = full_report(g, n, run_oracles="off").main
            assert rep.hyperbolic == expected_hyp_complete(n, m), (n, m)
            assert rep.toral_rel_hyp == expected_trh_complete(n, m), (n, m)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"\nACCEPTANCE 1 PASS: K_m grid (m<=8, n<=5) in {elapsed:.1f}s")


# ---------------------------------------------------------------- 2

def expected_hyp_bipartite(n, p, q):
    s = min(p, q)
    return (n == 1 or s == 1 or (n == 2 and s <= 3)
            or (n == 3 and s <= 2) or (n >= 4 and (p, q) == (2, 2)))


def expected_trh_bipartite(n, p, q):
    s, t = min(p, q), max(p, q)
    if n == 1 or s == 1 or (s, t) == (2, 2):
        return True
    if n == 2:
        return not (s >= 4 and t >= 5)
    if n == 3:
        return s <= 2
    if n == 4:
        return (s, t) == (2, 3)
    return False


def test_criterion_2_bipartite_grid():
    t0 = time.monotonic()
    for p in range(1, 6):
        for q in range(p, 6):
            g = F.complete_bipartite(p, q)
            for n in range(1, 6):
                rep = full_report(g, n, run_oracles="off").main
                assert rep.hyperbolic == expected_hyp_bipartite(n, p, q), (n, p, q)
                assert rep.toral_rel_hyp == expected_trh_bipartite(n, p, q), (n, p, q)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"ACCEPTANCE 2 PASS: K_p,q grid (p,q<=5, n<=5) in {elapsed:.1f}s")


# ---------------------------------------------------------------- 3

def test_criterion_3_two_particles_on_k5():
    t0 = time.monotonic()
    x = build(F.complete_graph(5), 2)
    assert x.f_vector() == (10, 30, 15)
    assert x.euler_characteristic() == -5
    surf = is_surface(x)
    assert surf.ok and set(surf.link_cycle_lengths) == {6}
    h = homology(chain_complex(x))
    assert h.free_ranks == (1, 6, 0)
    assert h.torsion[1] == (2,)   # torsion: the abelianisation is not free
    assert h.torsion[2] == ()
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    print(f"ACCEPTANCE 3 PASS: UC_2(K_5) surface data in {elapsed:.1f}s")


# ---------------------------------------------------------------- 4

def test_criterion_4_hyperplane_double_count():
    def partition(hps):
        return sorted((h.color, tuple(sorted(h.members))) for h in hps)

    fixtures = [
        (F.cycle_graph(4), 2), (F.star_graph(3), 2), (F.path_graph(2), 2),
        (F.complete_graph(5), 2), (F.theta_graph(2, 2, 2), 2),
        (subdivide_for(F.complete_graph(4), 3), 3),
        (subdivide_for(F.rose_graph(2, 3), 3), 3),
    ]
    rng = random.Random(20260809)
    produced = 0
    while produced < 20:
        nv = rng.randint(3, 8)
        m = nx.gnp_random_graph(nv, rng.uniform(0.3, 0.8),
                                seed=rng.randint(0, 10**9))
        if not m.number_of_edges():
            continue
        g = normalize(Graph.make(
            [str(v) for v in m.nodes],
            [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(m.edges)]))
        n = rng.choice((2, 3))
        if len(g.vertices) < n:
            continue
        fixtures.append((g, n))
        produced += 1

    for g, n in fixtures:
        x = build(g, n)
        assert partition(hyperplanes_by_bfs(x)) == \
            partition(hyperplanes_by_components(g, n)), (g.fingerprint(), n)
    print(f"ACCEPTANCE 4 PASS: hyperplane double count on {len(fixtures)} graphs")


# ---------------------------------------------------------------- 5

def test_criterion_5_special_coloring():
    complexes = [
        build(F.complete_graph(5), 2),
        build(F.cycle_graph(4), 2),
        build(F.star_graph(3), 2),
        build(F.theta_graph(2, 2, 2), 2),
        build(subdivide_for(F.complete_graph(4), 3), 3),
        build(subdivide_for(F.rose_graph(2, 3), 3), 3),
        build(subdivide_for(F.h_graph(), 3), 3),
    ]
    for x in complexes:
        assert verify_special_coloring(x).ok
        assert verify_npc(x).ok
    mutated = L.without(complexes[1], next(iter(complexes[1].level(2))))
    rep = verify_special_coloring(mutated)
    assert not rep.ok and rep.failed_axioms() == (4,)
    print(f"ACCEPTANCE 5 PASS: coloring axioms on {len(complexes)} complexes,"
          " synthetic violation fails axiom 4")


# ---------------------------------------------------------------- 6

def test_criterion_6_oracle_equivalence_exhaustive():
    t0 = time.monotonic()
    graphs = [g for g in nx.graph_atlas_g()
              if 1 <= g.number_of_nodes() <= 7 and nx.is_connected(g)]
    assert len(graphs) == 996
    checked = 0
    for G in graphs:
        g = Graph.make(
            [str(v) for v in G.nodes],
            [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(G.edges)])
        oracle = SubgraphOracle(g)
        for n in (2, 3, 4, 5):
            fast_hyp, _ = is_hyperbolic(g, n)
            assert fast_hyp == (not oracle.nonhyperbolic(n).verdict), \
                (sorted(G.edges), n)
            fast_f2xz, _ = contains_f2xz(g, n)
            assert fast_f2xz == oracle.f2xz(n).verdict, (sorted(G.edges), n)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"ACCEPTANCE 6 PASS: {checked} oracle cross-checks on 996 graphs"
          f" in {elapsed:.1f}s")


# ---------------------------------------------------------------- 7

def _all_legal_words(x, base, max_len):
    def rec(conf, letters):
        yield letters
        if len(letters) == max_len:
            return
        occupied = set(conf)
        for e in x.moves_at(conf):
            sign = 1 if e.u in occupied else -1
            yield from rec(x.apply_move(conf, e), letters + [(e.id, sign)])
    yield from rec(_sorted_conf(base), [])


def _random_word(rng, x, base, length):
    conf = _sorted_conf(base)
    letters = []
    for _ in range(length):
        moves = x.moves_at(conf)
        if not moves:
            break
        e = rng.choice(moves)
        letters.append((e.id, 1 if e.u in set(conf) else -1))
        conf = x.apply_move(conf, e)
    return letters


def test_criterion_7_word_problem_soundness():
    tripod_g, _, _ = F.tripod_graph(2)
    fixtures = [
        (F.path_graph(2), ("1", "3"), 2),
        (F.cycle_graph(4), ("1", "3"), 2),
        (F.star_graph(3), ("c", "a1v1"), 2),
        (F.cycle_graph(5), ("1", "3"), 2),
        (tripod_g, ("t0", "t1"), 2),
        (F.complete_graph(5), ("1", "2"), 2),
        (subdivide_for(F.star_graph(3), 3), ("c", "a1v1", "a2v1"), 3),
    ]
    total_words = 0
    for g, base, n in fixtures:
        x = build(g, n)
        assert len(x.level(0)) <= 200
        cover = CoverBall(x, base, 6)
        ball = ball_oracle(x, base, 6)
        assert len(ball) == cover.vertex_count()
        for d in ball.values():
            v = cover.lift(d.letters)
            assert cover.dist[v] == len(d) and cover.proj[v] == d.terminus
        for letters in _all_legal_words(x, base, 6):
            d = diagram(g, base, letters)
            end = cover.lift(letters)
            assert end == cover.lift(d.letters)
            assert cover.dist[end] == len(d)
            assert d.letters in ball
            total_words += 1

    rng = random.Random(42)
    small = [f for f in fixtures if len(f[0].vertices) <= 5]
    for _ in range(1000):
        g, base, n = small[rng.randrange(len(small))]
        x = build(g, n)
        cover = _cover_cache(x, base)
        letters = _random_word(rng, x, base, rng.randint(0, 8))
        d = diagram(g, base, letters)
        end = cover.lift(letters)
        assert end == cover.lift(d.letters)
        assert cover.dist[end] == len(d)
    print(f"ACCEPTANCE 7 PASS: {total_words} exhaustive words (len<=6) and"
          " 1000 random words (len<=8) agree with the cover")


_COVERS = {}


def _cover_cache(x, base):
    key = (id(x.graph), base)
    if key not in _COVERS:
        _COVERS[key] = CoverBall(x, base, 8)
    return _COVERS[key]


# ---------------------------------------------------------------- 8

def test_criterion_8_rose_homology():
    cases = []
    for petals in (1, 2, 3):
        for rays in (0, 1, 2):
            for n in (2, 3, 4):
                cases.append((petals, rays, n))
    for petals, rays, n in cases:
        g = subdivide_for(F.rose_graph(petals, n + 1, rays=rays), n)
        x = build(g, n)
        h = homology(chain_complex(x))
        assert all(not t for t in h.torsion), (petals, rays, n)
        assert all(r == 0 for r in h.free_ranks[2:]), (petals, rays, n)
        assert h.free_ranks[1] == 1 - x.euler_characteristic(), (petals, rays, n)
    print(f"ACCEPTANCE 8 PASS: {len(cases)} rose fixtures have free homology"
          " with rank 1 - euler characteristic")


# ---------------------------------------------------------------- 9

def test_criterion_9_witness_elements():
    for n, cycle_len in ((2, 4), (3, 5)):
        g = F.cycle_graph(cycle_len)
        cyc = simple_cycles(g)[0]
        base = cyc.vertices[:n]
        rot = make_rotation(g, cyc, base)
        assert rot.is_spherical()
        sd = cyclically_reduce(rot)
        assert len(sd.cyclic_reduction) == len(rot)
        assert sd.support_connected() and len(sd.particles) == n
        assert cyclic_centralizer_witness(rot)

        tg, spine, spike = F.tripod_graph(n)
        swap = make_tripod_swap(tg, spine, spike)
        assert swap.is_spherical()
        sd = cyclically_reduce(swap)
        assert len(sd.cyclic_reduction) == len(swap)
        assert sd.support_connected() and len(sd.particles) == n
        assert cyclic_centralizer_witness(swap)
    print("ACCEPTANCE 9 PASS: rotation and tripod witnesses are spherical,"
          " cyclically reduced, full-support certificates for n in {2,3}")


# ---------------------------------------------------------------- 10

def test_criterion_10_peripheral_collections():
    # two bouquets joined by a segment
    g = F.two_bouquets(2, 3, circle_len=3, bridge_length=2)
    lam = g.induced([v for v in g.vertices if not v.startswith("br")])
    rep = check_peripheral_collection(g, [lam])
    assert rep.valid and rep.all_proper and rep.applies

    # square with two cone points: pairs of disjoint triangles
    g = F.square_with_two_cone_points()
    collection = []
    for apex_edge, other_edge in ((("c1", "c2"), ("c3", "c4")),
                                  (("c2", "c3"), ("c4", "c1"))):
        for near, far in (("x", "y"), ("y", "x")):
            t1 = g.induced([near, *apex_edge])
            t2 = g.induced([far, *other_edge])
            collection.append(Subgraph(g, t1.vertices | t2.vertices,
                                       t1.edge_ids | t2.edge_ids))
    rep = check_peripheral_collection(g, collection)
    assert rep.valid and rep.all_proper and rep.applies

    # K_6: pairs of disjoint triangles
    g = F.complete_graph(6)
    collection = []
    for triple in itertools.combinations(g.vertices, 3):
        rest = tuple(v for v in g.vertices if v not in triple)
        if triple < rest:
            a, b = g.induced(triple), g.induced(rest)
            collection.append(Subgraph(g, a.vertices | b.vertices,
                                       a.edge_ids | b.edge_ids))
    rep = check_peripheral_collection(g, collection)
    assert rep.valid and rep.all_proper and rep.applies

    # K_4,4: pairs of disjoint squares
    g = F.complete_bipartite(4, 4)
    lefts, rights = ["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"]
    collection = []
    for la in itertools.combinations(lefts, 2):
        rest_a = tuple(v for v in lefts if v not in la)
        if la > rest_a:
            continue
        for lb in itertools.combinations(rights, 2):
            rest_b = tuple(v for v in rights if v not in lb)
            s1, s2 = g.induced(la + lb), g.induced(rest_a + rest_b)
            collection.append(Subgraph(g, s1.vertices | s2.vertices,
                                       s1.edge_ids | s2.edge_ids))
    rep = check_peripheral_collection(g, collection)
    assert rep.valid and rep.all_proper and rep.applies

    # empty collections are rejected whenever disjoint cycles exist
    for g in (F.complete_graph(6), F.complete_bipartite(4, 4),
              F.two_bouquets(1, 1)):
        rep = check_peripheral_collection(g, [])
        assert not rep.cycle_pairs_covered and rep.uncovered_pair is not None
    print("ACCEPTANCE 10 PASS: four worked peripheral collections accepted,"
          " empty collections rejected")
