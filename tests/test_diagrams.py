import itertools
import random
import time
from collections import deque

import pytest

import cyclic_reference as R
from braidscope import families as F
from braidscope.complex import build
from braidscope.diagrams import (
    MAX_BALL_RADIUS, CoverBall, _Piler, ball_oracle, check_legal, concat,
    cyclic_centralizer_witness, cyclically_reduce, diagram, empty_diagram,
    equal, inverse, make_rotation, make_tripod_swap, reduce_word,
)
from braidscope.errors import IllegalMoveError, PreconditionError
from braidscope.graph import Graph, simple_cycles


# independent referee: trace equality of reduced words by the projection
# criterion (equal projections onto every dependent pair of generators)

def trace_equal(g, w1, w2):
    if sorted(w1) != sorted(w2):
        return False
    eids = sorted({e for (e, _) in w1} | {e for (e, _) in w2})
    by_id = g.edge_by_id
    for a, b in itertools.combinations_with_replacement(eids, 2):
        if a != b and not by_id[a].touches(by_id[b]):
            continue  # commuting pair never constrains
        p1 = [x for x in w1 if x[0] in (a, b)]
        p2 = [x for x in w2 if x[0] in (a, b)]
        if p1 != p2:
            return False
    return True


def random_legal_word(rng, x, base, max_len):
    conf = set(base)
    letters = []
    for _ in range(rng.randint(0, max_len)):
        moves = x.moves_at(tuple(sorted(conf, key=lambda t: (len(t), t))))
        if not moves:
            break
        e = rng.choice(moves)
        sign = 1 if e.u in conf else -1
        letters.append((e.id, sign))
        conf.discard(e.u if sign > 0 else e.v)
        conf.add(e.v if sign > 0 else e.u)
    return letters


# -- legality ---------------------------------------------------------------

def test_legal_word_examples():
    p3 = F.path_graph(2)
    w = check_legal(p3, ("1", "3"), [("e1", 1)])
    assert w.terminus == ("2", "3")

    with pytest.raises(IllegalMoveError) as err:
        check_legal(p3, ("1", "3"), [("e1", 1), ("e2", -1)])
    assert err.value.index == 1 and err.value.reason == "target occupied"

    c4 = F.cycle_graph(4)
    w = check_legal(c4, ("1", "3"), [("e1", 1)])
    assert w.terminus == ("2", "3")


def test_illegal_origin():
    p3 = F.path_graph(2)
    with pytest.raises(IllegalMoveError) as err:
        check_legal(p3, ("1", "3"), [("e2", 1)])
    assert err.value.reason == "origin unoccupied"


# -- reduction ---------------------------------------------------------------

def test_reduce_cancellation():
    p3 = F.path_graph(2)
    d = diagram(p3, ("1", "3"), [("e1", 1), ("e1", -1)])
    assert d.is_trivial()


def test_reduce_commutes_to_lex_least():
    p4 = F.path_graph(3)
    d = diagram(p4, ("1", "3"), [("e3", 1), ("e1", 1)])
    assert d.letters == (("e1", 1), ("e3", 1))


def test_reduce_commuting_sandwich():
    p4 = F.path_graph(3)
    d = diagram(p4, ("1", "3"), [("e1", 1), ("e3", 1), ("e1", -1)])
    assert d.letters == (("e3", 1),)


def test_reduce_is_idempotent_and_order_independent():
    rng = random.Random(99)
    g = F.complete_graph(5)
    x = build(g, 2)
    for _ in range(120):
        letters = random_legal_word(rng, x, ("1", "2"), 8)
        d = diagram(g, ("1", "2"), letters)
        assert reduce_word(check_legal(g, ("1", "2"), d.letters)).letters == d.letters
        # random legal commutation shuffles cannot change the class
        shuffled = list(letters)
        for _ in range(12):
            i = rng.randrange(len(shuffled)) if shuffled else 0
            if (shuffled and i + 1 < len(shuffled)
                    and not g.edge_by_id[shuffled[i][0]].touches(
                        g.edge_by_id[shuffled[i + 1][0]])):
                shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
        d2 = diagram(g, ("1", "2"), shuffled)
        assert equal(d, d2)
        assert trace_equal(g, d.letters, d2.letters)


def test_replay_is_deterministic_by_construction():
    g = F.complete_graph(5)
    w = check_legal(g, ("1", "2"), [("e1_3", 1), ("e2_4", 1)])
    again = check_legal(g, ("1", "2"), [("e1_3", 1), ("e2_4", 1)])
    assert w.terminus == again.terminus == ("3", "4")


# -- groupoid laws ------------------------------------------------------------

def test_concat_identity_and_inverse():
    c4 = F.cycle_graph(4)
    cyc = simple_cycles(c4)[0]
    rot = make_rotation(c4, cyc, ("1", "3"))
    eps = empty_diagram(c4, ("1", "3"))
    assert equal(concat(eps, rot), rot)
    assert concat(rot, inverse(rot)).is_trivial()


def test_concat_rotation_squared():
    c4 = F.cycle_graph(4)
    cyc = simple_cycles(c4)[0]
    rot = make_rotation(c4, cyc, ("1", "3"))
    sq = concat(rot, rot)
    assert len(sq) == 8 and sq.is_spherical()


def test_concat_mismatch():
    c4 = F.cycle_graph(4)
    d = diagram(c4, ("1", "3"), [("e1", 1)])
    with pytest.raises(PreconditionError):
        concat(d, d)


def test_concat_associative_on_random_triples():
    rng = random.Random(4)
    g = F.complete_graph(4)
    x = build(g, 2)
    for _ in range(60):
        w1 = random_legal_word(rng, x, ("1", "2"), 4)
        d1 = diagram(g, ("1", "2"), w1)
        w2 = random_legal_word(rng, x, d1.terminus, 4)
        d2 = diagram(g, d1.terminus, w2)
        w3 = random_legal_word(rng, x, d2.terminus, 4)
        d3 = diagram(g, d2.terminus, w3)
        assert equal(concat(concat(d1, d2), d3), concat(d1, concat(d2, d3)))


def test_equal_spec_examples():
    p4 = F.path_graph(3)
    a = diagram(p4, ("1", "3"), [("e1", 1), ("e3", 1)])
    b = diagram(p4, ("1", "3"), [("e3", 1), ("e1", 1)])
    assert equal(a, b)

    # same endpoints, different homotopy classes: the two C4 rotations
    c4 = F.cycle_graph(4)
    cyc = simple_cycles(c4)[0]
    cw = make_rotation(c4, cyc, ("1", "3"))
    ccw = inverse(cw)
    assert cw.base == ccw.base and cw.terminus == ccw.terminus
    assert not equal(cw, ccw)
    assert not trace_equal(c4, cw.letters, ccw.letters)

    with pytest.raises(PreconditionError):
        equal(cw, diagram(c4, ("1", "2"), []))


# -- cyclic reduction ----------------------------------------------------------

def test_cyclic_reduce_empty():
    g = F.cycle_graph(4)
    sd = cyclically_reduce(empty_diagram(g, ("1", "3")))
    assert sd.cyclic_reduction.is_trivial()
    assert not sd.support.vertices


def test_cyclic_reduce_strips_conjugator():
    # triangle with a pendant ray: walk in from the ray, rotate both
    # particles, walk back out; the walk is the conjugator
    g = F.sun_graph(3, (1,), ray_length=1)
    tri = simple_cycles(g)[0]
    rot = make_rotation(g, tri, ("1", "2"))
    walk_in = diagram(g, ("2", "s1v1"), [("s1e1", -1)])
    conj = concat(concat(walk_in, rot), inverse(walk_in))
    assert len(conj) == len(rot) + 2  # nothing cancels at the junctions
    sd = cyclically_reduce(conj)
    assert sd.conjugator.letters == (("s1e1", -1),)
    assert equal(sd.cyclic_reduction, rot)
    assert sd.support.vertices == tri.vertex_set
    assert sd.particles == frozenset(("1", "2"))


def test_cyclic_reduce_rotation_fixed():
    c4 = F.cycle_graph(4)
    cyc = simple_cycles(c4)[0]
    rot = make_rotation(c4, cyc, ("1", "3"))
    sd = cyclically_reduce(rot)
    assert equal(sd.cyclic_reduction, rot)
    assert sd.support.vertices == frozenset(c4.vertices)
    assert sd.particles == frozenset(("1", "3"))


def test_cyclic_reduce_conjugation_invariance():
    rng = random.Random(17)
    c5 = F.cycle_graph(5)
    x = build(c5, 2)
    cyc = simple_cycles(c5)[0]
    rot = make_rotation(c5, cyc, ("1", "3"))
    core = cyclically_reduce(rot).cyclic_reduction
    for _ in range(25):
        w = random_legal_word(rng, x, rot.base, 5)
        a = diagram(c5, rot.base, w)
        conj = concat(concat(inverse(a), rot), a)
        sd = cyclically_reduce(conj)
        # the reduction is a cyclic rotation of the core: same support,
        # same length, same number of moving particles
        assert len(sd.cyclic_reduction) == len(core)
        assert sd.support.vertices == frozenset(c5.vertices)
        assert len(sd.particles) == 2
        # round trip: conjugator * reduction * conjugator^-1 == diagram
        c = reduce_word(sd.conjugator)
        back = concat(concat(c, sd.cyclic_reduction), inverse(c))
        assert equal(back, conj)


def test_non_spherical_rejected():
    g = F.cycle_graph(4)
    d = diagram(g, ("1", "3"), [("e1", 1)])
    with pytest.raises(PreconditionError):
        cyclically_reduce(d)


def path_back(x, start, goal) -> list:
    """Letters of a shortest path from configuration start to goal."""
    prev = {start: None}
    todo = deque([start])
    while goal not in prev:
        conf = todo.popleft()
        occupied = set(conf)
        for e in x.moves_at(conf):
            nxt = x.apply_move(conf, e)
            if nxt not in prev:
                prev[nxt] = (conf, (e.id, 1 if e.u in occupied else -1))
                todo.append(nxt)
    letters = []
    while prev[goal] is not None:
        goal, letter = prev[goal]
        letters.append(letter)
    return letters[::-1]


def random_spherical_word(rng, x, base, max_len) -> list:
    """A random walk from base, then shortest paths through a random
    configuration back to base."""
    walk = random_legal_word(rng, x, base, max_len)
    via = x.index.ids(rng.choice(list(x.levels[0]))[1])
    return (walk + path_back(x, check_legal(x.graph, base, walk).terminus, via)
            + path_back(x, via, base))


CYCLIC_GRAPHS = [F.cycle_graph(4), F.cycle_graph(5), F.complete_graph(4),
                 F.complete_graph(5), F.complete_bipartite(2, 3),
                 F.star_graph(3), F.theta_graph(1, 2, 2), F.rose_graph(2, 3),
                 F.sun_graph(3, (1,)), F.tripod_graph(3)[0]]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("g", CYCLIC_GRAPHS, ids=[
    "C4", "C5", "K4", "K5", "K23", "star3", "theta122", "rose23", "sun3",
    "tripod3"])
def test_cyclic_reduction_matches_the_pairwise_scan(g, n):
    # whole SupportData, conjugator letters included, on random spherical
    # words and on conjugates of them by a random walk
    rng = random.Random(len(g.edges) * 10 + n)
    x = build(g, n)
    base = tuple(g.vertices[:n])
    for _ in range(60):
        inner = random_legal_word(rng, x, base, 4)
        at = check_legal(g, base, inner).terminus
        loop = random_spherical_word(rng, x, at, 8)
        back = [(e, -s) for (e, s) in reversed(inner)]
        d = diagram(g, base, inner + loop + back)
        assert cyclically_reduce(d) == R.reference_cyclically_reduce(d)


def _conjugates(rng, x, d, count):
    for _ in range(count):
        walk = random_legal_word(rng, x, d.base, 6)
        a = diagram(x.graph, d.base, walk)
        yield concat(concat(inverse(a), d), a)


def test_cyclic_reduction_of_conjugated_witnesses_matches_the_scan():
    rng = random.Random(24)
    witnesses = []
    for g, n in ((F.cycle_graph(5), 2), (F.complete_graph(4), 2),
                 (F.sun_graph(3, (1, 2), ray_length=2), 2),
                 (F.theta_graph(2, 2, 3), 3)):
        for cyc in simple_cycles(g)[:3]:
            if len(cyc) > n:
                witnesses.append(make_rotation(g, cyc, cyc.vertices[:n]))
    for n in (2, 3):
        g, spine, spike = F.tripod_graph(n)
        witnesses.append(make_tripod_swap(g, spine, spike))
    stripped = 0
    for r in witnesses:
        x = build(r.graph, len(r.base))
        for d in _conjugates(rng, x, r, 12):
            got = cyclically_reduce(d)
            assert got == R.reference_cyclically_reduce(d)
            assert len(got.cyclic_reduction) == len(r)
            stripped += len(got.conjugator)
    assert stripped > 0


def test_piler_dependence_sets_match_pairwise_touches():
    # random multigraphs with loops and parallel edges
    rng = random.Random(2009)
    for _ in range(200):
        nv = rng.randint(1, 6)
        edges = [(f"e{i}", str(rng.randrange(nv)), str(rng.randrange(nv)))
                 for i in range(rng.randint(0, 12))]
        g = Graph.make([str(v) for v in range(nv)], edges)
        assert _Piler(g).dep == R.pairwise_dep(g)


def _read_by_scan(piler, piles):
    """`_Piler.read` as first written: for every output letter, scan the
    generators from the first for one whose pile starts with its letter."""
    out = []
    remaining = sum(1 for gid in piler.gens for x in piles[gid] if x != 0)
    while remaining:
        for gid in piler.gens:
            pile = piles[gid]
            if pile and pile[0] != 0:
                out.append((gid, pile[0]))
                for j in piler.dep[gid]:
                    piles[j].popleft()
                remaining -= 1
                break
        else:
            raise AssertionError("piling stuck")
    return tuple(out)


def test_piler_read_matches_the_generator_scan():
    # random multigraphs with loops and parallel edges, random words with
    # cancellations: the ready heap reads the scan's word
    rng = random.Random(2311)
    for _ in range(300):
        nv = rng.randint(1, 6)
        edges = [(f"e{i}", str(rng.randrange(nv)), str(rng.randrange(nv)))
                 for i in range(rng.randint(1, 12))]
        piler = _Piler(Graph.make([str(v) for v in range(nv)], edges))
        word = [(rng.choice(piler.gens), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 30))]
        got = piler.read(piler.pile(word))
        assert got == _read_by_scan(piler, piler.pile(word)), word
        assert piler.reduce(got) == got


def test_piler_reads_a_long_walk_in_near_linear_time():
    # 12,000 letters walking C_2003 backwards from its last edge: each
    # letter depends on the next, so the word is its own normal form,
    # and every letter sits near the end of the generator order, where
    # the scan took about a second
    g = F.cycle_graph(2003)
    word = [(f"e{2003 - i % 2003}", -1) for i in range(12000)]
    piler = _Piler(g)
    piles = piler.pile(word)
    t0 = time.monotonic()
    assert piler.read(piles) == tuple(word)
    assert time.monotonic() - t0 < 0.5
    assert not any(piles.values())


# -- witness elements -----------------------------------------------------------

def test_rotation_witnesses():
    c4 = F.cycle_graph(4)
    rot = make_rotation(c4, simple_cycles(c4)[0], ("1", "3"))
    assert len(rot) == 4 and rot.is_spherical()
    assert cyclic_centralizer_witness(rot)

    c3 = F.cycle_graph(3)
    loop = make_rotation(c3, simple_cycles(c3)[0], ("1",))
    assert len(loop) == 3 and loop.is_spherical()

    c5 = F.cycle_graph(5)
    rot5 = make_rotation(c5, simple_cycles(c5)[0], ("1", "2", "3"))
    assert rot5.is_spherical()
    assert len(cyclically_reduce(rot5).particles) == 3


def test_rotation_needs_an_empty_slot():
    c4 = F.cycle_graph(4)
    with pytest.raises(PreconditionError):
        make_rotation(c4, simple_cycles(c4)[0], ("1", "2", "3", "4"))


def test_disconnected_support_is_not_a_witness():
    # one move in each of two far-apart triangles of a rose
    g = F.rose_graph(2, 6)
    x = build(g, 2)
    d = diagram(g, ("p1v1", "p2v1"),
                [("p1e2", 1), ("p2e2", 1), ("p1e2", -1), ("p2e2", -1)])
    assert d.is_trivial()  # commuting moves cancel pairwise
    d = diagram(g, ("p1v1", "p2v1"), [("p1e2", 1), ("p2e2", 1)])
    assert not d.is_spherical()


def test_parked_particle_breaks_witness():
    # rotation around one petal with a second particle parked on a ray
    g = F.rose_graph(1, 4, rays=1)
    petal = simple_cycles(g)[0]
    base_on_cycle = petal.vertices[:1]
    rot = make_rotation(g, petal, base_on_cycle)
    # embed into the two-particle group by parking at the ray tip
    two = diagram(g, (petal.vertices[0], "r1v1"), rot.letters)
    assert two.is_spherical()
    assert not cyclic_centralizer_witness(two)


def test_tripod_swap_lengths_and_witness():
    for n, expected_len in ((2, 6), (3, 14)):
        g, spine, spike = F.tripod_graph(n)
        d = make_tripod_swap(g, spine, spike)
        assert len(d) == expected_len and d.is_spherical()
        sd = cyclically_reduce(d)
        assert len(sd.cyclic_reduction) == len(d)
        assert sd.support_connected()
        assert len(sd.particles) == n
        assert cyclic_centralizer_witness(d)
        # phase one starts by parking the middle particle on the spike
        assert d.letters[0] == ("spike", 1)


def test_tripod_swap_onto_an_occupied_spike_is_illegal():
    # a "spike" at the occupied left end: the first move, the middle
    # particle onto it, is refused by the replay of the word
    g, spine, _ = F.tripod_graph(2)
    with pytest.raises(IllegalMoveError) as exc:
        make_tripod_swap(g, spine, spine[0])
    assert (exc.value.index, exc.value.reason) == (0, "target occupied")


# -- ball oracle and universal cover ----------------------------------------------

def test_ball_radius_zero():
    x = build(F.path_graph(2), 2)
    ball = ball_oracle(x, ("1", "3"), 0)
    assert len(ball) == 1 and () in ball


def test_ball_path_fixture():
    # UC_2 of the 3-vertex path is a segment of length 2; from the middle
    # configuration the ball of radius 2 holds the trivial diagram and the
    # two one-letter diagrams, nothing longer
    x = build(F.path_graph(2), 2)
    ball = ball_oracle(x, ("1", "3"), 2)
    assert sorted(len(k) for k in ball) == [0, 1, 1]


def test_ball_spherical_count_on_c4():
    x = build(F.cycle_graph(4), 2)
    ball = ball_oracle(x, ("1", "3"), 4)
    sphericals = [d for d in ball.values() if d.is_spherical()]
    assert len(sphericals) == 3  # trivial plus the two rotation directions


def test_cover_matches_ball_layer_by_layer():
    fixtures = [
        (F.path_graph(2), ("1", "3"), 6),
        (F.cycle_graph(4), ("1", "3"), 6),
        (F.star_graph(3), ("c", "a1v1"), 6),
        (F.complete_graph(4), ("1", "2"), 5),
    ]
    for g, base, radius in fixtures:
        x = build(g, 2)
        ball = ball_oracle(x, base, radius)
        cover = CoverBall(x, base, radius)
        assert len(ball) == len(cover.proj)
        ends = set()
        for d in ball.values():
            v = cover.lift(d.letters)
            assert cover.proj[v] == d.terminus
            assert cover.dist[v] == len(d)
            ends.add(v)
        assert len(ends) == len(cover.proj)


COVER_ROUTES = pytest.mark.parametrize("route", [ball_oracle, CoverBall],
                                      ids=["ball_oracle", "CoverBall"])


@COVER_ROUTES
@pytest.mark.parametrize("base, message", [
    (("zz", "1"), "is not a set of distinct vertices"),
    (("1", "1"), "is not a set of distinct vertices"),
    (("1",), "has 1 vertices, not 2"),
    (("1", "2", "3"), "has 3 vertices, not 2"),
])
def test_cover_routes_refuse_a_base_outside_the_complex(route, base, message):
    # each of these once gave a ball: of one vertex for the first two,
    # of configurations outside UC_2 for the others
    x = build(F.cycle_graph(4), 2)
    with pytest.raises(PreconditionError, match=message):
        route(x, base, 2)


@COVER_ROUTES
@pytest.mark.parametrize("radius", [-1, MAX_BALL_RADIUS + 1])
def test_cover_routes_refuse_a_radius_out_of_range(route, radius):
    # radius -1 once gave the one-vertex ball
    x = build(F.cycle_graph(4), 2)
    with pytest.raises(PreconditionError, match=r"radius must lie in 0\.\.12"):
        route(x, ("1", "3"), radius)


@COVER_ROUTES
def test_cover_routes_refuse_a_complex_without_its_squares(route):
    # without its squares the cover of UC_2(C_4) is a tree, yet both
    # routes once gave the 13-vertex radius-4 ball of the full complex
    x = build(F.cycle_graph(4), 2, max_dim=1)
    with pytest.raises(PreconditionError, match="2-skeleton"):
        route(x, ("1", "3"), 4)
    # one particle needs no squares
    route(build(F.cycle_graph(4), 1, max_dim=1), ("1",), 4)


def test_cover_routes_keep_their_balls_on_every_base():
    # vertices per distance, for radius 3 on C_4 at n = 2
    x = build(F.cycle_graph(4), 2)
    layers = {("1", "2"): [1, 2, 5, 2], ("1", "3"): [1, 4, 2, 4],
              ("1", "4"): [1, 2, 5, 2], ("2", "3"): [1, 2, 5, 2],
              ("2", "4"): [1, 4, 2, 4], ("3", "4"): [1, 2, 5, 2]}
    for base, counts in layers.items():
        ball = ball_oracle(x, base[::-1], 3)
        assert [sum(1 for k in ball if len(k) == r) for r in range(4)] == counts
        assert [CoverBall(x, base, 3).dist.count(r) for r in range(4)] == counts


def test_reduction_sound_against_cover():
    rng = random.Random(20260809)
    fixtures = [
        (F.cycle_graph(4), ("1", "3")),
        (F.star_graph(3), ("c", "a1v1")),
        (F.complete_graph(5), ("1", "2")),
    ]
    for g, base in fixtures:
        x = build(g, 2)
        cover = CoverBall(x, base, 8 if len(g.vertices) < 5 else 6)
        max_len = 8 if len(g.vertices) < 5 else 6
        for _ in range(200):
            letters = random_legal_word(rng, x, base, max_len)
            d = diagram(g, base, letters)
            assert cover.lift(letters) == cover.lift(d.letters)
            assert cover.dist[cover.lift(letters)] == len(d)


def test_distinct_fundamental_group_generators_on_a_bouquet():
    # two petals of a rose give distinct homotopy classes, confirmed by
    # the ball oracle
    g = F.rose_graph(2, 3)
    x = build(g, 2)
    base = ("c", "p2v1")
    # walk the first petal: c -> p1v1 -> p1v2 -> c
    a = diagram(g, base, [("p1e1", 1), ("p1e2", 1), ("p1e3", 1)])
    assert a.is_spherical() and len(a) == 3
    # park differently and walk the second petal
    base2 = ("c", "p1v1")
    b = diagram(g, base2, [("p2e1", 1), ("p2e2", 1), ("p2e3", 1)])
    assert b.is_spherical()
    # compare two classes with one base: petal one vs its inverse
    assert not equal(a, inverse(a))
    ball = ball_oracle(x, base, 6)
    sphericals = [d for d in ball.values() if d.is_spherical()]
    keys = {d.letters for d in sphericals}
    assert a.letters in keys and inverse(a).letters in keys
    assert len(keys) >= 5  # trivial, two petal classes, both directions
