"""Property tests of the integer cube kernel against counts made without it.

Every reference here enumerates with itertools over vertex and edge ids
and never calls `build`: the f-vector by weighted matchings, chi by
Gal's series, the configurations as vertex combinations.  The two
hyperplane routes are compared with each other, and the referees
(`verify_npc`, `verify_special_coloring`) must pass on every build and
fail once a square is taken away.
"""

import itertools
from math import comb

from hypothesis import assume, given, settings, strategies as st

import labels as L
from braidscope.complex import build, verify_npc
from braidscope.graph import Graph, subdivide_for
from braidscope.hyperplanes import (
    hyperplanes_by_bfs, hyperplanes_by_components, verify_special_coloring,
)

# ids of different lengths, so that idkey order ("9" < "10") differs from
# plain string order; edge ids e0..e27 do the same
NAMES = ("a", "9", "10", "zz", "v7", "v12", "x100", "b")


@st.composite
def graphs(draw, max_edges=28):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=8,
                          unique=True))
    pairs = list(itertools.combinations(names, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    chosen = [p for p, k in zip(pairs, keep) if k][:max_edges]
    return Graph.make(names, [(f"e{i}", u, v) for i, (u, v) in enumerate(chosen)])


def reference_f_vector(g: Graph, n: int) -> tuple:
    """d-matchings from itertools, each weighted by C(|V| - 2d, n - d)."""
    out = []
    for d in range(n + 1):
        matchings = sum(
            1 for es in itertools.combinations(g.edges, d)
            if len({v for e in es for v in (e.u, e.v)}) == 2 * d)
        out.append(matchings and matchings * comb(len(g.vertices) - 2 * d, n - d))
    return tuple(out)


def gal_chi(g: Graph, n: int) -> int:
    """t^n coefficient of prod_v (1 + (1 - deg v) t) / (1 - t)^|E|."""
    poly = [1]
    for v in g.vertices:
        a = 1 - g.degree(v)
        poly = [c + a * (poly[i - 1] if i else 0)
                for i, c in enumerate(poly + [0])][:n + 1]
    e = len(g.edges)
    return sum(c * (1 if k == n else comb(e + n - k - 1, n - k))
               for k, c in enumerate(poly))


def as_partition(hps):
    return sorted((h.color, tuple(sorted(h.members))) for h in hps)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(1, 3), st.data())
def test_kernel_against_independent_counts(g, n, data):
    n = min(n, len(g.vertices))
    x = build(g, n)
    assert x.f_vector() == reference_f_vector(g, n)
    assert set(L.configuration_ids(x)) == set(itertools.combinations(g.vertices, n))
    assert len(L.configuration_ids(x)) == comb(len(g.vertices), n)

    bfs = hyperplanes_by_bfs(x)
    assert as_partition(bfs) == as_partition(hyperplanes_by_components(g, n))
    members = [m for h in bfs for m in h.members]
    assert len(members) == len(set(members)) == x.f_vector()[1]

    assert verify_npc(x).ok
    assert verify_special_coloring(x).ok
    squares = sorted(x.level(2), key=lambda k: L.label(g, k))
    if squares:
        cut = L.without(x, data.draw(st.sampled_from(squares)))
        report = verify_special_coloring(cut)
        assert not report.ok and report.failed_axioms() == (4,)
        assert not verify_npc(cut).ok


@settings(max_examples=100, deadline=None)
@given(graphs(), st.integers(0, 3))
def test_labels_decode_by_bit_position(g, n):
    # the library's decoder against tests/labels.py, which reads the bits
    # off g.vertices and g.edges without a BitIndex
    x = build(g, min(n, len(g.vertices)))
    for level in x.levels:
        decoded = [x.index.label(k) for k in level]
        assert decoded == [L.label(g, k) for k in level]
        assert len(set(decoded)) == len(decoded)


@settings(max_examples=100, deadline=None)
@given(graphs(max_edges=10), st.integers(0, 2))
def test_f_vector_with_few_spare_vertices(g, spare):
    # no d-cube has d > |V| - n, yet the f-vector keeps all n + 1 entries
    n = max(len(g.vertices) - spare, 0)
    assert build(g, n).f_vector() == reference_f_vector(g, n)


@settings(max_examples=60, deadline=None)
@given(graphs(max_edges=10), st.integers(1, 3))
def test_euler_characteristic_is_gals(g, n):
    # chi of the configuration space, which UC_n models once the graph is
    # subdivided for n
    assume(g.edges or len(g.vertices) >= n)   # no edge to subdivide
    sub = subdivide_for(g, n)
    assert build(sub, n).euler_characteristic() == gal_chi(g, n)
