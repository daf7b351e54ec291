"""The reduced Świątkowski complex against the cube complex, and the
route that `homology --subdivide` takes between them."""

import pytest
from hypothesis import given, settings, strategies as st

import braidscope.complex as C
import braidscope.homology as H
from braidscope import cli, families as F
from braidscope.cli import main
from braidscope.complex import build
from braidscope.errors import InvariantError, ResourceLimitError
from braidscope.graph import Graph, normalize, smooth, subdivide_for
from braidscope.homology import (HomologySummary, chain_complex,
                                 configuration_components, homology,
                                 swiatkowski_dims, verify_dd_zero)
from braidscope.swiatkowski import fitted, reduced_complex
from test_homology import _cancel_fixtures


def groups(h):
    return h.free_ranks, h.torsion


def swiatkowski_homology(g, n):
    """Homology of the reduced complex of smooth(g), whose dimensions
    must be the closed form's."""
    m = smooth(g)
    c = reduced_complex(m, n)
    assert c.dims() == swiatkowski_dims(m, n)
    return homology(c)


@st.composite
def graphs_with_isolated_vertices(draw):
    """Up to 7 vertices, connected or not, loops and parallel edges
    allowed, normalized; vertices that no edge meets stay isolated."""
    nv = draw(st.integers(1, 7))
    ends = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=8))
    return normalize(Graph.make(
        [f"v{i}" for i in range(nv)],
        [(f"e{i}", f"v{u}", f"v{v}") for i, (u, v) in enumerate(edges)]))


@settings(max_examples=200, deadline=None)
@given(graphs_with_isolated_vertices(), st.integers(0, 4))
def test_groups_match_the_cube_complex_on_random_graphs(g, n):
    if not g.edges and len(g.vertices) < n:
        return   # subdivide_for refuses: no room for n particles
    try:
        x = build(subdivide_for(g, n), n, cell_cap=30000)
    except ResourceLimitError:
        return   # too large to referee quickly
    assert groups(swiatkowski_homology(g, n)) == groups(
        homology(chain_complex(x)))


def test_groups_match_on_the_cancellation_fixtures_and_k7():
    seen = 0
    for name, g, n, c in _cancel_fixtures():
        assert groups(swiatkowski_homology(g, n)) == groups(homology(c)), (
            name, n)
        seen += 1
    assert seen == 36
    h = swiatkowski_homology(F.complete_graph(7), 3)
    assert groups(h) == ((1, 15, 350, 0), ((), (2,), (2,), ()))


@pytest.mark.parametrize("g,n,dims", [
    (F.rose_graph(3, 3, rays=2), 4, (70, 245, 0, 0, 0)),
    (F.complete_bipartite(4, 4), 3, (816, 3264, 4032, 1512)),
    (F.complete_graph(20), 2, (18145, 68400, 61560)),
    # isolated vertices: C(2, t) ways to occupy t of them
    (Graph.make(["a", "b", "c"], [("e", "a", "a")]), 2, (4, 3, 0)),
])
def test_closed_form_sizes(g, n, dims):
    assert swiatkowski_dims(smooth(normalize(g)), n) == dims


@settings(max_examples=200, deadline=None)
@given(graphs_with_isolated_vertices(), st.integers(0, 4))
def test_component_count_matches_the_cube_complex(g, n):
    if not g.edges and len(g.vertices) < n:
        return   # subdivide_for refuses: no room for n particles
    try:
        x = build(subdivide_for(g, n), n, cell_cap=30000)
    except ResourceLimitError:
        return
    assert configuration_components(smooth(g), n) == x.component_count()


@pytest.mark.parametrize("g,n,components", [
    # three isolated vertices hold 0, 1 or 2 of two particles, the edge the
    # rest: 1 + 3 + 3 ways
    (Graph.make(["a", "b", "c", "d", "e"], [("x", "a", "b")]), 2, 7),
    # no edge: two particles on two of four vertices
    (Graph.make(["a", "b", "c", "d"], []), 2, 6),
    (Graph.make(["a"], []), 2, 0),
    (F.complete_graph(4), 0, 1),
])
def test_component_count_examples(g, n, components):
    assert configuration_components(smooth(normalize(g)), n) == components


def test_loop_generators_have_zero_boundary():
    # a circle smooths to one loop: UConf_n(S^1) is a circle for n >= 1
    m = smooth(F.cycle_graph(5))
    for n in range(1, 5):
        c = reduced_complex(m, n)
        assert c.dims() == (1, 1) + (0,) * (n - 1)
        assert c.columns[1] == ({},)
        assert groups(homology(c)) == ((1, 1) + (0,) * (n - 1),
                                       ((),) * (n + 1))


def test_dd_check_sees_one_flipped_sign_in_any_dimension():
    c = reduced_complex(smooth(F.complete_bipartite(3, 3)), 3)
    top = max(d for d, f in enumerate(c.dims()) if f)
    assert top == 3
    for d in range(1, top + 1):
        if d < top:   # a column d_{d+1} reads, so d_d o d_{d+1} must see it
            used = sorted({r for col in c.columns[d + 1] for r in col})
        else:
            used = [j for j, col in enumerate(c.columns[d]) if col]
        for j in (used[0], used[-1]):
            col = c.columns[d][j]
            r = next(iter(col))
            col[r] = -col[r]
            try:
                assert not verify_dd_zero(c), (d, j)
            finally:
                col[r] = -col[r]
    assert verify_dd_zero(c)


def test_fitted_pads_and_checks_against_the_cube_complex():
    h = HomologySummary((1, 3), ((), (2,)))
    assert fitted(h, 3, -2, 1) == HomologySummary((1, 3, 0, 0),
                                                  ((), (2,), (), ()))
    with pytest.raises(InvariantError, match="Euler characteristic -2, "
                                             "the cube complex -1"):
        fitted(h, 3, -1, 1)
    with pytest.raises(InvariantError, match="nonzero above dimension 0"):
        fitted(h, 0, 1, 1)
    assert fitted(HomologySummary((1, 0), ((), ())), 0, 1, 1) == (
        HomologySummary((1,), ((),)))
    # H_0 must be free of rank the number of components
    with pytest.raises(InvariantError, match=r"H_0 = Z, not Z\^2, one Z per"):
        fitted(h, 3, -2, 2)
    with pytest.raises(InvariantError, match=r"H_0 = Z/2, not Z\^1, one Z"):
        fitted(HomologySummary((0, 1), ((2,), ())), 1, -1, 1)


# -- the route of `homology --subdivide` ----------------------------------------

def graph_file(tmp_path, g):
    """`g` as a graph file; the CLI takes alphanumeric ids only."""
    path = tmp_path / "g.txt"
    path.write_text("".join(f"v {v}\n" for v in g.vertices) + "".join(
        f"e {e.id.replace('_', 'x')} {e.u} {e.v}\n" for e in g.edges))
    return str(path)


@pytest.fixture
def cubical_calls(monkeypatch):
    calls = []
    real = H.chain_complex

    def counting(x):
        calls.append(x.n)
        return real(x)

    monkeypatch.setattr(H, "chain_complex", counting)
    return calls


@pytest.fixture
def build_calls(monkeypatch):
    calls = []
    real = C.build

    def counting(g, n, *args, **kwargs):
        calls.append(n)
        return real(g, n, *args, **kwargs)

    monkeypatch.setattr(C, "build", counting)
    return calls


@pytest.mark.parametrize("g,n,cubical", [
    (F.rose_graph(3, 3, rays=2), 4, False),
    (F.complete_graph(4), 2, True),
    (F.complete_graph(5), 2, True),
    # smaller in total, but C_1 = 68,400 is over the Smith cap
    (F.complete_graph(20), 2, True),
], ids=("rose3+2-n4", "K4-n2", "K5-n2", "K20-n2"))
def test_route_by_size(tmp_path, capsys, cubical_calls, build_calls, g, n,
                       cubical):
    argv = ["homology", "--subdivide", "--graph", graph_file(tmp_path, g),
            "-n", str(n)]
    assert main(argv) == 0
    # the cube complex is counted, and built only where it answers
    assert cubical_calls == build_calls == ([n] if cubical else [])
    assert capsys.readouterr().err == ""


def test_route_without_subdivide_stays_cubical(tmp_path, capsys,
                                               cubical_calls, build_calls):
    # H_* of UC_n of the graph as given: no model answers for it
    path = graph_file(tmp_path, F.star_graph(3))
    assert main(["homology", "--graph", path, "-n", "2"]) == 0
    assert cubical_calls == build_calls == [2]


def test_built_f_vector_must_equal_the_count(tmp_path, monkeypatch, capsys):
    real = C.CubeComplex.f_vector

    def miscounted(x):
        f = real(x)
        return f[:-1] + (f[-1] + 1,)

    monkeypatch.setattr(C.CubeComplex, "f_vector", miscounted)
    path = graph_file(tmp_path, F.complete_graph(4))
    assert main(["homology", "--subdivide", "--graph", path, "-n", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal check failed: cube complex has f-vector "
                   "[6, 12, 4], its count [6, 12, 3]\n")


def test_flipped_sign_exits_4(tmp_path, monkeypatch, capsys):
    real = H.verify_dd_zero

    def flipping(c):
        # a column of the top map, which d_{top-1} o d_top reads whole
        col = c.columns[-1][0]
        r = next(iter(col))
        col[r] = -col[r]
        return real(c)

    monkeypatch.setattr(H, "verify_dd_zero", flipping)
    path = graph_file(tmp_path, F.complete_bipartite(3, 3))
    assert main(["homology", "--subdivide", "--graph", path, "-n", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal check failed: boundary of a boundary is nonzero "
                   "in the Świątkowski complex\n")


def test_forged_rank_exits_4(tmp_path, monkeypatch, capsys):
    real = H.homology

    def forged(c, *args):
        h = real(c, *args)
        return h._replace(free_ranks=(h.free_ranks[0],
                                      h.free_ranks[1] + 1) + h.free_ranks[2:])

    monkeypatch.setattr(H, "homology", forged)
    path = graph_file(tmp_path, F.star_graph(5))
    assert main(["homology", "--subdivide", "--graph", path, "-n", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal check failed: Świątkowski homology has Euler "
                   "characteristic -26, the cube complex -25\n")
    assert cli.EXIT_INVARIANT == 4


@pytest.mark.parametrize("g,n,subdivide,err", [
    # the Świątkowski complex of the rose has no 2-cells at n=4
    (F.rose_graph(3, 3, rays=2), 4, True,
     "Świątkowski homology has H_0 = Z/2, not Z^1, one Z per path component"),
    # cube complexes of dimension 1
    (F.complete_graph(4), 1, True,
     "cube complex homology has H_0 = Z/2, not Z^1, one Z per path component"),
    # on a tree the flip is a change of basis; on a cycle it is not
    (F.cycle_graph(3), 1, False,
     "cube complex homology has H_0 = Z/2, not Z^1, one Z per path component"),
], ids=("swiatkowski-rose3+2-n4", "cube-K4-n1", "cube-triangle-n1"))
def test_flipped_sign_in_d1_exits_4(tmp_path, monkeypatch, capsys, g, n,
                                    subdivide, err):
    # one sign flipped in the last column of d_1 of the complex that
    # answers; with no 2-cells, d o d reads nothing
    real = H.verify_dd_zero

    def flipping(c):
        col = c.columns[1][-1]
        r = next(iter(col))
        col[r] = -col[r]
        return real(c)

    monkeypatch.setattr(H, "verify_dd_zero", flipping)
    argv = ["homology", "--graph", graph_file(tmp_path, g), "-n", str(n)]
    assert main(argv + ["--subdivide"] * subdivide) == 4
    out, got = capsys.readouterr()
    assert out == ""
    assert got == f"internal check failed: {err}\n"
