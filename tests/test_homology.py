import math
import os
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

import braidscope
import labels as L
import mod2_ranks
from braidscope import families as F
from braidscope.complex import build
from braidscope.errors import (InvariantError, PreconditionError,
                               ResourceLimitError)
from braidscope.graph import Graph, normalize, subdivide_for
import braidscope.homology as H
from braidscope.homology import (
    ChainComplex, HomologySummary, check_column_cap, chain_complex, checked,
    homology, smith_invariants, verify_dd_zero,
)


def columns_of(mat):
    """The columns of a dense matrix as {row: entry} dicts."""
    return [{i: row[j] for i, row in enumerate(mat) if row[j]}
            for j in range(len(mat[0]) if mat else 0)]


def test_smith_known_matrices():
    # gcds of minors pin the invariant factors: d1=2, d1*d2=4, product 624
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_invariants(columns_of(m), (3, 3)) == [2, 2, 156]
    # identity and zero
    assert smith_invariants(columns_of([[1, 0], [0, 1]]), (2, 2)) == [1, 1]
    assert smith_invariants([{}] * 4, (3, 4)) == []
    # classic torsion example: boundary of the projective plane square
    assert smith_invariants(columns_of([[2]]), (1, 1)) == [2]
    # divisibility chain is enforced
    out = smith_invariants(columns_of([[6, 0], [0, 4]]), (2, 2))
    assert out == [2, 12]
    # no unit is alone in its row: the row queue pivots, then the dense
    # residue [[-2]] is left
    assert smith_invariants(columns_of([[1, 1], [1, -1]]), (2, 2)) == [1, 2]


def test_boundary_shapes_path():
    c = chain_complex(build(F.path_graph(2), 2))
    assert c.dims() == (3, 2, 0)
    assert not c.boundaries[2]


def test_boundary_c4_square_columns():
    x = build(F.cycle_graph(4), 2)
    c = chain_complex(x)
    assert c.dims() == (6, 8, 2)
    col_abs = {}
    for (r, col), v in c.boundaries[2].items():
        col_abs[col] = col_abs.get(col, 0) + abs(v)
    assert set(col_abs.values()) == {4}


def test_dd_zero_on_fixtures():
    fixtures = [
        build(F.cycle_graph(4), 2),
        build(F.complete_graph(5), 2),
        build(subdivide_for(F.complete_graph(4), 3), 3),
        build(subdivide_for(F.rose_graph(2, 3), 3), 3),
    ]
    for x in fixtures:
        assert verify_dd_zero(chain_complex(x))


# -- the column form ------------------------------------------------------------

COLUMN_FIXTURES = [(F.complete_graph(5), 2), (F.theta_graph(2, 2, 2), 3),
                   (F.complete_graph(4), 3)]


def _complex(g, n):
    x = build(subdivide_for(g, n), n)
    return x, chain_complex(x)


def columns_from_labels(x, c):
    """Per dimension d >= 1, the items of each column of d_d in order,
    from the cube labels that tests/labels.py decodes and the sign rule
    of the module docstring, apart from the bitmask facets: by ascending
    edge, the target end +, then the source end -."""
    g = x.graph
    out = [None]
    for d in range(1, len(c.bases)):
        row = {L.label(g, k): i for i, k in enumerate(c.bases[d - 1])}
        cols = []
        for key in c.bases[d]:
            facets = L.facets(g, L.label(g, key))   # (source, target) per edge
            items = []
            for i in range(d):
                sign = (-1) ** i
                items.append((row[facets[2 * i + 1]], sign))
                items.append((row[facets[2 * i]], -sign))
            cols.append(items)
        out.append(cols)
    return out


def boundaries_from_labels(x, c):
    """d_d as (row, col) -> entry, from :func:`columns_from_labels`."""
    return (None,) + tuple(
        {(r, j): v for j, items in enumerate(cols) for r, v in items}
        for cols in columns_from_labels(x, c)[1:])


def _assert_columns_in_label_order(x, c):
    # the Smith sweep's pivots follow the columns' insertion order
    labelled = columns_from_labels(x, c)
    for d in range(1, len(c.bases)):
        assert [list(col.items()) for col in c.columns[d]] == labelled[d], d


@pytest.mark.parametrize("g,n", COLUMN_FIXTURES)
def test_boundary_view_matches_labels_and_counts(g, n):
    x, c = _complex(g, n)
    _assert_columns_in_label_order(x, c)
    assert c.boundaries == boundaries_from_labels(x, c)
    # 2d nonzeros per d-cube: the count the benchmark tracer reports
    dims = c.dims()
    assert (sum(len(b) for b in c.boundaries[1:])
            == sum(2 * d * dims[d] for d in range(1, len(dims))))
    assert c.boundaries is c.boundaries   # built once


@pytest.mark.parametrize("g,n", COLUMN_FIXTURES)
def test_dd_check_sees_one_flipped_sign_in_any_dimension(g, n):
    _, c = _complex(g, n)
    top = max(d for d, f in enumerate(c.dims()) if f)
    flipped = 0
    for d in range(1, top + 1):
        if d < top:   # a column d_{d+1} reads, so d_d o d_{d+1} must see it
            used = sorted({r for col in c.columns[d + 1] for r in col})
        else:
            used = range(len(c.columns[d]))
        for j in (used[0], used[-1]):
            col = c.columns[d][j]
            r = next(iter(col))
            col[r] = -col[r]
            try:
                assert not verify_dd_zero(c), (d, j)
            finally:
                col[r] = -col[r]
            flipped += 1
    assert verify_dd_zero(c)
    assert flipped == 2 * top >= 4



@st.composite
def small_multigraphs(draw):
    """Up to 4 vertices and 1 to 5 edges, loops and parallel edges
    allowed, normalized."""
    nv = draw(st.integers(1, 4))
    ends = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=5))
    return normalize(Graph.make(
        [f"v{i}" for i in range(nv)],
        [(f"e{i}", f"v{u}", f"v{v}") for i, (u, v) in enumerate(edges)]))


@settings(max_examples=30, deadline=None)
@given(small_multigraphs(), st.integers(2, 4))
def test_random_subdivided_columns_keep_the_label_order(g, n):
    x = build(subdivide_for(g, n), n)
    _assert_columns_in_label_order(x, chain_complex(x))


def test_chain_complex_checks_d_d_once_per_complex(monkeypatch):
    # the benchmark's homology.verify_dd_zero span wraps this module global
    seen = []
    real = H.verify_dd_zero

    def counting(c):
        seen.append(c)
        return real(c)

    monkeypatch.setattr(H, "verify_dd_zero", counting)
    made = [chain_complex(build(g, n)) for g, n in
            [(F.complete_graph(4), 2), (F.cycle_graph(4), 2),
             (subdivide_for(F.theta_graph(2, 2, 2), 3), 3)]]
    assert len(seen) == 3 and all(a is b for a, b in zip(seen, made))


# -- the d o d check against plain sums --------------------------------------------

def dd_zero_by_sums(c):
    """d_{d-1} o d_d = 0 by summing each column of the product row by row."""
    for d in range(2, len(c.columns)):
        lo = c.columns[d - 1]
        for col in c.columns[d]:
            acc = {}
            for mid, v in col.items():
                for r, w in lo[mid].items():
                    acc[r] = acc.get(r, 0) + v * w
            if any(acc.values()):
                return False
    return True


def _two_maps(lo, hi):
    return ChainComplex(((), (), ()), (None, tuple(lo), tuple(hi)))


UNITS_AND_TWOS = st.sampled_from((-2, -1, 1, 2))


@st.composite
def composing_to_zero(draw):
    """Lower columns on shared rows, in pairs b = s * a, and upper
    columns that each take some pairs as t * s * a - t * b, so each
    upper column composes to zero; entries are in {-2, -1, 1, 2}."""
    rows = draw(st.integers(1, 5))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.dictionaries(st.integers(0, rows - 1), UNITS_AND_TWOS,
                                 min_size=1, max_size=3))
        units = all(abs(w) == 1 for w in a.values())
        s = draw(st.sampled_from((-2, -1, 1, 2) if units else (-1, 1)))
        t = draw(st.sampled_from((-1, 1) if abs(s) == 2 else (-2, -1, 1, 2)))
        pairs.append((a, {r: s * w for r, w in a.items()}, s * t, -t))
    # the lower columns in a drawn order, so pairs need not sit side by side
    order = draw(st.permutations(range(2 * len(pairs))))
    lo = [None] * len(order)
    for k, (a, b, _, _) in enumerate(pairs):
        lo[order[2 * k]], lo[order[2 * k + 1]] = a, b
    hi = []
    for _ in range(draw(st.integers(1, 4))):
        taken = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1,
                              max_size=len(pairs), unique=True))
        col = {}
        for k in taken:
            _, _, ca, cb = pairs[k]
            col[order[2 * k]], col[order[2 * k + 1]] = ca, cb
        hi.append(col)
    return rows, lo, hi


@settings(max_examples=300, deadline=None)
@given(composing_to_zero(), st.data())
def test_dd_check_agrees_with_sums_on_random_columns(case, data):
    rows, lo, hi = case
    assert verify_dd_zero(_two_maps(lo, hi)) and dd_zero_by_sums(_two_maps(lo, hi))
    # a mutant that may still compose to zero: one entry dropped or
    # redrawn, in an upper or a lower column
    maps = {"lo": list(lo), "hi": list(hi)}
    cols = maps[data.draw(st.sampled_from(("lo", "hi")))]
    j = data.draw(st.integers(0, len(cols) - 1))
    col = cols[j] = dict(cols[j])
    r = data.draw(st.sampled_from(sorted(col)))
    if data.draw(st.booleans()):
        del col[r]
    else:
        col[r] = data.draw(UNITS_AND_TWOS)
    c = _two_maps(maps["lo"], maps["hi"])
    assert verify_dd_zero(c) == dd_zero_by_sums(c)
    # a mutant that cannot: an upper column reaches a row nothing else hits
    lonely = _two_maps(lo + [{rows: data.draw(UNITS_AND_TWOS)}],
                       hi[:-1] + [{**hi[-1], len(lo): data.draw(UNITS_AND_TWOS)}])
    assert not verify_dd_zero(lonely) and not dd_zero_by_sums(lonely)


def _real_mutants(c):
    """Mutate the first two entries of the first, middle and last column
    of each d_d in place, one at a time: dropped, set to 2, moved to a
    row the column lacks.  Yields where, with the mutant in place."""
    for d in range(1, len(c.columns)):
        cols = c.columns[d]
        nrows = len(c.bases[d - 1])
        for j in sorted({0, len(cols) // 2, len(cols) - 1} if cols else ()):
            col = cols[j]
            snapshot = dict(col)
            for r in list(snapshot)[:2]:
                free = next(i % nrows for i in range(r + 1, r + nrows)
                            if i % nrows not in col)
                for mutant in ("drop", "two", "move"):
                    v = col.pop(r)
                    if mutant == "two":
                        col[r] = 2
                    elif mutant == "move":
                        col[free] = v
                    yield d, j, r, mutant
                    col.clear()
                    col.update(snapshot)


@pytest.mark.parametrize("g,n", COLUMN_FIXTURES)
def test_dd_check_catches_what_sums_catch_on_real_mutants(g, n):
    _, c = _complex(g, n)
    caught = 0
    for where in _real_mutants(c):
        expected = dd_zero_by_sums(c)
        assert verify_dd_zero(c) == expected, where
        caught += not expected
    assert caught and verify_dd_zero(c) and dd_zero_by_sums(c)

CORRUPT_FACET = """
import sys
import braidscope.homology as H
from braidscope import families as F
from braidscope.complex import build
from braidscope.errors import InvariantError
from braidscope.graph import subdivide_for

if not sys.flags.optimize:
    sys.exit(2)
x = build(subdivide_for(F.complete_graph(4), 3), 3)
bad = next(iter(x.levels[3]))[0]
real = H.bits


def misordered(mask):
    # the sign rule reads the first two edges of these 3-cubes swapped,
    # so one facet pair of each gets the wrong sign
    out = list(real(mask))
    if mask == bad:
        out[0], out[1] = out[1], out[0]
    return iter(out)


H.bits = misordered
try:
    H.chain_complex(x)
except InvariantError:
    sys.exit(0)
sys.exit(1)
"""


def test_corrupted_facet_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(braidscope.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPT_FACET],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


# each Świątkowski-route check of `homology --subdivide` raises, so that
# it holds under python -O: a forged rank changes χ, a forged group lies
# above the cube complex's top dimension, and a sign flipped in d_1 (the
# rose's complex has no 2-cells at n=4, so d o d reads nothing) leaves
# H_0 = Z/2
SWIATKOWSKI_MUTANT = """
import sys
import braidscope.homology as H
from braidscope.cli import main

if not sys.flags.optimize:
    sys.exit(99)
mutant, path, n = sys.argv[1:]
real_homology, real_dd = H.homology, H.verify_dd_zero


def forged(c, *args):
    h = real_homology(c, *args)
    if mutant == "euler":
        return h._replace(free_ranks=(h.free_ranks[0], h.free_ranks[1] + 1)
                          + h.free_ranks[2:])
    return h._replace(free_ranks=h.free_ranks + (1,),
                      torsion=h.torsion + ((),))


def flipping(c):
    col = c.columns[1][-1]
    r = next(iter(col))
    col[r] = -col[r]
    return real_dd(c)


if mutant == "h0":
    H.verify_dd_zero = flipping
else:
    H.homology = forged
sys.exit(main(["homology", "--subdivide", "--graph", path, "-n", n]))
"""


@pytest.mark.parametrize("mutant,g,n,err", [
    ("euler", F.star_graph(5), 3,
     "Świątkowski homology has Euler characteristic -26, the cube complex -25"),
    ("above-top", F.star_graph(5), 3,
     "Świątkowski homology is nonzero above dimension 3"),
    ("h0", F.rose_graph(3, 3, rays=2), 4,
     "Świątkowski homology has H_0 = Z/2, not Z^1, one Z per path component"),
])
def test_swiatkowski_checks_exit_4_under_optimize(tmp_path, mutant, g, n, err):
    path = tmp_path / "g.txt"
    path.write_text("".join(f"v {v}\n" for v in g.vertices) + "".join(
        f"e {e.id.replace('_', 'x')} {e.u} {e.v}\n" for e in g.edges))
    src = os.path.dirname(os.path.dirname(braidscope.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SWIATKOWSKI_MUTANT, mutant, str(path),
         str(n)], env=env, capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        4, "", f"internal check failed: {err}\n")


def test_checked_pads_and_checks_against_the_cube_complex():
    h = HomologySummary((1, 3), ((), (2,)))
    assert checked(h, 3, -2, 1, "Świątkowski") == HomologySummary(
        (1, 3, 0, 0), ((), (2,), (), ()))
    with pytest.raises(InvariantError, match="Euler characteristic -2, "
                                             "the cube complex -1"):
        checked(h, 3, -1, 1, "Świątkowski")
    with pytest.raises(InvariantError, match="nonzero above dimension 0"):
        checked(h, 0, 1, 1, "Świątkowski")
    assert checked(HomologySummary((1, 0), ((), ())), 0, 1, 1,
                   "Świątkowski") == HomologySummary((1,), ((),))
    # H_0 must be free of rank the number of components
    with pytest.raises(InvariantError, match=r"H_0 = Z, not Z\^2, one Z per"):
        checked(h, 3, -2, 2, "Świątkowski")
    with pytest.raises(InvariantError, match=r"H_0 = Z/2, not Z\^1, one Z"):
        checked(HomologySummary((0, 1), ((2,), ())), 1, -1, 1, "Świątkowski")
    # the cube route: same checks, its own name in the message
    with pytest.raises(InvariantError, match=r"^cube complex homology has "
                                             r"H_0 = Z, not Z\^2, one Z per"):
        checked(h, 1, -2, 2, "cube complex")


def test_homology_circle():
    h = homology(chain_complex(build(F.cycle_graph(4), 2)))
    assert h.free_ranks == (1, 1, 0)
    assert all(not t for t in h.torsion)


def test_homology_k5_torsion():
    x = build(F.complete_graph(5), 2)
    h = homology(chain_complex(x))
    assert h.free_ranks == (1, 6, 0)
    assert h.torsion[1] == (2,)
    assert h.torsion[2] == ()
    assert h.euler() == x.euler_characteristic() == -5


def test_homology_k33_torsion():
    # the other nonplanar witness
    x = build(F.complete_bipartite(3, 3), 2)
    h = homology(chain_complex(x))
    assert h.free_ranks[0] == 1
    assert 2 in h.torsion[1]


def test_homology_rose_free():
    g = subdivide_for(F.rose_graph(2, 3), 3)
    x = build(g, 3)
    h = homology(chain_complex(x))
    assert all(not t for t in h.torsion)
    assert all(r == 0 for r in h.free_ranks[2:])
    assert h.free_ranks[1] == 1 - x.euler_characteristic()


def test_euler_consistency():
    for g, n in [(F.complete_graph(5), 2), (F.cycle_graph(6), 2),
                 (subdivide_for(F.star_graph(3), 3), 3)]:
        x = build(g, n)
        h = homology(chain_complex(x))
        assert h.euler() == x.euler_characteristic()


def test_column_cap():
    x = build(F.complete_graph(5), 2)
    with pytest.raises(ResourceLimitError):
        homology(chain_complex(x), column_cap=10)


def test_chain_complex_needs_full_build():
    x = build(F.complete_graph(5), 2, max_dim=1)
    with pytest.raises(PreconditionError):
        chain_complex(x)


def test_package_attribute_names_the_submodule():
    assert isinstance(H, types.ModuleType)
    assert H.homology is homology


# -- unit pairs cancelled across dimensions ------------------------------------

CANCEL_FAMILIES = [
    ("K3", F.complete_graph(3)), ("K4", F.complete_graph(4)),
    ("K5", F.complete_graph(5)), ("K6", F.complete_graph(6)),
    ("K33", F.complete_bipartite(3, 3)),
    ("star3", F.star_graph(3)), ("star5", F.star_graph(5)),
    ("rose2", F.rose_graph(2, 3)), ("rose3+2", F.rose_graph(3, 3, rays=2)),
    ("theta222", F.theta_graph(2, 2, 2)),
]
# the reference sweeps every matrix in full; above this many cells it
# would dominate the suite (K5, K6, K33 and the rose with rays at n=4)
REFERENCE_CELL_BUDGET = 25000


def _cancel_fixtures(cell_budget=REFERENCE_CELL_BUDGET, particles=(1, 2, 3, 4)):
    for name, g in CANCEL_FAMILIES:
        for n in particles:
            try:
                x = build(subdivide_for(g, n), n, cell_cap=cell_budget)
            except ResourceLimitError:
                continue
            yield name, g, n, chain_complex(x)


def reference_homology(c):
    """Free ranks and torsion from one full Smith form per dimension."""
    dims = c.dims()
    inv = [[]] + [smith_invariants(c.columns[d], (dims[d - 1], dims[d]))
                  for d in range(1, len(dims))] + [[]]
    free = tuple(dims[d] - len(inv[d]) - len(inv[d + 1])
                 for d in range(len(dims)))
    torsion = tuple(tuple(f for f in inv[d + 1] if f > 1)
                    for d in range(len(dims)))
    return free, torsion


def gal_euler(g, n):
    """Coefficient of t^n in prod_v (1 + (1 - deg v) t) / (1 - t)^|E|."""
    poly = [1]
    for v in g.vertices:
        a = 1 - g.degree(v)
        poly = [p + a * q for p, q in zip(poly + [0], [0] + poly)]
    e = len(g.edges)
    return sum(poly[k] * math.comb(e + n - k - 1, n - k)
               for k in range(min(n, len(poly) - 1) + 1))


def test_cancellation_matches_full_sweeps_and_gal():
    seen = 0
    for name, g, n, c in _cancel_fixtures():
        h = homology(c)
        assert (h.free_ranks, h.torsion) == reference_homology(c), (name, n)
        assert h.euler() == gal_euler(g, n), (name, n)
        seen += 1
    assert seen == 36


def test_dropping_a_non_pivot_column_is_caught(monkeypatch):
    # a hand-off with one row too many must break the equality above on
    # some fixture, or that test could not see a wrong cancellation
    real = H.smith_invariants

    def leaky(columns, shape, drop_cols=frozenset(), pivot_rows=None):
        out = real(columns, shape, drop_cols, pivot_rows)
        if pivot_rows is not None:
            spare = [r for r in range(shape[0]) if r not in pivot_rows]
            if spare:
                pivot_rows.add(spare[0])
        return out

    monkeypatch.setattr(H, "smith_invariants", leaky)
    wrong = []
    for name, g, n, c in _cancel_fixtures(2000, (2, 3, 4)):
        h = homology(c)
        monkeypatch.undo()
        if (h.free_ranks, h.torsion) != reference_homology(c):
            wrong.append((name, n))
        monkeypatch.setattr(H, "smith_invariants", leaky)
    assert wrong


def test_sweep_reports_unit_pivot_rows():
    # K5 at n=2: every pivot row is a real row of d2, and
    # dropping those columns from d1 leaves its invariants unchanged
    c = chain_complex(build(F.complete_graph(5), 2))
    rows = set()
    inv2 = smith_invariants(c.columns[2], (30, 15), pivot_rows=rows)
    assert len(rows) == inv2.count(1) and rows <= set(range(30))
    assert (smith_invariants(c.columns[1], (10, 30), drop_cols=rows)
            == smith_invariants(c.columns[1], (10, 30)))
    # K_{3,3} at n=3: no free face in d_2, whose pivots all come from the
    # row queue with fill and leave a dense residue; the rows handed down
    # from d_3 and from d_2 must each keep the next map's invariants
    c = chain_complex(build(subdivide_for(F.complete_bipartite(3, 3), 3), 3))
    dims = c.dims()
    handed = frozenset()
    for d in (3, 2):
        rows = set()
        inv = smith_invariants(c.columns[d], (dims[d - 1], dims[d]),
                               drop_cols=handed, pivot_rows=rows)
        assert len(rows) == inv.count(1) and rows <= set(range(dims[d - 1]))
        below = (dims[d - 2], dims[d - 1])
        assert (smith_invariants(c.columns[d - 1], below, drop_cols=rows)
                == smith_invariants(c.columns[d - 1], below))
        handed = frozenset(rows)


def test_divisibility_fix_up_skips_the_unit_pivots(monkeypatch):
    diag = [{i: 1} for i in range(5000)] + [{5000: 2}, {5001: 4}, {5002: 6}]
    lengths = []
    real = H._fix_divisibility

    def counting(factors):
        lengths.append(len(factors))
        return real(factors)

    monkeypatch.setattr(H, "_fix_divisibility", counting)
    assert smith_invariants(diag, (5003, 5003)) == [1] * 5000 + [2, 2, 12]
    assert lengths == [3]


def test_column_cap_checked_before_any_sweep(monkeypatch):
    calls = []
    monkeypatch.setattr(H, "smith_invariants",
                        lambda *a, **k: calls.append(a) or [])
    c = chain_complex(build(F.complete_graph(5), 2))   # dims (10, 30, 15)
    # ascending order: dimension 1 is named although the sweep starts at 2
    with pytest.raises(ResourceLimitError,
                       match="^30 columns exceed Smith-form cap 10$"):
        homology(c, column_cap=10)
    assert calls == []
    check_column_cap((10**6, 30, 15), 30)   # rows are not capped
    with pytest.raises(ResourceLimitError, match="^31 columns"):
        check_column_cap((1, 31), 30)


# -- torsion against ranks over F_2 ----------------------------------------------

def test_torsion_agrees_with_ranks_mod_2(monkeypatch):
    # the rank of each d_d over F_2, by an elimination of its own, is the
    # number of odd invariant factors the sweep returned for it, and the
    # rank that the summary's free ranks and torsion predict
    returned = []
    real = H.smith_invariants

    def recording(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(H, "smith_invariants", recording)
    seen = set()
    for name, g, n, c in _cancel_fixtures():
        returned.clear()
        h = homology(c)
        mod2 = mod2_ranks.ranks_mod2(c)
        assert mod2_ranks.predicted_ranks(h, c.dims(), 2) == mod2, (name, n)
        odd = tuple(sum(f % 2 for f in inv) for inv in reversed(returned))
        assert odd == mod2, (name, n)
        seen.add((name, n))
    assert len(seen) == 36 and ("K5", 2) in seen


@pytest.mark.parametrize("g,n", [(F.complete_graph(5), 2),
                                 (F.complete_bipartite(3, 3), 3)])
def test_ranks_mod_2_see_a_dropped_2(monkeypatch, g, n):
    # a sweep that reports a 1 for one of its 2s drops that 2 from a
    # torsion list and keeps every free rank: the mod-2 ranks must differ
    real = H.smith_invariants

    def drops_a_2(*args, **kwargs):
        out = real(*args, **kwargs)
        if 2 in out:
            out[out.index(2)] = 1
        return out

    c = chain_complex(build(subdivide_for(g, n), n))
    h = homology(c)
    monkeypatch.setattr(H, "smith_invariants", drops_a_2)
    wrong = homology(c)
    assert wrong.free_ranks == h.free_ranks
    assert sum(map(len, wrong.torsion)) == sum(map(len, h.torsion)) - 1
    mod2 = mod2_ranks.ranks_mod2(c)
    assert mod2_ranks.predicted_ranks(h, c.dims(), 2) == mod2
    assert mod2_ranks.predicted_ranks(wrong, c.dims(), 2) != mod2


# -- torsion against ranks over F_3 ----------------------------------------------

def test_torsion_agrees_with_ranks_mod_3(monkeypatch):
    # as over F_2: the rank of each d_d over F_3 is the number of its
    # invariant factors prime to 3, and the rank the summary predicts
    returned = []
    real = H.smith_invariants

    def recording(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(H, "smith_invariants", recording)
    seen = set()
    for name, g, n, c in _cancel_fixtures():
        returned.clear()
        h = homology(c)
        mod3 = mod2_ranks.ranks_mod3(c)
        assert mod2_ranks.predicted_ranks(h, c.dims(), 3) == mod3, (name, n)
        prime = tuple(sum(1 for f in inv if f % 3) for inv in reversed(returned))
        assert prime == mod3, (name, n)
        seen.add((name, n))
    assert len(seen) == 36 and ("K5", 2) in seen


@pytest.mark.parametrize("g,n", [(F.complete_graph(5), 2),
                                 (F.complete_bipartite(3, 3), 3)])
def test_ranks_mod_3_see_a_2_turned_into_a_0(monkeypatch, g, n):
    # a sweep that loses one of its 2s reports Z + Z (one more free rank
    # in each of two dimensions) in place of a Z/2; every rank mod 2
    # stays as predicted, and only the ranks mod 3 can tell
    real = H.smith_invariants

    def loses_a_2(*args, **kwargs):
        out = real(*args, **kwargs)
        if 2 in out:
            out.remove(2)
        return out

    c = chain_complex(build(subdivide_for(g, n), n))
    h = homology(c)
    monkeypatch.setattr(H, "smith_invariants", loses_a_2)
    wrong = homology(c)
    assert sum(wrong.free_ranks) == sum(h.free_ranks) + 2
    assert sum(map(len, wrong.torsion)) == sum(map(len, h.torsion)) - 1
    assert (mod2_ranks.predicted_ranks(wrong, c.dims(), 2)
            == mod2_ranks.predicted_ranks(h, c.dims(), 2)
            == mod2_ranks.ranks_mod2(c))
    mod3 = mod2_ranks.ranks_mod3(c)
    assert mod2_ranks.predicted_ranks(h, c.dims(), 3) == mod3
    assert mod2_ranks.predicted_ranks(wrong, c.dims(), 3) != mod3


def test_k7_three_particles_against_gal_and_ranks_mod_2():
    g = F.complete_graph(7)
    c = chain_complex(build(subdivide_for(g, 3), 3))
    assert c.dims() == (3276, 13650, 17640, 6930)
    h = homology(c)
    assert (h.free_ranks, h.torsion) == ((1, 15, 350, 0),
                                         ((), (2,), (2,), ()))
    assert h.euler() == gal_euler(g, 3)
    assert (mod2_ranks.predicted_ranks(h, c.dims(), 2)
            == mod2_ranks.ranks_mod2(c))
