import math
import os
import subprocess
import sys
import types

import pytest

import braidscope
from braidscope import families as F
from braidscope.complex import build
from braidscope.errors import PreconditionError, ResourceLimitError
from braidscope.graph import subdivide_for
import braidscope.homology as H
from braidscope.homology import (
    check_column_cap, chain_complex, homology, smith_invariants,
    verify_dd_zero,
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
    # no unit is alone in its row: the heap pivots, then the dense
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


def boundaries_from_labels(x, c):
    """d_d as (row, col) -> entry, from the string cube labels and the
    sign rule of the module docstring, apart from the bitmask facets."""
    out = [None]
    for d in range(1, len(c.bases)):
        row = {k: i for i, k in enumerate(c.bases[d - 1])}
        entries = {}
        for col, key in enumerate(c.bases[d]):
            facets = x.index.cube(key).facets()   # (source, target) per edge
            for i in range(d):
                sign = (-1) ** i
                entries[row[x.index.encode(facets[2 * i + 1])], col] = sign
                entries[row[x.index.encode(facets[2 * i])], col] = -sign
        out.append(entries)
    return tuple(out)


@pytest.mark.parametrize("g,n", COLUMN_FIXTURES)
def test_boundary_view_matches_labels_and_counts(g, n):
    x, c = _complex(g, n)
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

    def leaky(columns, shape, column_cap=H.DEFAULT_COLUMN_CAP,
              drop_cols=frozenset(), pivot_rows=None):
        out = real(columns, shape, column_cap, drop_cols, pivot_rows)
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
