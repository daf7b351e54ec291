import types

import pytest

from braidscope import families as F
from braidscope.complex import build
from braidscope.errors import PreconditionError, ResourceLimitError
from braidscope.graph import subdivide_for
from braidscope.homology import (
    chain_complex, homology, smith_invariants, verify_dd_zero,
)


def entries_of(mat):
    return {(i, j): v for i, row in enumerate(mat)
            for j, v in enumerate(row) if v}


def test_smith_known_matrices():
    # gcds of minors pin the invariant factors: d1=2, d1*d2=4, product 624
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert smith_invariants(entries_of(m), (3, 3)) == [2, 2, 156]
    # identity and zero
    assert smith_invariants(entries_of([[1, 0], [0, 1]]), (2, 2)) == [1, 1]
    assert smith_invariants({}, (3, 4)) == []
    # classic torsion example: boundary of the projective plane square
    assert smith_invariants(entries_of([[2]]), (1, 1)) == [2]
    # divisibility chain is enforced
    out = smith_invariants(entries_of([[6, 0], [0, 4]]), (2, 2))
    assert out == [2, 12]


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
    import braidscope.homology as H
    assert isinstance(H, types.ModuleType)
    assert H.homology is homology
