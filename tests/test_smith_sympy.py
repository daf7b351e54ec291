"""Smith invariants against an independent implementation (sympy)."""

from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from braidscope.homology import smith_invariants

# entries mostly 0 and +-1, as in boundary maps, with some +-2 and +-3 so
# that non-unit pivots and a dense residue occur
SMALL_ENTRIES = st.sampled_from([0] * 6 + [1, -1] * 3 + [2, -2, 3, -3])


@st.composite
def small_integer_matrices(draw):
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return [[draw(SMALL_ENTRIES) for _ in range(cols)] for _ in range(rows)]


def assert_matches_sympy(m):
    columns = [{i: row[j] for i, row in enumerate(m) if row[j]}
               for j in range(len(m[0]))]
    expected = [abs(int(f)) for f in invariant_factors(Matrix(m), domain=ZZ)
                if f]
    assert smith_invariants(columns, (len(m), len(m[0]))) == expected


@settings(max_examples=400, deadline=None)
@given(small_integer_matrices())
def test_smith_matches_sympy(m):
    assert_matches_sympy(m)


# sparse and larger: most rows keep two or more entries after the free
# faces go, so the sweep's pivot queue, its fill and the free faces it
# uncovers between pivots all run
SPARSE_ENTRIES = st.sampled_from([0] * 10 + [1, -1] * 2 + [2, -2])


@st.composite
def sparse_integer_matrices(draw):
    rows, cols = draw(st.integers(8, 14)), draw(st.integers(8, 14))
    return [[draw(SPARSE_ENTRIES) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=60, deadline=None)
@given(sparse_integer_matrices())
def test_sparse_smith_matches_sympy(m):
    assert_matches_sympy(m)
