"""Ranks of boundary maps over F_2 and F_3, by eliminations of their own.

A referee for the torsion that :mod:`braidscope.homology` reports.  Over
a field the invariant factors of an integer matrix that the field's
characteristic divides become zero and the others become units, so the
rank of d_d over F_2 is the number of its odd invariant factors
(universal coefficients).  A homology summary fixes the rank over Q of
every d_d (top down: rank d_d = f_d - b_d - rank d_{d+1}) and, through
its torsion, how many of those factors are even; so it predicts every
rank mod 2 exactly, and a 2 missing from a torsion list shows as a rank
one too high.

The elimination shares nothing with the Smith sweep: each column is an
int bitset of its odd entries, reduced in the given column order by the
pivot columns keyed by their highest set bit, with no cancellation
across dimensions and no dense residue.  Keying by the highest bit
rather than the lowest keeps the fill low on boundary maps, whose rows
and columns share the cube order: on K_7 at n=3 the three maps take
0.15 s here against 11 s with lowest-bit pivots.

Mod 2 cannot tell a Z/2 from a Z + Z: a 2 turned into a 0 factor keeps
every rank mod 2, while the rank mod 3 drops by one.  So the same
elimination runs over F_3 too, on dict columns, and the prediction
takes the prime as an argument.
"""


def rank_mod2(columns) -> int:
    """Rank over F_2 of the matrix with these {row: entry} columns."""
    pivots = {}   # highest set bit -> reduced column with that highest bit
    for col in columns:
        v = 0
        for r, e in col.items():
            if e & 1:
                v |= 1 << r
        while v:
            top = v.bit_length()
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                break
            v ^= p
    return len(pivots)


def rank_mod3(columns) -> int:
    """Rank over F_3 of the matrix with these {row: entry} columns.

    The same elimination over dicts: each column, reduced mod 3, is
    reduced by the pivot columns keyed by their highest row, which are
    scaled so that entry is 1 (2 is its own inverse mod 3)."""
    pivots = {}   # highest row -> reduced column, 1 at that row
    for col in columns:
        v = {r: e % 3 for r, e in col.items() if e % 3}
        while v:
            top = max(v)
            p = pivots.get(top)
            if p is None:
                if v[top] == 2:
                    v = {r: 2 * e % 3 for r, e in v.items()}
                pivots[top] = v
                break
            f = v[top]
            for r, e in p.items():
                x = (v.get(r, 0) - f * e) % 3
                if x:
                    v[r] = x
                else:
                    del v[r]
    return len(pivots)


def predicted_ranks(summary, dims, p: int) -> tuple:
    """Rank over F_p of each d_d, d = 1..top, that a summary implies:
    its rank over Q less its invariant factors that p divides."""
    top = len(dims) - 1
    ranks = [0] * (top + 2)   # ranks[d]: rank of d_d over Q
    for d in range(top, 0, -1):
        ranks[d] = dims[d] - summary.free_ranks[d] - ranks[d + 1]
    if dims[0] - summary.free_ranks[0] != ranks[1]:
        raise ValueError("free ranks do not fit the f-vector")
    return tuple(ranks[d] - sum(1 for t in summary.torsion[d - 1] if t % p == 0)
                 for d in range(1, top + 1))


def ranks_mod2(c) -> tuple:
    """Rank over F_2 of each boundary map d_1..d_top of a chain complex."""
    return tuple(rank_mod2(c.columns[d]) for d in range(1, len(c.columns)))


def ranks_mod3(c) -> tuple:
    """Rank over F_3 of each boundary map d_1..d_top of a chain complex."""
    return tuple(rank_mod3(c.columns[d]) for d in range(1, len(c.columns)))
