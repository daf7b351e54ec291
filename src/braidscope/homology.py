"""Integer cellular homology of configuration-space complexes.

Boundary maps follow the tensor convention: order a cube's moving edges
by id, give each edge its stored orientation, and sign the two facets
of the i-th edge by (-1)^(i-1) (target end positive).  With that fixed,
d o d = 0 is a unit test rather than a convention discussion.

Smith normal form runs sparsely: unit pivots are eliminated first
(boundary matrices are +-1 filled and collapse almost entirely), and
whatever dense residue remains is finished exactly over Python ints
with minimal-pivot selection, so torsion coefficients come out exact.

:func:`homology` sweeps from the top dimension down and cancels unit
pairs across dimensions, as coreduction does (Mrozek & Batko,
"Coreduction homology algorithm", DCG 41, 2009).  Say the sweep of
d_{d+1} pivots on the d-cells P with the (d+1)-cells Q.  Up to sign,
the determinant of the minor d_{d+1}[P, Q] is the product of the
pivots, so it is +-1, and replacing the basis vectors e_p (p in P) of
C_d by the chains d_{d+1}(q) (q in Q) is a unimodular change of basis
(the Gaussian-elimination lemma).  In the new basis d_d is zero on the
chains d_{d+1}(q), since d_d o d_{d+1} = 0, and unchanged on the other
d-cells.  So d_d has the Smith invariants of its submatrix without the
columns P, and the sweep of d_d starts from that submatrix.  Only unit
pivots are handed down; the dense residue's rows stay in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .complex import CubeComplex, bits
from .errors import InvariantError, PreconditionError, ResourceLimitError

DEFAULT_COLUMN_CAP = 20000


@dataclass(frozen=True)
class ChainComplex:
    """Ordered cube bases with integer boundary matrices.

    ``boundaries[d]`` maps d-chains to (d-1)-chains, stored sparsely as
    a dict (row, col) -> entry over the canonical cube orderings.
    """

    bases: tuple        # per dimension: tuple of cube keys, ascending
    boundaries: tuple   # per dimension d >= 1: dict[(row, col)] = int

    def dims(self) -> tuple:
        return tuple(len(b) for b in self.bases)


def chain_complex(x: CubeComplex) -> ChainComplex:
    if x.max_dim < x.n:
        raise PreconditionError("chain complex needs the full complex")
    ends = x.index.ends
    bases = tuple(tuple(sorted(level)) for level in x.levels)
    boundaries = [None]
    for d in range(1, len(bases)):
        row = {k: i for i, k in enumerate(bases[d - 1])}
        entries = {}
        # the 2d facets of a cube are distinct cells: no entry is hit twice
        for col, (m, s) in enumerate(bases[d]):
            sign = 1
            for b in bits(m):
                u, v = ends[b]
                entries[(row[(m ^ b, s | v)], col)] = sign
                entries[(row[(m ^ b, s | u)], col)] = -sign
                sign = -sign
        boundaries.append(entries)
    out = ChainComplex(bases, tuple(boundaries))
    if not verify_dd_zero(out):
        raise InvariantError("boundary of a boundary is nonzero")
    return out


def verify_dd_zero(c: ChainComplex) -> bool:
    """Check d_{d-1} o d_d = 0 by sparse multiplication."""
    for d in range(2, len(c.bases)):
        lo = c.boundaries[d - 1]
        hi = c.boundaries[d]
        by_col = {}
        for (r, col), v in lo.items():
            by_col.setdefault(col, []).append((r, v))
        acc = {}
        for (mid, col), v in hi.items():
            for (r, w) in by_col.get(mid, ()):
                key = (r, col)
                acc[key] = acc.get(key, 0) + v * w
        if any(acc.values()):
            return False
    return True


def check_column_cap(f_vector, column_cap: int = DEFAULT_COLUMN_CAP) -> None:
    """Refuse a complex whose boundary matrices exceed the Smith-form cap.

    d_d has f_vector[d] columns; dimensions are checked in ascending
    order, so the message names the lowest dimension over the cap.
    """
    for cols_n in f_vector[1:]:
        if cols_n > column_cap:
            raise ResourceLimitError(
                f"{cols_n} columns exceed Smith-form cap {column_cap}")


def smith_invariants(entries: dict, shape: tuple,
                     column_cap: int = DEFAULT_COLUMN_CAP,
                     drop_cols=frozenset(), pivot_rows=None) -> list:
    """Invariant factors of a sparse integer matrix, divisibility-ordered.

    Unit pivots are swept first without arithmetic growth; the dense
    leftover is finished with minimal-entry pivoting and the classic
    divisibility fix-up, which only the residue needs: the ones from the
    sweep divide everything.

    Columns in `drop_cols` are left out; `shape` still counts them.  For
    a boundary map d_d, leaving out the unit-pivot rows P of the sweep
    of d_{d+1} keeps the invariants: the pivots make the minor
    d_{d+1}[P, Q] unimodular, so the chains d_{d+1}(q) can replace the
    cells P in a basis of C_d, and d_d sends them to zero (details in
    the module docstring).  `pivot_rows`, if given, is a set that
    receives the row of every unit pivot, for the next map down.
    """
    import heapq

    check_column_cap(shape, column_cap)   # (rows, cols): f-vector of one map
    row = {}
    col = {}
    for (r, c), v in entries.items():
        if v and c not in drop_cols:
            row.setdefault(r, {})[c] = v
            col.setdefault(c, set()).add(r)

    # unit pivots first, cheapest fill first (lazy Markowitz heap)
    def score(r, c):
        return (len(row[r]) - 1) * (len(col[c]) - 1)

    heap = [(score(r, c), r, c) for r, cells in row.items()
            for c, v in cells.items() if v in (1, -1)]
    heapq.heapify(heap)
    ones = 0
    while heap:
        s, r0, c0 = heapq.heappop(heap)
        v0 = row.get(r0, {}).get(c0)
        if v0 not in (1, -1):
            continue
        fresh = score(r0, c0)
        if fresh > s:
            heapq.heappush(heap, (fresh, r0, c0))
            continue
        # clear column c0 with row operations, then drop the pivot row;
        # with a unit pivot the implicit column sweep touches nothing else
        pivot_row = row.pop(r0)
        for c in pivot_row:
            col[c].discard(r0)
        for r in list(col.get(c0, ())):
            cells = row[r]
            factor = cells[c0] * v0  # v0 inverse equals v0
            for c, v in pivot_row.items():
                new = cells.get(c, 0) - factor * v
                if new:
                    cells[c] = new
                    col.setdefault(c, set()).add(r)
                    if new in (1, -1):
                        heapq.heappush(heap, (score(r, c), r, c))
                else:
                    if c in cells:
                        del cells[c]
                        col[c].discard(r)
            if not cells:
                del row[r]
        col.pop(c0, None)
        ones += 1
        if pivot_rows is not None:
            pivot_rows.add(r0)

    # dense residue
    dense_rows = sorted(row.keys())
    dense_cols = sorted({c for cells in row.values() for c in cells})
    if not dense_rows or not dense_cols:
        return [1] * ones
    rmap = {r: i for i, r in enumerate(dense_rows)}
    cmap = {c: j for j, c in enumerate(dense_cols)}
    m = [[0] * len(dense_cols) for _ in dense_rows]
    for r, cells in row.items():
        for c, v in cells.items():
            m[rmap[r]][cmap[c]] = v
    return [1] * ones + _fix_divisibility(sorted(_dense_smith(m)))


def _dense_smith(m: list) -> list:
    """Diagonal entries of the Smith form of a dense matrix (consumed)."""
    out = []
    while m and m[0]:
        pivot = None
        best = None
        for i, rr in enumerate(m):
            for j, v in enumerate(rr):
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[0], m[pi] = m[pi], m[0]
        if pj:
            for rr in m:
                rr[0], rr[pj] = rr[pj], rr[0]
        while True:
            p = m[0][0]
            restart = False
            for i in range(1, len(m)):
                if m[i][0]:
                    q = m[i][0] // p
                    if q:
                        mi, m0 = m[i], m[0]
                        for j in range(len(mi)):
                            mi[j] -= q * m0[j]
                    if m[i][0]:
                        # smaller remainder becomes the new pivot
                        m[0], m[i] = m[i], m[0]
                        restart = True
                        break
            if restart:
                continue
            for j in range(1, len(m[0])):
                if m[0][j]:
                    q = m[0][j] // p
                    if q:
                        for i in range(len(m)):
                            m[i][j] -= q * m[i][0]
                    if m[0][j]:
                        for i in range(len(m)):
                            m[i][0], m[i][j] = m[i][j], m[i][0]
                        restart = True
                        break
            if not restart:
                break
        out.append(abs(m[0][0]))
        m = [rr[1:] for rr in m[1:]]
    return out


def _fix_divisibility(factors: list) -> list:
    fs = [f for f in factors if f]
    changed = True
    while changed:
        changed = False
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                if fs[j] % fs[i]:
                    g = gcd(fs[i], fs[j])
                    l = fs[i] * fs[j] // g
                    fs[i], fs[j] = g, l
                    changed = True
        fs.sort()
    return fs


@dataclass(frozen=True)
class HomologySummary:
    free_ranks: tuple
    torsion: tuple     # per dimension: tuple of coefficients > 1

    def group(self, d: int) -> str:
        if d >= len(self.free_ranks):
            return "0"
        parts = []
        r = self.free_ranks[d]
        if r == 1:
            parts.append("Z")
        elif r > 1:
            parts.append(f"Z^{r}")
        parts += [f"Z/{t}" for t in self.torsion[d]]
        return " + ".join(parts) if parts else "0"

    def euler(self) -> int:
        return sum((-1) ** d * r for d, r in enumerate(self.free_ranks))


def homology(c: ChainComplex,
             column_cap: int = DEFAULT_COLUMN_CAP) -> HomologySummary:
    dims = c.dims()
    check_column_cap(dims, column_cap)
    top = len(dims) - 1
    invariants = [None] * (top + 2)
    # top down: each sweep's unit-pivot rows are columns the next can drop
    cancelled = frozenset()
    for d in range(top, 0, -1):
        shape = (dims[d - 1], dims[d])
        pivots = set()
        invariants[d] = smith_invariants(c.boundaries[d], shape, column_cap,
                                         drop_cols=cancelled, pivot_rows=pivots)
        cancelled = pivots
    ranks = []
    torsion = []
    for d in range(top + 1):
        rank_in = len(invariants[d]) if d >= 1 else 0
        rank_out = len(invariants[d + 1]) if d + 1 <= top else 0
        free = dims[d] - rank_in - rank_out
        tor = tuple(f for f in (invariants[d + 1] or ())
                    if f > 1) if d + 1 <= top else ()
        ranks.append(free)
        torsion.append(tor)
    return HomologySummary(tuple(ranks), tuple(torsion))
