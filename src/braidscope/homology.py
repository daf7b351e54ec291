"""Integer cellular homology of configuration-space complexes.

Boundary maps follow the tensor convention: order a cube's moving edges
by id, give each edge its stored orientation, and sign the two facets
of the i-th edge by (-1)^(i-1) (target end positive).  With that fixed,
d o d = 0 is a unit test rather than a convention discussion.

Each boundary map is stored once, column by column: the column of a
d-cube is a dict {(d-1)-cube index: +-1}, built straight from the
bitmask facets.  The sorted d-cube keys come grouped by moving-edge mask
m, and the cubes of one group share their facet pattern: for each bit b
of m, the (d-1)-cubes with moving edges m ^ b, the ends (u, v) of b and
the sign.  So each group gets one template, and a cube (m, s) reads its
2d rows from the per-mask row tables at s | v and s | u.  The d o d
check and the Smith form read that one form; the (row, col) dict view
is built only on request.

The d o d check composes each column of d_d with d_{d-1}.  While every
entry it meets is +-1, so is every term, and the column composes to
zero exactly when the sorted rows of its +1 terms equal those of its -1
terms; a column that meets any other entry is summed row by row, so the
check stays exact on any integer columns (:func:`verify_dd_zero`).

Smith normal form runs sparsely: unit pivots are eliminated first
(boundary matrices are +-1 filled and collapse almost entirely), and
whatever dense residue remains is finished exactly over Python ints
with minimal-pivot selection, so torsion coefficients come out exact.
The sweep works on the transpose, whose rows are the stored columns:
Smith(A^T) = Smith(A), since P A Q = D gives Q^T A^T P^T = D^T.  Unit
entries alone in their row are taken first, from a worklist: in d_d
such a row is a free face, a (d-1)-cell that bounds just one d-cell.
Each is an ordinary unit pivot, so it contributes an invariant 1 and
leaves the other invariants to the rest of the matrix, as any unit
pivot does.  It is also free: its row has nothing else to clear, and
clearing its column with that row changes no other entry, so the row
and the column just go.  No fill arises, and the free-face pass only
reads and drops the stored column dicts; only the rows that survive it
are copied.  The other unit pivots come from a lazy queue of working
rows keyed by length: the shortest row pivots on its unit entry with the
fewest working rows, and a row goes back into the queue whenever an
elimination changes it.  Free faces that an elimination uncovers are
taken before the next row leaves the queue.  Rows with no unit entry
wait, and what is left at the end is the dense residue.  Any sequence
of unit pivots gives the same invariants, so the order only sets the
cost.

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

from functools import cached_property
from math import comb, gcd
from typing import NamedTuple

from .complex import CubeComplex, bits
from .errors import InvariantError, PreconditionError, ResourceLimitError
from .graph import Frozen, Graph

DEFAULT_COLUMN_CAP = 20000


class ChainComplex(Frozen):
    """Ordered cube bases with integer boundary matrices, column by column.

    ``bases[d]`` is the tuple of d-cube keys, ascending.
    ``columns[d][j]`` is the boundary of the j-th d-cube: a dict from
    (d-1)-cube index to its nonzero entry, over the canonical cube
    orderings.  ``columns[0]`` is None.
    """

    def __init__(self, bases: tuple, columns: tuple):
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "columns", columns)

    def _key(self) -> tuple:
        return (self.bases, self.columns)

    def dims(self) -> tuple:
        return tuple(len(b) for b in self.bases)

    @cached_property
    def boundaries(self) -> tuple:
        """Per dimension d >= 1, d_d as a dict (row, col) -> entry.

        Built on first use.  Its one reader is the nonzero count of
        ``bench/tracer.py``; it goes with ROADMAP item 5."""
        return (None,) + tuple(
            {(r, j): v for j, col in enumerate(cols) for r, v in col.items()}
            for cols in self.columns[1:])


def chain_complex(x: CubeComplex) -> ChainComplex:
    if x.max_dim < x.n:
        raise PreconditionError("chain complex needs the full complex")
    ends = x.index.ends
    bases = tuple(tuple(sorted(level)) for level in x.levels)
    columns = [None]
    for d in range(1, len(bases)):
        rows = {}   # moving-edge mask -> {stationary mask: row index}
        for i, (m, s) in enumerate(bases[d - 1]):
            at = rows.get(m)
            if at is None:
                at = rows[m] = {}
            at[s] = i
        cols = []
        last = None
        # one facet template per moving-edge mask (module docstring); the
        # 2d facets of a cube are distinct cells: no entry is hit twice
        for m, s in bases[d]:
            if m != last:
                last = m
                template = []
                sign = 1
                for b in bits(m):
                    u, v = ends[b]
                    template.append((rows[m ^ b], v, u, sign, -sign))
                    sign = -sign
            col = {}
            for at, v, u, sign_v, sign_u in template:
                col[at[s | v]] = sign_v
                col[at[s | u]] = sign_u
            cols.append(col)
        columns.append(tuple(cols))
    out = ChainComplex(bases, tuple(columns))
    if not verify_dd_zero(out):
        raise InvariantError("boundary of a boundary is nonzero")
    return out


def verify_dd_zero(c: ChainComplex) -> bool:
    """Check d_{d-1} o d_d = 0, one column of d_d at a time.

    Column j of d_{d-1} o d_d is the sum, over the entries v of column j
    of d_d and the entries w of the lower column v stands in, of the
    terms v * w at rows r.  When every v and w is +-1, so is every term,
    and row r sums to zero exactly when it has as many +1 terms as -1
    terms.  So the column is zero exactly when the sorted rows of its
    +1 terms equal the sorted rows of its -1 terms, and the check
    compares those two lists.  A column that meets an entry other than
    +-1 is summed row by row instead, so the check is exact on any
    integer columns.
    """
    for d in range(2, len(c.columns)):
        lo = c.columns[d - 1]
        for col in c.columns[d]:
            plus = []
            minus = []
            for mid, v in col.items():
                if v == 1:
                    same, other = plus, minus
                elif v == -1:
                    same, other = minus, plus
                else:
                    break
                for r, w in lo[mid].items():
                    if w == 1:
                        same.append(r)
                    elif w == -1:
                        other.append(r)
                    else:
                        break
                else:
                    continue
                break   # the lower column holds an entry other than +-1
            else:
                plus.sort()
                minus.sort()
                if plus != minus:
                    return False
                continue
            # an entry other than +-1: sum the column row by row
            acc = {}
            for mid, v in col.items():
                for r, w in lo[mid].items():
                    acc[r] = acc.get(r, 0) + v * w
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


def swiatkowski_dims(m: Graph, n: int) -> tuple:
    """|C_i|, i = 0..n, of the weight-n reduced Świątkowski complex of
    `m` (:mod:`.swiatkowski`) in closed form, so that a caller can choose
    between it and the cube complex before building either: e_i(deg v - 1
    over the vertices with an edge) times Σ_t C(#isolated, t) times the
    number of monomials of degree n - i - t in the |E| edges."""
    sym = [1]   # elementary symmetric polynomials, up to degree n
    isolated = 0
    for v in m.vertices:
        k = m.degree(v) - 1
        if k < 0:
            isolated += 1
        elif k:
            sym = [a + k * b for a, b in zip(sym + [0], [0] + sym)][:n + 1]
    e = len(m.edges)

    def monomials(k):
        return comb(k + e - 1, k) if e else int(k == 0)

    return tuple((sym[i] if i < len(sym) else 0)
                 * sum(comb(isolated, t) * monomials(n - i - t)
                       for t in range(min(isolated, n - i) + 1))
                 for i in range(n + 1))


def configuration_components(m: Graph, n: int) -> int:
    """The number of path components of UConf_n(m) in closed form.  The
    configurations of a component with an edge are connected for any
    number of particles, and an isolated vertex holds at most one; so
    with i isolated vertices and c components that have an edge this is
    Σ_t C(i, t) C(n - t + c - 1, c - 1), where t particles sit on
    isolated vertices (only t = n when c = 0)."""
    isolated = sum(1 for v in m.vertices if not m.degree(v))
    c = len(m.components()) - isolated
    if not c:
        return comb(isolated, n)
    return sum(comb(isolated, t) * comb(n - t + c - 1, c - 1)
               for t in range(min(isolated, n) + 1))


def smith_invariants(columns, shape: tuple,
                     drop_cols=frozenset(), pivot_rows=None) -> list:
    """Invariant factors of a sparse integer matrix, divisibility-ordered.

    `columns[j]` is column j as a dict {row: entry}; `shape` is
    (row, col).  The sweep runs on the transpose, whose rows are these
    dicts (read, never changed; the rows left after the free faces are
    copied).  Unit entries alone in their row (free faces) go first,
    then the other unit pivots, shortest working row first, each on its
    unit entry in the fewest working rows; the dense leftover is finished
    with minimal-entry pivoting and the classic divisibility fix-up,
    which only the residue needs: the ones from the sweep divide
    everything.

    Columns in `drop_cols` are left out; `shape` still counts them.  For
    a boundary map d_d, leaving out the unit-pivot rows P of the sweep
    of d_{d+1} keeps the invariants: the pivots make the minor
    d_{d+1}[P, Q] unimodular, so the chains d_{d+1}(q) can replace the
    cells P in a basis of C_d, and d_d sends them to zero (details in
    the module docstring).  `pivot_rows`, if given, is a set that
    receives the row of every unit pivot, for the next map down.
    """
    # imported here: only Smith forms use heapq, and a top-level import
    # would add its start-up time and memory to every CLI run
    import heapq

    # transpose: a working row is a column of the matrix, a working
    # column (a key of `col`) is one of its rows, with the list of working
    # rows that hold it (short lists: a row goes in only where it is
    # absent).  Until the free faces are gone the rows are the caller's
    # dicts, only read and dropped.
    row = {}
    col = {}
    for j, entries in enumerate(columns):
        if entries and j not in drop_cols:
            row[j] = entries
            for i in entries:
                col.setdefault(i, []).append(j)
    pivots = []   # working columns, that is matrix rows, of unit pivots

    def free_faces(lone):
        # a unit alone in its working column: eliminating it only
        # deletes its working row, so no other entry changes
        while lone:
            i = lone.pop()
            js = col.get(i)
            if js is None or len(js) != 1:
                continue
            j, = js
            if row[j][i] not in (1, -1):
                continue
            del col[i]
            for c in row.pop(j):
                if c != i:
                    rest = col[c]
                    rest.remove(j)
                    if len(rest) == 1:
                        lone.append(c)
                    elif not rest:
                        del col[c]
            pivots.append(i)

    free_faces([i for i, js in col.items() if len(js) == 1])
    # the rows left are eliminated into: copy them, and only them
    for j, entries in row.items():
        row[j] = dict(entries)

    # the other unit pivots: shortest working row first (lazy heap of
    # (length, row), pushed again whenever an elimination changes a
    # row), on its unit entry with the fewest working rows; a row with
    # no unit entry waits for a change or goes to the dense residue
    heap = [(len(cells), r) for r, cells in row.items()]
    heapq.heapify(heap)
    while heap:
        length, r0 = heapq.heappop(heap)
        pivot_row = row.get(r0)
        if pivot_row is None or len(pivot_row) != length:
            continue
        c0 = None
        for c, v in pivot_row.items():
            if (v == 1 or v == -1) and (
                    c0 is None or len(col[c]) < len(col[c0])):
                c0 = c
        if c0 is None:
            continue
        # clear column c0 with row operations, then drop the pivot row;
        # with a unit pivot the implicit column sweep touches nothing else
        v0 = pivot_row.pop(c0)
        del row[r0]
        targets = col.pop(c0)
        targets.remove(r0)
        for c in pivot_row:
            col[c].remove(r0)
        for r in targets:
            cells = row[r]
            factor = cells.pop(c0) * v0   # v0 inverse equals v0
            for c, v in pivot_row.items():
                new = cells.get(c, 0) - factor * v
                if new:
                    if c not in cells:
                        col[c].append(r)
                    cells[c] = new
                else:
                    del cells[c]
                    col[c].remove(r)
            if cells:
                heapq.heappush(heap, (len(cells), r))
            else:
                del row[r]
        pivots.append(c0)
        lone = []
        for c in pivot_row:
            left = len(col[c])
            if left == 1:
                lone.append(c)
            elif not left:
                del col[c]
        free_faces(lone)
    ones = len(pivots)
    if pivot_rows is not None:
        pivot_rows.update(pivots)

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


class HomologySummary(NamedTuple):
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


def checked(h: HomologySummary, top: int, euler: int, components: int,
            model: str) -> HomologySummary:
    """`h` on degrees 0..top, padded with zero groups, after checking it
    against the counted cube complex: no group above its top dimension
    `top`, its Euler characteristic `euler`, and H_0 free of rank
    `components`, the number of path components, which checks d_1 where
    d o d reads nothing.  `model` names the answering complex in the
    messages."""
    if any(h.free_ranks[top + 1:]) or any(h.torsion[top + 1:]):
        raise InvariantError(
            f"{model} homology is nonzero above dimension {top}")
    pad = max(0, top + 1 - len(h.free_ranks))
    out = HomologySummary(h.free_ranks[:top + 1] + (0,) * pad,
                          h.torsion[:top + 1] + ((),) * pad)
    if out.euler() != euler:
        raise InvariantError(f"{model} homology has Euler characteristic "
                             f"{out.euler()}, the cube complex {euler}")
    if out.free_ranks[0] != components or out.torsion[0]:
        raise InvariantError(f"{model} homology has H_0 = {out.group(0)}, "
                             f"not Z^{components}, one Z per path component")
    return out


def homology(c: ChainComplex,
             column_cap: int = DEFAULT_COLUMN_CAP) -> HomologySummary:
    dims = c.dims()
    check_column_cap(dims, column_cap)
    top = len(dims) - 1
    # d_0 and d_{top+1} are zero maps, with no invariants
    invariants = [()] * (top + 2)
    # top down: each sweep's unit-pivot rows are columns the next can drop
    cancelled = frozenset()
    for d in range(top, 0, -1):
        shape = (dims[d - 1], dims[d])
        pivots = set()
        invariants[d] = smith_invariants(c.columns[d], shape,
                                         drop_cols=cancelled, pivot_rows=pivots)
        cancelled = pivots
    ranks = []
    torsion = []
    for d in range(top + 1):
        ranks.append(dims[d] - len(invariants[d]) - len(invariants[d + 1]))
        torsion.append(tuple(f for f in invariants[d + 1] if f > 1))
    return HomologySummary(tuple(ranks), tuple(torsion))
