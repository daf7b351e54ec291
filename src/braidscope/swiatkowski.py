"""The reduced Świątkowski complex: H_*(UConf_n) with no subdivision.

J. Świątkowski's complex (Colloq. Math. 89, 2001), in the reduced form
of B. H. An, G. C. Drummond-Cole & B. Knudsen ("Subdivisional spaces
and graph braid groups", Doc. Math. 24, 2019, arXiv:1708.02351), is
Z[E] ⊗ ⊗_v S̃(v), bigraded by degree and weight; its weight-n part has
the integral homology of the unordered configuration space UConf_n of
the graph, loops and parallel edges included.  Its cells grow with the
vertices of degree other than two, not with the edge lengths that the
cube complex UC_n needs, so on the smoothed graph it is often much
smaller (the rose with three petals and two rays at n=4: 315 cells
against 45,883); on dense graphs at small n it is larger.

- Each edge has two half-edges; a loop puts both at its vertex.  At a
  vertex with half-edges h_0 < ... < h_{k-1} (by edge, a loop's twice),
  the generators are a_j = h_j - h_0 for j >= 1, of degree 1 and
  weight 1, with ∂a_j = e(h_j) - e(h_0) in Z[E]: 0 when both half-edges
  lie on one loop.  A vertex without half-edges has an occupied state
  instead, of degree 0 and weight 1.
- An edge monomial of degree k has weight k and degree 0.
- A cell of degree i is keyed ``(gens, occupied, monomial)``: the
  generator numbers of i distinct vertices, ascending (generators are
  numbered in vertex order), the positions of the occupied isolated
  vertices, ascending, and a monomial of degree n - i - len(occupied) as
  its ascending tuple of edge indices.  The cells of one ``(gens,
  occupied)`` group are consecutive in ``bases[i]``.
- ∂(a_1⋯a_i·μ) = Σ_k (-1)^(k-1) (∂a_k)·μ · a_1⋯â_k⋯a_i.

The cells of one (gens, occupied) group share their boundary pattern:
for each generator, the face group without it and the two edges of its
boundary.  So each group gets one template, and a cell with monomial μ
reads its rows from the tables that multiply a monomial by an edge.
"""

from __future__ import annotations

import itertools

from . import homology
from .errors import InvariantError
from .graph import Graph


def _half_edges(g: Graph) -> list:
    """Per vertex, in vertex order, the edge indices of its half-edges,
    ascending; a loop's index comes twice."""
    at = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        at[e.u].append(i)
        at[e.v].append(i)
    return list(at.values())


def reduced_complex(g: Graph, n: int) -> homology.ChainComplex:
    """The weight-n part of the reduced Świątkowski complex of `g`, in
    degrees 0..n, checked by ``homology.verify_dd_zero``."""
    gens = []    # per vertex with generators: its generator numbers
    ends = []    # generator number -> (e(h_j), e(h_0))
    isolated = []
    for v, hs in enumerate(_half_edges(g)):
        if not hs:
            isolated.append(v)
        elif len(hs) > 1:
            gens.append(range(len(ends), len(ends) + len(hs) - 1))
            ends += [(h, hs[0]) for h in hs[1:]]
    edges = range(len(g.edges))
    monos = [list(itertools.combinations_with_replacement(edges, k))
             for k in range(n + 1)]
    # times[k][b][x]: the index in monos[k + 1] of monos[k][x] times edge b
    times = []
    for k in range(n):
        where = {m: x for x, m in enumerate(monos[k])}
        table = [[0] * len(monos[k]) for _ in edges]
        for y, m in enumerate(monos[k + 1]):
            for p, b in enumerate(m):
                if not p or m[p - 1] != b:
                    table[b][where[m[:p] + m[p + 1:]]] = y
        times.append(table)

    bases = []
    columns = [None]
    starts = None   # (gens, occupied) -> its first cell in the degree below
    for i in range(n + 1):
        keys = []
        cols = []
        first = {}
        groups = [(gs, occ) for vs in itertools.combinations(gens, i)
                  for gs in itertools.product(*vs)
                  for t in range(min(len(isolated), n - i) + 1)
                  for occ in itertools.combinations(isolated, t)]
        for gs, occ in groups:
            k = n - i - len(occ)
            first[(gs, occ)] = len(keys)
            keys += [(gs, occ, m) for m in monos[k]]
            if not i:
                continue
            # one row pattern per group; μ·b1 gets +sign, μ·b0 -sign
            template = []
            sign = 1
            for p, a in enumerate(gs):
                b1, b0 = ends[a]
                if b1 != b0:
                    at = starts[(gs[:p] + gs[p + 1:], occ)]
                    template.append((at, times[k][b1], times[k][b0], sign))
                sign = -sign
            for x in range(len(monos[k])):
                col = {}
                for at, plus, minus, s in template:
                    col[at + plus[x]] = s
                    col[at + minus[x]] = -s
                cols.append(col)
        bases.append(tuple(keys))
        if i:
            columns.append(tuple(cols))
        starts = first
    out = homology.ChainComplex(tuple(bases), tuple(columns))
    if not homology.verify_dd_zero(out):
        raise InvariantError("boundary of a boundary is nonzero "
                             "in the Świątkowski complex")
    return out


def fitted(h: homology.HomologySummary, top: int, euler: int,
           components: int) -> homology.HomologySummary:
    """`h` on degrees 0..top, padded with zero groups, after checking it
    against the cube complex it stands in for: no group above `top`,
    Euler characteristic `euler`, and H_0 free of rank `components`
    (``homology.configuration_components``), which checks d_1 where
    d o d reads nothing."""
    if any(h.free_ranks[top + 1:]) or any(h.torsion[top + 1:]):
        raise InvariantError(
            f"Świątkowski homology is nonzero above dimension {top}")
    pad = max(0, top + 1 - len(h.free_ranks))
    out = homology.HomologySummary(h.free_ranks[:top + 1] + (0,) * pad,
                                   h.torsion[:top + 1] + ((),) * pad)
    if out.euler() != euler:
        raise InvariantError(f"Świątkowski homology has Euler characteristic "
                             f"{out.euler()}, the cube complex {euler}")
    homology.check_components(out, components, "Świątkowski")
    return out
