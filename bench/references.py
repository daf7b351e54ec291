"""Reference values computed without braidscope.

Each function restates a published result or a theorem of the paper
in a few lines, so that a wrong answer from the program cannot also
make its own reference wrong.
"""

from __future__ import annotations

from math import comb, factorial

import networkx as nx

from graphs import GraphSpec


def gal_euler_characteristic(spec: GraphSpec, n: int) -> int:
    """chi(UConf_n) from Gal's generating function (Colloq. Math. 89, 2001):

        sum_n chi(UConf_n G) t^n = prod_v (1 + (1 - deg v) t) / (1 - t)^|E|.

    Read off the unsubdivided graph; it is a homotopy invariant, so it
    also holds for the discrete model after enough subdivision.
    """
    poly = [1]
    for d in spec.degrees():
        a = 1 - d
        poly = [(poly[i] if i < len(poly) else 0)
                + (a * poly[i - 1] if i >= 1 else 0)
                for i in range(len(poly) + 1)]
    e = len(spec.edges)

    def series(k):  # coefficient of t^k in (1 - t)^-e
        if e == 0:
            return 1 if k == 0 else 0
        return comb(k + e - 1, e - 1)

    return sum(poly[j] * series(n - j) for j in range(min(n, len(poly) - 1) + 1))


def star_h1_rank(k: int, n: int) -> int:
    """Rank of the free group B_n(star with k arms) (Ghrist):
    1 + (n(k-2) - k + 1) (n+k-2)! / (n! (k-1)!)."""
    return 1 + (n * (k - 2) - k + 1) * factorial(n + k - 2) // (
        factorial(n) * factorial(k - 1))


def assignment_count(n: int, k: int) -> int:
    """Ways to spread n identical particles over k components."""
    return comb(n + k - 1, k - 1)


def to_networkx(spec: GraphSpec) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(spec.order))
    g.add_edges_from(spec.edges)
    return g


def is_planar(spec: GraphSpec) -> bool:
    return nx.check_planarity(to_networkx(spec))[0]


def has_disjoint_cycles(spec: GraphSpec) -> bool:
    """Two vertex-disjoint cycles exist.

    Chordless cycles suffice: a cycle disjoint from another stays so
    when replaced by a chordless cycle on a subset of its vertices.
    """
    g = to_networkx(spec)
    for cyc in nx.chordless_cycles(g):
        rest = g.subgraph(set(g) - set(cyc))
        if not nx.is_forest(rest):
            return True
    return False


def _acyl(trivial: bool, cyclic: bool) -> str:
    if trivial:
        return "trivial"
    return "infinite_cyclic" if cyclic else "acylindrically_hyperbolic"


def complete_verdict(m: int, n: int) -> dict:
    """B_n(K_m) from the paper's per-n characterisations.

    K_1 and K_2 are segments, K_3 a cycle.  Two particles: hyperbolic
    iff no two disjoint cycles (two disjoint triangles need m >= 6);
    F2 x Z iff a cycle misses a subgraph with b1 >= 2 (a triangle and a
    K_4 need m >= 7).  Three: hyperbolic only on trees, suns, roses and
    pulsars (m <= 3); F2 x Z from a degree-4 vertex off a cycle (m >= 5).
    Four or more: hyperbolic only on roses, toral relatively hyperbolic
    only on roses and, at four, H-graphs, thetas and cycles with two
    rays, none of which K_m is for m >= 4.
    """
    trivial = n == 0 or m <= 2
    cyclic = m == 3 and n >= 1
    hyperbolic = n <= 1 or m <= 3 or (n == 2 and m <= 5)
    toral = (n <= 1 or m <= 3 or (n == 2 and m <= 6)
             or (n == 3 and m <= 4))
    return dict(trivial=trivial, infinite_cyclic=cyclic, hyperbolic=hyperbolic,
                toral_rel_hyp=toral, acyl_status=_acyl(trivial, cyclic))


def bipartite_verdict(p: int, q: int, n: int) -> dict:
    """B_n(K_{p,q}); s = min(p, q), t = max(p, q).

    K_{1,t} is a tree (a segment for t <= 2, a star otherwise), K_{2,2}
    a cycle and K_{2,t} a generalised theta (a pulsar).  Disjoint cycles
    need s >= 4; a 4-cycle whose complement keeps b1 >= 2 needs s >= 4
    and t >= 5.  Three particles: hyperbolic on pulsars, F2 x Z as soon
    as s >= 3.  Four: the theta K_{2,3} is on the toral list; five and
    more: only roses.
    """
    s, t = min(p, q), max(p, q)
    tree = s == 1
    trivial = n == 0 or (tree and (n == 1 or t <= 2))
    cyclic = ((s, t) == (2, 2) and n >= 1) or (tree and t == 3 and n == 2)
    hyperbolic = (n <= 1 or tree or (n == 2 and s <= 3) or (n == 3 and s <= 2)
                  or (s, t) == (2, 2))
    if n <= 1 or tree or (s, t) == (2, 2):
        toral = True
    elif n == 2:
        toral = not (s >= 4 and t >= 5)
    elif n == 3:
        toral = s <= 2
    elif n == 4:
        toral = (s, t) == (2, 3)
    else:
        toral = False
    return dict(trivial=trivial, infinite_cyclic=cyclic, hyperbolic=hyperbolic,
                toral_rel_hyp=toral, acyl_status=_acyl(trivial, cyclic))
