"""Legal words, diagrams and the word problem for graph braid groups.

A letter is an oriented graph edge ``(edge id, +1/-1)``; a word is legal
from a base configuration when replaying it never moves a particle off
an empty vertex or onto an occupied one.  Words are identified up to
cancellation, insertion and commutation (letters commute when their
edges are vertex-disjoint), and every equivalence class owns one normal
form: the lexicographically least representative of the fully cancelled
word.  Reduction runs by piling (Wrathall's stack algorithm for
partially commutative groups), so it is linear in word length.

Two independent routes through the universal cover live here as well:
:func:`ball_oracle` walks normal forms, while :class:`CoverBall` glues
the cover out of squares without ever touching the reduction machinery,
which makes it the referee for reduction soundness tests.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import NamedTuple, Optional, Sequence

from .complex import CubeComplex, config_key
from .errors import (
    IllegalMoveError, InvariantError, PreconditionError, ResourceLimitError,
)
from .graph import Cycle, Frozen, Graph, Subgraph, UnionFind

MAX_BALL_RADIUS = 12
BALL_CAP = 2_000_000   # vertices of a ball_oracle or CoverBall ball

Letter = tuple  # (edge id, sign)


def inverse_letter(letter: Letter) -> Letter:
    return (letter[0], -letter[1])


def letters_commute(g: Graph, a: Letter, b: Letter) -> bool:
    return not g.edge_by_id[a[0]].touches(g.edge_by_id[b[0]])


def oriented_ends(g: Graph, letter: Letter) -> tuple:
    """(origin, target) of the letter's move."""
    e = g.edge_by_id[letter[0]]
    return (e.u, e.v) if letter[1] > 0 else (e.v, e.u)


def replay(g: Graph, base, letters) -> tuple:
    """Terminus of the word, raising IllegalMoveError on the first bad move."""
    occupied = set(base)
    for i, letter in enumerate(letters):
        if letter[0] not in g.edge_by_id:
            raise IllegalMoveError(i, "unknown edge")
        o, t = oriented_ends(g, letter)
        if o not in occupied:
            raise IllegalMoveError(i, "origin unoccupied")
        if t in occupied:
            raise IllegalMoveError(i, "target occupied")
        occupied.remove(o)
        occupied.add(t)
    return config_key(occupied)


class LegalWord(NamedTuple):
    graph: Graph
    base: tuple
    letters: tuple
    terminus: tuple

    def __len__(self):
        return len(self.letters)


def _checked_base(g: Graph, base, n: Optional[int] = None) -> tuple:
    """`base` as a config key: distinct vertices of g, n of them if n is given."""
    base = config_key(base)
    if len(set(base)) < len(base) or not set(base) <= set(g.vertices):
        raise PreconditionError(
            f"base {','.join(base)!r} is not a set of distinct vertices")
    if n is not None and len(base) != n:
        raise PreconditionError(
            f"base {','.join(base)!r} has {len(base)} vertices, not {n}")
    return base


def _checked_ball(x: CubeComplex, base, radius: int) -> tuple:
    """`base` checked for a ball of `radius` in the universal cover of x."""
    if not 0 <= radius <= MAX_BALL_RADIUS:
        raise PreconditionError(f"radius must lie in 0..{MAX_BALL_RADIUS}")
    if x.max_dim < min(x.n, 2):
        raise PreconditionError("a cover ball needs the complex's 2-skeleton")
    return _checked_base(x.graph, base, x.n)


def check_legal(g: Graph, base, letters) -> LegalWord:
    base = _checked_base(g, base)
    letters = tuple((str(e), int(s)) for e, s in letters)
    term = replay(g, base, letters)
    return LegalWord(g, base, letters, term)


class _Piler:
    """Wrathall piling for the trace group on edges with disjointness
    commutation; one per graph instance, kept in its memo."""

    def __init__(self, g: Graph):
        self.gens = tuple(e.id for e in g.edges)
        dep = {e.id: {e.id} for e in g.edges}
        for a, b in itertools.combinations(g.edges, 2):
            if a.touches(b):
                dep[a.id].add(b.id)
                dep[b.id].add(a.id)
        self.dep = dep

    def reduce(self, letters) -> tuple:
        piles = {gid: deque() for gid in self.gens}
        for (gid, eps) in letters:
            pile = piles[gid]
            if pile and pile[-1] == -eps:
                for j in self.dep[gid]:
                    piles[j].pop()
            else:
                pile.append(eps)
                for j in self.dep[gid]:
                    if j != gid:
                        piles[j].append(0)
        out = []
        remaining = sum(1 for gid in self.gens for x in piles[gid] if x != 0)
        while remaining:
            for gid in self.gens:  # gens sorted by id already
                pile = piles[gid]
                if pile and pile[0] != 0:
                    out.append((gid, pile[0]))
                    for j in self.dep[gid]:
                        piles[j].popleft()
                    remaining -= 1
                    break
            else:
                raise InvariantError("piling stuck; dependence data corrupt")
        return tuple(out)


def _piler(g: Graph) -> _Piler:
    piler = g._memo.get("piler")
    if piler is None:
        piler = g._memo["piler"] = _Piler(g)
    return piler


class Diagram(Frozen):
    """An equivalence class of legal words, held by its normal form.
    ``graph`` is left out of eq and hash."""

    def __init__(self, graph: Graph, base: tuple, letters: tuple,
                 terminus: tuple):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "terminus", terminus)

    def _key(self) -> tuple:
        return (self.base, self.letters, self.terminus)

    def __len__(self):
        return len(self.letters)

    def is_spherical(self) -> bool:
        return self.base == self.terminus

    def is_trivial(self) -> bool:
        return not self.letters

    def key(self) -> tuple:
        return (self.base, self.letters)


def reduce_word(w: LegalWord) -> Diagram:
    """Cancel across commuting letters and canonicalize."""
    normal = _piler(w.graph).reduce(w.letters)
    term = replay(w.graph, w.base, normal)
    if term != w.terminus:
        raise InvariantError("reduction changed the terminus")
    return Diagram(w.graph, w.base, normal, term)


def diagram(g: Graph, base, letters) -> Diagram:
    return reduce_word(check_legal(g, base, letters))


def empty_diagram(g: Graph, base) -> Diagram:
    base = config_key(base)
    return Diagram(g, base, (), base)


def concat(d1: Diagram, d2: Diagram) -> Diagram:
    if d1.graph is not d2.graph and d1.graph != d2.graph:
        raise PreconditionError("diagrams live on different graphs")
    if d1.terminus != d2.base:
        raise PreconditionError(
            f"terminus {d1.terminus} does not match base {d2.base}")
    return diagram(d1.graph, d1.base, d1.letters + d2.letters)


def inverse(d: Diagram) -> Diagram:
    back = tuple(inverse_letter(x) for x in reversed(d.letters))
    return diagram(d.graph, d.terminus, back)


def equal(d1: Diagram, d2: Diagram) -> bool:
    """Diagram equality = equality in the right-angled Artin group."""
    if d1.base != d2.base:
        raise PreconditionError("can only compare diagrams with one base")
    return d1.letters == d2.letters


class SupportData(NamedTuple):
    cyclic_reduction: Diagram
    conjugator: LegalWord
    support: Subgraph
    particles: frozenset

    def support_connected(self) -> bool:
        sg = self.support.as_graph()
        return len(sg.vertices) == 0 or sg.is_connected()


def _front_movable(g: Graph, letters, i: int) -> bool:
    return all(letters_commute(g, letters[k], letters[i]) for k in range(i))


def _back_movable(g: Graph, letters, j: int) -> bool:
    return all(letters_commute(g, letters[k], letters[j])
               for k in range(j + 1, len(letters)))


def cyclically_reduce(d: Diagram) -> SupportData:
    """Strip conjugating pairs until no representative is x ... x^-1.

    Returns a cyclically reduced conjugate (unique up to cyclic
    rotation, so support and particle data are canonical), the
    accumulated conjugator, the support subgraph and the moving
    particles.
    """
    if not d.is_spherical():
        raise PreconditionError("cyclic reduction needs a spherical diagram")
    g = d.graph
    base = d.base
    letters = d.letters
    stripped = []
    while True:
        found = None
        for i in range(len(letters)):
            if not _front_movable(g, letters, i):
                continue
            want = inverse_letter(letters[i])
            for j in range(len(letters) - 1, i, -1):
                if letters[j] == want and _back_movable(g, letters, j):
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        x = letters[i]
        stripped.append(x)
        new_base = replay(g, base, (x,))
        rest = letters[:i] + letters[i + 1:j] + letters[j + 1:]
        base = new_base
        letters = _piler(g).reduce(rest)

    reduction = Diagram(g, base, letters, replay(g, base, letters))
    conj = check_legal(g, d.base, tuple(stripped))
    support = g.full_subgraph({eid for (eid, _) in letters})
    particles = frozenset(base) & support.vertices
    return SupportData(reduction, conj, support, particles)


def cyclic_centralizer_witness(d: Diagram) -> bool:
    """Sufficient certificate that the centralizer of d is infinite cyclic:
    connected support moving all n particles."""
    if d.is_trivial():
        return False
    data = cyclically_reduce(d)
    if data.cyclic_reduction.is_trivial():
        return False
    return (data.support_connected()
            and len(data.particles) == len(d.base))


# -- witness elements ---------------------------------------------------

def make_rotation(g: Graph, cycle: Cycle, base) -> Diagram:
    """Advance all particles around the cycle until the base set returns."""
    base = config_key(base)
    k = len(cycle)
    pos_of = {v: i for i, v in enumerate(cycle.vertices)}
    if not set(base) <= set(cycle.vertices):
        raise PreconditionError("all particles must sit on the cycle")
    n = len(base)
    if k < n + 1:
        raise PreconditionError("rotation needs an empty slot on the cycle")

    def edge_letter(a: int) -> Letter:
        # move along the cycle from position a to a+1
        eid = cycle.edge_ids[a]
        e = g.edge_by_id[eid]
        src, dst = cycle.vertices[a], cycle.vertices[(a + 1) % k]
        return (eid, 1 if (e.u, e.v) == (src, dst) else -1)

    letters = []
    occupied = {pos_of[v] for v in base}
    target = frozenset(occupied)
    for _ in range(k):
        start = frozenset(occupied)
        holes = sorted(i for i in range(k) if i not in start)
        for h in holes:
            j = (h - 1) % k
            block = []
            while j in start:
                block.append(j)
                j = (j - 1) % k
            for pos in block:
                letters.append(edge_letter(pos))
                occupied.remove(pos)
                occupied.add((pos + 1) % k)
        if frozenset(occupied) == target:
            break
    out = diagram(g, base, letters)
    if not out.is_spherical():
        raise InvariantError("rotation did not close up")
    if len(out) != len(letters):
        raise InvariantError("rotation word unexpectedly reducible")
    return out


def make_tripod_swap(g: Graph, spine: Sequence[str], spike: str) -> Diagram:
    """The centralizer witness on a tripod: park the middle particle on
    the spike, slide the rest across, fetch it back to the far end and
    close up.  Spine has 2n-1 vertices; base is its left half."""
    spine = [str(v) for v in spine]
    if len(spine) % 2 != 1 or len(spine) < 3:
        raise PreconditionError("spine must have 2n-1 >= 3 vertices")
    n = (len(spine) + 1) // 2
    center = spine[n - 1]
    base = config_key(spine[:n])

    occupied = set(base)
    letters = []

    def slide(path):
        for a, b in zip(path, path[1:]):
            e = g.simple_adjacency[a].get(b)
            if e is None:
                raise PreconditionError(f"no edge between {a} and {b}")
            letters.append((e.id, 1 if (e.u, e.v) == (a, b) else -1))
            if a not in occupied or b in occupied:
                raise IllegalMoveError(len(letters) - 1, "tripod phase broke")
            occupied.remove(a)
            occupied.add(b)

    slide([center, spike])
    for k in range(1, n):                       # particle at -k goes to n-k
        slide(spine[(n - 1) - k:2 * n - k])
    slide([spike] + spine[n - 1::-1])           # spike particle to far left
    for k in range(1, n):                       # particle at +k goes back
        slide(spine[(n - 1) + k:k - 1:-1])

    if config_key(occupied) != base:
        raise InvariantError("tripod swap did not return to base")
    out = diagram(g, base, letters)
    if len(out) != len(letters):
        raise InvariantError("tripod word unexpectedly reducible")
    return out


# -- universal cover, two ways -------------------------------------------

def ball_oracle(x: CubeComplex, base, radius: int) -> dict:
    """All (base,*)-diagrams of length <= radius, keyed by normal form.

    Breadth-first over normal forms: distance in the cover equals
    diagram length, so layer k holds exactly the length-k diagrams.
    """
    g = x.graph
    base = _checked_ball(x, base, radius)
    start = empty_diagram(g, base)
    seen = {start.letters: start}
    layer = [start]
    for dist in range(radius):
        nxt = []
        for d in layer:
            for e in x.moves_at(d.terminus):
                occupied = set(d.terminus)
                sign = 1 if e.u in occupied else -1
                cand = _piler(g).reduce(d.letters + ((e.id, sign),))
                if len(cand) != dist + 1 or cand in seen:
                    continue
                nd = Diagram(g, base, cand, x.apply_move(d.terminus, e))
                seen[cand] = nd
                nxt.append(nd)
                if len(seen) > BALL_CAP:
                    raise ResourceLimitError("cover ball exceeds cap")
        layer = nxt
    return seen


class CoverBall:
    """A radius-r ball in the universal cover, built by gluing squares.

    Construction never consults word reduction: new vertices are
    candidate edge-ends identified through squares one layer at a time
    (in the CAT(0) 1-skeleton, geodesics between the same endpoints
    differ by square flips, so layerwise identification is complete).
    """

    def __init__(self, x: CubeComplex, base, radius: int):
        base = _checked_ball(x, base, radius)
        self.complex = x
        self.graph = x.graph
        self.radius = radius
        self.proj = []     # vertex -> configuration key
        self.dist = []
        self.edges = []    # vertex -> {edge id: (neighbor, sign from here)}
        self.root = self._new_vertex(base, 0)
        self._build()

    def _new_vertex(self, proj, dist) -> int:
        self.proj.append(proj)
        self.dist.append(dist)
        self.edges.append({})
        return len(self.proj) - 1

    def _build(self):
        x = self.complex
        g = self.graph
        layers = [[self.root]]
        for dist in range(self.radius):
            layer = layers[dist]
            candidates = []   # (vertex, edge id, sign, target proj)
            cand_index = {}
            for u in layer:
                conf = self.proj[u]
                occupied = set(conf)
                for e in x.moves_at(conf):
                    if e.id in self.edges[u]:
                        continue  # backtrack along an existing lift
                    sign = 1 if e.u in occupied else -1
                    cand_index[(u, e.id)] = len(candidates)
                    candidates.append((u, e.id, sign,
                                       x.apply_move(conf, e)))
            uf = UnionFind(len(candidates))
            if dist >= 1:
                for z in layers[dist - 1]:
                    ups = [(eid, nbr)
                           for eid, (nbr, _) in self.edges[z].items()
                           if self.dist[nbr] == dist]
                    for (ea, u), (eb, w) in itertools.combinations(ups, 2):
                        if g.edge_by_id[ea].touches(g.edge_by_id[eb]):
                            continue
                        ca = cand_index.get((u, eb))
                        cb = cand_index.get((w, ea))
                        if ca is None or cb is None:
                            raise InvariantError("square candidate missing")
                        uf.union(ca, cb)
            rep_vertex = {}
            for ci, (u, eid, sign, tproj) in enumerate(candidates):
                r = uf.find(ci)
                v = rep_vertex.get(r)
                if v is None:
                    v = self._new_vertex(tproj, dist + 1)
                    rep_vertex[r] = v
                    if len(self.proj) > BALL_CAP:
                        raise ResourceLimitError("cover ball exceeds cap")
                if self.proj[v] != tproj:
                    raise InvariantError("identified candidates disagree")
                if eid in self.edges[u] or eid in self.edges[v]:
                    raise InvariantError("duplicate color at a cover vertex")
                self.edges[u][eid] = (v, sign)
                self.edges[v][eid] = (u, -sign)
            nxt = sorted(set(rep_vertex.values()))
            if not nxt:
                break
            layers.append(nxt)

    def lift(self, letters) -> int:
        """End vertex of the lift of a word starting at the root."""
        cur = self.root
        for (eid, sign) in letters:
            hop = self.edges[cur].get(eid)
            if hop is None:
                raise PreconditionError(
                    "word leaves the built ball or is illegal")
            nbr, stored_sign = hop
            if stored_sign != sign:
                raise PreconditionError("orientation mismatch in lift")
            cur = nbr
        return cur

    def vertex_count(self) -> int:
        return len(self.proj)
