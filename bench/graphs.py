"""Graphs the benchmark feeds to the CLI, built here rather than taken
from ``braidscope.families`` (whose ids, such as ``e1_2``, the CLI's
graph-file parser rejects).

A graph is a fixed structure on vertices ``0..order-1``.  The seed only
draws the ids written to the file and the order of its lines: ids are
random alphanumeric strings of one length, handed out in sorted order,
so the program's canonical order (length, then text) is the same for
every seed and every seed asks for exactly the same work.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass

ID_ALPHABET = string.ascii_lowercase + string.digits
VERTEX_ID_LEN = 4
EDGE_ID_LEN = 4   # derived ids such as "<edge>#s1" are 7 long, so never
                  # interleave with vertex ids under the (length, text) order


@dataclass(frozen=True)
class GraphSpec:
    """A named simple graph plus the family facts the checks read."""

    name: str
    order: int
    edges: tuple            # pairs of vertex indices
    family: tuple = ()      # ("complete", m), ("bipartite", p, q),
                            # ("star", k), ("rose", petals), or ()

    def degrees(self) -> list:
        deg = [0] * self.order
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def components(self) -> int:
        parent = list(range(self.order))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            parent[find(u)] = find(v)
        return len({find(x) for x in range(self.order)})


def complete(m: int) -> GraphSpec:
    return GraphSpec(f"K{m}", m, tuple(itertools.combinations(range(m), 2)),
                     ("complete", m))


def bipartite(p: int, q: int) -> GraphSpec:
    edges = tuple((i, p + j) for i in range(p) for j in range(q))
    return GraphSpec(f"K{p}x{q}", p + q, edges, ("bipartite", p, q))


def star(k: int) -> GraphSpec:
    return GraphSpec(f"star{k}", k + 1, tuple((0, i) for i in range(1, k + 1)),
                     ("star", k))


def rose(petals: int, rays: int = 0) -> GraphSpec:
    """Triangular petals and single-edge rays on the hub vertex 0."""
    edges = []
    nxt = 1
    for _ in range(petals):
        a, b = nxt, nxt + 1
        edges += [(0, a), (a, b), (b, 0)]
        nxt += 2
    for _ in range(rays):
        edges.append((0, nxt))
        nxt += 1
    return GraphSpec(f"rose{petals}r{rays}", nxt, tuple(edges),
                     ("rose", petals))


def theta(a: int, b: int, c: int) -> GraphSpec:
    """Hubs 0 and 1 joined by three arcs of the given edge lengths."""
    edges = []
    nxt = 2
    for length in (a, b, c):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return GraphSpec(f"theta{a}{b}{c}", nxt, tuple(edges))


def petersen() -> GraphSpec:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return GraphSpec("petersen", 10, tuple(outer + inner + spokes))


def sun() -> GraphSpec:
    """A 4-cycle with a ray of length 1 and a ray of length 2."""
    return GraphSpec("sun", 7, ((0, 1), (1, 2), (2, 3), (3, 0),
                                (0, 4), (2, 5), (5, 6)))


def tree() -> GraphSpec:
    """A tree with three essential vertices."""
    return GraphSpec("tree", 9, ((0, 1), (0, 2), (0, 3), (3, 4), (3, 5),
                                 (5, 6), (5, 7), (1, 8)))


def union(name: str, parts) -> GraphSpec:
    """Disjoint union, vertices renumbered part by part."""
    edges = []
    base = 0
    for part in parts:
        edges += [(u + base, v + base) for u, v in part.edges]
        base += part.order
    return GraphSpec(name, base, tuple(edges))


def _sorted_ids(rng: random.Random, count: int, length: int) -> list:
    ids = set()
    while len(ids) < count:
        ids.add(rng.choice(string.ascii_lowercase)
                + "".join(rng.choice(ID_ALPHABET) for _ in range(length - 1)))
    return sorted(ids)


def graph_text(spec: GraphSpec, seed: int) -> str:
    """The graph file for one seed: ``v`` and ``e`` lines, shuffled."""
    rng = random.Random(f"{seed}:{spec.name}")
    vid = _sorted_ids(rng, spec.order, VERTEX_ID_LEN)
    eid = _sorted_ids(rng, len(spec.edges), EDGE_ID_LEN)
    lines = [f"v {v}" for v in vid]
    lines += [f"e {e} {vid[u]} {vid[v]}" for e, (u, v) in zip(eid, spec.edges)]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"
