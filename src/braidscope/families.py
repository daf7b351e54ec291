"""Deterministic constructors for the graph families used throughout.

Vertex labels are short and stable so reports and fixtures stay
readable; every constructor returns a normalized (simple) graph.
"""

from __future__ import annotations

import itertools

from .graph import Graph


def _arc(vs: list, es: list, start: str, length: int, vertex_prefix: str,
         edge_prefix: str, end: str = None) -> None:
    """Append to vs and es an arc of `length` edges ``{edge_prefix}1..``
    from `start` through fresh vertices ``{vertex_prefix}1..``, closing on
    `end` when it is given."""
    if end is not None and length < 1:
        raise ValueError("an arc between two vertices needs length >= 1")
    inner = [f"{vertex_prefix}{i}" for i in range(1, length + (end is None))]
    vs += inner
    chain = [start, *inner, end]   # without an end, chain[-1] is never read
    es += [(f"{edge_prefix}{i}", chain[i - 1], chain[i])
           for i in range(1, length + 1)]


def path_graph(length: int) -> Graph:
    """A segment with `length` edges."""
    vs = [str(i + 1) for i in range(length + 1)]
    es = [(f"e{i + 1}", vs[i], vs[i + 1]) for i in range(length)]
    return Graph.make(vs, es)


def cycle_graph(k: int) -> Graph:
    vs = [str(i + 1) for i in range(k)]
    es = [(f"e{i + 1}", vs[i], vs[(i + 1) % k]) for i in range(k)]
    return Graph.make(vs, es)


def star_graph(arms: int, arm_length: int = 1) -> Graph:
    vs = ["c"]
    es = []
    for a in range(1, arms + 1):
        _arc(vs, es, "c", arm_length, f"a{a}v", f"a{a}e")
    return Graph.make(vs, es)


def complete_graph(m: int) -> Graph:
    vs = [str(i + 1) for i in range(m)]
    es = [(f"e{u}_{v}", u, v) for u, v in itertools.combinations(vs, 2)]
    return Graph.make(vs, es)


def complete_bipartite(p: int, q: int) -> Graph:
    left = [f"a{i + 1}" for i in range(p)]
    right = [f"b{j + 1}" for j in range(q)]
    es = [(f"e{u}_{v}", u, v) for u in left for v in right]
    return Graph.make(left + right, es)


def rose_graph(petals: int, petal_length: int, rays: int = 0,
               ray_length: int = 1) -> Graph:
    """Cycles and rays glued along a single central vertex."""
    if petal_length < 3 and petals:
        raise ValueError("petals need length >= 3 to stay simple")
    vs = ["c"]
    es = []
    for p in range(1, petals + 1):
        _arc(vs, es, "c", petal_length, f"p{p}v", f"p{p}e", end="c")
    for r in range(1, rays + 1):
        _arc(vs, es, "c", ray_length, f"r{r}v", f"r{r}e")
    return Graph.make(vs, es)


def sun_graph(cycle_len: int, ray_vertices: tuple, ray_length: int = 1) -> Graph:
    """A cycle with a pendant ray at each listed position (1-based)."""
    g = cycle_graph(cycle_len)
    vs = list(g.vertices)
    es = [(e.id, e.u, e.v) for e in g.edges]
    for pos in ray_vertices:
        _arc(vs, es, str(pos), ray_length, f"s{pos}v", f"s{pos}e")
    return Graph.make(vs, es)


def theta_graph(a: int, b: int, c: int) -> Graph:
    """Two hubs joined by three internally disjoint arcs of given lengths."""
    if min(a, b, c) < 1 or sorted((a, b, c)).count(1) > 1:
        raise ValueError("arc lengths would create parallel edges")
    vs = ["u", "w"]
    es = []
    for name, length in (("a", a), ("b", b), ("c", c)):
        _arc(vs, es, "u", length, name, f"{name}e", end="w")
    return Graph.make(vs, es)


def h_graph(bridge_length: int = 1, arm_length: int = 1) -> Graph:
    """Two degree-3 vertices joined by a bridge, two pendant arms each."""
    vs = ["u", "w"]
    es = []
    _arc(vs, es, "u", bridge_length, "m", "me", end="w")
    for hub in ("u", "w"):
        for a in (1, 2):
            _arc(vs, es, hub, arm_length, f"{hub}{a}v", f"{hub}{a}e")
    return Graph.make(vs, es)


def two_bouquets(circles_a: int, circles_b: int, circle_len: int = 3,
                 bridge_length: int = 2) -> Graph:
    """Two bouquets of circles with centers joined by a segment."""
    vs = ["u", "w"]
    es = []
    for side, count in (("u", circles_a), ("w", circles_b)):
        for p in range(1, count + 1):
            _arc(vs, es, side, circle_len, f"{side}p{p}v", f"{side}p{p}e",
                 end=side)
    _arc(vs, es, "u", bridge_length, "br", "bre", end="w")
    return Graph.make(vs, es)


def square_with_two_cone_points() -> Graph:
    """A 4-cycle plus two extra vertices each joined to all its corners."""
    vs = ["c1", "c2", "c3", "c4", "x", "y"]
    es = [("s1", "c1", "c2"), ("s2", "c2", "c3"),
          ("s3", "c3", "c4"), ("s4", "c4", "c1")]
    for apex in ("x", "y"):
        for i in range(1, 5):
            es.append((f"{apex}{i}", apex, f"c{i}"))
    return Graph.make(vs, es)


def tripod_graph(n: int) -> tuple:
    """The swap fixture: spine of 2n-1 vertices plus a spike at its center.

    Returns ``(graph, spine, spike)`` with the spine listed left to
    right; position k of the motion recipe is ``spine[k + n - 1]``.
    """
    labels = [f"t{i}" for i in range(2 * n - 1)]
    vs = labels + ["p"]
    es = [(f"sp{i}", labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    es.append(("spike", labels[n - 1], "p"))
    return Graph.make(vs, es), labels, "p"
