"""Cube labels decoded by bit position, without :class:`BitIndex`.

A referee for ``BitIndex.label`` and a helper for the tests that read a
complex by ids.  Bit i of a vertex mask stands for ``g.vertices[i]`` and
bit i of an edge mask for ``g.edges[i]``, so every tuple here lists its
ids in the graph's own order.  A label is the pair (moving edge ids,
stationary vertex ids).
"""

from braidscope.complex import CubeComplex
from braidscope.graph import connected_components


def ids(g, conf: int) -> tuple:
    """The vertex ids of a vertex mask."""
    return tuple(v for i, v in enumerate(g.vertices) if conf >> i & 1)


def moving(g, m: int) -> tuple:
    """The Edge objects of an edge mask."""
    return tuple(e for i, e in enumerate(g.edges) if m >> i & 1)


def label(g, key: tuple) -> tuple:
    m, s = key
    return (tuple(e.id for e in moving(g, m)), ids(g, s))


def mask(g, vertex_ids) -> int:
    return sum(1 << i for i, v in enumerate(g.vertices) if v in vertex_ids)


def key(g, lab: tuple) -> tuple:
    """The cube key of a label."""
    return (sum(1 << i for i, e in enumerate(g.edges) if e.id in lab[0]),
            mask(g, lab[1]))


def configuration_ids(x) -> list:
    return [ids(x.graph, s) for (_, s) in x.level(0)]


def facets(g, lab: tuple) -> list:
    """The 2d facet labels of a cube label: per moving edge in order, the
    one that leaves its particle at the u end, then at the v end."""
    edges = [g.edge_by_id[eid] for eid in lab[0]]
    out = []
    for e in edges:
        rest = tuple(f.id for f in edges if f is not e)
        for end in (e.u, e.v):
            out.append((rest, tuple(v for v in g.vertices
                                    if v in lab[1] or v == end)))
    return out


def skeleton(x) -> dict:
    """The positional ``x.skeleton`` decoded by mask: configuration mask
    -> list of (edge bit, other configuration mask), in 1-cube order."""
    confs = [s for (_, s) in x.level(0)]
    nbrs, moves = x.skeleton
    return {conf: [(m, confs[j]) for m, j in zip(ms, around)]
            for conf, around, ms in zip(confs, nbrs, moves)}


def component_numbers(x) -> dict:
    """Configuration ids -> number of its 1-skeleton component, the
    components numbered in the order of their first configuration."""
    adj = {conf: [b for _, b in around] for conf, around in skeleton(x).items()}
    return {ids(x.graph, conf): i
            for i, comp in enumerate(connected_components(adj, adj))
            for conf in comp}


def neighbours(g, v) -> tuple:
    """The neighbour ids of v, in the order of ``g.adjacency``."""
    return tuple(g.adjacency[v])


def edge_between(g, a, b) -> str:
    """The id of the edge that ``g.adjacency`` gives for a and b."""
    return g.adjacency[a][b].id


def without(x, gone: tuple) -> CubeComplex:
    """A copy of x with the cube key `gone` dropped (a mutant)."""
    levels = tuple({k: None for k in level if k != gone} for level in x.levels)
    return CubeComplex(x.graph, x.n, x.max_dim, levels, x.index)
