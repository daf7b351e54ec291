"""Cyclic reduction as first written, the referee of the piled version.

``reference_cyclically_reduce`` scans the normal form pair by pair: the
first letter x that commutes with every letter before it, paired with
the last x^-1 that commutes with every letter after it, is stripped,
the rest is reduced again, and the scan starts over.  It shares only
``diagrams._piler(g).reduce`` (the normal form) with the library, and
decides commutation from ``Edge.touches``, not from the piler's
dependence sets.  ``diagrams.cyclically_reduce`` must return an equal
``SupportData``, conjugator included.
"""

from braidscope.diagrams import (
    Diagram, SupportData, _piler, check_legal, inverse_letter, replay,
)
from braidscope.errors import PreconditionError


def commute(g, a, b) -> bool:
    return not g.edge_by_id[a[0]].touches(g.edge_by_id[b[0]])


def _front_movable(g, letters, i: int) -> bool:
    return all(commute(g, letters[k], letters[i]) for k in range(i))


def _back_movable(g, letters, j: int) -> bool:
    return all(commute(g, letters[k], letters[j])
               for k in range(j + 1, len(letters)))


def reference_cyclically_reduce(d: Diagram) -> SupportData:
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
        base = replay(g, base, (x,))
        letters = _piler(g).reduce(letters[:i] + letters[i + 1:j] + letters[j + 1:])

    reduction = Diagram(g, base, letters, replay(g, base, letters))
    conj = check_legal(g, d.base, tuple(stripped))
    support = g.full_subgraph({eid for (eid, _) in letters})
    particles = frozenset(base) & support.vertices
    return SupportData(reduction, conj, support, particles)


def pairwise_dep(g) -> dict:
    """edge id -> ids of the edges it touches (itself included)."""
    return {a.id: {b.id for b in g.edges if a.touches(b)} for a in g.edges}
