"""Cycle enumeration as it was before the cycles filled lazily, the
referee of ``graph.simple_cycles``.

``reference_cycles`` runs one unbounded search over the pruned 2-core,
collects every cycle, checks the cap as it goes, and sorts the whole set
once.  ``simple_cycles(g)`` must equal its tuple element by element.
"""

from braidscope.errors import ResourceLimitError
from braidscope.graph import Cycle


def reference_cycles(g, cap: int) -> tuple:
    order = {v: i for i, v in enumerate(g.vertices)}
    eid = {a: {b: e.id for b, e in nb.items()}
           for a, nb in g.simple_adjacency.items()}
    # neighbour sets as dicts, which keep the canonical adjacency order
    live = {v: dict.fromkeys(nb) for v, nb in g.adjacency.items()}

    def drop(v):   # delete v, then every vertex left with < 2 neighbours
        stack = [v]
        while stack:
            x = stack.pop()
            if x in live:
                for y in live.pop(x):
                    del live[y][x]
                    if len(live[y]) < 2:
                        stack.append(y)

    for v in g.vertices:
        if v in live and len(live[v]) < 2:
            drop(v)
    found = []
    for start in g.vertices:
        if start not in live:
            continue
        # live holds the 2-core of g minus the earlier roots
        path = [start]
        on_path = {start}
        pending = [iter(live[start])]   # unexplored neighbours per path vertex
        while pending:
            for y in pending[-1]:
                if y == start:
                    # canonical direction: second vertex below last vertex
                    if len(path) >= 3 and order[path[1]] < order[path[-1]]:
                        found.append(Cycle(tuple(path), tuple(
                            [eid[a][b] for a, b in zip(path, path[1:] + path[:1])])))
                        if len(found) > cap:
                            raise ResourceLimitError(
                                f"cycle count exceeds cap {cap}")
                elif y not in on_path:
                    path.append(y)
                    on_path.add(y)
                    pending.append(iter(live[y]))
                    break
            else:
                pending.pop()
                on_path.remove(path.pop())
        drop(start)
    # each cycle's ids sorted by position, which is idkey order, then
    # compared as strings: the order of the key (len, sorted(ids,
    # key=idkey), vertices) with no idkey call
    at = order.__getitem__
    found.sort(key=lambda c: (
        len(c.vertices), tuple(sorted(c.vertices, key=at)), c.vertices))
    return tuple(found)


def _expect(ok: bool, what: str) -> None:
    # raised by hand, so the check holds under python -O too
    if not ok:
        raise AssertionError(what)


def check_lazy_cycles(g, stop: int, k: int, lo: int, hi: int) -> None:
    """``simple_cycles(g)`` read as the scans read it, against the referee.

    Two iterators take turns; one stops after `stop` cycles and the other
    runs to the end.  Then ``len``, ``[k]``, ``[-1]``, a slice and ``==``
    drain the sequence, and every answer must be the referee's."""
    from braidscope.graph import DEFAULT_CYCLE_CAP, simple_cycles

    ref = reference_cycles(g, DEFAULT_CYCLE_CAP)
    cycles = simple_cycles(g)
    k %= max(1, len(ref))
    if k % 2:   # an index read fills before the iterators start
        _expect(cycles[k] == ref[k], "[k] before a drain")
    early, late = iter(cycles), iter(cycles)
    read_early, read_late = [], []
    for _ in range(stop):
        read_early += [next(early, None)]
        read_late += [next(late, None)]
    read_late = [c for c in read_late if c is not None] + list(late)
    _expect(read_early == list(ref[:stop]) + [None] * (stop - len(ref)),
            "the iterator that stops early")
    _expect(read_late == list(ref), "the iterator that runs to the end")
    _expect(len(cycles) == len(ref), "len")
    if ref:
        _expect(cycles[k] == ref[k] and cycles[-1] == ref[-1], "[k] and [-1]")
    _expect(cycles[lo:hi] == ref[lo:hi], "slice")
    _expect(cycles == ref and list(cycles) == list(ref), "==")
    _expect(simple_cycles(g) is cycles, "memo")
