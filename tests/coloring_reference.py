"""The special-coloring check as first written, and the mutants that test it.

``reference_special_coloring`` is ``hyperplanes.verify_special_coloring``
before its certificates: square classes from a union-find over the
1-cube keys, axiom 3 by scanning every configuration's edges and
axiom 4 by scanning every pair of moves at every configuration.  The
library's report (or the type of the exception it raises) must equal
this one on every complex, built or mutilated.

``targeted_mismatches`` builds one mutant per certificate of the
library's check and compares the two checks on each without
``assert``, so that it can run under ``python -O`` too.
"""

import itertools
import random
from collections import Counter

from braidscope import families as F
from braidscope.complex import CubeComplex, bits, build
from braidscope.errors import PreconditionError
from braidscope.hyperplanes import ColoringReport, verify_special_coloring


class UnionFind:
    """Disjoint sets over 0..size-1, each a singleton until joined; the
    reference's own, so that it shares no partition code with the
    library it checks."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]   # path halving
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def reference_classes(x):
    if x.dim() < 2 and x.n >= 2:
        raise PreconditionError("hyperplane walk needs the 2-skeleton")
    ends = x.index.ends
    keys = list(x.level(1))
    pos = {key: i for i, key in enumerate(keys)}
    uf = UnionFind(len(keys))
    for (m, s) in x.level(2):
        a = m & -m
        b = m ^ a
        uf.union(pos[a, s | ends[b][0]], pos[a, s | ends[b][1]])
        uf.union(pos[b, s | ends[a][0]], pos[b, s | ends[a][1]])
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(uf.find(i), []).append(key)
    return list(classes.values())


def reference_special_coloring(x):
    ix = x.index
    failures = []
    per_color = Counter()

    for members in reference_classes(x):
        color = members[0][0]
        per_color[ix.edge[color].id] += 1
        for (m, s) in members:
            a, b = s | ix.ends[m][0], s | ix.ends[m][1]
            if a ^ b != ix.emask[color]:
                failures.append((1, (ix.edge[color].id, ix.ids(a), ix.ids(b))))

    squares = x.level(2)
    for (m, s) in squares:
        a = m & -m
        if ix.emask[a] & ix.emask[m ^ a]:
            failures.append((2, (ix.edge[a].id, ix.edge[m ^ a].id, ix.ids(s))))

    # a mask-keyed 1-skeleton of its own; a missing end raises KeyError
    adjacency = {s: [] for (_, s) in x.levels[0]}
    for (m, s) in x.level(1):
        u, v = ix.ends[m]
        adjacency[s | u].append((m, s | v))
        adjacency[s | v].append((m, s | u))
    for conf, around in adjacency.items():
        seen = {}
        for (m, other) in around:
            if seen.get(m, other) != other:
                failures.append((3, (ix.ids(conf), ix.edge[m].id)))
            seen[m] = other

    for (_, conf) in x.levels[0]:
        for (a, ea), (b, eb) in itertools.combinations(ix.moves(conf), 2):
            if not ea & eb and (a | b, conf & ~(ea | eb)) not in squares:
                failures.append((4, (ix.ids(conf), ix.edge[a].id, ix.edge[b].id)))

    return ColoringReport(not failures, tuple(failures), per_color)


def outcome(check, x):
    """The report of check(x), or the type of the exception it raises."""
    try:
        return check(x)
    except Exception as exc:   # noqa: BLE001 - the type is the outcome
        return type(exc)


# -- mutants ---------------------------------------------------------------

def edited(x, drop=(), add=()) -> CubeComplex:
    """A copy of x without the keys `drop` and with the (level, key)
    pairs `add` appended, each level in its old order."""
    levels = [{k: None for k in level if k not in drop} for level in x.levels]
    for d, key in add:
        levels[d][key] = None
    return CubeComplex(x.graph, x.n, x.max_dim, tuple(levels), x.index)


def touching_square(x, rng=random):
    """Keys (level, key) of a square over two edges that share a vertex w,
    with its four sides and their ends, or () if the graph has no such
    pair.  The sides at w meet their own edge and end at n-1 vertices,
    so the square adds failures of axioms 1 and 2 without making the
    class search or the 1-skeleton raise."""
    ix = x.index
    pairs = [(a, b) for a, b in itertools.combinations(sorted(ix.ends), 2)
             if ix.emask[a] & ix.emask[b]]
    if not pairs or x.n < 2:
        return ()
    a, b = rng.choice(pairs)
    free = [v for v in bits(sum(ix.vname)) if not v & (ix.emask[a] | ix.emask[b])]
    if len(free) < x.n - 2:
        return ()
    s = sum(rng.sample(free, x.n - 2))
    sides = [(c, s | w) for c, other in ((a, b), (b, a)) for w in ix.ends[other]]
    ends = [(0, (0, t | w)) for c, t in sides for w in ix.ends[c]]
    return ((2, (a | b, s)),) + tuple((1, key) for key in sides) + tuple(ends)


def repeated_color(x, rng=random):
    """Keys (level, key) of a 1-cube (m, t|u) beside the cube (m, t), and
    of the configuration t|u|v it reaches, so that edge m = uv appears
    twice at t|u with two other ends (axiom 3); () if x has no 1-cube."""
    ones = list(x.level(1))
    if not ones:
        return ()
    m, t = rng.choice(ones)
    u, v = x.index.ends[m]
    if rng.random() < 0.5:
        u, v = v, u
    return ((1, (m, t | u)), (0, (0, t | u | v)))


def random_mutant(x, rng):
    """One seeded mutant of x of four kinds: a dropped cube at any level,
    one or two flipped stationary bits, a square over two touching edges,
    or a 1-cube whose stationary set meets its edge."""
    kind = rng.randrange(4)
    nonempty = [d for d, level in enumerate(x.levels) if level]
    if kind < 2 and nonempty:
        d = rng.choice(nonempty)
        m, s = key = rng.choice(list(x.levels[d]))
        if kind == 1:
            # one bit, or two so that the bit count may stay; the bit past
            # the vertex bits stands for no vertex
            for i in rng.sample(range(len(x.index.vname) + 1), rng.randint(1, 2)):
                s ^= 1 << i
        return edited(x, drop={key}, add=[(d, (m, s))] if kind == 1 else ())
    if kind == 2 and len(x.levels) > 2:
        add = touching_square(x, rng)
    else:
        add = repeated_color(x, rng)
    if add and rng.random() < 0.25:
        add = add[:1]   # without what keeps the search from raising
    return edited(x, add=[(d, k) for d, k in add if d < len(x.levels)])


# -- one mutant per certificate ---------------------------------------------

def _targeted():
    c4 = build(F.cycle_graph(4), 2)
    k4 = build(F.complete_graph(4), 2)
    first = next(iter(k4.level(2)))
    rng = random.Random(7)
    return {
        # axiom 4: the count of squares in U falls short
        "dropped square": ([4], edited(c4, drop={next(iter(c4.level(2)))})),
        # axiom 2: a square over touching edges takes a dropped one's
        # place; U's count must not take it for one of U (its sides end
        # at n-1 vertices, so the 0-cube check sends it to the scan too)
        "touching square": ([2, 4], edited(k4, drop={first},
                                           add=touching_square(k4, rng))),
        # axiom 3: a 1-cube meets its own edge
        "repeated color": ([3], edited(c4, add=repeated_color(c4, rng))),
    }


def targeted_mismatches() -> list:
    """Names of the targeted mutants on which the library's failed axioms
    differ from the reference's or miss the axiom the mutant breaks."""
    bad = []
    for name, (axioms, x) in _targeted().items():
        got = outcome(verify_special_coloring, x)
        want = outcome(reference_special_coloring, x)
        if (not isinstance(got, ColoringReport) or got != want
                or not set(axioms) <= set(got.failed_axioms())):
            bad.append(name)
    return bad
