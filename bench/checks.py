"""Checks of one job's JSON output against the references.

``check(job, payload, bfs_hyperplanes)`` returns a list of failure
messages; an empty list means the output is right.  ``bfs_hyperplanes``
is the hyperplane count from square-parallelism classes, the second
route the program offers, computed by the caller outside the timed span.
"""

from __future__ import annotations

import references as R

VERDICT_KEYS = ("trivial", "infinite_cyclic", "hyperbolic", "toral_rel_hyp",
                "acyl_status")
SMALL_GRAPH_ORDER = 12   # disjoint-cycle search only on graphs this small


def _expect(failures: list, what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {got!r}, want {want!r}")


def _grid_verdict(family: tuple, n: int):
    if family and family[0] == "complete":
        return R.complete_verdict(family[1], n)
    if family and family[0] == "bipartite":
        return R.bipartite_verdict(family[1], family[2], n)
    return None


def check_homology(job, out: dict) -> list:
    spec, n = job.graph, job.n
    f = []
    chi = R.gal_euler_characteristic(spec, n)
    ranks, torsion = out["free_ranks"], out["torsion"]
    _expect(f, "euler characteristic (Gal)", out["euler_characteristic"], chi)
    _expect(f, "alternating rank sum", sum((-1) ** d * r for d, r in enumerate(ranks)), chi)
    _expect(f, "H_0", (ranks[0], torsion[0]), (1, []))
    if n >= 2:
        h1_torsion = torsion[1] if len(torsion) > 1 else []
        _expect(f, "2-torsion in H_1 iff non-planar (Ko-Park)",
                (bool(h1_torsion), set(h1_torsion) <= {2}),
                (not R.is_planar(spec), True))
    kind = spec.family[0] if spec.family else None
    if kind in ("star", "rose"):
        h1 = (R.star_h1_rank(spec.family[1], n) if kind == "star" else 1 - chi)
        _expect(f, f"{kind}: H_1 free of the formula rank, H_d=0 above",
                (ranks[1:], [list(t) for t in torsion]),
                ([h1] + [0] * (len(ranks) - 2), [[]] * len(torsion)))
    return f


def check_build(job, out: dict, bfs_hyperplanes: int) -> list:
    f = []
    _expect(f, "euler characteristic (Gal)", out["euler_characteristic"],
            R.gal_euler_characteristic(job.graph, job.n))
    _expect(f, "npc", out["npc"], True)
    _expect(f, "components", out["components"], 1)
    _expect(f, "hyperplanes = per-color sum",
            out["hyperplanes"], sum(out["hyperplanes_per_color"].values()))
    _expect(f, "hyperplanes = square-parallelism classes",
            out["hyperplanes"], bfs_hyperplanes)
    return f


def check_analyze(job, out: dict) -> list:
    spec, n = job.graph, job.n
    f = []
    k = spec.components()
    _expect(f, "particles", out["particles"], n)
    _expect(f, "connected", out["connected"], k == 1)
    rows = out["assignments"]
    _expect(f, "assignment count C(n+k-1, k-1)", len(rows), R.assignment_count(n, k))
    _expect(f, "distinct splits summing to n",
            len({tuple(r["split"]) for r in rows if sum(r["split"]) == n}), len(rows))
    for r in rows:
        if r["contains_f2xz"] and not r["contains_f2"]:
            f.append(f"split {r['split']}: F2xZ without F2")
        if r["hyperbolic"] and not r["toral_rel_hyp"]:
            f.append(f"split {r['split']}: hyperbolic but not toral rel. hyp.")
    if out["oracle"] == "oracles ran":
        _expect(f, "oracle agreement", out.get("oracle_agreement"),
                {"hyperbolic": True, "toral_rel_hyp": True})
    want = _grid_verdict(spec.family, n)
    if want is not None:
        _expect(f, "theorem grid", {key: rows[0][key] for key in VERDICT_KEYS}, want)
    if n == 2 and k == 1 and spec.order <= SMALL_GRAPH_ORDER:
        _expect(f, "n=2 hyperbolic iff no disjoint cycles",
                rows[0]["hyperbolic"], not R.has_disjoint_cycles(spec))
    return f


def check_table(job, out: dict) -> list:
    family, top, particles = job.table
    lo, hi = (int(x) for x in particles.split(".."))
    f = []
    if family == "complete":
        names = [(f"K_{m}", ("complete", m)) for m in range(1, top + 1)]
    else:
        names = [(f"K_{p},{q}", ("bipartite", p, q))
                 for p in range(1, top + 1) for q in range(p, top + 1)]
    want_rows = [(name, n) for name, _ in names for n in range(lo, hi + 1)]
    _expect(f, "table rows", [(r["graph"], r["n"]) for r in out["rows"]], want_rows)
    fam_of = dict(names)
    for r in out["rows"]:
        fam = fam_of.get(r["graph"])
        if fam is None:
            continue
        got = {key: r[key] for key in VERDICT_KEYS}
        _expect(f, f"{r['graph']} n={r['n']} theorem grid", got, _grid_verdict(fam, r["n"]))
    return f


def check(job, out: dict, bfs_hyperplanes=None) -> list:
    if out.get("schema") != 1:
        return [f"schema: got {out.get('schema')!r}"]
    if job.command == "homology":
        return check_homology(job, out)
    if job.command == "build":
        return check_build(job, out, bfs_hyperplanes)
    if job.command == "analyze":
        return check_analyze(job, out)
    return check_table(job, out)

