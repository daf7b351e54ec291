"""``table``: the classification grid over a graph family and a range of
particle counts."""

from __future__ import annotations

from ..errors import ParseError, PreconditionError, ResourceLimitError

MAX_PARTICLE_COUNTS = 100   # per `table` run; each count is one row per graph
MAX_FAMILY_SIZE = 32        # largest `table --max`, checked before any graph


def run(args, g) -> dict:
    """One row per family graph and particle count: the main assignment's
    verdicts, all but contains_f2 and contains_f2xz."""
    from ..classifier import full_report
    ns = parse_particle_range(args.particles)
    if args.max > MAX_FAMILY_SIZE:
        raise ResourceLimitError(
            f"--max {args.max} exceeds cap {MAX_FAMILY_SIZE}")
    if args.min < 1:
        raise PreconditionError("--min must be >= 1")
    rows = []
    for name, member in _family_graphs(args):
        for n in ns:
            a = full_report(member, n, run_oracles="off").main
            rows.append(dict(zip(a._fields[2:-2], a[2:-2]), graph=name, n=n))
    return {"rows": rows}


def render(data: dict) -> str:
    lines = [f"{'graph':10s} {'n':>2s} {'trivial':7s} {'Z':5s} {'hyp':5s}"
             f" {'toralRH':7s} {'free':7s} acyl"]
    for r in data["rows"]:
        lines.append(f"{r['graph']:10s} {r['n']:2d} {str(r['trivial']):7s}"
                     f" {str(r['infinite_cyclic']):5s} {str(r['hyperbolic']):5s}"
                     f" {str(r['toral_rel_hyp']):7s} {r['free']:7s} {r['acyl_status']}")
    return "\n".join(lines)


def _family_graphs(args):
    from .. import families
    lo = args.min
    if args.family == "complete":
        for m in range(lo, args.max + 1):
            yield f"K_{m}", families.complete_graph(m)
    elif args.family == "bipartite":
        for p in range(lo, args.max + 1):
            for q in range(p, args.max + 1):
                yield f"K_{p},{q}", families.complete_bipartite(p, q)


def parse_particle_range(text: str) -> tuple:
    """The particle counts of ``N`` or ``A..B`` (empty when A > B)."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError as exc:
        raise ParseError(f"bad particle range {text!r}; want N or A..B") from exc
    if b - a + 1 > MAX_PARTICLE_COUNTS:
        raise ResourceLimitError(f"{b - a + 1} particle counts exceed cap "
                                 f"{MAX_PARTICLE_COUNTS}")
    return tuple(range(a, b + 1))
