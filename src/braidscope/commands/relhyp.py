"""``relhyp-check``: a peripheral collection against the three conditions
of two-particle relative hyperbolicity."""

from __future__ import annotations

import sys

from ..errors import ParseError
from ..graph import Graph, Subgraph


def run(args, g) -> dict:
    from ..peripheral import check_peripheral_collection
    collection = parse_collection_text(g, read_collection(args.collection))
    rep = check_peripheral_collection(g, collection)
    return {
        "members": len(collection),
        "cycle_pairs_covered": rep.cycle_pairs_covered,
        "intersections_ok": rep.intersections_ok,
        "paths_ok": rep.paths_ok,
        "all_proper": rep.all_proper,
        "valid": rep.valid,
        "criterion_applies": rep.applies,
        "note": ("relatively hyperbolic by the peripheral criterion"
                 if rep.applies else "criterion inconclusive"),
    }


def render(data: dict) -> str:
    lines = [f"{k}: {data[k]}" for k in ("cycle_pairs_covered", "intersections_ok",
                                         "paths_ok", "all_proper", "criterion_applies")]
    lines.append(data["note"])
    return "\n".join(lines)


def read_collection(path: str) -> str:
    """The text of the collection file, or of stdin for '-'; either must
    be UTF-8.  Stdin may decode with surrogateescape, which turns bytes
    that are not UTF-8 into lone surrogates; those fail to encode."""
    try:
        if path == "-":
            text = sys.stdin.read()
            text.encode("utf-8")
            return text
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    except UnicodeError as exc:
        name = "stdin" if path == "-" else path
        raise ParseError(f"{name} is not UTF-8 text") from exc


def parse_collection_text(g: Graph, text: str) -> list:
    """One subgraph per line: semicolon-separated vertex groups, each
    group comma-separated; the subgraph is the union of the induced
    subgraphs on the groups."""
    subs = []
    known = set(g.vertices)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        verts: set = set()
        eids: set = set()
        for group in line.split(";"):
            names = [t.strip() for t in group.split(",") if t.strip()]
            unknown = [t for t in names if t not in known]
            if unknown:
                raise ParseError(f"line {lineno}: unknown vertex {unknown[0]!r}")
            sub = g.induced(names)
            verts |= sub.vertices
            eids |= sub.edge_ids
        subs.append(Subgraph(g, frozenset(verts), frozenset(eids)))
    return subs
