"""``analyze``: the classification report of one graph."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..classifier import ClassificationReport


def run(args, g) -> dict:
    from ..classifier import full_report
    return report_payload(full_report(g, args.particles, run_oracles=args.oracle))


def report_payload(rep: ClassificationReport) -> dict:
    """The JSON data of a report: each assignment's split, shapes and
    every verdict of ``AssignmentReport`` under its field name."""
    payload = {
        "fingerprint": rep.fingerprint,
        "particles": rep.n,
        "connected": rep.connected,
        "oracle": rep.oracle_note,
        "assignments": [],
    }
    if rep.oracle_agreement is not None:
        payload["oracle_agreement"] = {
            k: bool(v) for k, v in sorted(rep.oracle_agreement.items())}
    for a in rep.assignments:
        row = a._asdict()
        row["split"] = list(row.pop("assignment"))
        row["shapes"] = [c.shape_tag for c in row.pop("per_component")]
        payload["assignments"].append(row)
    return payload


def render(data: dict) -> str:
    fp = data["fingerprint"]
    fp = fp if len(fp) <= 60 else fp[:60] + "..."
    lines = [f"graph {fp} n={data['particles']}"]
    for a in data["assignments"]:
        lines.append(
            f"  split={a['split']} trivial={a['trivial']}"
            f" Z={a['infinite_cyclic']} hyp={a['hyperbolic']}"
            f" toralRH={a['toral_rel_hyp']} acyl={a['acyl_status']}"
            f" free={a['free']} F2={a['contains_f2']} F2xZ={a['contains_f2xz']}")
    lines.append(f"  oracle: {data['oracle']}")
    return "\n".join(lines)
