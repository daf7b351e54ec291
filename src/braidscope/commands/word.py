"""``word``: a legal word's normal form, compared or cyclically reduced."""

from __future__ import annotations

from ..errors import ParseError, PreconditionError


def run(args, g) -> dict:
    from ..diagrams import cyclically_reduce, diagram, equal
    base = tuple(args.base.split(","))
    letters = parse_word_tokens(args.letters)
    d = diagram(g, base, letters)
    data = {
        "legal": True,
        "terminus": list(d.terminus),
        "length": len(d),
        "normal_form": [("+" if s > 0 else "-") + e for (e, s) in d.letters],
        "spherical": d.is_spherical(),
    }
    if args.compare is not None:
        other = diagram(g, base, parse_word_tokens(args.compare.split()))
        data["equal"] = equal(d, other)
    if args.cyclic:
        if not d.is_spherical():
            raise PreconditionError("--cyclic needs a spherical word")
        sd = cyclically_reduce(d)
        data["cyclic_reduction"] = [
            ("+" if s > 0 else "-") + e for (e, s) in sd.cyclic_reduction.letters]
        data["support_vertices"] = sorted(sd.support.vertices)
        data["particles"] = sorted(sd.particles)
    return data


def render(data: dict) -> str:
    lines = [f"legal; terminus {','.join(data['terminus'])}; "
             f"normal form {' '.join(data['normal_form']) or '(empty)'}"]
    if "equal" in data:
        lines.append(f"equal: {data['equal']}")
    return "\n".join(lines)


def parse_word_tokens(tokens) -> list:
    letters = []
    for tok in tokens:
        if len(tok) < 2 or tok[0] not in "+-":
            raise ParseError(f"bad word token {tok!r}; want +eID or -eID")
        letters.append((tok[1:], 1 if tok[0] == "+" else -1))
    return letters
