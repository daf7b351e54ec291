"""``homology``: H_* of the cube complex UC_n, or under ``--subdivide``
of the configuration space UConf_n.

The cube complex is counted before it is built: its f-vector, χ and
caps come from ``complex.count_cubes``, which refuses exactly as
``complex.build`` would.  Under ``--subdivide`` the reduced Świątkowski
complex of the smoothed graph (``braidscope.swiatkowski``) answers when
it has fewer cells than the cube complex of the subdivided graph and no
dimension over the Smith cap.  Otherwise the cube complex is built, its
f-vector must equal the count, and it answers.  Whichever complex
answers, ``homology.checked`` holds its groups to the count: none above
the cube complex's top dimension, its χ, and H_0 free of rank the number
of path components, which checks d_1 where d∘d reads nothing.
"""

from __future__ import annotations

import math

from ..errors import InvariantError


def run(args, g) -> dict:
    from ..complex import build, count_cubes
    from ..graph import smooth
    from ..homology import (DEFAULT_COLUMN_CAP, chain_complex,
                            check_column_cap, checked,
                            configuration_components, homology,
                            swiatkowski_dims)
    n, nv, cap = args.particles, len(g.vertices), args.max_cells
    if g.edges and n > 0 and math.comb(nv, n) <= cap:
        # f_1 = |E| C(|V|-2, n-1): refuse before indexing a large graph
        check_column_cap((0, len(g.edges) * math.comb(nv - 2, n - 1)))
    # the cube complex is counted first, and built only where it answers
    f = count_cubes(g, n, cap)
    check_column_cap(f)
    euler = sum((-1) ** d * k for d, k in enumerate(f))
    h = None
    if args.subdivide:
        m = smooth(g)
        dims = swiatkowski_dims(m, n)
        if sum(dims) < sum(f) and max(dims) <= DEFAULT_COLUMN_CAP:
            from ..swiatkowski import reduced_complex
            h = homology(reduced_complex(m, n))
            components, model = configuration_components(m, n), "Świątkowski"
    if h is None:
        x = build(g, n, cell_cap=cap)
        if x.f_vector() != f:
            raise InvariantError(f"cube complex has f-vector {list(x.f_vector())}, "
                                 f"its count {list(f)}")
        h = homology(chain_complex(x))
        components, model = x.component_count(), "cube complex"
    h = checked(h, len(f) - 1, euler, components, model)
    return {
        "free_ranks": list(h.free_ranks),
        "torsion": [list(t) for t in h.torsion],
        "groups": [h.group(d) for d in range(len(h.free_ranks))],
        "euler_characteristic": euler,
    }


def render(data: dict) -> str:
    return "\n".join(f"H_{d} = {grp}" for d, grp in enumerate(data["groups"]))
