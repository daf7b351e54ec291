"""braidscope: discrete configuration spaces of graphs and the geometry
of their braid groups.

The package builds the unordered configuration space UC_n of a finite
graph as an explicit cube complex, runs the word machinery of the
associated fundamental groupoid, computes integer homology, and decides
when a graph braid group is trivial, cyclic, free (certificate),
hyperbolic, toral relatively hyperbolic, or acylindrically hyperbolic,
cross-checking the fast graph criteria against brute-force oracles.
"""

from .errors import (
    BraidscopeError,
    IllegalMoveError,
    InvariantError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
)
from .graph import (
    Cycle,
    Graph,
    Shape,
    Subgraph,
    classify_shape,
    first_betti,
    normalize,
    simple_cycles,
    smooth,
    subdivide_for,
)
from .complex import CubeComplex, build, euler_characteristic, is_surface, verify_npc
from .hyperplanes import (
    Hyperplane,
    coloring_graph,
    hyperplanes_by_bfs,
    hyperplanes_by_components,
    verify_special_coloring,
)
from .diagrams import (
    CoverBall,
    Diagram,
    LegalWord,
    SupportData,
    ball_oracle,
    check_legal,
    concat,
    cyclic_centralizer_witness,
    cyclically_reduce,
    diagram,
    equal,
    inverse,
    make_rotation,
    make_tripod_swap,
    reduce_word,
)
from .homology import ChainComplex, HomologySummary, chain_complex
from .classifier import (
    ClassificationReport,
    ParticleAssignment,
    PeripheralReport,
    acyl_hyp_status,
    check_peripheral_collection,
    contains_f2xz,
    contains_free_nonabelian,
    free_certificate,
    full_report,
    is_hyperbolic,
    is_infinite_cyclic,
    is_toral_rel_hyp,
    is_trivial,
    oracle_f2xz,
    oracle_nonhyperbolic,
)

__version__ = "1.0.0"

JSON_SCHEMA_VERSION = 1
