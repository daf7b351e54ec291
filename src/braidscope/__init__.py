"""braidscope: discrete configuration spaces of graphs and the geometry
of their braid groups.

The package builds the unordered configuration space UC_n of a finite
graph as an explicit cube complex, runs the word machinery of the
associated fundamental groupoid, computes integer homology, and decides
when a graph braid group is trivial, cyclic, free (certificate),
hyperbolic, toral relatively hyperbolic, or acylindrically hyperbolic,
cross-checking the fast graph criteria against brute-force oracles.

``import braidscope`` loads only the error types; every other name
below, and each of these submodules, loads on first use.  A name is
looked up in its submodule on every access, never cached here, so a
name rebound in its submodule is seen through the package too.
"""

import importlib

from .errors import (
    BraidscopeError,
    IllegalMoveError,
    InvariantError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
)

__version__ = "1.0.0"

JSON_SCHEMA_VERSION = 1

_SUBMODULE_NAMES = {
    "graph": ("Cycle Graph Shape Subgraph classify_shape first_betti "
              "normalize simple_cycles smooth subdivide_for"),
    "complex": "CubeComplex build euler_characteristic is_surface verify_npc",
    "hyperplanes": ("Hyperplane hyperplanes_by_bfs hyperplanes_by_components "
                    "verify_special_coloring"),
    "diagrams": ("CoverBall Diagram LegalWord SupportData ball_oracle "
                 "check_legal concat cyclic_centralizer_witness "
                 "cyclically_reduce diagram equal inverse make_rotation "
                 "make_tripod_swap reduce_word"),
    "homology": "ChainComplex HomologySummary chain_complex",
    "classifier": ("ClassificationReport acyl_hyp_status contains_f2xz "
                   "contains_free_nonabelian free_certificate full_report "
                   "is_hyperbolic is_infinite_cyclic is_toral_rel_hyp is_trivial"),
    "peripheral": "PeripheralReport check_peripheral_collection",
}
_LAZY = {name: module for module, names in _SUBMODULE_NAMES.items()
         for name in names.split()}


def __getattr__(name):
    if name in _SUBMODULE_NAMES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE_NAMES) | set(_LAZY))
