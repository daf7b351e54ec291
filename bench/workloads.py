"""The three workloads: fixed job lists of CLI invocations.

A job is one ``python -m braidscope.cli`` process.  ``graph`` names the
input file the job reads (None for ``table``).  Every workload ends
with a few tiny jobs of the other kinds, so that each layer the traced
run reports is busy, if only briefly, on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import graphs as G


@dataclass(frozen=True)
class Job:
    command: str                   # analyze | build | homology | table
    n: int = 0
    graph: Optional[G.GraphSpec] = None
    table: tuple = ()              # (family, max, particle range)

    @property
    def label(self) -> str:
        if self.command == "table":
            return f"table-{self.table[0]}-{self.table[1]}"
        return f"{self.command}-{self.graph.name}-n{self.n}"

    def argv(self, graph_path: Optional[str]) -> list:
        if self.command == "table":
            family, top, particles = self.table
            return ["table", "--family", family, "--max", str(top),
                    "--particles", particles]
        argv = [self.command, "--graph", graph_path, "-n", str(self.n)]
        if self.command in ("build", "homology"):
            argv.append("--subdivide")
        if self.command == "analyze":
            argv += ["--oracle", "auto"]
        return argv


def _analyze(spec, n):
    return Job("analyze", n, spec)


def _homology(spec, n):
    return Job("homology", n, spec)


def _build(spec, n):
    return Job("build", n, spec)


TEN_COMPONENTS = G.union("ten", [G.complete(3), G.star(3), G.theta(1, 2, 2),
                                 G.complete(3), G.star(4), G.theta(1, 2, 2),
                                 G.complete(3), G.star(3), G.complete(4),
                                 G.rose(1, 1)])

HOMOLOGY = (
    # many mid-size complexes rather than one K_7 at n=3 (41,496 cells,
    # 5-8 s): one long process is timed as badly as one sample
    _homology(G.rose(3, 2), 4),           # 45,883 cells
    _homology(G.bipartite(4, 4), 3),      # 21,256 cells
    _homology(G.petersen(), 3),           # 20,960 cells
    _homology(G.rose(4), 4),              # 29,711 cells
    _homology(G.star(5), 4),
    _homology(G.bipartite(3, 4), 3),
    _homology(G.complete(5), 2),
    _homology(G.bipartite(3, 3), 3),
    _homology(G.theta(2, 2, 2), 4),
    _analyze(G.theta(2, 2, 2), 2),
    _build(G.complete(4), 2),
)

CLASSIFY = (
    Job("table", table=("complete", 8, "2..5")),
    Job("table", table=("bipartite", 5, "2..5")),
    _analyze(G.complete(8), 2),           # cycle-rich: 8,018 simple cycles
    _analyze(G.complete(8), 3),
    _analyze(G.complete(7), 2),
    _analyze(G.bipartite(5, 5), 3),
    _analyze(G.bipartite(4, 4), 2),
    _analyze(G.petersen(), 2),            # cycle-poor
    _analyze(G.petersen(), 3),
    _analyze(G.tree(), 4),
    _analyze(G.star(5), 3),
    _analyze(G.rose(3, 2), 3),
    _analyze(G.sun(), 3),
    _analyze(G.theta(2, 3, 4), 3),
    _analyze(G.theta(2, 3, 4), 2),
    _analyze(TEN_COMPONENTS, 4),          # 715 particle assignments
    _homology(G.complete(4), 2),
    _build(G.complete(4), 2),
)

BUILD = (
    _build(G.complete(5), 3),
    _build(G.complete(6), 3),
    _build(G.bipartite(3, 3), 3),
    _build(G.bipartite(4, 4), 3),         # 21,256 cells
    _build(G.bipartite(3, 4), 3),
    _build(G.star(5), 4),
    _build(G.theta(2, 2, 2), 4),
    _build(G.petersen(), 3),
    _build(G.rose(3), 4),
    _build(G.complete(4), 4),
    _analyze(G.theta(2, 2, 2), 2),
    _homology(G.complete(4), 2),
)

WORKLOADS = {"homology": HOMOLOGY, "classify": CLASSIFY, "build": BUILD}
