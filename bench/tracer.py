"""Spans around the calls into braidscope's layers, recorded from outside
the program.

:class:`Tracer` rebinds every name a traced function is bound to (the
defining module, the modules that imported it, the package itself) to a
wrapper that records a span ``[name, start, end, parent, job]`` and
bumps counters.  Spans stay in memory until the replay ends.

Run as a script, it replays a job list in one process through
``braidscope.cli.main(argv)`` and writes the spans and each job's exit
code and stdout as JSON::

    python bench/tracer.py JOBS.json OUT.json

where JOBS.json is a list of argv lists.  ``src`` must be importable.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from collections import defaultdict

MODULES = ("braidscope", "braidscope.graph", "braidscope.complex",
           "braidscope.homology", "braidscope.hyperplanes",
           "braidscope.classifier", "braidscope.diagrams",
           "braidscope.families", "braidscope.cli")


def _added_vertices(t, res, args, kwargs):
    t.counts["graph.subdivide_for.added_vertices"] += (
        len(res.vertices) - len(args[0].vertices))


def _cells(t, res, args, kwargs):
    t.counts["complex.cells"] += sum(res.f_vector())


def _nonzeros(t, res, args, kwargs):
    t.counts["homology.boundary_nonzeros"] += sum(len(b) for b in res.boundaries[1:])


def _max_cols(t, res, args, kwargs):
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    key = "homology.smith_invariants.max_cols"
    t.counts[key] = max(t.counts[key], shape[1])


def _cycles(t, res, args, kwargs):
    t.counts["graph.simple_cycles.cycles"] += len(res)


def _witnesses(t, res, args, kwargs):
    oracle = args[0]
    if id(oracle) not in t.seen:   # the list is cached on the oracle
        t.seen.add(id(oracle))
        t.counts["classifier.oracle.witnesses"] += len(res)


# (module, attribute, span name or None for count-only, counter key, hook)
TARGETS = (
    ("braidscope.graph", "simple_cycles", "graph.simple_cycles", None, _cycles),
    ("braidscope.graph", "smooth", "graph.smooth", None, None),
    ("braidscope.graph", "classify_shape", "graph.classify_shape", None, None),
    ("braidscope.graph", "normalize", "graph.normalize", None, None),
    ("braidscope.graph", "subdivide_for", "graph.subdivide_for", None, _added_vertices),
    ("braidscope.complex", "build", "complex.build", None, _cells),
    ("braidscope.homology", "chain_complex", "homology.chain_complex", None, _nonzeros),
    ("braidscope.homology", "verify_dd_zero", "homology.verify_dd_zero", None, None),
    ("braidscope.homology", "smith_invariants", "homology.smith_invariants", None, _max_cols),
    ("braidscope.hyperplanes", "hyperplanes_by_components", "hyperplanes.by_components", None, None),
    ("braidscope.hyperplanes", "hyperplanes_by_bfs", "hyperplanes.by_bfs", None, None),
    ("braidscope.hyperplanes", "verify_special_coloring",
     "hyperplanes.verify_special_coloring", None, None),
    ("braidscope.classifier", "full_report", "classifier.full_report", None, None),
    ("braidscope.classifier", "contains_f2xz", None, "classifier.contains_f2xz", None),
    ("braidscope.classifier", "SubgraphOracle.__init__", "classifier.oracle", None, None),
    ("braidscope.classifier", "SubgraphOracle.nonhyperbolic", "classifier.oracle", None, None),
    ("braidscope.classifier", "SubgraphOracle.f2xz", "classifier.oracle", None, None),
    ("braidscope.classifier", "SubgraphOracle.witnesses", None, "classifier.oracle", _witnesses),
    ("braidscope.cli", "make_parser", "cli.startup", None, None),
    ("braidscope.cli", "load_graph", "cli.load_graph", None, None),
    ("braidscope.cli", "emit_json", "cli.emit_json", None, None),
)

# metrics reported per workload; ".s" is self time summed over the replay
PER_LAYER = (
    "graph.simple_cycles.s", "graph.simple_cycles.calls", "graph.simple_cycles.cycles",
    "graph.smooth.s", "graph.classify_shape.s", "graph.classify_shape.calls",
    "graph.normalize.s", "graph.subdivide_for.s", "graph.subdivide_for.added_vertices",
    "complex.build.s", "complex.build.calls", "complex.cells",
    "homology.chain_complex.s", "homology.verify_dd_zero.s", "homology.boundary_nonzeros",
    "homology.smith_invariants.s", "homology.smith_invariants.max_cols",
    "hyperplanes.by_components.s", "hyperplanes.by_bfs.s",
    "hyperplanes.verify_special_coloring.s",
    "classifier.full_report.s", "classifier.contains_f2xz.calls",
    "classifier.oracle.s", "classifier.oracle.witnesses",
    "cli.startup.s", "cli.load_graph.s", "cli.emit_json.s",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.seen = set()
        self.job = None
        self._stack = []
        self._undo = []

    def begin_job(self, job) -> None:
        self.job = job
        self.seen.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, key, hook):
        tracer = self
        key = key or name

        def traced(*args, **kwargs):
            if name is None:
                res = fn(*args, **kwargs)
            else:
                with tracer.span(name):
                    res = fn(*args, **kwargs)
            tracer.counts[key + ".calls"] += 1
            if hook is not None:
                hook(tracer, res, args, kwargs)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        # modules come from importlib: the package attribute
        # braidscope.homology is the function, not the submodule
        modules = [importlib.import_module(m) for m in MODULES]
        for modname, attr, name, key, hook in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name, key, hook))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, key, hook)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, bound, wrapper)
                        self._undo.append((mod, bound, orig))
        return self

    def uninstall(self) -> None:
        for owner, bound, orig in reversed(self._undo):
            setattr(owner, bound, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def replay(tracer: Tracer, argvs) -> list:
    """Run each argv through cli.main; [exit code, stdout] per job."""
    cli = importlib.import_module("braidscope.cli")
    results = []
    for job, argv in enumerate(argvs):
        tracer.begin_job(job)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tracer.span("job"):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        results.append([code, buf.getvalue()])
    return results


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics: self time per span name, plus the counters."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_time = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_time[name + ".s"] += (end - start) - child[i]
    out = {}
    for metric in PER_LAYER:
        if metric.endswith(".s"):
            out[metric] = self_time.get(metric, 0.0)
        else:
            out[metric] = counts.get(metric, 0)
    return out


def main(argv) -> int:
    jobs_path, out_path = argv[:2]
    with open(jobs_path, encoding="utf-8") as fh:
        argvs = json.load(fh)
    tracer = Tracer()
    with tracer.span("cli.startup"):
        importlib.import_module("braidscope.cli")
    with tracer:
        results = replay(tracer, argvs)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "results": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
