"""The immutable value classes: field order and defaults, equality and
hashing over the compared fields only, no assignment or deletion after
construction, and copies and pickles equal to the original.  Every
class is built from its fields by keyword and by position; the values
are small stand-ins, since none of these constructors but Subgraph's
checks its input."""

import copy
import pickle
from collections import Counter

import pytest

from braidscope.classifier import (
    AssignmentReport, ClassificationReport, ComponentVerdict, OracleVerdict,
    ParticleAssignment, PeripheralReport,
)
from braidscope.complex import BitIndex, CubeComplex, NpcReport, SurfaceReport, build
from braidscope.diagrams import Diagram, LegalWord, SupportData
from braidscope.errors import PreconditionError
from braidscope.graph import Cycle, Edge, Graph, Shape, Subgraph
from braidscope.homology import ChainComplex, HomologySummary, chain_complex
from braidscope.hyperplanes import ColoringReport, Hyperplane

G = Graph.make("123", [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
H = Graph.make("12", [("a", "1", "2")])
WORD = LegalWord(G, ("1",), (("a", 1),), ("2",))
DIAGRAM = Diagram(G, ("1",), (), ("1",))
SUB = Subgraph(G, frozenset("12"), frozenset("a"))

# class -> {field: (value, another value)} in field order
FIELDS = {
    Edge: {"id": ("a", "b"), "u": ("1", "2"), "v": ("2", "3")},
    Graph: {"vertices": (G.vertices, H.vertices), "edges": (G.edges, H.edges)},
    Subgraph: {"parent": (G, H), "vertices": (frozenset("12"), frozenset("123")),
               "edge_ids": (frozenset("a"), frozenset())},
    Cycle: {"vertices": (("1", "2", "3"), ("1", "3", "2")),
            "edge_ids": (("a", "b", "c"), ("c", "b", "a"))},
    Shape: {"tag": ("rose", "star"),
            "memberships": (frozenset({"rose"}), frozenset({"star"})),
            "detail": ({"arms": 3}, {"arms": 4})},
    ParticleAssignment: {"counts": ((2, 1), (1, 2))},
    OracleVerdict: {"verdict": (True, False), "witness": (("1+1",), None)},
    PeripheralReport: {
        "cycle_pairs_covered": (True, False), "uncovered_pair": (None, (1, 2)),
        "intersections_ok": (True, False), "bad_intersection": (None, (SUB, SUB)),
        "paths_ok": (True, False), "bad_path": (None, (SUB, ("1",), None)),
        "all_proper": (True, False)},
    ComponentVerdict: {
        "particles": (2, 3), "trivial": (False, True),
        "infinite_cyclic": (False, True), "hyperbolic": (True, False),
        "toral_rel_hyp": (True, False), "acyl_status": ("trivial", "infinite_cyclic"),
        "free": ("free", "unknown"), "contains_f2": (True, False),
        "contains_f2xz": (False, True), "shape_tag": ("rose", "star")},
    AssignmentReport: {
        "assignment": ((2,), (3,)), "per_component": ((), (None,)),
        "trivial": (False, True), "infinite_cyclic": (False, True),
        "hyperbolic": (True, False), "toral_rel_hyp": (True, False),
        "acyl_status": ("trivial", "infinite_cyclic"),
        "free": ("free", "unknown"), "contains_f2": (True, False),
        "contains_f2xz": (False, True)},
    ClassificationReport: {
        "fingerprint": ("V:1", "V:2"), "n": (2, 3), "connected": (True, False),
        "assignments": ((), (None,)), "oracle_agreement": (None, {"hyperbolic": True}),
        "oracle_note": ("oracles skipped", "oracles ran")},
    CubeComplex: {"graph": (G, H), "n": (2, 1), "max_dim": (2, 1),
                  "levels": (((0, 3),), ((0, 5),)),
                  "index": (BitIndex(G), BitIndex(G))},
    NpcReport: {"ok": (True, False), "failures": ((), ((("1",), ("a",), None),))},
    SurfaceReport: {"ok": (True, False), "link_cycle_lengths": ((3, 3), ()),
                    "witness": (None, ("1", "2"))},
    ChainComplex: {"bases": (((0,), (1,)), ((0,), (2,))),
                   "columns": ((None, ((0, 1),)), (None, ((0, -1),)))},
    HomologySummary: {"free_ranks": ((1, 2), (1, 3)), "torsion": (((), (2,)), ((), ()))},
    Hyperplane: {"color": ("a", "b"), "members": (frozenset({(1, 2)}), frozenset()),
                 "component_tag": ((1, 2), (2, 4))},
    ColoringReport: {"ok": (True, False), "axiom_failures": ((), ((3, ()),)),
                     "classes_per_color": (Counter(a=1), Counter(a=2))},
    LegalWord: {"graph": (G, H), "base": (("1",), ("2",)),
                "letters": ((("a", 1),), (("a", -1),)), "terminus": (("2",), ("1",))},
    Diagram: {"graph": (G, H), "base": (("1",), ("2",)),
              "letters": ((), (("a", 1),)), "terminus": (("1",), ("2",))},
    SupportData: {"cyclic_reduction": (DIAGRAM, Diagram(G, ("2",), (), ("2",))),
                  "conjugator": (WORD, LegalWord(G, ("1",), (), ("1",))),
                  "support": (SUB, Subgraph(G, frozenset("1"), frozenset())),
                  "particles": (frozenset(), frozenset("1"))},
}
IGNORED = {Shape: "detail", Diagram: "graph", CubeComplex: "index"}
UNHASHABLE = {ColoringReport}   # a Counter field


def make(cls, **changed):
    return cls(**{name: changed.get(name, pair[0])
                  for name, pair in FIELDS[cls].items()})


def test_every_record_class_is_covered():
    assert len(FIELDS) == 21


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_twins_are_equal_and_hash_alike(cls):
    a = make(cls)
    b = cls(*[pair[0] for pair in FIELDS[cls].values()])   # field order
    assert a is not b and a == b and not a != b
    for name, (value, _) in FIELDS[cls].items():
        assert getattr(b, name) == value
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_each_compared_field_takes_part_in_equality(cls):
    a = make(cls)
    for name, (_, other) in FIELDS[cls].items():
        b = make(cls, **{name: other})
        if IGNORED.get(cls) == name:
            assert a == b and hash(a) == hash(b), name
        else:
            assert a != b and not a == b, name


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    a = make(cls)
    for name, (value, other) in FIELDS[cls].items():
        with pytest.raises(AttributeError):
            setattr(a, name, other)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == value, name


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal(cls):
    a = make(cls)
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_defaults():
    assert OracleVerdict(True) == OracleVerdict(True, None)
    assert OracleVerdict(False).witness is None
    assert Shape("rose", frozenset()).detail == {}


def test_graphs_take_no_attributes_but_keep_their_memo():
    g = Graph.make("12", [("a", "1", "2")])
    with pytest.raises(AttributeError):
        g.extra = 1
    g._memo["k"] = 1   # a cached_property, written to the instance dict
    assert g._memo == {"k": 1} and g.edge_by_id["a"] is g.edges[0]


def test_built_complexes_are_unhashable():
    # their levels and columns hold dicts
    x = build(G, 2)
    for obj in (x, chain_complex(x)):
        with pytest.raises(TypeError):
            hash(obj)
    assert x == CubeComplex(x.graph, x.n, x.max_dim, x.levels, BitIndex(G))


@pytest.mark.parametrize("vertices, edge_ids, message", [
    ("12", "z", "unknown edge 'z' in subgraph"),
    ("1", "a", "subgraph not closed under endpoints at 'a'"),
    ("13", "ab", "subgraph not closed under endpoints at '[ab]'"),
])
def test_subgraph_refuses_what_is_not_a_subgraph(vertices, edge_ids, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        Subgraph(G, frozenset(vertices), frozenset(edge_ids))
