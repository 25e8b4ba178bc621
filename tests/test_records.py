"""What callers see of the nine record types: repr, equality, hash, immutability.

These pins hold for any implementation of the records.  The import guard at
the end keeps the start-up cost of `dataclasses`, of the `inspect` it
imports, and of `typing` out of the runtime.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import projlink
from projlink import links
from projlink.atlas import (
    Atlas,
    VerificationReport,
    confluence_audit,
    relation_lift_compatibility,
    verify_lift_injectivity,
)
from projlink.jsj import (
    CoverCheckEntry,
    CoverSpec,
    Geometry,
    JsjTree,
    RegionLabel,
    TreeEdge,
)
from projlink.links import (
    AmbientSpace,
    Classification,
    ClassificationKind,
    Direction,
    Relation,
    RelationStep,
    TorusLink,
    canonical,
    isotopic,
    make_link,
    normal_form,
)

S3 = AmbientSpace.SPHERE3
RP3 = AmbientSpace.RP3

FIELDS = {
    TorusLink: ("space", "p", "q", "n"),
    RelationStep: ("relation", "direction", "before", "after"),
    Classification: ("kind", "detail"),
    Atlas: ("space", "bound", "classes"),
    VerificationReport: ("bound", "checked_pairs", "violations", "elapsed", "notes"),
    TreeEdge: ("u", "v", "label_beyond_u", "label_beyond_v"),
    JsjTree: ("vertices", "edges"),
    CoverSpec: ("cover", "vertex_map"),
    CoverCheckEntry: ("vertex", "orbit", "outermost", "criterion", "agree"),
}
# Records with a dict field cannot be hashed.
UNHASHABLE = {Atlas, VerificationReport, JsjTree, CoverSpec}


def sample_args(cls) -> tuple:
    """Constructor arguments of one sample of `cls`, built afresh on each call."""
    a, b = TorusLink(S3, 1, 2, 0), TorusLink(S3, -1, -2, 0)
    edge = TreeEdge("a", "b", RegionLabel.SOLID_TORUS, RegionLabel.OTHER)
    tree = JsjTree({"a": Geometry.SEIFERT, "b": Geometry.HYPERBOLIC}, (edge,))
    return {
        TorusLink: lambda: (S3, 1, 2, 0),
        RelationStep: lambda: (Relation.R1, Direction.FORWARD, a, b),
        Classification: lambda: (ClassificationKind.EMPTY, "the empty link"),
        Atlas: lambda: (RP3, 0, {TorusLink(RP3, 0, 0, 0): (TorusLink(RP3, 0, 0, 0),)}),
        VerificationReport: lambda: (1, 2, ({"evidence": "x"},), 0.5,
                                     {"max_lift_chain_length": 3}),
        TreeEdge: lambda: ("a", "b", RegionLabel.SOLID_TORUS, RegionLabel.OTHER),
        JsjTree: lambda: ({"a": Geometry.SEIFERT, "b": Geometry.HYPERBOLIC}, (edge,)),
        CoverSpec: lambda: (tree, {"a": "a", "b": "b"}),
        CoverCheckEntry: lambda: ("a", ("a",), True, True, True),
    }[cls]()


STEP = ("RelationStep(relation=<Relation.R1: 'R1'>, direction=<Direction.FORWARD: "
        "'fwd'>, before=T[s3](1,2;0), after=T[s3](-1,-2;0))")
EDGE = ("TreeEdge(u='a', v='b', label_beyond_u=<RegionLabel.SOLID_TORUS: 'st'>, "
        "label_beyond_v=<RegionLabel.OTHER: 'other'>)")
TREE = ("JsjTree(vertices={'a': <Geometry.SEIFERT: 'seifert'>, 'b': "
        f"<Geometry.HYPERBOLIC: 'hyperbolic'>}}, edges=({EDGE},))")
REPRS = {
    TorusLink: "T[s3](1,2;0)",
    RelationStep: STEP,
    Classification: "Classification(kind=<ClassificationKind.EMPTY: 'EMPTY'>, "
                    "detail='the empty link')",
    Atlas: "Atlas(space=<AmbientSpace.RP3: 'rp3'>, bound=0, "
           "classes={T[rp3](0,0;0): (T[rp3](0,0;0),)})",
    VerificationReport: "VerificationReport(bound=1, checked_pairs=2, violations="
                        "({'evidence': 'x'},), elapsed=0.5, "
                        "notes={'max_lift_chain_length': 3})",
    TreeEdge: EDGE,
    JsjTree: TREE,
    CoverSpec: f"CoverSpec(cover={TREE}, vertex_map={{'a': 'a', 'b': 'b'}})",
    CoverCheckEntry: "CoverCheckEntry(vertex='a', orbit=('a',), outermost=True, "
                     "criterion=True, agree=True)",
}
RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


@RECORDS
def test_fields_come_in_constructor_order(cls):
    args = sample_args(cls)
    record = cls(*args)
    assert tuple(getattr(record, name) for name in FIELDS[cls]) == args
    assert cls(**dict(zip(FIELDS[cls], sample_args(cls)))) == record
    assert cls.__match_args__ == FIELDS[cls]


def test_only_records_with_methods_subclass_their_named_tuple():
    # perfbench/tracer.py replaces Atlas.to_dict and JsjTree.adjacency on the
    # classes themselves; a record without methods is the named tuple itself.
    plain = {cls for cls in FIELDS if cls.__bases__ == (tuple,)}
    assert plain == {RelationStep, Classification, TreeEdge, CoverSpec, CoverCheckEntry}
    assert all(cls.__bases__[0].__bases__ == (tuple,) for cls in set(FIELDS) - plain)


@RECORDS
def test_repr(cls):
    assert repr(cls(*sample_args(cls))) == REPRS[cls]


@RECORDS
def test_equal_fields_make_equal_records(cls):
    a, b = cls(*sample_args(cls)), cls(*sample_args(cls))
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@RECORDS
def test_one_differing_field_makes_unequal_records(cls):
    a = cls(*sample_args(cls))
    for i in range(len(FIELDS[cls])):
        args = list(sample_args(cls))
        args[i] = object()
        b = cls(*args)
        assert a != b and b != a and not a == b


def test_records_of_different_classes_never_compare_equal():
    records = [cls(*sample_args(cls)) for cls in FIELDS]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j), (a, b)


@RECORDS
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(*sample_args(cls))
    for name in FIELDS[cls] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == REPRS[cls]


@RECORDS
def test_records_survive_pickle_and_copy(cls):
    record = cls(*sample_args(cls))
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record and copy.deepcopy(record) == record


def test_chain_length_counts_steps():
    # A witness chain is the plain tuple of its steps.
    chain = normal_form(make_link(S3, 2, 2, 0))[1]
    assert type(chain) is tuple and len(chain) >= 2
    assert all(type(step) is RelationStep for step in chain)
    ok, chain = isotopic(make_link(S3, 2, 2, 0), make_link(S3, -2, -2, 0))
    assert ok and type(chain) is tuple and len(chain) >= 1


def test_torus_link_is_a_dict_key():
    table = {make_link(S3, 1, 2, 0): "a", make_link(RP3, 1, 2, 0): "b"}
    assert table[TorusLink(S3, 1, 2, 0)] == "a"
    assert table[TorusLink(RP3, 1, 2, 0)] == "b"
    assert TorusLink(S3, 2, 1, 0) not in table


def test_torus_link_is_the_normal_form_cache_key(monkeypatch):
    link = make_link(S3, 12, 18, 0)
    first = normal_form(link)
    size = links._normal_form.cache_info().currsize
    calls = []

    def counting(*args):
        calls.append(args)
        return canonical(*args)

    monkeypatch.setattr(links, "canonical", counting)
    again = normal_form(TorusLink(S3, 12, 18, 0))
    assert again is first
    assert links._normal_form.cache_info().currsize == size and calls == []


# ---------------------------------------------------------------------------
# VerificationReport's notes default.


def test_reports_built_without_notes_share_no_mutable_object():
    a, b = VerificationReport(1, 2, (), 0.5), VerificationReport(1, 2, (), 0.5)
    assert a == b
    for name in FIELDS[VerificationReport]:
        x, y = getattr(a, name), getattr(b, name)
        if x is y:
            hash(x)  # a shared object must be immutable
    assert a.to_dict() == {"bound": 1, "checked_pairs": 2, "violations": []}


def test_only_the_relation_lift_report_carries_notes():
    assert "notes" not in confluence_audit(S3, 2).to_dict()
    assert "notes" not in confluence_audit(RP3, 2).to_dict()
    assert "notes" not in verify_lift_injectivity(3).to_dict()
    notes = relation_lift_compatibility(3).to_dict()["notes"]
    assert list(notes) == ["max_lift_chain_length"] and notes["max_lift_chain_length"] >= 1


# ---------------------------------------------------------------------------
# Import guard.


def test_runtime_imports_neither_dataclasses_nor_inspect_nor_typing():
    src = os.path.dirname(os.path.dirname(os.path.abspath(projlink.__file__)))
    code = ("import sys\n"
            "import projlink.cli, projlink.atlas, projlink.jsj, projlink.generators\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    # -S: without site, nothing a .pth file imports can hide or cause a hit.
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
