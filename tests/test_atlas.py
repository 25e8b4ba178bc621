"""Atlas enumeration, the union-find cross-check, and the lift verifiers."""

import ast
import hashlib
import io
import json
import pathlib
import random
import tracemalloc

import pytest

from closure_oracle import closure_classes, same_class
from projlink import atlas as atlas_module
from projlink.atlas import (
    _closure_roots,
    _triples,
    confluence_audit,
    enumerate_classes,
    relation_lift_compatibility,
    verify_lift_injectivity,
)
from projlink.cli import main
from projlink.links import (
    AmbientSpace,
    Direction,
    InvalidInput,
    Relation,
    _MOVES,
    _lift,
    _move,
    canonical,
    make_link,
    normal_form,
)

S3 = AmbientSpace.SPHERE3
RP3 = AmbientSpace.RP3


def json_text(atlas) -> str:
    out = io.StringIO()
    atlas.write_json(out)
    return out.getvalue()


class TestEnumerateClasses:
    def test_degenerate_universe_has_three_classes(self):
        atlas = enumerate_classes(S3, 0)
        assert len(atlas.classes) == 3
        assert atlas.classes == {(0, 0, 0): ((0, 0, 0),), (0, 0, 1): ((0, 0, 1),),
                                 (0, 0, 2): ((0, 0, 2),)}

    def test_hopf_class_at_bound_two(self):
        atlas = enumerate_classes(S3, 2)
        hopf = atlas.classes[canonical(S3, 0, 0, 2)]
        assert {(2, 2, 0), (2, -2, 0), (1, 1, 1), (1, -1, 1), (0, 0, 2)} <= set(hopf)

    def test_rp3_class_count_at_bound_one(self):
        # Derived with the independent closure oracle before the build.
        atlas = enumerate_classes(RP3, 1)
        assert len(atlas.classes) == 10

    @pytest.mark.parametrize("space", [S3, RP3])
    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_matches_independent_oracle(self, space, bound):
        atlas = enumerate_classes(space, bound)
        ours = set(map(frozenset, atlas.classes.values()))
        # oracle closure over a larger radius, restricted to the inner universe
        inner = {(p, q, n) for p in range(-bound, bound + 1)
                 for q in range(-bound, bound + 1) for n in (0, 1, 2)}
        oracle = {
            frozenset(cls & inner)
            for cls in closure_classes(space.value, 3 * bound if bound else 0)
            if cls & inner}
        assert ours == oracle

    def test_keys_are_normal_forms_of_members(self):
        atlas = enumerate_classes(RP3, 2)
        for key, members in atlas.classes.items():
            assert all(normal_form(make_link(RP3, *m))[0] == (RP3, *key) for m in members)
            assert list(members) == sorted(members)

    def test_every_triple_in_exactly_one_class(self):
        atlas = enumerate_classes(S3, 3)
        seen = [m for members in atlas.classes.values() for m in members]
        assert len(seen) == len(set(seen))
        assert set(seen) == set(_triples(3))

    def test_serialization_is_deterministic(self):
        a = json.dumps(enumerate_classes(S3, 2).to_dict(), sort_keys=True)
        b = json.dumps(enumerate_classes(S3, 2).to_dict(), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize("space", [S3, RP3])
    def test_write_json_is_the_indented_dump(self, space):
        for bound in range(16):
            atlas = enumerate_classes(space, bound)
            assert json_text(atlas) == json.dumps(atlas.to_dict(), sort_keys=True, indent=2)

    def test_write_json_writes_blocks_of_whole_classes(self):
        class Recorder(list):
            write = list.append

        atlas = enumerate_classes(RP3, 25)
        writes = Recorder()
        atlas.write_json(writes)
        assert "".join(writes) == json_text(atlas)
        # One class's text in the document: its dump indented by four more
        # spaces per line, and the ",\n" before it.
        longest = max(
            len(text) + 4 * (text.count("\n") + 1) + 2
            for text in (json.dumps(entry, sort_keys=True, indent=2)
                         for entry in atlas.to_dict()["classes"]))
        assert len(writes) >= 10
        assert max(map(len, writes)) <= 64 * 1024 + longest
        assert min(map(len, writes[:-1])) >= 64 * 1024  # not a write per class

    def test_write_json_never_holds_the_whole_text(self):
        class Sink:
            def write(self, text):
                pass

        atlas = enumerate_classes(RP3, 25)  # about 1.2 MB of text
        tracemalloc.start()
        try:
            atlas.write_json(Sink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_classes(S3, -1)

    def test_a_space_that_is_not_an_ambient_space_is_rejected(self):
        # Not RP^3's 48 classes under another name: S^3 has 31 at bound 3.
        with pytest.raises(InvalidInput):
            enumerate_classes("s3", 3)


class TestClosurePartition:
    @pytest.mark.parametrize("space", [S3, RP3])
    def test_monotone_consistency(self, space):
        # Restricting the closure at a larger bound to a smaller universe
        # must reproduce the smaller closure exactly: confluence_audit's
        # in-box lemma, at bounds 2 and 6.
        small = dict(zip(_triples(2), _closure_roots(space, 2)))
        large = dict(zip(_triples(6), _closure_roots(space, 6)))
        by_small = {}
        by_large = {}
        for t in _triples(2):
            by_small.setdefault(small[t], set()).add(t)
            by_large.setdefault(large[t], set()).add(t)
        assert set(map(frozenset, by_small.values())) == \
            set(map(frozenset, by_large.values()))

    def test_distinct_small_torus_knots(self):
        roots = dict(zip(_triples(50), _closure_roots(S3, 50)))
        assert roots[2, 3, 0] != roots[2, 5, 0]
        assert same_class("s3", (2, 3, 0), (2, 5, 0), 50) is False

    @pytest.mark.parametrize("space", ["s3", "rp3"])
    def test_in_box_lemma(self, space):
        # confluence_audit's docstring proves that two triples of the box
        # joined by moves are joined inside it, so closing the box alone
        # loses nothing.  Checked here with the oracle alone, against a
        # closure three times wider.
        for bound in range(21):
            box = set(_triples(bound))
            wide = {cls & box for cls in closure_classes(space, 3 * bound)} - {frozenset()}
            assert set(closure_classes(space, bound)) == wide, bound

    @pytest.mark.parametrize("space", [S3, RP3])
    def test_union_find_matches_independent_oracle(self, space):
        # The audit trusts this union-find to check `canonical`, so it is
        # checked here against the oracle, which shares no code with it.
        for bound in range(21):
            classes = {}
            for t, root in zip(_triples(bound), _closure_roots(space, bound)):
                classes.setdefault(root, set()).add(t)
            assert set(map(frozenset, classes.values())) == \
                set(closure_classes(space.value, bound)), bound

    def test_oracle_imports_nothing_from_the_package(self):
        # The oracle is an independent witness only while it shares no code.
        path = pathlib.Path(__file__).with_name("closure_oracle.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        # A relative import starts with ".", so its first part is "".
        assert {name for name in imported if name.split(".")[0] in ("projlink", "")} == set()


class TestConfluenceAudit:
    @pytest.mark.parametrize("space", [S3, RP3])
    def test_clean_at_bound_ten(self, space):
        report = confluence_audit(space, 10)
        assert report.violations == ()
        assert report.bound == 10

    def test_degenerate_universe(self):
        report = confluence_audit(S3, 0)
        assert report.checked_pairs == 3
        assert report.violations == ()

    def test_negative_bound_rejected_before_the_closure(self):
        # The closure would hold about 10^13 positions.
        with pytest.raises(ValueError):
            confluence_audit(S3, -10**6)

    def test_a_space_that_is_not_an_ambient_space_is_rejected(self):
        with pytest.raises(InvalidInput):
            confluence_audit("s3", 3)

    def test_report_is_deterministic(self):
        a = confluence_audit(RP3, 4).to_dict()
        b = confluence_audit(RP3, 4).to_dict()
        assert a == b


class TestLiftInjectivity:
    def test_clean_at_bound_twenty(self):
        report = verify_lift_injectivity(20)
        assert report.violations == ()

    def test_degenerate_bound(self):
        report = verify_lift_injectivity(0)
        # only the three triples (0, 0; n) at bound zero
        assert report.checked_pairs == 3 * 2 // 2
        assert report.violations == ()

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            verify_lift_injectivity(-1)

    def test_first_exceptional_case(self):
        a, b = make_link(RP3, 3, 3, 0), make_link(RP3, 2, 2, 1)
        from projlink.links import isotopic, lift
        assert isotopic(lift(a), lift(b))[0]
        assert isotopic(a, b)[0]


class TestRelationLiftCompatibility:
    def test_clean_at_bound_thirty(self):
        report = relation_lift_compatibility(30)
        assert report.violations == ()
        assert report.checked_pairs > 0
        assert report.notes["max_lift_chain_length"] >= 1

    def test_swap_instance_lifts_to_single_swap(self):
        from projlink.links import Direction, Relation, _move, isotopic, lift
        link = make_link(RP3, 1, 3, 0)
        after = make_link(RP3, *_move(RP3, Relation.R2, Direction.FORWARD, 1, 3, 0))
        assert after == make_link(RP3, 5, 3, 0)
        assert lift(link) == make_link(S3, 1, 5, 0)
        assert lift(after) == make_link(S3, 5, 1, 0)
        ok, chain = isotopic(lift(link), lift(after))
        assert ok and len(chain) >= 1

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            relation_lift_compatibility(-1)

    def test_every_instance_lifts_to_one_forward_s3_move(self):
        # relation_lift_compatibility's docstring proves it for every triple:
        # each RP^3 instance, backward ones read forward, lifts to the S^3
        # forward instance of the same relation.
        def lifted(t):
            return (*_lift(t[0], t[1]), t[2])

        instances = 0
        for p, q, n in _triples(60):
            for relation, direction in _MOVES:
                image = _move(RP3, relation, direction, p, q, n)
                if image is None:
                    continue
                instances += 1
                x, y = ((p, q, n), image) if direction is Direction.FORWARD else (image, (p, q, n))
                assert _move(S3, relation, Direction.FORWARD, *lifted(x)) == lifted(y), \
                    (relation, direction, x, y)
        assert instances == 74_971

    # Recorded from the implementation that lifted each triple once per move.
    @pytest.mark.parametrize("bound, checked, longest", [
        (0, 7, 1), (1, 57, 7), (5, 685, 8), (15, 5133, 8), (30, 19375, 8)])
    def test_report_is_unchanged(self, bound, checked, longest):
        assert relation_lift_compatibility(bound).to_dict() == {
            "bound": bound,
            "checked_pairs": checked,
            "violations": [],
            "notes": {"max_lift_chain_length": longest},
        }


# ---------------------------------------------------------------------------
# Fault injection: a normal form that is wrong on two triples must show up in
# every verifier, pair by pair.  The verifiers read `canonical` through the
# atlas module's binding.  The expected reports were recorded before the
# relation-lift verifier moved to plain integers.

WRONG = {(S3, 1, 1, 0), (RP3, -1, -1, 0)}


def wrong_canonical(space, p, q, n, moves=None):
    """`canonical`, except that the triples in WRONG are left unreduced."""
    if (space, p, q, n) in WRONG:
        return p, q, n
    return canonical(space, p, q, n, moves)


def report(checked, violations, space=RP3, notes=None):
    """The expected to_dict() of a report at bound 1."""
    out = {
        "bound": 1,
        "checked_pairs": checked,
        "violations": [
            {"a": {"space": space.value, "p": a[0], "q": a[1], "n": a[2]},
             "b": {"space": space.value, "p": b[0], "q": b[1], "n": b[2]},
             "evidence": evidence}
            for a, b, evidence in violations],
    }
    if notes is not None:
        out["notes"] = notes
    return out


SPLIT = "union-find-equivalent but distinct normal forms"
JOINED = "equal normal forms but not union-find-equivalent"


class TestViolationsAreReported:
    @pytest.fixture(autouse=True)
    def inject(self, monkeypatch):
        monkeypatch.setattr(atlas_module, "canonical", wrong_canonical)

    def test_confluence_audit_s3(self):
        others = [(-1, -1, 0), (-1, 0, 0), (-1, 1, 0), (0, -1, 0), (0, 0, 1),
                  (0, 1, 0), (1, -1, 0), (1, 0, 0)]
        assert confluence_audit(S3, 1).to_dict() == report(
            351, [(a, (1, 1, 0), SPLIT) for a in others], S3)

    def test_confluence_audit_rp3(self):
        others = [(-1, 0, 0), (-1, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, 0), (1, 1, 0)]
        assert confluence_audit(RP3, 1).to_dict() == report(
            351, [((-1, -1, 0), b, SPLIT) for b in others])

    def test_lift_injectivity(self):
        assert verify_lift_injectivity(1).to_dict() == report(351, [
            ((-1, -1, 0), (-1, 0, 0),
             "isotopic lifts (S^3 class T[s3](0,0;1)) but distinct RP^3 classes"),
            ((-1, 0, 0), (1, 1, 0), "isotopic in RP^3 but lifts in distinct S^3 classes"),
        ])

    def test_relation_lift_compatibility(self):
        bad = "instance whose lifts are not S^3-isotopic"
        assert relation_lift_compatibility(1).to_dict() == report(57, [
            ((-1, -1, 0), (1, 1, 0), f"R1 fwd {bad}"),
            ((1, 1, 0), (-1, -1, 0), f"R1 fwd {bad}"),
            ((1, 1, 0), (0, 0, 1), f"R3 fwd {bad}"),
        ], notes={"max_lift_chain_length": 7})


# Twelve seeded wrong normal forms, six per space: a triple drawn from
# |p|, |q| <= 3 is given the normal form of another drawn triple.  That splits
# its own class and joins a foreign one, so at bounds 0-6 both directions of
# every cross-check report many groups at once, and the digests pin the order
# of the groups, of the subgroups within a group and of the pairs across
# them.  Recorded before the verifiers moved to plain triples and one pair
# enumerator.  Bounds 3-5 were re-recorded when the confluence closure
# shrank to the compared universe: a class's root is now its least triple
# there, which reorders the groups.  The violation sets did not change;
# test_seeded_fault_violations_are_the_oracles checks them.
def _seeded_wrong(seed=22282, per_space=6, bound=3):
    rng = random.Random(seed)
    span = range(-bound, bound + 1)
    triples = [(p, q, n) for p in span for q in span for n in (0, 1, 2)]
    return {(space, *a): canonical(space, *rng.choice(triples))
            for space in (S3, RP3) for a in rng.sample(triples, per_space)}


SEEDED_WRONG = _seeded_wrong()

SEEDED_DIGESTS = {
    0: "abb9bf5a619945e3b42ad5ccccaa1561794a125f2d5aaca5f32d01bf78185536",
    1: "1382f04ad126d487da778bd4605a43810909e01a8f0f02fef6664b3540d2a7df",
    2: "72ba47feb49c7c53ce4f6b582daadf98dbffe9b99ae45239454be6e523f54959",
    3: "1b33d7f772c6a4f5d5298cad7176351e4c41cc717bd20800d90f18ad219dec6c",
    4: "4200e219f786f2a383d310283b8c2acd76ed6eed1b9df8643036b19ccfb9f6fa",
    5: "ed848f402a1fb218ca0d67a8867124d7cdc9ae6652f675c28f4308e79e6699c9",
    6: "d4c7658f49263010353a8fa22468e946028a56ec00153f79370d82a055683e2e",
}


def seeded_wrong_canonical(space, p, q, n, moves=None):
    """`canonical`, except on the triples of SEEDED_WRONG."""
    wrong = SEEDED_WRONG.get((space, p, q, n))
    return canonical(space, p, q, n, moves) if wrong is None else wrong


@pytest.mark.parametrize("bound", sorted(SEEDED_DIGESTS))
def test_seeded_fault_reports_are_unchanged(monkeypatch, bound):
    monkeypatch.setattr(atlas_module, "canonical", seeded_wrong_canonical)
    outputs = {
        "confluence_s3": confluence_audit(S3, bound).to_dict(),
        "confluence_rp3": confluence_audit(RP3, bound).to_dict(),
        "lift_injectivity": verify_lift_injectivity(bound).to_dict(),
        "relation_lift": relation_lift_compatibility(bound).to_dict(),
        "atlas_s3": json_text(enumerate_classes(S3, bound)),
        "atlas_rp3": json_text(enumerate_classes(RP3, bound)),
    }
    text = json.dumps(outputs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_DIGESTS[bound]


def _triple(link: dict) -> tuple:
    return link["p"], link["q"], link["n"]


@pytest.mark.parametrize("space", [S3, RP3])
@pytest.mark.parametrize("bound", range(7))
def test_seeded_fault_violations_are_the_oracles(monkeypatch, space, bound):
    # The confluence report, as a set, from the closure oracle and the wrong
    # normal forms alone: two triples are reported when they share a class
    # but not a normal form, or a normal form but not a class.  A pair's a
    # lies in the subgroup (one class, one normal form) the scan meets
    # first, the one with the lesser least triple.
    monkeypatch.setattr(atlas_module, "canonical", seeded_wrong_canonical)
    violations = [(_triple(v["a"]), _triple(v["b"]), v["evidence"])
                  for v in confluence_audit(space, bound).to_dict()["violations"]]
    subgroups = {}
    for cls in closure_classes(space.value, bound):
        for t in cls:
            subgroups.setdefault((cls, seeded_wrong_canonical(space, *t)), set()).add(t)
    expected = set()
    for (cls_a, nf_a), ga in subgroups.items():
        for (cls_b, nf_b), gb in subgroups.items():
            if min(ga) < min(gb) and (cls_a == cls_b) != (nf_a == nf_b):
                evidence = SPLIT if cls_a == cls_b else JOINED
                expected |= {(x, y, evidence) for x in ga for y in gb}
    assert len(violations) == len(set(violations))
    assert set(violations) == expected


@pytest.mark.parametrize("space", [S3, RP3])
def test_a_kernel_fault_reaches_the_audit(monkeypatch, space):
    # The closure takes every image from the move kernel, so a kernel in
    # which R2 never applies splits classes that `canonical` still joins.
    monkeypatch.setattr(atlas_module, "_move", lambda space, relation, *rest:
                        None if relation is Relation.R2 else _move(space, relation, *rest))
    violations = confluence_audit(space, 2).violations
    assert violations
    assert {v["evidence"] for v in violations} == {JOINED}


@pytest.mark.parametrize("argv, count", [
    (["confluence", "--space", "s3"], 73),
    (["confluence", "--space", "rp3"], 53),
    (["lift-injectivity"], 20),
    (["relation-lift"], 14),
])
def test_verify_exits_1_on_a_violation(monkeypatch, capsys, argv, count):
    monkeypatch.setattr(atlas_module, "canonical", seeded_wrong_canonical)
    assert main(["verify", *argv, "--bound", "3"]) == 1
    assert len(json.loads(capsys.readouterr().out)["violations"]) == count
