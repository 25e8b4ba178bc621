"""JSJ trees: validation, potentials, outermost pieces, covers, quotients."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import projlink
from projlink.generators import _EDGE_LABELINGS, random_cover_spec, random_jsj_tree
from projlink.jsj import (
    CoverSpec,
    Geometry,
    JsjTree,
    RegionLabel,
    TreeEdge,
    TreeValidationError,
    _involution_violations,
    cover_from_dict,
    cover_to_dict,
    lemma44_check,
    outermost,
    potential,
    quotient,
    tree_to_dict,
    validate_tree,
)

ST, KHB, OTHER = (RegionLabel.SOLID_TORUS, RegionLabel.KNOTTED_HOLE_BALL,
                  RegionLabel.OTHER)
# The label pairs one torus may carry, (beyond u, beyond v).
ALLOWED_PAIRS = ((ST, ST), (ST, OTHER), (OTHER, ST), (KHB, OTHER), (OTHER, KHB))


def violations(raw):
    """The violations `validate_tree` raises for `raw`; [] for a valid tree."""
    try:
        validate_tree(raw)
    except TreeValidationError as err:
        return err.violations
    return []


def local_minima(tree, values):
    """Vertices whose potential is at most that of every neighbour."""
    minima = set(tree.vertices)
    for e in tree.edges:
        if values[e.u] > values[e.v]:
            minima.discard(e.u)
        elif values[e.v] > values[e.u]:
            minima.discard(e.v)
    return minima


def pruefer_trees(n):
    """The edges of every labelled tree on range(n), one per Pruefer sequence."""
    if n == 1:
        yield []
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = []
        for x in seq:
            leaf = degree.index(1)
            edges.append((leaf, x))
            degree[leaf] -= 1
            degree[x] -= 1
        edges.append(tuple(v for v in range(n) if degree[v] == 1))
        yield edges


def involutions(items):
    """Every involution of the list `items`, as a dict."""
    if not items:
        yield {}
        return
    first, rest = items[0], items[1:]
    for sigma in involutions(rest):
        yield {first: first, **sigma}
    for i, partner in enumerate(rest):
        for sigma in involutions(rest[:i] + rest[i + 1:]):
            yield {first: partner, partner: first, **sigma}


def raw_tree(vertices, edges):
    return {
        "vertices": [{"id": v, "geometry": "seifert"} for v in vertices],
        "edges": [
            {"u": u, "v": v, "label_beyond_u": lu.value, "label_beyond_v": lv.value}
            for u, v, lu, lv in edges
        ],
    }


class TestValidateTree:
    def test_single_vertex(self):
        tree = validate_tree(raw_tree(["a"], []))
        assert set(tree.vertices) == {"a"}

    # All 9 ordered pairs: the 5 accepted are the test's own ALLOWED_PAIRS
    # and the generators' table; each of the other 4 is reported with its labels.
    @pytest.mark.parametrize("lu, lv", list(itertools.product(RegionLabel, repeat=2)),
                             ids=lambda label: label.value)
    def test_label_pair(self, lu, lv):
        allowed = (lu, lv) in ALLOWED_PAIRS
        assert allowed is ((lu, lv) in _EDGE_LABELINGS)
        expected = [] if allowed else [
            ("FORBIDDEN_LABEL_PAIR", f"edge 'a'-'b' carries ({lu.value}, {lv.value})")]
        assert violations(raw_tree(["a", "b"], [("a", "b", lu, lv)])) == expected

    def test_missing_label(self):
        raw = raw_tree(["a", "b"], [("a", "b", ST, OTHER)])
        del raw["edges"][0]["label_beyond_v"]
        codes = [c for c, _ in violations(raw)]
        assert codes == ["UNLABELED_EDGE"]

    def test_cycle_rejected(self):
        raw = raw_tree(["a", "b", "c"],
                       [("a", "b", ST, OTHER), ("b", "c", ST, OTHER),
                        ("c", "a", ST, OTHER)])
        assert any(c == "NOT_A_TREE" for c, _ in violations(raw))

    def test_disconnected_rejected(self):
        raw = raw_tree(["a", "b", "c", "d"],
                       [("a", "b", ST, OTHER), ("c", "d", ST, OTHER)])
        with pytest.raises(TreeValidationError):
            validate_tree(raw)

    # Long chains and a high degree for the union-find of the shape check.
    @pytest.mark.parametrize("shape", ["path", "reversed path", "star"])
    def test_large_tree_shapes(self, shape):
        ids = [f"v{i}" for i in range(10_000)]
        pairs = ([(ids[0], b) for b in ids[1:]] if shape == "star"
                 else list(zip(ids, ids[1:]))[::-1 if shape == "reversed path" else 1])
        assert violations(raw_tree(ids, [(a, b, ST, OTHER) for a, b in pairs])) == []

    @pytest.mark.parametrize("step", [1, -1], ids=["forward", "reverse"])
    def test_long_path_with_a_cycle_and_an_isolated_vertex(self, step):
        ids = [f"v{i}" for i in range(10_000)]
        # v0..v9998 closed into a cycle, v9999 on its own: 9,999 edges.
        pairs = list(zip(ids[:-2], ids[1:-1])) + [(ids[-2], ids[0])]
        edges = [(a, b, ST, OTHER) for a, b in pairs][::step]
        assert violations(raw_tree(ids, edges)) == [("NOT_A_TREE", "graph is not connected")]

    # The parser reads JSON, which cannot carry an enum member: a member
    # where a wire value belongs is reported as any other non-wire value is.
    @pytest.mark.parametrize("label", list(RegionLabel))
    def test_label_member_is_not_a_wire_value(self, label):
        raw = raw_tree(["a", "b"], [("a", "b", ST, OTHER)])
        raw["edges"][0]["label_beyond_u"] = label
        assert violations(raw) == [("UNLABELED_EDGE", "edge 'a'-'b' lacks labels")]

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_geometry_member_is_not_a_wire_value(self, geometry):
        raw = raw_tree(["a", "b"], [("a", "b", ST, OTHER)])
        raw["vertices"][0]["geometry"] = geometry
        assert violations(raw) == [("NOT_A_TREE", "unknown geometry for vertex 'a'"),
                                   ("NOT_A_TREE", "bad edge endpoints 'a'-'b'")]

    @pytest.mark.parametrize("raw", [
        [],
        "tree",
        None,
        {"vertices": [1]},
        {"vertices": {"a": "seifert"}},
        {"vertices": [{"id": "a", "geometry": "seifert"}], "edges": None},
        {"vertices": [{"id": "a", "geometry": "seifert"}], "edges": [["a", "a"]]},
        {"vertices": [{"id": "a", "geometry": "seifert"},
                      {"id": "b", "geometry": "seifert"}],
         "edges": [{"u": ["a"], "v": "b", "label_beyond_u": "st",
                    "label_beyond_v": "other"}]},
    ])
    def test_non_tree_shapes_are_invalid_input(self, raw):
        assert "INVALID_INPUT" in [c for c, _ in violations(raw)]


class TestPotential:
    def test_single_vertex(self):
        tree = validate_tree(raw_tree(["a"], []))
        assert potential(tree) == {"a": 0}

    def test_oriented_edge(self):
        tree = validate_tree(raw_tree(["a", "b"], [("a", "b", ST, OTHER)]))
        assert potential(tree) == {"a": 0, "b": 1}

    def test_star_with_mixed_orientations(self):
        tree = validate_tree(raw_tree(
            ["c", "x", "y", "z"],
            [("c", "x", ST, OTHER), ("c", "y", KHB, OTHER),
             ("z", "c", ST, OTHER)]))
        assert potential(tree) == {"z": 0, "c": 1, "x": 2, "y": 2}

    def test_heegaard_edge_is_level(self):
        tree = validate_tree(raw_tree(["a", "b"], [("a", "b", ST, ST)]))
        assert potential(tree) == {"a": 0, "b": 0}

    # The potential of one edge a-b for each allowed (beyond a, beyond b),
    # worked by hand: level on solid tori, else the endpoint that a solid
    # torus or knotted hole ball encloses is one higher.
    HAND_POTENTIALS = {
        (ST, ST): {"a": 0, "b": 0},
        (ST, OTHER): {"a": 0, "b": 1},
        (OTHER, ST): {"a": 1, "b": 0},
        (KHB, OTHER): {"a": 0, "b": 1},
        (OTHER, KHB): {"a": 1, "b": 0},
    }

    # The walk starts at "a", so stored a-b it meets the edge at u, stored
    # b-a at v.
    @pytest.mark.parametrize("stored", ["a-b", "b-a"])
    @pytest.mark.parametrize("la, lb", ALLOWED_PAIRS, ids=lambda label: label.value)
    def test_every_allowed_pair_in_both_endpoint_orders(self, la, lb, stored):
        edge = ("a", "b", la, lb) if stored == "a-b" else ("b", "a", lb, la)
        tree = validate_tree(raw_tree(["a", "b"], [edge]))
        assert potential(tree) == self.HAND_POTENTIALS[la, lb]

    def test_unique_regardless_of_propagation_root(self):
        rng = random.Random(11)
        for _ in range(50):
            tree = random_jsj_tree(rng, rng.randint(1, 40))
            values = potential(tree)
            # re-derive from each vertex by brute shifting: the edge
            # constraints pin all differences, so any valid assignment with
            # min zero equals the computed one.  The orientation is read from
            # the labels: level between two solid tori, else up toward the
            # endpoint enclosed in the solid torus or knotted hole ball, the
            # one whose far side is OTHER.
            for u, v, lu, lv in tree.edges:
                if lu is ST and lv is ST:
                    assert values[u] == values[v]
                elif lv is OTHER:
                    assert values[u] + 1 == values[v]
                else:
                    assert values[v] + 1 == values[u]
            assert min(values.values()) == 0


class TestOutermost:
    def test_single_vertex(self):
        tree = validate_tree(raw_tree(["a"], []))
        assert outermost(tree) == {"a"}

    def test_oriented_edge(self):
        tree = validate_tree(raw_tree(["a", "b"], [("a", "b", ST, OTHER)]))
        assert outermost(tree) == {"a"}

    def test_heegaard_edge_has_two_outermost(self):
        tree = validate_tree(raw_tree(["a", "b"], [("a", "b", ST, ST)]))
        assert outermost(tree) == {"a", "b"}

    def test_random_trees_nonempty_and_consistent(self):
        # the label criterion equals the local-minimum criterion, and the
        # set is non-empty
        rng = random.Random(23)
        for _ in range(300):
            tree = random_jsj_tree(rng, rng.randint(1, 60))
            outer = outermost(tree)
            assert outer
            assert outer == local_minima(tree, potential(tree))

    def test_no_outermost_vertex_raises(self):
        # An edge with OTHER on both sides breaks the label constraints and
        # leaves no outermost vertex; this must raise under python -O too.
        tree = JsjTree({"a": Geometry.SEIFERT, "b": Geometry.SEIFERT},
                       (TreeEdge("a", "b", OTHER, OTHER),))
        with pytest.raises(ValueError):
            outermost(tree)


def path_cover():
    """The hand-built cover: two knotted-hole-ball copies swapped over a
    fixed central piece."""
    return cover_from_dict({
        "vertices": [
            {"id": "a", "geometry": "seifert"},
            {"id": "b1", "geometry": "hyperbolic"},
            {"id": "b2", "geometry": "hyperbolic"},
        ],
        "edges": [
            {"u": "a", "v": "b1", "label_beyond_u": "khb",
             "label_beyond_v": "other"},
            {"u": "a", "v": "b2", "label_beyond_u": "khb",
             "label_beyond_v": "other"},
        ],
        "involution": {"vertex_map": {"a": "a", "b1": "b2", "b2": "b1"}},
    })


class TestQuotient:
    def test_path_cover_quotients_to_one_edge(self):
        tree = quotient(path_cover())
        assert set(tree.vertices) == {"a", "b1"}
        assert tree.edges == (TreeEdge("a", "b1", KHB, OTHER),)

    def test_identity_quotient(self):
        spec = CoverSpec(
            JsjTree({"v": Geometry.SEIFERT}, ()), {"v": "v"})
        tree = quotient(spec)
        assert set(tree.vertices) == {"v"} and tree.edges == ()

    def test_endpoint_swapping_fixed_edge_rejected(self):
        spec = CoverSpec(
            JsjTree({"a": Geometry.SEIFERT, "b": Geometry.SEIFERT},
                    (TreeEdge("a", "b", ST, ST),)),
            {"a": "b", "b": "a"})
        with pytest.raises(TreeValidationError) as err:
            quotient(spec)
        assert any(c == "INVALID_INVOLUTION" for c, _ in err.value.violations)

    def test_fixed_knotted_hole_ball_edge_rejected(self):
        spec = CoverSpec(
            JsjTree({"a": Geometry.SEIFERT, "b": Geometry.SEIFERT},
                    (TreeEdge("a", "b", KHB, OTHER),)),
            {"a": "a", "b": "b"})
        with pytest.raises(TreeValidationError):
            quotient(spec)

    def test_label_mismatch_rejected(self):
        spec = CoverSpec(
            JsjTree(
                {"a": Geometry.SEIFERT, "b": Geometry.SEIFERT,
                 "c": Geometry.SEIFERT},
                (TreeEdge("a", "b", ST, OTHER), TreeEdge("a", "c", OTHER, ST))),
            {"a": "a", "b": "c", "c": "b"})
        with pytest.raises(TreeValidationError):
            quotient(spec)

    def test_heegaard_fixed_edge_survives(self):
        spec = CoverSpec(
            JsjTree({"a": Geometry.SEIFERT, "b": Geometry.SEIFERT},
                    (TreeEdge("a", "b", ST, ST),)),
            {"a": "a", "b": "b"})
        assert quotient(spec).edges == (TreeEdge("a", "b", ST, ST),)

    def test_vertex_counts(self):
        rng = random.Random(5)
        for _ in range(100):
            spec = random_cover_spec(rng, rng.randint(1, 40))
            fixed = sum(1 for v, w in spec.vertex_map.items() if v == w)
            tree = quotient(spec)
            assert len(spec.cover.vertices) == 2 * len(tree.vertices) - fixed

    def test_vertex_order_follows_the_cover(self):
        spec = random_cover_spec(random.Random(3), 8)
        sigma = spec.vertex_map
        assert list(quotient(spec).vertices) == [
            v for v in spec.cover.vertices if v <= sigma[v]]

    def test_vertex_order_does_not_depend_on_the_hash_seed(self):
        script = ("import random\n"
                  "from projlink.generators import random_cover_spec\n"
                  "from projlink.jsj import quotient\n"
                  "print(list(quotient(random_cover_spec(random.Random(3), 8)).vertices))\n")
        src = os.path.dirname(os.path.dirname(projlink.__file__))
        orders = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            orders.add(proc.stdout)
        assert len(orders) == 1

    def test_quotient_of_every_small_valid_cover_is_a_valid_tree(self):
        # Every tree on 1-4 vertices, every allowed label pair on each edge and
        # every involution of the vertex set: 20,311 specs, of which 658 pass
        # the involution checks.  quotient does not re-check its result.
        covers = 0
        for n in range(1, 5):
            ids = [f"v{i}" for i in range(n)]
            sigmas = list(involutions(ids))
            for shape in pruefer_trees(n):
                for labels in itertools.product(ALLOWED_PAIRS, repeat=len(shape)):
                    tree = validate_tree(raw_tree(ids, [
                        (ids[u], ids[v], lu, lv) for (u, v), (lu, lv) in zip(shape, labels)]))
                    for sigma in sigmas:
                        spec = CoverSpec(tree, sigma)
                        if _involution_violations(spec):
                            continue
                        covers += 1
                        assert violations(tree_to_dict(quotient(spec))) == []
        assert covers == 658

    def test_quotient_of_random_covers_is_a_valid_tree(self):
        rng = random.Random(13)
        for size in range(1, 121):
            spec = random_cover_spec(rng, size, move_bias=rng.random())
            assert violations(tree_to_dict(quotient(spec))) == []


class TestLemma44:
    def test_path_cover_agreement(self):
        entries = lemma44_check(path_cover())
        by_vertex = {e.vertex: e for e in entries}
        assert by_vertex["a"].criterion and by_vertex["a"].outermost
        assert not by_vertex["b1"].criterion and not by_vertex["b1"].outermost
        assert all(e.agree for e in entries)

    def test_swapped_pair_is_not_outermost(self):
        entries = lemma44_check(path_cover())
        moved = next(e for e in entries if len(e.orbit) == 2)
        assert not moved.criterion and not moved.outermost

    def test_fixed_vertex_with_odd_other_count(self):
        # A fixed piece sitting inside a solid torus: one non-solid-torus
        # far-side region upstairs, so the parity criterion fails and the
        # piece is not outermost.
        spec = cover_from_dict({
            "vertices": [
                {"id": "m", "geometry": "hyperbolic"},
                {"id": "s", "geometry": "seifert"},
            ],
            "edges": [
                {"u": "s", "v": "m", "label_beyond_u": "st",
                 "label_beyond_v": "other"},
            ],
            "involution": {"vertex_map": {"m": "m", "s": "s"}},
        })
        entries = {e.vertex: e for e in lemma44_check(spec)}
        assert not entries["m"].criterion and not entries["m"].outermost
        assert entries["s"].criterion and entries["s"].outermost
        assert all(e.agree for e in entries.values())

    def test_random_covers_have_no_mismatches(self):
        rng = random.Random(97)
        for _ in range(200):
            spec = random_cover_spec(rng, rng.randint(1, 50))
            assert all(e.agree for e in lemma44_check(spec))

    @pytest.mark.parametrize("involution", [
        [],
        None,
        {"vertex_map": {"a": ["a"], "b1": "b2", "b2": "b1"}},
        {"vertex_map": {"a": "a", "b1": {"b2": 1}, "b2": "b1"}},
    ])
    def test_malformed_involution_is_invalid_input(self, involution):
        raw = cover_to_dict(path_cover())
        raw["involution"] = involution
        with pytest.raises(TreeValidationError) as err:
            cover_from_dict(raw)
        assert [c for c, _ in err.value.violations] == ["INVALID_INPUT"]

    def test_serialization_roundtrip(self):
        spec = path_cover()
        again = cover_from_dict(cover_to_dict(spec))
        assert tree_to_dict(again.cover) == tree_to_dict(spec.cover)
        assert again.vertex_map == spec.vertex_map
