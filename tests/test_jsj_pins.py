"""Pins on the JSJ layer: generator streams, violation lists and CLI stdout.

The SHA-256 digests below were recorded from the two-pass tree parser
(one walk of the raw dict listing its violations, then `validate_tree`
walking it again) that the single parser replaced, and from the generators
before their constants moved to module level.  They pin, byte for byte,
the trees and covers every seed yields, the violation list of every
malformed tree in a fixed corpus, and what `projlink jsj` prints on valid
and invalid inputs.
The generator-state digest was recorded from the cover generator that kept
a separate visited set and index counter in its breadth-first walk.
The cover digest was recorded from the involution check that keyed edges
by frozensets of their endpoints and the quotient that named each orbit
with a `min` call per vertex.
"""

import contextlib
import copy
import hashlib
import io
import json
import random

import pytest

from projlink.cli import main
from projlink.generators import random_cover_spec, random_jsj_tree
from projlink.jsj import (
    TreeValidationError,
    cover_from_dict,
    cover_to_dict,
    lemma44_check,
    quotient,
    tree_to_dict,
    validate_tree,
)

TREE_SIZES = (0, 1, 2, 3, 7, 30, 200)
COVER_SIZES = (1, 2, 5, 20, 120)
MOVE_BIASES = (0.0, 0.5, 1.0)

STREAM_DIGESTS = {
    "trees": "6e9ec4abbc17a8aebdcd26cbc3ac6b6bbef82142c04d0f226afa13c0698f9249",
    "covers": "85ad0794dc709c068c7b8fd45dc10cc7d841940a207a9606302fd5b6a26e036d",
}
# The stream digests miss a change that draws extra numbers after a call's
# last pick; this one hashes the generator's state after every call.
RNG_STATE_DIGEST = "a055a558a3fd8ef9bebe5ab03574ca76e3004a2fa86e3078e1626f559faef69d"
COVER_VIOLATIONS_DIGEST = "afe2eb9ede8167d1381cd8e258b73938113c249de36047df8ac379bbdfa9b86f"
VIOLATIONS_DIGEST = "f85f73a7b779d5399a3ddbea9aa28c9cf5778902e83842c1ad5af49fbce67c89"
STDOUT_DIGESTS = {
    "outermost": "78cbcce4e9afb15b1759b330c31ba0f83fd02733969005ea4deec9984174666b",
    "cover-check": "f1f5840961b592a54a9f1f0425ef14141cd846c66fcfcef6bf792ed09880d7e2",
    "hand": "d7cda95a129653d05e4894326834896e27ce38a5aab59fabe4066a29fff6a85e",
}


def _canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def tree_stream_digest() -> str:
    """One generator per seed, asked for every size in turn."""
    digest = hashlib.sha256()
    for seed in range(40):
        rng = random.Random(seed)
        for size in TREE_SIZES:
            digest.update(_canonical_json(tree_to_dict(random_jsj_tree(rng, size))))
    return digest.hexdigest()


def cover_stream_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(40):
        rng = random.Random(seed)
        for size in COVER_SIZES:
            for bias in MOVE_BIASES:
                spec = random_cover_spec(rng, size, move_bias=bias)
                digest.update(_canonical_json(cover_to_dict(spec)))
    return digest.hexdigest()


def rng_state_digest() -> str:
    """repr(rng.getstate()) after every call of both streams, size-0 covers included."""
    digest = hashlib.sha256()
    for seed in range(40):
        rng = random.Random(seed)
        for size in TREE_SIZES:
            random_jsj_tree(rng, size)
            digest.update(repr(rng.getstate()).encode())
        rng = random.Random(seed)
        for size in (0,) + COVER_SIZES:
            for bias in MOVE_BIASES:
                if size:
                    random_cover_spec(rng, size, move_bias=bias)
                else:
                    with pytest.raises(ValueError):
                        random_cover_spec(rng, size, move_bias=bias)
                digest.update(repr(rng.getstate()).encode())
    return digest.hexdigest()


# Hand-written malformed trees, one per violation and one per corner of the
# checks' short-circuit order.
HAND_CORPUS = [
    {},
    {"vertices": []},
    {"edges": [{"u": "a", "v": "b"}]},
    {"vertices": [{"id": "a", "geometry": "seifert"}] * 2},
    {"vertices": [{"id": 7, "geometry": "seifert"}, {"geometry": "seifert"}]},
    {"vertices": [{"id": "a", "geometry": "euclidean"},
                  {"id": "b", "geometry": ["seifert"]}, {"id": "c"}]},
    {"vertices": [{"id": "a", "geometry": "seifert"}],
     "edges": [{"u": "a", "v": "a", "label_beyond_u": "st",
                "label_beyond_v": "st"}]},
    # the first endpoint is already unknown, so the second is never looked up
    {"vertices": [{"id": "a", "geometry": "seifert"}],
     "edges": [{"u": "zz", "v": ["a"], "label_beyond_u": "st",
                "label_beyond_v": "st"}]},
    {"vertices": [{"id": "a", "geometry": "seifert"},
                  {"id": "b", "geometry": "seifert"}],
     "edges": [{"u": "a", "v": "b", "label_beyond_u": ["st"],
                "label_beyond_v": "other"}]},
    {"vertices": [{"id": "a", "geometry": "seifert"},
                  {"id": "b", "geometry": "seifert"}],
     "edges": [{"u": "a", "v": "b", "label_beyond_u": "st",
                "label_beyond_v": None}]},
    {"vertices": [{"id": "a", "geometry": "seifert"},
                  {"id": "b", "geometry": "hyperbolic"},
                  {"id": "c", "geometry": "seifert"}],
     "edges": [{"u": "a", "v": "b", "label_beyond_u": "khb",
                "label_beyond_v": "st"},
               {"u": "b", "v": "c", "label_beyond_u": "other",
                "label_beyond_v": "other"},
               {"u": "c", "v": "a", "label_beyond_u": "st",
                "label_beyond_v": "st"}]},
    # the right number of edges, but a cycle and an isolated vertex
    {"vertices": [{"id": x, "geometry": "hyperbolic"} for x in "abcd"],
     "edges": [{"u": u, "v": v, "label_beyond_u": "st", "label_beyond_v": "st"}
               for u, v in ("ab", "bc", "ca")]},
]


def _path_cover(vertex_map, label="khb") -> dict:
    return {
        "vertices": [{"id": "a", "geometry": "seifert"},
                     {"id": "b1", "geometry": "hyperbolic"},
                     {"id": "b2", "geometry": "hyperbolic"}],
        "edges": [{"u": "a", "v": b, "label_beyond_u": label,
                   "label_beyond_v": "other"} for b in ("b1", "b2")],
        "involution": {"vertex_map": vertex_map},
    }


# Covers whose involution is missing or breaks one rule each, and one valid.
HAND_COVERS = [
    {k: v for k, v in _path_cover({}).items() if k != "involution"},
    _path_cover({"a": "a", "b1": "b1"}),
    _path_cover({"a": "b1", "b1": "b2", "b2": "a"}),
    _path_cover({"a": "a", "b1": "b1", "b2": "b2"}),
    _path_cover({"a": "b1", "b1": "a", "b2": "b2"}),
    _path_cover({"a": "a", "b1": "b2", "b2": "b1"}, label="st"),
]


def _mutate(rng: random.Random, raw: dict) -> None:
    """Break a valid raw tree in one of the ways the checks look for."""
    vertices, edges = raw["vertices"], raw["edges"]
    ids = [entry.get("id") for entry in vertices] or ["v0"]
    kind = rng.randrange(14)
    if kind == 0 and vertices:
        rng.choice(vertices)["id"] = rng.choice(ids)
    elif kind == 1 and vertices:
        rng.choice(vertices)["id"] = rng.choice([7, None, 1.5, ["v0"]])
    elif kind == 2 and vertices:
        rng.choice(vertices).pop("id", None)
    elif kind == 3 and vertices:
        rng.choice(vertices)["geometry"] = rng.choice(
            ["euclidean", None, 3, ["seifert"], "SEIFERT"])
    elif kind == 4 and vertices:
        vertices.pop(rng.randrange(len(vertices)))
    elif kind == 5 and edges:
        entry = rng.choice(edges)
        entry[rng.choice("uv")] = rng.choice(["zz", 0, None, True] + ids)
    elif kind == 6 and edges:
        rng.choice(edges).pop(rng.choice(["label_beyond_u", "label_beyond_v"]), None)
    elif kind == 7 and edges:
        rng.choice(edges)[rng.choice(["label_beyond_u", "label_beyond_v"])] = \
            rng.choice(["torus", None, 0, ["st"], {"st": 1}, "ST"])
    elif kind == 8 and edges:
        entry = rng.choice(edges)
        entry["label_beyond_u"] = rng.choice(["st", "khb", "other"])
        entry["label_beyond_v"] = rng.choice(["st", "khb", "other"])
    elif kind == 9 and edges:
        edges.pop(rng.randrange(len(edges)))
    elif kind == 10 and len(ids) >= 2:
        u, v = rng.sample(ids, 2)
        edges.append({"u": u, "v": v, "label_beyond_u": "st",
                      "label_beyond_v": "other"})
    elif kind == 11 and edges:
        edges.append(copy.deepcopy(rng.choice(edges)))
    elif kind == 12:
        raw[rng.choice(["vertices", "edges"])] = []
    elif kind == 13 and edges:
        entry = rng.choice(edges)
        entry["u"], entry["v"] = entry["v"], entry["u"]


def malformed_corpus() -> list[dict]:
    rng = random.Random(2024)
    corpus = copy.deepcopy(HAND_CORPUS)
    for _ in range(600):
        raw = tree_to_dict(random_jsj_tree(rng, rng.randint(1, 12)))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, raw)
        corpus.append(raw)
    return corpus


def violations(raw) -> list[tuple[str, str]]:
    """The violations `validate_tree` raises for `raw`; [] for a valid tree."""
    try:
        validate_tree(raw)
    except TreeValidationError as err:
        return err.violations
    return []


def violations_digest() -> str:
    digest = hashlib.sha256()
    for raw in malformed_corpus():
        digest.update(_canonical_json(violations(raw)) + b"\n")
    return digest.hexdigest()


def _mutate_cover(rng: random.Random, raw: dict) -> None:
    """Break a valid raw cover in one of the ways the cover checks look for,
    or store one edge the other way round, which keeps it valid."""
    vertices, edges = raw["vertices"], raw["edges"]
    vmap = raw["involution"]["vertex_map"]
    ids = list(vmap)
    kind = rng.randrange(7)
    if kind == 0 and len(ids) >= 2:
        v, w = rng.sample(ids, 2)
        vmap[v], vmap[w] = vmap[w], vmap[v]
    elif kind == 1:
        vmap[rng.choice(ids)] = "zz"
    elif kind == 2 and edges:
        entry = rng.choice(edges)
        side = rng.choice(["label_beyond_u", "label_beyond_v"])
        entry[side] = rng.choice([x for x in ("st", "khb", "other") if x != entry[side]])
    elif kind == 3:
        entry = rng.choice(vertices)
        entry["geometry"] = "seifert" if entry["geometry"] == "hyperbolic" else "hyperbolic"
    elif kind == 4:
        fixed = [e for e in edges if vmap.get(e["u"]) == e["u"] and vmap.get(e["v"]) == e["v"]]
        if fixed:
            entry = rng.choice(fixed)
            vmap[entry["u"]], vmap[entry["v"]] = entry["v"], entry["u"]
    elif kind == 5:
        khb = [e for e in edges if "khb" in (e["label_beyond_u"], e["label_beyond_v"])]
        if khb:
            entry = rng.choice(khb)
            for x in (entry["u"], entry["v"]):
                w = vmap.get(x)
                vmap[x] = x
                if w in vmap:
                    vmap[w] = w
    elif kind == 6 and edges:
        entry = rng.choice(edges)
        entry["u"], entry["v"] = entry["v"], entry["u"]
        entry["label_beyond_u"], entry["label_beyond_v"] = \
            entry["label_beyond_v"], entry["label_beyond_u"]


def mutated_covers() -> list[dict]:
    rng = random.Random(2025)
    corpus = []
    for _ in range(500):
        raw = cover_to_dict(random_cover_spec(rng, rng.randint(1, 12),
                                              move_bias=rng.choice(MOVE_BIASES)))
        for _ in range(rng.randint(1, 3)):
            _mutate_cover(rng, raw)
        corpus.append(raw)
    return corpus


def cover_outcome(raw: dict) -> list:
    """A cover's violations, or its quotient's vertices and edges in order
    and its `lemma44_check` entries."""
    try:
        spec = cover_from_dict(raw)
        down = quotient(spec)
    except TreeValidationError as err:
        return err.violations
    return [[[v, g.value] for v, g in down.vertices.items()],
            [[u, v, lu.value, lv.value] for u, v, lu, lv in down.edges],
            [list(entry) for entry in lemma44_check(spec)]]


def cover_violations_digest() -> str:
    digest = hashlib.sha256()
    for raw in mutated_covers():
        digest.update(_canonical_json(cover_outcome(raw)) + b"\n")
    return digest.hexdigest()


def _jsj_stdout(tmp_path, subcommand: str, payload) -> tuple[int, bytes]:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["jsj", subcommand, str(path)])
    return code, out.getvalue().encode()


def cli_digests(tmp_path) -> dict[str, str]:
    """Digests of concatenated stdout, with each invocation's exit code."""
    rng = random.Random(77)
    digests = {}
    runs = {
        "outermost": [("outermost", tree_to_dict(random_jsj_tree(rng, size)))
                      for size in (1, 2, 9, 40, 150)],
        "cover-check": [("cover-check", cover_to_dict(random_cover_spec(rng, size)))
                        for size in (1, 3, 12, 60)],
        "hand": [("outermost", raw) for raw in HAND_CORPUS]
                   + [("cover-check", raw) for raw in HAND_COVERS],
    }
    for name, calls in runs.items():
        digest = hashlib.sha256()
        for subcommand, payload in calls:
            code, stdout = _jsj_stdout(tmp_path, subcommand, payload)
            digest.update(f"{code}\n".encode() + stdout)
        digests[name] = digest.hexdigest()
    return digests


def test_tree_stream_is_unchanged():
    assert tree_stream_digest() == STREAM_DIGESTS["trees"]


def test_cover_stream_is_unchanged():
    assert cover_stream_digest() == STREAM_DIGESTS["covers"]


def test_generator_states_are_unchanged():
    assert rng_state_digest() == RNG_STATE_DIGEST


def test_violation_lists_are_unchanged():
    assert violations_digest() == VIOLATIONS_DIGEST


def test_cover_violation_lists_and_quotients_are_unchanged():
    assert cover_violations_digest() == COVER_VIOLATIONS_DIGEST


def test_hand_corpus_violations():
    got = [violations(raw) for raw in HAND_CORPUS]
    assert got[0] == [("NOT_A_TREE", "no vertices")]
    assert got[7] == [("NOT_A_TREE", "bad edge endpoints 'zz'-['a']")]
    assert got[8] == [("UNLABELED_EDGE", "edge 'a'-'b' lacks labels")]
    assert got[10] == [
        ("FORBIDDEN_LABEL_PAIR", "edge 'a'-'b' carries (khb, st)"),
        ("FORBIDDEN_LABEL_PAIR", "edge 'b'-'c' carries (other, other)"),
        ("NOT_A_TREE", "3 vertices need 2 edges, got 3")]
    assert got[11] == [("NOT_A_TREE", "graph is not connected")]


def test_jsj_stdout_is_unchanged(tmp_path):
    assert cli_digests(tmp_path) == STDOUT_DIGESTS
