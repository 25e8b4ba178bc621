"""Combinatorial JSJ trees of link complements in RP^3 and their double covers.

Vertices are decomposition pieces, edges are the decomposing tori.  Each
edge carries two region labels, one per side, describing the component of
the ambient space on the far side of the torus from each endpoint: a solid
torus, a knotted hole ball, or something else.  Label pairings are
constrained: a torus in RP^3 cannot bound a knotted hole ball against a
solid torus, the complement of a knotted hole ball is never one of the two,
and at least one side is always a solid torus or a knotted hole ball.

Edges acquire a derived orientation (toward the endpoint enclosed in the
solid torus or knotted hole ball; Heegaard tori stay unoriented), which
induces an integer potential on the vertices.  Outermost pieces are the
local minima of the potential.

A cover is a tree together with an involutive automorphism, modeling the
preimage of the decomposition in S^3.  A fixed edge may not swap its
endpoints (that would quotient to a one-sided torus) and knotted hole
balls always lift to two copies, so edges touching them must be moved.

Each raw tree is read in one pass: `_parse_tree` returns the typed tree or
every violation in input order, and `tree_violations` and `validate_tree`
wrap it.  Only `potential` walks the tree, so the adjacency is built once
per tree, there.  `outermost` is the label criterion read off each edge's
labels; that it equals the local minima of the potential and is never
empty on a valid tree is checked by the tests, not at run time.
`lemma44_check` counts the cover's far-side labels in one pass over its
edges, and checks the quotient on its typed edges.  The four records are
named tuples.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum


class RegionLabel(Enum):
    SOLID_TORUS = "st"
    KNOTTED_HOLE_BALL = "khb"
    OTHER = "other"


class Geometry(Enum):
    HYPERBOLIC = "hyperbolic"
    SEIFERT = "seifert"


# Wire values to members, found as Enum(value) finds them (members stand
# for themselves) without its per-call cost.
_LABELS = {**{label.value: label for label in RegionLabel},
           **{label: label for label in RegionLabel}}
_GEOMETRIES = {**{geom.value: geom for geom in Geometry},
               **{geom: geom for geom in Geometry}}


class TreeEdge(namedtuple("TreeEdge", "u v label_beyond_u label_beyond_v")):
    # label_beyond_x: the region on the far side of the torus from x.
    __slots__ = ()

    def endpoints(self) -> frozenset[str]:
        return frozenset({self.u, self.v})

    def label_away_from(self, vertex: str) -> RegionLabel:
        if vertex == self.u:
            return self.label_beyond_u
        if vertex == self.v:
            return self.label_beyond_v
        raise KeyError(vertex)

    def other_end(self, vertex: str) -> str:
        return self.v if vertex == self.u else self.u


class JsjTree(namedtuple("JsjTree", "vertices edges")):
    __slots__ = ()  # vertices: id -> Geometry; edges: a tuple of TreeEdges

    def adjacency(self) -> dict[str, list[TreeEdge]]:
        adj: dict[str, list[TreeEdge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        return adj


class CoverSpec(namedtuple("CoverSpec", "cover vertex_map")):
    __slots__ = ()  # vertex_map: the involution on vertex ids


class CoverCheckEntry(namedtuple("CoverCheckEntry",
                                 "vertex orbit outermost criterion agree")):
    # outermost: the label criterion in the quotient; criterion: a connected
    # preimage (orbit) and an even non-solid-torus count upstairs.
    __slots__ = ()


class TreeValidationError(Exception):
    """Carries the list of (code, detail) constraint violations."""

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations
        super().__init__("; ".join(f"{c}: {d}" for c, d in violations))


def _allowed_pair(lu: RegionLabel, lv: RegionLabel) -> bool:
    """Whether one torus may carry these labels: exactly one side OTHER
    (solid torus or knotted hole ball against other), or solid tori on
    both sides."""
    return (lu is RegionLabel.OTHER) is not (lv is RegionLabel.OTHER) or \
        lu is lv is RegionLabel.SOLID_TORUS


def _shape_violations(vertices: dict, pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """NOT_A_TREE violations of a graph whose edges join distinct vertices."""
    if not vertices:
        return [("NOT_A_TREE", "no vertices")]
    if len(pairs) != len(vertices) - 1:
        return [("NOT_A_TREE", f"{len(vertices)} vertices need "
                               f"{len(vertices) - 1} edges, got {len(pairs)}")]
    # With one edge fewer than vertices, the graph is connected exactly when
    # it has no cycle, and a cycle shows as an edge inside one class of a
    # union-find (path halving).
    parent = {v: v for v in vertices}
    for u, v in pairs:
        while (up := parent[u]) != u:
            parent[u] = u = parent[up]
        while (vp := parent[v]) != v:
            parent[v] = v = parent[vp]
        if u == v:
            return [("NOT_A_TREE", "graph is not connected")]
        parent[u] = v
    return []


def _parse_tree(raw) -> tuple[JsjTree | None, list[tuple[str, str]]]:
    """Read a raw tree description in one pass.

    Returns the typed tree and no violations, or None and every violation
    in input order.  A value of the wrong JSON type where the checks look
    (a document or entry that is not an object, vertices or edges that are
    not a list, an edge endpoint that cannot be hashed) is an INVALID_INPUT
    violation, not an exception.
    """
    if not isinstance(raw, dict):
        return None, [("INVALID_INPUT",
                        f"a tree must be an object, got {type(raw).__name__}")]
    raw_vertices, raw_edges = raw.get("vertices", []), raw.get("edges", [])
    for key, value in (("vertices", raw_vertices), ("edges", raw_edges)):
        if not isinstance(value, (list, tuple)):
            return None, [("INVALID_INPUT",
                            f"{key} must be a list, got {type(value).__name__}")]

    violations: list[tuple[str, str]] = []
    broken = False  # a NOT_A_TREE or INVALID_INPUT: the shape is not checked
    vertices: dict[str, Geometry] = {}
    for entry in raw_vertices:
        if not isinstance(entry, dict):
            violations.append(
                ("INVALID_INPUT", f"a vertex must be an object, got {type(entry).__name__}"))
            broken = True
            continue
        vid = entry.get("id")
        if not isinstance(vid, str) or vid in vertices:
            violations.append(("NOT_A_TREE", f"bad or duplicate vertex id {vid!r}"))
            broken = True
            continue
        try:
            vertices[vid] = _GEOMETRIES[entry.get("geometry")]
        except (KeyError, TypeError):
            violations.append(
                ("NOT_A_TREE", f"unknown geometry for vertex {vid!r}"))
            broken = True

    edges: list[TreeEdge] = []
    pairs: list[tuple[str, str]] = []  # edges with usable endpoints
    for entry in raw_edges:
        if not isinstance(entry, dict):
            violations.append(
                ("INVALID_INPUT", f"an edge must be an object, got {type(entry).__name__}"))
            broken = True
            continue
        u, v = entry.get("u"), entry.get("v")
        try:
            bad_ends = u not in vertices or v not in vertices or u == v
        except TypeError:  # an endpoint that cannot be hashed, such as a list
            violations.append(
                ("INVALID_INPUT", f"edge endpoints must be vertex ids, got "
                                  f"{type(u).__name__}-{type(v).__name__}"))
            broken = True
            continue
        if bad_ends:
            violations.append(("NOT_A_TREE", f"bad edge endpoints {u!r}-{v!r}"))
            broken = True
            continue
        pairs.append((u, v))
        try:
            lu = _LABELS[entry["label_beyond_u"]]
            lv = _LABELS[entry["label_beyond_v"]]
        except (KeyError, TypeError):
            violations.append(("UNLABELED_EDGE", f"edge {u!r}-{v!r} lacks labels"))
            continue
        if not _allowed_pair(lu, lv):
            violations.append((
                "FORBIDDEN_LABEL_PAIR",
                f"edge {u!r}-{v!r} carries ({lu.value}, {lv.value})"))
        edges.append(TreeEdge(u, v, lu, lv))

    if not broken or not vertices:
        violations.extend(_shape_violations(vertices, pairs))
    if violations:
        return None, violations
    return JsjTree(vertices, tuple(edges)), []


def tree_violations(raw: dict) -> list[tuple[str, str]]:
    """All constraint violations of a raw tree description."""
    return _parse_tree(raw)[1]


def validate_tree(raw: dict) -> JsjTree:
    """Parse and validate a raw tree description; raises on any violation."""
    tree, violations = _parse_tree(raw)
    if violations:
        raise TreeValidationError(violations)
    return tree


def tree_to_dict(tree: JsjTree) -> dict:
    # `_value_`, a plain attribute: `value` is a Python-level property on 3.11.
    return {
        "vertices": [
            {"id": vid, "geometry": geom._value_}
            for vid, geom in sorted(tree.vertices.items())
        ],
        "edges": [
            {
                "u": e.u, "v": e.v,
                "label_beyond_u": e.label_beyond_u._value_,
                "label_beyond_v": e.label_beyond_v._value_,
            }
            for e in tree.edges
        ],
    }


def edge_orientation(edge: TreeEdge) -> tuple[str, str] | None:
    """Derived orientation (tail, head), or None for a Heegaard edge.

    The head endpoint is the one enclosed in the solid torus or knotted
    hole ball on its side of the torus.
    """
    lu, lv = edge.label_beyond_u, edge.label_beyond_v
    if lu is RegionLabel.SOLID_TORUS and lv is RegionLabel.SOLID_TORUS:
        return None
    if lu is not RegionLabel.OTHER:
        return (edge.u, edge.v)
    return (edge.v, edge.u)


def potential(tree: JsjTree) -> dict[str, int]:
    """The unique vertex potential, normalized to minimum zero.

    Increases by one along every oriented edge and is constant across
    Heegaard edges; existence and uniqueness follow from connectedness and
    acyclicity.
    """
    values: dict[str, int] = {}
    adj = tree.adjacency()
    root = min(tree.vertices)
    values[root] = 0
    stack = [root]
    while stack:
        x = stack.pop()
        for e in adj[x]:
            y = e.other_end(x)
            if y in values:
                continue
            orient = edge_orientation(e)
            if orient is None:
                values[y] = values[x]
            elif orient == (x, y):
                values[y] = values[x] + 1
            else:
                values[y] = values[x] - 1
            stack.append(y)
    low = min(values.values())
    return {v: f - low for v, f in values.items()}


def outermost(tree: JsjTree) -> set[str]:
    """Vertices all of whose far-side regions are solid tori or knotted
    hole balls.

    On a valid tree the set is non-empty and equals the local minima of the
    potential; the tests check both.  A tree with no such vertex breaks the
    label constraints and raises ValueError.
    """
    result = set(tree.vertices)
    for e in tree.edges:
        if e.label_beyond_u is RegionLabel.OTHER:
            result.discard(e.u)
        if e.label_beyond_v is RegionLabel.OTHER:
            result.discard(e.v)
    if not result:
        raise ValueError("no outermost vertex: the tree breaks the label constraints")
    return result


# ---------------------------------------------------------------------------
# Covers and quotients.


def _involution_violations(spec: CoverSpec) -> list[tuple[str, str]]:
    tree, sigma = spec.cover, spec.vertex_map
    violations: list[tuple[str, str]] = []
    if set(sigma) != set(tree.vertices) or set(sigma.values()) != set(tree.vertices):
        return [("INVALID_INVOLUTION", "vertex map is not a permutation")]
    for v, w in sigma.items():
        if sigma[w] != v:
            violations.append(
                ("INVALID_INVOLUTION", f"map is not an involution at {v!r}"))
        if tree.vertices[v] is not tree.vertices[w]:
            violations.append(
                ("INVALID_INVOLUTION", f"geometry differs on orbit {v!r}/{w!r}"))
    if violations:
        return violations

    by_ends = {e.endpoints(): e for e in tree.edges}
    for e in tree.edges:
        image_ends = frozenset({sigma[e.u], sigma[e.v]})
        image = by_ends.get(image_ends)
        if image is None:
            violations.append(
                ("INVALID_INVOLUTION",
                 f"image of edge {e.u!r}-{e.v!r} is not an edge"))
            continue
        if image.label_away_from(sigma[e.u]) != e.label_beyond_u or \
                image.label_away_from(sigma[e.v]) != e.label_beyond_v:
            violations.append(
                ("INVALID_INVOLUTION",
                 f"labels not preserved on edge {e.u!r}-{e.v!r}"))
        if image_ends == e.endpoints():
            if sigma[e.u] == e.v:
                violations.append(
                    ("INVALID_INVOLUTION",
                     f"fixed edge {e.u!r}-{e.v!r} swaps its endpoints"))
            if RegionLabel.KNOTTED_HOLE_BALL in (e.label_beyond_u,
                                                 e.label_beyond_v):
                violations.append(
                    ("INVALID_INVOLUTION",
                     f"knotted-hole-ball edge {e.u!r}-{e.v!r} is fixed"))
    return violations


def _quotient_violations(tree: JsjTree) -> list[tuple[str, str]]:
    """The parser's checks, on the typed quotient."""
    violations: list[tuple[str, str]] = []
    pairs: list[tuple[str, str]] = []
    for e in tree.edges:
        if e.u not in tree.vertices or e.v not in tree.vertices or e.u == e.v:
            violations.append(("NOT_A_TREE", f"bad edge endpoints {e.u!r}-{e.v!r}"))
            continue
        pairs.append((e.u, e.v))
        if not _allowed_pair(e.label_beyond_u, e.label_beyond_v):
            violations.append((
                "FORBIDDEN_LABEL_PAIR",
                f"edge {e.u!r}-{e.v!r} carries "
                f"({e.label_beyond_u.value}, {e.label_beyond_v.value})"))
    if not tree.vertices or len(pairs) == len(tree.edges):
        violations.extend(_shape_violations(tree.vertices, pairs))
    return violations


def _quotient_with_map(spec: CoverSpec) -> tuple[JsjTree, dict[str, str]]:
    violations = _involution_violations(spec)
    if violations:
        raise TreeValidationError(violations)
    tree, sigma = spec.cover, spec.vertex_map
    rep = {v: min(v, sigma[v]) for v in tree.vertices}
    # In the cover's order, so the quotient does not depend on hashing.
    vertices = {v: g for v, g in tree.vertices.items() if rep[v] == v}

    edges: dict[frozenset[str], TreeEdge] = {}
    for e in sorted(tree.edges, key=lambda e: tuple(sorted((e.u, e.v)))):
        key = frozenset({rep[e.u], rep[e.v]})
        if key not in edges:
            edges[key] = TreeEdge(rep[e.u], rep[e.v],
                                  e.label_beyond_u, e.label_beyond_v)
    quotient_tree = JsjTree(vertices, tuple(edges.values()))
    check = _quotient_violations(quotient_tree)
    if check:
        raise TreeValidationError(
            [("INVALID_INVOLUTION", f"quotient is invalid ({c}: {d})")
             for c, d in check])
    return quotient_tree, rep


def quotient(spec: CoverSpec) -> JsjTree:
    """Quotient tree of a cover by its involution; labels are inherited."""
    return _quotient_with_map(spec)[0]


def lemma44_check(spec: CoverSpec) -> tuple[CoverCheckEntry, ...]:
    """Compare outermost status downstairs with the parity criterion upstairs.

    For each quotient vertex: it should be outermost exactly when its
    preimage is a single fixed vertex whose incident far-side regions in
    the cover include an even number of non-solid-torus labels.  On
    geometrically consistent covers the two computations agree; the entries
    report any mismatch.
    """
    quotient_tree, rep = _quotient_with_map(spec)
    outer = outermost(quotient_tree)
    sigma = spec.vertex_map
    # far-side regions in the cover that are not solid tori, per vertex
    non_st = dict.fromkeys(spec.cover.vertices, 0)
    for e in spec.cover.edges:
        if e.label_beyond_u is not RegionLabel.SOLID_TORUS:
            non_st[e.u] += 1
        if e.label_beyond_v is not RegionLabel.SOLID_TORUS:
            non_st[e.v] += 1

    entries = []
    for qv in sorted(quotient_tree.vertices):
        # rep maps cover ids onto quotient ids; orbit reps are their own image
        if rep[qv] != qv:
            raise RuntimeError(f"quotient vertex {qv!r} does not represent its orbit")
        orbit = tuple(sorted({qv, sigma[qv]}))
        if len(orbit) == 1:
            criterion = non_st[qv] % 2 == 0
        else:
            criterion = False  # disconnected preimage
        is_outer = qv in outer
        entries.append(CoverCheckEntry(
            vertex=qv, orbit=orbit, outermost=is_outer,
            criterion=criterion, agree=is_outer == criterion))
    return tuple(entries)


def cover_from_dict(raw: dict) -> CoverSpec:
    """Parse {"vertices": ..., "edges": ..., "involution": {"vertex_map": ...}}."""
    tree = validate_tree(raw)
    inv = raw.get("involution", {})
    if not isinstance(inv, dict):
        raise TreeValidationError(
            [("INVALID_INPUT", f"involution must be an object, got {type(inv).__name__}")])
    vmap = inv.get("vertex_map")
    if not isinstance(vmap, dict):
        raise TreeValidationError(
            [("INVALID_INVOLUTION", "missing involution.vertex_map")])
    for v, w in vmap.items():
        try:
            hash(w)
        except TypeError:
            raise TreeValidationError(
                [("INVALID_INPUT", f"vertex_map values must be vertex ids, got "
                                   f"{type(w).__name__} for {v!r}")]) from None
    return CoverSpec(tree, dict(vmap))


def cover_to_dict(spec: CoverSpec) -> dict:
    out = tree_to_dict(spec.cover)
    out["involution"] = {"vertex_map": dict(sorted(spec.vertex_map.items()))}
    return out
