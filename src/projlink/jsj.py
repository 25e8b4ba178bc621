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

Each raw tree is read in one pass: `validate_tree` returns the typed tree
or raises with every violation in input order.  Only `potential` walks the
tree, so the adjacency is built once per tree, there, and each edge's
orientation is read off its labels in that walk.  `outermost` is the label
criterion read off each edge's labels; that it equals the local minima of
the potential and is never empty on a valid tree is checked by the tests,
not at run time.  `lemma44_check` takes the cover's `quotient` and counts
the cover's far-side labels in one pass over the cover's edges.  The four
records are named tuples.
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


# The members, bound once: on 3.11 reading one through its class costs more
# than ten times a module-level name, and the loops below read them per edge.
_ST, _KHB, _OTHER = RegionLabel.SOLID_TORUS, RegionLabel.KNOTTED_HOLE_BALL, RegionLabel.OTHER

# Wire values to members, without Enum(value)'s per-call cost.  The parser
# reads JSON, so a member where a value belongs is as unknown as any other.
_LABELS = {label.value: label for label in RegionLabel}
_GEOMETRIES = {geom.value: geom for geom in Geometry}


# label_beyond_x: the region on the far side of the torus from x.
TreeEdge = namedtuple("TreeEdge", "u v label_beyond_u label_beyond_v")


# _tuple_new(TreeEdge, (u, v, lu, lv)) is the record TreeEdge(u, v, lu, lv),
# built as namedtuple's own _make builds it: without the Python-level
# __new__ frame, which costs about 170 ns per edge on 3.11.
_tuple_new = tuple.__new__


class JsjTree(namedtuple("JsjTree", "vertices edges")):
    __slots__ = ()  # vertices: id -> Geometry; edges: a tuple of TreeEdges

    def adjacency(self) -> dict[str, list[TreeEdge]]:
        adj: dict[str, list[TreeEdge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e[0]].append(e)
            adj[e[1]].append(e)
        return adj


# vertex_map: the involution on vertex ids.
CoverSpec = namedtuple("CoverSpec", "cover vertex_map")

# outermost: the label criterion in the quotient; criterion: a connected
# preimage (orbit) and an even non-solid-torus count upstairs.
CoverCheckEntry = namedtuple("CoverCheckEntry", "vertex orbit outermost criterion agree")


class TreeValidationError(Exception):
    """Carries the list of (code, detail) constraint violations."""

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations
        super().__init__("; ".join(f"{c}: {d}" for c, d in violations))


def _shape_violations(vertices: dict, edges: list[TreeEdge]) -> list[tuple[str, str]]:
    """NOT_A_TREE violations of a graph whose edges join distinct vertices."""
    if not vertices:
        return [("NOT_A_TREE", "no vertices")]
    if len(edges) != len(vertices) - 1:
        return [("NOT_A_TREE", f"{len(vertices)} vertices need "
                               f"{len(vertices) - 1} edges, got {len(edges)}")]
    # With one edge fewer than vertices, the graph is connected exactly when
    # it has no cycle, and a cycle shows as an edge inside one class of a
    # union-find (path halving).  A root has no entry in `parent`.
    parent: dict[str, str] = {}
    get = parent.get
    for u, v, _, _ in edges:
        while (up := get(u)) is not None:
            parent[u] = u = get(up, up)
        while (vp := get(v)) is not None:
            parent[v] = v = get(vp, vp)
        if u == v:
            return [("NOT_A_TREE", "graph is not connected")]
        parent[u] = v
    return []


def validate_tree(raw: dict) -> JsjTree:
    """Read a raw tree description in one pass.

    Returns the typed tree, or raises TreeValidationError with every
    violation in input order.  A value of the wrong JSON type where the
    checks look (a document or entry that is not an object, vertices or
    edges that are not a list, an edge endpoint that cannot be hashed) is an
    INVALID_INPUT violation, not another exception.
    """
    if not isinstance(raw, dict):
        raise TreeValidationError(
            [("INVALID_INPUT", f"a tree must be an object, got {type(raw).__name__}")])
    raw_vertices, raw_edges = raw.get("vertices", []), raw.get("edges", [])
    for key, value in (("vertices", raw_vertices), ("edges", raw_edges)):
        if not isinstance(value, (list, tuple)):
            raise TreeValidationError(
                [("INVALID_INPUT", f"{key} must be a list, got {type(value).__name__}")])

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

    edges: list[TreeEdge] = []  # every edge with usable endpoints
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
        try:
            lu = _LABELS[entry["label_beyond_u"]]
            lv = _LABELS[entry["label_beyond_v"]]
        except (KeyError, TypeError):
            violations.append(("UNLABELED_EDGE", f"edge {u!r}-{v!r} lacks labels"))
            # The tree is not returned, but the edge counts for its shape.
            edges.append(_tuple_new(TreeEdge, (u, v, None, None)))
            continue
        # Allowed: exactly one side OTHER, or solid tori on both sides.
        if (lu is _OTHER) is (lv is _OTHER) and not (lu is lv is _ST):
            violations.append((
                "FORBIDDEN_LABEL_PAIR",
                f"edge {u!r}-{v!r} carries ({lu.value}, {lv.value})"))
        edges.append(_tuple_new(TreeEdge, (u, v, lu, lv)))

    if not broken or not vertices:
        violations.extend(_shape_violations(vertices, edges))
    if violations:
        raise TreeValidationError(violations)
    return JsjTree(vertices, tuple(edges))


def tree_to_dict(tree: JsjTree) -> dict:
    # `_value_`, a plain attribute: `value` is a Python-level property on 3.11.
    vertices = tree.vertices
    return {
        "vertices": [
            {"id": vid, "geometry": vertices[vid]._value_} for vid in sorted(vertices)
        ],
        "edges": [
            {"u": u, "v": v, "label_beyond_u": lu._value_, "label_beyond_v": lv._value_}
            for u, v, lu, lv in tree.edges
        ],
    }


def potential(tree: JsjTree) -> dict[str, int]:
    """The unique vertex potential, normalized to minimum zero.

    Increases by one along every oriented edge and is constant across
    Heegaard edges; existence and uniqueness follow from connectedness and
    acyclicity.
    """
    adj = tree.adjacency()
    root = min(tree.vertices)
    values = {root: 0}
    stack = [root]
    while stack:
        x = stack.pop()
        fx = values[x]
        for u, v, lu, lv in adj[x]:
            y = v if u == x else u
            if y in values:
                continue
            # A Heegaard edge is level; any other has its tail at u exactly
            # when lu is not OTHER, so it points from x to y when both agree.
            values[y] = (fx if lu is lv is _ST
                         else fx + 1 if (lu is not _OTHER) is (u == x) else fx - 1)
            stack.append(y)
    low = min(values.values())
    return {v: f - low for v, f in values.items()} if low else values


def outermost(tree: JsjTree) -> set[str]:
    """Vertices all of whose far-side regions are solid tori or knotted
    hole balls.

    On a valid tree the set is non-empty and equals the local minima of the
    potential; the tests check both.  A tree with no such vertex breaks the
    label constraints and raises ValueError.
    """
    result = set(tree.vertices)
    discard = result.discard
    for u, v, lu, lv in tree.edges:
        if lu is _OTHER:
            discard(u)
        if lv is _OTHER:
            discard(v)
    if not result:
        raise ValueError("no outermost vertex: the tree breaks the label constraints")
    return result


# ---------------------------------------------------------------------------
# Covers and quotients.


def _involution_violations(spec: CoverSpec) -> list[tuple[str, str]]:
    (vertices, edges), sigma = spec.cover, spec.vertex_map
    violations: list[tuple[str, str]] = []
    if sigma.keys() != vertices.keys() or set(sigma.values()) != vertices.keys():
        return [("INVALID_INVOLUTION", "vertex map is not a permutation")]
    for v, w in sigma.items():
        if sigma[w] != v:
            violations.append(
                ("INVALID_INVOLUTION", f"map is not an involution at {v!r}"))
        if vertices[v] is not vertices[w]:
            violations.append(
                ("INVALID_INVOLUTION", f"geometry differs on orbit {v!r}/{w!r}"))
    if violations:
        return violations

    # Each edge under both orientations: (x, y) -> the labels beyond x and y.
    by_ends = {}
    for u, v, lu, lv in edges:
        by_ends[u, v] = lu, lv
        by_ends[v, u] = lv, lu
    for u, v, lu, lv in edges:
        su, sv = sigma[u], sigma[v]
        image = by_ends.get((su, sv))
        if image is None:
            violations.append(
                ("INVALID_INVOLUTION", f"image of edge {u!r}-{v!r} is not an edge"))
            continue
        if image[0] is not lu or image[1] is not lv:
            violations.append(
                ("INVALID_INVOLUTION", f"labels not preserved on edge {u!r}-{v!r}"))
        # The image has the ends u and v (su == v gives sv == u: an involution).
        if su == v or su == u and sv == v:
            if su == v:
                violations.append(
                    ("INVALID_INVOLUTION", f"fixed edge {u!r}-{v!r} swaps its endpoints"))
            if lu is _KHB or lv is _KHB:
                violations.append(
                    ("INVALID_INVOLUTION", f"knotted-hole-ball edge {u!r}-{v!r} is fixed"))
    return violations


def quotient(spec: CoverSpec) -> JsjTree:
    """Quotient tree of a cover by its involution; labels are inherited and
    each orbit is named by its least vertex id.

    Raises TreeValidationError unless the vertex map is a label-preserving
    involution with no inversion.  The cover must be a valid tree (a
    hand-built CoverSpec is the caller's contract, as for `potential`);
    then the involution fixes a subtree, one vertex more than edges, so the
    connected quotient has ((V - E) + 1) / 2 = 1 vertex more than edge
    orbits: a tree, with allowed labels, and not checked again.
    """
    violations = _involution_violations(spec)
    if violations:
        raise TreeValidationError(violations)
    tree, sigma = spec.cover, spec.vertex_map
    rep: dict[str, str] = {}
    # In the cover's order, so the quotient does not depend on hashing.
    vertices: dict[str, Geometry] = {}
    for v, g in tree.vertices.items():
        if (w := sigma[v]) < v:
            rep[v] = w
        else:
            rep[v] = v
            vertices[v] = g

    edges: dict[tuple[str, str], TreeEdge] = {}  # keyed by sorted ends
    # In the order of each edge's sorted endpoints.
    for u, v, lu, lv in sorted(tree.edges,
                               key=lambda e: (e[1], e[0]) if e[1] < e[0] else (e[0], e[1])):
        ru, rv = rep[u], rep[v]
        key = (ru, rv) if ru < rv else (rv, ru)
        if key not in edges:
            edges[key] = _tuple_new(TreeEdge, (ru, rv, lu, lv))
    return JsjTree(vertices, tuple(edges.values()))


def lemma44_check(spec: CoverSpec) -> tuple[CoverCheckEntry, ...]:
    """Compare outermost status downstairs with the parity criterion upstairs.

    For each quotient vertex: it should be outermost exactly when its
    preimage is a single fixed vertex whose incident far-side regions in
    the cover include an even number of non-solid-torus labels.  On
    geometrically consistent covers the two computations agree; the entries
    report any mismatch.
    """
    quotient_tree = quotient(spec)
    outer = outermost(quotient_tree)
    sigma = spec.vertex_map
    # far-side regions in the cover that are not solid tori, per vertex
    non_st = dict.fromkeys(spec.cover.vertices, 0)
    for u, v, lu, lv in spec.cover.edges:
        if lu is not _ST:
            non_st[u] += 1
        if lv is not _ST:
            non_st[v] += 1

    entries = []
    # A quotient vertex is the least of its orbit.
    for qv in sorted(quotient_tree.vertices):
        w = sigma[qv]
        fixed = w == qv
        orbit = (qv,) if fixed else (qv, w)
        criterion = fixed and non_st[qv] % 2 == 0
        is_outer = qv in outer
        entries.append(_tuple_new(CoverCheckEntry,
                                  (qv, orbit, is_outer, criterion, is_outer == criterion)))
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
    sigma = spec.vertex_map
    out["involution"] = {"vertex_map": {v: sigma[v] for v in sorted(sigma)}}
    return out
