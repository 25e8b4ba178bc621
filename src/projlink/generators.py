"""Seeded random generators for JSJ trees and involutive covers.

Trees come from random Pruefer sequences with labels sampled uniformly
among the allowed pairings.  Covers are built the other way around: first a
base tree shaped like a real decomposition of an RP^3 link complement
(rooted at a piece not enclosed by any solid torus or knotted hole ball,
with all tori "facing away" from the root), then the regions that lift to
two copies are doubled and the rest is kept fixed.  This keeps every
generated cover consistent with the parity criterion, which is what the
property suite relies on.
"""

from __future__ import annotations

import heapq
import random

from .jsj import (
    CoverSpec,
    Geometry,
    JsjTree,
    RegionLabel,
    TreeEdge,
)

_ST = RegionLabel.SOLID_TORUS
_KHB = RegionLabel.KNOTTED_HOLE_BALL
_OTHER = RegionLabel.OTHER
_GEOMETRIES = (Geometry.HYPERBOLIC, Geometry.SEIFERT)
_MOVED_FAR = (_ST, _KHB)  # far labels inside a doubled subtree
_FIXED_BACK = (_ST, _OTHER)  # back labels of a fixed piece

# Ordered label pairs a valid edge may carry.
_EDGE_LABELINGS = (
    (_ST, _ST),
    (_ST, _OTHER),
    (_OTHER, _ST),
    (_KHB, _OTHER),
    (_OTHER, _KHB),
)


def _pruefer_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree on vertices 0..n-1 via Pruefer decoding."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _vid(i: int) -> str:
    return f"v{i}"


def random_jsj_tree(rng: random.Random, n_vertices: int) -> JsjTree:
    """Random valid tree: Pruefer shape, uniform labels on each edge."""
    vertices = {
        _vid(i): rng.choice(_GEOMETRIES) for i in range(n_vertices)
    }
    edges = []
    for u, v in _pruefer_edges(rng, n_vertices):
        lu, lv = rng.choice(_EDGE_LABELINGS)
        edges.append(TreeEdge(_vid(u), _vid(v), lu, lv))
    return JsjTree(vertices, tuple(edges))


def random_cover_spec(rng: random.Random, n_quotient_vertices: int,
                      move_bias: float = 0.5) -> CoverSpec:
    """Random cover of a decomposition tree by an involution.

    Builds a rooted base tree in which every torus faces away from the
    root.  A subtree is doubled whenever it sits beyond a knotted hole
    ball (forced) or, with probability ``move_bias``, beyond a solid
    torus; inside doubled subtrees the back label is always OTHER, since a
    piece with a disconnected preimage is never outermost.
    """
    n = n_quotient_vertices
    base_edges = _pruefer_edges(rng, n)
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in base_edges:
        adj[u].append(v)
        adj[v].append(u)

    root = rng.randrange(n)
    geometry = {
        i: rng.choice(_GEOMETRIES) for i in range(n)
    }

    moved: dict[int, bool] = {root: False}
    labels: dict[tuple[int, int], tuple[RegionLabel, RegionLabel]] = {}
    order = [root]
    seen = {root}
    i = 0
    while i < len(order):
        a = order[i]
        i += 1
        for b in adj[a]:
            if b in seen:
                continue
            seen.add(b)
            order.append(b)
            if moved[a]:
                # Whole subtree lies in a doubled region.
                moved[b] = True
                far = rng.choice(_MOVED_FAR)
                labels[(a, b)] = (far, _OTHER)
            else:
                far = _KHB if rng.random() < 0.35 else _ST
                if far is _KHB:
                    moved[b] = True  # knotted hole balls lift to two copies
                    labels[(a, b)] = (far, _OTHER)
                elif rng.random() < move_bias:
                    moved[b] = True
                    labels[(a, b)] = (far, _OTHER)
                else:
                    moved[b] = False
                    labels[(a, b)] = (far, rng.choice(_FIXED_BACK))

    def copies(v: int) -> list[str]:
        return [f"{_vid(v)}.a", f"{_vid(v)}.b"] if moved[v] else [_vid(v)]

    vertices: dict[str, Geometry] = {}
    vertex_map: dict[str, str] = {}
    for v in range(n):
        ids = copies(v)
        for cid in ids:
            vertices[cid] = geometry[v]
        if len(ids) == 2:
            vertex_map[ids[0]], vertex_map[ids[1]] = ids[1], ids[0]
        else:
            vertex_map[ids[0]] = ids[0]

    # A moved piece has only moved children: a fixed parent joins every copy
    # of its child, and copy i of a moved parent joins copy i of its child.
    edges = [TreeEdge(u, v, la, lb) for (a, b), (la, lb) in labels.items()
             for u, v in zip(copies(a) * 2, copies(b))]
    return CoverSpec(JsjTree(vertices, tuple(edges)), vertex_map)
