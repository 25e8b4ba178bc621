"""Seeded random generators for JSJ trees and involutive covers.

Trees come from random Pruefer sequences with labels sampled uniformly
among the allowed pairings.  Covers are built the other way around: first a
base tree shaped like a real decomposition of an RP^3 link complement
(rooted at a piece not enclosed by any solid torus or knotted hole ball,
with all tori "facing away" from the root), then the regions that lift to
two copies are doubled and the rest is kept fixed.  This keeps every
generated cover consistent with the parity criterion, which is what the
property suite relies on.

Every uniform draw from range(n), and so every pick from a sequence of
length n, goes through `_draws`: it asks `rng.getrandbits` for
k = n.bit_length() bits and draws again while the result is n or more.
That is how `Random.randrange(n)` and `Random.choice` consume the stream on
CPython 3.10 to 3.13, so a seed yields the same trees and covers as those
calls would, without their two Python-level frames per draw.
"""

from __future__ import annotations

import random

from .jsj import (
    CoverSpec,
    Geometry,
    JsjTree,
    RegionLabel,
    TreeEdge,
    _KHB,
    _OTHER,
    _ST,
    _tuple_new,
)

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


def _draws(rng: random.Random, n: int, count: int) -> list[int]:
    """`count` draws from range(n), as `count` calls of rng.randrange(n)."""
    if n <= 0 < count:
        raise ValueError(f"empty range for a draw: n = {n}")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def _pruefer_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree on vertices 0..n-1 via Pruefer decoding."""
    if n <= 1:
        return []
    seq = _draws(rng, n, n - 2)
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    # Each step joins the least leaf to the next entry of seq.  Every leaf
    # below `low` has been used, so a new leaf below it is the least one;
    # n - 1 is never a used leaf, so it ends the last edge.
    edges = []
    leaf = low = degree.index(1)
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < low:
            leaf = x
        else:
            leaf = low = degree.index(1, low + 1)
    edges.append((leaf, n - 1))
    return edges


def _vids(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def random_jsj_tree(rng: random.Random, n_vertices: int) -> JsjTree:
    """Random valid tree: Pruefer shape, uniform labels on each edge."""
    ids = _vids(n_vertices)
    geometries = [_GEOMETRIES[g] for g in _draws(rng, len(_GEOMETRIES), n_vertices)]
    pairs = _pruefer_edges(rng, n_vertices)
    edges = tuple(_tuple_new(TreeEdge, (ids[u], ids[v]) + _EDGE_LABELINGS[c])
                  for (u, v), c in zip(pairs, _draws(rng, len(_EDGE_LABELINGS), len(pairs))))
    return JsjTree(dict(zip(ids, geometries)), edges)


def random_cover_spec(rng: random.Random, n_quotient_vertices: int,
                      move_bias: float = 0.5) -> CoverSpec:
    """Random cover of a decomposition tree by an involution.

    Builds a rooted base tree in which every torus faces away from the
    root.  A subtree is doubled whenever it sits beyond a knotted hole
    ball (forced) or, with probability ``move_bias``, beyond a solid
    torus; inside doubled subtrees the back label is always OTHER, since a
    piece with a disconnected preimage is never outermost.  Edges are
    labelled in breadth-first order from a random root.
    """
    n = n_quotient_vertices
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in _pruefer_edges(rng, n):
        adj[u].append(v)
        adj[v].append(u)

    root = _draws(rng, n, 1)[0]
    geometry = [_GEOMETRIES[g] for g in _draws(rng, len(_GEOMETRIES), n)]

    moved: dict[int, bool] = {root: False}
    labels: list[tuple[int, int, tuple[RegionLabel, RegionLabel]]] = []
    order = [root]
    for a in order:
        for b in adj[a]:
            if b in moved:
                continue
            order.append(b)
            if moved[a]:
                # Whole subtree lies in a doubled region.
                moved[b] = True
                pair = _MOVED_FAR[_draws(rng, len(_MOVED_FAR), 1)[0]], _OTHER
            else:
                far = _KHB if rng.random() < 0.35 else _ST
                # Knotted hole balls always lift to two copies.
                moved[b] = far is _KHB or rng.random() < move_bias
                back = _OTHER if moved[b] else _FIXED_BACK[_draws(rng, len(_FIXED_BACK), 1)[0]]
                pair = far, back
            labels.append((a, b, pair))

    # The ids of each base vertex's copies, built once.
    copies = [[f"{vid}.a", f"{vid}.b"] if moved[v] else [vid]
              for v, vid in enumerate(_vids(n))]
    vertices: dict[str, Geometry] = {}
    vertex_map: dict[str, str] = {}
    for ids, geom in zip(copies, geometry):
        for cid in ids:
            vertices[cid] = geom
        vertex_map.update(zip(ids, reversed(ids)))

    # A moved piece has only moved children: a fixed parent joins every copy
    # of its child, and copy i of a moved parent joins copy i of its child.
    edges = [_tuple_new(TreeEdge, (u, v) + pair) for a, b, pair in labels
             for u, v in zip(copies[a] * 2, copies[b])]
    return CoverSpec(JsjTree(vertices, tuple(edges)), vertex_map)
