"""Correctness checks that share no code with projlink.

Everything here works on plain tuples and on the JSON wire format, straight
from the move formulas and the JSJ label rules.  A check returns None when
the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

from math import gcd


def forward_move(space: str, relation: str, t: tuple[int, int, int]):
    """The forward move `relation` applied to t, or None where it does not apply."""
    p, q, n = t
    if relation == "R1":
        return (-p, -q, n)
    if relation == "R2":
        if n not in (0, 2):
            return None
        return (q, p, n) if space == "s3" else (-p + 2 * q, q, n)
    if relation == "R3":
        if n == 0 and p > 0 and q % p == 0:
            return (p - 1, (p - 1) * q // p, 1)
        return None
    if relation == "R4" and n == 1:
        if space == "s3":
            if q > 0 and p % q == 0:
                return ((q - 1) * p // q, q - 1, 2)
            return None
        k = -p + 2 * q
        if k > 0 and q % k == 0:
            return ((k - 1) * p // k, (k - 1) * q // k, 2)
    return None


def components(t: tuple[int, int, int]) -> int:
    p, q, n = t
    return n if p == q == 0 else gcd(p, q) + n


def random_walk(rng, space: str, t: tuple[int, int, int], steps: int):
    """Apply `steps` random forward moves; every move keeps the isotopy class."""
    for _ in range(steps):
        moves = [m for m in (forward_move(space, r, t) for r in ("R1", "R2", "R3", "R4"))
                 if m is not None]
        t = rng.choice(moves)
    return t


def _triple(wire: dict, space: str):
    if wire.get("space") != space:
        return None
    return (wire["p"], wire["q"], wire["n"])


def replay_chain(space: str, steps, start, end) -> str | None:
    """Replay a wire witness chain from `start` to `end` with our own moves."""
    if not isinstance(steps, list):
        return f"witness is not a list: {steps!r}"
    cur = start
    for i, step in enumerate(steps):
        before, after = _triple(step["before"], space), _triple(step["after"], space)
        if before != cur:
            return f"step {i} starts at {before}, expected {cur}"
        if step["direction"] == "fwd":
            ok = forward_move(space, step["relation"], before) == after
        elif step["direction"] == "bwd":
            ok = forward_move(space, step["relation"], after) == before
        else:
            ok = False
        if not ok:
            return f"step {i} ({step['relation']} {step['direction']}) does not replay"
        cur = after
    if cur != end:
        return f"chain ends at {cur}, expected {end}"
    return None


def check_canon(space: str, t, out: dict) -> str | None:
    nf = _triple(out["normal_form"], space)
    if nf is None or _triple(out["input"], space) != t:
        return "canon wire triples do not match the query"
    if out["components"] != components(t):
        return f"components {out['components']} != {components(t)}"
    if out["classification"]["kind"] not in (
            "EMPTY", "SEIFERT_COMPLEMENT", "NON_SEIFERT_SPLIT"):
        return f"unknown classification {out['classification']!r}"
    return replay_chain(space, out["witness"], t, nf)


def check_isotopic(space: str, a, b, expected: bool, out: dict) -> str | None:
    if out["isotopic"] is not expected:
        return f"isotopic{(a, b)} = {out['isotopic']}, expected {expected}"
    if not expected:
        return None if out["witness"] is None else "negative verdict carries a witness"
    return replay_chain(space, out["witness"], a, b)


def check_lift(t, out: dict) -> str | None:
    p, q, n = t
    if _triple(out["lift"], "s3") != (p, -p + 2 * q, n):
        return f"lift of {t} is {out['lift']!r}"
    return None


def _away(edge: dict, vertex: str) -> str:
    return edge["label_beyond_u"] if edge["u"] == vertex else edge["label_beyond_v"]


def check_tree(raw: dict, out: dict) -> str | None:
    """Potential obeys the orientation rule; outermost = the label criterion."""
    ids = [v["id"] for v in raw["vertices"]]
    pot = out["potential"]
    if sorted(pot) != sorted(ids) or min(pot.values()) != 0:
        return "potential does not cover the vertices with minimum 0"
    incident: dict[str, list[dict]] = {v: [] for v in ids}
    for e in raw["edges"]:
        incident[e["u"]].append(e)
        incident[e["v"]].append(e)
        lu, lv = e["label_beyond_u"], e["label_beyond_v"]
        if lu == lv == "st":
            ok = pot[e["u"]] == pot[e["v"]]
        elif lu != "other":  # v lies inside the solid torus or knotted hole ball
            ok = pot[e["v"]] == pot[e["u"]] + 1
        else:
            ok = pot[e["u"]] == pot[e["v"]] + 1
        if not ok:
            return f"potential breaks the orientation rule on {e['u']}-{e['v']}"
    expected = sorted(v for v in ids
                      if all(_away(e, v) != "other" for e in incident[v]))
    if out["outermost"] != expected:
        diff = sorted(set(out["outermost"]) ^ set(expected))
        return f"outermost and the label criterion differ on {diff[:5]}"
    return None


def check_cover(raw: dict, out: dict) -> str | None:
    vmap = raw["involution"]["vertex_map"]
    orbits = {min(v, w) for v, w in vmap.items()}
    if len(out["vertices"]) != len(orbits):
        return f"{len(out['vertices'])} quotient vertices, expected {len(orbits)}"
    if out["mismatches"] != 0 or not all(e["agree"] for e in out["vertices"]):
        return f"lemma44_check reports {out['mismatches']} mismatches"
    return None
