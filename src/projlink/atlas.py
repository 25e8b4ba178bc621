"""Bounded-universe enumeration of isotopy classes and mechanical checks.

The universe at bound B is every triple with |p|, |q| <= B and n in
{0, 1, 2}.  Classes are keyed by normal form and stored in normal-form
order; a union-find closure of the same universe under the kernel's moves,
`_move`, cross-checks the greedy normal-form strategy, and two further
verifiers exercise the double-cover lift: relation-by-relation
compatibility and injectivity on classes.  The closure audit and lift
injectivity each compare two partitions of the universe, through one
helper, `_cross_check`.  Every scan runs on plain (p, q, n) triples in
lexicographic order, and an atlas holds them plain, so its writer formats
them directly: `TorusLink`s are built only for the violations a verifier
reports and by `Atlas.to_dict`.

`Atlas` and `VerificationReport` are named tuples; a report built without
`notes` has None there.  `Atlas.write_json` writes its document in blocks,
never holding all of it.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import product

from .links import (
    AmbientSpace,
    TorusLink,
    _FORWARD,
    _MOVES,
    _RELATIONS,
    _RP3,
    _SPHERE3,
    _check_space,
    _lift,
    _move,
    canonical,
    link_to_dict,
)


_BLOCK = 1 << 16  # least characters per write; unbuffered, each write is a syscall


class Atlas(namedtuple("Atlas", "space bound classes")):
    __slots__ = ()  # classes: normal form -> members, plain (p, q, n), in normal-form order

    def to_dict(self) -> dict:
        space = self.space

        def record(t: tuple) -> dict:
            return link_to_dict(TorusLink(space, *t))

        return {
            "space": space.value,
            "bound": self.bound,
            "classes": [{"normal_form": record(key), "members": list(map(record, members))}
                        for key, members in self.classes.items()],
        }

    def write_json(self, out) -> None:
        """Write the text of json.dumps(self.to_dict(), sort_keys=True, indent=2).

        json's C encoder does not indent, so the text is written directly,
        with one template for every link record, indented by `i`; a block of
        whole classes is written once it reaches _BLOCK characters.
        """
        space = self.space.value
        record = '{{\n{i}  "n": %d,\n{i}  "p": %d,\n{i}  "q": %d,\n{i}  "space": "{s}"\n{i}}}'
        member = record.format(i=" " * 8, s=space)
        normal_form = record.format(i=" " * 6, s=space)
        block = [f'{{\n  "bound": {self.bound},\n  "classes": [\n']
        size = len(block[0])
        for i, (key, members) in enumerate(self.classes.items()):
            text = ((",\n    {" if i else "    {") + '\n      "members": [\n        '
                    + ",\n        ".join([member % (n, p, q) for p, q, n in members])
                    + '\n      ],\n      "normal_form": '
                    + normal_form % (key[2], key[0], key[1]) + "\n    }")
            block.append(text)
            size += len(text)
            if size >= _BLOCK:
                out.write("".join(block))
                block, size = [], 0
        block.append(f'\n  ],\n  "space": "{space}"\n}}')
        out.write("".join(block))


class VerificationReport(namedtuple(
        "VerificationReport", "bound checked_pairs violations elapsed notes",
        defaults=(None,))):
    __slots__ = ()  # violations: a tuple of dicts; notes: None or a dict

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """The report's wire form; it leaves out `elapsed`, so it is byte-stable."""
        out = {
            "bound": self.bound,
            "checked_pairs": self.checked_pairs,
            "violations": list(self.violations),
        }
        if self.notes:
            out["notes"] = dict(self.notes)
        return out


def _triples(bound: int):
    """All (p, q, n) with |p|, |q| <= bound, in lexicographic order."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    span = range(-bound, bound + 1)
    return product(span, span, (0, 1, 2))


def enumerate_classes(space: AmbientSpace, bound: int) -> Atlas:
    """Partition the bounded universe by normal form, in normal-form order."""
    _check_space(space)  # the scan reads plain triples, so no make_link checks it
    buckets: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for t in _triples(bound):
        buckets.setdefault(canonical(space, *t), []).append(t)
    # The scan is in (p, q, n) order, so every class comes out sorted.
    classes = {key: tuple(buckets[key]) for key in sorted(buckets)}
    return Atlas(space, bound, classes)


def _closure_roots(space: AmbientSpace, bound: int) -> list[int]:
    """Union-find closure of the box |p|, |q| <= B under the kernel's moves.

    Works on positions in _triples(bound) in a flat parent list.  Each
    triple is joined to its forward R1-R4 images under `_move` that lie in
    the box; a backward image is a forward preimage, so that is every edge.
    Every class is rooted at its least position, so at its
    lexicographically least triple.  Returns the root of every position.
    """
    triples = _triples(bound)  # rejects a negative bound before the list is built
    width = 2 * bound + 1
    parent = list(range(3 * width * width))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for i, (p, q, n) in enumerate(triples):
        for relation in _RELATIONS:
            image = _move(space, relation, _FORWARD, p, q, n)
            if image is None:
                continue
            p2, q2, n2 = image
            if abs(p2) <= bound and abs(q2) <= bound:
                a, b = find(i), find(((p2 + bound) * width + q2 + bound) * 3 + n2)
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
    return [find(x) for x in range(len(parent))]


def _violation(space: AmbientSpace, a: tuple, b: tuple, evidence: str) -> dict:
    return {"a": link_to_dict(TorusLink(space, *a)),
            "b": link_to_dict(TorusLink(space, *b)),
            "evidence": evidence}


def _cross_check(space: AmbientSpace, bound: int, groups: dict, split, joined: str,
                 t0: float) -> VerificationReport:
    """Compare two partitions of the bounded universe, keyed a and b.

    `groups` maps each key pair (a, b) to its triples, in first-seen order.
    Reports every pair of triples that share a but not b, with evidence
    split(a), then every pair that share b but not a, with evidence `joined`:
    each partition in key order, its subgroups in first-seen order.  Counts
    every pair of the universe as checked.
    """
    by_a, by_b = {}, {}
    for (a, b), members in groups.items():
        by_a.setdefault(a, []).append(members)
        by_b.setdefault(b, []).append(members)
    violations = []
    for view, evidence in ((by_a, split), (by_b, lambda _: joined)):
        for key in sorted(view):
            subgroups = view[key]
            for i, ga in enumerate(subgroups):
                for gb in subgroups[i + 1:]:
                    violations += [_violation(space, x, y, evidence(key))
                                   for x in ga for y in gb]
    n = 3 * (2 * bound + 1) ** 2
    return VerificationReport(bound, n * (n - 1) // 2, tuple(violations),
                              time.perf_counter() - t0)


def confluence_audit(space: AmbientSpace, bound: int) -> VerificationReport:
    """Cross-check normal forms against the union-find closure of the universe.

    Reports every pair on which the two partitions disagree, in either
    direction.  The closure stays in the box |p|, |q| <= B, which loses
    nothing: two boxed triples joined by moves are joined inside the box.
    Group triples into nodes, the R1/R2 orbits at one n.  R1 and R2 commute
    and R1 keeps the box, so a node's boxed members, +-s, +-R2 s or all
    four, are joined in it.  Every other edge is a forward R3 or R4, or its
    reverse.  At most one member of a node reduces (see `canonical`), so a
    node has at most one successor, at n + 1, and a class's nodes form a
    tree with one terminal node.  The image (k - 1)/k (p, q) stays in the
    box, and a boxed node reduces from a boxed member: at n = 1 the node is
    +-s, and in S^3 R2 keeps the box, so every member is boxed.  At n = 0
    in RP^3 the reducing member is (p, mp) with p > 0, every member has
    |q| = |m|p, and at m = 0 the node is {(+-p, 0)}; so a boxed member
    forces p <= B and |m|p <= B.  So a boxed triple's path to its class's
    terminal node stays in the box, and two boxed triples of a class meet
    there.
    """
    t0 = time.perf_counter()
    _check_space(space)
    groups: dict[tuple, list] = {}
    for root, t in zip(_closure_roots(space, bound), _triples(bound)):
        groups.setdefault((root, canonical(space, *t)), []).append(t)
    # Roots (positions) and keys (triples) both sort in (p, q, n) order.
    return _cross_check(space, bound, groups,
                        lambda _: "union-find-equivalent but distinct normal forms",
                        "equal normal forms but not union-find-equivalent", t0)


def verify_lift_injectivity(bound: int) -> VerificationReport:
    """Isotopic lifts in S^3 must come from isotopic links in RP^3.

    Groups the bounded RP^3 universe by the normal form of the lift and
    reports any group containing two distinct RP^3 classes.  The converse
    direction (isotopic links have isotopic lifts) is checked alongside:
    the lift normal form must be constant on every RP^3 class.  Each class
    is represented by its first triple scanned, so by its least.
    """
    t0 = time.perf_counter()
    rp3, s3 = _RP3, _SPHERE3
    groups: dict[tuple, list] = {}
    for p, q, n in _triples(bound):
        key = (canonical(s3, *_lift(p, q), n), canonical(rp3, p, q, n))
        if key not in groups:
            groups[key] = [(p, q, n)]
    return _cross_check(
        rp3, bound, groups,
        lambda lift_key: f"isotopic lifts (S^3 class {TorusLink(s3, *lift_key)!r}) "
                         "but distinct RP^3 classes",
        "isotopic in RP^3 but lifts in distinct S^3 classes", t0)


def relation_lift_compatibility(bound: int) -> VerificationReport:
    """Every relation instance in RP^3 must lift to an S^3 isotopy.

    Applies every applicable move to every triple in the bounded universe
    and checks that the lifted endpoints are isotopic in S^3, recording the
    length of the longest witness chain `isotopic` would return.  On plain
    integers; the lift of each triple is reduced once, for all its moves.

    The bounded scan confirms what holds for every triple: read forward, an
    RP^3 instance x -> y of a relation lifts to the S^3 forward instance
    lift(x) -> lift(y) of the same relation, a chain of length one.  The
    lift is linear, lift(p, q) = (p, 2q - p), so:

    - R1: lift(-p, -q) = -lift(p, q).
    - R2: lift(-p + 2q, q) = (2q - p, p), the S^3 swap of lift(p, q).
    - R3: the divisor is p on both sides.
    - R4: the RP^3 divisor k = -p + 2q is the lift's second coordinate, the
      S^3 divisor; k | p and k | q imply k | 2q - p.

    A forward R3 or R4 scales (p, q) by (k - 1)/k, which commutes with the
    linear lift.  The fixed backward preimages are forward instances too:
    (1, 0; 0) -> (0, 0; 1) lifts to (1, -1; 0) -> (0, 0; 1) by R3, and
    (1, 1; 1) -> (0, 0; 2) to (1, 1; 1) -> (0, 0; 2) by R4.
    """
    t0 = time.perf_counter()
    rp3, s3 = _RP3, _SPHERE3
    violations: list[dict] = []
    checked = 0
    max_chain = 0
    for p, q, n in _triples(bound):
        moves_a: list = []
        key_a = canonical(s3, *_lift(p, q), n, moves_a)
        for relation, direction in _MOVES:
            image = _move(rp3, relation, direction, p, q, n)
            if image is None:
                continue
            checked += 1
            moves_b: list = []
            if canonical(s3, *_lift(image[0], image[1]), image[2], moves_b) != key_a:
                violations.append(_violation(rp3, (p, q, n), image,
                                             f"{relation.value} {direction.value} instance "
                                             "whose lifts are not S^3-isotopic"))
            else:
                # isotopic's chain runs a -> normal form -> b.
                max_chain = max(max_chain, len(moves_a) + len(moves_b))
    return VerificationReport(
        bound=bound,
        checked_pairs=checked,
        violations=tuple(violations),
        elapsed=time.perf_counter() - t0,
        notes={"max_lift_chain_length": max_chain},
    )
