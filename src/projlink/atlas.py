"""Bounded-universe enumeration of isotopy classes and mechanical checks.

The universe at bound B is every triple with |p|, |q| <= B and n in
{0, 1, 2}.  Classes are keyed by normal form and stored in normal-form
order; an independent union-find closure over a three-times-larger universe
cross-checks the greedy normal-form strategy, and two further verifiers
exercise the double-cover lift: relation-by-relation compatibility and
injectivity on classes.  Every scan runs on plain (p, q, n) triples in
lexicographic order; `TorusLink`s are built only for atlas members and for
the violations a verifier reports.  `Atlas` and `VerificationReport` are
named tuples; a report built without `notes` has None there.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import product

from .links import (
    AmbientSpace,
    TorusLink,
    _MOVES,
    _lift,
    _move,
    _reduce,
    _swap,
    canonical,
    link_to_dict,
)


class Atlas(namedtuple("Atlas", "space bound classes")):
    __slots__ = ()  # classes: normal form -> members, in normal-form order

    def class_of(self, link: TorusLink) -> tuple[TorusLink, ...]:
        space = link.space
        return self.classes[TorusLink(space, *canonical(space, link.p, link.q, link.n))]

    def to_dict(self) -> dict:
        return {
            "space": self.space.value,
            "bound": self.bound,
            "classes": [
                {
                    "normal_form": link_to_dict(key),
                    "members": [link_to_dict(m) for m in members],
                }
                for key, members in self.classes.items()
            ],
        }

    def to_json(self) -> str:
        """The text of json.dumps(self.to_dict(), sort_keys=True, indent=2).

        json's C encoder does not indent, so the text is written directly,
        with one template for every link record, indented by `i`.
        """
        space = self.space.value
        record = '{{\n{i}  "n": %d,\n{i}  "p": %d,\n{i}  "q": %d,\n{i}  "space": "{s}"\n{i}}}'
        member = record.format(i=" " * 8, s=space)
        normal_form = record.format(i=" " * 6, s=space)
        classes = ",\n".join(
            '    {\n      "members": [\n        '
            + ",\n        ".join([member % (m.n, m.p, m.q) for m in members])
            + '\n      ],\n      "normal_form": '
            + normal_form % (key.n, key.p, key.q) + "\n    }"
            for key, members in self.classes.items())
        return (f'{{\n  "bound": {self.bound},\n  "classes": [\n{classes}\n  ],\n'
                f'  "space": "{space}"\n}}')


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


def universe(space: AmbientSpace, bound: int) -> list[TorusLink]:
    """All triples with |p|, |q| <= bound, in lexicographic (p, q, n) order."""
    return [TorusLink(space, p, q, n) for p, q, n in _triples(bound)]


def enumerate_classes(space: AmbientSpace, bound: int) -> Atlas:
    """Partition the bounded universe by normal form, in normal-form order."""
    buckets: dict[tuple[int, int, int], list[TorusLink]] = {}
    for p, q, n in _triples(bound):
        buckets.setdefault(canonical(space, p, q, n), []).append(TorusLink(space, p, q, n))
    # The scan is in (p, q, n) order, so every class comes out sorted.
    classes = {TorusLink(space, *key): tuple(buckets[key]) for key in sorted(buckets)}
    return Atlas(space, bound, classes)


def _index(bound: int, p: int, q: int, n: int) -> int:
    """Position of (p, q, n) in universe(space, bound)."""
    return ((p + bound) * (2 * bound + 1) + q + bound) * 3 + n


def _closure_roots(space: AmbientSpace, bound: int) -> list[int]:
    """Union-find closure of the bounded universe under all relation moves.

    Works on universe positions (see _index) in a flat parent list.  Every
    class is rooted at its least position, so at its lexicographically
    least triple.  Returns the root of every position.
    """
    parent = list(range(3 * (2 * bound + 1) ** 2))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    i = 0  # the position of (p, q, n)
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            for n in (0, 1, 2):
                images = [(-p, -q, n)]
                if n != 1:
                    images.append((*_swap(space, p, q), n))
                reduced = _reduce(space, p, q, n)
                if reduced is not None:
                    images.append((*reduced, n + 1))
                for image in images:
                    if abs(image[0]) <= bound and abs(image[1]) <= bound:
                        a, b = find(i), find(_index(bound, *image))
                        if a < b:
                            parent[b] = a
                        elif b < a:
                            parent[a] = b
                i += 1
    return [find(x) for x in range(len(parent))]


def closure_partition(space: AmbientSpace, bound: int) -> dict[TorusLink, TorusLink]:
    """Equivalence closure of the bounded universe under all relation moves.

    Forward moves are enumerated from every triple; a backward move is the
    reverse of some forward move from its target, so the closure covers both
    directions.  Moves whose result leaves the universe are skipped, which
    is why callers use a larger closure universe than the one they report
    on.  Returns a map from each triple to the least triple of its class.
    """
    links = universe(space, bound)
    return {link: links[root] for link, root in zip(links, _closure_roots(space, bound))}


def _split_pairs(groups: dict):
    """(key, a, b) for every pair across two subgroups of a group.

    `groups` maps each key to its subgroups, a dict of lists.  Groups come
    in key order, subgroups in first-seen order, and a group with one
    subgroup yields nothing.
    """
    for key in sorted(groups):
        subgroups = list(groups[key].values())
        for i, ga in enumerate(subgroups):
            for gb in subgroups[i + 1:]:
                for a in ga:
                    for b in gb:
                        yield key, a, b


def _violation(space: AmbientSpace, a: tuple, b: tuple, evidence: str) -> dict:
    return {"a": link_to_dict(TorusLink(space, *a)),
            "b": link_to_dict(TorusLink(space, *b)),
            "evidence": evidence}


def _all_pairs_report(bound: int, violations: list[dict], t0: float) -> VerificationReport:
    """A report that counts every pair of the bounded universe as checked."""
    n = 3 * (2 * bound + 1) ** 2
    return VerificationReport(bound, n * (n - 1) // 2, tuple(violations),
                              time.perf_counter() - t0)


def confluence_audit(space: AmbientSpace, bound: int) -> VerificationReport:
    """Cross-check normal forms against the union-find closure.

    The closure runs over |p|, |q| <= 3 * bound; the comparison is made on
    the inner universe.  Reports every inner pair on which the two
    partitions disagree, in either direction.
    """
    t0 = time.perf_counter()
    inner = _triples(bound)  # rejects a negative bound before the closure runs
    outer = 3 * bound
    roots = _closure_roots(space, outer)
    by_root: dict[int, dict[tuple, list]] = {}
    by_nf: dict[tuple, dict[int, list]] = {}
    for t in inner:
        root = roots[_index(outer, *t)]
        key = canonical(space, *t)
        by_root.setdefault(root, {}).setdefault(key, []).append(t)
        by_nf.setdefault(key, {}).setdefault(root, []).append(t)

    # Roots (positions) and keys (triples) both sort in (p, q, n) order.
    violations = [
        _violation(space, a, b, "union-find-equivalent but distinct normal forms")
        for _, a, b in _split_pairs(by_root)]
    violations += [
        _violation(space, a, b, "equal normal forms but not union-find-equivalent")
        for _, a, b in _split_pairs(by_nf)]
    return _all_pairs_report(bound, violations, t0)


def verify_lift_injectivity(bound: int) -> VerificationReport:
    """Isotopic lifts in S^3 must come from isotopic links in RP^3.

    Groups the bounded RP^3 universe by the normal form of the lift and
    reports any group containing two distinct RP^3 classes.  The converse
    direction (isotopic links have isotopic lifts) is checked alongside:
    the lift normal form must be constant on every RP^3 class.  Each class
    is represented by its first triple scanned, so by its least.
    """
    t0 = time.perf_counter()
    rp3, s3 = AmbientSpace.RP3, AmbientSpace.SPHERE3
    by_lift: dict[tuple, dict[tuple, list]] = {}
    by_base: dict[tuple, dict[tuple, list]] = {}
    for p, q, n in _triples(bound):
        base_key = canonical(rp3, p, q, n)
        lift_key = canonical(s3, *_lift(p, q), n)
        rep = [(p, q, n)]
        by_lift.setdefault(lift_key, {}).setdefault(base_key, rep)
        by_base.setdefault(base_key, {}).setdefault(lift_key, rep)

    violations = [
        _violation(rp3, a, b, f"isotopic lifts (S^3 class {TorusLink(s3, *key)!r}) "
                              "but distinct RP^3 classes")
        for key, a, b in _split_pairs(by_lift)]
    violations += [
        _violation(rp3, a, b, "isotopic in RP^3 but lifts in distinct S^3 classes")
        for _, a, b in _split_pairs(by_base)]
    return _all_pairs_report(bound, violations, t0)


def relation_lift_compatibility(bound: int) -> VerificationReport:
    """Every relation instance in RP^3 must lift to an S^3 isotopy.

    Applies every applicable move to every triple in the bounded universe
    and checks that the lifted endpoints are isotopic in S^3, recording the
    length of the longest witness chain `isotopic` would return.  On plain
    integers; the lift of each triple is reduced once, for all its moves.
    """
    t0 = time.perf_counter()
    rp3, s3 = AmbientSpace.RP3, AmbientSpace.SPHERE3
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
