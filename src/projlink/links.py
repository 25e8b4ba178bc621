"""Torus-link calculus on the genus-1 Heegaard splittings of S^3 and RP^3.

A link T(p, q; n) is the union of gcd(p, q) parallel (p', q')-curves on the
Heegaard torus together with the cores of n of the two handlebodies.  Four
rewrite moves generate isotopy of these links:

  R1  negate both coefficients (the links are unoriented),
  R2  exchange the two handlebodies (n = 0, 2 only); in S^3 this swaps
      (p, q), in RP^3 it maps p to -p + 2q,
  R3  isotope one parallel copy onto the core of the first handlebody,
  R4  isotope one parallel copy onto the core of the second handlebody.

R3 (n = 0 -> 1) and R4 (n = 1 -> 2) scale (p, q) by the divisor k of the
triple: k = p for R3; for R4, k = q in S^3 and k = -p + 2q in RP^3.  Forward,
when k > 0 divides p and q, (p, q) becomes (k - 1)/k (p, q).  k is linear, so
a backward move reads it off the image as k - 1 and scales by (k + 1)/k.  The
images (0, 0; 1) and (0, 0; 2) have many preimages, so the backward moves
take a fixed one: (1, 0; 0) for R3, and for R4 (0, 1; 1) in S^3 and
(1, 1; 1) in RP^3.  `_move` is the one definition of every move, on plain
integers; `apply_relation` and `applicable_relations` read it.

`canonical(space, p, q, n)` computes the normal form on plain integers:
greedy forward reduction (R3/R4 always shrink |p| + |q|) followed by
lexicographic minimization over the R1/R2 orbit.  R3 needs n = 0 and yields
n = 1, R4 needs n = 1 and yields n = 2, so there are at most two
reductions, each searching an orbit of at most four members: the depth is
constant.  `normal_form` replays the moves `canonical` applied into a
witness chain, so every positive verdict carries a replayable certificate;
callers that only compare classes, such as the atlas and its verifiers,
use `canonical` and build no chains.

The records are named tuples, each equal to the plain tuple of its fields,
except `WitnessChain`: an immutable class whose length is its step count.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from math import gcd


class AmbientSpace(Enum):
    SPHERE3 = "s3"
    RP3 = "rp3"


class Relation(Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"


class Direction(Enum):
    FORWARD = "fwd"
    BACKWARD = "bwd"


class CalculusError(Exception):
    """Base class for errors of the link calculus."""

    code = "CALCULUS_ERROR"


class InvalidN(CalculusError):
    """An integer n outside {0, 1, 2}."""

    code = "INVALID_N"


class InvalidInput(InvalidN):
    """A coefficient or n that is not an integer, or a malformed wire triple or chain.

    It derives from InvalidN, which callers caught for any bad triple before
    this class existed, so those handlers still see it.
    """

    code = "INVALID_INPUT"


class NotApplicable(CalculusError):
    code = "NOT_APPLICABLE"


class SpaceMismatch(CalculusError):
    code = "SPACE_MISMATCH"


class WrongSpace(CalculusError):
    code = "WRONG_SPACE"


class TorusLink(namedtuple("TorusLink", "space p q n")):
    """A triple (p, q; n) tagged with its ambient space.

    Any integer pair (p, q) is allowed; n counts how many handlebody cores
    are added and must be 0, 1 or 2.  (0, 0; 0) denotes the empty link.
    """

    __slots__ = ()

    def __repr__(self):
        return f"T[{self.space.value}]({self.p},{self.q};{self.n})"


class RelationStep(namedtuple("RelationStep", "relation direction before after")):
    """One application of a relation, with its endpoints."""

    __slots__ = ()


class WitnessChain:
    """A composable sequence of relation steps certifying an isotopy."""

    __slots__ = __match_args__ = ("steps",)

    def __init__(self, steps: tuple[RelationStep, ...] = ()):
        object.__setattr__(self, "steps", steps)

    def __setattr__(self, name, *value):
        raise AttributeError(f"WitnessChain is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    # __setattr__ refuses, so pickle and copy rebuild through the constructor.
    def __reduce__(self):
        return WitnessChain, (self.steps,)

    def __eq__(self, other):
        return self.steps == other.steps if type(other) is WitnessChain else NotImplemented

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"WitnessChain(steps={self.steps!r})"

    def __len__(self):
        return len(self.steps)


class ClassificationKind(Enum):
    EMPTY = "EMPTY"
    SEIFERT_COMPLEMENT = "SEIFERT_COMPLEMENT"
    NON_SEIFERT_SPLIT = "NON_SEIFERT_SPLIT"


class Classification(namedtuple("Classification", "kind detail")):
    __slots__ = ()


def make_link(space: AmbientSpace, p: int, q: int, n: int) -> TorusLink:
    """Build a validated triple; n must be 0, 1 or 2."""
    for name, value in (("p", p), ("q", q), ("n", n)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if n not in (0, 1, 2):
        raise InvalidN(f"n must be 0, 1 or 2, got {n}")
    return TorusLink(space, p, q, n)


def component_count(link: TorusLink) -> int:
    """Number of components: gcd(|p|, |q|) parallel copies plus n cores."""
    if link.p == 0 and link.q == 0:
        return link.n
    return gcd(abs(link.p), abs(link.q)) + link.n


# ---------------------------------------------------------------------------
# The relations, on plain integers (see the module docstring for R3 and R4).


def _swap(space: AmbientSpace, p: int, q: int) -> tuple[int, int]:
    """R2 on (p, q): exchange the handlebodies."""
    if space is AmbientSpace.SPHERE3:
        return q, p
    return -p + 2 * q, q


def _reduce(space: AmbientSpace, p: int, q: int, n: int,
            step: int = -1) -> tuple[int, int] | None:
    """(k + step)/k (p, q) for the divisor k of R3 (n = 0) or R4 (n = 1).

    None when n is 2 or k does not divide p and q with k > 0.  With the
    default step this is the forward move, whose result carries n + 1 cores.
    """
    if n == 0:
        k = p
    elif n == 1:
        k = q if space is AmbientSpace.SPHERE3 else -p + 2 * q
    else:
        return None
    if k <= 0 or q % k or p % k:
        return None
    return p // k * (k + step), q // k * (k + step)


def _move(space: AmbientSpace, relation: Relation, direction: Direction,
          p: int, q: int, n: int) -> tuple[int, int, int] | None:
    """Image of one move on (p, q; n), or None when it does not apply.

    R1 and R2 are involutions, so both directions give the same image.
    """
    if relation is Relation.R1:
        return -p, -q, n
    if relation is Relation.R2:
        return (*_swap(space, p, q), n) if n in (0, 2) else None
    low = 0 if relation is Relation.R3 else 1  # the n that the move raises
    if direction is Direction.FORWARD:
        image = _reduce(space, p, q, n) if n == low else None
        return None if image is None else (*image, n + 1)
    if n != low + 1:
        return None
    if p == 0 and q == 0:  # the fixed preimages of the module docstring
        if relation is Relation.R3:
            return 1, 0, 0
        return (0, 1, 1) if space is AmbientSpace.SPHERE3 else (1, 1, 1)
    image = _reduce(space, p, q, low, 1)
    return None if image is None else (*image, low)


# Every move, in the order applicable_relations lists them.  R1 and R2 are
# listed forward only.
_MOVES = (
    (Relation.R1, Direction.FORWARD),
    (Relation.R2, Direction.FORWARD),
    (Relation.R3, Direction.FORWARD),
    (Relation.R3, Direction.BACKWARD),
    (Relation.R4, Direction.FORWARD),
    (Relation.R4, Direction.BACKWARD),
)


def applicable_relations(link: TorusLink) -> list[tuple[Relation, Direction]]:
    """All moves applicable to this exact triple.

    R1 and R2 are involutions and are listed only in the forward direction;
    R3/R4 are listed backward whenever the inverse side-conditions hold.
    """
    space, p, q, n = link.space, link.p, link.q, link.n
    return [move for move in _MOVES if _move(space, *move, p, q, n) is not None]


def apply_relation(
    link: TorusLink, relation: Relation, direction: Direction = Direction.FORWARD
) -> RelationStep:
    """Apply one move, returning the step with its computed endpoint.

    R1 and R2 are their own inverses, so both directions are accepted for
    them.  Raises NotApplicable when a side-condition fails.
    """
    image = _move(link.space, relation, direction, link.p, link.q, link.n)
    if image is None:
        raise NotApplicable(
            f"{relation.value} {direction.value} does not apply to {link!r}")
    return RelationStep(relation, direction, link, TorusLink(link.space, *image))


def replay_step(step: RelationStep) -> bool:
    """Check a step by recomputing it from its endpoints."""
    try:
        if step.direction is Direction.FORWARD:
            redo = apply_relation(step.before, step.relation, Direction.FORWARD)
            return redo.after == step.after
        # A backward step is certified by the forward move in reverse.
        redo = apply_relation(step.after, step.relation, Direction.FORWARD)
        return redo.after == step.before
    except CalculusError:
        return False


def verify_chain(chain: WitnessChain, start: TorusLink | None = None,
                 end: TorusLink | None = None) -> bool:
    """Replay every step and check composability and endpoints."""
    steps = chain.steps
    if not steps:
        return start is None or end is None or start == end
    if start is not None and steps[0].before != start:
        return False
    if end is not None and steps[-1].after != end:
        return False
    for i, step in enumerate(steps):
        if not replay_step(step):
            return False
        if i and steps[i - 1].after != step.before:
            return False
    return True


def _reverse_step(step: RelationStep) -> RelationStep:
    if step.relation in (Relation.R1, Relation.R2):
        # Involutions: the reverse is again a forward application.
        return RelationStep(step.relation, Direction.FORWARD, step.after, step.before)
    flipped = (Direction.BACKWARD if step.direction is Direction.FORWARD
               else Direction.FORWARD)
    return RelationStep(step.relation, flipped, step.after, step.before)


def reverse_chain(chain: WitnessChain) -> WitnessChain:
    return WitnessChain(tuple(_reverse_step(s) for s in reversed(chain.steps)))


def concat_chains(a: WitnessChain, b: WitnessChain) -> WitnessChain:
    return WitnessChain(a.steps + b.steps)


# ---------------------------------------------------------------------------
# Normal forms.


def _orbit(space: AmbientSpace, p: int, q: int, n: int) -> list[tuple[int, int, tuple]]:
    """The R1/R2 orbit of (p, q) as (p, q, moves) in breadth-first order.

    Negation and the handlebody swap are commuting involutions, so the orbit
    is s, R1 s, R2 s, R1 R2 s with repeats dropped.  Each member carries the
    moves of the first breadth-first path that reaches it from s.
    """
    if p == 0 and q == 0:  # fixed by both moves
        return [(0, 0, ())]
    out = [(p, q, ()), (-p, -q, (Relation.R1,))]
    if n != 1:
        sp, sq = _swap(space, p, q)
        # R1 R2 s is new exactly when R2 s is: R2 fixes only (0, 0).
        if (sp, sq) != (p, q) and (sp, sq) != (-p, -q):
            out.append((sp, sq, (Relation.R2,)))
            out.append((-sp, -sq, (Relation.R1, Relation.R2)))
    return out


def canonical(space: AmbientSpace, p: int, q: int, n: int,
              moves: list[Relation] | None = None) -> tuple[int, int, int]:
    """Normal form of T(p, q; n) as a plain (p, q, n) triple.

    While some member of the R1/R2 orbit admits a forward R3/R4 reduction,
    applies the one with the least result (p, q), the member reached by the
    shorter orbit path winning ties; then returns the least (p, q) over the
    orbit.  Each reduction raises n, so there are at most two.  When `moves`
    is a list, the forward moves applied are appended to it in order.
    Raises CalculusError if a reduction fails to shrink |p| + |q|.  The
    arguments are not validated: build triples from outside input with
    make_link first.
    """
    while True:
        orbit = _orbit(space, p, q, n)
        best = None
        if n < 2:
            for mp, mq, path in orbit:
                after = _reduce(space, mp, mq, n)
                if after is not None and (best is None or after < best[0]):
                    best = after, path, abs(mp) + abs(mq)
        if best is None:
            break
        (rp, rq), path, measure = best
        if abs(rp) + abs(rq) >= measure:
            raise CalculusError(f"reduction of {(p, q, n)} does not shrink |p| + |q|")
        if moves is not None:
            moves.extend(path)
            moves.append(Relation.R3 if n == 0 else Relation.R4)
        p, q, n = rp, rq, n + 1
    # Orbit members differ in (p, q), so min never compares their paths.
    p, q, path = min(orbit)
    if moves is not None:
        moves.extend(path)
    return p, q, n


def normal_form(link: TorusLink) -> tuple[TorusLink, WitnessChain]:
    """Canonical representative of the isotopy class, with a move chain.

    The representative is `canonical` of the triple; the chain replays the
    moves `canonical` applied, one `apply_relation` each.
    """
    return _normal_form_memo(link)


# Interactive callers ask about the same triples again and again; scans of
# the atlas use `canonical` and never reach this cache.
@lru_cache(maxsize=1 << 16)
def _normal_form_memo(link: TorusLink) -> tuple[TorusLink, WitnessChain]:
    moves: list[Relation] = []
    canonical(link.space, link.p, link.q, link.n, moves)
    steps = []
    cur = link
    for relation in moves:
        step = apply_relation(cur, relation)
        steps.append(step)
        cur = step.after
    return cur, WitnessChain(tuple(steps))


def isotopic(a: TorusLink, b: TorusLink) -> tuple[bool, WitnessChain | None]:
    """Decide isotopy via normal forms; a positive verdict carries a chain.

    The chain runs a -> normal form -> b and replays successfully.  Negative
    verdicts rest on the completeness of the four relations together with
    the empirical confluence audit of the atlas module.
    """
    if a.space is not b.space:
        raise SpaceMismatch(f"cannot compare {a!r} and {b!r}")
    if canonical(a.space, a.p, a.q, a.n) != canonical(b.space, b.p, b.q, b.n):
        return False, None
    return True, concat_chains(normal_form(a)[1], reverse_chain(normal_form(b)[1]))


def _lift(p: int, q: int) -> tuple[int, int]:
    """The lift on coefficients: (p, q) -> (p, -p + 2q); n is kept."""
    return p, -p + 2 * q


def lift(link: TorusLink) -> TorusLink:
    """Preimage in S^3 under the double cover, by `_lift`."""
    if link.space is not AmbientSpace.RP3:
        raise WrongSpace(f"lift is defined on RP^3 links, got {link!r}")
    return TorusLink(AmbientSpace.SPHERE3, *_lift(link.p, link.q), link.n)


def classify(link: TorusLink) -> Classification:
    """Empty, split (non-Seifert) or Seifert-fibered complement.

    The split families are T(0, q; 0) with q >= 2 in either space and
    T(2q, q; 1) with q >= 1 in RP^3; membership is decided by comparing
    normal forms, using the component count to pin down q.
    """
    space = link.space
    nf = canonical(space, link.p, link.q, link.n)
    if nf == canonical(space, 0, 0, 0):
        return Classification(ClassificationKind.EMPTY, "the empty link")
    c = component_count(link)
    if c >= 2 and nf == canonical(space, 0, c, 0):
        return Classification(
            ClassificationKind.NON_SEIFERT_SPLIT,
            f"split link of {c} fibers in a ball: T(0,{c};0)")
    if (space is AmbientSpace.RP3 and c >= 2
            and nf == canonical(space, 2 * (c - 1), c - 1, 1)):
        return Classification(
            ClassificationKind.NON_SEIFERT_SPLIT,
            f"split link T(2q,q;1) with q={c - 1}")
    return Classification(
        ClassificationKind.SEIFERT_COMPLEMENT,
        "complement admits a Seifert fibration")


# ---------------------------------------------------------------------------
# JSON wire format.


def link_to_dict(link: TorusLink) -> dict:
    return {"space": link.space.value, "p": link.p, "q": link.q, "n": link.n}


def link_from_dict(data: dict) -> TorusLink:
    try:
        space = AmbientSpace(data["space"])
        return make_link(space, data["p"], data["q"], data["n"])
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidInput(f"malformed triple {data!r}") from exc


def step_to_dict(step: RelationStep) -> dict:
    return {
        "relation": step.relation.value,
        "direction": step.direction.value,
        "before": link_to_dict(step.before),
        "after": link_to_dict(step.after),
    }


def step_from_dict(data: dict) -> RelationStep:
    try:
        return RelationStep(Relation(data["relation"]), Direction(data["direction"]),
                            link_from_dict(data["before"]), link_from_dict(data["after"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidInput(f"malformed witness step {data!r}") from exc


def chain_to_list(chain: WitnessChain) -> list[dict]:
    return [step_to_dict(s) for s in chain.steps]


def chain_from_list(data: list[dict]) -> WitnessChain:
    try:
        return WitnessChain(tuple(step_from_dict(d) for d in data))
    except TypeError as exc:  # not iterable; a bad step raises InvalidInput
        raise InvalidInput(f"malformed witness chain {data!r}") from exc
