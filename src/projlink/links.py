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
integers.  `normal_form` builds its chains from its forward moves,
`verify_chain` replays them forward through it, and the atlas's confluence
closure joins its forward images; only the relation-lift verifier also
tries the backward moves, over `_MOVES`.

`canonical(space, p, q, n)` computes the normal form on plain integers in
three straight-line blocks: an R3 reduction (n = 0 -> 1) and an R4
reduction (n = 1 -> 2), each on the best member of the R1/R2 orbit, then
the lexicographic minimum over the final orbit.  It raises nothing, since
R3 and R4 always shrink |p| + |q|.  `normal_form` turns its moves into a
witness chain, so every positive verdict carries a certificate; callers
that only compare classes, such as the atlas, use `canonical` and build no
chains.  A bounded `functools.lru_cache` keeps each link's normal form and
chain, for either verdict; `isotopic` and `classify` read it, so each side
is reduced at most once.

The records are named tuples, each equal to the plain tuple of its fields,
and a witness chain is the plain tuple of its steps.  `make_link` is the one
definition of a link, of exact ints; the normal-form cache reads links through
it, and so does `verify_chain`, which gives any iterable a verdict.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from functools import lru_cache
from math import gcd


class AmbientSpace(Enum):
    SPHERE3 = "s3"
    RP3 = "rp3"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality; unlike Enum.__hash__ it runs no Python-level
    # frame, and every cache and atlas key hashes its link's space.
    __hash__ = object.__hash__


class Relation(Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"


class Direction(Enum):
    FORWARD = "fwd"
    BACKWARD = "bwd"


# The members the integer kernel reads per triple and per move, bound once:
# on 3.11 reading one through its class costs more than ten times a
# module-level name.
_SPHERE3, _RP3 = AmbientSpace.SPHERE3, AmbientSpace.RP3
_R1, _R2, _R3, _R4 = _RELATIONS = tuple(Relation)
_FORWARD, _BACKWARD = Direction.FORWARD, Direction.BACKWARD


class CalculusError(Exception):
    """Base class for errors of the link calculus."""

    code = "CALCULUS_ERROR"


class InvalidN(CalculusError):
    """An integer n outside {0, 1, 2}."""

    code = "INVALID_N"


class InvalidInput(InvalidN):
    """A space that is not an AmbientSpace, or a p, q or n that is not an integer.

    It derives from InvalidN, which callers caught for any bad triple before
    this class existed, so those handlers still see it.
    """

    code = "INVALID_INPUT"


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


RelationStep = namedtuple("RelationStep", "relation direction before after")
RelationStep.__doc__ = "One application of a relation, with its endpoints."


class ClassificationKind(Enum):
    EMPTY = "EMPTY"
    SEIFERT_COMPLEMENT = "SEIFERT_COMPLEMENT"
    NON_SEIFERT_SPLIT = "NON_SEIFERT_SPLIT"


Classification = namedtuple("Classification", "kind detail")


_EMPTY, _SEIFERT, _SPLIT = (ClassificationKind.EMPTY, ClassificationKind.SEIFERT_COMPLEMENT,
                            ClassificationKind.NON_SEIFERT_SPLIT)
_EMPTY_LINK = Classification(_EMPTY, "the empty link")
_SEIFERT_LINK = Classification(_SEIFERT, "complement admits a Seifert fibration")

# _tuple_new(TorusLink, (space, p, q, n)) is TorusLink(space, p, q, n), built as
# namedtuple's _make builds it: without the Python-level __new__ frame.
_tuple_new = tuple.__new__


def _check_space(space: AmbientSpace) -> None:
    if space is not _SPHERE3 and space is not _RP3:  # by identity: no enum class read
        raise InvalidInput(f"space must be an AmbientSpace, got {space!r}")


def make_link(space: AmbientSpace, p: int, q: int, n: int) -> TorusLink:
    """The one definition of a link: a space, then exact ints p, q and n in {0, 1, 2}.

    An int subclass other than bool is read by `int.__index__`, which it
    cannot override, and n's range is checked on that value."""
    if ((space is _SPHERE3 or space is _RP3)
            and type(p) is type(q) is type(n) is int and 0 <= n <= 2):
        return _tuple_new(TorusLink, (space, p, q, n))
    _check_space(space)
    for name, value in (("p", p), ("q", q), ("n", n)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInput(f"{name} must be an integer, got {value!r}")
    p, q, n = int.__index__(p), int.__index__(q), int.__index__(n)
    if n not in (0, 1, 2):
        raise InvalidN(f"n must be 0, 1 or 2, got {n}")
    return _tuple_new(TorusLink, (space, p, q, n))


def component_count(link: TorusLink) -> int:
    """Number of components: gcd(|p|, |q|) parallel copies plus n cores."""
    return gcd(link.p, link.q) + link.n


# ---------------------------------------------------------------------------
# The relations, on plain integers (see the module docstring for R3 and R4).


def _swap(space: AmbientSpace, p: int, q: int) -> tuple[int, int]:
    """R2 on (p, q): exchange the handlebodies."""
    if space is _SPHERE3:
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
        k = q if space is _SPHERE3 else -p + 2 * q
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
    if relation is _R1:
        return -p, -q, n
    if relation is _R2:
        return (*_swap(space, p, q), n) if n in (0, 2) else None
    low = 0 if relation is _R3 else 1  # the n that the move raises
    if direction is _FORWARD:
        image = _reduce(space, p, q, n) if n == low else None
        return None if image is None else (*image, n + 1)
    if n != low + 1:
        return None
    if p == 0 and q == 0:  # the fixed preimages of the module docstring
        if relation is _R3:
            return 1, 0, 0
        return (0, 1, 1) if space is _SPHERE3 else (1, 1, 1)
    image = _reduce(space, p, q, low, 1)
    return None if image is None else (*image, low)


# Every move, in the order the atlas's relation-lift verifier tries them.  R1
# and R2 are involutions, listed forward only.  The confluence closure joins
# the forward moves alone: a backward image is a forward preimage.
_MOVES = (
    (Relation.R1, Direction.FORWARD),
    (Relation.R2, Direction.FORWARD),
    (Relation.R3, Direction.FORWARD),
    (Relation.R3, Direction.BACKWARD),
    (Relation.R4, Direction.FORWARD),
    (Relation.R4, Direction.BACKWARD),
)


def verify_chain(chain: Iterable[RelationStep], start: TorusLink, end: TorusLink) -> bool:
    """True when every step replays and the steps join `start` to `end`.

    Both endpoints are required, so a True names the two links it joins; an
    empty chain joins a link to itself only.  Steps are 4-tuples `relation,
    direction, before, after` in any iterable, links too; a backward step
    replays forward from `after` to `before`.  Each step replays through
    `_move`, whose None for a move that does not apply fails the
    comparison's unpacking.  Every link is read as `make_link(*link)`, an error
    giving False, so no float, bool or `__eq__` of the caller's is compared
    with an image it would falsely equal.
    """
    try:
        cur, end = make_link(*start), make_link(*end)
        for relation, direction, before, after in chain:
            before, after = make_link(*before), make_link(*after)
            if before != cur:
                return False
            cur = after
            if direction is _BACKWARD:
                before, after = after, before
            elif direction is not _FORWARD:
                return False
            space, p, q, n = before
            # By identity: `_move` reads any other relation as R4.
            if (relation is not _R1 and relation is not _R2 and relation is not _R3
                    and relation is not _R4):
                return False
            if after != (space, *_move(space, relation, _FORWARD, p, q, n)):
                return False
    except Exception:  # a chain that cannot be replayed certifies nothing
        return False
    return cur == end


# ---------------------------------------------------------------------------
# Normal forms.

# The moves of the R1/R2 orbit paths, from s to R1 s, R2 s and R1 R2 s.
_PATH_R1, _PATH_R2, _PATH_R1_R2 = (_R1,), (_R2,), (_R1, _R2)


def canonical(space: AmbientSpace, p: int, q: int, n: int,
              moves: list[Relation] | None = None) -> tuple[int, int, int]:
    """Normal form of T(p, q; n) as a plain (p, q, n) triple.

    Three blocks, each run at most once: R3 at n = 0, then R4 at n = 1, then
    the least (p, q) over the R1/R2 orbit s, R1 s, R2 s, R1 R2 s (R2 only
    at n != 1).  A reduction applies to the first member in that order that
    reduces; the minimum keeps +-s unless +-R2 s is strictly less.  Neither
    choice can decide a tie between distinct pairs:

    - R3: only the member +-s or +-R2 s with a positive first coordinate can
      reduce.  In S^3 both reduce only when |p| divides q and |q| divides p,
      so |p| = |q|, and the two members are the same pair.  In RP^3, with
      q = mp, both reduce only when |2m - 1| divides m; the two are coprime,
      so m is 0 or 1, and R2 s is (-p, 0) or (p, p), again +-s.
    - Minimum: the first coordinates are -|p| and -|R2 s first coordinate|.
      In S^3 they are equal only when |p| = |q|, where R2 s is +-s; in
      RP^3 only when -p + 2q = +-p, so q = p or q = 0, where R2 s is s or
      (-p, 0).  Equal first coordinates thus mean equal pairs.  R2 s wins only
      with a first coordinate below -|p| <= 0, so its sign rule ignores a zero.

    No reduction can fail to shrink |p| + |q|, so none is guarded: `_reduce`
    gives an image only when k > 0 divides p and q; k is p (R3), q or
    -p + 2q (R4), so (p, q) != (0, 0), and (k - 1)/k (p, q) is smaller.
    `canonical` raises nothing and validates nothing (build triples from
    outside input with make_link); a list `moves` gets the moves applied.
    """
    if n == 0:
        # R3's divisor is the member's own first coordinate: of each pair
        # +-(a, b), only the member with a > 0 can reduce.
        a, b, path = (p, q, ()) if p > 0 else (-p, -q, _PATH_R1)
        best = _reduce(space, a, b, 0)
        if best is None:
            c, d = _swap(space, p, q)
            a, b, path = (c, d, _PATH_R2) if c > 0 else (-c, -d, _PATH_R1_R2)
            best = _reduce(space, a, b, 0)
        if best is not None:
            if moves is not None:
                moves += (*path, _R3)
            (p, q), n = best, 1
    if n == 1:
        # R2 does not apply, and R4's divisor is linear: at most one of +-s reduces.
        best, path = _reduce(space, p, q, 1), ()
        if best is None:
            best, path = _reduce(space, -p, -q, 1), _PATH_R1
        if best is not None:
            if moves is not None:
                moves += (*path, _R4)
            (p, q), n = best, 2
    # The lesser of +-(a, b) is the one with a < 0, or with a = 0 and b <= 0.
    a, b, path = (-p, -q, _PATH_R1) if p > 0 or not p and q > 0 else (p, q, ())
    if n != 1:
        c, d = _swap(space, p, q)
        c, d, swapped = (-c, -d, _PATH_R1_R2) if c > 0 else (c, d, _PATH_R2)
        if c < a:
            a, b, path = c, d, swapped
    if moves is not None:
        moves += path
    return a, b, n


def normal_form(link: TorusLink) -> tuple[TorusLink, tuple[RelationStep, ...]]:
    """Canonical representative of the isotopy class, with a move chain.

    The chain holds the moves `canonical` applied, built by `_move`; `verify_chain` checks it.
    A link that is not cached must pass `make_link`'s checks, or this raises its error.
    """
    return _normal_form(link)


# Interactive callers ask about the same triples again and again; scans of
# the atlas use `canonical` and never reach this cache.  `lru_cache` is
# bounded and safe to share between threads, and it keeps the sides of
# negative verdicts too.  The bound is measured on the benchmark's
# query-mix, seeds 1-3: `canonical` calls per query over 150,000 queries,
# the tracemalloc size of a full cache, and the peak RSS after 20,000
# queries, where the benchmark reads it:
#
#   maxsize                 4,096  8,192  16,384
#   reductions per query    0.700  0.636   0.576
#   MiB                       2.6    5.3    10.8
#   VmHWM                    21.5   24.4    27.4 MB
@lru_cache(maxsize=1 << 13)
def _normal_form(link: TorusLink) -> tuple[TorusLink, tuple[RelationStep, ...]]:
    # Read through `make_link`, its fast test inline: calling it costs a miss more than noise.
    # A plain 4-tuple is rebuilt as a record, so the cache holds only records.
    space, p, q, n = link
    if not (type(link) is TorusLink and (space is _SPHERE3 or space is _RP3)
            and type(p) is type(q) is type(n) is int and 0 <= n <= 2):
        space, p, q, n = link = make_link(*link)
    moves = []
    canonical(space, p, q, n, moves)
    steps = []
    for relation in moves:
        before, (p, q, n) = link, _move(space, relation, _FORWARD, p, q, n)
        link = _tuple_new(TorusLink, (space, p, q, n))
        steps.append(_tuple_new(RelationStep, (relation, _FORWARD, before, link)))
    return link, tuple(steps)


def isotopic(a: TorusLink, b: TorusLink) -> tuple[bool, tuple[RelationStep, ...] | None]:
    """Decide isotopy via normal forms; a positive verdict carries a chain.

    Each side's normal form and chain come from the cache `normal_form`
    reads, so a side is reduced at most once, whatever the verdict.  The
    chain runs a -> normal form -> b and replays successfully.  Negative
    verdicts rest on the completeness of the four relations together with
    the empirical confluence audit of the atlas module.
    """
    if a[0] is not b[0]:  # by position: a plain 4-tuple is a link too
        _check_space(a[0])  # before the message's repr, which reads space.value
        _check_space(b[0])
        raise SpaceMismatch(f"cannot compare {a!r} and {b!r}")
    nf_a, chain_a = _normal_form(a)
    nf_b, chain_b = _normal_form(b)
    if nf_a != nf_b:
        return False, None
    # b's chain holds forward moves only; run backward, R1 and R2 stay forward.
    return True, chain_a + tuple(
        _tuple_new(RelationStep, (relation, _FORWARD if relation is _R1 or relation is _R2
                                  else _BACKWARD, after, before))
        for relation, _, before, after in reversed(chain_b))


def _lift(p: int, q: int) -> tuple[int, int]:
    """The lift on coefficients: (p, q) -> (p, -p + 2q); n is kept."""
    return p, -p + 2 * q


def lift(link: TorusLink) -> TorusLink:
    """Preimage in S^3 under the double cover, by `_lift`.

    Reads its link as `make_link(*link)`, as `verify_chain` does, so any
    4-tuple that is a valid RP^3 link lifts, and an invalid one raises what
    `make_link` raises, before the space is compared with RP^3.
    """
    space, p, q, n = link = make_link(*link)
    if space is not _RP3:
        raise WrongSpace(f"lift is defined on RP^3 links, got {link!r}")
    return _tuple_new(TorusLink, (_SPHERE3, *_lift(p, q), n))


def classify(link: TorusLink) -> Classification:
    """Empty, split (non-Seifert) or Seifert-fibered complement.

    The split families are T(0, c; 0) with c >= 2 in either space and
    T(2m, m; 1) with m = c - 1 >= 1 in RP^3, c the component count, an isotopy
    invariant: R1 and R2 keep gcd(p, q), R3 and R4 trade a copy for a core.  The
    link's normal form comes from the cache `normal_form` reads; the members'
    are in closed form: in S^3 T(0, c; 0) -> (1 - c, 0; 1) by R2, R3 and R1
    (R4's k = q = 0); in RP^3 T(0, c; 0) -> (-2c, -c; 0) by R1 R2 (R3's k = 2c
    does not divide c) and T(2m, m; 1) -> (-2m, -m; 1) by R1 (R4's k = 0).
    """
    nf = _normal_form(link)[0]
    c = component_count(nf)  # exact ints, unlike a hand-built link on a cache hit
    space, nf = nf[0], nf[1:]  # the record's space: the link may be a plain 4-tuple
    if nf == (0, 0, 0):
        return _EMPTY_LINK
    if c >= 2:
        rp3 = space is _RP3
        if nf == ((-2 * c, -c, 0) if rp3 else (1 - c, 0, 1)):
            return _tuple_new(Classification,
                              (_SPLIT, f"split link of {c} fibers in a ball: T(0,{c};0)"))
        if rp3 and nf == (2 - 2 * c, 1 - c, 1):
            return _tuple_new(Classification, (_SPLIT, f"split link T(2q,q;1) with q={c - 1}"))
    return _SEIFERT_LINK


# ---------------------------------------------------------------------------
# JSON wire format.


# `_value_`, a plain attribute: `value` is a Python-level property on 3.11.
def link_to_dict(link: TorusLink) -> dict:
    return {"space": link.space._value_, "p": link.p, "q": link.q, "n": link.n}


def chain_to_list(chain: tuple[RelationStep, ...]) -> list[dict]:
    return [{"relation": relation._value_, "direction": direction._value_,
             "before": link_to_dict(before), "after": link_to_dict(after)}
            for relation, direction, before, after in chain]
