"""`verify_chain` against tampered chains, and a pin on `isotopic`'s chains.

Every check below would pass if a step's replay accepted anything: the
tampered chains keep their endpoints and the links between their steps, so
only the replay of the tampered step can reject them.  The digest was
recorded from the implementation that built the reversed half of a chain
with separate reverse and concatenate helpers and replayed each step in a
helper of its own.

`verify_chain` is total: a chain of plain tuples, or any iterable, gets the
verdict its records would, and an element that is not a step gets False.
"""

import hashlib
import random

import pytest

from projlink.links import (
    AmbientSpace,
    Direction,
    Relation,
    RelationStep,
    TorusLink,
    isotopic,
    make_link,
    normal_form,
    verify_chain,
)

S3 = AmbientSpace.SPHERE3
RP3 = AmbientSpace.RP3
FWD, BWD = Direction.FORWARD, Direction.BACKWARD
A, B = make_link(S3, 12, 36, 0), make_link(S3, 36, 12, 0)

# Per space: SHA-256 over every ordered pair of triples with |p|, |q| <= 6:
# the verdict, the chain's steps and the verdict on a seeded corruption.
ISOTOPIC_DIGESTS_BOUND_6 = {
    S3: "b7d77d29278c52c0bd7a27a56e0c2055520d524ed7af6e15ff6277f76b2fa8cf",
    RP3: "5ef19a6835fdb567ecb2d63443cd895a5d65bf7ee2fd03519316600d552eb3da",
}


def chain_steps() -> list:
    """isotopic(A, B): R3 fwd, R1, R1, R3 bwd, R2."""
    ok, chain = isotopic(A, B)
    assert ok
    return list(chain)


def one_step(step: RelationStep) -> tuple[tuple[RelationStep], TorusLink, TorusLink]:
    return (step,), step.before, step.after


def test_the_untampered_chain_replays():
    steps = chain_steps()
    assert [(s.relation, s.direction) for s in steps] == [
        (Relation.R3, FWD), (Relation.R1, FWD), (Relation.R1, FWD),
        (Relation.R3, BWD), (Relation.R2, FWD)]
    assert verify_chain(tuple(steps), A, B)


@pytest.mark.parametrize("index,relation", [
    (0, Relation.R4), (0, Relation.R1), (1, Relation.R2), (3, Relation.R4), (4, Relation.R1)])
def test_wrong_relation_is_rejected(index, relation):
    steps = chain_steps()
    steps[index] = steps[index]._replace(relation=relation)
    assert not verify_chain(tuple(steps), A, B)


@pytest.mark.parametrize("index", [0, 3])
def test_flipped_direction_is_rejected(index):
    steps = chain_steps()
    flipped = BWD if steps[index].direction is FWD else FWD
    steps[index] = steps[index]._replace(direction=flipped)
    assert not verify_chain(tuple(steps), A, B)


@pytest.mark.parametrize("index", [0, 3])
def test_swapped_endpoints_are_rejected(index):
    step = chain_steps()[index]
    swapped = step._replace(before=step.after, after=step.before)
    assert not verify_chain(*one_step(swapped))
    assert verify_chain(*one_step(step))


@pytest.mark.parametrize("index", [1, 4])
def test_swapped_endpoints_of_an_involution_stay_valid(index):
    step = chain_steps()[index]
    assert verify_chain(*one_step(step._replace(before=step.after, after=step.before)))


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_after_off_by_one_is_rejected(index):
    # The next step starts where the tampered one ends, so only replay can tell.
    steps = chain_steps()
    after = steps[index].after
    moved = after._replace(p=after.p + 1)
    steps[index] = steps[index]._replace(after=moved)
    steps[index + 1] = steps[index + 1]._replace(before=moved)
    assert not verify_chain(tuple(steps), A, B)


def test_after_off_by_one_on_the_last_step_is_rejected():
    step = chain_steps()[-1]
    moved = step.after._replace(q=step.after.q + 1)
    assert not verify_chain((step._replace(after=moved),), step.before, moved)


@pytest.mark.parametrize("drop", [1, 2])
def test_broken_link_between_steps_is_rejected(drop):
    steps = chain_steps()
    del steps[drop]
    # Every remaining step replays on its own.
    assert all(verify_chain(*one_step(s)) for s in steps)
    assert not verify_chain(tuple(steps), A, B)


def test_wrong_start_or_end_is_rejected():
    chain = tuple(chain_steps())
    assert verify_chain(chain, A, B)
    assert not verify_chain(chain, make_link(S3, 12, 36, 1), B)
    assert not verify_chain(chain, B, B)
    assert not verify_chain(chain, A, make_link(S3, 36, 12, 2))
    assert not verify_chain(chain, A, A)


def test_empty_chain_needs_equal_endpoints():
    empty = ()
    assert not verify_chain(empty, A, B)
    assert verify_chain(empty, A, A)


# A step whose relation or direction is not a member of its enum is not a
# move, even where the R4 it would be read as replays: R4 takes (0, 1; 1)
# to (0, 0; 2) in S^3.
R4_FROM, R4_TO = make_link(S3, 0, 1, 1), make_link(S3, 0, 0, 2)


@pytest.mark.parametrize("relation", ["R4", "R1", None])
def test_a_relation_that_is_not_a_member_is_rejected(relation):
    assert verify_chain((RelationStep(Relation.R4, FWD, R4_FROM, R4_TO),), R4_FROM, R4_TO)
    step = RelationStep(relation, FWD, R4_FROM, R4_TO)
    assert not verify_chain((step,), R4_FROM, R4_TO)


def test_a_direction_that_is_not_a_member_is_rejected():
    assert verify_chain((RelationStep(Relation.R4, BWD, R4_TO, R4_FROM),), R4_TO, R4_FROM)
    step = RelationStep(Relation.R4, "sideways", R4_TO, R4_FROM)
    assert not verify_chain((step,), R4_TO, R4_FROM)


def _corrupt(rng: random.Random, steps: tuple, b: TorusLink):
    """A seeded corruption of a chain from some a to b: (label, chain, end)."""
    if not steps:
        return "end", steps, b._replace(n=(b.n + 1) % 3)
    i = rng.randrange(len(steps))
    step = steps[i]
    kind = rng.randrange(5)
    if kind == 0:
        others = [r for r in Relation if r is not step.relation]
        step = step._replace(relation=others[rng.randrange(3)])
    elif kind == 1:
        step = step._replace(direction=BWD if step.direction is FWD else FWD)
    elif kind == 2:
        step = step._replace(before=step.after, after=step.before)
    elif kind == 3:
        step = step._replace(after=step.after._replace(p=step.after.p + 1))
    else:
        return f"drop{i}", steps[:i] + steps[i + 1:], b
    return f"k{kind}@{i}", steps[:i] + (step,) + steps[i + 1:], b


def isotopic_digest(space: AmbientSpace, bound: int = 6) -> str:
    rng = random.Random(f"isotopic {space.value}")
    span = range(-bound, bound + 1)
    links = [TorusLink(space, p, q, n) for p in span for q in span for n in (0, 1, 2)]
    digest = hashlib.sha256()
    for a in links:
        for b in links:
            ok, chain = isotopic(a, b)
            if not ok:
                assert chain is None
                digest.update(b"0")
                continue
            assert verify_chain(chain, a, b)
            label, steps, end = _corrupt(rng, chain, b)
            verdict = verify_chain(steps, a, end)
            text = " ".join(f"{s.relation.value}{s.direction.value}:{s.after.p},{s.after.q},"
                            f"{s.after.n}" for s in chain)
            digest.update(f"\n{a.p},{a.q},{a.n} {b.p},{b.q},{b.n} {text} "
                          f"{label} {verdict:d}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("space", [S3, RP3])
def test_isotopic_chains_and_corrupted_verdicts_are_unchanged(space):
    assert isotopic_digest(space) == ISOTOPIC_DIGESTS_BOUND_6[space]


# ---------------------------------------------------------------------------
# The replay is total: plain tuples, any iterable, and a verdict for anything.


def plain(chain) -> tuple:
    """The chain with every step and endpoint a plain tuple."""
    return tuple((relation, direction, tuple(before), tuple(after))
                 for relation, direction, before, after in chain)


def test_a_plain_tuple_step_replays():
    assert verify_chain(((Relation.R4, FWD, R4_FROM, R4_TO),), R4_FROM, R4_TO)
    assert verify_chain(plain(chain_steps()), tuple(A), tuple(B))
    assert verify_chain(((Relation.R2, FWD, (S3, 1, 3, 0), (S3, 3, 1, 0)),),
                        (S3, 1, 3, 0), (S3, 3, 1, 0))


@pytest.mark.parametrize("space", [S3, RP3])
def test_plain_tuple_chains_get_the_verdict_of_their_records(space):
    rng = random.Random(f"plain {space.value}")
    span = range(-6, 7)
    classes: dict = {}
    for link in (TorusLink(space, p, q, n) for p in span for q in span for n in (0, 1, 2)):
        classes.setdefault(normal_form(link)[0], []).append(link)
    members = [m for m in classes.values() if len(m) > 1]
    verdicts = set()
    for _ in range(300):
        a, b = rng.sample(rng.choice(members), 2)
        ok, chain = isotopic(a, b)
        assert ok
        _, corrupted, corrupted_end = _corrupt(rng, chain, b)
        for steps, end in ((chain, b), (corrupted, corrupted_end)):
            verdict = verify_chain(steps, a, end)
            assert verify_chain(plain(steps), tuple(a), tuple(end)) is verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_a_chain_may_be_a_generator():
    steps = chain_steps()
    assert verify_chain((step for step in steps), A, B)
    assert verify_chain(iter(plain(steps)), A, B)
    assert not verify_chain((step for step in steps[1:]), A, B)
    assert not verify_chain((step for step in steps), A, A)


@pytest.mark.parametrize("element", [
    None, 7, (Relation.R4, FWD, R4_FROM), (Relation.R4, FWD, R4_FROM, R4_TO, R4_TO),
    (Relation.R4, FWD, None, R4_TO), (Relation.R4, BWD, R4_TO, None),
    (Relation.R4, FWD, ("s3", 0, 1, 1), ("s3", 0, 0, 2)),
    (Relation.R4, FWD, ("s3", 1, 1, 1), ("s3", 0, 0, 2)),
], ids=["None", "int", "3-tuple", "5-tuple", "before-None", "after-None", "str-space",
        "str-space-read-as-rp3"])
def test_an_element_that_is_not_a_step_gives_false(element):
    # The endpoints are the element's own where it has them, so only its
    # replay can fail.  `_move` reads a space that is not S^3 as RP^3, where
    # R4 takes (1, 1; 1) to (0, 0; 2): only the space check rejects the last
    # element.
    start, end = element[2:] if isinstance(element, tuple) and len(element) == 4 else (A, B)
    assert verify_chain((element,), start, end) is False
    assert verify_chain(chain_steps()[:1] + [element], A, end) is False


@pytest.mark.parametrize("chain", [None, 7])
def test_a_chain_that_is_not_iterable_gives_false(chain):
    assert verify_chain(chain, A, B) is False


# ---------------------------------------------------------------------------
# Every link the replay reads, endpoints and steps, must be a space and three
# exact ints with n in {0, 1, 2}.  Each chain below joins two links that are
# not isotopic, or replays on values no valid link holds; a replay that read
# such coordinates would certify it.  NEAR and FAR are not isotopic.
NEAR, FAR = make_link(S3, 1, 2, 0), make_link(S3, 5, 7, 0)


class _Any:
    """A coordinate equal to everything."""

    def __eq__(self, other):
        return True


class _AnyInt(int):
    """An int equal to everything; as a subclass it is asked first."""

    def __eq__(self, other):
        return True


class _AnyTuple(tuple):
    """A link equal to everything, whatever its coordinates."""

    def __eq__(self, other):
        return True


class _Int(int):
    pass


def test_the_chain_of_an_int_subclass_link_replays():
    # `make_link` reads an int subclass as its int, and so does the replay.
    a, b = make_link(S3, _Int(6), _Int(4), _Int(0)), make_link(S3, 4, 6, 0)
    verdict, chain = isotopic(a, b)
    assert verdict and verify_chain(chain, a, b)
    assert verify_chain(chain, TorusLink(S3, _Int(6), _Int(4), _Int(0)), b)


@pytest.fixture(params=[_Any, _AnyInt], ids=["object", "int-subclass"])
def forged(request):
    """A link whose p and q equal everything."""
    return (S3, request.param(), request.param(), 0)


def test_a_forged_after_is_rejected(forged):
    # R1 takes NEAR to (-1, -2; 0), which `forged` equals; so does FAR.
    assert isotopic(NEAR, FAR) == (False, None)
    assert verify_chain([(Relation.R1, FWD, NEAR, forged)], NEAR, FAR) is False


def test_a_forged_before_is_rejected(forged):
    # `forged` equals NEAR, and R2 in S^3 swaps its coordinates unread.
    assert verify_chain([(Relation.R2, FWD, forged, FAR)], NEAR, FAR) is False


def test_a_forged_endpoint_is_rejected(forged):
    assert verify_chain((), forged, FAR) is False
    assert verify_chain((), NEAR, forged) is False
    assert verify_chain((), _AnyTuple(NEAR), FAR) is False
    assert verify_chain((), NEAR, _AnyTuple(FAR)) is False


@pytest.mark.parametrize("link", [(S3, 1.0, 2, 0), (S3, 1, 2, 5), (S3, True, 2, 0)],
                         ids=["float", "n-5", "bool"])
def test_an_empty_chain_of_an_invalid_link_is_rejected(link):
    assert verify_chain((), link, link) is False
    assert verify_chain((), link, NEAR) is False


def test_a_float_chain_is_rejected():
    # Above 2^53 a float rounds: R3 would take 2^60 parallel copies to 2^60 + 1.
    a = make_link(S3, 2**60, 3 * 2**60, 0)
    b = make_link(S3, 2**60, 3 * 2**60, 1)
    step = (Relation.R3, FWD, (S3, 2.0**60, 3 * 2.0**60, 0), (S3, 2.0**60, 3 * 2.0**60, 1))
    assert isotopic(a, b) == (False, None)
    assert verify_chain([step], a, b) is False


def test_a_step_with_n_outside_0_to_2_is_rejected():
    a, b = (S3, 1, 2, 5), (S3, -1, -2, 5)
    assert verify_chain([(Relation.R1, FWD, a, b)], a, b) is False


def test_a_bool_coordinate_is_rejected():
    # True == 1, and R1 takes (1, 0; 0) to (-1, 0; 0).
    a, b = make_link(S3, 1, 0, 0), make_link(S3, -1, 0, 0)
    assert verify_chain([(Relation.R1, FWD, a, b)], a, b)
    assert verify_chain([(Relation.R1, FWD, (S3, True, 0, 0), b)], a, b) is False
    assert verify_chain([(Relation.R1, FWD, a, (S3, -1, False, 0))], a, b) is False


def test_a_numpy_int64_chain_is_rejected():
    np = pytest.importorskip("numpy")
    # In RP^3, R2 takes (0, 2^62; 0) to (2^63, 2^62; 0); int64 wraps 2^63 to -2^63.
    a, b = make_link(RP3, 0, 2**62, 0), make_link(RP3, -2**63, 2**62, 0)
    step = (Relation.R2, FWD, (RP3, np.int64(0), np.int64(2**62), 0), b)
    assert isotopic(a, b) == (False, None)
    assert verify_chain([step], a, b) is False
