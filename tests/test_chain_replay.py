"""`verify_chain` against tampered chains, and a pin on `isotopic`'s chains.

Every check below would pass if a step's replay accepted anything: the
tampered chains keep their endpoints and the links between their steps, so
only the replay of the tampered step can reject them.  The digest was
recorded from the implementation that built the reversed half of a chain
with separate reverse and concatenate helpers and replayed each step in a
helper of its own.
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
    assert not verify_chain(tuple(steps))


def test_wrong_start_or_end_is_rejected():
    chain = tuple(chain_steps())
    assert verify_chain(chain, A) and verify_chain(chain, None, B)
    assert not verify_chain(chain, make_link(S3, 12, 36, 1), B)
    assert not verify_chain(chain, B, B)
    assert not verify_chain(chain, A, make_link(S3, 36, 12, 2))
    assert not verify_chain(chain, A, A)


def test_empty_chain_needs_equal_endpoints():
    empty = ()
    assert not verify_chain(empty, A, B)
    assert verify_chain(empty, A, A)
    assert verify_chain(empty, A) and verify_chain(empty, None, B) and verify_chain(empty)


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
