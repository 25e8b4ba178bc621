"""Tests of the helpers a `canon` query runs besides `normal_form`: `classify` and `make_link`.

The classify digest and the make_link errors below were recorded from the
implementation in which `classify` reduced the link and each split family
representative with `canonical`, and `make_link` tested each field in turn.
The canonical digest was recorded from the `canonical` that searched the
R1/R2 orbit in a loop.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlink import links
from projlink.links import (
    AmbientSpace,
    InvalidInput,
    InvalidN,
    TorusLink,
    canonical,
    classify,
    make_link,
    normal_form,
)

S3 = AmbientSpace.SPHERE3
RP3 = AmbientSpace.RP3
BIG = 10**18

# SHA-256 over "space p,q,n kind detail" lines of every triple in
# `classify_cases`, in order.
CLASSIFY_DIGEST = "de9bb2f26a5897589cb33e15d7cef72fa3d11ad28c0b8c9fbc7a26516a22a045"
# SHA-256 over "space p,q,n P,Q,N moves" lines of every triple in
# `classify_cases`, in order: (P, Q, N) is `canonical` of the triple and
# moves are the relations it records, space-separated.
CANONICAL_DIGEST = "63074cdbfe40cdc8099279406371b4927160cdb1fe8ceec7172d53d6b3162f47"


def classify_cases():
    """Every |p|, |q| <= 60, the split families and their neighbours, and big triples."""
    for space in (S3, RP3):
        for p in range(-60, 61):
            for q in range(-60, 61):
                for n in (0, 1, 2):
                    yield space, p, q, n
        for c in range(2, 3001):
            yield from ((space, 0, c, 0), (space, 0, -c, 0), (space, c, 0, 0),
                        (space, 2 * c, c, 0), (space, 2 * (c - 1), c - 1, 1),
                        (space, c - 1, 0, 1))
    rng = random.Random(20251018)
    for _ in range(3000):
        space = rng.choice((S3, RP3))
        n = rng.randrange(3)
        k = rng.randrange(1, 10**9)
        m = rng.randrange(-10**9, 10**9)
        shape = rng.randrange(5)
        if shape == 0:  # any
            p, q = rng.randrange(-BIG, BIG + 1), rng.randrange(-BIG, BIG + 1)
        elif shape == 1:  # k divides p and q
            p, q = k, k * m
        elif shape == 2:  # -p + 2q = k divides q
            q = k * m
            p = 2 * q - k
        elif shape == 3:  # T(0, c; 0) with c up to 10^18
            p, q, n = 0, rng.randrange(2, BIG), 0
        else:  # T(2m, m; 1) with m up to 10^18
            q = rng.randrange(1, BIG)
            p, n = 2 * q, 1
        yield space, p, q, n


def test_classify_is_unchanged():
    digest = hashlib.sha256()
    for space, p, q, n in classify_cases():
        kind, detail = classify(TorusLink(space, p, q, n))
        digest.update(f"{space.value} {p},{q},{n} {kind.value} {detail}\n".encode())
    assert digest.hexdigest() == CLASSIFY_DIGEST


def test_canonical_is_unchanged():
    digest = hashlib.sha256()
    for space, p, q, n in classify_cases():
        moves: list = []
        nf_p, nf_q, nf_n = canonical(space, p, q, n, moves)
        digest.update(f"{space.value} {p},{q},{n} {nf_p},{nf_q},{nf_n} "
                      f"{' '.join(m.value for m in moves)}\n".encode())
    assert digest.hexdigest() == CANONICAL_DIGEST


# ---------------------------------------------------------------------------
# The normal forms of the split families, in closed form.


def _check_split_family_normal_forms(c):
    assert canonical(S3, 0, c, 0) == (1 - c, 0, 1), "T(0, c; 0) in S^3"
    assert canonical(RP3, 0, c, 0) == (-2 * c, -c, 0), "T(0, c; 0) in RP^3"
    assert canonical(RP3, 2 * (c - 1), c - 1, 1) == (2 - 2 * c, 1 - c, 1), \
        "T(2(c - 1), c - 1; 1) in RP^3"


def test_split_family_normal_forms_up_to_5000():
    for c in range(2, 5001):
        _check_split_family_normal_forms(c)


@given(st.integers(min_value=2, max_value=BIG))
@settings(max_examples=300)
def test_split_family_normal_forms_up_to_1e18(c):
    _check_split_family_normal_forms(c)


# ---------------------------------------------------------------------------
# One reduction per canon query.


@pytest.mark.parametrize("space, triple", [
    (S3, (12, 36, 0)), (S3, (0, 5, 0)), (S3, (0, 0, 0)), (RP3, (9, 6, 1)),
    (RP3, (0, 7, 0)), (RP3, (10, 5, 1)), (RP3, (BIG, BIG, 0)),
])
def test_classify_after_normal_form_reduces_nothing(monkeypatch, space, triple):
    link = make_link(space, *triple)
    normal_form(link)
    calls = []

    def counting(*args):
        calls.append(args)
        return canonical(*args)

    monkeypatch.setattr(links, "canonical", counting)
    before = links._normal_form.cache_info()
    classify(link)
    after = links._normal_form.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses
    assert calls == []


# ---------------------------------------------------------------------------
# make_link: which error a mix of bad arguments raises.


class _EqRaises:
    """An argument whose comparison raises, as an array's truth value does."""

    def __eq__(self, other):
        raise RuntimeError("compared")

    def __repr__(self):
        return "<EqRaises>"


class _Int(int):
    pass


class _LyingN(int):
    """An int equal to everything, so `n in (0, 1, 2)` holds for any value."""

    def __eq__(self, other):
        return True


@pytest.mark.parametrize("args, error, message", [
    ((S3, "x", 0, 7), InvalidInput, "p must be an integer, got 'x'"),
    ((S3, 1.0, True, 0), InvalidInput, "p must be an integer, got 1.0"),
    ((S3, 1, True, 0), InvalidInput, "q must be an integer, got True"),
    ((S3, 1, 2, True), InvalidInput, "n must be an integer, got True"),
    ((S3, 1, 2, 1.0), InvalidInput, "n must be an integer, got 1.0"),
    ((S3, 1, 2, 3), InvalidN, "n must be 0, 1 or 2, got 3"),
    ((S3, 1, 2, -1), InvalidN, "n must be 0, 1 or 2, got -1"),
    ((S3, True, "q", 3), InvalidInput, "p must be an integer, got True"),
    ((S3, 1, None, 9), InvalidInput, "q must be an integer, got None"),
    ((S3, 1, 2, "1"), InvalidInput, "n must be an integer, got '1'"),
    ((S3, 1, 2, _EqRaises()), InvalidInput, "n must be an integer, got <EqRaises>"),
    ((S3, 1, 2, _Int(3)), InvalidN, "n must be 0, 1 or 2, got 3"),
    # A space that is not a member would make `canonical` reduce in RP^3.
    (("s3", 0, 3, 0), InvalidInput, "space must be an AmbientSpace, got 's3'"),
    ((None, "x", 0, 7), InvalidInput, "space must be an AmbientSpace, got None"),
    (("rp3", 1, 2, 3), InvalidInput, "space must be an AmbientSpace, got 'rp3'"),
    # n equal to everything: its range is checked on its int value.
    ((S3, 1, 2, _LyingN(5)), InvalidN, "n must be 0, 1 or 2, got 5"),
])
def test_make_link_error_precedence(args, error, message):
    with pytest.raises(error) as exc:
        make_link(*args)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_make_link_accepts_int_subclasses():
    p, q, n = _Int(4), _Int(-6), _Int(2)
    link = make_link(RP3, p, q, n)
    assert link == (RP3, 4, -6, 2)
    assert type(link.p) is type(link.q) is type(link.n) is int
