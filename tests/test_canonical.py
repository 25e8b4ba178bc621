"""Tests of the integer normal form `canonical` and the chains built from it.

The SHA-256 digests below were recorded from the breadth-first normal form
that `canonical` replaced; they pin stdout and every witness chain byte for
byte.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlink import links
from projlink.atlas import confluence_audit
from projlink.cli import main
from projlink.links import (
    AmbientSpace,
    Relation,
    TorusLink,
    canonical,
    component_count,
    make_link,
    normal_form,
    verify_chain,
)

S3 = AmbientSpace.SPHERE3
RP3 = AmbientSpace.RP3

# Per space: digest of "p,q,n P,Q,N steps" lines over |p|, |q| <= 60, where
# (P, Q, N) is the normal form and each step is relation, direction and
# endpoint.
CHAIN_DIGESTS_BOUND_60 = {
    S3: "d4104254329f7dfe272be0c35dc5fa6a8fe33fad1aca846c62a98428531adb91",
    RP3: "920d27b4f5703274e0cd371095b7b710f3741ab49ea7b7bd490d7a948a619d81",
}


@pytest.mark.parametrize("space", [S3, RP3])
def test_canonical_is_the_end_of_every_chain_at_bound_60(space):
    digest = hashlib.sha256()
    for p in range(-60, 61):
        for q in range(-60, 61):
            for n in (0, 1, 2):
                link = TorusLink(space, p, q, n)
                nf, chain = normal_form(link)
                assert canonical(space, p, q, n) == (nf.p, nf.q, nf.n)
                assert verify_chain(chain, link, nf)
                reductions = [s for s in chain
                              if s.relation in (Relation.R3, Relation.R4)]
                assert len(reductions) <= 2
                steps = " ".join(
                    f"{s.relation.value}{s.direction.value}:"
                    f"{s.after.p},{s.after.q},{s.after.n}" for s in chain)
                digest.update(f"{p},{q},{n} {nf.p},{nf.q},{nf.n} {steps}\n".encode())
    assert digest.hexdigest() == CHAIN_DIGESTS_BOUND_60[space]


def test_moves_replay_to_the_chain():
    link = make_link(RP3, 3, 3, 0)
    moves: list = []
    assert canonical(RP3, 3, 3, 0, moves) == (-1, -1, 2)
    _, chain = normal_form(link)
    assert moves == [s.relation for s in chain]


# ---------------------------------------------------------------------------
# Large coefficients.

big = st.integers(min_value=-10**18, max_value=10**18)


@st.composite
def big_triples(draw):
    """Triples up to 10^18, half of them built to meet a reduction's side condition.

    The one large-triple strategy of the suite: test_links.py imports it."""
    space = draw(st.sampled_from([S3, RP3]))
    n = draw(st.integers(0, 2))
    shape = draw(st.sampled_from(["any", "p|q", "q|p", "k|q"]))
    if shape == "any":
        p, q = draw(big), draw(big)
    elif shape == "p|q":
        p = draw(st.integers(1, 10**9))
        q = p * draw(st.integers(-10**9, 10**9))
    elif shape == "q|p":
        q = draw(st.integers(1, 10**9))
        p = q * draw(st.integers(-10**9, 10**9))
    else:  # (2q - p) divides q: the RP^3 side condition of R4
        k = draw(st.integers(1, 10**9))
        q = k * draw(st.integers(-10**9, 10**9))
        p = 2 * q - k
    return make_link(space, p, q, n)


@given(big_triples())
@settings(max_examples=500)
def test_large_chains_replay_and_keep_component_count(link):
    nf, chain = normal_form(link)
    assert canonical(link.space, link.p, link.q, link.n) == (nf.p, nf.q, nf.n)
    assert verify_chain(chain, link, nf)
    assert component_count(nf) == component_count(link)
    for step in chain:
        assert component_count(step.before) == component_count(step.after)


# ---------------------------------------------------------------------------
# The closure cross-check at a bound the breadth-first form made too slow.


@pytest.mark.parametrize("space", [S3, RP3])
def test_confluence_audit_at_bound_20(space):
    report = confluence_audit(space, 20)  # closure over |p|, |q| <= 20
    assert report.violations == ()


# ---------------------------------------------------------------------------
# Byte-stable stdout.

BIG = 10**18
TRIPLES = [
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 1, 1), (2, 2, 0), (2, -2, 0),
    (4, 0, 0), (3, 3, 0), (1, 7, 0), (6, 4, 2), (-8, 4, 0), (12, 36, 0),
    (7, -21, 0), (4, 2, 1), (9, 6, 1), (15, 10, 1), (6, 3, 1), (0, 5, 0),
    (10**9, BIG, 0), (BIG, BIG, 0), (2 * BIG - 1, BIG, 1), (-BIG, BIG, 2),
]
ISOTOPIC_PAIRS = list(zip(TRIPLES, TRIPLES[1:] + TRIPLES[:1])) + [
    ((3, 5, 0), (5, 3, 0)), ((4, 0, 0), (2, 0, 2)), ((3, 3, 0), (1, 1, 2)),
    ((2, -2, 0), (0, 0, 2)), ((1, 7, 0), (0, 0, 1)), ((BIG, BIG, 0), (0, 0, 2)),
]
STDOUT_DIGESTS = {
    "atlas s3 0": "d9f636ab33ca64476dc2783e898824eeb31503419f306e02ac86efa0bf8e1aae",
    "atlas s3 5": "cc7293ccc31112a8eebe6a0038f53c6105a8faf5b10f0228c3746dd89d743336",
    "atlas s3 20": "82df82d9a2615004cf1b2bbbcd7a2b3dd575d81f3e16fd2652b8f73e735f5573",
    "atlas rp3 0": "01460a08cb1b31f7005a50875bc45ba20a7bfd910646d34ed26e3c04ba65b2dc",
    "atlas rp3 5": "ddc1cf92eb60ecfb55f57ae7e5633fec0eff182b68803fa0bca5d1896e0567b5",
    "atlas rp3 20": "71ec068344941962faee9b9a7b47f98d5051b724e32998f1b5011a7517629ef6",
    # the benchmark's atlas commands (perfbench/run.py)
    "atlas s3 25": "3bd6bb372f9906fe4c26f67c354d0165ff1e76399cbe18780349ae6402d9462e",
    "atlas rp3 25": "39122371cd26dff4c31d00bbd53981685995e636d8969b9acf6aa6077dbd4599",
    # stdout of every TRIPLES query, concatenated in order
    "canon s3": "2386e512e655c7cde6bf75e52189e31803839e37638818d805905373a2781615",
    "canon rp3": "adf99aa0a0fdadb0c4fa469eb559a9267560230665f067e0dbd220c9065937a5",
    # stdout of every ISOTOPIC_PAIRS query, concatenated in order
    "isotopic s3": "10184f29cecaa385fec6eda6e7723a2aa50cce1b9774c5366cf04c4c2e19203e",
    "isotopic rp3": "49bf757f0863f1ff55dec1b4025934e3f5749cd98550405f61377f1bc2808d9c",
}


def _stdout(*argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([str(a) for a in argv]) == 0
    return buf.getvalue().encode()


@pytest.mark.parametrize("space", ["s3", "rp3"])
@pytest.mark.parametrize("bound", [0, 5, 20, 25])
def test_atlas_stdout_is_unchanged(space, bound):
    got = hashlib.sha256(_stdout("atlas", "--space", space, "--bound", bound))
    assert got.hexdigest() == STDOUT_DIGESTS[f"atlas {space} {bound}"]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_atlas_stdout_of_a_process_is_unchanged(unbuffered):
    # The tests above write into a StringIO; this one goes through the
    # interpreter's own stdout, a pipe, with and without its buffer.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(links.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "projlink.cli", "atlas", "--space", "rp3", "--bound", "25"],
        capture_output=True, check=True, timeout=120, env=env)
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_DIGESTS["atlas rp3 25"]


@pytest.mark.parametrize("space", ["s3", "rp3"])
def test_canon_stdout_is_unchanged(space):
    got = hashlib.sha256()
    for t in TRIPLES:
        got.update(_stdout("canon", "--space", space, *t))
    assert got.hexdigest() == STDOUT_DIGESTS[f"canon {space}"]


@pytest.mark.parametrize("space", ["s3", "rp3"])
def test_isotopic_stdout_is_unchanged(space):
    got = hashlib.sha256()
    for a, b in ISOTOPIC_PAIRS:
        got.update(_stdout("isotopic", "--space", space, *a, *b))
    assert got.hexdigest() == STDOUT_DIGESTS[f"isotopic {space}"]
