"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS`` line on success (visible in
the report with ``-rA``, which is enabled in pyproject.toml) and carries its
own runtime budget where the criterion states one.
"""

import random
import time

import numpy as np

from projlink import links
from projlink.atlas import (
    confluence_audit,
    relation_lift_compatibility,
    verify_lift_injectivity,
)
from projlink.generators import random_cover_spec, random_jsj_tree
from projlink.jsj import RegionLabel, lemma44_check, outermost, potential
from projlink.links import (
    AmbientSpace,
    isotopic,
    make_link,
    normal_form,
    verify_chain,
)

S3 = AmbientSpace.SPHERE3
RP3 = AmbientSpace.RP3
ST, OTHER = RegionLabel.SOLID_TORUS, RegionLabel.OTHER


def report(number, text):
    print(f"criterion {number}: PASS — {text}")


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    hopf_chain = [(2, 2, 0), (2, -2, 0), (1, 1, 1), (1, -1, 1), (0, 0, 2)]
    keys = {normal_form(make_link(S3, *t))[0] for t in hopf_chain}
    assert len(keys) == 1

    unknot = normal_form(make_link(S3, 0, 0, 1))[0]
    for q in range(-100, 101):
        assert normal_form(make_link(S3, 1, q, 0))[0] == unknot

    for p in range(0, 51):
        assert normal_form(make_link(S3, p, 0, 1))[0] == \
            normal_form(make_link(S3, 0, p + 1, 0))[0]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"
    report(1, f"Hopf chain collapses, 201 unknots, 51 core identities "
              f"({elapsed:.2f}s)")


def test_criterion_2_lift_injectivity_bound_20():
    rep = verify_lift_injectivity(20)
    assert rep.violations == ()
    assert rep.elapsed < 10.0, f"took {rep.elapsed:.2f}s"
    report(2, f"lift-injectivity bound 20: {rep.checked_pairs} pairs, "
              f"0 violations ({rep.elapsed:.2f}s)")


def test_criterion_3_exceptional_bullets():
    pairs = [
        ((3, 3, 0), (2, 2, 1)),
        ((2, 2, 1), (1, 1, 2)),
        ((3, 3, 0), (1, 1, 2)),
        ((4, 0, 0), (2, 0, 2)),
        ((2, 2, 0), (0, 0, 2)),
    ]
    for left, right in pairs:
        a, b = make_link(RP3, *left), make_link(RP3, *right)
        verdict, chain = isotopic(a, b)
        assert verdict, (left, right)
        assert verify_chain(chain, a, b), (left, right)
    report(3, f"{len(pairs)} exceptional identities hold with replayable "
              f"witness chains")


def test_criterion_4_confluence_audit():
    total_pairs = 0
    for space in (S3, RP3):
        rep = confluence_audit(space, 10)  # closure and comparison both at bound 10
        assert rep.violations == (), space
        total_pairs += rep.checked_pairs
    report(4, f"closure agrees with normal forms (bound 10) in "
              f"both spaces over {total_pairs} pairs")


def test_criterion_5_termination_measure():
    rng = np.random.default_rng(20260823)
    size = 10**6
    p = rng.integers(-10**6, 10**6 + 1, size=size, dtype=np.int64)
    q = rng.integers(-10**6, 10**6 + 1, size=size, dtype=np.int64)
    n = rng.integers(0, 3, size=size, dtype=np.int64)
    # uniform sampling rarely hits the divisibility side-conditions, so make
    # half the sample divisibility-rich, aimed at each side-condition in turn
    third = size // 6
    a, b, c = slice(0, third), slice(third, 2 * third), slice(2 * third, 3 * third)
    # p | q for R3
    p[a] = rng.integers(-1000, 1001, size=third, dtype=np.int64)
    q[a] = p[a] * rng.integers(-1000, 1001, size=third, dtype=np.int64)
    # q | p for R4 in the sphere
    q[b] = rng.integers(-1000, 1001, size=third, dtype=np.int64)
    p[b] = q[b] * rng.integers(-1000, 1001, size=third, dtype=np.int64)
    # (-p + 2q) | q for R4 in projective space: pick the divisor k first
    kc = rng.integers(1, 101, size=third, dtype=np.int64)
    q[c] = kc * rng.integers(-4999, 5000, size=third, dtype=np.int64)
    p[c] = 2 * q[c] - kc
    assert np.all(np.abs(p) <= 10**6) and np.all(np.abs(q) <= 10**6)
    measure = np.abs(p) + np.abs(q)
    checked = 0

    # R3 (both spaces): n = 0, p > 0, p | q
    r3 = mask = (n == 0) & (p > 0) & (q % np.where(p > 0, p, 1) == 0)
    after = np.abs(p[mask] - 1) + np.abs((p[mask] - 1) * (q[mask] // p[mask]))
    assert np.all(after < measure[mask])
    checked += int(mask.sum())

    # R4 in the sphere: n = 1, q > 0, q | p
    r4_s3 = mask = (n == 1) & (q > 0) & (p % np.where(q > 0, q, 1) == 0)
    after = np.abs((q[mask] - 1) * (p[mask] // q[mask])) + np.abs(q[mask] - 1)
    assert np.all(after < measure[mask])
    checked += int(mask.sum())

    # R4 in projective space: n = 1, k = -p + 2q > 0, k | q
    k = -p + 2 * q
    r4_rp3 = mask = (n == 1) & (k > 0) & (q % np.where(k > 0, k, 1) == 0)
    km, pm, qm = k[mask], p[mask], q[mask]
    after = np.abs((km - 1) * (pm // km)) + np.abs((km - 1) * (qm // km))
    assert np.all(after < measure[mask])
    checked += int(mask.sum())

    # The package's forward reduction on the divisibility-rich half, in both
    # spaces: an image exactly where a mask above applies, equal to that
    # mask's formula, and strictly smaller in |p| + |q|.
    rich = slice(0, 3 * third)
    sp, sq, sk = (np.where(x > 0, x, 1) for x in (p, q, k))
    r3_image = (p - 1, (p - 1) * (q // sp))
    r4_images = {S3: (r4_s3, ((q - 1) * (p // sq), q - 1)),
                 RP3: (r4_rp3, ((k - 1) * (p // sk), (k - 1) * (q // sk)))}
    triples = list(zip(p[rich].tolist(), q[rich].tolist(), n[rich].tolist()))
    for space, (r4, r4_image) in r4_images.items():
        applies = (r3 | r4)[rich]
        images = [links._reduce(space, *t) for t in triples]
        assert [image is not None for image in images] == applies.tolist(), space
        got = np.array([image for image in images if image is not None], dtype=np.int64)
        for i in (0, 1):
            want = np.where(r3, r3_image[i], r4_image[i])[rich][applies]
            assert np.array_equal(got[:, i], want), space
        assert np.all(np.abs(got).sum(axis=1) < measure[rich][applies]), space

    report(5, f"10^6 seeded triples, {checked} applicable forward reductions, "
              f"all strictly decrease |p|+|q|; links._reduce agrees on "
              f"{len(triples)} triples in each space")


def test_criterion_6_relation_lift_bound_30():
    rep = relation_lift_compatibility(30)
    assert rep.violations == ()
    assert rep.elapsed < 30.0, f"took {rep.elapsed:.2f}s"
    report(6, f"relation-lift bound 30: {rep.checked_pairs} instances, "
              f"0 violations ({rep.elapsed:.2f}s)")


def test_criterion_7_tree_suite():
    start = time.perf_counter()
    rng = random.Random(43)
    # bulk of the sample is small, with a tail up to the 10^4-vertex cap
    sizes = [rng.randint(1, 60) for _ in range(9900)] + \
            [rng.randint(1000, 10**4) for _ in range(100)]
    for size in sizes:
        tree = random_jsj_tree(rng, size)
        values = potential(tree)
        assert min(values.values()) == 0
        # Orientation read from the labels: level between two solid tori,
        # else up toward the endpoint whose far side is OTHER.
        for u, v, lu, lv in tree.edges:
            if lu is ST and lv is ST:
                assert values[u] == values[v]
            elif lv is OTHER:
                assert values[u] + 1 == values[v]
            else:
                assert values[v] + 1 == values[u]
        # the label criterion is non-empty and equals the local minima
        outer = outermost(tree)
        assert outer
        minima = set(tree.vertices)
        for edge in tree.edges:
            if values[edge.u] > values[edge.v]:
                minima.discard(edge.u)
            elif values[edge.v] > values[edge.u]:
                minima.discard(edge.v)
        assert outer == minima
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"tree suite took {elapsed:.2f}s"
    report(7, f"10^4 trees (max {max(sizes)} vertices): potentials, "
              f"non-empty outermost sets, criteria agree ({elapsed:.1f}s)")


def test_criterion_8_cover_suite():
    rng = random.Random(44)
    mismatches = 0
    for _ in range(1000):
        spec = random_cover_spec(rng, rng.randint(1, 200))
        mismatches += sum(1 for e in lemma44_check(spec) if not e.agree)
    assert mismatches == 0
    report(8, "10^3 covers (<= 200 quotient vertices): 0 parity/outermost "
              "mismatches")
