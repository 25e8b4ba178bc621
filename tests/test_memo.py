"""The normal-form cache that `normal_form`, `classify` and `isotopic` share.

`_normal_form` is a `functools.lru_cache` of each link's normal form and
chain.  `isotopic` reduces each side at most once, for either verdict, and
a repeated query reduces nothing.  Whatever the cache holds, the verdict and
the chain are the same.  The cache keeps at most 8,192 entries, and stays
within its bound when threads fill it together.
"""

import os
import random
import subprocess
import sys
import threading
from functools import lru_cache

import pytest

import projlink
from projlink import links
from projlink.links import (
    AmbientSpace,
    InvalidInput,
    InvalidN,
    TorusLink,
    canonical,
    chain_to_list,
    classify,
    isotopic,
    make_link,
    normal_form,
    verify_chain,
)

S3 = AmbientSpace.SPHERE3
RP3 = AmbientSpace.RP3


@pytest.fixture
def cache():
    """The normal-form cache, emptied before the test and after it."""
    links._normal_form.cache_clear()
    yield links._normal_form
    links._normal_form.cache_clear()


@pytest.fixture
def calls(monkeypatch):
    """The argument tuples of every `canonical` call made through the module."""
    seen = []

    def counting(*args):
        seen.append(args)
        return canonical(*args)

    monkeypatch.setattr(links, "canonical", counting)
    return seen


# ---------------------------------------------------------------------------
# One reduction per side.


def test_positive_isotopic_reduces_each_side_once(cache, calls):
    a, b = make_link(S3, 12, 36, 0), make_link(S3, 36, 12, 0)
    ok, chain = isotopic(a, b)
    assert ok and verify_chain(chain, a, b)
    assert len(calls) == 2
    assert cache.cache_info().currsize == 2
    del calls[:]
    assert isotopic(a, b) == (True, chain)
    assert calls == []


def test_a_repeated_negative_query_reduces_nothing(cache, calls):
    a, b = make_link(S3, 12, 36, 0), make_link(S3, 12, 35, 0)
    assert isotopic(a, b) == (False, None)
    assert len(calls) == 2 and cache.cache_info().currsize == 2
    del calls[:]
    assert isotopic(a, b) == (False, None)
    assert isotopic(b, a) == (False, None)
    normal_form(a)
    normal_form(b)
    assert calls == []


def test_equal_sides_share_one_reduction(cache, calls):
    a = make_link(S3, 12, 36, 0)
    ok, chain = isotopic(a, a)
    assert ok and verify_chain(chain, a, a)
    assert len(calls) == 1 and cache.cache_info().currsize == 1
    # The chain runs a -> normal form -> a.
    nf, steps = normal_form(a)
    assert steps and chain[:len(steps)] == steps and chain[len(steps)].before == nf
    del calls[:]
    assert isotopic(a, a) == (True, chain)
    assert calls == []


def test_a_memoised_side_is_not_reduced_again(cache, calls):
    a, b = make_link(RP3, 9, 6, 1), make_link(RP3, -9, -6, 1)
    normal_form(b)
    del calls[:]
    ok, chain = isotopic(a, b)
    assert ok and verify_chain(chain, a, b)
    assert [args[:4] for args in calls] == [(RP3, 9, 6, 1)]


# ---------------------------------------------------------------------------
# Every cache state gives the same answer.


def _bound_2(space: AmbientSpace) -> list[TorusLink]:
    span = range(-2, 3)
    return [make_link(space, p, q, n) for p in span for q in span for n in (0, 1, 2)]


@pytest.mark.parametrize("space", [S3, RP3])
def test_every_memo_state_gives_the_same_verdict_and_chain(cache, space):
    triples = _bound_2(space)
    positive = 0
    for a in triples:
        for b in triples:
            results = []
            for warm in ((), (a,), (b,), (a, b)):
                cache.cache_clear()
                for link in warm:
                    normal_form(link)
                results.append(isotopic(a, b))
            assert results.count(results[0]) == 4, (a, b)
            ok, chain = results[0]
            if ok:
                positive += 1
                assert verify_chain(chain, a, b), (a, b)
            else:
                assert chain is None
    assert positive > len(triples)


def test_classify_fills_the_memo_that_normal_form_reads(cache, calls):
    link = make_link(S3, 0, 5, 0)
    verdict = classify(link)
    assert len(calls) == 1 and cache.cache_info().currsize == 1
    assert normal_form(link) is normal_form(link)
    assert classify(link) == verdict
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Only valid links are cached.  A hand-built link equal to a valid one is
# its cache key, so a miss checks make_link's rule before anything is kept:
# a later valid query must get a chain of exact ints, which `verify_chain`
# replays and the wire format prints as integers.


class _Int(int):
    pass


def _exact_ints(nf: TorusLink, chain: tuple) -> bool:
    links_read = [nf, *(link for step in chain for link in step[2:])]
    return all(type(x) is int for link in links_read for x in link[1:])


@pytest.mark.parametrize("link, error", [
    (TorusLink(S3, 6.0, 4.0, 0), InvalidInput), (TorusLink(S3, True, 0, 0), InvalidInput),
    (TorusLink("s3", 6, 4, 0), InvalidInput), (TorusLink(S3, 1, 2, 5), InvalidN),
], ids=["float", "bool", "str-space", "n-5"])
def test_a_miss_on_an_invalid_link_raises_and_caches_nothing(cache, link, error):
    with pytest.raises(error) as exc:
        normal_form(link)
    assert type(exc.value) is error
    assert cache.cache_info().currsize == 0


def test_a_float_query_leaves_no_chain_for_the_equal_valid_link(cache):
    with pytest.raises(InvalidInput):
        normal_form(TorusLink(S3, 6.0, 4.0, 0))
    valid = make_link(S3, 6, 4, 0)
    nf, chain = normal_form(valid)
    assert _exact_ints(nf, chain) and verify_chain(chain, valid, nf)


def test_an_int_subclass_link_caches_a_chain_of_exact_ints(cache):
    odd = make_link(S3, _Int(6), _Int(4), _Int(0))
    nf, chain = normal_form(odd)
    assert chain and _exact_ints(nf, chain)
    plain = make_link(S3, 6, 4, 0)
    assert normal_form(plain) == (nf, chain)  # a cache hit
    assert verify_chain(chain, plain, nf)


class _Evil(int):
    """An int whose `__int__` gives another value."""

    def __int__(self):
        return 7


def test_an_int_subclass_is_cached_as_its_value_not_its_int(cache):
    evil = make_link(S3, _Evil(6), 4, 0)
    assert type(evil.p) is int and evil.p == 6
    first = normal_form(evil)
    valid = make_link(S3, 6, 4, 0)
    nf, chain = normal_form(valid)
    assert (nf, chain) == first and nf[1:] == canonical(S3, 6, 4, 0)
    assert verify_chain(chain, valid, nf)
    assert isotopic(valid, make_link(S3, 4, 6, 0))[0]


# A plain 4-tuple and its record are one cache key, so a miss on the tuple
# must store records, as a miss on the record does.
@pytest.mark.parametrize("triple", [(0, 0, 0), (0, 3, 0)], ids=["empty", "split"])
def test_a_plain_tuple_is_cached_as_its_record(cache, triple):
    link = make_link(S3, *triple)
    want = normal_form(link), classify(link), chain_to_list(normal_form(link)[1])
    cache.cache_clear()
    normal_form((S3, *triple))
    nf, chain = normal_form(link)
    assert type(nf) is TorusLink
    assert ((nf, chain), classify(link), chain_to_list(chain)) == want


def test_classify_counts_components_on_the_cached_normal_form(cache):
    # A hit does not check the link, so its float coordinates reach classify.
    normal_form(make_link(S3, 0, 3, 0))
    verdict = classify(TorusLink(S3, 0.0, 3.0, 0))
    assert verdict == classify(make_link(S3, 0, 3, 0))
    assert verdict.detail == "split link of 3 fibers in a ball: T(0,3;0)"


# ---------------------------------------------------------------------------
# Bound and keys.


def test_the_memo_bound_is_a_constant():
    assert links._normal_form.cache_info().maxsize == 8_192


def test_hashing_a_memo_key_runs_no_python_frame():
    # Every cache read and insert hashes a TorusLink, and so its space;
    # Enum.__hash__ is a Python function, object.__hash__ is not.
    events = []
    link = make_link(RP3, 12, 36, 1)
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        hash(link)
    finally:
        sys.setprofile(None)
    assert "call" not in events and "c_call" in events


# ---------------------------------------------------------------------------
# Threads.


def test_threads_filling_a_small_memo_stay_within_its_bound(monkeypatch):
    small = lru_cache(8)(links._normal_form.__wrapped__)
    monkeypatch.setattr(links, "_normal_form", small)
    pool = [make_link(space, p, q, n) for space in (S3, RP3)
            for p in range(-4, 5) for q in (-6, 0, 3, 12) for n in (0, 1, 2)]
    errors, chains = [], []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(2000):
                a = rng.choice(pool)
                nf, chain = normal_form(a)
                chains.append((chain, a, nf))
                b = nf if rng.random() < 0.5 else rng.choice(pool)
                if b.space is a.space:
                    ok, chain = isotopic(a, b)
                    if ok:
                        chains.append((chain, a, b))
        except BaseException as exc:  # recorded, and asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert small.cache_info().currsize <= 8
    assert len(chains) >= 8 * 2000
    assert all(verify_chain(chain, start, end) for chain, start, end in chains)


def test_the_cli_does_not_import_threading():
    src = os.path.dirname(os.path.dirname(os.path.abspath(projlink.__file__)))
    code = "import sys, projlink.cli\nprint('threading' in sys.modules)"
    # -S: without site, which may import threading itself.
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
