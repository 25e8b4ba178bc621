"""The normal-form memo that `normal_form`, `classify` and `isotopic` share.

`isotopic` reduces each side at most once: a side with a memo entry compares
the stored normal form, a side without one runs `canonical` once, and a
positive verdict replays the moves that run recorded.  Whatever the memo
holds, the verdict and the chain are the same.  The memo keeps at most
`_MEMO_SIZE` entries, evicts the one inserted first in constant time, and
stays within that bound when threads fill it together.
"""

import os
import random
import subprocess
import sys
import threading
import time

import pytest

import projlink
from projlink import links
from projlink.links import (
    AmbientSpace,
    TorusLink,
    canonical,
    classify,
    isotopic,
    make_link,
    normal_form,
    verify_chain,
)

S3 = AmbientSpace.SPHERE3
RP3 = AmbientSpace.RP3


@pytest.fixture
def memo(monkeypatch):
    """An empty memo in place of the module's, restored after the test."""
    fresh = type(links._MEMO)()
    monkeypatch.setattr(links, "_MEMO", fresh)
    return fresh


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


def test_positive_isotopic_reduces_each_side_once(memo, calls):
    a, b = make_link(S3, 12, 36, 0), make_link(S3, 36, 12, 0)
    ok, chain = isotopic(a, b)
    assert ok and verify_chain(chain, a, b)
    assert len(calls) == 2
    assert list(memo) == [a, b]
    del calls[:]
    assert isotopic(a, b) == (True, chain)
    assert calls == []


def test_negative_isotopic_reduces_each_side_once_and_memoises_nothing(memo, calls):
    a, b = make_link(S3, 12, 36, 0), make_link(S3, 12, 35, 0)
    assert isotopic(a, b) == (False, None)
    assert len(calls) == 2 and memo == {}
    normal_form(a)
    normal_form(b)
    del calls[:]
    assert isotopic(a, b) == (False, None)
    assert calls == []


def test_equal_sides_share_one_reduction(memo, calls):
    a = make_link(S3, 12, 36, 0)
    ok, chain = isotopic(a, a)
    assert ok and verify_chain(chain, a, a)
    assert len(calls) == 1 and list(memo) == [a]
    # The chain runs a -> normal form -> a.
    nf, steps = memo[a]
    assert steps and chain[:len(steps)] == steps and chain[len(steps)].before == nf
    del calls[:]
    assert isotopic(a, a) == (True, chain)
    assert calls == []


def test_a_memoised_side_is_not_reduced_again(memo, calls):
    a, b = make_link(RP3, 9, 6, 1), make_link(RP3, -9, -6, 1)
    normal_form(b)
    del calls[:]
    ok, chain = isotopic(a, b)
    assert ok and verify_chain(chain, a, b)
    assert [args[:4] for args in calls] == [(RP3, 9, 6, 1)]


# ---------------------------------------------------------------------------
# Every memo state gives the same answer.


def _bound_2(space: AmbientSpace) -> list[TorusLink]:
    span = range(-2, 3)
    return [make_link(space, p, q, n) for p in span for q in span for n in (0, 1, 2)]


@pytest.mark.parametrize("space", [S3, RP3])
def test_every_memo_state_gives_the_same_verdict_and_chain(memo, space):
    triples = _bound_2(space)
    positive = 0
    for a in triples:
        for b in triples:
            results = []
            for warm in ((), (a,), (b,), (a, b)):
                memo.clear()
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


def test_classify_fills_the_memo_that_normal_form_reads(memo):
    link = make_link(S3, 0, 5, 0)
    verdict = classify(link)
    assert list(memo) == [link]
    assert normal_form(link) is memo[link]
    assert classify(link) == verdict


# ---------------------------------------------------------------------------
# Bound and eviction.


def test_a_full_memo_evicts_the_entry_inserted_first(memo, monkeypatch):
    monkeypatch.setattr(links, "_MEMO_SIZE", 4)
    inserted = [make_link(S3, p, 2 * p, 0) for p in range(1, 11)]
    for i, link in enumerate(inserted):
        normal_form(link)
        assert list(memo) == inserted[max(0, i - 3):i + 1]
    # A hit neither reorders nor evicts.
    normal_form(inserted[-4])
    assert list(memo) == inserted[-4:]
    # A positive isotopic inserts both sides, a first then b, within the bound.
    a, b = make_link(S3, 30, 90, 0), make_link(S3, 90, 30, 0)
    assert isotopic(a, b)[0]
    assert list(memo) == inserted[-2:] + [a, b]


def test_the_memo_bound_is_a_constant():
    assert links._MEMO_SIZE == 16_384


def test_hashing_a_memo_key_runs_no_python_frame():
    # Every memo get, setdefault and eviction check hashes a TorusLink, and
    # so its space; Enum.__hash__ is a Python function, object.__hash__ is not.
    events = []
    link = make_link(RP3, 12, 36, 1)
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        hash(link)
    finally:
        sys.setprofile(None)
    assert "call" not in events and "c_call" in events


def test_a_full_memo_inserts_as_fast_as_an_empty_one(memo):
    # A dict evicting with `del memo[next(iter(memo))]` scans every slot
    # deleted before its first entry, so its k-th eviction costs O(k) until
    # the dict is rebuilt: 20,000 evicting inserts took 9-15 times as long
    # as 20,000 inserts into an empty memo at a 65,536 bound, and 5.8-6.5
    # times at 16,384, where a dict is rebuilt sooner.  `OrderedDict.popitem`
    # took 0.8-1.8 times as long.
    fill = [make_link(S3, p, 1, 0) for p in range(links._MEMO_SIZE)]
    new = [make_link(RP3, p, 1, 0) for p in range(20_000)]

    def insert_seconds(start) -> float:
        best = float("inf")
        for _ in range(3):
            memo.clear()
            memo.update(start)
            began = time.perf_counter()
            for link in new:
                links._memoise(link, ())
            best = min(best, time.perf_counter() - began)
        return best

    empty = insert_seconds(())
    full = insert_seconds(dict(zip(fill, fill)))
    assert len(memo) == links._MEMO_SIZE and list(memo)[-1] == new[-1]
    assert full < 4 * empty, (full, empty)


# ---------------------------------------------------------------------------
# Threads.


def test_threads_filling_a_small_memo_stay_within_its_bound(memo, monkeypatch):
    monkeypatch.setattr(links, "_MEMO_SIZE", 8)
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
    assert len(memo) <= 8
    assert len(chains) >= 8 * 2000
    assert all(verify_chain(chain, start, end) for chain, start, end in chains)


def test_the_cli_does_not_import_threading():
    src = os.path.dirname(os.path.dirname(os.path.abspath(projlink.__file__)))
    code = "import sys, projlink.cli\nprint('threading' in sys.modules)"
    # -S: without site, which may import threading itself.
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
