"""The in-process workloads, query-mix and jsj-sweep, and the loop that runs them.

A workload object makes a seeded stream of operations, performs one
operation with projlink (`call`, the only timed part) and checks its output
with perfbench/oracle.py (`check`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from time import perf_counter

import oracle
from child import peak_rss_mb
from reference import Timeline


@dataclass
class Stats:
    latencies: list[float] = field(default_factory=list)  # raw seconds
    scaled: list[float] = field(default_factory=list)  # see reference.py
    units: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    rss_mb: float = 0.0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(reason)


# ---------------------------------------------------------------------------
# query-mix: one caller in a closed loop over the links API.


def _small(rng):
    return (rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(0, 2))


def _divisible(rng, space):
    """A triple on which R3 or R4 fires, possibly hidden in its R1/R2 orbit."""
    kind = rng.randrange(4)
    if kind == 0:
        p = rng.randint(1, 400)
        t = (p, p * rng.randint(-400, 400), 0)
    elif kind == 1 and space == "s3":
        q = rng.randint(1, 400)
        t = (q * rng.randint(-400, 400), q, 1)
    elif kind == 1:
        k = rng.randint(1, 60)
        q = k * rng.randint(-400, 400)
        t = (2 * q - k, q, 1)
    elif kind == 2:
        t = (rng.randint(0, 300), 0, 1)
    else:
        c = rng.randint(1, 300)
        t = (2 * c, c, 1) if space == "rp3" else (0, c, 0)
    return oracle.random_walk(rng, space, t, rng.randint(0, 2))


def _big(rng):
    if rng.random() < 0.5:
        return (rng.randint(-10**18, 10**18), rng.randint(-10**18, 10**18),
                rng.randint(0, 2))
    p = rng.randint(1, 10**9)
    return (p, p * rng.randint(-10**9, 10**9), 0)


# Composition of every block of 100 queries; the order inside a block is
# shuffled.  Fixed counts keep the mix, and so the percentiles, steady
# across seeds.  The counts are chosen, not measured: no source records a
# mix of calls (see README.md).
QUERY_BLOCK = (
    [("canon", "hot")] * 20 + [("canon", "div")] * 15 + [("canon", "big")] * 10
    + [("walk", "hot")] * 8 + [("walk", "div")] * 8 + [("walk", "big")] * 4
    + [("apart", "any")] * 20 + [("lift", "hot")] * 10 + [("lift", "big")] * 5)
HOT_PER_SPACE = 150


class QueryMix:
    name = "query-mix"
    # Peak RSS is read after this many queries: the normal-form cache grows
    # with every new triple, so a later reading would grow with speed.
    rss_at_ops = 20000

    def __init__(self):
        from projlink import links

        self.links = links
        self.spaces = {"s3": links.AmbientSpace.SPHERE3, "rp3": links.AmbientSpace.RP3}

    @staticmethod
    def stream(seed: int):
        rng = random.Random(f"query-mix/{seed}/hot")
        hot = {space: [_small(rng) if i % 2 else _divisible(rng, space)
                       for i in range(HOT_PER_SPACE)]
               for space in ("s3", "rp3")}
        block = 0
        while True:
            rng = random.Random(f"query-mix/{seed}/{block}")
            kinds = list(QUERY_BLOCK)
            rng.shuffle(kinds)
            for kind, source in kinds:
                space = "rp3" if kind == "lift" else rng.choice(("s3", "rp3"))

                def pick(src=source):
                    if src == "any":
                        src = rng.choice(("hot", "div", "big"))
                    if src == "hot":
                        return rng.choice(hot[space])
                    return _divisible(rng, space) if src == "div" else _big(rng)

                if kind == "walk":
                    c = pick()
                    yield ("isotopic", space,
                           oracle.random_walk(rng, space, c, rng.randint(0, 4)),
                           oracle.random_walk(rng, space, c, rng.randint(0, 4)), True)
                elif kind == "apart":
                    a, (p, q, n) = pick(), pick()
                    if oracle.components((p, q, n)) == oracle.components(a):
                        n = (n + 1) % 3  # changes the count by 1 or 2
                    yield ("isotopic", space, a, (p, q, n), False)
                else:
                    yield (kind, space, pick())
            block += 1

    def call(self, op):
        links = self.links
        kind, space = op[0], self.spaces[op[1]]
        if kind == "canon":
            link = links.make_link(space, *op[2])
            nf, chain = links.normal_form(link)
            verdict = links.classify(link)
            return {
                "input": links.link_to_dict(link),
                "normal_form": links.link_to_dict(nf),
                "components": links.component_count(link),
                "classification": {"kind": verdict.kind.value, "detail": verdict.detail},
                "witness": links.chain_to_list(chain),
            }, 1
        if kind == "isotopic":
            a, b = links.make_link(space, *op[2]), links.make_link(space, *op[3])
            verdict, chain = links.isotopic(a, b)
            return {"isotopic": verdict,
                    "witness": links.chain_to_list(chain) if chain is not None else None}, 1
        link = links.make_link(space, *op[2])
        return {"input": links.link_to_dict(link),
                "lift": links.link_to_dict(links.lift(link))}, 1

    @staticmethod
    def check(op, out, stats: Stats):
        kind, space = op[0], op[1]
        if kind == "canon":
            chain = len(out["witness"])
            stats.detail["max_chain_steps"] = max(stats.detail.get("max_chain_steps", 0), chain)
            return oracle.check_canon(space, op[2], out)
        if kind == "isotopic":
            return oracle.check_isotopic(space, op[2], op[3], op[4], out)
        return oracle.check_lift(op[2], out)


# ---------------------------------------------------------------------------
# jsj-sweep: generate, round-trip through the wire format, check, emit.


# Every block of 20 operations: 14 small trees, 5 covers and 1 large tree,
# so the median sits among the small trees and the 99th percentile among
# the large ones, away from the boundary between them.
JSJ_BLOCK = (("tree", 1, 60),) * 14 + (("cover", 20, 120),) * 5 + (("tree", 1800, 2200),)


def _emit(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class JsjSweep:
    name = "jsj-sweep"
    rss_at_ops = 300

    def __init__(self):
        from projlink import generators, jsj

        self.generators, self.jsj = generators, jsj

    @staticmethod
    def stream(seed: int):
        block = 0
        while True:
            rng = random.Random(f"jsj-sweep/{seed}/{block}")
            kinds = list(JSJ_BLOCK)
            rng.shuffle(kinds)
            for i, (kind, lo, hi) in enumerate(kinds):
                yield (kind, rng.randint(lo, hi), f"jsj-sweep/{seed}/{block}/{i}")
            block += 1

    def call(self, op):
        generators, jsj = self.generators, self.jsj
        kind, size, op_seed = op
        rng = random.Random(op_seed)
        if kind == "tree":
            tree = generators.random_jsj_tree(rng, size)
            raw = json.loads(json.dumps(jsj.tree_to_dict(tree)))
            tree = jsj.validate_tree(raw)
            text = _emit({"potential": jsj.potential(tree),
                          "outermost": sorted(jsj.outermost(tree))})
        else:
            spec = generators.random_cover_spec(rng, size)
            raw = json.loads(json.dumps(jsj.cover_to_dict(spec)))
            entries = jsj.lemma44_check(jsj.cover_from_dict(raw))
            text = _emit({
                "vertices": [{"id": e.vertex, "orbit": list(e.orbit),
                              "outermost": e.outermost, "criterion": e.criterion,
                              "agree": e.agree} for e in entries],
                "mismatches": sum(1 for e in entries if not e.agree),
            })
        return (raw, text), len(raw["vertices"])

    @staticmethod
    def check(op, out, stats: Stats):
        raw, text = out
        if op[0] == "tree":
            return oracle.check_tree(raw, json.loads(text))
        return oracle.check_cover(raw, json.loads(text))


IN_PROCESS = {w.name: w for w in (QueryMix, JsjSweep)}


def drive(workload, seed: int, deadline: float | None = None,
          n_ops: int | None = None) -> Stats:
    """Run operations until the deadline or until n_ops have run.

    Only the call is timed; making inputs and checking outputs are not.
    The reference loop runs between operations, every 50 ms.  Peak RSS is
    read once workload.rss_at_ops operations have run, or at the end.
    """
    stats = Stats()
    timeline = Timeline()
    starts: list[float] = []
    for op in workload.stream(seed):
        now = perf_counter()
        if (n_ops is not None and stats.attempted >= n_ops) or \
                (deadline is not None and now >= deadline):
            break
        if timeline.due(now):
            timeline.sample()
        if stats.attempted == workload.rss_at_ops:
            stats.rss_mb = peak_rss_mb()
        stats.attempted += 1
        t0 = perf_counter()
        try:
            out, units = workload.call(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, units, reason = None, 0, f"raised {exc!r}"
        starts.append(t0)
        stats.latencies.append(perf_counter() - t0)
        stats.units += units
        if out is not None:
            try:
                reason = workload.check(op, out, stats)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"malformed output: {exc!r}"
        if reason is not None:
            stats.fail(f"{op[:2]!r}: {reason}")
    timeline.sample()
    stats.scaled = timeline.scaled(starts, stats.latencies)
    stats.rss_mb = stats.rss_mb or peak_rss_mb()
    return stats

