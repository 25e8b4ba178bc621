"""The projlink benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (query-mix, atlas-audit or jsj-sweep) on inputs made from
the seed, checks every output with perfbench/oracle.py, and prints a JSON
detail line followed by a one-line result.  With --trace 0 the result holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import Timeline
from workloads import Stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Fresh-interpreter imports per run for setup_s.  With 9, the median's
# spread over ten seeds (interquartile range over median) was 0.10.
SETUP_PROBES = 21
# Every measured interpreter runs under one of these hash seeds, in turn.
# The hash seed fixes the layout of dicts and sets; left random, it moved
# query-mix throughput by 10 % between otherwise identical runs.
HASH_SEEDS = (0, 1, 2)
# In-process workloads run in this many fresh workers, each hash seed in
# turn, each for an equal share of --seconds.  Identical workers differed by
# up to 15 % in median latency, so more of them average that out.
WORKERS = 2 * len(HASH_SEEDS)
# Operations per requested second in a traced run, which does a fixed amount
# of work so that its counters repeat exactly for a given seed.
TRACE_OPS_PER_S = {"query-mix": 600, "jsj-sweep": 20}


def child_env(k: int) -> dict:
    seed = HASH_SEEDS[k % len(HASH_SEEDS)]
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))


def nearest_rank(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule: an observed value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# atlas-audit: a fixed list of CLI commands, each in a fresh interpreter.

# (metric, argv, sha256 of stdout recorded from the implementation this
# benchmark was written against; stdout is promised to be byte-stable).
AUDIT_COMMANDS = (
    ("atlas_s", ("atlas", "--space", "s3", "--bound", "25"),
     "3bd6bb372f9906fe4c26f67c354d0165ff1e76399cbe18780349ae6402d9462e"),
    ("atlas_s", ("atlas", "--space", "rp3", "--bound", "25"),
     "39122371cd26dff4c31d00bbd53981685995e636d8969b9acf6aa6077dbd4599"),
    ("confluence_s", ("verify", "confluence", "--space", "s3", "--bound", "10"),
     "438d27cd352341b48490c1276a828f1150ea7701f2158dfce9e4ef229da436c9"),
    ("confluence_s", ("verify", "confluence", "--space", "rp3", "--bound", "10"),
     "438d27cd352341b48490c1276a828f1150ea7701f2158dfce9e4ef229da436c9"),
    ("lift_injectivity_s", ("verify", "lift-injectivity", "--bound", "15"),
     "7a7c467713f5f6844329ce4bdcff0270f32eca919bee26e14fee51906b0e2d02"),
    ("relation_lift_s", ("verify", "relation-lift", "--bound", "15"),
     "d031e9cf8140f1bd9b99909c3db4e87e6295cadb9d8f087828d114f8d6fd3b77"),
)


def _universe(bound: int) -> int:
    return 3 * (2 * bound + 1) ** 2


def audit_triples(argv) -> int:
    """Triples the command scans, from its arguments alone: the universe,
    plus the closure universe for the confluence audit."""
    bound = int(argv[-1])
    closure = _universe(3 * bound) if "confluence" in argv else 0
    return _universe(bound) + closure


def _report(proc) -> dict | None:
    """The JSON object child.py prints as its last line on stderr."""
    try:
        return json.loads(proc.stderr.splitlines()[-1])
    except (IndexError, ValueError):
        return None


def _check_audit(argv, digest, proc, report, stats: Stats) -> None:
    stats.attempted += 1
    got = hashlib.sha256(proc.stdout).hexdigest()
    if proc.returncode != 0:
        stats.fail(f"{' '.join(argv)} exited {proc.returncode}")
    elif report is None:
        stats.fail(f"{' '.join(argv)} printed no report on stderr")
    elif got != digest:
        stats.fail(f"{' '.join(argv)} stdout digest {got} != recorded {digest}")
    elif argv[0] == "verify" and json.loads(proc.stdout)["violations"]:
        stats.fail(f"{' '.join(argv)} reports violations")


def timed_run(cmd: list[str], env: dict, timeline: Timeline):
    """Run a command; return it with the moments it started and ended.

    The reference loop runs three times before and three times after.
    """
    for _ in range(3):
        timeline.sample()
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT)
    t1 = perf_counter()
    for _ in range(3):
        timeline.sample()
    return proc, t0, t1


def audit_pass(seed: int, index: int, stats: Stats, timeline: Timeline,
               traces: list[dict] | None = None) -> dict[str, list[float]]:
    """Run every command once, in a seeded order, each through child.py.

    Returns [raw, scaled] seconds per metric.  Keeps the largest peak RSS
    a command reports in stats.rss_mb.  With `traces`, the commands run
    traced and their reports are appended to it.
    """
    order = list(AUDIT_COMMANDS)
    random.Random(f"atlas-audit/{seed}/{index}").shuffle(order)
    trace = [] if traces is None else ["--trace"]
    times: dict[str, list[float]] = {}
    for metric, argv, digest in order:
        cmd = [sys.executable, str(HERE / "child.py"), "cli", *trace, *argv]
        proc, t0, t1 = timed_run(cmd, child_env(index), timeline)
        acc = times.setdefault(metric, [0.0, 0.0])
        acc[0] += t1 - t0
        acc[1] += (t1 - t0) * timeline.scale(t0, t1)
        report = _report(proc)
        _check_audit(argv, digest, proc, report, stats)
        if report is not None:
            stats.rss_mb = max(stats.rss_mb, report["rss_mb"])
            if traces is not None:
                traces.append(report)
        stats.detail["stdout_bytes"] = stats.detail.get("stdout_bytes", 0) + len(proc.stdout)
        stats.units += audit_triples(argv)
    return times


def run_audit(seed: int, deadline: float) -> Stats:
    stats = Stats()
    timeline = Timeline()
    passes: list[dict[str, list[float]]] = []
    while not passes or perf_counter() < deadline:
        passes.append(audit_pass(seed, len(passes), stats, timeline))
    stats.latencies = [sum(raw for raw, _ in p.values()) for p in passes]
    stats.scaled = [sum(scaled for _, scaled in p.values()) for p in passes]
    stats.detail["per_command_s"] = {
        metric: statistics.median(p[metric][1] for p in passes) for metric in passes[0]}
    stats.detail["per_command_raw_s"] = {
        metric: statistics.median(p[metric][0] for p in passes) for metric in passes[0]}
    return stats


# ---------------------------------------------------------------------------
# Set-up, metadata and reporting.


def setup_probes() -> tuple[list[float], list[float], list[float]]:
    """Fresh-interpreter imports of projlink.

    Returns the raw and the scaled import seconds, and the seconds from
    spawning the interpreter until the import finished.
    """
    timeline = Timeline()
    imports, scaled, startups = [], [], []
    for k in range(SETUP_PROBES):
        proc, t0, t1 = timed_run([sys.executable, str(HERE / "child.py"), "probe"],
                                 child_env(k), timeline)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: importing projlink failed:\n{proc.stderr.decode()}")
        probe = json.loads(proc.stdout)
        imports.append(probe["import_s"])
        scaled.append(probe["import_s"] * timeline.scale(t0, t1))
        startups.append(probe["imported_at"] - t0)
    return imports, scaled, startups


def metadata(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": sha,
        "source_sha256": _digest(SRC / "projlink"), "benchmark_sha256": _digest(HERE),
    }


def _digest(directory: Path) -> str:
    """SHA-256 of the Python files in a directory, by name and content."""
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_worker(k: int, workload: str, seed: int, *limit: str) -> dict:
    """Run one fresh worker interpreter; see child.py for `limit`."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "ops", workload, str(seed), *limit],
        capture_output=True, text=True, env=child_env(k), cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def pooled(parts: list[dict]) -> Stats:
    stats = Stats()
    for part in parts:
        stats.latencies += part["latencies"]
        stats.scaled += part["scaled"]
        stats.units += part["units"]
        stats.attempted += part["attempted"]
        stats.failed += part["failed"]
        stats.failures += part["failures"][:10 - len(stats.failures)]
        for key, value in part["detail"].items():
            stats.detail[key] = max(stats.detail.get(key, value), value)
    return stats


def timing_metrics(lat: list[float], units: int, imports: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(imports), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p99_ms": (nearest_rank(lat, 0.99) * 1e3, "ms"),
        "work_per_s": (units / sum(lat), "1/s"),
    }


def end_to_end(args, probes) -> tuple[Stats, dict, dict]:
    """An untraced, time-boxed run: the end-to-end metrics and their detail.

    Times are scaled (see reference.py); the raw ones go to the detail.
    """
    imports, scaled_imports, _ = probes
    if args.workload == "atlas-audit":
        stats = run_audit(args.seed, perf_counter() + args.seconds)
        rss = stats.rss_mb
        named = {"audit_s": (statistics.median(stats.scaled), "s")}
        named.update({m: (v, "s") for m, v in stats.detail["per_command_s"].items()})
    else:
        share = f"{args.seconds / WORKERS:.3f}"
        parts = [run_worker(k, args.workload, args.seed, "--seconds", share)
                 for k in range(WORKERS)]
        stats = pooled(parts)
        rss = max(part["rss_mb"] for part in parts)
        lat = stats.scaled
        if args.workload == "query-mix":
            named = {"query_p50_us": (statistics.median(lat) * 1e6, "us"),
                     "query_p99_us": (nearest_rank(lat, 0.99) * 1e6, "us"),
                     "queries_per_s": (len(lat) / sum(lat), "1/s")}
        else:
            named = {"jsj_vertices_per_s": (stats.units / sum(lat), "1/s"),
                     "jsj_op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                     "jsj_op_p99_ms": (nearest_rank(lat, 0.99) * 1e3, "ms")}
    metrics = timing_metrics(stats.scaled, stats.units, scaled_imports)
    metrics["peak_rss_mb"] = (rss, "MB")
    named.update(peak_rss_mb=(rss, "MB"),
                 failed_op_share=(stats.failed / stats.attempted, "share"))
    raw = timing_metrics(stats.latencies, stats.units, imports)
    samples = {"setup_s": len(imports), "op": len(stats.scaled), "work_units": stats.units}
    return stats, metrics, {"named": named, "raw": raw, "samples": samples}


def traced(args, probes) -> tuple[Stats, dict, dict]:
    """A traced run of fixed size: the per-layer metrics and their detail.

    The same work also runs untraced, under the same hash seed, to measure
    the tracing overhead from scaled times.
    """
    from tracer import merge_totals

    extra = {"cli.startup_s": statistics.median(probes[2]), "cli.stdout_bytes": 0,
             "checks": 0}
    if args.workload == "atlas-audit":
        stats, timeline = Stats(), Timeline()
        plain = sum(s for _, s in audit_pass(args.seed, 0, stats, timeline).values())
        stdout_before = stats.detail["stdout_bytes"]
        parts: list[dict] = []
        busy = sum(s for _, s in audit_pass(args.seed, 0, stats, timeline,
                                            parts).values())
        totals = merge_totals(part["totals"] for part in parts)
        spans = sum(part["spans"] for part in parts)
        extra["cli.stdout_bytes"] = stats.detail["stdout_bytes"] - stdout_before
    else:
        # Untraced and traced workers alternate, twice, so that a drift in
        # the machine's speed falls on both sides.
        n_ops = str(TRACE_OPS_PER_S[args.workload] * args.seconds)
        parts = [run_worker(0, args.workload, args.seed, "--ops", n_ops, *flags)
                 for flags in ((), ("--trace",), (), ("--trace",))]
        stats = pooled(parts)
        part = parts[1]
        totals, spans = part["totals"], part["spans"]
        plain = sum(sum(p["scaled"]) for p in parts[0::2])
        busy = sum(sum(p["scaled"]) for p in parts[1::2])
        if args.workload == "jsj-sweep":
            extra["checks"] = part["attempted"]
    extra.update({"trace.overhead_share": busy / plain - 1, "trace.spans": spans})
    return stats, layer_metrics(totals, extra), {"totals": totals}


def layer_metrics(totals: dict, extra: dict) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json."""
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "units": 0.0}

    def row(name):
        return totals.get(name, empty)

    def per(name, key):
        """Inclusive microseconds per call or per unit of work."""
        r = row(name)
        return r["incl_s"] * 1e6 / r[key] if r[key] else 0.0

    nf = row("links.normal_form")
    out = {
        "links.normal_form.calls": (nf["calls"], "count"),
        "links.normal_form.self_s": (nf["self_s"], "s"),
        "links.normal_form.us_per_call": (per("links.normal_form", "calls"), "us"),
        "links.normal_form.repeat_share": (
            row("_repeats")["calls"] / nf["calls"] if nf["calls"] else 0.0, "share"),
    }
    for name in ("links.isotopic", "links.classify", "links.apply_relation"):
        out[f"{name}.calls"] = (row(name)["calls"], "count")
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
    out["atlas.universe.triples"] = (row("atlas.universe")["units"], "count")
    out["atlas.enumerate_classes.self_s"] = (row("atlas.enumerate_classes")["self_s"], "s")
    out["atlas.enumerate_classes.us_per_triple"] = (per("atlas.enumerate_classes", "units"), "us")
    out["atlas.closure_partition.triples"] = (row("atlas.closure_partition")["units"], "count")
    out["atlas.closure_partition.self_s"] = (row("atlas.closure_partition")["self_s"], "s")
    out["atlas.closure_partition.us_per_triple"] = (per("atlas.closure_partition", "units"), "us")
    for name in ("atlas.confluence_audit", "atlas.verify_lift_injectivity"):
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
    rel = row("atlas.relation_lift_compatibility")
    out["atlas.relation_lift_compatibility.instances"] = (rel["units"], "count")
    out["atlas.relation_lift_compatibility.self_s"] = (rel["self_s"], "s")
    out["atlas.Atlas.to_dict.self_s"] = (row("atlas.Atlas.to_dict")["self_s"], "s")
    out["jsj.validate_tree.self_s"] = (row("jsj.validate_tree")["self_s"], "s")
    out["jsj.validate_tree.us_per_vertex"] = (per("jsj.validate_tree", "units"), "us")
    out["jsj.cover_from_dict.self_s"] = (row("jsj.cover_from_dict")["self_s"], "s")
    out["jsj.potential.calls"] = (row("jsj.potential")["calls"], "count")
    for name in ("jsj.potential", "jsj.outermost", "jsj.lemma44_check",
                 "generators.random_jsj_tree", "generators.random_cover_spec"):
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
        out[f"{name}.us_per_vertex"] = (per(name, "units"), "us")
    checks = extra["checks"]
    adjacency = row("jsj.JsjTree.adjacency")["calls"]
    out["jsj.adjacency.builds_per_check"] = (adjacency / checks if checks else 0.0, "1/check")
    out["generators.vertices_generated"] = (
        row("generators.random_jsj_tree")["units"]
        + row("generators.random_cover_spec")["units"], "count")
    out["cli.main.self_s"] = (row("cli.main")["self_s"], "s")
    out["cli.startup_s"] = (extra["cli.startup_s"], "s")
    out["cli.stdout_bytes"] = (extra["cli.stdout_bytes"], "bytes")
    out["trace.overhead_share"] = (extra["trace.overhead_share"], "share")
    out["trace.spans"] = (extra["trace.spans"], "count")
    return out


def _counts_check(meta: dict, metrics: dict, stats: Stats) -> bool | None:
    """Compare this traced run's exact counters with an earlier run on the
    same seed and size, with the same projlink and benchmark sources; the
    first such run records them."""
    counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}
    path = OUT / (f"counts-{meta['workload']}-{meta['seed']}-{meta['seconds']}"
                  f"-{meta['source_sha256'][:12]}-{meta['benchmark_sha256'][:12]}.json")
    OUT.mkdir(exist_ok=True)
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True))
        return None
    if json.loads(path.read_text()) != counts:
        stats.fail(f"work counters differ from the earlier run recorded in {path.name}")
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["query-mix", "atlas-audit", "jsj-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "projlink" / "__init__.py").is_file():
        print(f"perfbench: no projlink sources under {SRC}", file=sys.stderr)
        return 2

    # One CPU for the benchmark and every interpreter it starts, so that the
    # reference loop times the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meta = metadata(args)
    probes = setup_probes()
    if args.trace:
        stats, metrics, detail = traced(args, probes)
        detail["counts_match_previous"] = _counts_check(meta, metrics, stats)
    else:
        stats, metrics, detail = end_to_end(args, probes)
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail.update(meta, failed_op_share=stats.failed / stats.attempted,
                  failures=stats.failures, extra=stats.detail, metrics=result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps({k: v for k, v in detail.items() if k != "totals"}, sort_keys=True))
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
