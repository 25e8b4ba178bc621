"""Entry points the benchmark runs in fresh interpreters.

    child.py probe
        Import projlink.cli; print the import's duration and the moment it
        finished as one JSON line.
    child.py cli [--trace] ARGS...
        Run `projlink ARGS...`, traced if asked.  Stdout is the command's own
        stdout.  The last line on stderr is a JSON object with the process's
        peak RSS and, when traced, the per-name span totals.
    child.py ops WORKLOAD SEED (--seconds S | --ops N) [--trace]
        Run an in-process workload for S seconds or for its first N
        operations, traced if asked, and print the samples, counters and
        peak RSS as one JSON line.
"""

import json
import sys
from time import perf_counter


def peak_rss_mb() -> float:
    """Peak RSS of this process (VmHWM).  getrusage's ru_maxrss would also
    count the pages of the parent that spawned it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _probe() -> int:
    t0 = perf_counter()
    import projlink.cli  # noqa: F401
    t1 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "imported_at": t1}))
    return 0


def _cli(argv: list[str]) -> int:
    import projlink.cli

    trace = argv[:1] == ["--trace"]
    tracer = _tracer() if trace else None
    code = projlink.cli.main(argv[1:] if trace else argv)
    sys.stdout.flush()
    report = {"rss_mb": peak_rss_mb()}
    if tracer is not None:
        report.update(totals=tracer.totals(), spans=len(tracer.span_start))
    print(json.dumps(report), file=sys.stderr)
    return code


def _ops(workload: str, seed: str, limit: str, amount: str, *trace: str) -> int:
    import workloads

    driven = workloads.IN_PROCESS[workload]()
    tracer = _tracer() if trace else None
    if limit == "--seconds":
        stats = workloads.drive(driven, int(seed), deadline=perf_counter() + float(amount))
    else:
        stats = workloads.drive(driven, int(seed), n_ops=int(amount))
    out = {"latencies": stats.latencies, "scaled": stats.scaled, "units": stats.units,
           "attempted": stats.attempted, "failed": stats.failed,
           "failures": stats.failures, "detail": stats.detail,
           "rss_mb": stats.rss_mb}
    if tracer is not None:
        out["totals"] = tracer.totals()
        out["spans"] = len(tracer.span_start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        sys.exit(_probe())
    if mode == "cli":
        sys.exit(_cli(rest))
    sys.exit(_ops(*rest))
