"""Mutation gate: every mutant below must fail the test named with it.

    python tests/mutation_gate.py

Run it from the repository root with the test dependencies installed; it
takes no options.  First the named tests run against an unmutated copy of
`src/` and must pass.  Then, for each mutant, `src/` is copied to a
temporary directory, one snippet of one module is replaced, and the named
test runs against the copy in a fresh interpreter.  The gate exits 1 if a
snippet is not found exactly once, if the unmutated copy fails, or if a
mutant's test passes.  pytest does not collect this file: its name does not
start with `test_`.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHAIN_PIN = "tests/test_canonical.py::test_canonical_is_the_end_of_every_chain_at_bound_60"

# (what the mutant does, module under src/, snippet, replacement, test).
# `canonical` has no shrink guard: a forward reduction that does not shrink
# |p| + |q| must be caught by the chain pin instead.
MUTANTS = [
    ("the forward reduction grows (p, q) to (k + 1)/k (p, q)",
     "projlink/links.py", "step: int = -1", "step: int = 1", CHAIN_PIN),
    ("the forward reduction leaves (p, q) unchanged",
     "projlink/links.py", "step: int = -1", "step: int = 0", CHAIN_PIN),
]


def run_tests(src: pathlib.Path, tests: list[str]) -> tuple[bool, float, str]:
    """Run `tests` against the package in `src`: (passed, seconds, last line)."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    return done.returncode == 0, time.perf_counter() - t0, lines[-1]


def copy_src(tmp: str) -> pathlib.Path:
    src = pathlib.Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        passed, seconds, last = run_tests(copy_src(tmp), sorted({m[-1] for m in MUTANTS}))
    print(f"unmutated: {'passed' if passed else 'FAILED'} in {seconds:.1f} s: {last}")
    if not passed:
        return 1
    for what, module, snippet, replacement, test in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            path = src / module
            text = path.read_text()
            if text.count(snippet) != 1:
                print(f"NOT APPLIED: {what}: {snippet!r} occurs {text.count(snippet)} times "
                      f"in src/{module}")
                failures += 1
                continue
            path.write_text(text.replace(snippet, replacement))
            survived, seconds, last = run_tests(src, [test])
        print(f"{'SURVIVED' if survived else 'killed'} in {seconds:.1f} s: {what}: {last}")
        failures += survived
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
