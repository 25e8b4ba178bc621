"""Mutation gate: every mutant below must fail the test named with it.

    python tests/mutation_gate.py

Run it from the repository root with the test dependencies installed; it
takes no options.  First the named tests run against an unmutated copy of
`src/` and must pass.  Then, for each mutant, `src/` is copied to a
temporary directory, one snippet of one module is replaced, and the named
test runs against the copy in a fresh interpreter.  The mutants run side by
side, one per CPU, and their results print in list order.  The gate exits 1
if a snippet is not found exactly once, if the unmutated copy fails, or if a
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
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
LINKS = "projlink/links.py"
ATLAS = "projlink/atlas.py"
CLI = "projlink/cli.py"
JSJ = "projlink/jsj.py"
GENERATORS = "projlink/generators.py"
CHAIN_PIN = "tests/test_canonical.py::test_canonical_is_the_end_of_every_chain_at_bound_60"
CANONICAL_PIN = "tests/test_canon_query.py::test_canonical_is_unchanged"
MOVE_PIN = "tests/test_links.py::test_every_move_at_bound_40_is_unchanged"
UNION_FIND = "tests/test_atlas.py::TestClosurePartition::test_union_find_matches_independent_oracle"
LIFT_INJECTIVITY = "tests/test_atlas.py::TestViolationsAreReported::test_lift_injectivity"
VALIDATE_TREE = "tests/test_jsj.py::TestValidateTree"
POTENTIAL = "tests/test_jsj.py::TestPotential"
QUOTIENT = "tests/test_jsj.py::TestQuotient"
LEMMA44 = "tests/test_jsj.py::TestLemma44"
REPLAY = "tests/test_chain_replay.py"
MEMO = "tests/test_memo.py"
READER = "tests/test_cli.py::test_reader_returns_argparse_values_or_none"
# `make_link`'s slow path: an int subclass read as its int, then n's range.
INDEX = "    p, q, n = int.__index__(p), int.__index__(q), int.__index__(n)\n"
RANGE = '    if n not in (0, 1, 2):\n        raise InvalidN(f"n must be 0, 1 or 2, got {n}")\n'

# (what the mutant does, module under src/, snippet, replacement, test).
# Each test is the cheapest one found to kill its mutant.  `canonical` has
# no shrink guard, and `normal_form` builds its chain from `_move` without
# replaying it: a wrong reduction or a wrong recorded move must be caught by
# the chain pin instead.  `verify_chain` is the trusted replay, so each of
# its checks has a mutant too.
MUTANTS = [
    ("the forward reduction grows (p, q) to (k + 1)/k (p, q)",
     LINKS, "step: int = -1", "step: int = 1", CHAIN_PIN),
    ("the forward reduction leaves (p, q) unchanged",
     LINKS, "step: int = -1", "step: int = 0", CHAIN_PIN),
    ("canonical records an R3 reduction as R4",
     LINKS, "moves += (*path, _R3)", "moves += (*path, _R4)", CHAIN_PIN),
    ("canonical records the orbit path R1 R2 as R2 R1",
     LINKS, "(_R1,), (_R2,), (_R1, _R2)", "(_R1,), (_R2,), (_R2, _R1)", CHAIN_PIN),
    # The normal-form cache keeps only valid links, with chains of exact ints.
    ("normal_form checks nothing on a cache miss",
     LINKS, "        space, p, q, n = link = make_link(*link)", "        pass",
     MEMO + "::test_a_miss_on_an_invalid_link_raises_and_caches_nothing"),
    ("normal_form caches a plain 4-tuple as it was given",
     LINKS, "type(link) is TorusLink and ", "",
     MEMO + "::test_a_plain_tuple_is_cached_as_its_record"),
    ("normal_form marks its steps backward",
     LINKS, "(relation, _FORWARD, before, link)", "(relation, _BACKWARD, before, link)",
     CHAIN_PIN),
    # `make_link`, the one definition of a link: each of its checks dropped.
    # Its fast test is the only check an exact-int link meets.
    ("make_link takes any space with exact ints",
     LINKS, "    if ((space is _SPHERE3 or space is _RP3)\n", "    if (True\n",
     REPLAY + "::test_an_element_that_is_not_a_step_gives_false"),
    ("make_link takes any coordinate, not only an exact int",
     LINKS, "and type(p) is type(q) is type(n) is int and 0 <= n <= 2):\n        return _tuple_new",
     "and 0 <= n <= 2):\n        return _tuple_new", REPLAY + "::test_a_float_chain_is_rejected"),
    ("make_link takes any exact-int n",
     LINKS, "is int and 0 <= n <= 2):\n        return _tuple_new",
     "is int):\n        return _tuple_new",
     REPLAY + "::test_a_step_with_n_outside_0_to_2_is_rejected"),
    ("make_link keeps an int subclass",
     LINKS, INDEX, "", "tests/test_canon_query.py::test_make_link_accepts_int_subclasses"),
    ("make_link reads an int subclass by its __int__",
     LINKS, "int.__index__(p), int.__index__(q), int.__index__(n)", "int(p), int(q), int(n)",
     MEMO + "::test_an_int_subclass_is_cached_as_its_value_not_its_int"),
    ("make_link checks n's range before reading n as an int",
     LINKS, INDEX + RANGE, RANGE + INDEX,
     "tests/test_canon_query.py::test_make_link_error_precedence"),
    # The trusted replay: each check of `verify_chain` dropped.
    ("verify_chain reads a relation that is not a Relation as R4",
     LINKS, "if (relation is not _R1 and relation is not _R2 and relation is not _R3\n"
            "                    and relation is not _R4):", "if False:",
     REPLAY + "::test_a_relation_that_is_not_a_member_is_rejected"),
    ("verify_chain compares start as given",
     LINKS, "cur, end = make_link(*start), make_link(*end)",
     "cur, end = start, make_link(*end)", REPLAY + "::test_a_forged_endpoint_is_rejected"),
    ("verify_chain compares end as given",
     LINKS, "cur, end = make_link(*start), make_link(*end)",
     "cur, end = make_link(*start), end", REPLAY + "::test_a_forged_endpoint_is_rejected"),
    ("verify_chain replays a step's before as given",
     LINKS, "before, after = make_link(*before), make_link(*after)",
     "after = make_link(*after)", REPLAY + "::test_a_forged_before_is_rejected"),
    ("verify_chain compares a step's after as given",
     LINKS, "before, after = make_link(*before), make_link(*after)",
     "before = make_link(*before)", REPLAY + "::test_a_forged_after_is_rejected"),
    ("verify_chain does not join a step to the one before",
     LINKS, "if before != cur:", "if False:",
     REPLAY + "::test_broken_link_between_steps_is_rejected"),
    ("verify_chain does not compare the last link with the end",
     LINKS, "return cur == end", "return True",
     REPLAY + "::test_wrong_start_or_end_is_rejected"),
    # `lift` reads its link through `make_link` too.
    ("lift reads its link as given",
     LINKS, " = link = make_link(*link)\n    if space is not _RP3:",
     " = link\n    if space is not _RP3:",
     "tests/test_links.py::TestLift::test_a_coordinate_that_is_not_an_exact_int_is_invalid_input"),
    # `isotopic` and `classify` take a plain 4-tuple: neither reads `link.space`.
    ("isotopic reads each side's space by name",
     LINKS, "if a[0] is not b[0]:", "if a.space is not b.space:",
     "tests/test_links.py::TestIsotopic::test_plain_tuples_are_compared"),
    ("classify reads the space from the link as given",
     LINKS, "rp3 = space is _RP3", "rp3 = link.space is _RP3",
     "tests/test_links.py::TestClassify::test_examples"),
    # The divisors.
    ("R3's divisor is q", LINKS, "        k = p\n", "        k = q\n", CANONICAL_PIN),
    ("R4's divisor in S^3 is p",
     LINKS, "k = q if space is _SPHERE3", "k = p if space is _SPHERE3", CANONICAL_PIN),
    ("R4's divisor in RP^3 is q, as in S^3",
     LINKS, "_SPHERE3 else -p + 2 * q", "_SPHERE3 else q", CANONICAL_PIN),
    ("a reduction does not need k to divide p",
     LINKS, "q % k or p % k", "q % k", CANONICAL_PIN),
    # The swap.
    ("R2 in S^3 is the identity", LINKS, "return q, p\n", "return p, q\n", CANONICAL_PIN),
    ("R2 in RP^3 maps p to p - 2q",
     LINKS, "return -p + 2 * q, q\n", "return p - 2 * q, q\n",
     "tests/test_links.py::TestApplicability::test_rp3_handlebody_swap"),
    # The lift: (p, p - 2q) is the true lift mirrored, (p, q) -> (p, -q).
    # The lift verifiers find no violation in it at bound 12; the formula
    # test kills it.
    ("the lift is (p, p - 2q)",
     LINKS, "return p, -p + 2 * q\n", "return p, p - 2 * q\n",
     "tests/test_links.py::TestLift::test_formula"),
    # The orbit minimum.
    ("the minimum keeps +-s with first coordinate 0 as it comes",
     LINKS, "p > 0 or not p and q > 0", "p > 0", CANONICAL_PIN),
    ("the minimum takes +-R2 s on a tie", LINKS, "if c < a:", "if c <= a:", CANONICAL_PIN),
    # The fixed preimages of (0, 0; 1) and (0, 0; 2).
    ("R3 backward from (0, 0; 1) gives (-1, 0; 0)",
     LINKS, "return 1, 0, 0", "return -1, 0, 0", MOVE_PIN + "[AmbientSpace.SPHERE3]"),
    ("R4 backward from (0, 0; 2) in S^3 gives (1, 0; 1)",
     LINKS, "(0, 1, 1) if space", "(1, 0, 1) if space", MOVE_PIN + "[AmbientSpace.SPHERE3]"),
    ("R4 backward from (0, 0; 2) in RP^3 gives (0, 1; 1)",
     LINKS, "else (1, 1, 1)", "else (0, 1, 1)", MOVE_PIN + "[AmbientSpace.RP3]"),
    # The confluence closure and the cross-check.  A root at the greatest
    # position keeps the partition but reorders the reported groups.
    ("the closure drops the images with |p| = B",
     ATLAS, "if abs(p2) <= bound", "if abs(p2) < bound", UNION_FIND),
    ("the closure never joins R1 pairs",
     ATLAS, "for relation in _RELATIONS:", "for relation in _RELATIONS[1:]:", UNION_FIND),
    ("the closure never joins R2 pairs",
     ATLAS, "for relation in _RELATIONS:", "for relation in _RELATIONS[::2] + _RELATIONS[3:]:",
     UNION_FIND),
    ("the closure never joins R3 pairs",
     ATLAS, "for relation in _RELATIONS:", "for relation in _RELATIONS[:2] + _RELATIONS[3:]:",
     UNION_FIND),
    ("the closure never joins R4 pairs",
     ATLAS, "for relation in _RELATIONS:", "for relation in _RELATIONS[:3]:", UNION_FIND),
    ("the closure roots a class at its greatest position",
     ATLAS, "parent[b] = a\n                elif b < a:\n                    parent[a] = b",
     "parent[a] = b\n                elif b < a:\n                    parent[b] = a",
     "tests/test_atlas.py::test_seeded_fault_reports_are_unchanged"),
    ("_cross_check reports no pair that shares b but not a",
     ATLAS, "((by_a, split), (by_b, lambda _: joined))", "((by_a, split),)",
     "tests/test_atlas.py::TestViolationsAreReported"),
    # The lift verifiers.
    ("lift injectivity keeps every member of a class",
     ATLAS, "if key not in groups:\n            groups[key] = [(p, q, n)]",
     "groups.setdefault(key, []).append((p, q, n))", LIFT_INJECTIVITY),
    ("lift injectivity keys by the RP^3 normal form twice",
     ATLAS, "key = (canonical(s3, *_lift(p, q), n), canonical(rp3, p, q, n))",
     "key = (canonical(rp3, p, q, n), canonical(rp3, p, q, n))", LIFT_INJECTIVITY),
    ("relation-lift tries no backward move",
     ATLAS, "for relation, direction in _MOVES:\n            image = _move(rp3,",
     "for relation, direction in _MOVES[::2]:\n            image = _move(rp3,",
     "tests/test_atlas.py::TestRelationLiftCompatibility::test_report_is_unchanged"),
    # The JSJ tree and cover checks.  test_cycle_rejected does not kill the
    # first: its cycle also breaks the edge count.
    ("the shape check misses a cycle",
     JSJ, "if u == v:", "if False:",
     VALIDATE_TREE + "::test_long_path_with_a_cycle_and_an_isolated_vertex"),
    ("the label-pair rule forbids only (other, other)",
     JSJ, "if (lu is _OTHER) is (lv is _OTHER) and not (lu is lv is _ST):",
     "if lu is lv is _OTHER:", VALIDATE_TREE + "::test_label_pair"),
    ("the potential runs against each oriented edge",
     JSJ, "fx + 1 if (lu is not _OTHER) is (u == x) else fx - 1",
     "fx - 1 if (lu is not _OTHER) is (u == x) else fx + 1", POTENTIAL + "::test_oriented_edge"),
    ("the potential is not normalised to minimum zero",
     JSJ, "return {v: f - low for v, f in values.items()} if low else values", "return values",
     POTENTIAL + "::test_star_with_mixed_orientations"),
    ("a cover may fix a knotted-hole-ball edge",
     JSJ, "if lu is _KHB or lv is _KHB:", "if False:",
     QUOTIENT + "::test_fixed_knotted_hole_ball_edge_rejected"),
    ("a fixed edge may swap its endpoints",
     JSJ, "if su == v or su == u and sv == v:", "if su == u and sv == v:",
     QUOTIENT + "::test_endpoint_swapping_fixed_edge_rejected"),
    ("a cover's involution need not preserve labels",
     JSJ, "if image[0] is not lu or image[1] is not lv:", "if False:",
     QUOTIENT + "::test_label_mismatch_rejected"),
    ("the parity criterion asks for an odd count",
     JSJ, "non_st[qv] % 2 == 0", "non_st[qv] % 2 == 1",
     LEMMA44 + "::test_fixed_vertex_with_odd_other_count"),
    ("cover_from_dict takes a vertex_map value that cannot be hashed",
     JSJ, "hash(w)", "pass", LEMMA44 + "::test_malformed_involution_is_invalid_input"),
    ("the generator gives a fixed piece the back labels (other, st)",
     GENERATORS, "_FIXED_BACK = (_ST, _OTHER)", "_FIXED_BACK = (_OTHER, _ST)",
     "tests/test_jsj_pins.py::test_cover_stream_is_unchanged"),
    # The atlas writer formats plain (p, q, n) triples.
    ("the atlas writer swaps p and q in member records",
     ATLAS, "member % (n, p, q) for p, q, n", "member % (n, q, p) for p, q, n",
     "tests/test_canonical.py::test_atlas_stdout_is_unchanged"),
    # The argv reader must return argparse's values or None.
    ("the reader takes any token that starts with - as a value",
     CLI, "token[1:].isdigit() and token.isascii()", "True", READER),
    ("the reader ignores a token left over",
     CLI, "return None if tokens else args", "return args", READER),
    ("the reader skips the choices check",
     CLI, 'if "choices" in spec and', "if False and", READER),
    # The exit codes: verify and cover-check exit 1 when a property is refuted.
    ("verify exits 0 on a violation",
     CLI, "return 0 if report.ok else 1", "return 0",
     "tests/test_atlas.py::test_verify_exits_1_on_a_violation"),
    ("cover-check exits 0 on a mismatch",
     CLI, "on this cover\n                return 1", "on this cover\n                return 0",
     "tests/test_cli.py::TestJsj::test_cover_check_mismatch_is_exit_1"),
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


def run_mutant(mutant: tuple) -> tuple[bool, str]:
    """Apply `mutant` to a copy of `src/` and run its test: (a failure, its line)."""
    what, module, snippet, replacement, test = mutant
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        path = src / module
        text = path.read_text()
        if text.count(snippet) != 1:
            return True, (f"NOT APPLIED: {what}: {snippet!r} occurs {text.count(snippet)} "
                          f"times in src/{module}")
        path.write_text(text.replace(snippet, replacement))
        survived, seconds, last = run_tests(src, [test])
    return survived, f"{'SURVIVED' if survived else 'killed'} in {seconds:.1f} s: {what}: {last}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        passed, seconds, last = run_tests(copy_src(tmp), sorted({m[-1] for m in MUTANTS}))
    print(f"unmutated: {'passed' if passed else 'FAILED'} in {seconds:.1f} s: {last}")
    if not passed:
        return 1
    failures = 0
    # Each mutant has its own copy and interpreter; a thread only waits on it.
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for failed, line in pool.map(run_mutant, MUTANTS):
            print(line, flush=True)
            failures += failed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
