"""End-to-end tests of the command-line interface via main(argv)."""

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import projlink
from projlink import atlas
from projlink.cli import _build_parser, _read, main
from test_readme import README, ROOT, readme_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


class TestCanon:
    def test_hopf_link(self, capsys):
        code, out, _ = run(capsys, "canon", "--space", "s3", "2", "2", "0")
        assert code == 0
        assert out["components"] == 2
        assert out["normal_form"] == {"space": "s3", "p": 0, "q": 0, "n": 2}
        assert out["classification"]["kind"] == "SEIFERT_COMPLEMENT"

    def test_empty_link(self, capsys):
        code, out, _ = run(capsys, "canon", "--space", "rp3", "0", "0", "0")
        assert code == 0
        assert out["components"] == 0
        assert out["classification"]["kind"] == "EMPTY"

    def test_witness_replays_from_json(self, capsys):
        from projlink.links import (AmbientSpace, Direction, Relation, RelationStep,
                                    TorusLink, verify_chain)

        def triple(d):
            return TorusLink(AmbientSpace(d["space"]), d["p"], d["q"], d["n"])

        code, out, _ = run(capsys, "canon", "--space", "rp3", "4", "0", "0")
        assert code == 0
        chain = tuple(
            RelationStep(Relation(s["relation"]), Direction(s["direction"]),
                         triple(s["before"]), triple(s["after"]))
            for s in out["witness"])
        assert verify_chain(chain, triple(out["input"]), triple(out["normal_form"]))


class TestIsotopic:
    def test_swap_pair(self, capsys):
        code, out, _ = run(capsys, "isotopic", "--space", "s3",
                           "3", "5", "0", "5", "3", "0")
        assert code == 0
        assert out["isotopic"] is True
        assert out["witness"]

    def test_exceptional_pair(self, capsys):
        code, out, _ = run(capsys, "isotopic", "--space", "rp3",
                           "4", "0", "0", "2", "0", "2")
        assert code == 0 and out["isotopic"] is True

    def test_distinct_pair(self, capsys):
        code, out, _ = run(capsys, "isotopic", "--space", "s3",
                           "2", "3", "0", "2", "5", "0")
        assert code == 0
        assert out["isotopic"] is False
        assert out["witness"] is None


class TestLift:
    def test_formula(self, capsys):
        code, out, _ = run(capsys, "lift", "2", "1", "1")
        assert code == 0
        assert out["lift"] == {"space": "s3", "p": 2, "q": 0, "n": 1}

    def test_result_too_long_to_print_is_a_usage_error(self, capsys):
        # Both inputs have 4300 digits, the most int() reads by default;
        # the lift's q = -p + 2q has one digit more.
        nines = "9" * 4300
        code, out, err = run(capsys, "lift", "-" + nines, nines, "0")
        assert code == 2 and out is None
        assert "cannot be printed" in err and "Traceback" not in err


class TestAtlas:
    def test_degenerate_bound(self, capsys):
        code, out, _ = run(capsys, "atlas", "--space", "s3", "--bound", "0")
        assert code == 0
        assert len(out["classes"]) == 3

    def test_byte_stable_output(self, capsys):
        _, _, _ = run(capsys, "atlas", "--space", "rp3", "--bound", "1")
        first = capsys.readouterr()
        main(["atlas", "--space", "rp3", "--bound", "1"])
        a = capsys.readouterr().out
        main(["atlas", "--space", "rp3", "--bound", "1"])
        b = capsys.readouterr().out
        assert a == b


class TestVerify:
    def test_lift_injectivity_default_bound(self, capsys):
        code, out, err = run(capsys, "verify", "lift-injectivity")
        assert code == 0
        assert out["bound"] == 20 and out["violations"] == []
        assert "elapsed" in err

    def test_confluence(self, capsys):
        code, out, _ = run(capsys, "verify", "confluence",
                           "--space", "rp3", "--bound", "6")
        assert code == 0 and out["violations"] == []

    def test_relation_lift(self, capsys):
        code, out, _ = run(capsys, "verify", "relation-lift", "--bound", "8")
        assert code == 0 and out["violations"] == []

    def test_report_json_has_no_timing(self, capsys):
        _, out, _ = run(capsys, "verify", "confluence", "--bound", "3")
        assert "elapsed" not in out and "elapsed_ms" not in out

    @pytest.mark.parametrize("kind, checked", [("lift-injectivity", 351),
                                               ("confluence", 351), ("relation-lift", 57)])
    def test_summary_line_on_stderr(self, capsys, kind, checked):
        code, out, err = run(capsys, "verify", kind, "--bound", "1")
        assert code == 0 and out["checked_pairs"] == checked
        assert re.fullmatch(rf"{kind}: bound=1 checked={checked} violations=0 "
                            r"elapsed=\d+ms\n", err)


class TestJsj:
    def write(self, tmp_path, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_outermost(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "vertices": [{"id": "a", "geometry": "seifert"},
                         {"id": "b", "geometry": "hyperbolic"}],
            "edges": [{"u": "a", "v": "b", "label_beyond_u": "st",
                       "label_beyond_v": "other"}],
        })
        code, out, _ = run(capsys, "jsj", "outermost", path)
        assert code == 0
        assert out == {"potential": {"a": 0, "b": 1}, "outermost": ["a"]}

    def test_forbidden_pair_fails_validation(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "vertices": [{"id": "a", "geometry": "seifert"},
                         {"id": "b", "geometry": "seifert"}],
            "edges": [{"u": "a", "v": "b", "label_beyond_u": "st",
                       "label_beyond_v": "khb"}],
        })
        code, out, err = run(capsys, "jsj", "outermost", path)
        assert code == 1
        assert out["status"] == "ERROR"
        assert out["violations"][0]["code"] == "FORBIDDEN_LABEL_PAIR"
        assert "FORBIDDEN_LABEL_PAIR" in err

    def test_cover_check(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "vertices": [{"id": "a", "geometry": "seifert"},
                         {"id": "b1", "geometry": "hyperbolic"},
                         {"id": "b2", "geometry": "hyperbolic"}],
            "edges": [
                {"u": "a", "v": "b1", "label_beyond_u": "khb",
                 "label_beyond_v": "other"},
                {"u": "a", "v": "b2", "label_beyond_u": "khb",
                 "label_beyond_v": "other"},
            ],
            "involution": {"vertex_map": {"a": "a", "b1": "b2", "b2": "b1"}},
        })
        code, out, _ = run(capsys, "jsj", "cover-check", path)
        assert code == 0
        assert out["mismatches"] == 0
        assert all(v["agree"] for v in out["vertices"])

    def test_cover_check_mismatch_is_exit_1(self, capsys, tmp_path):
        # The path v1-v0-v2 with two Heegaard edges and v1, v2 swapped: the
        # orbit {v1, v2} is outermost downstairs, but its preimage is two
        # vertices.  The document is the one printed before a mismatch
        # changed the exit code.
        path = self.write(tmp_path, {
            "vertices": [{"id": "v0", "geometry": "seifert"},
                         {"id": "v1", "geometry": "hyperbolic"},
                         {"id": "v2", "geometry": "hyperbolic"}],
            "edges": [{"u": u, "v": v, "label_beyond_u": "st", "label_beyond_v": "st"}
                      for u, v in (("v1", "v0"), ("v0", "v2"))],
            "involution": {"vertex_map": {"v0": "v0", "v1": "v2", "v2": "v1"}},
        })
        code = main(["jsj", "cover-check", path])
        assert code == 1
        assert capsys.readouterr().out == (
            '{\n  "mismatches": 1,\n  "vertices": [\n'
            '    {\n      "agree": true,\n      "criterion": true,\n      "id": "v0",\n'
            '      "orbit": [\n        "v0"\n      ],\n      "outermost": true\n    },\n'
            '    {\n      "agree": false,\n      "criterion": false,\n      "id": "v1",\n'
            '      "orbit": [\n        "v1",\n        "v2"\n      ],\n'
            '      "outermost": true\n    }\n  ]\n}\n')

    @pytest.mark.parametrize("subcommand, payload", [
        ("outermost", []),
        ("cover-check", []),
        ("outermost", {"vertices": [1]}),
        ("cover-check", {"vertices": [1]}),
        ("cover-check", {"vertices": [{"id": "a", "geometry": "seifert"}],
                         "edges": [],
                         "involution": {"vertex_map": {"a": ["a"]}}}),
        ("outermost", {"vertices": [{"id": "a", "geometry": "seifert"},
                                    {"id": "b", "geometry": "seifert"}],
                       "edges": [{"u": "a", "v": ["b"], "label_beyond_u": "st",
                                  "label_beyond_v": "other"}]}),
        ("cover-check", {"vertices": [{"id": "a", "geometry": "seifert"},
                                      {"id": "b", "geometry": "seifert"}],
                         "edges": [{"u": ["a"], "v": "b", "label_beyond_u": "st",
                                    "label_beyond_v": "other"}],
                         "involution": {"vertex_map": {"a": "a", "b": "b"}}}),
    ])
    def test_invalid_input_is_a_structured_error(self, capsys, tmp_path,
                                                 subcommand, payload):
        code, out, err = run(capsys, "jsj", subcommand,
                             self.write(tmp_path, payload))
        assert code == 1
        assert out["status"] == "ERROR"
        assert out["violations"][0]["code"] == "INVALID_INPUT"
        assert "INVALID_INPUT" in err and "Traceback" not in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "jsj", "outermost",
                             str(tmp_path / "absent.json"))
        assert code == 2 and out is None
        assert err.startswith("projlink: INVALID_INPUT: cannot read ")

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "jsj", "outermost", str(path))
        assert code == 2 and out is None
        assert err.startswith("projlink: INVALID_INPUT: cannot read ")

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200_000],
                             ids=["not-utf8", "too-deep"])
    def test_undecodable_file_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "jsj", "cover-check", str(path))
        assert code == 2 and out is None
        assert err.startswith("projlink: INVALID_INPUT: cannot read ")


_KEYS = st.sampled_from(["vertices", "edges", "involution", "vertex_map", "id",
                         "geometry", "u", "v", "label_beyond_u",
                         "label_beyond_v", "a", "b"]) | st.text(max_size=3)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4)
            | st.sampled_from(["a", "b", "c", "st", "khb", "other", "seifert",
                               "hyperbolic"]))
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_KEYS, children, max_size=5),
    max_leaves=20)
_IDS = st.sampled_from(["a", "b", "c"]) | _JSON
_LABELS = st.sampled_from(["st", "khb", "other"]) | _JSON
# Tree- and cover-shaped documents, so that fuzzing reaches the potential,
# the outermost set and the cover check, not only the parser.
_TREES = st.fixed_dictionaries(
    {"vertices": st.lists(st.fixed_dictionaries({
        "id": _IDS, "geometry": st.sampled_from(["seifert", "hyperbolic"]) | _JSON}),
        max_size=4),
     "edges": st.lists(st.fixed_dictionaries({
         "u": _IDS, "v": _IDS, "label_beyond_u": _LABELS, "label_beyond_v": _LABELS}),
         max_size=4)},
    optional={"involution": st.fixed_dictionaries(
        {"vertex_map": st.dictionaries(st.sampled_from(["a", "b", "c"]), _IDS,
                                       max_size=3)}) | _JSON})


@settings(max_examples=300, deadline=None)
@given(payload=_JSON | _TREES,
       subcommand=st.sampled_from(["outermost", "cover-check"]))
def test_jsj_fuzz_gives_one_document_and_no_traceback(payload, subcommand):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["jsj", subcommand, path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue())  # raises on a second document


# Integer-like and other arguments for canon, isotopic and lift: huge (up to
# and past the 4300 digits int() reads), negative, n outside {0, 1, 2}, and
# values that are not integers.  Strings that begin with "-" come only from
# the numbers, "-0" and "--", so argparse never sees a help flag.
_HUGE = st.integers(4290, 4310).flatmap(
    lambda digits: st.sampled_from(["9" * digits, "-" + "9" * digits]))
_ARGS = (st.integers(-3, 5).map(str)
         | st.integers().map(str)
         | st.integers(-10**40, 10**40).map(str)
         | _HUGE
         | st.sampled_from(["", " ", "1.5", "-0", "+3", " 7", "1e3", "0x10",
                            "nan", "1_000", "--"])
         | st.text(max_size=5).filter(lambda a: not a.startswith("-")))
_COMMANDS = st.sampled_from([
    ["canon", "--space", "s3"], ["canon", "--space", "rp3"],
    ["isotopic", "--space", "s3"], ["isotopic", "--space", "rp3"], ["lift"]])


@st.composite
def _integer_argv(draw):
    command = draw(_COMMANDS)
    arity = 6 if command[0] == "isotopic" else 3
    count = draw(st.sampled_from([arity, arity, arity, arity - 1, arity + 1]))
    return command + draw(st.lists(_ARGS, min_size=count, max_size=count))


@settings(max_examples=300, deadline=None)
@given(argv=_integer_argv())
def test_integer_argument_fuzz_gives_one_document_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue())  # raises on a second document


def test_cli_does_not_import_atlas_or_jsj():
    src = os.path.dirname(os.path.dirname(projlink.__file__))
    script = ("import sys, projlink.cli\n"
              "print('projlink.atlas' in sys.modules, 'projlink.jsj' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.split() == ["False", "False"]


def _audit_commands() -> list[list[str]]:
    """atlas-audit's commands, read from AUDIT_COMMANDS in perfbench/run.py."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["AUDIT_COMMANDS"])
    return [list(argv) for _, argv, _ in ast.literal_eval(table)]


AUDIT_COMMANDS = _audit_commands()


def test_valid_commands_import_neither_argparse_nor_gettext(tmp_path):
    # argparse imports gettext, whose first translated string imports locale.
    # A valid command in a documented spelling is read without them; --help
    # still goes through argparse.
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(JSJ_FILES["tree"]))
    commands = AUDIT_COMMANDS + [["canon", "--space", "s3", "2", "3", "0"],
                                 ["isotopic", "--space", "rp3", "4", "0", "0", "2", "0", "2"],
                                 ["lift", "2", "1", "1"], ["jsj", "outermost", str(tree)]]
    script = (
        "import contextlib, io, json, sys\n"
        "from projlink.cli import main\n"
        "def loaded():\n"
        "    return [name for name in ('argparse', 'gettext') if name in sys.modules]\n"
        "seen = [loaded()]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {commands!r}]\n"
        "    seen.append(loaded())\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit:\n"
        "        seen.append(loaded())\n"
        "print(json.dumps([codes, seen]))\n")
    src = os.path.dirname(os.path.dirname(projlink.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    codes, seen = json.loads(proc.stdout)
    assert codes == [0] * len(commands)
    assert seen == [[], [], ["argparse", "gettext"]]


def _cap_address_space():
    # 1 GiB: ample for the interpreter, while the confluence closure at bound
    # 100000 needs terabytes, so its allocation fails at once.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# At 2^62 the universe has more triples than the interpreter can index, so
# each command fails before it allocates anything.
HUGE = str(1 << 62)


@pytest.mark.parametrize("command, bound", [
    (["verify", "confluence"], "100000"),
    (["atlas", "--space", "s3"], HUGE),
    (["verify", "confluence"], HUGE),
    (["verify", "lift-injectivity"], HUGE),
    (["verify", "relation-lift"], HUGE),
], ids=["confluence-1e5", "atlas-2^62", "confluence-2^62", "lift-injectivity-2^62",
        "relation-lift-2^62"])
def test_out_of_memory_is_exit_2_with_one_line_and_no_traceback(command, bound):
    src = os.path.dirname(os.path.dirname(projlink.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "projlink.cli", *command, "--bound", bound],
        capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "projlink: OUT_OF_MEMORY: not enough memory for this command"]


ATLAS_25 = ["atlas", "--space", "s3", "--bound", "25"]
# Buffered, an unwritable stdout fails at main's flush and would fail again
# at the interpreter's flush at exit; unbuffered, it fails at a write.
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True],
                                    ids=["buffered", "unbuffered"])


def _process_env(unbuffered: bool) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(projlink.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@BUFFERING
def test_closed_stdout_is_exit_2_with_one_line_and_no_traceback(unbuffered):
    # The reader takes the start of the document and goes away, as
    # `projlink atlas ... | head -c 100` does.
    proc = subprocess.Popen([sys.executable, "-m", "projlink.cli", *ATLAS_25],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_process_env(unbuffered))
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        proc.wait(timeout=120)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert len(head) == 100 and head.startswith(b'{\n  "bound": 25,\n')
    assert proc.returncode == 2
    assert "Traceback" not in err
    assert err.splitlines() == ["projlink: OUTPUT_ERROR: cannot write stdout: Broken pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@BUFFERING
@pytest.mark.parametrize("argv", [ATLAS_25, ["canon", "--space", "rp3", "2", "1", "1"],
                                  ["--help"]],
                         ids=["atlas", "canon", "help"])
def test_full_stdout_is_exit_2_with_one_line_and_no_traceback(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "projlink.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=120, env=_process_env(unbuffered))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "projlink: OUTPUT_ERROR: cannot write stdout: No space left on device"]


@pytest.mark.parametrize("argv", [["atlas", "--space", "s3", "--bound", "2"],
                                  ["canon", "--space", "s3", "2", "3", "0"], ["--help"]],
                         ids=["atlas", "canon", "help"])
def test_no_stdout_is_exit_2_with_one_line_and_no_traceback(argv):
    # As `projlink canon ... 1>&-` starts it: the interpreter sets sys.stdout to None.
    for unbuffered in (False, True):
        proc = subprocess.run([sys.executable, "-m", "projlink.cli", *argv],
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              preexec_fn=lambda: os.close(1), env=_process_env(unbuffered))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "projlink: OUTPUT_ERROR: cannot write stdout: stdout is closed"]


FORBIDDEN_TREE = {"vertices": [{"id": "a", "geometry": "seifert"},
                               {"id": "b", "geometry": "seifert"}],
                  "edges": [{"u": "a", "v": "b", "label_beyond_u": "st",
                             "label_beyond_v": "khb"}]}


@BUFFERING
@pytest.mark.parametrize("stderr", ["closed", "full"])
@pytest.mark.parametrize("argv, code", [
    (["verify", "confluence", "--bound", "1"], 0),
    (["canon", "--space", "s3", "1", "2", "7"], 2),
    (["jsj", "outermost", "{tree}"], 1),
    (["verify", "nonsense"], 2),
], ids=["verify", "canon-invalid-n", "jsj-invalid-tree", "verify-usage-error"])
def test_unusable_stderr_loses_only_the_diagnostics(argv, code, stderr, unbuffered, tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(FORBIDDEN_TREE))
    command = [sys.executable, "-m", "projlink.cli", *(a.format(tree=tree) for a in argv)]
    env = _process_env(unbuffered)
    usual = subprocess.run(command, capture_output=True, timeout=120, env=env)
    if stderr == "closed":
        # As `projlink ... 2>&-` starts it: the interpreter sets sys.stderr to None.
        proc = subprocess.run(command, stdout=subprocess.PIPE, timeout=120, env=env,
                              preexec_fn=lambda: os.close(2))
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        with open("/dev/full", "wb") as full:  # every write to stderr fails
            proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=full,
                                  timeout=120, env=env)
    assert usual.stderr and b"Traceback" not in usual.stderr
    assert usual.returncode == proc.returncode == code
    assert proc.stdout == usual.stdout
    if code == 2:
        assert proc.stdout == b""
    else:
        json.loads(proc.stdout)  # one document, and only that


# SHA-256 of the stdout, stderr and exit code of usual runs whose output
# argparse formats: help, usage errors and the CLI's own parser.error.  That
# text changes between Python versions and with the terminal width, so each
# version has its own digests, taken with COLUMNS=80.
USAGE_DIGESTS = {
    (3, 11): {
        "--help": "e79f39b876e9a83050898f7ca735aebed33c929136eca92591133778e3621360",
        "canon --help": "3b0662bbcc6ed4743f4b0282dcb59135e61ed02c4fdcb528043ec9b9e142b834",
        "verify --help": "6287b1df47642b93fb3224a91702c3c26f7e232dca94a4e19419a9cd7ab8a624",
        "verify nonsense": "cde081b8ee494a6da122ca4e33aae13e8ceb0811f2ccd36d86c532fa82eea5cb",
        "": "3901a971b001f31fb692e9ac7d22c530607ced3f2cc649bde08d5731fcc5896b",
        "verify relation-lift --space rp3 --bound 1":
            "56ad6bd086dc585301a8e94de032859ed630742a87203430d19fea49a995db69",
    },
}


@pytest.mark.skipif(sys.version_info[:2] not in USAGE_DIGESTS,
                    reason="no usage digests recorded for this Python version")
@pytest.mark.parametrize("command", list(USAGE_DIGESTS[3, 11]),
                         ids=lambda command: command or "no-arguments")
def test_usage_and_help_bytes_are_unchanged(command):
    for unbuffered in (False, True):
        proc = subprocess.run([sys.executable, "-m", "projlink.cli", *command.split()],
                              capture_output=True, timeout=120,
                              env=dict(_process_env(unbuffered), COLUMNS="80"))
        got = hashlib.sha256(b"\0".join([proc.stdout, proc.stderr, b"%d" % proc.returncode]))
        assert got.hexdigest() == USAGE_DIGESTS[sys.version_info[:2]][command]


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_verifier(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2


class TestFlags:
    def test_space_choices_print_their_values(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["canon", "--space", "s4", "1", "1", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "{s3,rp3}" in err and "'s3', 'rp3'" in err
        assert "AmbientSpace" not in err

    @pytest.mark.parametrize("kind", ["lift-injectivity", "relation-lift"])
    def test_space_is_rejected_where_it_does_not_apply(self, capsys, kind):
        with pytest.raises(SystemExit) as exc:
            main(["verify", kind, "--space", "rp3", "--bound", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--space" in captured.err

    def test_confluence_space_defaults_to_s3(self, capsys):
        assert main(["verify", "confluence", "--bound", "2"]) == 0
        default = capsys.readouterr().out
        assert main(["verify", "confluence", "--space", "s3", "--bound", "2"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("flag", ["--seed", "--jobs"])
    def test_unused_global_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag, "1", "canon", "--space", "s3", "1", "1", "0"])
        assert exc.value.code == 2


# One row per row of README's exit-code table: (command, exit code, stderr
# code, argv).  "{name}" in an argv is the path of JSJ_FILES[name], written
# first; "{absent}" names no file.  The rows for a stdout that is closed or
# cannot be written name the subprocess tests that check them instead, since
# main cannot run in-process without a stdout.
JSJ_FILES = {
    "tree": {"vertices": [{"id": "a", "geometry": "seifert"},
                          {"id": "b", "geometry": "hyperbolic"}],
             "edges": [{"u": "a", "v": "b", "label_beyond_u": "st", "label_beyond_v": "other"}]},
    # The v1-v0-v2 cover of test_cover_check_mismatch_is_exit_1.
    "mismatch": {"vertices": [{"id": v, "geometry": "seifert"} for v in ("v0", "v1", "v2")],
                 "edges": [{"u": u, "v": v, "label_beyond_u": "st", "label_beyond_v": "st"}
                           for u, v in (("v1", "v0"), ("v0", "v2"))],
                 "involution": {"vertex_map": {"v0": "v0", "v1": "v2", "v2": "v1"}}},
    "forbidden": FORBIDDEN_TREE,
}
NINES = "9" * 4300  # the most digits int() reads by default
# An Arabic-Indic 3, a sign with digit underscores, and a padded 0: `lift 3 1000 0`.
INT_SPELLINGS = ["lift", "\u0663", "+1_000", " 0"]
EXIT_CODE_ROWS = [
    ("canon", 0, "—", ["canon", "--space", "s3", "2", "2", "0"]),
    ("canon", 2, "INVALID_N", ["canon", "--space", "s3", "1", "1", "3"]),
    ("isotopic", 0, "—", ["isotopic", "--space", "s3", "2", "3", "0", "2", "5", "0"]),
    ("isotopic", 2, "INVALID_N", ["isotopic", "--space", "rp3", "1", "1", "0", "1", "1", "3"]),
    ("lift", 0, "—", ["lift", "2", "1", "1"]),
    ("lift", 2, "INVALID_N", ["lift", "2", "1", "5"]),
    ("lift", 2, "CALCULUS_ERROR", ["lift", "-" + NINES, NINES, "0"]),
    ("atlas", 0, "—", ["atlas", "--space", "rp3", "--bound", "1"]),
    ("atlas", 2, "CALCULUS_ERROR", ["atlas", "--space", "s3", "--bound", "-2"]),
    ("atlas", 2, "OUT_OF_MEMORY", ["atlas", "--space", "s3", "--bound", HUGE]),
    ("verify", 0, "—", ["verify", "relation-lift", "--bound", "2"]),
    ("verify", 1, "—", ["verify", "confluence", "--bound", "1"]),
    ("verify", 2, "CALCULUS_ERROR", ["verify", "lift-injectivity", "--bound", "-1"]),
    ("verify", 2, "OUT_OF_MEMORY", ["verify", "confluence", "--bound", HUGE]),
    ("verify", 2, "usage", ["verify", "relation-lift", "--space", "rp3", "--bound", "1"]),
    ("jsj", 0, "—", ["jsj", "outermost", "{tree}"]),
    ("jsj", 1, "—", ["jsj", "cover-check", "{mismatch}"]),
    ("jsj", 1, "violations", ["jsj", "outermost", "{forbidden}"]),
    ("jsj", 2, "INVALID_INPUT", ["jsj", "outermost", "{absent}"]),
    ("any", 0, "—", ["--help"]),
    ("any", 0, "—", INT_SPELLINGS),
    ("any", 2, "usage", ["canon", "--space", "s3", "1.5", "1", "0"]),
    ("any", 2, "OUTPUT_ERROR", [test_no_stdout_is_exit_2_with_one_line_and_no_traceback]),
    ("any", 2, "OUTPUT_ERROR", [test_closed_stdout_is_exit_2_with_one_line_and_no_traceback,
                                test_full_stdout_is_exit_2_with_one_line_and_no_traceback]),
]


def test_exit_code_rows_are_readmes():
    readme = [(command.strip("`"), int(code), stderr.strip("`"))
              for command, code, stderr, _ in readme_table("Exit codes")]
    assert [row[:3] for row in EXIT_CODE_ROWS] == readme


def _row_id(row) -> str:
    command, code, stderr, argv = row
    name = f"{command}-{code}-{'none' if stderr == '—' else stderr}"
    if callable(argv[0]):  # test_no_stdout_... gives "-no-stdout"
        name += "-" + argv[0].__name__.removeprefix("test_").split("_stdout")[0] + "-stdout"
    elif argv is INT_SPELLINGS:
        name += "-int-spellings"
    return name


@pytest.mark.parametrize("command, code, stderr, argv", EXIT_CODE_ROWS,
                         ids=[_row_id(row) for row in EXIT_CODE_ROWS])
def test_exit_code_table_row(command, code, stderr, argv, capsys, monkeypatch, tmp_path):
    if callable(argv[0]):  # the row is a subprocess test's
        assert all(globals()[test.__name__] is test for test in argv)
        return
    if (command, code) == ("verify", 1):
        # The real calculus has no violation: make each triple its own normal form.
        monkeypatch.setattr(atlas, "canonical", lambda space, p, q, n, moves=None: (p, q, n))
    files = {"absent": tmp_path / "absent.json"}
    for name, document in JSJ_FILES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(document))
    try:
        got = main([arg.format(**files) for arg in argv])
    except SystemExit as exc:  # argparse ends --help and usage errors so
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    if code == 2:
        assert out == ""
    elif argv == ["--help"]:
        assert out.startswith("usage: projlink")
    else:
        document = json.loads(out)
    coded = re.findall(r"^projlink: ([A-Z_]+):", err, re.MULTILINE)
    if stderr == "violations":
        assert document["status"] == "ERROR"
        assert coded == [v["code"] for v in document["violations"]] != []
    elif stderr == "usage":
        assert err.startswith("usage: projlink") and coded == []
    else:
        assert coded == ([] if stderr == "—" else [stderr])
    assert "Traceback" not in err


def test_an_integer_is_read_in_every_spelling_int_accepts(capsys):
    assert main(INT_SPELLINGS) == 0
    spelled = capsys.readouterr().out
    assert main(["lift", "3", "1000", "0"]) == 0
    assert capsys.readouterr().out == spelled


# The reader against argparse.  Each argv is one of the exit-code rows, a
# README example, an atlas-audit command, or a command and tokens of the mix,
# then edited at up to two places with tokens of the mix.  Wherever the
# reader returns values, argparse must parse the argv to the same values.
MIX = ["canon", "isotopic", "lift", "atlas", "verify", "jsj", "lift-injectivity",
       "confluence", "relation-lift", "outermost", "cover-check",
       "--space", "--bound", "--sp", "--bound=3", "-h", "--help", "--", "-",
       "-0", "-5", "-5 ", "-1.5", "+3", "1_000", "\u0663", "-\u0663", "",
       "s3", "rp3", "s4", "0", "1", "2", "3", NINES, "-" + NINES, NINES + "9"]
FILES = {name: f"{name}.json" for name in [*JSJ_FILES, "absent"]}
README_EXAMPLES = [line.split("#")[0].split()[1:]
                   for line in README.split("## CLI\n")[1].split("```")[1].splitlines()
                   if line.startswith("projlink ")]
DOCUMENTED = ([[arg.format(**FILES) for arg in argv]
               for *_, argv in EXIT_CODE_ROWS if not callable(argv[0])]
              + README_EXAMPLES + AUDIT_COMMANDS)
# Half the drawn tokens start with "-", where argparse's reading of a token is subtle.
TOKENS = st.sampled_from([token for token in MIX if token[:1] == "-"]) | st.sampled_from(MIX)
PARSER = _build_parser()


@st.composite
def _argvs(draw):
    if draw(st.booleans()):
        argv = list(draw(st.sampled_from(DOCUMENTED)))
    else:
        argv = [draw(st.sampled_from(MIX[:6]))] + draw(st.lists(TOKENS, max_size=7))
    for _ in range(draw(st.integers(0, 2))):  # insert, replace or delete a token
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = draw(st.lists(TOKENS, max_size=1))
    return argv


def _argparse_values(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:  # help or a usage error
            return None


@settings(max_examples=600, deadline=None)
@given(argv=_argvs())
# A dash token the reader must not take as a value, a value outside choices,
# and a token left over.
@example(argv=["jsj", "outermost", "-h"])
@example(argv=["canon", "--space", "s4", "1", "1", "0"])
@example(argv=["lift", "2", "1", "1", "0"])
def test_reader_returns_argparse_values_or_none(argv):
    got = _read(argv)
    if got is not None:
        assert got == _argparse_values(argv)


# Every command spelled with its arguments in the order the CLI declares
# them, optional options present or absent: integers of any sign, each
# choice, and jsj paths that do not start with "-".
_INTEGERS = st.integers(-10**40, 10**40).map(str)
_SPACE_OPTION = st.sampled_from([["--space", "s3"], ["--space", "rp3"]])
_BOUND_OPTION = _INTEGERS.map(lambda bound: ["--bound", bound])
_DECLARED_ORDER = st.one_of(
    st.tuples(st.just(["canon"]), _SPACE_OPTION, st.lists(_INTEGERS, min_size=3, max_size=3)),
    st.tuples(st.just(["isotopic"]), _SPACE_OPTION,
              st.lists(_INTEGERS, min_size=6, max_size=6)),
    st.tuples(st.just(["lift"]), st.lists(_INTEGERS, min_size=3, max_size=3)),
    st.tuples(st.just(["atlas"]), _SPACE_OPTION, _BOUND_OPTION),
    st.tuples(st.just(["verify"]),
              st.sampled_from([["confluence"], ["lift-injectivity"], ["relation-lift"]]),
              st.just([]) | _SPACE_OPTION, st.just([]) | _BOUND_OPTION),
    st.tuples(st.just(["jsj"]), st.sampled_from([["outermost"], ["cover-check"]]),
              st.text(max_size=8).filter(lambda path: path[:1] != "-").map(lambda path: [path])),
).map(lambda parts: [token for part in parts for token in part])


@settings(max_examples=300, deadline=None)
@given(argv=_DECLARED_ORDER)
def test_every_argv_in_declared_order_is_read_with_argparses_values(argv):
    got = _read(argv)
    assert got is not None and got == _argparse_values(argv)


def test_documented_spellings_are_read_without_argparse():
    for argv in README_EXAMPLES + AUDIT_COMMANDS:
        got = _read(argv)
        assert got is not None and got == _argparse_values(argv), argv
