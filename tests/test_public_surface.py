"""The public surface of every module, listed name by name.

A public name is a function or class a module defines without a leading
underscore, and a public method or property of such a class.  A name that
only tests would call is not added; tests reach the code the CLI runs
instead.  `verify_chain` is kept although only tests call it: it is the
trusted replay of the witness chains the CLI prints, the one every chain
test checks against.  The CLI reads no triple or chain from JSON, so no
wire reader is kept; a command that reads one adds its reader with it.
No module of the package holds an `assert` statement either, and the CLI
writes to stderr only through its one diagnostic helper and calls no print.
"""

import ast
import inspect
import pathlib

import projlink
from projlink import atlas, cli, generators, jsj, links
from projlink.atlas import Atlas
from projlink.jsj import JsjTree

SURFACE = {
    links: {
        "AmbientSpace", "CalculusError", "Classification", "ClassificationKind",
        "Direction", "InvalidInput", "InvalidN", "Relation",
        "RelationStep", "SpaceMismatch", "TorusLink", "WrongSpace",
        "canonical", "chain_to_list", "classify", "component_count",
        "isotopic", "lift", "link_to_dict", "make_link", "normal_form",
        "verify_chain",
    },
    atlas: {
        "Atlas", "Atlas.to_dict", "Atlas.write_json",
        "VerificationReport", "VerificationReport.ok", "VerificationReport.to_dict",
        "confluence_audit", "enumerate_classes", "relation_lift_compatibility",
        "verify_lift_injectivity",
    },
    jsj: {
        "CoverCheckEntry", "CoverSpec", "Geometry", "JsjTree", "JsjTree.adjacency",
        "RegionLabel", "TreeEdge", "TreeValidationError", "cover_from_dict",
        "cover_to_dict", "lemma44_check", "outermost", "potential", "quotient",
        "tree_to_dict", "validate_tree",
    },
    generators: {"random_cover_spec", "random_jsj_tree"},
    cli: {"main"},
}


def public_names(module) -> set[str]:
    names = set()
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            names.add(attr)
        elif inspect.isclass(obj):
            names.add(attr)
            names |= {f"{attr}.{name}" for name, member in vars(obj).items()
                      if not name.startswith("_")
                      and (inspect.isfunction(member) or isinstance(member, property))}
    return names


def test_public_surface_is_exactly_the_listed_names():
    for module, names in SURFACE.items():
        assert public_names(module) == names, module.__name__
    # perfbench/tracer.py replaces these two methods through vars(cls)[name],
    # so every traced benchmark run needs them on the classes themselves.
    assert "to_dict" in vars(Atlas)
    assert "adjacency" in vars(JsjTree)


def test_no_module_asserts():
    # python -O strips assert statements, so no invariant may rest on one.
    for path in sorted(pathlib.Path(projlink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], path.name


def test_cli_writes_stderr_only_through_its_diagnostic_helper():
    # A bare print(..., file=sys.stderr) writes to stdout when fd 2 is closed
    # and raises when stderr is full; `_diagnose` loses the line instead.
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_diagnose")
    inside = {id(node) for node in ast.walk(helper)}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "stderr"
             and id(node) not in inside]
    assert lines == []


def test_cli_never_calls_print():
    # print does nothing on a stdout closed at start (None) and skips
    # _diagnose on stderr; every byte goes through main's writes or _diagnose.
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert lines == []
