"""README.md is the contract: its tables and pointers, checked against the code.

The error-code table must name every code the package emits, and no other.
The codes are collected from three places: the `code` of every
`CalculusError` class, the `projlink: CODE:` literals of `cli.py`, and the
first element of every `("CODE", detail)` tuple in `jsj.py`, read from its
syntax tree.  Every `module.name` and every repository path README names
must exist, so a rename cannot leave README pointing at nothing.  The
exit-code table is checked row by row in `test_cli.py`.
"""

import ast
import importlib
import pathlib
import re

import projlink
from projlink.links import CalculusError

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path(projlink.__file__).resolve().parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_table(heading: str) -> list[list[str]]:
    """The body rows of the table under README's `### heading`, cell by cell."""
    assert f"\n### {heading}\n" in README, f"README has no '### {heading}' section"
    section = README.split(f"\n### {heading}\n", 1)[1].split("\n#", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    # A cell may hold an escaped pipe, `\|`.
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in lines[2:]]


def _calculus_codes() -> set[str]:
    classes, codes = [CalculusError], set()
    while classes:
        cls = classes.pop()
        codes.add(cls.code)
        classes += cls.__subclasses__()
    return codes


def _cli_codes() -> set[str]:
    return set(re.findall(r"projlink: ([A-Z_]+):", (PACKAGE / "cli.py").read_text()))


def _jsj_codes() -> set[str]:
    tree = ast.parse((PACKAGE / "jsj.py").read_text())
    return {node.elts[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Tuple) and len(node.elts) == 2
            and isinstance(node.elts[0], ast.Constant)
            and re.fullmatch(r"[A-Z_]+", str(node.elts[0].value))}


def test_error_code_table_names_every_code_the_package_emits():
    table = {row[0].strip("`") for row in readme_table("Error codes")}
    assert table == _calculus_codes() | _cli_codes() | _jsj_codes()


def _resolves(dotted: str) -> bool:
    module, *names = dotted.removeprefix("projlink.").split(".")
    obj = importlib.import_module(f"projlink.{module}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _defines(path: pathlib.Path, names: list[str]) -> bool:
    """Whether the file defines the class or function path names[0].names[1]..."""
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


# Inline code that names a module of the package, or a name in one.
MODULES = "links|atlas|jsj|generators|cli"
DOTTED = re.compile(rf"`((?:projlink\.)?(?:{MODULES})(?:\.\w+)*)`")
# Inline code that names a file of the repository, maybe with a test in it.
PATH = re.compile(r"`((?:tests|perfbench|src)/[\w/.]+\.(?:py|md))((?:::\w+)*)`")


def test_every_name_readme_points_at_resolves():
    names = DOTTED.findall(README)
    assert names and [name for name in names if not _resolves(name)] == []


def test_every_file_and_test_readme_points_at_exists():
    paths = PATH.findall(README)
    assert paths
    missing = [path + tests for path, tests in paths
               if not (ROOT / path).is_file()
               or tests and not _defines(ROOT / path, tests.split("::")[1:])]
    assert missing == []
