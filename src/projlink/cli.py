"""Command-line interface with stable JSON output.

One JSON document per invocation on stdout (keys sorted, no timing data);
diagnostics, including elapsed times and argparse's usage errors, go to
stderr through `_diagnose`.  Exit codes: 0 for success, a property that holds
or --help, 1 for a refuted property or a validation failure, 2 for usage
errors, for a command that runs out of memory or whose --bound is too large
to index, and for a stdout it cannot write, --help's included.

Every command's arguments are written once, in `_GRAMMAR`.  `_read` parses
argv straight from that table when argv is spelled as documented, and
returns the values argparse would give; it leaves every other spelling to
argparse (its docstring has the rules).  So argparse is imported, and its
parser built from the same table, only for --help, a usage error, a
spelling `_read` declines, and `verify`'s --space error; help text and
usage errors are argparse's own.
"""

from __future__ import annotations

import json
import os
import sys

from .links import (
    AmbientSpace,
    CalculusError,
    chain_to_list,
    classify,
    component_count,
    isotopic,
    lift,
    link_to_dict,
    make_link,
    normal_form,
)

# Default bound of each verification suite.  The atlas and jsj modules are
# imported by the commands that use them, so `canon`, `isotopic` and `lift`
# do not pay for them.
_VERIFIERS = {"lift-injectivity": 20, "confluence": 10, "relation-lift": 30}
# Choices print as the values users type, not as enum members.
_SPACES = [space.value for space in AmbientSpace]


def _diagnose(line: str) -> None:
    """Write a line to stderr; a closed (None) or unwritable stderr loses only it."""
    if sys.stderr is not None:  # None when the process started with fd 2 closed
        try:
            sys.stderr.write(line + "\n")
        except OSError:  # devnull takes what stays buffered, so the exit flush succeeds
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _emit(payload: dict) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2)
    # An integer with more digits than the interpreter converts to text; an
    # input just under that limit can give such a result, e.g. a lift.
    except ValueError as exc:
        raise CalculusError(f"result cannot be printed: {exc}") from exc
    sys.stdout.write(text + "\n")


def _cmd_canon(space: str, p: int, q: int, n: int) -> int:
    link = make_link(AmbientSpace(space), p, q, n)
    nf, chain = normal_form(link)
    verdict = classify(link)
    _emit({
        "input": link_to_dict(link),
        "normal_form": link_to_dict(nf),
        "components": component_count(link),
        "classification": {"kind": verdict.kind.value, "detail": verdict.detail},
        "witness": chain_to_list(chain),
    })
    return 0


def _cmd_isotopic(space: str, triple: list[int]) -> int:
    p1, q1, n1, p2, q2, n2 = triple
    ambient = AmbientSpace(space)
    a = make_link(ambient, p1, q1, n1)
    b = make_link(ambient, p2, q2, n2)
    verdict, chain = isotopic(a, b)
    _emit({
        "isotopic": verdict,
        "witness": chain_to_list(chain) if chain is not None else None,
    })
    return 0


def _cmd_lift(p: int, q: int, n: int) -> int:
    link = make_link(AmbientSpace.RP3, p, q, n)
    _emit({"input": link_to_dict(link), "lift": link_to_dict(lift(link))})
    return 0


def _cmd_atlas(space: str, bound: int) -> int:
    from . import atlas

    if bound < 0:
        raise CalculusError(f"--bound must be >= 0, got {bound}")
    atlas.enumerate_classes(AmbientSpace(space), bound).write_json(sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_verify(kind: str, space: str | None, bound: int | None) -> int:
    if kind != "confluence" and space is not None:
        _build_parser().error(f"verify {kind} runs in RP^3 and takes no --space")
    from . import atlas

    bound = _VERIFIERS[kind] if bound is None else bound
    if bound < 0:
        raise CalculusError(f"--bound must be >= 0, got {bound}")
    if kind == "lift-injectivity":
        report = atlas.verify_lift_injectivity(bound)
    elif kind == "confluence":
        report = atlas.confluence_audit(AmbientSpace(space or "s3"), bound)
    else:
        report = atlas.relation_lift_compatibility(bound)
    _emit(report.to_dict())
    _diagnose(f"{kind}: bound={bound} checked={report.checked_pairs} "
              f"violations={len(report.violations)} elapsed={report.elapsed * 1000:.0f}ms")
    return 0 if report.ok else 1


def _cmd_jsj(subcommand: str, input: str) -> int:
    from . import jsj

    try:
        with open(input, encoding="utf-8") as fh:
            raw = json.load(fh)
    # ValueError covers bytes that are not UTF-8 as well as malformed JSON;
    # nesting deeper than the decoder's recursion limit raises RecursionError.
    except (OSError, ValueError, RecursionError) as exc:
        _diagnose(f"projlink: INVALID_INPUT: cannot read {input}: {exc}")
        return 2
    try:
        if subcommand == "outermost":
            tree = jsj.validate_tree(raw)
            values = jsj.potential(tree)
            outer = sorted(jsj.outermost(tree))
            _emit({"potential": values, "outermost": outer})
        else:
            spec = jsj.cover_from_dict(raw)
            entries = jsj.lemma44_check(spec)
            mismatches = sum(1 for e in entries if not e.agree)
            _emit({
                "vertices": [
                    {
                        "id": e.vertex,
                        "orbit": list(e.orbit),
                        "outermost": e.outermost,
                        "criterion": e.criterion,
                        "agree": e.agree,
                    }
                    for e in entries
                ],
                "mismatches": mismatches,
            })
            if mismatches:  # the comparison is refuted on this cover
                return 1
    except jsj.TreeValidationError as exc:
        _emit({"status": "ERROR",
               "violations": [{"code": c, "detail": d} for c, d in exc.violations]})
        for code, detail in exc.violations:
            _diagnose(f"projlink: {code}: {detail}")
        return 1
    return 0


# The grammar, read by `_read` and `_build_parser`: per command, its help,
# its handler, and its arguments as the add_argument calls that declare them.
# An argument's values reach the handler as keywords named by its dest.
_SPACE = ("--space", {"choices": _SPACES, "required": True})
_TRIPLE = (("p", {"type": int}), ("q", {"type": int}), ("n", {"type": int}))
_GRAMMAR = {
    "canon": ("normal form, components, classification", _cmd_canon, (_SPACE, *_TRIPLE)),
    "isotopic": ("decide isotopy of two triples", _cmd_isotopic,
                 (_SPACE, ("triple", {"type": int, "nargs": 6, "metavar": "N",
                                      "help": "p1 q1 n1 p2 q2 n2"}))),
    "lift": ("preimage in S^3 of an RP^3 triple", _cmd_lift, _TRIPLE),
    "atlas": ("enumerate isotopy classes up to a bound", _cmd_atlas,
              (_SPACE, ("--bound", {"type": int, "required": True}))),
    "verify": ("run a verification suite", _cmd_verify,
               (("kind", {"choices": sorted(_VERIFIERS)}),
                ("--space", {"choices": _SPACES,
                             "help": "space for the confluence audit (default s3); "
                                     "the other suites run in RP^3 and take none"}),
                ("--bound", {"type": int}))),
    "jsj": ("JSJ-tree tooling", _cmd_jsj,
            (("subcommand", {"choices": ["outermost", "cover-check"]}),
             ("input", {"help": "path to a JSON tree or cover file"}))),
}


def _number(token: str) -> bool:
    """Whether a token that starts with "-" goes on in ASCII digits only: a
    value to argparse in every version, not an option."""
    return token[1:].isdigit() and token.isascii()


def _read(argv: list[str]) -> dict | None:
    """The values argparse gives argv, with the command's name; None if unsure.

    Accepts argv only when all of these hold, and then argparse parses it to
    the same values:
    - the command and every option name match `_GRAMMAR` exactly;
    - each option appears once, followed by its value;
    - a token that starts with "-", other than an option name, is ASCII
      "-" and digits, which argparse reads as a value, not an option;
    - the positionals form one contiguous run of the command's arity;
    - each value converts with the argument's type and passes its choices.
    Help, abbreviations, --opt=value, "--" and every error are argparse's.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    options, positionals, split = {}, [], False
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or _number(token):
            if split:
                return None
            positionals.append(token)
            continue
        value = next(tokens, None)
        if value is None or token in options or value[:1] == "-" and not _number(value):
            return None
        options[token] = value
        split = bool(positionals)
    args = {"command": argv[0]}
    for name, spec in _GRAMMAR[argv[0]][2]:
        dest = name.lstrip("-")
        if name[0] != "-":
            count = spec.get("nargs", 1)
            given, positionals = positionals[:count], positionals[count:]
            if len(given) < count:
                return None
        elif name in options:
            given = [options.pop(name)]
        elif spec.get("required"):
            return None
        else:
            args[dest] = None
            continue
        try:
            values = [spec.get("type", str)(token) for token in given]
        except ValueError:
            return None
        if "choices" in spec and not all(value in spec["choices"] for value in values):
            return None
        args[dest] = values if "nargs" in spec else values[0]
    return None if options or positionals else args


def _build_parser():
    """argparse's parser of `_GRAMMAR`, for what `_read` leaves to it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # Help goes to stdout, where main reports a failed write; the rest,
        # usage errors, goes through _diagnose.  Subparsers take this class.
        def print_help(self, file=None):
            sys.stdout.write(self.format_help())
            sys.stdout.flush()  # main's flush is skipped by the SystemExit that follows

        def _print_message(self, message, file=None):
            _diagnose(message.removesuffix("\n"))

    parser = Parser(
        prog="projlink",
        description="Torus-link calculus on S^3 and RP^3, with atlas "
                    "verification and JSJ-tree tooling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, arguments) in _GRAMMAR.items():
        p = sub.add_parser(command, help=text)
        for name, spec in arguments:
            p.add_argument(name, **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Started with fd 1 closed, the interpreter sets sys.stdout to None.
    if sys.stdout is None:
        _diagnose("projlink: OUTPUT_ERROR: cannot write stdout: stdout is closed")
        return 2
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv)
        if args is None:  # a usage error or --help ends in SystemExit
            args = vars(_build_parser().parse_args(argv))
        code = _GRAMMAR[args.pop("command")][1](**args)
        sys.stdout.flush()
        return code
    except CalculusError as exc:
        _diagnose(f"projlink: {exc.code}: {exc}")
        return 2
    # Such as the closure of `verify confluence` at a huge --bound, or a
    # universe with more triples than the interpreter can index (OverflowError,
    # from --bound 2^62); every command prints only after its work is done.
    except (MemoryError, OverflowError):
        _diagnose("projlink: OUT_OF_MEMORY: not enough memory for this command")
        return 2
    # Stdout is a closed pipe or full; devnull takes the rest, so exit is quiet.
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _diagnose(f"projlink: OUTPUT_ERROR: cannot write stdout: {exc.strerror}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
