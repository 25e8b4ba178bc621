"""Command-line interface with stable JSON output.

One JSON document per invocation on stdout (keys sorted, no timing data);
diagnostics, including elapsed times and argparse's usage errors, go to
stderr through `_diagnose`.  Exit codes: 0 for success, a property that holds
or --help, 1 for a refuted property or a validation failure, 2 for usage
errors, for a command that runs out of memory or whose --bound is too large
to index, and for a stdout it cannot write, --help's included.
"""

from __future__ import annotations

import argparse
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


class _Parser(argparse.ArgumentParser):
    # Help goes to stdout, where main reports a failed write; the rest, usage
    # errors, goes through _diagnose.  Subparsers are built with this class.
    def print_help(self, file=None):
        sys.stdout.write(self.format_help())
        sys.stdout.flush()  # main's flush is skipped by the SystemExit that follows

    def _print_message(self, message, file=None):
        _diagnose(message.removesuffix("\n"))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="projlink",
        description="Torus-link calculus on S^3 and RP^3, with atlas "
                    "verification and JSJ-tree tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="normal form, components, classification")
    p.set_defaults(run=_cmd_canon)
    p.add_argument("--space", choices=_SPACES, required=True)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("isotopic", help="decide isotopy of two triples")
    p.set_defaults(run=_cmd_isotopic)
    p.add_argument("--space", choices=_SPACES, required=True)
    p.add_argument("triple", type=int, nargs=6, metavar="N",
                   help="p1 q1 n1 p2 q2 n2")

    p = sub.add_parser("lift", help="preimage in S^3 of an RP^3 triple")
    p.set_defaults(run=_cmd_lift)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("atlas", help="enumerate isotopy classes up to a bound")
    p.set_defaults(run=_cmd_atlas)
    p.add_argument("--space", choices=_SPACES, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("kind", choices=sorted(_VERIFIERS))
    p.add_argument("--space", choices=_SPACES,
                   help="space for the confluence audit (default s3); "
                        "the other suites run in RP^3 and take none")
    p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("jsj", help="JSJ-tree tooling")
    p.set_defaults(run=_cmd_jsj)
    p.add_argument("subcommand", choices=["outermost", "cover-check"])
    p.add_argument("input", help="path to a JSON tree or cover file")

    return parser


def _cmd_canon(args) -> int:
    link = make_link(AmbientSpace(args.space), args.p, args.q, args.n)
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


def _cmd_isotopic(args) -> int:
    p1, q1, n1, p2, q2, n2 = args.triple
    space = AmbientSpace(args.space)
    a = make_link(space, p1, q1, n1)
    b = make_link(space, p2, q2, n2)
    verdict, chain = isotopic(a, b)
    _emit({
        "isotopic": verdict,
        "witness": chain_to_list(chain) if chain is not None else None,
    })
    return 0


def _cmd_lift(args) -> int:
    link = make_link(AmbientSpace.RP3, args.p, args.q, args.n)
    _emit({"input": link_to_dict(link), "lift": link_to_dict(lift(link))})
    return 0


def _cmd_atlas(args) -> int:
    from . import atlas

    if args.bound < 0:
        raise CalculusError(f"--bound must be >= 0, got {args.bound}")
    atlas.enumerate_classes(AmbientSpace(args.space), args.bound).write_json(sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_verify(args) -> int:
    from . import atlas

    bound = _VERIFIERS[args.kind] if args.bound is None else args.bound
    if bound < 0:
        raise CalculusError(f"--bound must be >= 0, got {bound}")
    if args.kind == "lift-injectivity":
        report = atlas.verify_lift_injectivity(bound)
    elif args.kind == "confluence":
        report = atlas.confluence_audit(AmbientSpace(args.space or "s3"), bound)
    else:
        report = atlas.relation_lift_compatibility(bound)
    _emit(report.to_dict())
    _diagnose(f"{args.kind}: bound={bound} checked={report.checked_pairs} "
              f"violations={len(report.violations)} elapsed={report.elapsed * 1000:.0f}ms")
    return 0 if report.ok else 1


def _cmd_jsj(args) -> int:
    from . import jsj

    try:
        with open(args.input, encoding="utf-8") as fh:
            raw = json.load(fh)
    # ValueError covers bytes that are not UTF-8 as well as malformed JSON;
    # nesting deeper than the decoder's recursion limit raises RecursionError.
    except (OSError, ValueError, RecursionError) as exc:
        _diagnose(f"projlink: INVALID_INPUT: cannot read {args.input}: {exc}")
        return 2
    try:
        if args.subcommand == "outermost":
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


def main(argv: list[str] | None = None) -> int:
    # Started with fd 1 closed, the interpreter sets sys.stdout to None.
    if sys.stdout is None:
        _diagnose("projlink: OUTPUT_ERROR: cannot write stdout: stdout is closed")
        return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)  # a usage error or --help ends in SystemExit
        if (args.command == "verify" and args.kind != "confluence"
                and args.space is not None):
            parser.error(f"verify {args.kind} runs in RP^3 and takes no --space")
        code = args.run(args)
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
