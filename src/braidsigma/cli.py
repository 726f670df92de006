"""Command-line surface.

Subcommands: ``classify`` a character from JSON, ``circles`` for the
complement circle list, ``graph`` for DOT export of the support graph,
``verify`` for the word-engine identity suite, ``oracle`` for the finite
check that proves the star-or-small fact for every n (it takes no
options).  Exit codes: 0 success, 1 verification failure, 2 input error
(a malformed, unreadable or zero character, an unwritable ``--dot``
path, or an argument out of range or unknown), 3 internal error (a
broken invariant of the package, such as a certificate that fails the
check ``classify`` runs before printing it, or any other fault, to be
reported as a bug).

``main`` alone turns an outcome into an exit code.  A command returns
True, or False when a verification fails; an ``InputError``, raised where
it is found (by the argument reader, ``read_text``, the JSON parser or a
command), is printed as one ``error:`` line.  ``-h`` is an outcome too:
``_help`` prints the help.  The arguments are read from one table,
COMMANDS, which also gives the help text.  This module holds only what
``classify`` runs; ``commands``, which never imports it, holds the rest and
is imported only when it is needed.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from types import SimpleNamespace

from .characters import InputError, InternalError, _quoted, character_from_json, read_text
from .classify import classification_to_json_dict, classify, verify_certificate
from .witness import build_witness_for, verify_witness, witness_to_json_dict

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def cmd_classify(args: SimpleNamespace) -> bool:
    chi = character_from_json(read_text(args.infile))
    cls = classify(chi)
    if not verify_certificate(cls, chi):
        raise InternalError(f"the {cls.certificate.kind} certificate fails its check")
    out = classification_to_json_dict(cls)
    if args.witness and cls.verdict == "sigma1":
        pkg = build_witness_for(cls, chi)
        report = verify_witness(pkg, chi)
        out["witness"] = witness_to_json_dict(pkg)
        if failures := report.failures():
            for line in failures:
                print(f"error: witness: {line}", file=sys.stderr)
            return False
    print(json.dumps(out, indent=2, sort_keys=True))
    return True


def _deferred(name: str) -> Callable[[SimpleNamespace], bool]:
    """The handler ``name`` of ``commands``, imported when it first runs."""

    def handler(args: SimpleNamespace) -> bool:
        from . import commands

        return getattr(commands, name)(args)

    return handler


HELP_FLAGS = ("-h", "--help")

# Each command: its handler, a one-line help and its options.  An option is
# (flag, attribute, converter, required, help).  With a converter it takes
# one value, as ``--flag VALUE`` (a VALUE starting with ``--`` is taken for
# a missing value, as argparse does) or ``--flag=VALUE``; the last one wins.
# With None it is a switch, given as ``--flag`` alone, and reads True.
COMMANDS = {
    "classify": (
        cmd_classify,
        "classify a character from JSON",
        [
            ("--in", "infile", str, True, "JSON path, or - for stdin"),
            ("--witness", "witness", None, False, "attach a verified witness package"),
        ],
    ),
    "circles": (
        _deferred("cmd_circles"),
        "list the complement circles for P_n",
        [("--n", "n", int, True, "number of strands, 2 to 70")],
    ),
    "graph": (
        _deferred("cmd_graph"),
        "export the support graph as DOT",
        [
            ("--in", "infile", str, True, "JSON path, or - for stdin"),
            ("--dot", "dot", str, False, "output path (stdout if omitted)"),
        ],
    ),
    "verify": (_deferred("cmd_verify"), "run the word-engine identity suite", []),
    "oracle": (_deferred("cmd_oracle"), "prove the star-or-small fact for every n", []),
}


def _help(args: SimpleNamespace) -> bool:
    """Print the ``-h`` text of ``args.command`` (None for the program)."""
    from .commands import help_text

    print(help_text(args.command, COMMANDS))
    return True


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], bool], SimpleNamespace]:
    """The handler that ``argv`` names and its arguments, read from COMMANDS;
    ``_help`` for ``-h``.  A usage error raises InputError."""
    if not argv:
        raise InputError(f"the following arguments are required: command ({', '.join(COMMANDS)})")
    name, tokens = argv[0], iter(argv[1:])
    if name in HELP_FLAGS:
        return _help, SimpleNamespace(command=None)
    if name not in COMMANDS:
        raise InputError(f"invalid choice: {_quoted(name)} (choose from {', '.join(COMMANDS)})")
    handler, _, options = COMMANDS[name]
    takes = {flag: (attr, convert) for flag, attr, convert, _, _ in options}
    args = SimpleNamespace(**{attr: None if convert else False for attr, convert in takes.values()})
    unknown = []
    for token in tokens:
        if token in HELP_FLAGS:
            return _help, SimpleNamespace(command=name)
        flag, eq, value = token.partition("=")
        attr, convert = takes.get(flag, (None, None))
        if attr is None or (convert is None and eq):
            unknown.append(token)
        elif convert is None:
            setattr(args, attr, True)
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("--"):
                    raise InputError(f"argument {flag}: expected one argument")
            try:
                setattr(args, attr, convert(value))
            except ValueError:
                value = _quoted(value)
                raise InputError(f"argument {flag}: invalid {convert.__name__} value: {value}")
    missing = [flag for flag, attr, _, req, _ in options if req and getattr(args, attr) is None]
    if missing:
        raise InputError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise InputError(f"unrecognized arguments: {_quoted(' '.join(unknown), str)}")
    return handler, args


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` names; return its exit code."""
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        ok = handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
