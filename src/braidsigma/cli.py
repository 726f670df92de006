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

The arguments are read from one table, COMMANDS, which also gives the
``-h``/``--help`` text; a usage error prints one ``error:`` line and exits
2.  ``--in`` is decoded as UTF-8 (RFC 8259) whatever the locale.  This
module holds only what ``classify`` runs; the other handlers and the help
text are in ``commands``, which is imported only when they are needed.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from types import SimpleNamespace

from .characters import (
    CharacterFormatError,
    InternalError,
    ZeroCharacterError,
    character_from_json,
)
from .classify import classification_to_json_dict, classify, verify_certificate
from .witness import build_witness_for, verify_witness, witness_to_json_dict

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _input_error(reason: str):
    """Print one ``error:`` line and exit 2; never returns."""
    print(f"error: {reason}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT_ERROR)


def _read_input(path: str) -> str:
    if path == "-":
        if sys.stdin is None:  # the process started with no file descriptor 0
            _input_error("cannot read -: standard input is closed")
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "rb") as f:
        return f.read().decode("utf-8")


def _load_character(path: str):
    try:
        return character_from_json(_read_input(path))
    except CharacterFormatError as exc:
        reason = str(exc)
    except FileNotFoundError:
        reason = f"no such file: {path}"
    except OSError as exc:
        reason = f"cannot read {path}: {exc.strerror}"
    except UnicodeDecodeError:
        reason = f"{path} is not UTF-8 text"
    _input_error(reason)


def cmd_classify(args: SimpleNamespace) -> int:
    chi = _load_character(args.infile)
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
            return EXIT_VERIFY_FAILED
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def _deferred(name: str) -> Callable[[SimpleNamespace], int]:
    """The handler ``name`` of ``commands``, imported when it first runs and
    given this module's names, which ``commands`` never imports."""

    def handler(args: SimpleNamespace) -> int:
        from . import commands

        return getattr(commands, name)(args, SimpleNamespace(**globals()))

    return handler


HELP_FLAGS = ("-h", "--help")

# Each command: its handler, a one-line help, its options and its switches.
# An option is (flag, attribute, converter, required, help) and takes one
# value, as ``--flag VALUE`` (a VALUE starting with ``--`` is taken for a
# missing value, as argparse does) or ``--flag=VALUE``; the last one wins.
# A switch is (flag, attribute, help) and reads True when given.
COMMANDS = {
    "classify": (
        cmd_classify,
        "classify a character from JSON",
        [("--in", "infile", str, True, "JSON path, or - for stdin")],
        [("--witness", "witness", "attach a verified witness package")],
    ),
    "circles": (
        _deferred("cmd_circles"),
        "list the complement circles for P_n",
        [("--n", "n", int, True, "number of strands, 2 to 70")],
        [],
    ),
    "graph": (
        _deferred("cmd_graph"),
        "export the support graph as DOT",
        [
            ("--in", "infile", str, True, "JSON path, or - for stdin"),
            ("--dot", "dot", str, False, "output path (stdout if omitted)"),
        ],
        [],
    ),
    "verify": (_deferred("cmd_verify"), "run the word-engine identity suite", [], []),
    "oracle": (_deferred("cmd_oracle"), "prove the star-or-small fact for every n", [], []),
}


def _help(name: str | None):
    """Print the ``-h`` text of ``name`` (None for the program) and exit 0."""
    from .commands import help_text

    print(help_text(name, COMMANDS))
    raise SystemExit(EXIT_OK)


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler that ``argv`` names and its arguments, read from COMMANDS.
    ``-h`` prints help and exits 0; a usage error exits 2."""
    if not argv:
        _input_error(f"the following arguments are required: command ({', '.join(COMMANDS)})")
    name, tokens = argv[0], iter(argv[1:])
    if name in HELP_FLAGS:
        _help(None)
    if name not in COMMANDS:
        _input_error(f"invalid choice: {name!r} (choose from {', '.join(COMMANDS)})")
    handler, _, options, switches = COMMANDS[name]
    takes = {flag: (attr, convert) for flag, attr, convert, _, _ in options}
    sets = {flag: attr for flag, attr, _ in switches}
    args = SimpleNamespace(
        **{attr: None for attr, _ in takes.values()}, **dict.fromkeys(sets.values(), False)
    )
    unknown = []
    for token in tokens:
        if token in HELP_FLAGS:
            _help(name)
        flag, eq, value = token.partition("=")
        if token in sets:
            setattr(args, sets[token], True)
        elif flag in takes:
            attr, convert = takes[flag]
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("--"):
                    _input_error(f"argument {flag}: expected one argument")
            try:
                setattr(args, attr, convert(value))
            except ValueError:
                _input_error(f"argument {flag}: invalid {convert.__name__} value: {value!r}")
        else:
            unknown.append(token)
    missing = [flag for flag, attr, _, req, _ in options if req and getattr(args, attr) is None]
    if missing:
        _input_error(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _input_error(f"unrecognized arguments: {' '.join(unknown)}")
    return handler, args


def main(argv: list[str] | None = None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except (CharacterFormatError, ZeroCharacterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
