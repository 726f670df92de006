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
reported as a bug).  ``circles`` writes its JSON list one circle at a
time and refuses any n with more than MAX_CIRCLES = 10**6 circles,
C(n,3) + C(n,4), so n <= 70.

The arguments are read from one table, COMMANDS, which also gives the
``-h``/``--help`` text; a usage error prints one ``error:`` line and exits
2.  ``--in`` is decoded as UTF-8 (RFC 8259) whatever the locale.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations, islice
from math import comb
from types import SimpleNamespace
from typing import Callable, NoReturn, Optional

from .characters import (
    CharacterFormatError,
    InternalError,
    ZeroCharacterError,
    character_from_json,
)
from .chargraph import build_kchi, oracle_star_or_small, to_dot
from .circles import P3, P4
from .classify import (
    RECOVERY_FACTORIZATIONS,
    classification_to_json_dict,
    classify,
    verify_certificate,
)
from .witness import build_witness_for, factorization_holds, verify_witness, witness_to_json_dict

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

MAX_CIRCLES = 10**6
CIRCLES_PER_WRITE = 4096


class UsageError(Exception):
    """A command-line argument outside the range the command supports."""


def _input_error(reason: str) -> NoReturn:
    print(f"error: {reason}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT_ERROR)


def _read_input(path: str) -> str:
    if path == "-":
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


def cmd_circles(args: SimpleNamespace) -> int:
    n = args.n
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    count = comb(n, 3) + comb(n, 4)
    if count > MAX_CIRCLES:
        raise UsageError(f"n = {n} gives {count} circles, more than the {MAX_CIRCLES} allowed")
    # the bytes of json.dumps(enumerate_circles(n)) plus a newline, without
    # holding the list: each circle is formatted from its strands, in the
    # order of enumerate_circles, and written CIRCLES_PER_WRITE at a time
    write = sys.stdout.write
    write("[")
    sep = ""
    for kind, size in ((P3, 3), (P4, 4)):
        circle = '{"kind": "%s", "support": [%s]}' % (kind, ", ".join(["%d"] * size))
        supports = combinations(range(1, n + 1), size)
        while chunk := ", ".join([circle % s for s in islice(supports, CIRCLES_PER_WRITE)]):
            write(sep + chunk)
            sep = ", "
    write("]\n")
    return EXIT_OK


def cmd_graph(args: SimpleNamespace) -> int:
    chi = _load_character(args.infile)
    dot = to_dot(build_kchi(chi))
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as f:
                f.write(dot)
        except OSError as exc:
            print(f"error: cannot write {args.dot}: {exc.strerror}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        print(dot, end="")
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
    """The word-engine identity suite, one line per identity.  Its last
    lines prove the four recovery factorizations of the lemma table for
    every n, so witness verification need not check them again.  Each lies
    on strands 1..5, so its words use only sigma_1..sigma_4, which fix
    x_6..x_n: its images in F_n are those in F_5 with the other letters
    fixed, and an identity of P_5, checked here in every cyclic rotation of
    the product, holds in every P_n."""
    # only this command loads the identity suite
    from .planar import (
        planar_words,
        verify_p3_relation,
        verify_planar_presentation,
        verify_rho,
        verify_swing_factorizations,
    )

    checks = [
        ("triple swing factorizations", verify_swing_factorizations()),
        ("P3 relation abc=bca=cab, central product", verify_p3_relation()),
        ("rho images of planar relations", verify_rho()),
    ]
    planar_report = verify_planar_presentation(planar_words())
    for name, ok in planar_report.items():
        checks.append((f"planar relation {name}", ok))
    for facts in RECOVERY_FACTORIZATIONS.values():
        for fact in facts:
            checks.append((f"recovery factorization {fact.added}", factorization_holds(fact, 5)))
    width = max(len(name) for name, _ in checks)
    failed = False
    for name, ok in checks:
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}")
        failed = failed or not ok
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_oracle(args: SimpleNamespace) -> int:
    counterexamples = oracle_star_or_small()
    print(
        "star-or-small at every n, from all sets of at most 5 edges on 7 "
        f"vertices: {len(counterexamples)} counterexamples"
    )
    if counterexamples:
        print(json.dumps(counterexamples[:20]))
        return EXIT_VERIFY_FAILED
    return EXIT_OK


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
        cmd_circles,
        "list the complement circles for P_n",
        [("--n", "n", int, True, "number of strands, 2 to 70")],
        [],
    ),
    "graph": (
        cmd_graph,
        "export the support graph as DOT",
        [
            ("--in", "infile", str, True, "JSON path, or - for stdin"),
            ("--dot", "dot", str, False, "output path (stdout if omitted)"),
        ],
        [],
    ),
    "verify": (cmd_verify, "run the word-engine identity suite", [], []),
    "oracle": (cmd_oracle, "prove the star-or-small fact for every n", [], []),
}


def _help(name: Optional[str]) -> str:
    """The ``--help`` text of the command ``name``, or of the whole program."""
    if name is None:
        usage = f"[-h] {{{','.join(COMMANDS)}}} ..."
        about = "exact BNS classifier for pure braid group characters"
        heading, rows = "commands:", [(command, spec[1]) for command, spec in COMMANDS.items()]
        tail = ["", "run 'braidsigma COMMAND -h' for the options of a command"]
    else:
        _, about, options, switches = COMMANDS[name]
        words, rows = [name, "[-h]"], [("-h, --help", "show this help and exit")]
        for flag, attr, _, required, text in options:
            word = f"{flag} {attr.upper()}"
            words.append(word if required else f"[{word}]")
            rows.append((word, text))
        for flag, _, text in switches:
            words.append(f"[{flag}]")
            rows.append((flag, text))
        usage, heading, tail = " ".join(words), "options:", []
    width = max(len(left) for left, _ in rows)
    lines = [f"usage: braidsigma {usage}", "", about, "", heading]
    return "\n".join(lines + [f"  {left:<{width}}  {right}" for left, right in rows] + tail)


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler that ``argv`` names and its arguments, read from COMMANDS.
    ``-h`` prints help and exits 0; a usage error exits 2."""
    if not argv:
        _input_error(f"the following arguments are required: command ({', '.join(COMMANDS)})")
    name, tokens = argv[0], iter(argv[1:])
    if name in HELP_FLAGS:
        print(_help(None))
        raise SystemExit(EXIT_OK)
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
            print(_help(name))
            raise SystemExit(EXIT_OK)
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
    except (CharacterFormatError, ZeroCharacterError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
