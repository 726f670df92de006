"""Command-line surface.

Subcommands: ``classify`` a character from JSON, ``circles`` for the
complement circle list, ``graph`` for DOT export of the support graph,
``verify`` for the word-engine identity suite, ``oracle`` for the
exhaustive star-or-small check.  Exit codes: 0 success, 1 verification
failure, 2 input error (a malformed, unreadable or zero character, an
unwritable ``--dot`` path, or an argument out of range), 3 internal error
(a broken invariant of the package or any other fault, to be reported as
a bug).  ``circles`` refuses any n with more than MAX_CIRCLES = 10**6
circles, C(n,3) + C(n,4), so n <= 70.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb
from pathlib import Path

from .characters import (
    CharacterFormatError,
    InternalError,
    ZeroCharacterError,
    character_from_json,
)
from .chargraph import build_kchi, oracle_star_or_small, to_dot
from .circles import enumerate_circles
from .classify import classification_to_json_dict, classify
from .planar import load_planar_words
from .witness import build_witness_for, verify_witness, witness_to_json_dict
from .words import (
    verify_p3_relation,
    verify_planar_presentation,
    verify_rho,
    verify_swing_factorizations,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

MAX_CIRCLES = 10**6


class UsageError(Exception):
    """A command-line argument outside the range the command supports."""


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


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
    print(f"error: {reason}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT_ERROR)


def cmd_classify(args: argparse.Namespace) -> int:
    chi = _load_character(args.infile)
    if chi.is_zero():
        print("error: the zero character has no class on the sphere", file=sys.stderr)
        return EXIT_INPUT_ERROR
    cls = classify(chi)
    out = classification_to_json_dict(cls)
    if args.witness and cls.verdict == "sigma1":
        pkg = build_witness_for(cls, chi)
        report = verify_witness(pkg, chi)
        out["witness"] = witness_to_json_dict(pkg)
        if not report.ok:
            print("error: witness verification failed", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_circles(args: argparse.Namespace) -> int:
    n = args.n
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    count = comb(n, 3) + comb(n, 4)
    if count > MAX_CIRCLES:
        raise UsageError(f"n = {n} gives {count} circles, more than the {MAX_CIRCLES} allowed")
    ids = enumerate_circles(n)
    print(json.dumps([cid.to_json_dict() for cid in ids]))
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    chi = _load_character(args.infile)
    dot = to_dot(build_kchi(chi))
    if args.dot:
        try:
            Path(args.dot).write_text(dot)
        except OSError as exc:
            print(f"error: cannot write {args.dot}: {exc.strerror}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    else:
        print(dot, end="")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    checks = [
        ("triple swing factorizations", verify_swing_factorizations()),
        ("P3 relation abc=bca=cab, central product", verify_p3_relation()),
        ("rho images of planar relations", verify_rho()),
    ]
    planar_report = verify_planar_presentation(load_planar_words())
    for name, ok in planar_report.items():
        checks.append((f"planar relation {name}", ok))
    width = max(len(name) for name, _ in checks)
    failed = False
    for name, ok in checks:
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}")
        failed = failed or not ok
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    m = args.max_vertices
    if not 0 <= m <= 8:
        raise UsageError(f"--max-vertices must be in 0..8, the enumeration budget; got {m}")
    counterexamples = oracle_star_or_small(m)
    print(
        f"star-or-small oracle up to {m} vertices: "
        f"{len(counterexamples)} counterexamples"
    )
    if counterexamples:
        print(json.dumps(counterexamples[:20]))
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidsigma",
        description="exact BNS classifier for pure braid group characters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a character from JSON")
    p.add_argument("--in", dest="infile", required=True, help="JSON path or - for stdin")
    p.add_argument("--witness", action="store_true", help="attach a verified witness package")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("circles", help="list the complement circles for P_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_circles)

    p = sub.add_parser("graph", help="export the support graph as DOT")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dot", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="run the word-engine identity suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive star-or-small check")
    p.add_argument("--max-vertices", type=int, default=7)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
