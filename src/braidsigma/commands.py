"""The commands other than ``classify``: ``circles``, ``graph``, ``verify``
and ``oracle``, with the ``-h`` text of every command and what only these
commands use.  ``cli`` imports this module when one of them runs or help
is asked for, so a ``classify`` process never compiles it.

``circles`` writes its JSON list one circle at a time and refuses any n
with more than MAX_CIRCLES = 10**6 circles, C(n,3) + C(n,4), so n <= 70.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations, islice
from math import comb
from types import SimpleNamespace

from .characters import Edge
from .chargraph import CharGraph, build_kchi
from .circles import P3, P4, CircleId
from .classify import RECOVERY_FACTORIZATIONS

# under ``python -m braidsigma.cli`` this loads a second copy of cli, as
# ``braidsigma.cli``; only its table, its constants and its reader are used
from .cli import COMMANDS, EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFY_FAILED, _load_character

MAX_CIRCLES = 10**6
CIRCLES_PER_WRITE = 4096


def _refused(reason: str) -> int:
    print(f"error: {reason}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def enumerate_circles(n: int) -> list[CircleId]:
    """All complement circles for P_n: 3-sets first, then 4-sets, both in
    lexicographic order.  There are C(n,3) + C(n,4)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    strands = range(1, n + 1)
    return [CircleId(P3, t) for t in combinations(strands, 3)] + [
        CircleId(P4, q) for q in combinations(strands, 4)
    ]


def cmd_circles(args: SimpleNamespace) -> int:
    n = args.n
    if n < 2:
        return _refused(f"need n >= 2, got {n}")
    count = comb(n, 3) + comb(n, 4)
    if count > MAX_CIRCLES:
        return _refused(f"n = {n} gives {count} circles, more than the {MAX_CIRCLES} allowed")
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


def to_dot(g: CharGraph) -> str:
    """DOT export: vertices v1..vn, edges labeled by their rational weight,
    isolated vertices dotted."""
    lines = ["graph kchi {"]
    for v in range(1, g.n + 1):
        attr = "" if v in g.nbrs else " [style=dotted]"
        lines.append(f"  v{v}{attr};")
    for i, j in g.order:
        lines.append(f'  v{i} -- v{j} [label="{g.labels[(i, j)]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_graph(args: SimpleNamespace) -> int:
    chi = _load_character(args.infile)
    dot = to_dot(build_kchi(chi))
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as f:
                f.write(dot)
        except OSError as exc:
            return _refused(f"cannot write {args.dot}: {exc.strerror}")
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
        factorization_holds,
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


def oracle_star_or_small() -> list[tuple[Edge, ...]]:
    """The finite check behind the star-or-small fact (``chargraph``'s
    module docstring).

    For every set of at most 5 edges on the vertices 0..6, asserts: no
    edge disjoint from two others <=> (star or at most 4 endpoints).
    Returns the counterexample edge sets, which must be none.
    """
    pairs = list(combinations(range(7), 2))
    vmask = {p: (1 << p[0]) | (1 << p[1]) for p in pairs}
    counterexamples = []
    for size in range(6):
        for subset in combinations(pairs, size):
            masks = [vmask[e] for e in subset]
            has_dft = any(sum(not e & f for f in masks) >= 2 for e in masks)
            union, common = 0, (masks[0] if masks else 0)
            for m in masks:
                union |= m
                common &= m
            if has_dft == (bool(common) or union.bit_count() <= 4):
                counterexamples.append(subset)
    return counterexamples


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


def help_text(name: str | None) -> str:
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
