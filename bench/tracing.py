"""In-memory spans around the package's layer functions.

A span is ``(name, start_ns, end_ns, parent, char_id)``: ``parent`` is the
index of the enclosing span in the same list (-1 for a root) and
``char_id`` the corpus index of the character being certified.  Spans stay
in memory and are written out once, when the run ends.

Calls made inside the package are traced by rebinding, for the duration of
``installed``, the names that the calling modules imported (for example
``braidsigma.classify.find_disjoint_triple``), so ``chargraph`` spans nest
under ``classify``, ``circles`` and ``verify_certificate``.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Callable, Iterator

# Span name -> (module, attribute) that defines the function.  The harness
# calls the first group directly; the rest are reached only from inside
# the package.
LAYERS = {
    "characters.character_from_json": ("characters", "character_from_json"),
    "classify.classify": ("classify", "classify"),
    "classify.verify_certificate": ("classify", "verify_certificate"),
    "circles.locate_circle": ("circles", "locate_circle"),
    "witness.build_witness_for": ("witness", "build_witness_for"),
    "witness.verify_witness": ("witness", "verify_witness"),
    "classify.classification_to_json_dict": ("classify", "classification_to_json_dict"),
    "witness.witness_to_json_dict": ("witness", "witness_to_json_dict"),
    "cli.json_dumps": ("json", "dumps"),
    "characters.permute": ("characters", "permute"),
    "characters.delta_value": ("characters", "delta_value"),
    "chargraph.build_kchi": ("chargraph", "build_kchi"),
    "chargraph.find_edge_disjoint_from_two": ("chargraph", "find_edge_disjoint_from_two"),
    "chargraph.find_disjoint_triple": ("chargraph", "find_disjoint_triple"),
    "chargraph.find_disjoint_pair": ("chargraph", "find_disjoint_pair"),
    "chargraph.shape_classify": ("chargraph", "shape_classify"),
    "circles.on_circle": ("circles", "on_circle"),
    "words.braid_aut": ("words", "braid_aut"),
}

# Span name -> the (module, attribute) names through which the package
# itself calls the function.
INTERNAL_CALLERS = {
    "characters.character_from_json": [("cli", "character_from_json")],
    "classify.classify": [("cli", "classify")],
    "witness.build_witness_for": [("cli", "build_witness_for")],
    "witness.verify_witness": [("cli", "verify_witness")],
    "classify.classification_to_json_dict": [("cli", "classification_to_json_dict")],
    "witness.witness_to_json_dict": [("cli", "witness_to_json_dict")],
    "characters.permute": [("witness", "permute")],
    "characters.delta_value": [("classify", "delta_value")],
    "chargraph.build_kchi": [("classify", "build_kchi"), ("circles", "build_kchi")],
    "chargraph.find_edge_disjoint_from_two": [
        ("classify", "find_edge_disjoint_from_two"),
        ("chargraph", "find_edge_disjoint_from_two"),
    ],
    "chargraph.find_disjoint_triple": [("classify", "find_disjoint_triple")],
    "chargraph.find_disjoint_pair": [("classify", "find_disjoint_pair")],
    "chargraph.shape_classify": [("classify", "shape_classify")],
    "circles.on_circle": [("classify", "on_circle"), ("circles", "on_circle")],
    "words.braid_aut": [("witness", "braid_aut")],
}

Span = tuple[str, int, int, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.char_id = -1

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.char_id)

        return traced


def _module(short: str):
    return sys.modules["json" if short == "json" else f"braidsigma.{short}"]


def original(layer: str) -> Callable:
    mod, attr = LAYERS[layer]
    return getattr(_module(mod), attr)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[dict[str, Callable]]:
    """Rebind every internal caller's name to a traced wrapper; yield the
    traced function for each layer.  Everything is restored on exit."""
    traced = {layer: tracer.wrap(layer, original(layer)) for layer in LAYERS}
    saved = []
    targets = [(m, a, traced[layer]) for layer, sites in INTERNAL_CALLERS.items() for m, a in sites]
    if "braidsigma.cli" in sys.modules:
        # the CLI calls json.dumps through its module reference to json
        proxy = SimpleNamespace(dumps=traced["cli.json_dumps"])
        targets.append(("cli", "json", proxy))
    try:
        for mod, attr, fn in targets:
            if f"braidsigma.{mod}" not in sys.modules:
                continue
            module = _module(mod)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, fn)
        yield traced
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> tuple[dict[str, int], dict[str, int]]:
    """Per layer: number of calls and self time in ns (span duration minus
    the durations of its direct children)."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    own: dict[str, int] = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0) + (end - start) - child[idx]
    return calls, own
