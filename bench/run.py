"""Certify-per-character benchmark for braidsigma.

Usage (from the repository root):

    python3 bench/run.py --workload acceptance --seed 1 --seconds 10 --trace 0

One operation certifies one character the way ``braidsigma classify
--witness`` does, plus the independent checks: parse, classify,
verify_certificate, locate_circle, witness build and verify for sigma1
verdicts, then the JSON that the CLI prints.  In ``cli_oneshot`` one
operation is one whole ``python -m braidsigma.cli classify --witness``
process.  Runs are closed-loop, one character at a time, in one process
with no threads.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a separate traced pass (see README.md).  End-to-end
timings are scaled to the speed of the machine the seed baseline came
from, gauged by reference work timed all through the run (see Reference).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
character fails its correctness checks, 2 when the package cannot be
imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, ContextManager, Iterator, Optional

import corpus
import tracing
from corpus import Item

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 1
# setup_s is the median of SETUP_REPS set-ups spread evenly over the
# measured loop, so a slow phase of the machine shorter than half the run
# does not move it.
SETUP_REPS = 11
LOCAL_REF_SAMPLES = 5
PROCESS_REPS = 5
CHILD_TIMEOUT_S = 60
# latency_tail_ms is the highest of these percentiles of the per-character
# latencies with at least TAIL_MIN_BEYOND characters above it, so the
# percentile depends on the corpus size only.  The ladder stops at p99:
# above it the slowest characters are the few whose every repeat fell into
# a slow phase, and the figure moved by 30% between runs.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
PER_PAIR_LAYERS = (
    "characters.character_from_json",
    "classify.classify",
    "circles.locate_circle",
    "witness.verify_witness",
)
# The CPUs this process may run on.  The loop moves to the next one after
# every pass: on a shared machine a neighbour slows one CPU at a time, for
# seconds to a minute, and a character's best latency should not depend on
# the CPU the run happened to start on.
CPUS = sorted(os.sched_getaffinity(0))
CLI_CMD = [sys.executable, "-m", "braidsigma.cli", "classify", "--witness", "--in"]
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import braidsigma.cli; "
    "print(time.perf_counter() - t, braidsigma.cli.__file__)"
)


class PackageMissing(Exception):
    """The package cannot be imported from this checkout's src/."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def check_origin(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC):
        raise PackageMissing(f"braidsigma was imported from {path}, not from {SRC}")


# -- machine speed ---------------------------------------------------------
#
# On a shared machine the speed of pure-Python code drifts by 10-40% over
# minutes with the neighbours' load, in every run and on both CPUs at once,
# and no statistic of one run's own latencies removes that.  So every run
# also times a fixed piece of reference work, interleaved with the
# characters all through the loop, and reports its timings at the speed of
# the machine the seed baseline came from: a statistic of the run's times is
# multiplied by the same statistic of the reference on that machine and
# divided by it in this run (see Reference).  The reference calls no
# braidsigma code, so any change to the package shows in full.


def reference_work() -> None:
    """Fixed pure-Python work in the style of a certification, with no
    braidsigma code: Fraction arithmetic, tuple-keyed dicts, a sort and
    json.dumps."""
    weights = {}
    for i in range(1, 25):
        for j in range(i + 1, i + 6):
            weights[(i, j)] = Fraction(i, j) + Fraction(j, i + 7)
    sum(weights.values(), Fraction(0))
    json.dumps({f"{i},{j}": str(v) for (i, j), v in sorted(weights.items())}, sort_keys=True)


def time_reference_work() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def time_interpreter() -> float:
    """Wall time of a ``python -c pass`` child."""
    start = perf_counter()
    proc = run_child([sys.executable, "-c", "pass"])
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise PackageMissing(f"python -c pass failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def fast_end(samples: list[float]) -> float:
    """The 5th percentile (nearest rank)."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(0.05 * len(ordered))) - 1]


@dataclass(frozen=True)
class Reference:
    """How a workload gauges the machine's speed during a run.

    Like is compared with like.  With ``fast_s``, a character's latency is
    its fastest repeat in the run, scaled by the fast end of the reference
    samples: a batch character is certified 10-50 times a run and the
    reference hundreds of times, so both reach the machine's uncontended
    speed.  Without it, a character's latency is the median of its
    repeats, scaled by the reference's median: a process-per-character run
    repeats each character only 3-5 times, too few to reach that floor.
    Set-ups are scaled by reference samples of their own (Setups)."""

    take: Callable[[], float]  # times one reference sample, in seconds
    every_s: float  # operation time between two samples
    median_s: float  # the median reference time on the baseline machine
    fast_s: Optional[float] = None  # its fast_end() there

    def latencies(self, per_item: list[list[float]], ref: list[float]) -> list[float]:
        """Each character's latency, at the baseline machine's speed."""
        if self.fast_s is None:
            scale = self.median_s / statistics.median(ref)
            return [scale * statistics.median(ts) for ts in per_item]
        scale = self.fast_s / fast_end(ref)
        return [scale * min(ts) for ts in per_item]


# The reference's times on the machine of the seed baseline (README.md),
# taken at a quiet moment.
BATCH_REFERENCE = Reference(time_reference_work, every_s=0.02, median_s=0.62e-3, fast_s=0.57e-3)
PROCESS_REFERENCE = Reference(time_interpreter, every_s=0.2, median_s=42e-3)


# -- the operation ---------------------------------------------------------


@dataclass
class Api:
    """The package functions one certification calls, traced or not."""

    character_from_json: Callable
    classify: Callable
    verify_certificate: Callable
    locate_circle: Callable
    build_witness_for: Callable
    verify_witness: Callable
    classification_to_json_dict: Callable
    witness_to_json_dict: Callable
    json_dumps: Callable

    @staticmethod
    def of(funcs: dict[str, Callable]) -> "Api":
        """Pick the functions out of a layer-name -> function map."""
        return Api(**{attr: funcs[layer] for attr, layer in API_LAYERS.items()})


API_LAYERS = {
    "character_from_json": "characters.character_from_json",
    "classify": "classify.classify",
    "verify_certificate": "classify.verify_certificate",
    "locate_circle": "circles.locate_circle",
    "build_witness_for": "witness.build_witness_for",
    "verify_witness": "witness.verify_witness",
    "classification_to_json_dict": "classify.classification_to_json_dict",
    "witness_to_json_dict": "witness.witness_to_json_dict",
    "json_dumps": "cli.json_dumps",
}


@dataclass
class Outcome:
    kind: str
    verdict: str
    circle: object  # the certificate's circle, or None for sigma1
    cert_ok: bool
    located: object
    witness_ok: Optional[bool]
    text: str


def certify(api: Api, text: str) -> Outcome:
    chi = api.character_from_json(text)
    cls = api.classify(chi)
    cert_ok = api.verify_certificate(cls, chi)
    located = api.locate_circle(chi)
    report = pkg = None
    if cls.verdict == "sigma1":
        pkg = api.build_witness_for(cls, chi)
        report = api.verify_witness(pkg, chi)
    out = api.classification_to_json_dict(cls)
    if pkg is not None:
        out["witness"] = api.witness_to_json_dict(pkg)
    # byte for byte what `braidsigma classify --witness` prints
    printed = api.json_dumps(out, indent=2, sort_keys=True) + "\n"
    circle = getattr(cls.certificate, "circle", None)
    witness_ok = None if report is None else report.ok
    return Outcome(cls.certificate.kind, cls.verdict, circle, cert_ok, located, witness_ok, printed)


def gate(item: Item, o: Outcome) -> Optional[str]:
    """Why the outcome is wrong, or None when every check holds."""
    if item.kind is not None and o.kind != item.kind:
        return f"kind {o.kind}, generator intended {item.kind}"
    if not o.cert_ok:
        return "verify_certificate rejected the certificate"
    if o.verdict == "complement":
        if o.located != o.circle:
            return f"locate_circle gave {o.located}, certificate names {o.circle}"
    elif o.located is not None:
        return f"sigma1 verdict but locate_circle gave {o.located}"
    elif not o.witness_ok:
        return "witness verification failed"
    return None


def package_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "braidsigma" or k.startswith("braidsigma.")}


def import_package() -> Api:
    """Import braidsigma afresh: every module re-executes, caches start empty."""
    for name in package_modules():
        del sys.modules[name]
    try:
        pkg = importlib.import_module("braidsigma")
    except ImportError as exc:
        raise PackageMissing(f"cannot import braidsigma from {SRC}: {exc}") from exc
    check_origin(pkg.__file__)
    return Api.of({layer: tracing.original(layer) for layer in tracing.LAYERS})


# -- the closed loop -------------------------------------------------------

Op = Callable[[int, Item], tuple[float, str, Optional[str]]]


@dataclass
class Measured:
    per_item: list[list[float]]
    reference: Reference
    attempted: int = 0
    failures: list[tuple[int, str]] = field(default_factory=list)
    passes: int = 0
    digest: str = ""
    ref: list[float] = field(default_factory=list)

    def latencies(self) -> list[float]:
        """Each character's latency in the run, at the baseline speed."""
        return self.reference.latencies(self.per_item, self.ref)


def measure(
    op: Op,
    items: list[Item],
    seconds: float,
    reference: Reference,
    whole_passes: bool = False,
    after_pass: Optional[Callable[[float], None]] = None,
) -> Measured:
    """Certify items in order, cycling, until ``seconds`` have passed and at
    least one whole pass is done; with ``whole_passes`` stop only at the end
    of a pass, so every character is certified equally often.  Every pass
    after the first must print the same bytes per character.  After every
    ``reference.every_s`` of operation time, one reference sample is taken.
    ``after_pass`` gets the share of ``seconds`` measured so far; its own
    time does not count towards ``seconds``.  Pass k runs on CPU k mod the
    number of CPUs; children started meanwhile inherit it."""
    try:
        return _measure(op, items, seconds, reference, whole_passes, after_pass)
    finally:
        os.sched_setaffinity(0, CPUS)


def _measure(
    op: Op,
    items: list[Item],
    seconds: float,
    reference: Reference,
    whole_passes: bool,
    after_pass: Optional[Callable[[float], None]],
) -> Measured:
    m = Measured([[] for _ in items], reference)
    stream = hashlib.sha256()
    first: list[int] = []
    since_ref = reference.every_s  # the first sample comes before any character
    os.sched_setaffinity(0, {CPUS[0]})
    start = perf_counter()
    deadline = start + seconds
    while True:
        for i, item in enumerate(items):
            if since_ref >= reference.every_s:
                m.ref.append(reference.take())
                since_ref = 0.0
            elapsed, out, why = op(i, item)
            since_ref += elapsed
            m.per_item[i].append(elapsed)
            m.attempted += 1
            if m.passes == 0:
                stream.update(out.encode())
                first.append(hash(out))
            elif why is None and hash(out) != first[i]:
                why = "output differs from the first pass"
            if why is not None:
                m.failures.append((i, why))
            if m.passes > 0 and not whole_passes and perf_counter() >= deadline:
                return m
        if m.passes == 0:
            m.digest = stream.hexdigest()
        m.passes += 1
        if after_pass is not None:
            paused = perf_counter()
            after_pass((paused - start) / seconds if seconds else 1.0)
            pause = perf_counter() - paused
            start += pause
            deadline += pause
        os.sched_setaffinity(0, {CPUS[m.passes % len(CPUS)]})
        if perf_counter() >= deadline:
            return m


def batch_op(api: Api, tracer: Optional[tracing.Tracer] = None) -> Op:
    def op(i: int, item: Item) -> tuple[float, str, Optional[str]]:
        if tracer is not None:
            tracer.char_id = i
        start = perf_counter()
        try:
            outcome = certify(api, item.text)
        except Exception as exc:  # a raising character is a failed character
            return perf_counter() - start, "", f"raised {exc!r}"
        elapsed = perf_counter() - start
        return elapsed, outcome.text, gate(item, outcome)

    return op


def write_inputs(items: list[Item], seed: int, workload: str) -> list[str]:
    folder = OUT / f"{workload}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, item in enumerate(items):
        path = folder / f"{i:03d}.json"
        path.write_text(item.text)
        paths.append(str(path.relative_to(ROOT)))
    return paths


def cli_op(
    paths: list[str], expected: list[str], tracer: Optional[tracing.Tracer] = None
) -> Op:
    """One process per character; the output must equal the in-process
    certification, which passed the gate.  With a tracer the child installs
    the same spans and hands them back."""
    prefix = CLI_CMD if tracer is None else [sys.executable, str(BENCH / "cli_child.py")]

    def op(i: int, item: Item) -> tuple[float, str, Optional[str]]:
        start = perf_counter()
        proc = run_child(prefix + [paths[i]])
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            return elapsed, proc.stdout, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        out = proc.stdout
        if tracer is not None:
            payload = json.loads(out)
            out = payload["stdout"]
            base = len(tracer.spans)
            tracer.spans += [
                (name, start_ns, end_ns, parent + base if parent >= 0 else -1, i)
                for name, start_ns, end_ns, parent, _ in payload["spans"]
            ]
        if out != expected[i]:
            return elapsed, out, "output differs from the in-process certification"
        return elapsed, out, None

    return op


# -- set-up ----------------------------------------------------------------


@dataclass
class Setups:
    """Set-up samples: ``take`` times one more set-up.  Each is divided by
    the median of LOCAL_REF_SAMPLES reference samples taken just before it,
    the machine's speed at that moment."""

    take: Callable[[], float]
    reference: Reference
    seconds: list[float] = field(default_factory=list)
    relative: list[float] = field(default_factory=list)

    def until(self, count: int) -> None:
        while len(self.seconds) < count:
            local = statistics.median(self.reference.take() for _ in range(LOCAL_REF_SAMPLES))
            self.seconds.append(self.take())
            self.relative.append(self.seconds[-1] / local)

    def at_baseline_speed(self) -> float:
        """The median set-up time, at the speed of the baseline machine."""
        return self.reference.median_s * statistics.median(self.relative)

    def spread(self, progress: float) -> None:
        """Keep pace: by ``progress`` of the run, that share of SETUP_REPS."""
        self.until(math.ceil(SETUP_REPS * min(progress, 1.0)))


def batch_setup(warm: list[Item], cold_ms: list[float], failures: list) -> tuple[float, Api]:
    """One set-up: ``import braidsigma`` afresh plus one certification of
    each warm-up character.  The first call of verify_witness per
    (n, lemma) is timed on the side and its sum appended to ``cold_ms``."""
    gc.collect()
    first_calls: dict[tuple[int, str], float] = {}
    start = perf_counter()
    api = import_package()
    verify = api.verify_witness

    def timed_verify(pkg, chi):
        t = perf_counter()
        report = verify(pkg, chi)
        first_calls.setdefault((chi.n, pkg.lemma), perf_counter() - t)
        return report

    warm_op = batch_op(Api(**{**api.__dict__, "verify_witness": timed_verify}))
    for i, item in enumerate(warm):
        why = warm_op(i, item)[2]
        if why is not None:
            failures.append((i, f"warm-up: {why}"))
    seconds = perf_counter() - start
    cold_ms.append(1e3 * sum(first_calls.values()))
    return seconds, api


def process_wall_ms(cmd: list[str], reps: int = PROCESS_REPS) -> float:
    walls = []
    for _ in range(reps):
        start = perf_counter()
        proc = run_child(cmd)
        walls.append(perf_counter() - start)
        if proc.returncode != 0:
            raise PackageMissing(f"{cmd[1:]} failed: {proc.stderr.strip()[-300:]}")
    return 1e3 * statistics.median(walls)


def cli_setup() -> float:
    """Fresh-process ``import braidsigma.cli`` time, measured in the child."""
    proc = run_child([sys.executable, "-c", IMPORT_PROBE])
    if proc.returncode != 0:
        raise PackageMissing(f"cannot import braidsigma.cli: {proc.stderr.strip()[-300:]}")
    elapsed, path = proc.stdout.split(maxsplit=1)
    check_origin(path.strip())
    return float(elapsed)


# -- metrics ---------------------------------------------------------------


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, values beyond) at the highest TAIL_LADDER
    percentile (nearest rank) with at least TAIL_MIN_BEYOND values above
    it; the median when there are too few values for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= TAIL_MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return ordered[rank - 1], pct, n - rank
    raise AssertionError("TAIL_LADDER ends with 50")


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(m: Measured, setups: Setups, rss_mb: float) -> tuple[dict, dict]:
    latencies = m.latencies()
    tail, pct, beyond = tail_latency(latencies)
    failed = len(m.failures)
    metrics = {
        "chars_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (setups.at_baseline_speed(), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": ((m.attempted - failed) / m.attempted, "ratio"),
    }
    detail = {
        "samples": m.attempted,
        "passes": m.passes,
        "tail_percentile": pct,
        "tail_chars_beyond": beyond,
        "setup_samples_s": setups.seconds,
        "reference_samples": len(m.ref),
        "reference_median_s": statistics.median(m.ref),
        "reference_fast_s": fast_end(m.ref),
    }
    return metrics, detail


def per_pair(spans: list, items: list[Item]) -> dict:
    """Inclusive microseconds per call per pair C(n, 2), by layer and n;
    0 where the workload has no call of the layer at that n."""
    totals: dict[tuple[str, int], list[int]] = {}
    for name, start, end, _, char_id in spans:
        if name in PER_PAIR_LAYERS:
            acc = totals.setdefault((name, items[char_id].n), [0, 0])
            acc[0] += end - start
            acc[1] += 1
    metrics = {}
    for layer in PER_PAIR_LAYERS:
        for n in corpus.SCALING_NS:
            ns, calls = totals.get((layer, n), (0, 0))
            us = ns / 1e3 / calls / math.comb(n, 2) if calls else 0.0
            metrics[f"{layer}.us_per_pair.n{n}"] = (us, "us")
    return metrics


def layer_metrics(spans: list, chars: int) -> dict:
    calls, own = tracing.self_times(spans)
    total = sum(own.values())
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / chars, "count")
        metrics[f"{layer}.self_ms"] = (own.get(layer, 0) / 1e6 / chars, "ms")
        metrics[f"{layer}.share"] = (own.get(layer, 0) / total, "ratio")
    return metrics


def input_size(items: list[Item]) -> dict:
    edges = sum(
        sum(1 for v in json.loads(item.text)["weights"].values() if v != "0") for item in items
    )
    return {
        "chargraph.support_edges_per_char": (edges / len(items), "count"),
        "characters.pairs_per_char": (sum(math.comb(i.n, 2) for i in items) / len(items), "count"),
    }


def overhead(untraced: Measured, traced: Measured) -> float:
    """Traced against untraced time of a pass, both at the baseline speed."""
    return sum(traced.latencies()) / sum(untraced.latencies()) - 1


def process_metrics() -> dict:
    interpreter = process_wall_ms([sys.executable, "-c", "pass"])
    imported = process_wall_ms([sys.executable, "-c", "import braidsigma.cli"])
    return {
        "cli.interpreter_ms": (interpreter, "ms"),
        "cli.import_ms": (imported - interpreter, "ms"),
    }


def cold_from_spans(spans: list, items: list[Item]) -> float:
    """Sum over (n, lemma) of the first verify_witness call, for runs where
    every process starts cold."""
    first: dict[tuple[int, Optional[str]], int] = {}
    for name, start, end, _, char_id in spans:
        if name == "witness.verify_witness":
            item = items[char_id]
            first.setdefault((item.n, item.kind), end - start)
    return sum(first.values()) / 1e6


def write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "char_id"], "spans": spans}, fh)


# -- workloads -------------------------------------------------------------


@dataclass
class Prepared:
    """A workload ready to measure: its corpus, set-up samples, and the
    operation untraced and traced."""

    items: list[Item]
    setups: Setups
    untraced: Op
    traced: Callable[[tracing.Tracer], ContextManager[Op]]
    rss_who: int  # whose peak RSS counts: this process or its children
    reference: Reference
    cold_ms: Callable[[list], float]  # traced spans -> witness.verify_witness.cold_ms
    failures: list[tuple[int, str]] = field(default_factory=list)
    warm: int = 0  # characters certified per set-up


def prepare_batch(name: str, seed: int) -> Prepared:
    items = getattr(corpus, name)(seed)
    warm = corpus.acceptance_warmup(seed) if name == "acceptance" else corpus.warmup_of(items)
    cold_ms: list[float] = []
    failures: list[tuple[int, str]] = []
    api: Optional[Api] = None  # the package the run measures: the first set-up's

    def take() -> float:
        """One set-up; after the first, the measured package is put back."""
        nonlocal api
        if api is None:
            seconds, api = batch_setup(warm, cold_ms, failures)
            return seconds
        measured = package_modules()
        try:
            return batch_setup(warm, cold_ms, failures)[0]
        finally:
            for name in package_modules():
                del sys.modules[name]
            sys.modules.update(measured)
            gc.collect()

    @contextlib.contextmanager
    def traced(tracer: tracing.Tracer) -> Iterator[Op]:
        with tracing.installed(tracer) as funcs:
            yield batch_op(Api.of(funcs), tracer)

    setups = Setups(take, BATCH_REFERENCE)
    setups.until(1)
    return Prepared(
        items,
        setups,
        batch_op(api),
        traced,
        resource.RUSAGE_SELF,
        BATCH_REFERENCE,
        lambda spans: statistics.median(cold_ms),
        failures,
        len(warm),
    )


def prepare_cli(name: str, seed: int) -> Prepared:
    items = corpus.cli_oneshot(seed)
    paths = write_inputs(items, seed, name)
    setups = Setups(cli_setup, PROCESS_REFERENCE)
    setups.until(1)
    # the reference each child's output must equal, gated in-process
    api = import_package()
    failures: list[tuple[int, str]] = []
    expected = []
    for i, item in enumerate(items):
        try:
            outcome = certify(api, item.text)
        except Exception as exc:  # a raising character is a failed character
            failures.append((i, f"in-process reference raised {exc!r}"))
            expected.append("")
            continue
        why = gate(item, outcome)
        if why is not None:
            failures.append((i, f"in-process reference: {why}"))
        expected.append(outcome.text)
    return Prepared(
        items,
        setups,
        cli_op(paths, expected),
        lambda tracer: contextlib.nullcontext(cli_op(paths, expected, tracer)),
        resource.RUSAGE_CHILDREN,
        PROCESS_REFERENCE,
        lambda spans: cold_from_spans(spans, items),
        failures,
    )


PREPARE = {
    "acceptance": prepare_batch,
    "stratified": prepare_batch,
    "scaling": prepare_batch,
    "cli_oneshot": prepare_cli,
}


@dataclass
class Result:
    attempted: int
    failures: list[tuple[int, str]]
    metrics: dict
    detail: dict


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Untraced closed loop for the end-to-end metrics; with ``trace`` half
    the time untraced and half traced (whole passes) for the per-layer ones."""
    p = PREPARE[name](name, seed)
    gc.collect()
    gc.freeze()  # keep the corpus and set-up objects out of later collections
    m = measure(
        p.untraced, p.items, seconds / 2 if trace else seconds, p.reference, after_pass=p.setups.spread
    )
    p.setups.until(SETUP_REPS)
    failures = p.failures + m.failures
    attempted = p.warm * len(p.setups.seconds) + m.attempted
    metrics, detail = end_to_end(m, p.setups, peak_rss_mb(p.rss_who))
    detail.update(corpus_size=len(p.items), digest=m.digest)
    if not trace:
        return Result(attempted, failures, metrics, detail)

    tracer = tracing.Tracer()
    with p.traced(tracer) as op:
        t = measure(op, p.items, seconds / 2, p.reference, whole_passes=True)
    failures += t.failures
    attempted += t.attempted
    if t.digest != m.digest:
        failures.append((-1, "traced output digest differs from the untraced one"))
    per_layer = layer_metrics(tracer.spans, len(p.items) * t.passes)
    per_layer["witness.verify_witness.cold_ms"] = (p.cold_ms(tracer.spans), "ms")
    per_layer.update(process_metrics())
    per_layer.update(input_size(p.items))
    per_layer.update(per_pair(tracer.spans, p.items))
    per_layer["trace.overhead_frac"] = (overhead(m, t), "ratio")
    write_spans(OUT / f"trace-{name}-seed{seed}.json.gz", tracer.spans)
    detail.update(traced_digest=t.digest, traced_passes=t.passes, spans=len(tracer.spans))
    return Result(attempted, failures, per_layer, detail)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(PREPARE), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidsigma" / "__init__.py").is_file():
        print(f"error: no braidsigma package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = list(result.failures)
    expected = json.loads(DIGESTS.read_text()).get(args.workload)
    if args.seed == DEFAULT_SEED and expected != result.detail["digest"]:
        failures.append((-1, f"output digest {result.detail['digest']} != committed {expected}"))
    for i, why in failures[:20]:
        print(f"FAIL character {i}: {why}", file=sys.stderr)

    for name, (value, unit) in result.metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result.detail}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result.attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
