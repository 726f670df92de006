"""Run the benchmark over several seeds and write one result file.

Usage (from the repository root):

    python3 bench/collect.py --workloads acceptance,scaling --seeds 1-10 \\
        --out bench/results/mine.json [--trace 1]

Each run is ``bench/run.py --workload W --seed S --seconds <run_seconds>``
with ``run_seconds`` from BENCHMARK.json.  The result file records the
environment (Python version, nproc, CPU model, git commit), every run's
metrics and sample counts, and per metric the median, the quartiles across
runs and their spread ((q3 - q1) / median).  The table printed at the end
lists the median and spread of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "run_seconds": CONFIG["run_seconds"],
    }


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    detail = next(json.loads(l[7:]) for l in lines if l.startswith("detail "))
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": wall,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "samples": detail.get("samples"),
        "passes": detail.get("passes"),
        "tail_percentile": detail.get("tail_percentile"),
        "tail_chars_beyond": detail.get("tail_chars_beyond"),
    }


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in CONFIG["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds(args.seeds):
        for w in workloads:
            runs[w].append(run_once(w, seed, args.trace))
            print(f"{w} seed {seed}: {runs[w][-1]['wall_s']:.1f} s", file=sys.stderr)

    result = {
        "environment": environment(),
        "trace": args.trace,
        "workloads": {w: {"runs": rs, "summary": summarize(rs)} for w, rs in runs.items()},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for w in workloads:
        for metric in CONFIG["end_to_end"] if args.trace == 0 else []:
            summary = result["workloads"][w]["summary"][metric["name"]]
            print(
                f"{w:<12} {metric['name']:<16} median {summary['median']:<12.6g} "
                f"spread {summary['spread']:.4f} (bound {metric['bound']})"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
