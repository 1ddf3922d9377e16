#!/usr/bin/env python3
"""The auggen benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload desk-sweep --seed 17 --seconds 30 --trace 0

Run from the repository root. The workloads (``workloads.py``) are closed
loops with one caller: each operation starts when the previous one ends.
With ``--trace 0`` the run sets up its inputs several times, then
repeats the workload's operation until ``--seconds`` would be exceeded, and
reports the end-to-end metrics as medians: ``wall_s`` and ``cpu_s`` per
operation, ``setup_s``, and ``peak_rss_mb``, this process's peak resident
memory after set-up and the first operation. With
``--trace 1`` it runs the operation once untraced and once under the span
tracer (``tracer.py``) and reports the per-layer metrics, including the
tracing overhead. Every operation's outputs are checked; at the default seed
against the SHA-256 digests in ``expected/`` (rewritten by ``bless.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Human-readable lines
before it give each metric's median, quartiles and sample count, the
failed fraction, and the machine. The same record, with the machine, is
written to ``.bench_work/results/``; the traced run's spans go to
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3  # set-up runs at least this often in an untraced run,
SETUP_SECONDS = 6.0  # and until this long has been spent on it
WORKLOAD_NAMES = ("desk-sweep", "paper-slice", "grade-corpus")


def bootstrap() -> None:
    """Import auggen from this checkout's sources, single-threaded."""
    if not (SRC / "auggen" / "__init__.py").is_file():
        raise SystemExit(f"error: no auggen sources under {SRC}")
    # numpy reads these when it is first imported, so set them before any auggen import
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside a repository."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Tally:
    """Operations attempted and failed over a run, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, seed: int, seconds: float, work: Path, tally: Tally) -> dict[str, tuple[dict, str]]:
    """End-to-end metrics, name -> (stats, unit), from untraced operations."""
    setups: list[float] = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS:
        start = time.perf_counter()
        state = workload.setup(seed, work / "setup")
        setups.append(time.perf_counter() - start)
    walls: list[float] = []
    cpus: list[float] = []
    began = time.perf_counter()
    while True:
        out = work / f"op{len(walls)}"
        wall, cpu = time.perf_counter(), time.process_time()
        raw = workload.op(seed, out, state)
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
        if len(walls) == 1:  # later operations repeat this one, so the peak does not depend on their number
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        tally.add(workload.check(seed, out, raw))
        shutil.rmtree(out, ignore_errors=True)
        # start another operation only if it should end within the budget
        if time.perf_counter() - began + statistics.median(walls) > seconds:
            break
    return {
        "wall_s": (stats(walls), "s"),
        "cpu_s": (stats(cpus), "s"),
        "setup_s": (stats(setups), "s"),
        "peak_rss_mb": (stats([peak_mb]), "MiB"),
    }


def trace(workload, seed: int, work: Path, tally: Tally) -> tuple[dict[str, tuple[dict, str]], list]:
    """Per-layer metrics from one traced operation, and the baseline per-call rows."""
    from tracer import Tracer, baseline_table

    state = None if workload.setup_in_op else workload.setup(seed, work / "setup")
    start = time.perf_counter()
    raw = workload.op(seed, work / "plain", state)
    plain_s = time.perf_counter() - start
    tally.add(workload.check(seed, work / "plain", raw))

    tracer = Tracer()
    run_id = f"{workload.name}-seed{seed}"
    with tracer.installed(f"{run_id}-setup"):
        if not workload.setup_in_op:
            state = workload.setup(seed, work / "setup")
        tracer.run_id = f"{run_id}-op"
        start = time.perf_counter()
        raw = workload.op(seed, work / "traced", state)
        traced_s = time.perf_counter() - start
    tally.add(workload.check(seed, work / "traced", raw))
    tracer.write(WORK / "traces" / f"{run_id}.jsonl")

    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    return {name: (stats([value]), unit) for name, (value, unit) in metrics.items()}, baseline_table(tracer.spans)


def run(workload, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns the result record."""
    work = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        if traced:
            metrics, baseline = trace(workload, seed, work, tally)
        else:
            metrics, baseline = measure(workload, seed, seconds, work, tally), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "machine": machine(),
        "metrics": {name: {**s, "unit": unit} for name, (s, unit) in metrics.items()},
        "baseline_per_call": [{"row": r, "mean": m, "unit": u, "calls": n} for r, m, u, n in baseline],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
    }


def report(record: dict) -> None:
    name = record["workload"]
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    for row in record["baseline_per_call"]:
        print(f"# per-call {row['row']}: {row['mean']:.4g} {row['unit']} over {row['calls']} calls")
    for metric, s in record["metrics"].items():
        spread = f" (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})" if s["n"] > 1 else ""
        print(f"{name} {metric} = {s['median']:.6g} {s['unit']}{spread}")
    print(f"{name} failed_frac = {record['failed_frac']:.6g} ratio ({record['failed']} of {record['attempted']} operations)")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {m: {"value": s["median"], "unit": s["unit"]} for m, s in record["metrics"].items()},
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement budget of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    bootstrap()
    from workloads import default_workloads

    record = run(default_workloads()[args.workload], args.seed, args.seconds, bool(args.trace))
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
