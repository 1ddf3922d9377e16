"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_bench.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted, that a tampered expected digest makes operations fail, that two
traced runs give identical counts, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

run.bootstrap()

from auggen import experiment  # noqa: E402
from workloads import GradeCorpusWorkload, TrainingWorkload  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRIC_MAP = json.loads((run.ROOT / "perfbench" / "metric_map.json").read_text(encoding="utf-8"))
SEED = 5


def tiny(name: str):
    if name == "desk-sweep":
        config = replace(
            experiment.PROFILES["desk"], teacher_n=10, n_generate=3, batches=4, batch_size=2, max_epochs=3, patience=2, n_eval=2
        )
        return TrainingWorkload(name, config, 3, None)
    if name == "paper-slice":
        config = replace(
            experiment.PROFILES["paper"], teacher_n=10, n_generate=3, batches=8, batch_size=2, max_epochs=2, n_eval=2
        )
        return TrainingWorkload(name, config, 1, None)
    return GradeCorpusWorkload(name, 6, range(-1, 2), None)


@pytest.fixture(autouse=True)
def short_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def emitted(record: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in record["metrics"].items()}


def test_benchmark_json_names_the_workloads_and_bounds():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())


def test_metric_map_covers_every_per_layer_metric_once():
    mapped = [name for group in METRIC_MAP["groups"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(declared("per_layer"))
    end_to_end = set(declared("end_to_end"))
    for group in METRIC_MAP["groups"]:
        for pair in group["moves"] + group.get("unchanged", []):
            metric, workload = pair.split("@")
            assert metric in end_to_end and workload in run.WORKLOAD_NAMES, pair


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_and_traced_counts_repeat(name):
    workload = tiny(name)
    plain = run.run(workload, SEED, 0.01, traced=False)
    assert emitted(plain) == declared("end_to_end")
    assert plain["failed"] == 0 and plain["attempted"] > 0

    first, second = (run.run(workload, SEED, 0.01, traced=True) for _ in range(2))
    assert emitted(first) == declared("per_layer")
    assert first["failed"] == 0
    counts = [n for n, unit in declared("per_layer").items() if unit in ("count", "ratio") and n != "trace.overhead_frac"]
    assert {n: first["metrics"][n]["median"] for n in counts} == {n: second["metrics"][n]["median"] for n in counts}
    assert first["metrics"]["grading.grade.calls"]["median"] > 0


@pytest.mark.parametrize("name, artifact", [("desk-sweep", f"{SEED + 1}/auggen/metrics.csv"), ("grade-corpus", "grades.csv")])
def test_tampered_digest_fails_only_its_operation(name, artifact):
    workload = tiny(name)
    work = run.WORK / f"test-bless-{name}"
    try:
        state = workload.setup(SEED, work / "setup")
        outcome = workload.check(SEED, work / "op", workload.op(SEED, work / "op", state))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert outcome.failed == 0 and artifact in outcome.digests

    workload.expected = {"seed": SEED, "digests": outcome.digests}
    assert run.run(workload, SEED, 0.01, traced=False)["failed"] == 0

    workload.expected = {"seed": SEED, "digests": {**outcome.digests, artifact: "0" * 64}}
    record = run.run(workload, SEED, 0.01, traced=False)  # one operation
    assert record["failed"] == 1 and record["attempted"] == outcome.attempted
    assert record["failed_frac"] > 0


def test_refuses_to_run_without_the_package_sources():
    bare = run.WORK / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", "grade-corpus", "--seed", "1", "--seconds", "1"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
