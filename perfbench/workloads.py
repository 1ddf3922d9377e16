"""The benchmark's workloads and the checks on their outputs.

A workload turns a seed into inputs (``setup``), runs one operation on
them (``op``, the timed part) and checks what the operation wrote
(``check``). Every workload drives auggen only through its public
functions, one call at a time.

* ``desk-sweep``: ``compare_detailed`` on the desk profile, all three
  regimes, seeds s, s+1, s+2, with early stopping.
* ``paper-slice``: the paper profile, all three regimes, cut to two epochs
  and ``n_eval`` 20; 16,384 draws per epoch, so the count refit dominates.
* ``grade-corpus``: ``auggen grade --dump-features`` through ``cli.main`` on
  2,000 chorales (the teacher corpus in 25 transpositions) against a
  reference fit on a training split; the model does no work after set-up.

An operation is one regime run for the training workloads and one CLI
invocation for ``grade-corpus``. An exception or a failed check marks the
operation failed; it never stops the run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

from auggen import cli, corpus, experiment, grading
from auggen.chorale import Chorale, transpose

DEFAULT_SEED = 17
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]
    digests: dict[str, str]  # artifact path -> SHA-256


def tree_digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def mismatched(digests: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Artifacts whose digest differs from the expected one, or that are missing or extra."""
    return sorted(key for key in digests.keys() | expected.keys() if digests.get(key) != expected.get(key))


def load_expected(name: str) -> dict | None:
    """``{"seed": ..., "digests": {...}}`` blessed for ``name``, if any."""
    path = EXPECTED_DIR / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


class TrainingWorkload:
    """``compare_detailed`` over ``seeds_per_op`` consecutive seeds."""

    setup_in_op = True  # compare_detailed repeats the set-up itself

    def __init__(self, name: str, config: experiment.ExperimentConfig, seeds_per_op: int, expected: dict | None):
        self.name = name
        self.config = config
        self.seeds_per_op = seeds_per_op
        self.expected = expected

    def setup(self, seed: int, work: Path) -> None:
        """The steps ``compare_detailed`` takes before the first epoch of seed ``seed``."""
        config = replace(self.config, seed=seed)
        data = experiment.load_or_synthesize_corpus(config)
        data_split = experiment.split(data, config.split_fraction, config.seed)
        reference = experiment.fit_reference(
            data_split.train, config.features, weights=config.weights, p_empty=config.p_empty
        )
        for chorale in data_split.train:
            experiment.grade(chorale, reference)

    def op(self, seed: int, work: Path, state: None) -> dict:
        results = {}
        for s in range(seed, seed + self.seeds_per_op):
            try:
                results[s] = experiment.compare_detailed(replace(self.config, seed=s), work / str(s))[1]
            except Exception:
                traceback.print_exc()
                results[s] = None
        return results

    def check(self, seed: int, work: Path, results: dict) -> Outcome:
        regimes = self.config.regimes
        failed: set[tuple[int, str]] = set()
        problems: list[str] = []

        def fail(s: int, regime: str, message: str) -> None:
            failed.add((s, regime))
            problems.append(f"seed {s} {regime}: {message}")

        digests: dict[str, str] = {}
        for s, by_regime in results.items():
            out = work / str(s)
            digests.update({f"{s}/{key}": value for key, value in tree_digests(out).items()})
            if by_regime is None:
                for regime in regimes:
                    fail(s, regime, "compare_detailed raised")
                continue
            try:
                validation = set(json.loads((out / "split.json").read_text(encoding="utf-8"))["validation_ids"])
            except (OSError, ValueError, KeyError) as exc:
                for regime in regimes:
                    fail(s, regime, f"split.json: {exc!r}")
                continue
            for regime in regimes:
                result = by_regime.get(regime)
                if result is None:
                    fail(s, regime, "no result")
                    continue
                if result.reference_digest_before != result.reference_digest_after:
                    fail(s, regime, "reference changed during the run")
                try:
                    for message in _regime_violations(out / regime, validation):
                        fail(s, regime, message)
                except (OSError, ValueError, KeyError) as exc:
                    fail(s, regime, repr(exc))

        if self.expected is not None and self.expected["seed"] == seed:
            for key in mismatched(digests, self.expected["digests"]):
                s, rest = key.split("/", 1)
                regime = rest.split("/", 1)[0]
                for r in (regime,) if regime in regimes else regimes:
                    fail(int(s), r, f"digest mismatch: {key}")
        return Outcome(len(results) * len(regimes), len(failed), problems, digests)


def _regime_violations(run_dir: Path, validation: set[str]) -> list[str]:
    """Invariants of one regime's artifacts that hold at every seed."""
    violations = []
    loop_config = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))["loop"]
    threshold = float(loop_config["threshold"]["value"])  # "inf"/"-inf" parse too
    with open(run_dir / "epoch_logs.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["accepted"] == "1" and float(row["grade"]) > threshold:
                violations.append(f"{row['candidate_id']} accepted with grade {row['grade']} > {threshold}")
    manifest = (run_dir / "dataset_manifest.jsonl").read_text(encoding="utf-8").splitlines()
    leaked = validation & {json.loads(line)["id"] for line in manifest if line}
    if leaked:
        violations.append(f"validation ids in the manifest: {sorted(leaked)[:3]}")
    return violations


class GradeCorpusWorkload:
    """``auggen grade --dump-features`` on a transposition-widened teacher corpus."""

    setup_in_op = False

    def __init__(self, name: str, base_n: int, shifts: range, expected: dict | None):
        self.name = name
        self.base_n = base_n
        self.shifts = shifts
        self.expected = expected

    def setup(self, seed: int, work: Path) -> tuple[Path, tuple[str, ...]]:
        base = corpus.teacher_corpus(seed, self.base_n)
        data_split = corpus.split(base, 0.8, seed)
        reference = grading.fit_reference(data_split.train)
        for chorale in data_split.train:  # the critic set-up of `compare` and `train` ends with these
            grading.grade(chorale, reference)
        wide = corpus.Corpus(
            tuple(Chorale(f"{c.id}{k:+03d}", transpose(c, k).voices) for k in self.shifts for c in base)
        )
        work.mkdir(parents=True, exist_ok=True)
        corpus.save_corpus(wide, work / "corpus.jsonl")
        reference.save(work / "reference.json")
        return work, wide.ids()

    def op(self, seed: int, work: Path, state: tuple[Path, tuple[str, ...]]) -> tuple[int | None, tuple[str, ...]]:
        inputs, ids = state
        work.mkdir(parents=True, exist_ok=True)
        argv = [
            "grade",
            "--corpus", str(inputs / "corpus.jsonl"),
            "--reference", str(inputs / "reference.json"),
            "--out", str(work / "grades.csv"),
            "--dump-features", str(work / "features.csv"),
        ]  # fmt: skip
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv), ids
        except Exception:
            traceback.print_exc()
            return None, ids

    def check(self, seed: int, work: Path, raw: tuple[int | None, tuple[str, ...]]) -> Outcome:
        exit_code, expected_ids = raw
        problems = []
        if exit_code != 0:
            problems.append(f"cli.main returned {exit_code}")
        try:
            with open(work / "grades.csv", encoding="utf-8", newline="") as fh:
                ids = tuple(row["chorale_id"] for row in csv.DictReader(fh))
            if ids != expected_ids:
                problems.append(f"grades.csv has {len(ids)} rows for {len(expected_ids)} chorales")
        except (OSError, KeyError) as exc:
            problems.append(repr(exc))
        digests = {name: d for name, d in tree_digests(work).items() if name in ("grades.csv", "features.csv")}
        if self.expected is not None and self.expected["seed"] == seed:
            problems.extend(f"digest mismatch: {key}" for key in mismatched(digests, self.expected["digests"]))
        return Outcome(1, int(bool(problems)), problems, digests)


def default_workloads() -> dict[str, TrainingWorkload | GradeCorpusWorkload]:
    profiles = experiment.PROFILES
    return {
        "desk-sweep": TrainingWorkload("desk-sweep", profiles["desk"], 3, load_expected("desk-sweep")),
        "paper-slice": TrainingWorkload(
            "paper-slice", replace(profiles["paper"], max_epochs=2, n_eval=20), 1, load_expected("paper-slice")
        ),
        "grade-corpus": GradeCorpusWorkload("grade-corpus", 80, range(-12, 13), load_expected("grade-corpus")),
    }
