import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from copy import deepcopy
from dataclasses import fields
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import auggen
from auggen import cli, experiment, grading, loop
from auggen.chorale import Chorale, validate
from auggen.cli import main
from auggen.corpus import MAX_CHORALES, Corpus, load_corpus, save_corpus
from auggen.features import realize_batch
from auggen.experiment import (
    ALL_REGIMES,
    ExperimentConfig,
    PROFILES,
    grade_quintuple,
    regime_threshold,
    compare_detailed,
)
from auggen.grading import GradeBatch, grade, grade_quantile, nearest_rank
from auggen.loop import ORIGIN_GENERATED, run, save_run
from auggen.model import MarkovModel
from oracles import recompute_epoch_stats, reference_grade_dump

SMALL = dict(
    teacher_n=14,
    teacher_min_length=16,
    teacher_max_length=24,
    n_generate=4,
    batches=6,
    batch_size=2,
    max_epochs=3,
    patience=None,
    n_eval=6,
    seed=23,
)

# a run directory's summary.json as the report reads it
GOOD_SUMMARY = {
    "regime": "auggen", "best_epoch": 0, "best_val_loss": 1.5, "epochs_ran": 1, "final_grades": [1.5],
    "generated_count": 1, "generated_fraction": 0.5, "true_count": 1,
}
GOOD_RECORD = '{"id":"x","voices":[["60"],["55"],["48"],["41"]]}\n'


@pytest.fixture(scope="module")
def small_compare(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    config = ExperimentConfig(**SMALL)
    summaries, results = compare_detailed(config, out)
    return config, out, summaries, results


def repeating_corpus(tmp_path, out):
    """A corpus of three copies of each of 50 chorales, under ids that csv quotes or not, in more than two grading
    passes; its path, its grade batch against ``out``'s reference, and the bytes of the two files ``auggen grade``
    writes, as :func:`oracles.reference_grade_dump` writes their rows."""
    teacher = tmp_path / "teacher.jsonl"
    assert main(["teacher-gen", "--seed", "5", "--n", "50", "--out", str(teacher)]) == 0
    base = load_corpus(teacher).chorales
    forms = ("c{}", 'c,"{}"', "c\n{}")
    corpus = Corpus(tuple(Chorale.from_codes(form.format(i), c.codes) for form in forms for i, c in enumerate(base)))
    assert len(corpus) > 2 * grading.PASS_SIZE
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, corpus_path)
    reference = grading.ReferenceModel.load(out / "reference.json")
    batch = grade(corpus.chorales, reference)
    grades, features = reference_grade_dump(batch)
    header = ",".join(["chorale_id", *[f"d_{name}" for name in reference.feature_names], "total_grade"]) + "\n"
    expected = (header + grades).encode("utf-8"), ("chorale_id,feature_name,value,weight\n" + features).encode("utf-8")
    return corpus_path, batch, expected


def grade_files(corpus_path, out, prefix) -> tuple[bytes, bytes]:
    """The bytes of ``grades.csv`` and ``features.csv`` that ``auggen grade`` writes for ``corpus_path`` against
    ``out``'s reference, at paths that start with ``prefix``."""
    grades_csv, feats_csv = f"{prefix}-g.csv", f"{prefix}-f.csv"
    args = ["grade", "--corpus", str(corpus_path), "--reference", str(out / "reference.json")]
    assert main(args + ["--out", grades_csv, "--dump-features", feats_csv]) == 0
    return Path(grades_csv).read_bytes(), Path(feats_csv).read_bytes()


# the path flags of each subcommand
COMMAND_PATH_FLAGS = {
    "teacher-gen": ["--out"],
    "grade": ["--corpus", "--reference", "--out", "--dump-features"],
    "train": ["--corpus", "--config", "--out-dir"],
    "compare": ["--corpus", "--config", "--out-dir"],
    "report": ["--run-dir"],
}


def write_small_config(tmp_path, **overrides):
    payload = dict(SMALL)
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestConfig:
    def test_paper_profile_full_scale_defaults(self):
        paper = PROFILES["paper"]
        assert paper.n_generate == 50
        assert paper.batches == 2048
        assert paper.batch_size == 8
        assert paper.max_epochs == 40
        assert paper.n_eval == 351
        assert paper.quantile == 0.75
        assert paper.split_fraction == 0.8

    def test_config_json_roundtrip(self):
        config = ExperimentConfig(**SMALL)
        assert ExperimentConfig.from_json(json.loads(json.dumps(config.to_json()))) == config

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(regimes=())
        with pytest.raises(ValueError):
            ExperimentConfig(regimes=("bogus",))
        with pytest.raises(ValueError):
            ExperimentConfig(quantile=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(features=("nope",))


def four_chorales() -> Corpus:
    return Corpus(tuple(Chorale(id=f"c{i}", voices=((60 + i,), (55,), (48,), (41,))) for i in range(4)))


class TestThresholds:
    def test_auggen_threshold_is_train_quantile(self):
        train = four_chorales()
        grades = [4.0, 1.0, 3.0, 2.0]
        threshold = regime_threshold("auggen", train, dict(zip(train.ids(), grades)), 0.75)
        assert threshold == grade_quantile(grades, 0.75, corpus_digest=train.digest(), label="auggen")
        assert threshold.value == 3.0

    def test_degenerate_regimes(self, monkeypatch):
        # only auggen reads the training split: the baselines need neither its grades nor its digest
        monkeypatch.setattr(Corpus, "digest", lambda self: pytest.fail("digest computed"))
        assert regime_threshold("baseline_none", four_chorales(), {}, 0.75).value == -math.inf
        assert regime_threshold("baseline_all", four_chorales(), {}, 0.75).value == math.inf


class TestCompare:
    def test_all_regimes_present(self, small_compare):
        _, out, summaries, results = small_compare
        assert [s.regime for s in summaries] == list(ALL_REGIMES)
        assert set(results) == set(ALL_REGIMES)
        for regime in ALL_REGIMES:
            assert (out / regime / "metrics.csv").exists()

    def test_baseline_none_generated_fraction_zero(self, small_compare):
        _, _, summaries, _ = small_compare
        by_name = {s.regime: s for s in summaries}
        assert by_name["baseline_none"].generated_count == 0
        assert by_name["baseline_none"].generated_fraction == 0.0

    def test_regime_parity_configs_differ_only_in_threshold(self, small_compare):
        _, out, _, _ = small_compare
        stripped = []
        for regime in ALL_REGIMES:
            payload = json.loads((out / regime / "config.json").read_text(encoding="utf-8"))
            payload.pop("regime")
            payload["loop"].pop("threshold")
            stripped.append(payload)
        assert stripped[0] == stripped[1] == stripped[2]

    def test_reference_identical_across_regimes(self, small_compare):
        _, out, _, _ = small_compare
        blobs = {(out / r / "reference.json").read_bytes() for r in ALL_REGIMES}
        assert len(blobs) == 1

    def test_figure1_matches_independent_recomputation(self, small_compare):
        _, out, _, _ = small_compare
        with open(out / "figure1.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "figure1.csv must not be empty"
        for regime in ALL_REGIMES:
            recomputed = recompute_epoch_stats(out / regime / "epoch_logs.csv")
            for row in rows:
                if row["regime"] != regime:
                    continue
                quint = recomputed[("", int(row["epoch"]))]
                written = tuple(float(row[k]) for k in ("min", "q1", "median", "q3", "max"))
                assert written == quint

    def test_figure2_sources_and_counts(self, small_compare):
        config, out, _, _ = small_compare
        with open(out / "figure2.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_source = {}
        for row in rows:
            by_source.setdefault(row["source"], []).append(float(row["grade"]))
        assert len(by_source["corpus"]) == config.teacher_n
        for regime in ALL_REGIMES:
            assert len(by_source[regime]) == config.n_eval

    def test_generated_fraction_recomputable_from_manifest(self, small_compare):
        _, out, summaries, _ = small_compare
        for summary in summaries:
            lines = (out / summary.regime / "dataset_manifest.jsonl").read_text(encoding="utf-8").splitlines()
            origins = [json.loads(line)["origin"] for line in lines if line]
            true_count = sum(1 for o in origins if o == "true")
            assert summary.generated_fraction == pytest.approx(1 - true_count / len(origins), abs=1e-12)

    def test_quintuple_definition(self):
        grades = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert grade_quintuple(grades) == (
            1.0,
            nearest_rank(grades, 0.25),
            nearest_rank(grades, 0.5),
            nearest_rank(grades, 0.75),
            5.0,
        )

    def test_failing_regime_flushes_partial_results(self, tmp_path, monkeypatch):
        import auggen.experiment as experiment_module
        from auggen.experiment import RegimeError

        real_run_regime = experiment_module.run_regime

        def explode_on_baseline_all(config, regime, *args, **kwargs):
            if regime == "baseline_all":
                raise RuntimeError("boom")
            return real_run_regime(config, regime, *args, **kwargs)

        monkeypatch.setattr(experiment_module, "run_regime", explode_on_baseline_all)
        out = tmp_path / "partial"
        with pytest.raises(RegimeError) as err:
            compare_detailed(ExperimentConfig(**SMALL), out)
        assert err.value.regime == "baseline_all"
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert [s["regime"] for s in summary] == ["auggen", "baseline_none"]
        with open(out / "figure2.csv", encoding="utf-8", newline="") as fh:
            sources = {row["source"] for row in csv.DictReader(fh)}
        assert sources == {"corpus", "auggen", "baseline_none"}


class TestSharedStart:
    def test_each_regime_from_the_shared_start_writes_what_a_fresh_run_writes(self, tmp_path):
        config = ExperimentConfig(**SMALL)
        prepared = experiment.prepare(config)
        accepted = 0
        for regime in ALL_REGIMES:  # in turn, as a compare runs them, so each starts after the last has run
            threshold = regime_threshold(regime, prepared.split.train, prepared.grade_by_id, config.quantile)
            dirs = []
            for name in ("shared", "fresh"):
                if name == "shared":
                    model, start = prepared.model.copy(), prepared.start
                else:
                    train = prepared.split.train
                    model = MarkovModel.with_vocab_from(train, order=config.markov_order, alpha=config.smoothing)
                    start = None
                result = run(config, threshold, prepared.split, model, prepared.reference, start)
                dirs.append(save_run(result, model, tmp_path / regime / name))
            files = sorted(p.name for p in dirs[0].iterdir())
            assert files == sorted(p.name for p in dirs[1].iterdir())
            for file in files:
                assert (dirs[0] / file).read_bytes() == (dirs[1] / file).read_bytes(), (regime, file)
            accepted += sum(rec.accepted for rec in result.epoch_logs[0].candidates)
        assert accepted  # some regime adds epoch-0 candidates to its dataset

    def test_compare_draws_and_grades_epoch_0_once(self, tmp_path, monkeypatch):
        keys, graded = [], []
        real_sample_batch, real_grade = loop.sample_batch, loop.grade

        def counting_sample_batch(model, length_pool, seed, key, ids):
            keys.append(key)
            return real_sample_batch(model, length_pool, seed, key, ids)

        def counting_grade(chorales, reference):
            graded.append([c.id for c in chorales])
            return real_grade(chorales, reference)

        monkeypatch.setattr(loop, "sample_batch", counting_sample_batch)
        monkeypatch.setattr(loop, "grade", counting_grade)
        compare_detailed(ExperimentConfig(**SMALL), tmp_path / "out")
        epochs = SMALL["max_epochs"]
        assert keys == [("gen", 0)] + [("gen", e) for _ in ALL_REGIMES for e in range(1, epochs)]
        assert [ids[0][:6] for ids in graded] == ["gen-e0"] * (1 + len(ALL_REGIMES) * (epochs - 1))
        # every regime's epoch 0 logs the one batch's ids and grades
        epoch_0 = [
            [row.split(",")[:3] for row in (tmp_path / "out" / regime / "epoch_logs.csv").read_text().splitlines()
             if row.startswith("0,")]
            for regime in ALL_REGIMES
        ]
        assert len(epoch_0[0]) == SMALL["n_generate"] and epoch_0 == [epoch_0[0]] * len(ALL_REGIMES)

    def test_compare_hands_every_regime_but_the_last_a_copy(self, tmp_path, monkeypatch):
        # the last regime trains the untrained model itself, so no copy keeps its event store alive after the others
        handed = []
        real_run_regime = experiment.run_regime

        def recording_run_regime(config, regime, prepared, model, out_dir):
            handed.append(model is prepared.model)
            return real_run_regime(config, regime, prepared, model, out_dir)

        monkeypatch.setattr(experiment, "run_regime", recording_run_regime)
        compare_detailed(ExperimentConfig(**SMALL), tmp_path / "out")
        assert handed == [False] * (len(ALL_REGIMES) - 1) + [True]

    def test_prepare_shares_nothing_between_calls(self):
        config = ExperimentConfig(**SMALL)
        a, b = experiment.prepare(config), experiment.prepare(config)
        assert a.model is not b.model and a.start.state is not b.start.state
        assert a.start.state is a.model.snapshot()
        assert [c.codes for c in a.start.candidates] == [c.codes for c in b.start.candidates]
        assert a.start.totals == b.start.totals


class TestCli:
    @pytest.mark.parametrize("regime", ALL_REGIMES)
    def test_train_writes_what_the_compare_writes_for_its_regime(self, small_compare, tmp_path, regime):
        _, out, _, _ = small_compare
        args = ["train", "--regime", regime, "--config", str(write_small_config(tmp_path))]
        assert main(args + ["--out-dir", str(tmp_path / "train")]) == 0
        files = sorted(p.name for p in (out / regime).iterdir())
        assert sorted(p.name for p in (tmp_path / "train").iterdir()) == files
        for name in files:
            assert (tmp_path / "train" / name).read_bytes() == (out / regime / name).read_bytes(), name

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 17, 2**65])
    def test_teacher_gen_seed_outside_one_word_fails_before_writing(self, tmp_path, capsys, seed):
        # the streams keep a seed's 64 bits: 2**64 + 17 would write seed 17's corpus, and -1 that of 2**64 - 1
        out = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", str(seed), "--n", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --seed must be in 0..{2**64 - 1}, got {seed}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_ends_of_one_word_run(self, tmp_path, seed):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", str(seed), "--n", "3", "--out", str(corpus)]) == 0
        assert len(load_corpus(corpus)) == 3
        config = write_small_config(tmp_path, seed=seed, regimes=["baseline_all"])
        assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        written = json.loads((tmp_path / "out" / "config.json").read_text(encoding="utf-8"))
        assert written["seed"] == seed

    @pytest.mark.parametrize("command", ["compare", "train"])
    @pytest.mark.parametrize("seed", [-1, 2**64 + 17])
    def test_seed_flag_outside_one_word_fails_before_writing(self, tmp_path, capsys, command, seed):
        # the flag is named, not the config file, which holds a good seed
        out = tmp_path / "out"
        args = [command, "--seed", str(seed), "--config", str(write_small_config(tmp_path)), "--out-dir", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: --seed must be in 0..{2**64 - 1}, got {seed}\n"
        assert not out.exists()

    def test_teacher_gen_writes_loadable_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", "3", "--n", "6", "--out", str(out)]) == 0
        assert len(load_corpus(out)) == 6

    def test_train_deterministic_metrics(self, tmp_path):
        config = write_small_config(tmp_path)
        args = ["train", "--regime", "baseline_none", "--config", str(config)]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_train_exits_nonzero_on_missing_corpus(self, tmp_path, capsys):
        config = write_small_config(tmp_path, corpus_path=str(tmp_path / "missing.jsonl"))
        code = main(["train", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code != 0
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, MAX_CHORALES + 1, 10**12])
    def test_teacher_gen_count_out_of_range_fails_before_writing(self, tmp_path, capsys, n):
        out = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--n", str(n), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --n must be in 1..{MAX_CHORALES}, got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "lengths, message",
        [
            (["--min-length", "3"], "--min-length must be >= 4, got 3"),
            (["--min-length", "-1", "--max-length", "10"], "--min-length must be >= 4, got -1"),
            (["--max-length", "31"], "--max-length must be >= --min-length (32), got 31"),
            (["--min-length", "20", "--max-length", "19"], "--max-length must be >= --min-length (20), got 19"),
        ],
    )
    def test_teacher_gen_length_out_of_range_fails_before_writing(self, tmp_path, capsys, lengths, message):
        out = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--n", "5", *lengths, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("message", ["Unable to allocate 14.9 GiB for an array", ""])
    def test_teacher_gen_out_of_memory_prints_one_error_line(self, tmp_path, capsys, monkeypatch, message):
        # the teacher is stubbed to refuse, so nothing is allocated for real
        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "teacher_corpus", refuse)
        out = tmp_path / "x.jsonl"
        args = ["teacher-gen", "--n", "5", "--min-length", "100000000", "--max-length", "100000000"]
        assert main(args + ["--out", str(out)]) == 1
        expected = f"error: out of memory: {message}\n" if message else "error: out of memory\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_compare_out_of_memory_in_prepare_fails_before_writing(self, tmp_path, capsys, monkeypatch):
        # prepare builds the teacher before any regime runs, outside the per-regime RegimeError wrapper
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.1 GiB for an array")

        monkeypatch.setattr(experiment, "teacher_corpus", refuse)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(write_small_config(tmp_path)), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 2.1 GiB for an array\n"
        assert not out.exists()

    def test_failing_regime_prints_one_error_line(self, tmp_path):
        # in a child process, so that stderr holds what the logging set-up of `main` writes as well
        script = "\n".join([
            "import sys",
            "from auggen import cli, experiment",
            "real_run_regime = experiment.run_regime",
            "def run_regime(config, regime, *args, **kwargs):",
            "    if regime == 'baseline_none':",
            "        raise OSError('disk full')",
            "    return real_run_regime(config, regime, *args, **kwargs)",
            "experiment.run_regime = run_regime",
            "sys.exit(cli.main(sys.argv[1:]))",
        ])
        args = ["compare", "--config", str(write_small_config(tmp_path)), "--out-dir", str(tmp_path / "out")]
        env = {**os.environ, "PYTHONPATH": str(Path(auggen.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 1, done.stderr
        assert done.stderr == "error: regime 'baseline_none' failed: disk full\n"

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AUGGEN_OUT_DIR", str(tmp_path / "from_env"))
        config = write_small_config(tmp_path)
        assert main(["train", "--regime", "baseline_none", "--config", str(config)]) == 0
        assert (tmp_path / "from_env" / "metrics.csv").exists()

    def test_grade_command_and_feature_dump(self, small_compare, tmp_path):
        config, out, _, _ = small_compare
        corpus_path = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", str(config.seed), "--n", "6", "--out", str(corpus_path)]) == 0
        grades_csv = tmp_path / "grades.csv"
        feats_csv = tmp_path / "features.csv"
        args = [
            "grade",
            "--corpus", str(corpus_path),
            "--reference", str(out / "reference.json"),
            "--out", str(grades_csv),
            "--dump-features", str(feats_csv),
        ]
        assert main(args) == 0
        with open(grades_csv, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert all(float(row["total_grade"]) >= 0 for row in rows)
        first_bytes = grades_csv.read_bytes()
        assert main(args) == 0
        assert grades_csv.read_bytes() == first_bytes

        with open(feats_csv, encoding="utf-8", newline="") as fh:
            feat_rows = list(csv.DictReader(fh))
        assert set(feat_rows[0]) == {"chorale_id", "feature_name", "value", "weight"}
        by_chorale_feature = {}
        for row in feat_rows:
            key = (row["chorale_id"], row["feature_name"])
            by_chorale_feature.setdefault(key, 0.0)
            by_chorale_feature[key] += float(row["weight"])
        for total in by_chorale_feature.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_grade_dump_realizes_each_chorale_once(self, small_compare, tmp_path, monkeypatch):
        config, out, _, _ = small_compare
        corpus_path = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", str(config.seed), "--n", "4", "--out", str(corpus_path)]) == 0
        calls = []  # the ids each realize_batch call receives, in call order

        def recording_realize_batch(chorales):
            calls.extend(chorale.id for chorale in chorales)
            return realize_batch(chorales)

        monkeypatch.setattr(grading, "realize_batch", recording_realize_batch)
        args = ["grade", "--corpus", str(corpus_path), "--reference", str(out / "reference.json")]
        assert main(args + ["--out", str(tmp_path / "g.csv"), "--dump-features", str(tmp_path / "f.csv")]) == 0
        assert calls == list(load_corpus(corpus_path).ids())

    def test_grade_validates_each_chorale_once(self, small_compare, tmp_path, monkeypatch):
        config, out, _, _ = small_compare
        corpus_path = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", str(config.seed), "--n", "4", "--out", str(corpus_path)]) == 0
        ids = list(load_corpus(corpus_path).ids())
        calls = []

        def counting_validate(chorale):
            calls.append(chorale.id)
            return validate(chorale)

        bindings = [
            (module, name)
            for module_name, module in list(sys.modules.items())
            if module_name == "auggen" or module_name.startswith("auggen.")
            for name, value in vars(module).items()
            if value is validate
        ]
        assert bindings
        for module, name in bindings:
            monkeypatch.setattr(module, name, counting_validate)
        args = ["grade", "--corpus", str(corpus_path), "--reference", str(out / "reference.json")]
        assert main(args + ["--out", str(tmp_path / "g.csv"), "--dump-features", str(tmp_path / "f.csv")]) == 0
        assert calls == ids

    @pytest.mark.parametrize("clash", ["out=dump", "dump=corpus", "out=reference", "out=corpus", "out=corpus_link"])
    def test_grade_rejects_an_output_that_is_an_input_or_the_other_output(
        self, small_compare, tmp_path, capsys, monkeypatch, clash
    ):
        _, out, _, _ = small_compare
        corpus_path, reference_path = tmp_path / "corpus.jsonl", tmp_path / "reference.json"
        assert main(["teacher-gen", "--seed", "5", "--n", "3", "--out", str(corpus_path)]) == 0
        reference_path.write_bytes((out / "reference.json").read_bytes())
        inputs = {path: path.read_bytes() for path in (corpus_path, reference_path)}
        grades_csv, feats_csv = tmp_path / "g.csv", tmp_path / "f.csv"
        if clash == "out=dump":
            feats_csv = grades_csv
        elif clash == "dump=corpus":
            monkeypatch.chdir(tmp_path)
            feats_csv = Path("corpus.jsonl")  # the corpus, spelled relative to the working directory
        elif clash == "out=reference":
            grades_csv = reference_path
        elif clash == "out=corpus":
            grades_csv = corpus_path
        else:
            grades_csv = tmp_path / "link.jsonl"
            os.link(corpus_path, grades_csv)  # another name for the corpus file
            inputs[grades_csv] = inputs[corpus_path]
        args = ["grade", "--corpus", str(corpus_path), "--reference", str(reference_path)]
        assert main(args + ["--out", str(grades_csv), "--dump-features", str(feats_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "is the same file as" in err, err
        assert {path: path.read_bytes() for path in inputs} == inputs
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in inputs)

    @pytest.mark.parametrize("failure", ["unopenable_dump", "error_mid_run"])
    def test_grade_failure_keeps_previous_outputs(self, small_compare, tmp_path, capsys, monkeypatch, failure):
        _, out, _, _ = small_compare
        corpus_path = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", "5", "--n", "3", "--out", str(corpus_path)]) == 0
        grades_csv, feats_csv = tmp_path / "g.csv", tmp_path / "f.csv"
        grades_csv.write_bytes(b"previous grades\n")
        feats_csv.write_bytes(b"previous features\n")
        if failure == "unopenable_dump":
            dump = tmp_path / "nodir" / "f.csv"
        else:
            dump = feats_csv

            def failing_feature_rows(*args):  # after the first pass's grades are written
                raise ValueError("feature rows failed")

            monkeypatch.setattr(cli, "feature_rows", failing_feature_rows)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        args = ["grade", "--corpus", str(corpus_path), "--reference", str(out / "reference.json")]
        assert main(args + ["--out", str(grades_csv), "--dump-features", str(dump)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_grade_formats_each_distinct_float_once_per_run(self, small_compare, tmp_path, monkeypatch):
        # floats repeat from pass to pass; two runs in one process, since the table of float texts belongs to one run
        _, out, _, _ = small_compare
        corpus_path, batch, expected = repeating_corpus(tmp_path, out)
        floats = np.concatenate([batch.distances.ravel(), batch.totals, batch.point_value, batch.point_weight])
        distinct = np.unique(floats.view(np.int64)).size
        assert distinct < floats.size
        formatted = []
        monkeypatch.setattr(cli, "repr", lambda x: formatted.append(x) or repr(x), raising=False)
        for run in ("first", "second"):
            formatted.clear()
            assert grade_files(corpus_path, out, tmp_path / run) == expected
            assert len(formatted) == distinct, run

    def test_grade_starts_its_float_texts_afresh_past_their_bound(self, small_compare, tmp_path, monkeypatch):
        # with room for no text between passes, each pass formats its own distinct floats, into the same bytes
        _, out, _, _ = small_compare
        corpus_path, batch, expected = repeating_corpus(tmp_path, out)
        floats = np.column_stack([batch.distances, batch.totals])
        passes = range(0, len(batch.ids), grading.PASS_SIZE)
        points = np.searchsorted(batch.point_segment, [start * len(batch.feature_names) for start in passes])
        per_pass = sum(
            np.unique(np.concatenate([grade_floats.ravel(), values, weights]).view(np.int64)).size
            for grade_floats, values, weights in zip(
                np.split(floats, passes[1:]),
                np.split(batch.point_value, points[1:]),
                np.split(batch.point_weight, points[1:]),
            )
        )
        run_floats = np.concatenate([floats.ravel(), batch.point_value, batch.point_weight])
        assert per_pass > np.unique(run_floats.view(np.int64)).size  # so the bound is what the count checks
        monkeypatch.setattr(cli, "FLOAT_TEXTS", 0)
        formatted = []
        monkeypatch.setattr(cli, "repr", lambda x: formatted.append(x) or repr(x), raising=False)
        assert grade_files(corpus_path, out, tmp_path / "run") == expected
        assert len(formatted) == per_pass

    def test_grade_writes_ids_holding_line_ends_as_the_csv_reader_reads_them(self, small_compare, tmp_path):
        _, out, _, _ = small_compare
        ids = ["a\nb", "c\rd", "e\r\nf", 'g,"h"']
        corpus_path, grades_csv, feats_csv = tmp_path / "corpus.jsonl", tmp_path / "g.csv", tmp_path / "f.csv"
        assert main(["teacher-gen", "--seed", "5", "--n", "1", "--out", str(corpus_path)]) == 0
        codes = load_corpus(corpus_path).chorales[0].codes
        save_corpus(Corpus(tuple(Chorale.from_codes(i, codes) for i in ids)), corpus_path)
        args = ["grade", "--corpus", str(corpus_path), "--reference", str(out / "reference.json")]
        assert main(args + ["--out", str(grades_csv), "--dump-features", str(feats_csv)]) == 0
        for path in (grades_csv, feats_csv):
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert list(dict.fromkeys(row["chorale_id"] for row in rows)) == ids, path.name

    @pytest.mark.parametrize("command", ["grade", "compare"])
    def test_an_id_that_is_not_utf8_text_fails_in_one_line_that_names_it(
        self, small_compare, tmp_path, capsys, command
    ):
        # JSON decodes "\ud800" to a lone surrogate, which no UTF-8 file can hold
        _, out, _, _ = small_compare
        corpus_path = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", "5", "--n", "3", "--out", str(corpus_path)]) == 0
        records = corpus_path.read_text(encoding="utf-8").splitlines()
        records[1] = json.dumps({**json.loads(records[1]), "id": "\ud800"})
        corpus_path.write_text("\n".join(records) + "\n", encoding="utf-8")
        target = tmp_path / "out"
        args = {
            "grade": ["grade", "--reference", str(out / "reference.json"), "--out", str(target)],
            "compare": ["compare", "--config", str(write_small_config(tmp_path)), "--out-dir", str(target)],
        }[command] + ["--corpus", str(corpus_path)]
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {corpus_path}: line 2: id '\\ud800' is not UTF-8 text (field id)\n"
        assert captured.out == ""
        assert not target.exists()

    @pytest.mark.parametrize(
        "command, flag", [(command, flag) for command, flags in COMMAND_PATH_FLAGS.items() for flag in flags]
    )
    def test_an_empty_path_flag_fails_before_reading_or_writing(
        self, small_compare, tmp_path, capsys, monkeypatch, command, flag
    ):
        # an empty path names no file: it would otherwise mean the current directory, the default or no file at all
        assert {f for flags in COMMAND_PATH_FLAGS.values() for f in flags} == set(cli.PATH_FLAGS)
        _, out, _, _ = small_compare
        inputs, work = tmp_path / "inputs", tmp_path / "work"
        inputs.mkdir()
        work.mkdir()
        corpus = inputs / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", "5", "--n", "20", "--out", str(corpus)]) == 0
        paths = {
            "--corpus": corpus, "--reference": out / "reference.json", "--out": work / "out.csv",
            "--dump-features": work / "features.csv", "--config": write_small_config(inputs), "--out-dir": work / "run",
            "--run-dir": out / "auggen",
        }
        monkeypatch.chdir(work)
        monkeypatch.delenv(experiment.OUT_DIR_ENV, raising=False)
        args = [command] + [a for f in COMMAND_PATH_FLAGS[command] for a in (f, "" if f == flag else str(paths[f]))]
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: {flag} must not be empty\n")
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("which", ["out", "dump"])
    def test_grade_names_the_output_path_it_cannot_write(self, small_compare, tmp_path, capsys, monkeypatch, which):
        # the error names the path the user gave, not the hidden temporary written in its place
        _, out, _, _ = small_compare
        corpus_path = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", "5", "--n", "3", "--out", str(corpus_path)]) == 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        paths = {"out": "g.csv", "dump": "f.csv"}
        flag = {"out": "--out", "dump": "--dump-features"}[which]
        cases = [("nodir/x.csv", "[Errno 2] No such file or directory: 'nodir/x.csv'"),  # cannot create the temporary
                 ("adir", f"{flag} adir is a directory")]  # a file could not be moved over it
        for path, message in cases:
            paths[which] = path
            capsys.readouterr()
            args = ["grade", "--corpus", str(corpus_path), "--reference", str(out / "reference.json")]
            assert main(args + ["--out", paths["out"], "--dump-features", paths["dump"]]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "corpus.jsonl"]
            assert not any((tmp_path / "adir").iterdir())

    def test_a_corpus_path_on_the_command_line_may_name_a_file_whose_name_is_not_utf8(self, tmp_path, monkeypatch):
        # a file name is bytes, and Python reads the ones that are not UTF-8 as lone surrogates; only a string
        # decoded from JSON must be UTF-8 text
        monkeypatch.chdir(tmp_path)
        name = os.fsdecode(b"c\xff.jsonl")
        assert main(["teacher-gen", "--seed", "5", "--n", "3", "--out", name]) == 0
        argv = ["compare", "--corpus", name, "--config", str(write_small_config(tmp_path))]
        config = cli._build_config(cli.build_parser().parse_args(argv))
        assert config.corpus_path == name
        assert len(experiment.load_or_synthesize_corpus(config)) == 3
        # a config.json echoes that path as JSON, where it is a lone surrogate: read back, --corpus names it again
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(config.to_json(), sort_keys=True), encoding="utf-8")
        argv = ["compare", "--config", str(echo)]
        with pytest.raises(ValueError, match=re.escape(f"{echo}: config key 'corpus_path' must be str | None, got")):
            cli._build_config(cli.build_parser().parse_args(argv))
        assert cli._build_config(cli.build_parser().parse_args(argv + ["--corpus", name])) == config

    def test_grade_empty_corpus_writes_headers(self, small_compare, tmp_path, capsys):
        _, out, _, _ = small_compare
        corpus_path = tmp_path / "empty.jsonl"
        corpus_path.write_text("", encoding="utf-8")
        grades_csv, feats_csv = tmp_path / "grades.csv", tmp_path / "features.csv"
        args = ["grade", "--corpus", str(corpus_path), "--reference", str(out / "reference.json")]
        assert main(args + ["--out", str(grades_csv), "--dump-features", str(feats_csv)]) == 0
        names = json.loads((out / "reference.json").read_text(encoding="utf-8"))["features"]
        header = ",".join(["chorale_id", *[f"d_{n}" for n in names], "total_grade"])
        assert grades_csv.read_text(encoding="utf-8") == header + "\n"
        assert feats_csv.read_text(encoding="utf-8") == "chorale_id,feature_name,value,weight\n"
        assert "graded 0 chorales" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["\n", " \n\t\n\n"], ids=["newline", "blank_lines"])
    def test_a_file_of_blank_lines_is_a_corpus_of_zero_chorales(self, small_compare, tmp_path, capsys, text):
        # grade writes the headers of an empty corpus, and compare cannot split it, as for an empty file
        _, out, _, _ = small_compare
        corpus_path = tmp_path / "blank.jsonl"
        corpus_path.write_text(text, encoding="utf-8")
        grades_csv = tmp_path / "grades.csv"
        args = ["grade", "--corpus", str(corpus_path), "--reference", str(out / "reference.json")]
        assert main(args + ["--out", str(grades_csv)]) == 0
        assert grades_csv.read_text(encoding="utf-8").count("\n") == 1
        assert capsys.readouterr().out.startswith("graded 0 chorales")
        args = ["compare", "--config", str(write_small_config(tmp_path)), "--corpus", str(corpus_path)]
        assert main(args + ["--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {corpus_path}: corpus of size 0 cannot be split into nonempty parts\n"
        assert not (tmp_path / "out").exists()

    def test_grade_rejects_non_canonical_pitch_text(self, small_compare, tmp_path, capsys):
        _, out, _, _ = small_compare
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text('{"id":"x","voices":[["060"],["60"],["60"],["60"]]}\n', encoding="utf-8")
        args = ["grade", "--corpus", str(corpus_path), "--reference", str(out / "reference.json")]
        assert main(args + ["--out", str(tmp_path / "g.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "unknown token '060'" in err

    @pytest.mark.parametrize(
        "tamper",
        [
            "unregistered_feature",
            "weights_mismatch",
            "missing_p_empty",
            "missing_support",
            "negative_p_empty",
            "nan_p_empty",
            "negative_weight",
            "string_support",
            "entry_not_object",
            "top_level_list",
            "features_int",
            "features_nested_list",
            "huge_int_support",
            "huge_int_reference_weight",
            "huge_int_weight",
            "huge_int_p_empty",
            "bool_support",
            "bool_reference_weight",
            "provenance_list",
            "unsorted_support",
            "negative_reference_weight",
        ],
    )
    def test_grade_rejects_inconsistent_reference(self, small_compare, tmp_path, capsys, tamper):
        config, out, _, _ = small_compare
        payload = json.loads((out / "reference.json").read_text(encoding="utf-8"))
        if tamper == "unregistered_feature":
            payload["features"][0] = "loudness"
            payload["references"]["loudness"] = payload["references"].pop("pitch")
            payload["weights"]["loudness"] = payload["weights"].pop("pitch")
        elif tamper == "weights_mismatch":
            del payload["weights"]["rhythm"]
        elif tamper == "missing_p_empty":
            del payload["p_empty"]
        elif tamper == "missing_support":
            del payload["references"]["pitch"]["support"]
        elif tamper == "negative_p_empty":
            payload["p_empty"] = -5
        elif tamper == "nan_p_empty":
            payload["p_empty"] = float("nan")
        elif tamper == "negative_weight":
            payload["weights"]["rhythm"] = -1
        elif tamper == "entry_not_object":
            payload["references"]["pitch"] = 5
        elif tamper == "top_level_list":
            payload = [payload]
        elif tamper == "features_int":
            payload["features"] = 5
        elif tamper == "features_nested_list":
            payload["features"] = [[name] for name in payload["features"]]
        elif tamper == "huge_int_support":
            payload["references"]["pitch"]["support"][-1] = 10**400
        elif tamper == "huge_int_reference_weight":
            payload["references"]["pitch"]["weights"][0] = 10**400
        elif tamper == "huge_int_weight":
            payload["weights"]["pitch"] = 10**400
        elif tamper == "huge_int_p_empty":
            payload["p_empty"] = 10**400
        elif tamper == "bool_support":  # a support of [true] reads as [1], so the entry would pass as a number
            payload["references"]["pitch"]["support"] = [True]
            payload["references"]["pitch"]["weights"] = [1.0]
        elif tamper == "bool_reference_weight":
            payload["references"]["pitch"]["support"] = [60]
            payload["references"]["pitch"]["weights"] = [True]
        elif tamper == "provenance_list":  # read back, a list would break digest() and save()
            payload["provenance"] = [1]
        elif tamper == "unsorted_support":
            payload["references"]["pitch"]["support"].reverse()
        elif tamper == "negative_reference_weight":
            payload["references"]["pitch"]["weights"][0] = -1
        else:
            support = payload["references"]["pitch"]["support"]
            payload["references"]["pitch"]["support"] = ["a", *support[1:]]
        reference_path = tmp_path / "reference.json"
        reference_path.write_text(json.dumps(payload), encoding="utf-8")
        corpus_path = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", str(config.seed), "--n", "2", "--out", str(corpus_path)]) == 0
        capsys.readouterr()
        args = ["grade", "--corpus", str(corpus_path), "--reference", str(reference_path), "--out", str(tmp_path / "g.csv")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reference_path}: ") and err.count("\n") == 1, err
        if tamper.startswith("bool_") or tamper in ("unsorted_support", "negative_reference_weight"):
            assert "'pitch'" in err, err

    @pytest.mark.parametrize(
        "bad_input, line",
        [
            ("reference_jsonl", 2),  # two JSON records: "Extra data" where the second starts
            ("reference_not_utf8", 2),
            ("corpus_not_utf8", 3),
        ],
    )
    def test_grade_names_the_file_it_cannot_decode(self, small_compare, tmp_path, capsys, bad_input, line):
        config, out, _, _ = small_compare
        reference_path = tmp_path / "reference.json"
        corpus_path = tmp_path / "corpus.jsonl"
        reference = (out / "reference.json").read_text(encoding="utf-8")
        assert main(["teacher-gen", "--seed", str(config.seed), "--n", "3", "--out", str(corpus_path)]) == 0
        capsys.readouterr()
        if bad_input == "reference_jsonl":
            reference_path.write_text(reference + reference, encoding="utf-8")
        elif bad_input == "reference_not_utf8":  # the one-line reference moved to line 2, with a key that is not UTF-8
            reference_path.write_bytes(b"{\n" + reference.encode("utf-8")[1:].replace(b'"features"', b'"\xff"', 1))
        else:
            reference_path.write_text(reference, encoding="utf-8")
            records = corpus_path.read_bytes().splitlines(keepends=True)
            corpus_path.write_bytes(b"".join(records[:2]) + records[2].replace(b'"id":"', b'"id":"\xff', 1))
        bad = reference_path if bad_input.startswith("reference") else corpus_path
        grades_csv = tmp_path / "g.csv"
        assert main(["grade", "--corpus", str(corpus_path), "--reference", str(reference_path), "--out", str(grades_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line {line}: ") and err.count("\n") == 1, err
        assert not grades_csv.exists()

    @pytest.mark.parametrize(
        "flag, contents, message",
        [
            pytest.param(
                "--corpus", '{"voices":[["60"],["55"],["48"],["41"]]}\n', "line 1: missing or non-string 'id' (field id)",
                id="corpus_missing_id",
            ),
            pytest.param(
                "--corpus", '\n{"id":"x","voices":[["60"],["55"],["48"],["060"]]}\n',
                "line 2: unknown token '060' (field voices[3][0])", id="corpus_unknown_token",
            ),
            pytest.param("--corpus", GOOD_RECORD + GOOD_RECORD, "duplicate chorale id 'x'", id="corpus_duplicate_id"),
            pytest.param(
                "--corpus", GOOD_RECORD + "[" * 100_000 + "]" * 100_000 + "\n",
                "line 2: not valid JSON: nested too deeply", id="corpus_nested_too_deeply",
            ),
            pytest.param(
                "--reference", "[" * 100_000 + "]" * 100_000, "JSON nested too deeply to decode", id="reference_nested_too_deeply"
            ),
            pytest.param("--reference", '{"format": "nope"}', "unrecognized reference format 'nope'", id="reference_format"),
        ],
    )
    def test_grade_names_the_file_of_a_bad_record(self, small_compare, tmp_path, capsys, flag, contents, message):
        _, out, _, _ = small_compare
        bad, good_corpus, grades_csv = tmp_path / "bad", tmp_path / "good.jsonl", tmp_path / "g.csv"
        bad.write_text(contents, encoding="utf-8")
        good_corpus.write_text(GOOD_RECORD, encoding="utf-8")
        files = {"--corpus": good_corpus, "--reference": out / "reference.json", flag: bad}
        assert main(["grade", *[str(arg) for item in files.items() for arg in item], "--out", str(grades_csv)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not grades_csv.exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"bogus": 1},
            {"n_generate": -1},
            {"batches": 0},
            {"markov_order": 0},
            {"split_fraction": 1.5},
            {"teacher_n": 0},
            pytest.param({"n_generate": "5"}, id="n_generate_str"),
            pytest.param({"smoothing": "x"}, id="smoothing_str"),
            pytest.param({"features": 3}, id="features_int"),
            pytest.param([1], id="top_level_list"),
            pytest.param({"min_improvement": math.nan}, id="min_improvement_nan"),
            pytest.param({"min_improvement": math.inf}, id="min_improvement_inf"),
            pytest.param({"smoothing": math.nan}, id="smoothing_nan"),
            pytest.param({"smoothing": math.inf}, id="smoothing_inf"),
            pytest.param({"p_empty": math.nan}, id="p_empty_nan"),
            pytest.param({"p_empty": math.inf}, id="p_empty_inf"),
            pytest.param({"markov_order": 6}, id="markov_order_6"),
            pytest.param({"smoothing": 1e308}, id="smoothing_overflow"),
            pytest.param({"smoothing": 5e-324}, id="smoothing_underflow"),
            pytest.param({"batches": 100_000_000, "batch_size": 100_000_000}, id="draws_over_count_limit"),
            pytest.param({"teacher_max_length": 100_000_000}, id="teacher_length_over_count_limit"),
            pytest.param({"weights": {"pitch": 1e308}}, id="weights_overflow"),
            pytest.param({"p_empty": 1e308}, id="p_empty_overflow"),
            pytest.param({"regimes": ["auggen", "auggen"]}, id="regimes_duplicate"),
            # integers beyond the largest float: float() of them overflows
            pytest.param({"smoothing": 10**400}, id="smoothing_huge_int"),
            pytest.param({"p_empty": 10**400}, id="p_empty_huge_int"),
            pytest.param({"weights": {"pitch": 10**400}}, id="weights_huge_int"),
            pytest.param({"min_improvement": 10**400}, id="min_improvement_huge_int"),
            # counts that each size a list of chorales or ids
            pytest.param({"n_eval": 10**12}, id="n_eval_huge"),
            pytest.param({"n_generate": 10**12}, id="n_generate_huge"),
            pytest.param({"teacher_n": 10**12}, id="teacher_n_huge"),
            pytest.param({"n_eval": MAX_CHORALES + 1}, id="n_eval_over_limit"),
            # the streams keep a seed's 64 bits: 2**64 + 17 would draw seed 17's numbers
            pytest.param({"seed": 2**64 + 17}, id="seed_over_64_bits"),
            pytest.param({"seed": -1}, id="seed_negative"),
        ],
        ids=lambda override: next(iter(override)),
    )
    def test_bad_config_fails_before_writing(self, tmp_path, capsys, override):
        if isinstance(override, dict):
            config = write_small_config(tmp_path, **override)
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(override), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(config), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_deeply_nested_config_fails_with_one_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(config), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {config}: JSON nested too deeply to decode\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, contents, line",
        [
            pytest.param("--config", b"{bad", 1, id="config_not_json"),
            pytest.param("--config", b'{"seed": 3,\n"bogus": "\xff"}', 2, id="config_not_utf8"),
            pytest.param("--corpus", None, 3, id="corpus_not_utf8"),
        ],
    )
    def test_undecodable_file_fails_before_writing(self, tmp_path, capsys, flag, contents, line):
        bad = tmp_path / "bad"
        if contents is None:  # a corpus whose third record holds a byte that is not UTF-8
            assert main(["teacher-gen", "--seed", "5", "--n", "4", "--out", str(bad)]) == 0
            capsys.readouterr()
            records = bad.read_bytes().splitlines(keepends=True)
            contents = b"".join(records[:2]) + records[2].replace(b'"id":"', b'"id":"\xff', 1) + b"".join(records[3:])
        bad.write_bytes(contents)
        config = bad if flag == "--config" else write_small_config(tmp_path)
        out = tmp_path / "out"
        args = ["compare", "--config", str(config), "--out-dir", str(out)]
        assert main(args + ["--corpus", str(bad)] if flag == "--corpus" else args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line {line}: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("teacher_max_length", [24, 64])
    def test_corpus_too_long_for_count_table_fails_before_writing(self, tmp_path, capsys, teacher_max_length):
        # 2**24 draws fit the count table at 24 timesteps, but not at the corpus's 32 or more; the config's teacher
        # settings are not checked, since no teacher corpus is made, even where 64 timesteps would not fit
        corpus_path = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", "5", "--n", "2", "--min-length", "32", "--out", str(corpus_path)]) == 0
        config = write_small_config(tmp_path, batches=2**22, batch_size=4, teacher_max_length=teacher_max_length)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["compare", "--config", str(config), "--corpus", str(corpus_path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus_path}: the longest chorale (") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "train"])
    @pytest.mark.parametrize(
        "records, message",
        [
            pytest.param([], "corpus of size 0 cannot be split into nonempty parts", id="no_chorale"),
            pytest.param([GOOD_RECORD], "corpus of size 1 cannot be split into nonempty parts", id="one_chorale"),
            pytest.param(
                [f'{{"id":"r{i}","voices":[["R","R"],["R","R"],["R","R"],["R","R"]]}}\n' for i in range(5)],
                "corpus yields zero events for feature 'pitch'",
                id="only_rests",
            ),
        ],
    )
    def test_corpus_without_a_split_or_a_critic_fails_in_one_line_that_names_it(
        self, tmp_path, capsys, command, records, message
    ):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("".join(records), encoding="utf-8")
        out = tmp_path / "out"
        args = [command, "--config", str(write_small_config(tmp_path)), "--corpus", str(corpus_path)]
        assert main(args + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {corpus_path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "train"])
    def test_corpus_holding_a_candidate_id_fails_in_one_line_that_names_it(
        self, small_compare, tmp_path, capsys, command
    ):
        # fed back as a corpus, a run's accepted candidates hold the ids the run gives its candidates
        _, out, _, _ = small_compare
        corpus_path = out / "baseline_all" / "generated.jsonl"
        first = load_corpus(corpus_path).ids()[0]
        assert first.startswith("gen-e000-c")
        args = [command, "--config", str(write_small_config(tmp_path)), "--corpus", str(corpus_path)]
        assert main(args + ["--out-dir", str(tmp_path / "out")]) == 1
        message = f"chorale id {first!r} is the id this run gives candidate {int(first[-3:])} of epoch 0"
        assert capsys.readouterr().err == f"error: {corpus_path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_corpus_ids_that_no_candidate_takes_are_kept(self, tmp_path):
        # SMALL draws 4 candidates in each of 3 epochs: gen-e000-c000 .. gen-e002-c003
        free = ["gen-e003-c000", "gen-e000-c004", "gen-e0001-c000", "gen-e1-c1", "gen-e000-c000x", "gen-e" + "9" * 40]
        teacher, corpus_path = tmp_path / "teacher.jsonl", tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", "5", "--n", str(len(free)), "--out", str(teacher)]) == 0
        records = [json.loads(line) for line in teacher.read_text(encoding="utf-8").splitlines()]
        for taken in (None, "gen-e002-c003"):
            ids = free if taken is None else [*free[:-1], taken]
            lines = [json.dumps({**record, "id": cid}) + "\n" for record, cid in zip(records, ids)]
            corpus_path.write_text("".join(lines), encoding="utf-8")
            config = ExperimentConfig(**{**SMALL, "corpus_path": str(corpus_path)})
            if taken is None:
                assert sorted(experiment.prepare(config).grade_by_id) == sorted(free)
            else:
                message = f"{corpus_path}: chorale id '{taken}' is the id this run gives candidate 3 of epoch 2"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    experiment.prepare(config)

    def test_compare_cli_reruns_byte_identical(self, tmp_path):
        config = write_small_config(tmp_path)
        for name in ("x", "y"):
            assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / name)]) == 0
        for rel in ["figure1.csv", "figure2.csv"] + [f"{r}/{f}" for r in ALL_REGIMES for f in ("metrics.csv", "epoch_logs.csv")]:
            assert (tmp_path / "x" / rel).read_bytes() == (tmp_path / "y" / rel).read_bytes(), rel

    def test_report_recomputes_stats(self, small_compare, capsys):
        _, out, _, results = small_compare
        # figure1.csv is written from the summaries in memory, the report from each run's epoch_logs.csv
        figure1 = list(csv.reader(io.StringIO((out / "figure1.csv").read_text(encoding="utf-8"))))
        for regime, result in results.items():
            capsys.readouterr()
            assert main(["report", "--run-dir", str(out / regime)]) == 0
            printed = capsys.readouterr().out
            assert printed.startswith("epoch,min,q1,median,q3,max\n")
            total, generated = len(result.manifest), sum(e.origin == ORIGIN_GENERATED for e in result.manifest)
            assert printed.endswith("\n"), regime
            quintuples, dataset = printed[:-1].rsplit("\n", 1)
            assert dataset == f"# dataset: {total} chorales, {generated} generated ({generated / total:.3f} of total)", (
                regime
            )
            rows = [row[1:] for row in figure1[1:] if row[0] == regime]
            assert rows and list(csv.reader(io.StringIO(quintuples)))[1:] == rows, regime

    def test_report_missing_dir_fails(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert "epoch_logs.csv" in captured.err and "summary.json" in captured.err

    def test_report_summarises_compare_directory(self, small_compare, capsys):
        config, out, summaries, _ = small_compare
        assert main(["report", "--run-dir", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == [
            "regime", "best_epoch", "best_val_loss", "epochs_ran", "generated_count", "generated_fraction",
            "final_median", "final_iqr",
        ]
        assert [row[0] for row in rows[1:]] == list(config.regimes)
        for row, summary in zip(rows[1:], summaries, strict=True):
            grades = summary.final_grades
            median = nearest_rank(grades, 0.5)
            iqr = nearest_rank(grades, 0.75) - nearest_rank(grades, 0.25)
            assert row == [
                summary.regime,
                str(summary.best_epoch),
                repr(summary.best_val_loss),
                str(summary.epochs_ran),
                str(summary.generated_count),
                repr(summary.generated_fraction),
                repr(median),
                repr(iqr),
            ]

    def test_report_quotes_a_regime_holding_a_line_end(self, small_compare, tmp_path, capsys):
        # before Python 3.13 csv.writer quotes a lone \r only when it is in the line terminator
        _, out, _, _ = small_compare
        summaries = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        regimes = ["a\rb", "c\nd", "e\r\nf"]
        for summary, regime in zip(summaries, regimes, strict=True):
            summary["regime"] = regime
        (tmp_path / "summary.json").write_text(json.dumps(summaries), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert '\n"a\rb",' in printed
        assert [row[0] for row in csv.reader(io.StringIO(printed, newline=""))][1:] == regimes

    @pytest.mark.parametrize(
        "tamper",
        [
            "not_json",
            "not_list",
            "entry_not_object",
            "missing_key",
            "missing_final_grades",
            "grades_not_list",
            "empty_grades",
            "text_grade",
            "bool_grade",
            "nan_grade",
            "inf_grade",
            "huge_int_grade",
            "text_best_epoch",
            "null_best_val_loss",
            "list_epochs_ran",
            "bool_generated_count",
            "list_regime",
            "surrogate_regime",
            "float_best_epoch",
            "inf_generated_fraction",
        ],
    )
    def test_report_malformed_summary_fails(self, small_compare, tmp_path, capsys, tamper):
        _, out, _, _ = small_compare
        summaries = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        last = summaries[-1]  # the earlier entries are well formed, so nothing may be printed for them either
        if tamper == "not_list":
            summaries = last
        elif tamper == "entry_not_object":
            summaries[-1] = 5
        elif tamper == "missing_key":
            del last["best_epoch"]
        elif tamper == "missing_final_grades":
            del last["final_grades"]
        elif tamper == "grades_not_list":
            last["final_grades"] = 4.5
        elif tamper == "empty_grades":
            last["final_grades"] = []
        elif tamper == "text_grade":
            last["final_grades"][0] = "4.5"
        elif tamper == "bool_grade":
            last["final_grades"][0] = True
        elif tamper == "nan_grade":
            last["final_grades"][0] = math.nan
        elif tamper == "inf_grade":
            last["final_grades"][0] = math.inf
        elif tamper == "huge_int_grade":
            last["final_grades"][0] = 10**400
        elif tamper == "text_best_epoch":
            last["best_epoch"] = "zero"
        elif tamper == "null_best_val_loss":
            last["best_val_loss"] = None
        elif tamper == "list_epochs_ran":
            last["epochs_ran"] = [1]
        elif tamper == "bool_generated_count":
            last["generated_count"] = True
        elif tamper == "list_regime":
            last["regime"] = ["a"]
        elif tamper == "surrogate_regime":  # JSON decodes it to a lone surrogate, which stdout cannot encode
            last["regime"] = "\ud800"
        elif tamper == "float_best_epoch":
            last["best_epoch"] = 1.0
        elif tamper == "inf_generated_fraction":
            last["generated_fraction"] = math.inf
        path = tmp_path / "summary.json"
        path.write_text("not json" if tamper == "not_json" else json.dumps(summaries), encoding="utf-8")
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert str(path) in captured.err

    @pytest.mark.parametrize(
        "logs, summary, bad_file, where",
        [
            pytest.param("epoch,candidate_id\n0,g0\n", GOOD_SUMMARY, "epoch_logs.csv", "", id="no_grade_column"),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n0,g1,abc\n", GOOD_SUMMARY, "epoch_logs.csv", "line 3", id="text_grade"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\nx,g1,2.5\n", GOOD_SUMMARY, "epoch_logs.csv", "line 3", id="text_epoch"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n0,g1\n", GOOD_SUMMARY, "epoch_logs.csv", "line 3", id="short_row"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n0,g1,nan\n", GOOD_SUMMARY, "epoch_logs.csv", "line 3", id="nan_grade"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,inf\n0,g1,1.5\n", GOOD_SUMMARY, "epoch_logs.csv", "line 2", id="inf_grade"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n1,g1,-inf\n", GOOD_SUMMARY, "epoch_logs.csv", "line 3", id="neg_inf_grade"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n1_0,g1,2.5\n", GOOD_SUMMARY, "epoch_logs.csv", "line 3",
                id="underscore_epoch",
            ),
            pytest.param(
                "epoch,candidate_id,grade\n\u0661,g0,1.5\n", GOOD_SUMMARY, "epoch_logs.csv", "line 2",
                id="arabic_indic_epoch",
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n0,g1,1_0.5\n", GOOD_SUMMARY, "epoch_logs.csv", "line 3",
                id="underscore_grade",
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n0," + "g" * 200_000 + ",2.5\n1,g2,3.5\n",
                GOOD_SUMMARY,
                "epoch_logs.csv",
                "line 3: field larger than field limit",
                id="oversized_csv_field",
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n",
                {key: value for key, value in GOOD_SUMMARY.items() if key != "true_count"},
                "summary.json",
                "summary is missing key(s) ['true_count']",
                id="summary_missing_count",
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n",
                {**GOOD_SUMMARY, "generated_count": True},
                "summary.json",
                "summary key 'generated_count' must be int, got True",
                id="summary_bool_count",
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n",
                {**GOOD_SUMMARY, "true_count": -1},
                "summary.json",
                "summary: true_count and generated_count must be >= 0, not both 0, got -1 and 1",
                id="summary_negative_count",
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n",
                {**GOOD_SUMMARY, "true_count": 0, "generated_count": 0},
                "summary.json",
                "summary: true_count and generated_count must be >= 0, not both 0, got 0 and 0",
                id="summary_zero_total",
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n", "not json", "summary.json", "line 1: Expecting value",
                id="summary_not_json",
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n",
                "[" * 100_000 + "]" * 100_000,
                "summary.json",
                "JSON nested too deeply to decode",
                id="summary_nested_too_deeply",
            ),
        ],
    )
    def test_report_malformed_run_dir_fails(self, tmp_path, capsys, logs, summary, bad_file, where):
        # both files are checked in full before anything goes to stdout
        (tmp_path / "epoch_logs.csv").write_text(logs, encoding="utf-8")
        text = summary if isinstance(summary, str) else json.dumps(summary)
        (tmp_path / "summary.json").write_text(text, encoding="utf-8")
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert str(tmp_path / bad_file) in captured.err
        assert where in captured.err


def written_rows(batch: GradeBatch, table: dict[int, str]) -> tuple[str, str]:
    """The ``grades.csv`` and ``features.csv`` rows of ``batch`` as ``auggen grade`` writes a pass, with ``table``
    as the run's float texts."""
    ids = cli.csv_fields([chorale_id, ""] for chorale_id in batch.ids)
    names = cli.csv_fields([name, ""] for name in batch.feature_names)
    return cli.grade_rows(batch, ids, table), cli.feature_rows(batch, ids, names, table)


def test_grade_and_feature_rows_match_the_csv_writer_on_the_desk_corpus(desk_corpus, desk_reference):
    batch = grade(desk_corpus.chorales, desk_reference)
    assert batch.point_segment.size > 1000
    assert written_rows(batch, {}) == reference_grade_dump(batch)


def point_batch(ids, names, segments, values, weights, distances=None) -> GradeBatch:
    """A grade batch of support points and distances, zeros if not given; the totals are the distances' row sums."""
    distances = np.zeros((len(ids), len(names))) if distances is None else np.asarray(distances, dtype=float)
    return GradeBatch(
        ids=tuple(ids),
        feature_names=tuple(names),
        distances=distances,
        totals=distances.sum(axis=1),
        point_segment=np.asarray(segments, dtype=np.intp),
        point_value=np.asarray(values, dtype=float),
        point_weight=np.asarray(weights, dtype=float),
    )


# where repr switches notation or sign, and a sum that is not its decimal
AWKWARD_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-05, 0.0001, 0.1 + 0.2, 9999999999999998.0, -1.5, 1 / 3]


def test_grade_and_feature_rows_write_floats_as_repr():
    n = len(AWKWARD_FLOATS)
    distances = np.reshape(AWKWARD_FLOATS, (n // 2, 2))
    batch = point_batch([f"c{i}" for i in range(n // 2)], ["pitch", "rhythm"], [0] * n, AWKWARD_FLOATS,
                        AWKWARD_FLOATS[::-1], distances)
    table: dict[int, str] = {}
    grades, features = written_rows(batch, table)
    assert (grades, features) == reference_grade_dump(batch)
    assert features.splitlines()[0] == "c0,pitch,-0.0,0.3333333333333333"
    assert "c0,pitch,0.0,-1.5" in features.splitlines()
    assert grades.splitlines()[0] == "c0,-0.0,0.0,0.0"
    floats = np.concatenate([distances.ravel(), batch.totals, AWKWARD_FLOATS])
    assert table == {bits: repr(x) for bits, x in zip(floats.view(np.int64).tolist(), floats.tolist())}
    # a later pass takes every text that the run's table holds from it, and formats none again
    marked = {bits: f"<{text}>" for bits, text in table.items()}
    again = written_rows(batch, marked)
    assert again[1].splitlines()[0] == "c0,pitch,<-0.0>,<0.3333333333333333>"
    assert again[0].splitlines()[0] == "c0,<-0.0>,<0.0>,<0.0>"
    assert len(marked) == len(table)


ids_text = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "0", "é", "ß", "\u0666", "€"]), max_size=6)


@given(
    ids=st.lists(st.one_of(ids_text, st.just(""), st.just('""')), min_size=1, max_size=4),
    data=st.data(),
)
def test_grade_and_feature_rows_quote_ids_as_the_csv_writer_does(ids, data):
    names = ["pitch", "voice_crossing"]
    segments = sorted(data.draw(st.lists(st.integers(0, len(ids) * len(names) - 1), max_size=12)))
    floats = st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    values = data.draw(st.lists(floats, min_size=len(segments), max_size=len(segments)))
    weights = data.draw(st.lists(floats, min_size=len(segments), max_size=len(segments)))
    cells = len(ids) * len(names)
    distances = np.reshape(data.draw(st.lists(floats, min_size=cells, max_size=cells)), (len(ids), len(names)))
    with np.errstate(over="ignore"):  # a row sum of two drawn floats may overflow to an infinity, which repr writes
        batch = point_batch(ids, names, segments, values, weights, distances)
    assert written_rows(batch, {}) == reference_grade_dump(batch)


@st.composite
def json_paths(draw, document):
    """A path into the JSON ``document``, a tuple of keys and indices, and the value it leads to. The path goes a
    drawn number of levels down, each step to a drawn member, so a shallow value is drawn as often as a deep one."""
    path, value = (), document
    for _ in range(draw(st.integers(0, 4))):
        if not (isinstance(value, (dict, list)) and value):
            break
        key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
        path, value = (*path, key), value[key]
    return path, value


def replaced(document, path, new):
    """A copy of the JSON ``document`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    copy = deepcopy(document)
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return copy


# drawn text may hold lone surrogates (category Cs), which st.text() leaves out and which JSON's "\ud800" decodes to
CHARACTERS = st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
# what a corruption writes in place of a value; no in-range integer is drawn, since a count key such as n_eval
# allocates in proportion to its value
BAD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(CHARACTERS, max_size=6),
    st.sampled_from([math.nan, math.inf, -math.inf, [], {}]),
    st.lists(st.lists(st.integers(-2, 2), max_size=2), min_size=1, max_size=2),
)
TOO_LARGE_FOR_A_FLOAT = st.sampled_from([2**1024, -(2**1024), 10**400])
CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


@pytest.fixture(scope="module")
def valid_inputs(small_compare, desk_reference, tmp_path_factory):
    """A desk reference and a three-record corpus to grade, as files; and, decoded, that reference, the corpus's
    second record, a compare summary, the summary of that compare's ``auggen`` run directory and a small config
    with every float key. The config names no corpus_path: a missing corpus is reported under its own path."""
    _, out, _, _ = small_compare
    tmp = tmp_path_factory.mktemp("inputs")
    corpus, reference = tmp / "corpus.jsonl", tmp / "reference.json"
    assert main(["teacher-gen", "--seed", "5", "--n", "3", "--out", str(corpus)]) == 0
    desk_reference.save(reference)
    records = corpus.read_text(encoding="utf-8").splitlines()
    return corpus, reference, records, {
        "reference": desk_reference.to_json(),
        "summary": json.loads((out / "summary.json").read_text(encoding="utf-8")),
        "run_dir": out / "auggen",
        "run_summary": json.loads((out / "auggen" / "summary.json").read_text(encoding="utf-8")),
        "config": {**SMALL, "split_fraction": 0.8, "quantile": 0.75, "min_improvement": 1e-4, "smoothing": 0.1,
                   "p_empty": 100.0, "weights": {"pitch": 2.0, "rhythm": 0.5}},
        "corpus": json.loads(records[1]),
    }


def corrupted_epoch_logs(run_dir, data):
    """The text of ``run_dir``'s ``epoch_logs.csv`` with one cell replaced by drawn text."""
    rows = list(csv.reader(io.StringIO((run_dir / "epoch_logs.csv").read_text(encoding="utf-8"), newline="")))
    row = data.draw(st.sampled_from(rows))
    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.text(CHARACTERS))
    text = io.StringIO(newline="")
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


@st.composite
def corrupted_record_bytes(draw, records):
    """A corpus line drawn as raw bytes from the corpus's second record: drawn bytes spliced into it, which may
    not be UTF-8; the record under another record's id; or the record with a value at a drawn JSON path nested
    deeply in arrays or objects, closed or not."""
    record = json.loads(records[1])
    way = draw(st.sampled_from(["splice", "repeat_id", "nest"]))
    if way == "splice":
        line = records[1].encode("utf-8")
        at = draw(st.integers(0, len(line)))
        return line[:at] + draw(st.binary(min_size=1, max_size=8)) + line[at + draw(st.integers(0, 4)) :]
    if way == "repeat_id":
        return json.dumps({**record, "id": json.loads(records[draw(st.sampled_from([0, 2]))])["id"]}).encode("utf-8")
    path, original = draw(json_paths(record))
    depth = draw(st.integers(1, 40) | st.integers(900, 1100) | st.just(100_000))
    opener, closer = draw(st.sampled_from([(b"[", b"]"), (b'{"k":', b"}")]))
    nested = opener * depth + json.dumps(original).encode("utf-8") + closer * depth * draw(st.integers(0, 1))
    return json.dumps(replaced(record, path, "<nested>")).encode("utf-8").replace(b'"<nested>"', nested, 1)


KINDS = ["reference", "summary", "config", "corpus", "corpus_bytes", "config_key", "run_summary", "epoch_logs"]
RUN_FILES = {"run_summary": "summary.json", "epoch_logs": "epoch_logs.csv"}  # the files of a run directory


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40)
def test_a_corrupted_input_fails_in_one_line_that_names_it(valid_inputs, kind, data):
    corpus, reference, records, documents = valid_inputs
    if kind == "config_key":  # a valid config with one key added that no config has
        key = data.draw(st.text(CHARACTERS, max_size=8).filter(lambda k: k not in CONFIG_KEYS))
        text = json.dumps({**documents["config"], key: data.draw(BAD_VALUES)})
    elif kind == "epoch_logs":
        text = corrupted_epoch_logs(documents["run_dir"], data)
    elif kind != "corpus_bytes":
        document = documents[kind]
        path, original = data.draw(json_paths(document))
        bad = data.draw(BAD_VALUES | TOO_LARGE_FOR_A_FLOAT if isinstance(original, float) else BAD_VALUES)
        text = json.dumps(replaced(document, path, bad))
    if kind == "corpus":  # the corrupted record is the second line of three
        text = "\n".join([records[0], text, records[2]]) + "\n"
    if kind == "corpus_bytes":  # the record drawn as raw bytes is the second line of three
        raw = b"\n".join([records[0].encode(), data.draw(corrupted_record_bytes(records)), records[2].encode(), b""])
    else:  # a drawn lone surrogate is written as the 3 bytes UTF-8 would give it, which UTF-8 does not allow
        raw = text.encode("utf-8", "surrogatepass")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bad_file, out = tmp / f"{kind}.json", tmp / "out"
        if kind in RUN_FILES:  # one file of a copied run directory, which report reads
            shutil.copytree(documents["run_dir"], tmp, dirs_exist_ok=True)
            bad_file = tmp / RUN_FILES[kind]
        bad_file.write_bytes(raw)
        args = {
            "reference": ["grade", "--corpus", str(corpus), "--reference", str(bad_file), "--out", str(out)],
            "summary": ["report", "--run-dir", str(tmp)],
            "config": ["compare", "--config", str(bad_file), "--out-dir", str(out)],
            "corpus": ["grade", "--corpus", str(bad_file), "--reference", str(reference), "--out", str(out)],
            "corpus_bytes": ["grade", "--corpus", str(bad_file), "--reference", str(reference), "--out", str(out)],
            "config_key": ["compare", "--config", str(bad_file), "--out-dir", str(out)],
            "run_summary": ["report", "--run-dir", str(tmp)],
            "epoch_logs": ["report", "--run-dir", str(tmp)],
        }[kind]
        # stdout encodes as UTF-8, as a terminal's does, so a lone surrogate written to it fails as it would there
        stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        assert code in ((1,) if kind == "config_key" else (0, 1)), code
        if code == 1:
            err = stderr.getvalue()
            assert err.startswith(f"error: {bad_file}: ") and err.count("\n") == 1, err
            assert not out.exists()
            assert args[0] != "report" or stdout.buffer.getvalue() == b""
