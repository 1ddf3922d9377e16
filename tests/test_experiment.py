import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import auggen
from auggen import cli, experiment, grading
from auggen.chorale import Chorale, validate
from auggen.cli import feature_rows, main
from auggen.corpus import Corpus, load_corpus
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
from oracles import recompute_epoch_stats, reference_feature_dump

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

GOOD_MANIFEST = '{"origin": "true"}\n'


@pytest.fixture(scope="module")
def small_compare(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    config = ExperimentConfig(**SMALL)
    summaries, results = compare_detailed(config, out)
    return config, out, summaries, results


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


class TestCli:
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

            def failing_feature_rows(batch):  # after the first pass's grades are written
                raise ValueError("feature rows failed")

            monkeypatch.setattr(cli, "feature_rows", failing_feature_rows)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        args = ["grade", "--corpus", str(corpus_path), "--reference", str(out / "reference.json")]
        assert main(args + ["--out", str(grades_csv), "--dump-features", str(dump)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

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
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if tamper.startswith("bool_"):
            assert "'pitch'" in err, err

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
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_corpus_too_long_for_count_table_fails_before_writing(self, tmp_path, capsys):
        # 2**24 draws fit the count table at the teacher's 24 timesteps, but not at the corpus's 32 or more
        corpus_path = tmp_path / "corpus.jsonl"
        assert main(["teacher-gen", "--seed", "5", "--n", "2", "--min-length", "32", "--out", str(corpus_path)]) == 0
        config = write_small_config(tmp_path, batches=2**22, batch_size=4)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["compare", "--config", str(config), "--corpus", str(corpus_path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: the longest chorale of {corpus_path} (") and err.count("\n") == 1, err
        assert not out.exists()

    def test_compare_cli_reruns_byte_identical(self, tmp_path):
        config = write_small_config(tmp_path)
        for name in ("x", "y"):
            assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / name)]) == 0
        for rel in ["figure1.csv", "figure2.csv"] + [f"{r}/{f}" for r in ALL_REGIMES for f in ("metrics.csv", "epoch_logs.csv")]:
            assert (tmp_path / "x" / rel).read_bytes() == (tmp_path / "y" / rel).read_bytes(), rel

    def test_report_recomputes_stats(self, small_compare, capsys):
        _, out, _, _ = small_compare
        assert main(["report", "--run-dir", str(out / "auggen")]) == 0
        printed = capsys.readouterr().out
        assert "epoch,min,q1,median,q3,max" in printed
        assert "# dataset:" in printed

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
        "logs, manifest, bad_file, where",
        [
            pytest.param("epoch,candidate_id,grade\n0,g0,1.5\n", "", "dataset_manifest.jsonl", "", id="empty_manifest"),
            pytest.param("epoch,candidate_id\n0,g0\n", "", "epoch_logs.csv", "", id="no_grade_column"),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n", '{"id": "c0"}\n', "dataset_manifest.jsonl", "line 1", id="no_origin"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n0,g1,abc\n", GOOD_MANIFEST, "epoch_logs.csv", "line 3", id="text_grade"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\nx,g1,2.5\n", GOOD_MANIFEST, "epoch_logs.csv", "line 3", id="text_epoch"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n0,g1\n", GOOD_MANIFEST, "epoch_logs.csv", "line 3", id="short_row"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n0,g1,nan\n", GOOD_MANIFEST, "epoch_logs.csv", "line 3", id="nan_grade"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,inf\n0,g1,1.5\n", GOOD_MANIFEST, "epoch_logs.csv", "line 2", id="inf_grade"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n1,g1,-inf\n", GOOD_MANIFEST, "epoch_logs.csv", "line 3", id="neg_inf_grade"
            ),
            pytest.param(
                "epoch,candidate_id,grade\n0,g0,1.5\n",
                GOOD_MANIFEST + "not json\n",
                "dataset_manifest.jsonl",
                "line 2",
                id="manifest_not_json",
            ),
        ],
    )
    def test_report_malformed_run_dir_fails(self, tmp_path, capsys, logs, manifest, bad_file, where):
        # both files are checked in full before anything goes to stdout
        (tmp_path / "epoch_logs.csv").write_text(logs, encoding="utf-8")
        (tmp_path / "dataset_manifest.jsonl").write_text(manifest, encoding="utf-8")
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert str(tmp_path / bad_file) in captured.err
        assert where in captured.err


def test_feature_rows_match_the_csv_writer_on_the_desk_corpus(desk_corpus, desk_reference):
    batch = grade(desk_corpus.chorales, desk_reference)
    assert batch.point_segment.size > 1000
    assert feature_rows(batch) == reference_feature_dump(batch)


def point_batch(ids, names, segments, values, weights) -> GradeBatch:
    """A grade batch that holds only support points; the dump reads nothing else."""
    empty = np.zeros((len(ids), len(names)))
    return GradeBatch(
        ids=tuple(ids),
        feature_names=tuple(names),
        distances=empty,
        totals=empty.sum(axis=1),
        point_segment=np.asarray(segments, dtype=np.intp),
        point_value=np.asarray(values, dtype=float),
        point_weight=np.asarray(weights, dtype=float),
    )


# where repr switches notation or sign, and a sum that is not its decimal
AWKWARD_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-05, 0.0001, 0.1 + 0.2, 9999999999999998.0, -1.5, 1 / 3]


def test_feature_rows_write_floats_as_repr():
    n = len(AWKWARD_FLOATS)
    batch = point_batch(["a"], ["pitch"], [0] * n, AWKWARD_FLOATS, AWKWARD_FLOATS[::-1])
    rows = feature_rows(batch)
    assert rows == reference_feature_dump(batch)
    assert rows.splitlines()[0] == "a,pitch,-0.0,0.3333333333333333"
    assert "a,pitch,0.0,-1.5" in rows.splitlines()


ids_text = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "0", "é", "ß", "\u0666", "€"]), max_size=6)


@given(
    ids=st.lists(st.one_of(ids_text, st.just(""), st.just('""')), min_size=1, max_size=4),
    data=st.data(),
)
def test_feature_rows_quote_ids_as_the_csv_writer_does(ids, data):
    names = ["pitch", "voice_crossing"]
    segments = sorted(data.draw(st.lists(st.integers(0, len(ids) * len(names) - 1), max_size=12)))
    floats = st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    values = data.draw(st.lists(floats, min_size=len(segments), max_size=len(segments)))
    weights = data.draw(st.lists(floats, min_size=len(segments), max_size=len(segments)))
    batch = point_batch(ids, names, segments, values, weights)
    assert feature_rows(batch) == reference_feature_dump(batch)
