"""Experiment harness: threshold regimes, comparison runs, CSV reports.

A compare run trains one model per regime with identical data, seeds, and
hyperparameters; the regimes differ only in the acceptance threshold:

* ``auggen``         -- threshold at the ``quantile`` nearest-rank grade of
                        the training split (default Q3),
* ``baseline_none``  -- threshold -inf, no generated chorale ever accepted,
* ``baseline_all``   -- threshold +inf, every unique generation accepted.

Outputs are CSV only; plotting is left to external tools. figure1.csv has
the per-epoch grade quintuples of each regime's generation step;
figure2.csv has the corpus grade list plus the grades of ``n_eval`` fresh
generations from each regime's best snapshot.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import types
import typing
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

from .chorale import REST
from .corpus import Corpus, Split, load_corpus, save_split_manifest, split, teacher_corpus
from .features import DEFAULT_FEATURES, check_feature_set
from .grading import ReferenceModel, Threshold, fit_reference, grade, grade_quantile, nearest_rank
from .loop import ORIGIN_TRUE, LoopConfig, RunResult, run, save_run
from .model import _MAX_COUNT, MarkovModel, sample_batch

log = logging.getLogger(__name__)

REGIME_AUGGEN = "auggen"
REGIME_NONE = "baseline_none"
REGIME_ALL = "baseline_all"
ALL_REGIMES = (REGIME_AUGGEN, REGIME_NONE, REGIME_ALL)

OUT_DIR_ENV = "AUGGEN_OUT_DIR"


class RegimeError(RuntimeError):
    """A regime run failed; partial results were flushed."""

    def __init__(self, regime: str, cause: BaseException):
        super().__init__(f"regime {regime!r} failed: {cause}")
        self.regime = regime


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a compare run needs; one seed drives all randomness."""

    corpus_path: str | None = None
    teacher_n: int = 80
    teacher_min_length: int = 32
    teacher_max_length: int = 48
    split_fraction: float = 0.8
    features: tuple[str, ...] = DEFAULT_FEATURES
    weights: dict[str, float] | None = None
    p_empty: float = 100.0
    regimes: tuple[str, ...] = ALL_REGIMES
    quantile: float = 0.75
    n_generate: int = 20
    batches: int = 64
    batch_size: int = 4
    max_epochs: int = 30
    patience: int | None = 5
    min_improvement: float = 1e-4
    markov_order: int = 2
    smoothing: float = 0.1
    n_eval: int = 100
    seed: int = 17

    def __post_init__(self) -> None:
        check_feature_set(self.features)
        if not self.regimes:
            raise ValueError("at least one regime is required")
        unknown = [r for r in self.regimes if r not in ALL_REGIMES]
        if unknown:
            raise ValueError(f"unknown regime(s) {unknown}; choose from {ALL_REGIMES}")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {self.quantile}")
        if self.n_eval < 1:
            raise ValueError(f"n_eval must be >= 1, got {self.n_eval}")
        # throwaway instances run the range checks that LoopConfig and MarkovModel own
        self.loop_config(Threshold(value=math.inf, label=REGIME_ALL))
        MarkovModel(order=self.markov_order, alpha=self.smoothing, vocabs=[(REST,)] * 4)
        if self.corpus_path is None:  # prepare checks a corpus's chorales once it has read them
            self.check_longest(self.teacher_max_length, "teacher_max_length")

    def check_longest(self, length: int, source: str) -> None:
        """Reject chorales of up to ``length`` timesteps, named ``source`` in the message, if a refit whose
        every draw is that long would exceed the count table's limit (LoopConfig checks one timestep)."""
        draws = self.batches * self.batch_size
        if 4 * draws * length > _MAX_COUNT:
            raise ValueError(
                f"{source} ({length} timesteps) is too long: {draws} draws (batches x batch_size) that long "
                f"exceed the count table's limit of {_MAX_COUNT} events at 4 events per timestep"
            )

    def loop_config(self, threshold: Threshold) -> LoopConfig:
        """The loop settings of one regime run; regimes differ only in ``threshold``."""
        return LoopConfig(
            n_generate=self.n_generate,
            threshold=threshold,
            batches=self.batches,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            patience=self.patience,
            min_improvement=self.min_improvement,
            seed=self.seed,
        )

    def to_json(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["features"] = list(self.features)
        payload["regimes"] = list(self.regimes)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "ExperimentConfig":
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s) {unknown}")
        hints = typing.get_type_hints(cls)
        for key, value in payload.items():
            if not _json_fits(value, hints[key]):
                expected = hints[key].__name__ if hints[key] in (int, float) else hints[key]
                raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
        kwargs = dict(payload)
        for key in ("features", "regimes"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def _json_fits(value: object, hint: object) -> bool:
    """Whether decoded JSON ``value`` has field type ``hint``; a list stands for a tuple, an int for a float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_json_fits(value, arg) for arg in args)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(_json_fits(item, args[0]) for item in value)
    if origin is dict:
        return isinstance(value, dict) and all(_json_fits(k, args[0]) and _json_fits(v, args[1]) for k, v in value.items())
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


# The paper profile carries full-scale experiment settings; they are
# defaults for real corpora, not benchmark targets. The desk profile
# finishes a full three-regime comparison in seconds.
PROFILES: dict[str, ExperimentConfig] = {
    "desk": ExperimentConfig(),
    "paper": ExperimentConfig(
        teacher_n=351,
        n_generate=50,
        batches=2048,
        batch_size=8,
        max_epochs=40,
        patience=None,
        min_improvement=0.0,
        n_eval=351,
    ),
}


@dataclass(frozen=True)
class RegimeSummary:
    regime: str
    threshold: Threshold
    best_epoch: int
    best_val_loss: float
    epochs_ran: int
    epoch_grade_stats: tuple[tuple[int, float, float, float, float, float], ...]
    final_grades: tuple[float, ...]
    true_count: int
    generated_count: int

    @property
    def generated_fraction(self) -> float:
        return self.generated_count / (self.true_count + self.generated_count)

    def to_json(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["threshold"] = self.threshold.to_json()
        payload["epoch_grade_stats"] = [list(row) for row in self.epoch_grade_stats]
        payload["final_grades"] = list(self.final_grades)
        payload["generated_fraction"] = self.generated_fraction
        return payload


def load_or_synthesize_corpus(config: ExperimentConfig) -> Corpus:
    if config.corpus_path is not None:
        return load_corpus(config.corpus_path)
    return teacher_corpus(
        config.seed,
        config.teacher_n,
        (config.teacher_min_length, config.teacher_max_length),
    )


def prepare(config: ExperimentConfig) -> tuple[Corpus, Split, ReferenceModel, dict[str, float]]:
    """Corpus, split, frozen critic and every corpus chorale's grade by id; writes nothing.

    The only way from a config to the critic, so every entry point and regime sees the same inputs.
    """
    corpus = load_or_synthesize_corpus(config)
    if config.corpus_path is not None:
        config.check_longest(max((c.length for c in corpus), default=0), f"the longest chorale of {config.corpus_path}")
    data_split = split(corpus, config.split_fraction, config.seed)
    reference = fit_reference(data_split.train, config.features, weights=config.weights, p_empty=config.p_empty)
    grade_by_id = dict(zip(corpus.ids(), grade(corpus.chorales, reference).totals.tolist()))
    return corpus, data_split, reference, grade_by_id


def regime_threshold(regime: str, train: Corpus, grade_by_id: Mapping[str, float], quantile: float) -> Threshold:
    """The regime's acceptance threshold; only ``auggen`` reads the training split, its grades and its digest."""
    if regime == REGIME_NONE:
        return Threshold(value=-math.inf, label=REGIME_NONE)
    if regime == REGIME_ALL:
        return Threshold(value=math.inf, label=REGIME_ALL)
    train_grades = [grade_by_id[i] for i in train.ids()]
    return grade_quantile(train_grades, quantile, corpus_digest=train.digest(), label=REGIME_AUGGEN)


def grade_quintuple(grades: Sequence[float]) -> tuple[float, float, float, float, float]:
    return (
        min(grades),
        nearest_rank(grades, 0.25),
        nearest_rank(grades, 0.5),
        nearest_rank(grades, 0.75),
        max(grades),
    )


def run_regime(
    config: ExperimentConfig,
    regime: str,
    data_split: Split,
    reference: ReferenceModel,
    grade_by_id: Mapping[str, float],
    out_dir: Path | None = None,
) -> tuple[RunResult, RegimeSummary]:
    """One regime's run on :func:`prepare`'s outputs, its threshold taken from the training split's grades."""
    threshold = regime_threshold(regime, data_split.train, grade_by_id, config.quantile)
    model = MarkovModel.with_vocab_from(data_split.train, order=config.markov_order, alpha=config.smoothing)
    result = run(config.loop_config(threshold), data_split, model, reference)

    ids = [f"eval-{regime}-{i:04d}" for i in range(config.n_eval)]
    samples = sample_batch(model, [c.length for c in data_split.train], config.seed, ("eval", regime), ids)
    final_grades = grade(samples, reference).totals.tolist()

    stats = tuple(
        (entry.epoch, *grade_quintuple([rec.grade for rec in entry.candidates]))
        for entry in result.epoch_logs
        if entry.candidates
    )
    true_count = sum(1 for e in result.manifest if e.origin == ORIGIN_TRUE)
    summary = RegimeSummary(
        regime=regime,
        threshold=threshold,
        best_epoch=result.best_epoch,
        best_val_loss=result.best_val_loss,
        epochs_ran=len(result.epoch_logs),
        epoch_grade_stats=stats,
        final_grades=tuple(final_grades),
        true_count=true_count,
        generated_count=len(result.manifest) - true_count,
    )
    if out_dir is not None:
        save_run(result, model, out_dir, extra_config={"regime": regime, "experiment": config.to_json()})
        (out_dir / "summary.json").write_text(json.dumps(summary.to_json(), sort_keys=True) + "\n", encoding="utf-8")
    return result, summary


def _write_figure1(path: Path, summaries: Sequence[RegimeSummary]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["regime", "epoch", "min", "q1", "median", "q3", "max"])
        for summary in summaries:
            for epoch, *quint in summary.epoch_grade_stats:
                writer.writerow([summary.regime, epoch, *[repr(x) for x in quint]])


def _write_figure2(path: Path, corpus_grades: Sequence[float], summaries: Sequence[RegimeSummary]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source", "grade"])
        for g in corpus_grades:
            writer.writerow(["corpus", repr(g)])
        for summary in summaries:
            for g in summary.final_grades:
                writer.writerow([summary.regime, repr(g)])


def compare_detailed(config: ExperimentConfig, out_dir: str | Path) -> tuple[list[RegimeSummary], dict[str, RunResult]]:
    """Run every configured regime on identical inputs and emit the reports.

    On a regime failure, everything produced so far is still flushed and a
    :class:`RegimeError` naming the regime is raised.
    """
    corpus, data_split, reference, grade_by_id = prepare(config)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config.to_json(), sort_keys=True) + "\n", encoding="utf-8")
    save_split_manifest(data_split, out / "split.json")
    reference.save(out / "reference.json")

    summaries: list[RegimeSummary] = []
    results: dict[str, RunResult] = {}
    failure: RegimeError | None = None
    for regime in config.regimes:
        try:
            result, summary = run_regime(config, regime, data_split, reference, grade_by_id, out_dir=out / regime)
        except Exception as exc:  # flush partial results below, then surface
            log.error("regime %s failed: %s", regime, exc)
            failure = RegimeError(regime, exc)
            break
        summaries.append(summary)
        results[regime] = result

    _write_figure1(out / "figure1.csv", summaries)
    _write_figure2(out / "figure2.csv", [grade_by_id[i] for i in corpus.ids()], summaries)
    (out / "summary.json").write_text(
        json.dumps([s.to_json() for s in summaries], sort_keys=True) + "\n", encoding="utf-8"
    )
    if failure is not None:
        raise failure
    return summaries, results


def compare(config: ExperimentConfig, out_dir: str | Path) -> list[RegimeSummary]:
    return compare_detailed(config, out_dir)[0]


def resolve_out_dir(cli_value: str | None, default: str) -> Path:
    """CLI flag wins; otherwise the environment override; otherwise the default."""
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else Path(default)


def epoch_grades(epoch_logs_csv: str | Path) -> dict[int, list[float]]:
    """Each epoch's candidate grades, in file order, from an ``epoch_logs.csv``.

    A missing column, or a cell that is not an integer epoch or a finite grade, raises
    ``ValueError`` naming the file (and the line).
    """
    grades: dict[int, list[float]] = {}
    with open(epoch_logs_csv, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"epoch", "grade"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{epoch_logs_csv}: missing column(s) {sorted(missing)}")
        for row in reader:
            try:
                epoch, value = int(row["epoch"]), float(row["grade"])
            except (TypeError, ValueError) as exc:  # TypeError: a short row leaves the cell None
                raise ValueError(f"{epoch_logs_csv}: line {reader.line_num}: {exc}") from None
            if not math.isfinite(value):  # the critic's grades are finite sums of finite distances
                raise ValueError(f"{epoch_logs_csv}: line {reader.line_num}: grade {row['grade']!r} is not finite")
            grades.setdefault(epoch, []).append(value)
    return grades
