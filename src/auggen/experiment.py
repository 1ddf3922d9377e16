"""Experiment harness: threshold regimes, comparison runs, CSV reports.

A compare run trains one model per regime with identical data, seeds, and
hyperparameters; the regimes differ only in the acceptance threshold:

* ``auggen``         -- threshold at the ``quantile`` nearest-rank grade of
                        the training split (default Q3),
* ``baseline_none``  -- threshold -inf, no generated chorale ever accepted,
* ``baseline_all``   -- threshold +inf, every unique generation accepted.

Outputs are CSV and JSON files, written by :mod:`auggen.corpus`'s writers;
plotting is left to external tools. figure1.csv has the per-epoch grade
quintuples of each regime's generation step; figure2.csv has the corpus
grade list plus the grades of ``n_eval`` fresh generations from each
regime's best snapshot; summary.json has every regime's summary.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import typing
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

from .chorale import REST
from .corpus import Corpus, Split, check_count, check_fields, check_fraction, check_teacher_request, csv_fields
from .corpus import load_corpus, naming, read_text, save_json, save_lines, split, split_manifest, teacher_corpus
from .features import DEFAULT_FEATURES, check_feature_set
from .grading import DEFAULT_P_EMPTY, ReferenceModel, Threshold, feature_weights, fit_reference, grade, grade_quantile
from .grading import nearest_rank
from .loop import ORIGIN_TRUE, CandidateBatch, RunResult, candidate_id, draw_candidates, run, save_run
from .model import MarkovModel, check_events, sample_batch
from .rng import check_seed

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
    p_empty: float = DEFAULT_P_EMPTY
    regimes: tuple[str, ...] = ALL_REGIMES
    quantile: float = 0.75
    n_generate: int = 20  # candidates per epoch
    batches: int = 64  # each epoch refits on batches × batch_size draws, however large the dataset grows
    batch_size: int = 4
    max_epochs: int = 30
    patience: int | None = 5  # None: never stop early
    min_improvement: float = 1e-4
    markov_order: int = 2
    smoothing: float = 0.1
    n_eval: int = 100
    seed: int = 17

    def __post_init__(self) -> None:
        names = check_feature_set(self.features)
        check_fraction(self.split_fraction)
        if not self.regimes:
            raise ValueError("at least one regime is required")
        unknown = [r for r in self.regimes if r not in ALL_REGIMES]
        if unknown:
            raise ValueError(f"unknown regime(s) {unknown}; choose from {ALL_REGIMES}")
        if len(set(self.regimes)) != len(self.regimes):
            raise ValueError(f"regimes {list(self.regimes)} have duplicates")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {self.quantile}")
        check_seed("seed", self.seed)
        check_count("n_eval", self.n_eval, 1)
        if self.batches < 1:
            raise ValueError(f"batches must be >= 1, got {self.batches}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        draws = self.batches * self.batch_size
        check_events(4 * draws, f"batches x batch_size = {draws} draws of 4 or more events each")
        check_count("n_generate", self.n_generate, 0)
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1 or None, got {self.patience}")
        if not 0 <= self.min_improvement < math.inf:
            raise ValueError(f"min_improvement must be finite and >= 0, got {self.min_improvement}")
        # throwaway models run the range checks that MarkovModel and ReferenceModel own
        MarkovModel(order=self.markov_order, alpha=self.smoothing, vocabs=[(REST,)] * 4)
        ReferenceModel(names, {}, feature_weights(names, self.weights), self.p_empty, {})
        if self.corpus_path is None:  # prepare checks a corpus's chorales once it has read them
            lengths = (self.teacher_min_length, self.teacher_max_length)
            check_teacher_request(self.teacher_n, lengths, ("teacher_n", "teacher_min_length", "teacher_max_length"))
            self.check_longest(self.teacher_max_length, "teacher_max_length")

    def check_longest(self, length: int, source: str) -> None:
        """Reject chorales of up to ``length`` timesteps, named ``source`` in the message, if a refit whose
        every draw is that long would exceed the count table's limit (__post_init__ checks one timestep)."""
        draws = self.batches * self.batch_size
        what = f"{source} ({length} timesteps) in each of {draws} draws (batches x batch_size)"
        check_events(4 * draws * length, what)

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
        check_fields(payload, {key: hints[key] for key in payload}, "config")
        return cls(**{key: tuple(v) if typing.get_origin(hints[key]) is tuple else v for key, v in payload.items()})


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


@dataclass(frozen=True)
class Prepared:
    """What every regime of a config starts from; see :func:`prepare`."""

    split: Split
    reference: ReferenceModel
    grade_by_id: dict[str, float]  # every corpus chorale's grade, in corpus order
    model: MarkovModel  # untrained, with the training split encoded; run_regime trains the model it is handed
    start: CandidateBatch  # epoch 0's candidates, drawn from ``model``, and their grades


def prepare(config: ExperimentConfig) -> Prepared:
    """Split, frozen critic, every corpus chorale's grade, and the regimes' common start; writes nothing.

    The only way from a config to the critic, so every entry point and regime sees the same inputs. The
    regimes differ only in their threshold, so they share the untrained model, with the training split in its
    event store, and the epoch-0 candidates and grades that it draws from streams no regime enters.
    """
    corpus = load_or_synthesize_corpus(config)
    # a corpus too long for the count table, that holds a candidate's id, is too small to split or has no events of
    # a feature is an error in its file
    with naming(config.corpus_path):
        if config.corpus_path is not None:
            config.check_longest(max((c.length for c in corpus), default=0), "the longest chorale")
        for cid in corpus.ids():  # the manifest names a chorale by its id, so no candidate may take a corpus id
            numbers = re.findall("[0-9]+", cid)
            if len(numbers) == 2 and max(map(len, numbers)) < 19:  # no run reaches epoch 10**18
                epoch, j = map(int, numbers)
                if epoch < config.max_epochs and j < config.n_generate and candidate_id(epoch, j) == cid:
                    raise ValueError(f"chorale id {cid!r} is the id this run gives candidate {j} of epoch {epoch}")
        data_split = split(corpus, config.split_fraction, config.seed)
        reference = fit_reference(data_split.train, config.features, weights=config.weights, p_empty=config.p_empty)
    grade_by_id = dict(zip(corpus.ids(), grade(corpus.chorales, reference).totals.tolist()))
    model = MarkovModel.with_vocab_from(data_split.train, order=config.markov_order, alpha=config.smoothing)
    model.encode(data_split.train.chorales)
    start = draw_candidates(model, reference, config, 0, [c.length for c in data_split.train])
    return Prepared(data_split, reference, grade_by_id, model, start)


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
    config: ExperimentConfig, regime: str, prepared: Prepared, model: MarkovModel, out_dir: Path
) -> tuple[RunResult, RegimeSummary]:
    """One regime's run from :func:`prepare`'s common start, its threshold taken from the training split's
    grades; trains ``model``, ``prepared.model`` or a copy of it, in place, and writes its artifacts and
    ``summary.json`` into ``out_dir``."""
    data_split, reference = prepared.split, prepared.reference
    threshold = regime_threshold(regime, data_split.train, prepared.grade_by_id, config.quantile)
    result = run(config, threshold, data_split, model, reference, prepared.start)

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
    save_run(result, model, out_dir)
    save_json(summary.to_json(), out_dir / "summary.json")
    return result, summary


def compare_detailed(config: ExperimentConfig, out_dir: str | Path) -> tuple[list[RegimeSummary], dict[str, RunResult]]:
    """Run every configured regime on identical inputs and emit the reports.

    On a regime failure, everything produced so far is still flushed and a
    :class:`RegimeError` naming the regime is raised.
    """
    prepared = prepare(config)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_json(config.to_json(), out / "config.json")
    save_json(split_manifest(prepared.split), out / "split.json")
    prepared.reference.save(out / "reference.json")

    summaries: list[RegimeSummary] = []
    results: dict[str, RunResult] = {}
    failure: RegimeError | None = None
    for i, regime in enumerate(config.regimes):
        # the last regime trains the untrained model itself, so its event store is freed at that regime's first encode
        model = prepared.model.copy() if i < len(config.regimes) - 1 else prepared.model
        try:
            result, summary = run_regime(config, regime, prepared, model, out_dir=out / regime)
        except Exception as exc:  # flush partial results below, then surface
            failure = RegimeError(regime, exc)
            break
        summaries.append(summary)
        results[regime] = result

    figure1 = [[s.regime, epoch, *map(repr, quint)] for s in summaries for epoch, *quint in s.epoch_grade_stats]
    save_lines(csv_fields([["regime", "epoch", "min", "q1", "median", "q3", "max"], *figure1]), out / "figure1.csv")
    figure2 = [["corpus", repr(g)] for g in prepared.grade_by_id.values()]
    figure2 += [[s.regime, repr(g)] for s in summaries for g in s.final_grades]
    save_lines(csv_fields([["source", "grade"], *figure2]), out / "figure2.csv")
    save_json([s.to_json() for s in summaries], out / "summary.json")
    if failure is not None:
        raise failure
    return summaries, results


def resolve_out_dir(cli_value: str | None, default: str) -> Path:
    """CLI flag wins; otherwise the environment override; otherwise the default."""
    if cli_value is not None:
        return Path(cli_value)
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else Path(default)


def epoch_grades(epoch_logs_csv: str | Path) -> dict[int, list[float]]:
    """Each epoch's candidate grades, in file order, from an ``epoch_logs.csv``.

    A missing column, or a cell that is not an integer epoch or a finite grade, raises
    ``ValueError`` naming the file (and the line). A cell must be ASCII with no ``_``, as the
    text of an ``int`` and ``repr`` of a float are.
    """
    grades: dict[int, list[float]] = {}
    with naming(epoch_logs_csv):
        reader = csv.DictReader(io.StringIO(read_text(epoch_logs_csv), newline=""))
        try:
            missing = {"epoch", "grade"} - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"missing column(s) {sorted(missing)}")
            for row in reader:
                try:
                    epoch, value = int(row["epoch"]), float(row["grade"])
                except (TypeError, ValueError) as exc:  # TypeError: a short row leaves the cell None
                    raise ValueError(f"line {reader.line_num}: {exc}") from None
                for cell in (row["epoch"], row["grade"]):  # int() and float() also read "1_0" and non-ASCII digits
                    if not cell.isascii() or "_" in cell:
                        raise ValueError(f"line {reader.line_num}: {cell!r} holds '_' or a non-ASCII character")
                if not math.isfinite(value):  # the critic's grades are finite sums of finite distances
                    raise ValueError(f"line {reader.line_num}: grade {row['grade']!r} is not finite")
                grades.setdefault(epoch, []).append(value)
        except csv.Error as exc:  # a field over the csv module's size limit, say
            # the DictReader counts only the lines of the rows it gave; its reader counts the line it failed on
            raise ValueError(f"line {reader.reader.line_num}: {exc}") from None
    return grades
