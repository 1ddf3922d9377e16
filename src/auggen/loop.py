"""Self-augmenting training loop.

Each epoch runs a generation step then a training step. The generation
step samples ``n_generate`` candidates, grades them against the frozen
reference, and appends to the training dataset every candidate whose grade
passes the threshold and whose canonical key has never been seen (the seen
set starts with every true chorale, train and validation, and absorbs every
candidate ever produced, accepted or not). The training step draws
``batches`` × ``batch_size`` chorales uniformly with replacement from the
augmented dataset and rebuilds the model from how often each dataset
chorale was drawn; the train loss scores the draws in draw order. Validation
loss on the fixed held-out split drives best-snapshot selection and
optional patience-based early stopping.

Everything is a pure function of (config, threshold, split, model, reference):
rerunning with the same inputs reproduces every file byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .chorale import Chorale, canonical_key
from .corpus import Corpus, Split, save_corpus
from .grading import ReferenceModel, Threshold, grade
from .model import MarkovModel, sample_batch
from .rng import stream

if TYPE_CHECKING:  # experiment imports this module
    from .experiment import ExperimentConfig

ORIGIN_TRUE = "true"
ORIGIN_GENERATED = "generated"

# the settings that config.json lists under "loop", beside the threshold
_LOOP_KEYS = ("n_generate", "batches", "batch_size", "max_epochs", "patience", "min_improvement", "seed")


@dataclass(frozen=True)
class DatasetEntry:
    chorale: Chorale
    origin: str  # ORIGIN_TRUE or ORIGIN_GENERATED
    acceptance_epoch: int | None  # None for true chorales


@dataclass(frozen=True)
class CandidateRecord:
    candidate_id: str
    grade: float
    accepted: bool
    reason: str  # "", "grade", or "duplicate"


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    candidates: tuple[CandidateRecord, ...]
    additions: int
    dataset_size: int
    train_loss: float
    val_loss: float
    draw_counts: dict[str, int]  # chorale id -> times drawn this epoch, for every chorale drawn at least once


@dataclass
class TrainState:
    """Mutable loop state; the validation set is never touched."""

    dataset: list[DatasetEntry]
    seen_keys: set[tuple]
    epoch: int = 0


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    threshold: Threshold
    epoch_logs: tuple[EpochLog, ...]
    best_epoch: int
    best_val_loss: float
    manifest: tuple[DatasetEntry, ...]
    reference: ReferenceModel
    reference_digest_before: str
    reference_digest_after: str


def generation_step(
    state: TrainState,
    model: MarkovModel,
    reference: ReferenceModel,
    config: ExperimentConfig,
    threshold: Threshold,
    length_pool: Sequence[int],
) -> tuple[CandidateRecord, ...]:
    """Generate ``n_generate`` candidates for the current epoch, grade them in one call, then filter them in order."""
    ids = [f"gen-e{state.epoch:03d}-c{j:03d}" for j in range(config.n_generate)]
    candidates = sample_batch(model, length_pool, config.seed, ("gen", state.epoch), ids)
    records = []
    for candidate, total in zip(candidates, grade(candidates, reference).totals.tolist()):
        key = canonical_key(candidate)
        duplicate = key in state.seen_keys
        state.seen_keys.add(key)
        passes = total <= threshold.value
        accepted = passes and not duplicate
        if accepted:
            state.dataset.append(
                DatasetEntry(chorale=candidate, origin=ORIGIN_GENERATED, acceptance_epoch=state.epoch)
            )
        reason = "" if accepted else ("duplicate" if duplicate else "grade")
        records.append(CandidateRecord(candidate.id, total, accepted, reason))
    return tuple(records)


def training_step(state: TrainState, model: MarkovModel, config: ExperimentConfig) -> tuple[float, np.ndarray]:
    """Draw the epoch's batches uniformly with replacement and refit on the draw counts;
    returns (train loss over the draws, times each dataset entry was drawn)."""
    rng = stream(config.seed, "train", state.epoch)
    draws = rng.integers(0, len(state.dataset), size=config.batches * config.batch_size)
    counts = np.bincount(draws, minlength=len(state.dataset))
    chorales = [entry.chorale for entry in state.dataset]
    model.fit(chorales, counts)
    return model.mean_nll(chorales, draws), counts


def run(
    config: ExperimentConfig, threshold: Threshold, split: Split, model: MarkovModel, reference: ReferenceModel
) -> RunResult:
    """Run the full loop; see the module docstring for the epoch structure.

    ``model`` is left restored to the best epoch's snapshot.
    """
    digest_before = reference.digest()

    state = TrainState(
        dataset=[DatasetEntry(c, ORIGIN_TRUE, None) for c in split.train],
        seen_keys={canonical_key(c) for c in split.train} | {canonical_key(c) for c in split.validation},
    )
    length_pool = [c.length for c in split.train]
    validation = list(split.validation)

    logs: list[EpochLog] = []
    best_epoch, best_val_loss, best_snapshot = -1, math.inf, None
    for epoch in range(config.max_epochs):
        state.epoch = epoch
        before = len(state.dataset)
        candidates = generation_step(state, model, reference, config, threshold, length_pool)
        additions = len(state.dataset) - before
        train_loss, counts = training_step(state, model, config)
        val_loss = model.mean_nll(validation)
        logs.append(
            EpochLog(
                epoch=epoch,
                candidates=candidates,
                additions=additions,
                dataset_size=len(state.dataset),
                train_loss=train_loss,
                val_loss=val_loss,
                draw_counts={state.dataset[i].chorale.id: n for i, n in enumerate(counts.tolist()) if n},
            )
        )
        if val_loss < best_val_loss - config.min_improvement:  # val_loss is finite, so epoch 0 always improves
            best_epoch, best_val_loss, best_snapshot = epoch, val_loss, model.snapshot()
        elif config.patience is not None and epoch - best_epoch >= config.patience:
            break
    model.restore(best_snapshot)

    return RunResult(
        config=config,
        threshold=threshold,
        epoch_logs=tuple(logs),
        best_epoch=best_epoch,
        best_val_loss=best_val_loss,
        manifest=tuple(state.dataset),
        reference=reference,
        reference_digest_before=digest_before,
        reference_digest_after=reference.digest(),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_run(result: RunResult, model: MarkovModel, out_dir: str | Path) -> Path:
    """Write the run artifacts into ``out_dir`` and return that path.

    Files: config.json, epoch_logs.csv, metrics.csv, dataset_manifest.jsonl,
    generated.jsonl (accepted chorales in corpus record format),
    best_model.json (``model``, as :func:`run` left it), reference.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    loop = {key: getattr(result.config, key) for key in _LOOP_KEYS}
    loop["threshold"] = result.threshold.to_json()
    config_payload = {"regime": result.threshold.label, "experiment": result.config.to_json(), "loop": loop}
    (out / "config.json").write_text(json.dumps(config_payload, sort_keys=True) + "\n", encoding="utf-8")

    with open(out / "epoch_logs.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "candidate_id", "grade", "accepted", "reason"])
        for entry in result.epoch_logs:
            for rec in entry.candidates:
                writer.writerow([entry.epoch, rec.candidate_id, repr(rec.grade), int(rec.accepted), rec.reason])

    with open(out / "metrics.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "additions", "dataset_size", "train_loss", "val_loss"])
        for entry in result.epoch_logs:
            writer.writerow(
                [entry.epoch, entry.additions, entry.dataset_size, repr(entry.train_loss), repr(entry.val_loss)]
            )

    with open(out / "dataset_manifest.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for entry in result.manifest:
            fh.write(
                json.dumps(
                    {
                        "id": entry.chorale.id,
                        "origin": entry.origin,
                        "acceptance_epoch": entry.acceptance_epoch,
                    },
                    sort_keys=True,
                )
            )
            fh.write("\n")

    generated = Corpus(tuple(entry.chorale for entry in result.manifest if entry.origin == ORIGIN_GENERATED))
    save_corpus(generated, out / "generated.jsonl")

    model.save(out / "best_model.json")
    result.reference.save(out / "reference.json")
    return out
