"""Self-augmenting training loop.

An epoch's stages are consecutive calls in :func:`run`, which holds the
training dataset and the seen keys. :func:`draw_candidates` samples
``n_generate`` candidates and grades them against the frozen reference.
:func:`generation_step` filters them: it accepts every candidate whose grade
passes the threshold and whose canonical key has never been seen (the seen
set starts with every true chorale, train and validation, and absorbs every
candidate ever produced, accepted or not), and :func:`run` appends the
accepted ones to the dataset. :func:`training_step` draws ``batches`` ×
``batch_size`` chorales uniformly with replacement from the augmented
dataset and refits the model on them; that ``fit`` returns the train loss,
the draws scored in draw order. Validation loss on the fixed held-out split
drives best-snapshot selection and optional patience-based early stopping.

No threshold enters epoch 0's candidates and grades, drawn from the
untrained model, so the regimes of a compare share them: :func:`run` can
take them as a :class:`CandidateBatch` and filter it instead of drawing
epoch 0.

Everything is a pure function of (config, threshold, split, model, reference):
rerunning with the same inputs reproduces every file byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .chorale import Chorale, canonical_key
from .corpus import Corpus, Split, csv_fields, json_line, save_corpus, save_json, save_lines
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


@dataclass(frozen=True)
class CandidateBatch:
    """An epoch's candidates, their critic totals, and the model state (a snapshot) they were drawn from."""

    state: object
    candidates: tuple[Chorale, ...]
    totals: tuple[float, ...]


def candidate_id(epoch: int, j: int) -> str:
    """The id of epoch ``epoch``'s candidate ``j``."""
    return f"gen-e{epoch:03d}-c{j:03d}"


def draw_candidates(
    model: MarkovModel, reference: ReferenceModel, config: ExperimentConfig, epoch: int, length_pool: Sequence[int]
) -> CandidateBatch:
    """Sample epoch ``epoch``'s ``n_generate`` candidates from ``model`` and grade them in one call."""
    ids = [candidate_id(epoch, j) for j in range(config.n_generate)]
    candidates = sample_batch(model, length_pool, config.seed, ("gen", epoch), ids)
    return CandidateBatch(model.snapshot(), tuple(candidates), tuple(grade(candidates, reference).totals.tolist()))


def generation_step(seen_keys: set[bytes], batch: CandidateBatch, threshold: Threshold) -> tuple[CandidateRecord, ...]:
    """Filter the current epoch's candidates, ``batch``, in order, adding each one's key to ``seen_keys``."""
    records = []
    for candidate, total in zip(batch.candidates, batch.totals):
        key = canonical_key(candidate)
        duplicate = key in seen_keys
        seen_keys.add(key)
        accepted = total <= threshold.value and not duplicate
        reason = "" if accepted else ("duplicate" if duplicate else "grade")
        records.append(CandidateRecord(candidate.id, total, accepted, reason))
    return tuple(records)


def training_step(
    dataset: Sequence[DatasetEntry], model: MarkovModel, config: ExperimentConfig, epoch: int
) -> tuple[float, np.ndarray]:
    """Draw epoch ``epoch``'s batches uniformly with replacement and refit on the draws;
    returns (train loss over the draws, times each dataset entry was drawn)."""
    rng = stream(config.seed, "train", epoch)
    draws = rng.integers(0, len(dataset), size=config.batches * config.batch_size)
    train_loss = model.fit([entry.chorale for entry in dataset], draws)
    return train_loss, np.bincount(draws, minlength=len(dataset))


def run(
    config: ExperimentConfig,
    threshold: Threshold,
    split: Split,
    model: MarkovModel,
    reference: ReferenceModel,
    start: CandidateBatch | None = None,
) -> RunResult:
    """Run the full loop; see the module docstring for the epoch structure.

    ``start``, if given, is epoch 0's batch, drawn by :func:`draw_candidates` with this run's config, reference
    and training split from the state ``model`` is in; a batch of another state raises ``ValueError``.
    ``model`` is left restored to the best epoch's snapshot.
    """
    if start is not None and start.state is not model.snapshot():
        raise ValueError("the epoch-0 batch was drawn from another model state than the one the run starts from")
    digest_before = reference.digest()

    dataset = [DatasetEntry(c, ORIGIN_TRUE, None) for c in split.train]
    seen_keys = {canonical_key(c) for c in split.train} | {canonical_key(c) for c in split.validation}
    length_pool = [c.length for c in split.train]
    validation = list(split.validation)

    logs: list[EpochLog] = []
    best_epoch, best_val_loss, best_snapshot = -1, math.inf, None
    for epoch in range(config.max_epochs):
        batch = draw_candidates(model, reference, config, epoch, length_pool) if epoch or start is None else start
        candidates = generation_step(seen_keys, batch, threshold)
        accepted = [c for c, rec in zip(batch.candidates, candidates) if rec.accepted]
        del batch  # its snapshot would keep the drawn-from state's count and sampling tables alive through the refit
        dataset.extend(DatasetEntry(c, ORIGIN_GENERATED, epoch) for c in accepted)
        train_loss, counts = training_step(dataset, model, config, epoch)
        val_loss = model.mean_nll(validation)
        logs.append(
            EpochLog(
                epoch=epoch,
                candidates=candidates,
                additions=len(accepted),
                dataset_size=len(dataset),
                train_loss=train_loss,
                val_loss=val_loss,
                draw_counts={dataset[i].chorale.id: n for i, n in enumerate(counts.tolist()) if n},
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
        manifest=tuple(dataset),
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
    save_json(config_payload, out / "config.json")
    epoch_logs = [["epoch", "candidate_id", "grade", "accepted", "reason"]] + [
        [log.epoch, rec.candidate_id, repr(rec.grade), int(rec.accepted), rec.reason]
        for log in result.epoch_logs
        for rec in log.candidates
    ]
    save_lines(csv_fields(epoch_logs), out / "epoch_logs.csv")
    metrics = [["epoch", "additions", "dataset_size", "train_loss", "val_loss"]] + [
        [log.epoch, log.additions, log.dataset_size, repr(log.train_loss), repr(log.val_loss)]
        for log in result.epoch_logs
    ]
    save_lines(csv_fields(metrics), out / "metrics.csv")
    manifest = (
        {"id": e.chorale.id, "origin": e.origin, "acceptance_epoch": e.acceptance_epoch} for e in result.manifest
    )
    save_lines(map(json_line, manifest), out / "dataset_manifest.jsonl")

    generated = Corpus(tuple(entry.chorale for entry in result.manifest if entry.origin == ORIGIN_GENERATED))
    save_corpus(generated, out / "generated.jsonl")

    model.save(out / "best_model.json")
    result.reference.save(out / "reference.json")
    return out
