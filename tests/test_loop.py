import filecmp
import math
from collections import Counter

import pytest

from auggen.chorale import HOLD, Chorale, canonical_key
from auggen.corpus import Corpus, split, teacher_corpus
from auggen.grading import Threshold, fit_reference, grade
from auggen.loop import (
    ORIGIN_GENERATED,
    ORIGIN_TRUE,
    DatasetEntry,
    LoopConfig,
    TrainState,
    generation_step,
    run,
    sample_batch,
    save_run,
    training_step,
)
from auggen.model import MarkovModel
from auggen.rng import stream
from conftest import ascending
from oracles import count_tables, replay_counts

THRESH_ALL = Threshold(value=math.inf, label="baseline_all")
THRESH_NONE = Threshold(value=-math.inf, label="baseline_none")


def small_config(
    threshold, *, n_generate=4, max_epochs=3, patience=None, seed=23, min_improvement=0.0, batches=4, batch_size=2
):
    return LoopConfig(
        n_generate=n_generate,
        threshold=threshold,
        batches=batches,
        batch_size=batch_size,
        max_epochs=max_epochs,
        patience=patience,
        min_improvement=min_improvement,
        seed=seed,
    )


@pytest.fixture(scope="module")
def small_split():
    return split(teacher_corpus(7, 14), 0.8, 7)


def fresh_model(data_split, alpha=0.1):
    return MarkovModel.with_vocab_from(data_split.train, order=2, alpha=alpha)


def test_loop_config_validation():
    with pytest.raises(ValueError):
        small_config(THRESH_ALL, max_epochs=0)
    with pytest.raises(ValueError):
        small_config(THRESH_ALL, patience=0)
    with pytest.raises(ValueError):
        small_config(THRESH_ALL, n_generate=-1)


def test_plan_validation():
    with pytest.raises(ValueError, match="batches must be >= 1, got 0"):
        small_config(THRESH_ALL, batches=0, batch_size=1)
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        small_config(THRESH_ALL, batches=1, batch_size=0)


def true_state(chorales_):
    return TrainState(dataset=[DatasetEntry(c, ORIGIN_TRUE, None) for c in chorales_], seen_keys=set())


def test_training_step_single_chorale_dataset_multiset():
    c = ascending(60)
    model = MarkovModel.with_vocab_from([c], order=2, alpha=0.1)
    config = small_config(THRESH_ALL, seed=1, batches=3, batch_size=4)
    _, counts = training_step(true_state([c]), model, config)
    assert counts.tolist() == [12]
    direct = MarkovModel.with_vocab_from([c], order=2, alpha=0.1)
    direct.fit([c], [12])
    assert count_tables(direct) == count_tables(model) == replay_counts([c] * 12, 2)


def test_training_step_same_stream_same_counts(desk_split):
    chorales_ = list(desk_split.train)
    config = small_config(THRESH_ALL, seed=6, batches=8, batch_size=2)
    a = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
    training_step(true_state(chorales_), a, config)
    b = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
    training_step(true_state(chorales_), b, config)
    assert count_tables(a) == count_tables(b)


def test_training_step_draw_frequencies_uniform_within_3_sigma():
    dataset = [ascending(60 + i) for i in range(5)]
    model = MarkovModel.with_vocab_from(dataset, order=1, alpha=0.1)
    config = small_config(THRESH_ALL, seed=11, batches=200, batch_size=10)  # 2000 draws, p = 0.2 each
    _, counts = training_step(true_state(dataset), model, config)
    assert counts.sum() == 2000
    expected = 2000 * 0.2
    sigma = math.sqrt(2000 * 0.2 * 0.8)
    for observed in counts.tolist():
        assert abs(observed - expected) <= 3 * sigma


def test_single_epoch_run(small_split):
    config = small_config(THRESH_ALL, max_epochs=1)
    result = run(config, small_split, fresh_model(small_split), fit_reference(small_split.train, ("pitch", "rhythm")))
    assert len(result.epoch_logs) == 1
    entry = result.epoch_logs[0]
    assert len(entry.candidates) == config.n_generate
    assert entry.additions <= config.n_generate
    assert entry.dataset_size == len(small_split.train) + entry.additions
    assert result.best_epoch == 0


def test_baseline_none_keeps_dataset_fixed(small_split):
    result = run(
        small_config(THRESH_NONE),
        small_split,
        fresh_model(small_split),
        fit_reference(small_split.train, ("pitch",)),
    )
    assert all(entry.origin == ORIGIN_TRUE for entry in result.manifest)
    assert tuple(e.chorale.id for e in result.manifest) == small_split.train.ids()
    for entry in result.epoch_logs:
        assert entry.additions == 0
        assert all(not rec.accepted for rec in entry.candidates)
        assert all(rec.reason in ("grade", "duplicate") for rec in entry.candidates)


def test_baseline_all_accepts_every_unique_candidate(small_split):
    result = run(
        small_config(THRESH_ALL),
        small_split,
        fresh_model(small_split),
        fit_reference(small_split.train, ("pitch",)),
    )
    for entry in result.epoch_logs:
        for rec in entry.candidates:
            assert rec.accepted == (rec.reason != "duplicate")


def test_zero_generation_run_is_plain_training(small_split):
    result = run(
        small_config(THRESH_ALL, n_generate=0),
        small_split,
        fresh_model(small_split),
        fit_reference(small_split.train, ("pitch",)),
    )
    assert all(entry.additions == 0 and not entry.candidates for entry in result.epoch_logs)
    assert tuple(e.chorale.id for e in result.manifest) == small_split.train.ids()


def replaying_model():
    """Model that can only regenerate one fixed chorale (unique contexts,
    near-zero smoothing), plus that chorale."""
    source = Chorale(
        id="true-0",
        voices=(
            (72, HOLD, 74, 76, HOLD, 77),
            (67, 69, HOLD, 71, 72, HOLD),
            (60, HOLD, 62, HOLD, 64, 65),
            (48, 50, 52, 53, HOLD, 55),
        ),
    )
    model = MarkovModel.with_vocab_from([source], order=2, alpha=1e-12)
    model.fit([source], [1])
    return source, model


def test_candidate_identical_to_true_chorale_rejected_as_duplicate():
    source, model = replaying_model()
    reference = fit_reference(Corpus((source,)), ("pitch",))
    config = small_config(THRESH_ALL, n_generate=1)
    state = TrainState(
        dataset=[DatasetEntry(source, ORIGIN_TRUE, None)],
        seen_keys={canonical_key(source)},
    )
    records = generation_step(state, model, reference, config, [source.length])
    assert len(records) == 1
    assert not records[0].accepted
    assert records[0].reason == "duplicate"  # grade passes (+inf) but the key is known
    assert len(state.dataset) == 1


def test_grade_tie_at_threshold_accepted():
    source, model = replaying_model()
    reference = fit_reference(Corpus((source,)), ("pitch", "rhythm"))
    exact_grade = grade(source, reference).totals[0].item()
    config = small_config(Threshold(value=exact_grade, label="tie"), n_generate=1)
    state = TrainState(dataset=[], seen_keys=set())
    records = generation_step(state, model, reference, config, [source.length])
    assert records[0].grade == exact_grade
    assert records[0].accepted


def test_duplicate_candidates_rejected_within_epoch():
    source, model = replaying_model()
    reference = fit_reference(Corpus((source,)), ("pitch",))
    config = small_config(THRESH_ALL, n_generate=3)
    state = TrainState(dataset=[], seen_keys=set())
    records = generation_step(state, model, reference, config, [source.length])
    assert records[0].accepted
    assert not records[1].accepted and records[1].reason == "duplicate"
    assert not records[2].accepted and records[2].reason == "duplicate"


def test_filter_and_uniqueness_soundness(small_split):
    reference = fit_reference(small_split.train)
    train_grades = grade(small_split.train.chorales, reference).totals.tolist()
    threshold = Threshold(value=sorted(train_grades)[len(train_grades) // 2], label="median")
    config = small_config(threshold, max_epochs=6, n_generate=6)
    result = run(config, small_split, fresh_model(small_split), reference)

    keys = [canonical_key(e.chorale) for e in result.manifest]
    assert len(keys) == len(set(keys))
    generated = [entry for entry in result.manifest if entry.origin == ORIGIN_GENERATED]
    for entry, total in zip(generated, grade([entry.chorale for entry in generated], reference).totals.tolist()):
        assert total <= threshold.value
        assert entry.acceptance_epoch is not None
    sizes = [entry.dataset_size for entry in result.epoch_logs]
    assert sizes == sorted(sizes)
    previous = len(small_split.train)
    for entry in result.epoch_logs:
        assert entry.additions <= config.n_generate
        assert entry.dataset_size == previous + entry.additions
        previous = entry.dataset_size


def test_accepted_chorales_resampled_uniformly(small_split):
    config = LoopConfig(
        n_generate=4,
        threshold=THRESH_ALL,
        batches=50,
        batch_size=4,  # 200 draws per epoch
        max_epochs=2,
        patience=None,
        min_improvement=0.0,
        seed=29,
    )
    result = run(config, small_split, fresh_model(small_split), fit_reference(small_split.train, ("pitch", "rhythm")))
    first = result.epoch_logs[0]
    accepted_ids = [rec.candidate_id for rec in first.candidates if rec.accepted]
    assert accepted_ids, "expected at least one acceptance with threshold +inf"
    second = result.epoch_logs[1]
    draws = config.batches * config.batch_size
    # the second epoch's multiset is drawn after that epoch's additions
    p = 1.0 / second.dataset_size
    sigma = math.sqrt(draws * p * (1 - p))
    for cid in accepted_ids:
        observed = second.draw_counts.get(cid, 0)
        assert abs(observed - draws * p) <= 3 * sigma


def test_draw_counts_replay_the_train_stream(small_split):
    config = small_config(THRESH_ALL, max_epochs=3, batches=5, batch_size=3)
    result = run(config, small_split, fresh_model(small_split), fit_reference(small_split.train, ("pitch",)))
    ids = [entry.chorale.id for entry in result.manifest]
    for entry in result.epoch_logs:
        rng = stream(config.seed, "train", entry.epoch)
        draws = rng.integers(0, entry.dataset_size, size=config.batches * config.batch_size)
        assert entry.draw_counts == Counter(ids[i] for i in draws.tolist())
        assert all(n > 0 for n in entry.draw_counts.values())  # Counter equality ignores zero counts


def test_sample_batch_draws_length_then_tokens_from_each_stream(small_split):
    model = fresh_model(small_split)
    pool = [5, 9, 13]
    batch = sample_batch(model, pool, 31, ("eval", "x"), ["a", "b", "c"])
    assert [c.id for c in batch] == ["a", "b", "c"]
    for j, chorale in enumerate(batch):
        rng = stream(31, "eval", "x", j)
        length = pool[int(rng.integers(0, len(pool)))]
        assert chorale.voices == model.sample(length, rng).voices


def test_frozen_reference_and_validation_isolation(small_split):
    result = run(
        small_config(THRESH_ALL, max_epochs=4),
        small_split,
        fresh_model(small_split),
        fit_reference(small_split.train, ("pitch", "rhythm")),
    )
    assert result.reference_digest_before == result.reference_digest_after
    validation_ids = set(small_split.validation.ids())
    validation_keys = {canonical_key(c) for c in small_split.validation}
    for entry in result.epoch_logs:
        assert validation_ids.isdisjoint(entry.draw_counts)
    for entry in result.manifest:
        if entry.origin == ORIGIN_GENERATED:
            assert canonical_key(entry.chorale) not in validation_keys


def test_run_deterministic_and_serialization_byte_identical(small_split, tmp_path):
    config = small_config(THRESH_ALL, max_epochs=3)
    model_a, model_b = fresh_model(small_split), fresh_model(small_split)
    a = run(config, small_split, model_a, fit_reference(small_split.train, ("pitch", "rhythm")))
    b = run(config, small_split, model_b, fit_reference(small_split.train, ("pitch", "rhythm")))
    dir_a = save_run(a, model_a, tmp_path / "a")
    dir_b = save_run(b, model_b, tmp_path / "b")
    files = [p.name for p in dir_a.iterdir()]
    assert set(files) >= {
        "config.json",
        "epoch_logs.csv",
        "metrics.csv",
        "dataset_manifest.jsonl",
        "generated.jsonl",
        "best_model.json",
        "reference.json",
    }
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, files, shallow=False)
    assert not mismatch and not errors


def test_best_epoch_tracks_minimum_validation_loss(small_split):
    config = small_config(THRESH_ALL, max_epochs=5, patience=None, min_improvement=0.0)
    result = run(config, small_split, fresh_model(small_split), fit_reference(small_split.train, ("pitch",)))
    losses = [entry.val_loss for entry in result.epoch_logs]
    assert len(losses) == 5
    assert result.best_val_loss == min(losses)
    assert result.best_epoch == losses.index(min(losses))


def test_patience_stops_early(small_split):
    config = small_config(THRESH_NONE, max_epochs=30, patience=2, min_improvement=1e9)
    result = run(config, small_split, fresh_model(small_split), fit_reference(small_split.train, ("pitch",)))
    # an absurd improvement bar means the first epoch is best and patience
    # expires exactly two epochs later
    assert len(result.epoch_logs) == 3
    assert result.best_epoch == 0


def test_restored_model_matches_best_epoch(small_split):
    config = small_config(THRESH_NONE, max_epochs=4, patience=None)
    model = fresh_model(small_split)
    result = run(config, small_split, model, fit_reference(small_split.train, ("pitch",)))
    restored_loss = model.mean_nll(list(small_split.validation))
    assert restored_loss == result.best_val_loss
