import filecmp
import math
from collections import Counter

import pytest

from auggen.chorale import HOLD, Chorale, canonical_key
from auggen.corpus import Corpus, Split, split, teacher_corpus
from auggen.experiment import ExperimentConfig
from auggen.grading import Threshold, fit_reference, grade
from auggen.loop import (
    ORIGIN_GENERATED,
    ORIGIN_TRUE,
    DatasetEntry,
    draw_candidates,
    generation_step,
    run,
    save_run,
    training_step,
)
from auggen.model import MarkovModel, sample_batch
from auggen.rng import stream
from auggen import loop as loop_module
from conftest import ascending
from oracles import count_tables, replay_counts

THRESH_ALL = Threshold(value=math.inf, label="baseline_all")
THRESH_NONE = Threshold(value=-math.inf, label="baseline_none")


def small_config(*, n_generate=4, max_epochs=3, patience=None, seed=23, min_improvement=0.0, batches=4, batch_size=2):
    return ExperimentConfig(
        n_generate=n_generate,
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
        small_config(max_epochs=0)
    with pytest.raises(ValueError):
        small_config(patience=0)
    with pytest.raises(ValueError):
        small_config(n_generate=-1)


def test_plan_validation():
    with pytest.raises(ValueError, match="batches must be >= 1, got 0"):
        small_config(batches=0, batch_size=1)
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        small_config(batches=1, batch_size=0)


def true_state(chorales_):
    return [DatasetEntry(c, ORIGIN_TRUE, None) for c in chorales_]


def test_training_step_single_chorale_dataset_multiset():
    c = ascending(60)
    model = MarkovModel.with_vocab_from([c], order=2, alpha=0.1)
    config = small_config(seed=1, batches=3, batch_size=4)
    _, counts = training_step(true_state([c]), model, config, 0)
    assert counts.tolist() == [12]
    direct = MarkovModel.with_vocab_from([c], order=2, alpha=0.1)
    direct.fit([c], [0] * 12)
    assert count_tables(direct) == count_tables(model) == replay_counts([c] * 12, 2)


def test_training_step_same_stream_same_counts(desk_split):
    chorales_ = list(desk_split.train)
    config = small_config(seed=6, batches=8, batch_size=2)
    a = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
    training_step(true_state(chorales_), a, config, 0)
    b = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
    training_step(true_state(chorales_), b, config, 0)
    assert count_tables(a) == count_tables(b)


def test_training_step_gathers_its_events_once(desk_split, monkeypatch):
    # the refit and the training loss read the same drawn chorales, so one gather serves both
    chorales_ = list(desk_split.train)
    model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
    gathers = []
    gather = model._encode_all
    monkeypatch.setattr(model, "_encode_all", lambda chorales: gathers.append(len(chorales)) or gather(chorales))
    loss, counts = training_step(true_state(chorales_), model, small_config(seed=6, batches=8, batch_size=2), 0)
    assert gathers == [len(counts.nonzero()[0])]
    draws = stream(6, "train", 0).integers(0, len(chorales_), size=16)
    assert loss == model.mean_nll([chorales_[i] for i in draws.tolist()])


def test_training_step_draw_frequencies_uniform_within_3_sigma():
    dataset = [ascending(60 + i) for i in range(5)]
    model = MarkovModel.with_vocab_from(dataset, order=1, alpha=0.1)
    config = small_config(seed=11, batches=200, batch_size=10)  # 2000 draws, p = 0.2 each
    _, counts = training_step(true_state(dataset), model, config, 0)
    assert counts.sum() == 2000
    expected = 2000 * 0.2
    sigma = math.sqrt(2000 * 0.2 * 0.8)
    for observed in counts.tolist():
        assert abs(observed - expected) <= 3 * sigma


def test_single_epoch_run(small_split):
    config = small_config(max_epochs=1)
    reference = fit_reference(small_split.train, ("pitch", "rhythm"))
    result = run(config, THRESH_ALL, small_split, fresh_model(small_split), reference)
    assert len(result.epoch_logs) == 1
    entry = result.epoch_logs[0]
    assert len(entry.candidates) == config.n_generate
    assert entry.additions <= config.n_generate
    assert entry.dataset_size == len(small_split.train) + entry.additions
    assert result.best_epoch == 0


def test_baseline_none_keeps_dataset_fixed(small_split):
    result = run(
        small_config(),
        THRESH_NONE,
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
        small_config(),
        THRESH_ALL,
        small_split,
        fresh_model(small_split),
        fit_reference(small_split.train, ("pitch",)),
    )
    for entry in result.epoch_logs:
        for rec in entry.candidates:
            assert rec.accepted == (rec.reason != "duplicate")


def test_zero_generation_run_is_plain_training(small_split):
    result = run(
        small_config(n_generate=0),
        THRESH_ALL,
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
    model.fit([source], [0])
    return source, model


def test_candidate_identical_to_true_chorale_rejected_as_duplicate():
    source, model = replaying_model()
    reference = fit_reference(Corpus((source,)), ("pitch",))
    config = small_config(n_generate=1)
    seen_keys = {canonical_key(source)}
    records = generation_step(seen_keys, draw_candidates(model, reference, config, 0, [source.length]), THRESH_ALL)
    assert len(records) == 1
    assert not records[0].accepted
    assert records[0].reason == "duplicate"  # grade passes (+inf) but the key is known


def test_grade_tie_at_threshold_accepted():
    source, model = replaying_model()
    reference = fit_reference(Corpus((source,)), ("pitch", "rhythm"))
    exact_grade = grade(source, reference).totals[0].item()
    config = small_config(n_generate=1)
    tie = Threshold(value=exact_grade, label="tie")
    records = generation_step(set(), draw_candidates(model, reference, config, 0, [source.length]), tie)
    assert records[0].grade == exact_grade
    assert records[0].accepted


def test_duplicate_candidates_rejected_within_epoch():
    source, model = replaying_model()
    reference = fit_reference(Corpus((source,)), ("pitch",))
    config = small_config(n_generate=3)
    records = generation_step(set(), draw_candidates(model, reference, config, 0, [source.length]), THRESH_ALL)
    assert records[0].accepted
    assert not records[1].accepted and records[1].reason == "duplicate"
    assert not records[2].accepted and records[2].reason == "duplicate"


def assert_manifest_lists_the_accepted_candidates(result, data_split):
    """The manifest is the training split, then each accepted record's candidate in record order, tagged with
    the epoch that accepted it."""
    assert result.manifest[: len(data_split.train)] == tuple(DatasetEntry(c, ORIGIN_TRUE, None) for c in data_split.train)
    generated = result.manifest[len(data_split.train) :]
    assert all(entry.origin == ORIGIN_GENERATED for entry in generated)
    accepted = [(rec.candidate_id, log.epoch) for log in result.epoch_logs for rec in log.candidates if rec.accepted]
    assert [(entry.chorale.id, entry.acceptance_epoch) for entry in generated] == accepted
    assert [log.additions for log in result.epoch_logs] == [
        sum(rec.accepted for rec in log.candidates) for log in result.epoch_logs
    ]


def test_run_appends_the_accepted_candidates_in_record_order(small_split):
    config = small_config(max_epochs=3, n_generate=6)
    result = run(config, THRESH_ALL, small_split, fresh_model(small_split), fit_reference(small_split.train))
    assert len(result.manifest) > len(small_split.train)  # THRESH_ALL accepts every unique candidate
    assert_manifest_lists_the_accepted_candidates(result, small_split)


def test_run_appends_no_candidate_identical_to_a_true_chorale():
    source, model = replaying_model()
    held_out = Chorale(id="true-1", voices=[(72, 74, 76, 77), (67, 69, 71, 72), (60, 62, 64, 65), (48, 50, 52, 53)])
    data_split = Split(Corpus((source,)), Corpus((held_out,)), seed=0, fraction=0.5)
    result = run(small_config(n_generate=2), THRESH_ALL, data_split, model, fit_reference(Corpus((source,)), ("pitch",)))
    records = [rec for log in result.epoch_logs for rec in log.candidates]
    assert len(records) == 6 and all(rec.reason == "duplicate" for rec in records)
    assert result.manifest == (DatasetEntry(source, ORIGIN_TRUE, None),)
    assert_manifest_lists_the_accepted_candidates(result, data_split)


def test_filter_and_uniqueness_soundness(small_split):
    reference = fit_reference(small_split.train)
    train_grades = grade(small_split.train.chorales, reference).totals.tolist()
    threshold = Threshold(value=sorted(train_grades)[len(train_grades) // 2], label="median")
    config = small_config(max_epochs=6, n_generate=6)
    result = run(config, threshold, small_split, fresh_model(small_split), reference)

    keys = [canonical_key(e.chorale) for e in result.manifest]
    assert len(keys) == len(set(keys))
    generated = [entry for entry in result.manifest if entry.origin == ORIGIN_GENERATED]
    for entry, total in zip(generated, grade([entry.chorale for entry in generated], reference).totals.tolist()):
        assert total <= threshold.value
        assert entry.acceptance_epoch is not None
    assert_manifest_lists_the_accepted_candidates(result, small_split)
    sizes = [entry.dataset_size for entry in result.epoch_logs]
    assert sizes == sorted(sizes)
    previous = len(small_split.train)
    for entry in result.epoch_logs:
        assert entry.additions <= config.n_generate
        assert entry.dataset_size == previous + entry.additions
        previous = entry.dataset_size


def test_accepted_chorales_resampled_uniformly(small_split):
    config = ExperimentConfig(
        n_generate=4,
        batches=50,
        batch_size=4,  # 200 draws per epoch
        max_epochs=2,
        patience=None,
        min_improvement=0.0,
        seed=29,
    )
    reference = fit_reference(small_split.train, ("pitch", "rhythm"))
    result = run(config, THRESH_ALL, small_split, fresh_model(small_split), reference)
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
    config = small_config(max_epochs=3, batches=5, batch_size=3)
    result = run(config, THRESH_ALL, small_split, fresh_model(small_split), fit_reference(small_split.train, ("pitch",)))
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
        small_config(max_epochs=4),
        THRESH_ALL,
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
    config = small_config(max_epochs=3)
    model_a, model_b = fresh_model(small_split), fresh_model(small_split)
    a = run(config, THRESH_ALL, small_split, model_a, fit_reference(small_split.train, ("pitch", "rhythm")))
    b = run(config, THRESH_ALL, small_split, model_b, fit_reference(small_split.train, ("pitch", "rhythm")))
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
    config = small_config(max_epochs=5, patience=None, min_improvement=0.0)
    result = run(config, THRESH_ALL, small_split, fresh_model(small_split), fit_reference(small_split.train, ("pitch",)))
    losses = [entry.val_loss for entry in result.epoch_logs]
    assert len(losses) == 5
    assert result.best_val_loss == min(losses)
    assert result.best_epoch == losses.index(min(losses))


def test_patience_stops_early(small_split):
    config = small_config(max_epochs=30, patience=2, min_improvement=1e9)
    result = run(config, THRESH_NONE, small_split, fresh_model(small_split), fit_reference(small_split.train, ("pitch",)))
    # an absurd improvement bar means the first epoch is best and patience
    # expires exactly two epochs later
    assert len(result.epoch_logs) == 3
    assert result.best_epoch == 0


def _counter_rule(losses, patience, min_improvement):
    """(best epoch, best loss, epochs run) of the rule that counted the epochs since the last improvement."""
    best_epoch, best_loss, since = -1, math.inf, 0
    for epoch, loss in enumerate(losses):
        if loss < best_loss - min_improvement:
            best_epoch, best_loss, since = epoch, loss, 0
        else:
            since += 1
            if since >= patience:
                return best_epoch, best_loss, epoch + 1
    return best_epoch, best_loss, len(losses)


@pytest.mark.parametrize("threshold", [THRESH_ALL, THRESH_NONE], ids=["all", "none"])
def test_patience_stops_where_the_counter_rule_stops(small_split, threshold):
    reference = fit_reference(small_split.train, ("pitch",))
    full = run(small_config(max_epochs=8), threshold, small_split, fresh_model(small_split), reference)
    losses = [entry.val_loss for entry in full.epoch_logs]
    outcomes = set()
    for patience in (1, 2, 3):
        for min_improvement in (0.0, 1e-3, 1e-2, 0.1):
            config = small_config(max_epochs=8, patience=patience, min_improvement=min_improvement)
            result = run(config, threshold, small_split, fresh_model(small_split), reference)
            expected = _counter_rule(losses, patience, min_improvement)
            assert (result.best_epoch, result.best_val_loss, len(result.epoch_logs)) == expected, (patience, min_improvement)
            outcomes.add(expected)
    assert len(outcomes) > 3, outcomes  # some bar changes where a patience stops, or which epoch is best


def test_restored_model_matches_best_epoch(small_split):
    config = small_config(max_epochs=4, patience=None)
    model = fresh_model(small_split)
    result = run(config, THRESH_NONE, small_split, model, fit_reference(small_split.train, ("pitch",)))
    restored_loss = model.mean_nll(list(small_split.validation))
    assert restored_loss == result.best_val_loss


def test_generation_step_filters_a_given_batch_without_drawing_or_grading(small_split, monkeypatch):
    config = small_config(n_generate=5)
    reference = fit_reference(small_split.train, ("pitch",))
    model = fresh_model(small_split)
    batch = draw_candidates(model, reference, config, 0, [c.length for c in small_split.train])
    assert batch.state is model.snapshot()
    assert [c.id for c in batch.candidates] == [f"gen-e000-c{j:03d}" for j in range(5)]
    assert list(batch.totals) == grade(list(batch.candidates), reference).totals.tolist()

    def refuse(*args, **kwargs):
        raise AssertionError("drew or graded a batch it was given")

    monkeypatch.setattr(loop_module, "sample_batch", refuse)
    monkeypatch.setattr(loop_module, "grade", refuse)
    seen_keys = set()
    records = generation_step(seen_keys, batch, THRESH_ALL)
    assert [(r.candidate_id, r.grade) for r in records] == [(c.id, t) for c, t in zip(batch.candidates, batch.totals)]
    assert seen_keys == {canonical_key(c) for c in batch.candidates}


@pytest.mark.parametrize("threshold", [THRESH_ALL, THRESH_NONE], ids=["all", "none"])
def test_run_from_a_given_epoch_0_batch_writes_what_a_run_that_draws_it_writes(small_split, tmp_path, threshold):
    config = small_config(max_epochs=3)
    reference = fit_reference(small_split.train, ("pitch", "rhythm"))
    base = fresh_model(small_split)
    base.encode(small_split.train.chorales)
    start = draw_candidates(base, reference, config, 0, [c.length for c in small_split.train])
    dirs = []
    for name, model, batch in (("given", base.copy(), start), ("drawn", fresh_model(small_split), None)):
        dirs.append(save_run(run(config, threshold, small_split, model, reference, batch), model, tmp_path / name))
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(*dirs, files, shallow=False)
    assert not mismatch and not errors


def test_run_rejects_a_batch_drawn_from_another_state(small_split):
    config = small_config(max_epochs=1)
    reference = fit_reference(small_split.train, ("pitch",))
    pool = [c.length for c in small_split.train]
    model, other = fresh_model(small_split), fresh_model(small_split)
    message = "the epoch-0 batch was drawn from another model state"
    with pytest.raises(ValueError, match=message):  # an equal state, but not the same one
        run(config, THRESH_ALL, small_split, model, reference, draw_candidates(other, reference, config, 0, pool))
    start = draw_candidates(model, reference, config, 0, pool)
    model.fit(small_split.train.chorales, range(len(small_split.train)))
    with pytest.raises(ValueError, match=message):  # drawn from this model, before a fit
        run(config, THRESH_ALL, small_split, model, reference, start)
