import json

import pytest
from hypothesis import given
import hypothesis.strategies as st

from auggen.chorale import Chorale, InvalidChoraleError, validate
from auggen.corpus import (
    Corpus,
    CorpusError,
    load_corpus,
    save_corpus,
    save_split_manifest,
    split,
    split_manifest,
    teacher_corpus,
    _STEP_CUTS,
    _STEP_WEIGHTS,
    _RAW_BLOCK,
    _RawReader,
    _teacher_walks,
)
from auggen.grading import grade
from auggen.rng import stream
from oracles import reference_teacher_corpus, reference_teacher_walks, step_weight_total


def tiny(i, pitch=60):
    return Chorale(id=f"c{i}", voices=((pitch,), (55,), (48,), (41,)))


def tiny_corpus(n):
    return Corpus(tuple(tiny(i, 50 + i % 30) for i in range(n)))


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(CorpusError) as err:
        Corpus((tiny(1), tiny(1)))
    assert "c1" in str(err.value)


def test_corpus_rejects_invalid_member():
    # an invalid chorale cannot be built, so it never reaches a corpus
    with pytest.raises(InvalidChoraleError) as err:
        Chorale(id="bad", voices=(("__",), (60,), (60,), (60,)))
    assert "bad" in str(err.value)


def test_save_load_roundtrip(tmp_path):
    corpus = teacher_corpus(3, 6)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path).chorales == corpus.chorales


def test_load_reports_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    line = '{"id":"dup","voices":[["60"],["55"],["48"],["41"]]}'
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert "dup" in str(err.value)


def test_load_empty_file_gives_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert len(load_corpus(path)) == 0


def test_split_sizes_at_corpus_scale():
    # floor(0.8 * 351) = 280, remainder to validation
    s = split(tiny_corpus(351), 0.8, 0)
    assert (len(s.train), len(s.validation)) == (280, 71)


def test_split_sizes_small():
    s = split(tiny_corpus(10), 0.8, 1)
    assert (len(s.train), len(s.validation)) == (8, 2)


def test_split_deterministic():
    corpus = tiny_corpus(20)
    a = split(corpus, 0.7, 42)
    b = split(corpus, 0.7, 42)
    assert a.train.ids() == b.train.ids()
    assert a.validation.ids() == b.validation.ids()
    assert split(corpus, 0.7, 43).train.ids() != a.train.ids()


@given(st.integers(2, 40), st.integers(0, 2**32), st.floats(0.05, 0.95))
def test_split_partition_properties(n, seed, fraction):
    corpus = tiny_corpus(n)
    expected_train = int(fraction * n)
    if expected_train < 1 or expected_train > n - 1:
        with pytest.raises(CorpusError):
            split(corpus, fraction, seed)
        return
    s = split(corpus, fraction, seed)
    train_ids, val_ids = set(s.train.ids()), set(s.validation.ids())
    assert len(s.train) == expected_train
    assert train_ids.isdisjoint(val_ids)
    assert train_ids | val_ids == set(corpus.ids())


def test_split_rejects_tiny_corpus():
    with pytest.raises(CorpusError):
        split(tiny_corpus(1), 0.5, 0)
    with pytest.raises(ValueError):
        split(tiny_corpus(10), 1.2, 0)


def test_split_manifest_roundtrip(tmp_path):
    corpus = tiny_corpus(12)
    s = split(corpus, 0.75, 5)
    path = tmp_path / "split.json"
    save_split_manifest(s, path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    assert manifest == split_manifest(s)


def test_teacher_corpus_deterministic():
    a = teacher_corpus(1, 5)
    b = teacher_corpus(1, 5)
    assert a.chorales == b.chorales
    assert teacher_corpus(2, 5).chorales != a.chorales


def test_teacher_corpus_matches_per_index_sampler():
    # the batch sampler's draw from range(t_min, t_max + 1) is the per-index loop's t_min + offset
    assert teacher_corpus(17, 12, (20, 30)).chorales == tuple(reference_teacher_corpus(17, 12, (20, 30)))


def test_teacher_corpus_members_valid():
    for chorale in teacher_corpus(9, 12):
        assert validate(chorale) == []


def test_teacher_corpus_parameter_validation():
    with pytest.raises(ValueError):
        teacher_corpus(1, 0)
    with pytest.raises(ValueError):
        teacher_corpus(1, 5, (2, 10))
    with pytest.raises(ValueError):
        teacher_corpus(1, 5, (20, 10))


def test_teacher_corpus_grades_finite(desk_corpus, desk_reference):
    # the full 80-chorale corpus graded against its own training-split reference
    for total in grade(desk_corpus.chorales, desk_reference).totals.tolist():
        assert total >= 0.0
        assert total < 1e6


@pytest.mark.parametrize("seed", range(5))
def test_teacher_walks_match_pool_filtering_oracle(seed):
    rng, oracle_rng = _RawReader(stream(seed, "teacher", "walks")), stream(seed, "teacher", "walks")
    walks, expected = _teacher_walks(rng), reference_teacher_walks(oracle_rng)
    assert len(walks) == 400
    assert [w.voices for w in walks] == [w.voices for w in expected]
    assert rng.random() == oracle_rng.random()  # the same draws, so the stream is left in the same state


_BOUNDS = st.one_of(st.integers(1, 2**32 - 1), st.sampled_from([1, 2, 3, 12, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1]))


@given(st.integers(0, 2**64 - 1), st.lists(st.one_of(st.none(), _BOUNDS), max_size=300))
def test_raw_reader_matches_the_generator(seed, calls):
    # None is a random() call, k an integers(0, k) call; bounds just above 2**31 reject about half the draws
    reader, rng = _RawReader(stream(seed, "reader")), stream(seed, "reader")
    for k in calls:
        if k is None:
            assert reader.random() == rng.random()
        else:
            assert reader.integers(0, k) == rng.integers(0, k), k


def test_raw_reader_matches_the_generator_across_blocks():
    reader, rng, picks = _RawReader(stream(3, "reader")), stream(3, "reader"), stream(4, "picks")
    for k in picks.integers(0, 14, size=3 * _RAW_BLOCK).tolist():
        if k:
            assert reader.integers(0, k) == rng.integers(0, k)
        else:
            assert reader.random() == rng.random()
    for k in (0, -1, 2**32):
        with pytest.raises(ValueError):
            reader.integers(0, k)


def test_step_cuts_divide_by_the_term_by_term_weight_sum():
    # builtin sum() of floats is compensated from Python 3.12 on and gives 1.0 here; the walks keep 3.11's bits
    total = step_weight_total()
    assert total == 1.0000000000000002
    cuts, cdf = [], 0.0
    for weight in _STEP_WEIGHTS:
        cdf += weight / total
        cuts.append(cdf)
    assert _STEP_CUTS == tuple(cuts)
