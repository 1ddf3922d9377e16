import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from auggen import corpus as corpus_module
from auggen.chorale import Chorale, ChoraleFormatError, InvalidChoraleError, validate
from auggen.corpus import (
    Corpus,
    CorpusError,
    json_fits,
    load_corpus,
    save_corpus,
    save_json,
    split,
    split_manifest,
    teacher_corpus,
    _FOLLOW_HOLD_PROB,
    _HOLD_PROB,
    _REST_PROB,
    _STEP_CUTS,
    _STEP_WEIGHTS,
    _STEP_RAW,
    _raw_cut,
    _teacher_walks,
)
from auggen.grading import grade
from auggen.rng import stream
from oracles import RawDraws, reference_teacher_corpus, reference_teacher_walks, step_weight_total


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


def test_digest_hashes_the_records_once(monkeypatch):
    corpus = teacher_corpus(3, 6)
    serialized = []
    serialize = corpus_module.serialize_chorale
    monkeypatch.setattr(corpus_module, "serialize_chorale", lambda c: serialized.append(c.id) or serialize(c))
    first = corpus.digest()
    assert corpus.digest() == first and serialized == list(corpus.ids())
    records = "".join(serialize(c) + "\n" for c in corpus)
    assert first == hashlib.sha256(records.encode("utf-8")).hexdigest()
    assert Corpus(corpus.chorales[::-1]).digest() != first  # id-order sensitive


def test_save_load_roundtrip(tmp_path):
    corpus = teacher_corpus(3, 6)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path).chorales == corpus.chorales


def test_load_ends_lines_only_at_line_ends(tmp_path):
    # JSON allows U+2028, U+2029 and U+0085 raw in a string; a JSON-lines file ends a line at \n, \r\n and \r only
    path = tmp_path / "corpus.jsonl"
    ids = [f"a\u2028b\u2029c\u0085{i}" for i in range(3)]
    records = [json.dumps({"id": i, "voices": [["60"], ["55"], ["48"], ["41"]]}, ensure_ascii=False) for i in ids]
    path.write_bytes("".join(r + end for r, end in zip(records, ["\n", "\r\n", "\r"])).encode("utf-8"))
    assert load_corpus(path).ids() == tuple(ids)


def test_load_reports_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    line = '{"id":"dup","voices":[["60"],["55"],["48"],["41"]]}'
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: duplicate chorale id 'dup'"


@pytest.mark.parametrize(
    "value, hint, fits",
    [
        (1, float, True),  # an int stands for a float
        (-(2**1024), float, False),  # unless it is beyond the largest float
        (float("nan"), float, False),
        (float("-inf"), float, False),
        (True, int, False),  # no bool is a number
        (True, float, False),
        (1.0, int, False),
        ([1, 2.5], tuple[float, ...], True),  # a list stands for a tuple
        ([1, "2"], tuple[float, ...], False),
        ({"a": 1}, dict[str, float], True),
        ({"a": None}, dict[str, float], False),
        (None, int | None, True),
        ({}, dict, True),
        ([], dict, False),
    ],
)
def test_json_fits(value, hint, fits):
    assert json_fits(value, hint) is fits


def test_load_names_the_file_and_line_of_a_bad_record(tmp_path):
    # the message starts with the path, then the line; the error keeps its type and fields
    path = tmp_path / "corpus.jsonl"
    path.write_text('\n{"id":"x","voices":[["60"],["55"],["48"],["060"]]}\n', encoding="utf-8")
    with pytest.raises(ChoraleFormatError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: line 2: unknown token '060' (field voices[3][0])"
    assert (err.value.line, err.value.field) == (2, "voices[3][0]")


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
    save_json(split_manifest(s), path)
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
    walks = _teacher_walks(stream(seed, "teacher", "walks"))
    expected = reference_teacher_walks(stream(seed, "teacher", "walks"))
    assert len(walks) == 400
    assert [w.voices for w in walks] == [w.voices for w in expected]


_BOUNDS = st.one_of(st.integers(1, 2**32 - 1), st.sampled_from([1, 2, 3, 12, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1]))


@given(st.integers(0, 2**64 - 1), st.lists(st.one_of(st.none(), _BOUNDS), max_size=300))
def test_raw_reader_matches_the_generator(seed, calls):
    # the oracle's draws from raw values, which the walks' stub test below relies on, are numpy's: None is a
    # random() call, k an integers(0, k) call; bounds just above 2**31 reject about half the draws
    reader, rng = RawDraws(stream(seed, "reader")), stream(seed, "reader")
    for k in calls:
        if k is None:
            assert reader.random() == rng.random()
        else:
            assert reader.integers(0, k) == rng.integers(0, k), k


def test_raw_reader_matches_the_generator_across_blocks():
    # thousands of the oracle's draws in a row, then the bounds it refuses
    reader, rng, picks = RawDraws(stream(3, "reader")), stream(3, "reader"), stream(4, "picks")
    for k in picks.integers(0, 14, size=3 * 4096).tolist():
        if k:
            assert reader.integers(0, k) == rng.integers(0, k)
        else:
            assert reader.random() == rng.random()
    for k in (0, -1, 2**32):
        with pytest.raises(ValueError):
            reader.integers(0, k)


def test_raw_reader_redraws_a_rejected_carried_half_from_a_fresh_block():
    # numpy keeps the high half of a raw value for the next bounded draw; a carried 0 rejects for any k
    # that is not a power of two, so the redraw reads the first raw value
    rng = stream(8, "reader")
    rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1, "uinteger": 0}
    reader = RawDraws(stream(8, "reader"))
    reader.high = 0
    for k in (3, 12, 5, 7):
        assert reader.integers(0, k) == rng.integers(0, k)
    assert reader.random() == rng.random()
    assert reader.rejected[0] == -1  # the carried half was rejected before any raw value was read


class _StubBits:
    """A bit generator serving fixed raw values, recording the stream index at which each read starts."""

    def __init__(self, values):
        self.values, self.at, self.reads = values, 0, []

    def random_raw(self, n):
        self.reads.append(self.at)
        self.at += n
        return self.values[self.at - n : self.at].copy()


class _Stub:
    def __init__(self, values):
        self.bit_generator = _StubBits(values)


def test_teacher_walks_redraw_rejected_bounded_draws(monkeypatch):
    # every raw value has a zero low half, so each bounded draw that splits a fresh raw value for a k that is
    # not a power of two rejects it and redraws from its high half; the oracle draws the same walks through
    # RawDraws, which the tests above hold to the generator. Blocks are small, so refills fall mid-walk.
    monkeypatch.setattr(corpus_module, "_RAW_BLOCK", 97)
    values = stream(6, "stub").bit_generator.random_raw(2**18) & np.uint64(0xFFFFFFFF00000000)
    budget = _STEP_RAW * 48  # the most unread values a walk needs; the walks refill when fewer are left

    def walks_and_oracle(values):
        stub, oracle = _Stub(values), RawDraws(_Stub(values))
        walks = _teacher_walks(stub)
        assert [w.voices for w in walks] == [w.voices for w in reference_teacher_walks(oracle)]
        assert 0 <= stub.bit_generator.at - oracle.read < budget + max(budget, 97)  # teacher_model's read-ahead
        return stub.bit_generator.reads, oracle.rejected

    reads, rejected = walks_and_oracle(values)
    assert len(rejected) > 1000
    # a raw value of 0 rejects both halves, so a run of zeros from the first rejected value on is one draw
    # that rejects 2,000 times, reading more values than the walks ever hold unread
    first = rejected[0]
    values[first : first + 1000] = 0
    reads, rejected = walks_and_oracle(values)
    assert set(range(first, first + 1000)) <= set(rejected)
    # a read that starts more than a budget past `first` comes after the walks read `first`, and one that starts
    # at most at `first + 1000` before they read that value: a refill inside the run of rejections
    assert any(first + budget < start <= first + 1000 for start in reads)


@pytest.mark.parametrize("p", [_REST_PROB, _REST_PROB + _HOLD_PROB, _FOLLOW_HOLD_PROB, *_STEP_CUTS, 2.0**-60, 0.5])
def test_raw_cut_is_where_random_reaches_p(p):
    # the walks test a raw value against the cut where the generator tests random() < p
    cut = _raw_cut(p)
    assert ((cut - 1) >> 11) * 2.0**-53 < p <= (cut >> 11) * 2.0**-53
    for raw in (cut - 2**11, cut - 1, cut, cut + 2**11 - 1):
        assert (raw < cut) == ((raw >> 11) * 2.0**-53 < p)


def test_step_cuts_divide_by_the_term_by_term_weight_sum():
    # builtin sum() of floats is compensated from Python 3.12 on and gives 1.0 here; the walks keep 3.11's bits
    total = step_weight_total()
    assert total == 1.0000000000000002
    cuts, cdf = [], 0.0
    for weight in _STEP_WEIGHTS:
        cdf += weight / total
        cuts.append(cdf)
    assert _STEP_CUTS == tuple(cuts)
