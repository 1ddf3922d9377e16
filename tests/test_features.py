import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from auggen import grading
from auggen.chorale import HOLD, REST, Chorale, realize, transpose
from auggen.corpus import Corpus
from auggen.features import (
    DEFAULT_FEATURES,
    REGISTRY,
    FeatureDistribution,
    feature_events,
    realize_batch,
)
from conftest import chorales, voices
from oracles import (
    brute_parallel_count,
    empty_distribution,
    from_values,
    point_distribution,
    reference_realize,
    reference_realize_batch,
    extract,
    token_walk_durations,
    token_walk_harmonic_intervals,
    token_walk_melodic_intervals,
    token_walk_parallel_errors,
    token_walk_pitches,
    token_walk_voice_crossing,
)


def quad(*voices):
    return Chorale(id="c", voices=tuple(voices))


def whole_note(pitch, length=4):
    return (pitch,) + (HOLD,) * (length - 1)


def rests(length):
    return (REST,) * length


class TestFeatureDistribution:
    def test_normalizes_and_merges(self):
        dist = from_values("x", [3, 1, 3, 3])
        assert dist.support == (1.0, 3.0)
        assert dist.weights == (0.25, 0.75)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            FeatureDistribution("x", (1.0, 1.0), (0.5, 0.5))  # non-increasing support
        with pytest.raises(ValueError):
            FeatureDistribution("x", (1.0, 2.0), (0.5, 0.6))  # weights sum > 1
        with pytest.raises(ValueError):
            FeatureDistribution("x", (1.0,), (0.0,))  # zero weight
        with pytest.raises(ValueError):
            FeatureDistribution("x", (float("inf"),), (1.0,))

    def test_empty_sentinel(self):
        dist = empty_distribution("x")
        assert dist.is_empty
        assert not point_distribution("x", 0.0).is_empty


def test_whole_note_chorale_has_no_parallel_errors():
    c = quad(whole_note(72), whole_note(67), whole_note(64), whole_note(60))
    dist = extract(c, "parallel_errors")
    assert dist.support == (0.0,) and dist.weights == (1.0,)


def test_parallel_octaves_normalized_per_16():
    # S and B move 72->74 over 60->62: octave at both steps, both voices move
    c = quad((72, 74), rests(2), rests(2), (60, 62))
    dist = extract(c, "parallel_errors")
    assert dist.support == (8.0,)  # 1 error in 2 timesteps = 8 per 16


def test_rhythm_and_pitch_point_masses():
    c = quad((60, HOLD, HOLD, HOLD), rests(4), rests(4), rests(4))
    assert extract(c, "rhythm").support == (4.0,)
    assert extract(c, "pitch").support == (60.0,)


def test_melodic_intervals_signed():
    c = quad((60, 64, 60), rests(3), rests(3), rests(3))
    dist = extract(c, "melodic_interval")
    assert dist.support == (-4.0, 4.0)
    assert dist.weights == (0.5, 0.5)


def test_harmonic_intervals_adjacent_pairs_only():
    c = quad((72,), (67,), rests(1), (60,))
    # only S-A sounds as an adjacent pair; T is silent so A-T and T-B drop out
    dist = extract(c, "harmonic_interval")
    assert dist.support == (5.0,)


def test_voice_crossing_fraction():
    c = quad((60, 60), (65, 55), rests(2), rests(2))
    dist = extract(c, "voice_crossing")
    assert dist.support == (0.5,)  # alto above soprano at t=0 only


def test_all_rest_chorale_hits_every_sentinel():
    c = quad(rests(3), rests(3), rests(3), rests(3))
    for name in DEFAULT_FEATURES:
        assert extract(c, name).is_empty, name


def test_single_timestep_chorale_parallel_sentinel():
    c = quad((60,), (55,), (48,), (41,))
    assert extract(c, "parallel_errors").is_empty  # no consecutive timesteps to inspect
    assert not extract(c, "voice_crossing").is_empty


@given(chorales(max_length=8))
def test_distributions_normalized(c):
    for name in DEFAULT_FEATURES:
        dist = extract(c, name)
        if not dist.is_empty:
            assert abs(sum(dist.weights) - 1.0) <= 1e-12


@given(chorales(max_length=8), st.integers(-5, 5))
def test_transposition_shifts_only_pitch(c, k):
    shifted = transpose(c, k)
    base_pitch = extract(c, "pitch")
    shifted_pitch = extract(shifted, "pitch")
    assert shifted_pitch.is_empty == base_pitch.is_empty
    if not base_pitch.is_empty:
        assert shifted_pitch.support == tuple(x + k for x in base_pitch.support)
        assert shifted_pitch.weights == base_pitch.weights
    for name in ("rhythm", "harmonic_interval", "melodic_interval", "parallel_errors", "voice_crossing"):
        assert extract(shifted, name) == extract(c, name), name


@given(chorales(max_length=8))
def test_parallel_error_feature_matches_brute_force(c):
    opportunities, errors = brute_parallel_count(c)
    dist = extract(c, "parallel_errors")
    if opportunities == 0:
        assert dist.is_empty
    else:
        assert dist.support == (errors * 16.0 / c.length,)


@given(chorales(max_length=6))
def test_feature_events_consistent_with_extractor(c):
    for name in DEFAULT_FEATURES:
        if not REGISTRY[name].pooled:
            continue
        events = feature_events(c, name)
        dist = extract(c, name)
        assert from_values(name, events) == dist


def test_feature_events_rejects_point_features(desk_corpus):
    with pytest.raises(ValueError):
        feature_events(desk_corpus.chorales[0], "voice_crossing")


def events_by_chorale(name, batch):
    """Each chorale's event values from one extractor pass over the whole batch, in extractor order."""
    values, owner = REGISTRY[name].extractor(realize_batch(batch))
    return [values[owner == i].tolist() for i in range(len(batch))]


@given(st.lists(chorales(max_length=10), min_size=1, max_size=4))
def test_rhythm_extractor_matches_token_walk(batch):
    assert events_by_chorale("rhythm", batch[:1]) == [token_walk_durations(batch[0])]
    assert events_by_chorale("rhythm", batch) == [token_walk_durations(c) for c in batch]


@pytest.mark.parametrize(
    "name, oracle",
    [
        ("pitch", token_walk_pitches),
        ("harmonic_interval", token_walk_harmonic_intervals),
        ("melodic_interval", token_walk_melodic_intervals),
        ("parallel_errors", token_walk_parallel_errors),
        ("voice_crossing", token_walk_voice_crossing),
    ],
)
@given(batch=st.lists(chorales(max_length=10), min_size=1, max_size=4))
def test_extractor_matches_token_walk(name, oracle, batch):
    assert sorted(events_by_chorale(name, batch[:1])[0]) == sorted(oracle(batch[0]))
    assert [sorted(events) for events in events_by_chorale(name, batch)] == [sorted(oracle(c)) for c in batch]


@st.composite
def edge_voice(draw, length: int):
    """A voice of ``length`` tokens: arbitrary, all rests, or one note held to the end."""
    kind = draw(st.sampled_from(["any", "rests", "held"]))
    if kind == "rests":
        return (REST,) * length
    if kind == "held":
        return (draw(st.integers(0, 127)),) + (HOLD,) * (length - 1)
    return draw(voices(length, 0, 127))


@st.composite
def edge_chorales(draw):
    length = draw(st.sampled_from([1, 1, 2, 7, 40]))
    return Chorale(id=f"e{draw(st.integers(0, 99))}", voices=tuple(draw(edge_voice(length)) for _ in range(4)))


def assert_same_arrays(got, want, fields):
    for field in fields:
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert np.array_equal(a, b), field


@given(batch=st.lists(st.one_of(edge_chorales(), chorales(max_length=10)), max_size=5))
@example(batch=[])
@example(batch=[Chorale("long", ((60,) + (HOLD,) * 199, (REST,) * 200, (0,) + (HOLD,) * 199, (127,) * 200))])
def test_realize_matches_token_walk(batch):
    for chorale in batch:
        grid = realize(chorale)
        assert_same_arrays(grid, reference_realize(chorale), ("pitches", "onsets"))
        assert not grid.pitches.flags.writeable and not grid.onsets.flags.writeable
    fields = ("pitches", "onsets", "owner", "starts", "lengths")
    assert_same_arrays(realize_batch(batch), reference_realize_batch(batch), fields)


def test_critic_realizes_each_chorale_once(monkeypatch, desk_reference):
    calls = []  # the ids each realize_batch call receives, in call order

    def recording_realize_batch(chorales):
        calls.extend(chorale.id for chorale in chorales)
        return realize_batch(chorales)

    monkeypatch.setattr(grading, "realize_batch", recording_realize_batch)
    c = quad((60, 62, HOLD, 64), (55, REST, 57, HOLD), (48, 50, 52, 53), (41, HOLD, 43, 45))
    grading.grade(c, desk_reference)
    assert calls == ["c"]
    calls.clear()
    corpus = Corpus(tuple(Chorale(id=f"c{i}", voices=c.voices) for i in range(3)))
    grading.fit_reference(corpus)
    assert calls == ["c0", "c1", "c2"]