import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from auggen.chorale import HOLD, REST, Chorale, InvalidChoraleError, transpose
from auggen.corpus import Corpus
from auggen.features import DEFAULT_FEATURES, FeatureDistribution
from auggen.grading import (
    PASS_SIZE,
    EmptyDistributionError,
    ReferenceModel,
    Threshold,
    fit_reference,
    grade,
    grade_quantile,
    nearest_rank,
    wasserstein1,
)
from auggen.grading import _pass_events
from auggen.rng import stream
from conftest import chorales, distributions
from oracles import (
    TOKEN_WALKS,
    empty_distribution,
    extract,
    from_values,
    point_distribution,
    reference_grade,
    threshold_from_json,
    transport_cost,
)

TOL = 1e-9


def point(x):
    return point_distribution("test", x)


class TestWasserstein1:
    def test_point_masses(self):
        assert wasserstein1(point(60), point(67)) == pytest.approx(7.0, abs=TOL)

    def test_identity(self):
        p = FeatureDistribution("test", (1.0, 2.0, 5.0), (0.2, 0.3, 0.5))
        assert wasserstein1(p, p) == 0.0

    def test_split_mass(self):
        p = FeatureDistribution("test", (1.0, 3.0), (0.5, 0.5))
        assert wasserstein1(p, point(2)) == pytest.approx(1.0, abs=TOL)

    def test_rejects_empty(self):
        with pytest.raises(EmptyDistributionError):
            wasserstein1(empty_distribution("test"), point(0))

    @given(distributions(), distributions())
    @settings(max_examples=250)
    def test_metric_nonnegative_and_symmetric(self, p, q):
        d = wasserstein1(p, q)
        assert d >= -TOL
        assert abs(d - wasserstein1(q, p)) <= TOL

    @given(distributions())
    @settings(max_examples=250)
    def test_metric_identity_of_indiscernibles(self, p):
        assert wasserstein1(p, p) <= TOL

    @given(distributions(), distributions(), distributions())
    @settings(max_examples=250)
    def test_metric_triangle_inequality(self, p, q, r):
        assert wasserstein1(p, r) <= wasserstein1(p, q) + wasserstein1(q, r) + TOL

    @given(distributions(max_support=6), distributions(max_support=6))
    @settings(max_examples=250)
    def test_matches_transport_oracle(self, p, q):
        assert wasserstein1(p, q) == pytest.approx(transport_cost(p, q), abs=TOL)


class TestFitReference:
    def test_single_chorale_reference_is_its_distribution(self):
        c = Chorale(id="one", voices=((60, 64), (55, 57), (48, 50), (41, 43)))
        ref = fit_reference(Corpus((c,)), feature_set=("pitch",))
        assert ref.references["pitch"] == extract(c, "pitch")

    def test_pooling_idempotent_under_duplication(self):
        c = Chorale(id="one", voices=((60, 64), (55, 57), (48, 50), (41, 43)))
        d = Chorale(id="two", voices=c.voices)
        single = fit_reference(Corpus((c,)))
        doubled = fit_reference(Corpus((c, d)))
        assert single.references == doubled.references

    def test_desk_reference_covers_all_features(self, desk_reference):
        assert desk_reference.feature_names == DEFAULT_FEATURES
        for name in DEFAULT_FEATURES:
            assert not desk_reference.references[name].is_empty

    def test_desk_reference_pools_token_walk_events_as_a_counter(self, desk_split, desk_reference):
        for name in DEFAULT_FEATURES:
            events = [x for chorale in desk_split.train for x in TOKEN_WALKS[name](chorale)]
            assert desk_reference.references[name] == from_values(name, events), name

    def test_extractors_yield_no_nan_or_negative_zero(self, desk_split):
        # np.unique in fit_reference merges equal values as a Counter does only when neither kind occurs
        _, values = _pass_events(desk_split.train.chorales + desk_split.validation.chorales, DEFAULT_FEATURES)
        assert not np.isnan(values).any()
        assert not np.signbit(values[values == 0.0]).any()

    def test_zero_event_feature_raises(self):
        silent = Chorale(id="s", voices=((REST,), (REST,), (REST,), (60,)))
        with pytest.raises(ValueError) as err:
            fit_reference(Corpus((silent,)), feature_set=("harmonic_interval",))
        assert "harmonic_interval" in str(err.value)

    def test_weight_validation(self):
        c = Chorale(id="one", voices=((60, 64), (55, 57), (48, 50), (41, 43)))
        corpus = Corpus((c,))
        with pytest.raises(ValueError):
            fit_reference(corpus, weights={"pitch": -1.0})
        with pytest.raises(ValueError):
            fit_reference(corpus, weights={name: 0.0 for name in DEFAULT_FEATURES})
        with pytest.raises(ValueError):
            fit_reference(corpus, feature_set=("pitch",), weights={"rhythm": 1.0})

    def test_weights_that_could_overflow_a_grade_are_rejected(self):
        # a distance is at most max(p_empty, 2**32), so weights up to the float maximum / 2**32 keep grades finite
        c = Chorale(id="one", voices=((60, 64), (55, 57), (48, 50), (41, 43)))
        silent = Chorale(id="silent", voices=((REST,),) * 4)  # no pitch events: graded p_empty
        largest = sys.float_info.max / 2**32
        reference = fit_reference(Corpus((c,)), feature_set=("pitch",), weights={"pitch": largest})
        assert np.isfinite(grade([c, silent], reference).totals).all()
        with pytest.raises(ValueError, match="overflow"):
            fit_reference(Corpus((c,)), feature_set=("pitch",), weights={"pitch": largest * 1.001})
        with pytest.raises(ValueError, match="overflow"):
            fit_reference(Corpus((c,)), feature_set=("pitch", "rhythm"), p_empty=1e308)
        # a saved reference is checked as it is read, so `auggen grade --reference` rejects it too
        payload = reference.to_json()
        payload["weights"]["pitch"] = 1e308
        with pytest.raises(ValueError, match="overflow"):
            ReferenceModel.from_json(payload)


class TestGrade:
    def test_reference_member_of_singleton_corpus_grades_zero(self):
        c = Chorale(id="one", voices=((60, 64, HOLD), (55, 57, HOLD), (48, 50, HOLD), (41, 43, HOLD)))
        ref = fit_reference(Corpus((c,)))
        batch = grade(c, ref)
        assert batch.totals[0] == pytest.approx(0.0, abs=TOL)
        assert all(d == pytest.approx(0.0, abs=TOL) for d in batch.distances[0].tolist())

    def test_all_rest_chorale_gets_full_empty_penalty(self, desk_reference):
        silent = Chorale(id="silent", voices=tuple((REST,) * 4 for _ in range(4)))
        batch = grade(silent, desk_reference)
        assert all(d == desk_reference.p_empty for d in batch.distances[0].tolist())
        weight_sum = sum(desk_reference.weights.values())
        assert batch.totals[0] == pytest.approx(desk_reference.p_empty * weight_sum, abs=TOL)

    def test_corpus_members_grade_better_than_random_chorales(self, desk_split, desk_reference):
        corpus_grades = sorted(grade(desk_split.train.chorales, desk_reference).totals.tolist())
        rng = stream(99, "random-chorales")
        random_chorales = []
        for i in range(40):
            length = int(rng.integers(24, 40))
            voices = []
            for v in range(4):
                voice = [int(rng.integers(30, 90))]
                for _ in range(length - 1):
                    roll = rng.random()
                    if roll < 0.1:
                        voice.append(REST)
                    elif roll < 0.4 and voice[-1] != REST:
                        voice.append(HOLD)
                    else:
                        voice.append(int(rng.integers(30, 90)))
                voices.append(tuple(voice))
            random_chorales.append(Chorale(id=f"r{i}", voices=tuple(voices)))
        random_grades = sorted(grade(random_chorales, desk_reference).totals.tolist())
        assert nearest_rank(corpus_grades, 0.5) < nearest_rank(random_grades, 0.5)

    @given(chorales(min_length=2, max_length=6, min_pitch=40, max_pitch=80), st.integers(-5, 5))
    def test_translation_covariance_through_pitch_only(self, desk_reference, c, k):
        base, shifted = grade([c, transpose(c, k)], desk_reference).distances.tolist()
        for name, d_base, d_shifted in zip(DEFAULT_FEATURES, base, shifted):
            if name != "pitch":
                assert d_shifted == d_base


class TestBatchGrade:
    ALL_REST = Chorale(id="all-rest", voices=((REST,) * 3,) * 4)
    ONE_STEP = Chorale(id="one-step", voices=((60,), (REST,), (52,), (41,)))

    @given(st.lists(chorales(max_length=10), min_size=1, max_size=5))
    def test_batch_matches_per_feature_oracle(self, desk_reference, drawn):
        weights = dict(zip(DEFAULT_FEATURES, (0.5, 2.0, 0.0, 1.5, 0.3, 3.0)))
        references = (desk_reference, replace(desk_reference, weights=weights))
        pool = [self.ALL_REST, self.ONE_STEP, *drawn]
        for reference in references:
            expected = [reference_grade(c, reference) for c in pool]
            names = reference.feature_names

            def check(i, distances, total):
                want_distances, want_total = expected[i]
                assert [repr(distances[n]) for n in names] == [repr(want_distances[n]) for n in names]
                assert repr(total) == repr(want_total)

            width = len(names)
            for i, c in enumerate(pool):
                lone = grade(c, reference)
                assert lone.ids == (c.id,)
                check(i, dict(zip(names, lone.distances[0].tolist())), lone.totals[0].item())
            for size in (2, PASS_SIZE - 1, PASS_SIZE, PASS_SIZE + 1):  # the last two cross the pass size
                members = [k % len(pool) for k in range(size)]
                batch = grade([pool[k] for k in members], reference)
                assert batch.ids == tuple(pool[k].id for k in members)
                for row, k in enumerate(members):
                    check(k, dict(zip(names, batch.distances[row].tolist())), batch.totals[row].item())
                # the last member's row and support points are those of the same chorale graded alone
                lone = grade(pool[members[-1]], reference)
                last = batch.point_segment >= (size - 1) * width
                assert batch.distances[-1].tolist() == lone.distances[0].tolist()
                assert batch.totals[-1].item() == lone.totals[0].item()
                assert (batch.point_segment[last] - (size - 1) * width).tolist() == lone.point_segment.tolist()
                assert batch.point_value[last].tolist() == lone.point_value.tolist()
                assert batch.point_weight[last].tolist() == lone.point_weight.tolist()
        assert all(d == desk_reference.p_empty for d in grade(self.ALL_REST, desk_reference).distances[0].tolist())

    @staticmethod
    def loaded_reference(reference, kind):
        """``reference`` rebuilt by ``ReferenceModel.from_json`` with every support replaced as ``kind`` says."""
        payload = reference.to_json()
        for entry in payload["references"].values():
            support = np.array(entry["support"])
            if kind == "shifted":  # between integer events; 2**-20 keeps the fractional features off theirs too
                support += 0.5 + 2.0**-20
            elif kind == "one_point":
                support, entry["weights"] = support[:1], [1.0]
            elif kind == "negative_zero":
                support[support == 0] = -0.0
            elif kind == "dense":
                support = np.linspace(support[0] - 3, support[-1] + 3, 2_000)
                entry["weights"] = (np.arange(1, support.size + 1) / (support.size * (support.size + 1) / 2)).tolist()
            entry["support"] = support.tolist()
        return ReferenceModel.from_json(payload)

    @pytest.mark.parametrize("kind", ["shifted", "one_point", "negative_zero", "dense"])
    def test_batch_matches_oracle_against_loaded_references(self, desk_reference, desk_split, kind):
        reference = self.loaded_reference(desk_reference, kind)
        pool = [self.ALL_REST, self.ONE_STEP, *desk_split.train.chorales[:10]]
        names = reference.feature_names
        width = len(names)
        segment, value = _pass_events(pool, names)
        supports = [reference.references[name].support for name in names]
        if kind == "shifted":
            assert all(not set(value[segment % width == f].tolist()) & set(supports[f]) for f in range(width))
        elif kind == "negative_zero":  # a reference zero that is -0.0 where the pool has events of 0.0
            assert any(0.0 in value[segment % width == f] and -0.0 in supports[f] for f in range(width))
            assert all(math.copysign(1, x) < 0 for support in supports for x in support if x == 0)
        expected = [reference_grade(c, reference) for c in pool]
        lone = [grade(c, reference) for c in pool]
        for size in (len(pool), PASS_SIZE + 1):
            members = [k % len(pool) for k in range(size)]
            batch = grade([pool[k] for k in members], reference)
            for row, k in enumerate(members):
                distances, total = expected[k]
                assert [repr(d) for d in batch.distances[row].tolist()] == [repr(distances[n]) for n in names], row
                assert repr(batch.totals[row].item()) == repr(total), row
                mine = (batch.point_segment >= row * width) & (batch.point_segment < (row + 1) * width)
                assert (batch.point_segment[mine] - row * width).tolist() == lone[k].point_segment.tolist(), row
                assert batch.point_value[mine].tolist() == lone[k].point_value.tolist(), row
                assert batch.point_weight[mine].tolist() == lone[k].point_weight.tolist(), row

    def test_empty_sequence_grades_to_empty_batch(self, desk_reference):
        batch = grade([], desk_reference)
        assert batch.ids == () and batch.totals.shape == (0,)
        assert batch.distances.shape == (0, len(desk_reference.feature_names))

    def test_invalid_member_raises_as_when_graded_alone(self):
        # an invalid chorale cannot be built, so no grade, alone or in a batch, ever meets one
        with pytest.raises(InvalidChoraleError) as err:
            Chorale(id="bad", voices=((HOLD, 60), (60, 60), (60, REST), (60, HOLD)))
        assert err.value.chorale_id == "bad"
        assert err.value.violations == ("voice 0: HOLD at timestep 0",)
        assert str(err.value) == "invalid chorale 'bad': voice 0: HOLD at timestep 0"


class TestQuantile:
    def test_nearest_rank_examples(self):
        assert nearest_rank([1, 2, 3, 4], 0.75) == 3
        assert nearest_rank([5, 5, 5], 0.2) == 5
        assert nearest_rank([5, 5, 5], 0.9) == 5
        assert nearest_rank([7, 1, 9, 3], 1.0) == 9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50), st.floats(0.01, 1.0))
    def test_nearest_rank_guarantee(self, values, q):
        cut = nearest_rank(values, q)
        assert sum(v <= cut for v in values) / len(values) >= q

    def test_grade_quantile_carries_provenance(self):
        threshold = grade_quantile([1.0, 2.0, 3.0, 4.0], 0.75, corpus_digest="abc", label="auggen")
        assert threshold.value == 3.0
        assert threshold.quantile == 0.75
        assert threshold.corpus_digest == "abc"


class TestThresholdAndReferenceIO:
    def test_threshold_json_roundtrip_including_infinities(self):
        for t in (
            Threshold(value=5.0, label="auggen", quantile=0.75, corpus_digest="d"),
            Threshold(value=-math.inf, label="baseline_none"),
            Threshold(value=math.inf, label="baseline_all"),
        ):
            assert threshold_from_json(json.loads(json.dumps(t.to_json()))) == t

    def test_reference_save_load_roundtrip(self, desk_reference, tmp_path):
        path = tmp_path / "reference.json"
        desk_reference.save(path)
        loaded = ReferenceModel.load(path)
        assert loaded.digest() == desk_reference.digest()
        assert loaded.references == dict(desk_reference.references)

    def test_reference_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope"}', encoding="utf-8")
        with pytest.raises(ValueError):
            ReferenceModel.load(path)
