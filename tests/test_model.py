import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given

from auggen.chorale import HOLD, REST, Chorale, validate
from auggen import model as model_module
from auggen.corpus import teacher_model
from auggen.model import START, MarkovModel, sample_batch
from auggen.rng import stream
from conftest import ascending, chorales, once
from oracles import (
    count_tables,
    context_key,
    interned_contexts,
    iter_token_events,
    key_context,
    load_model,
    reference_next_token_dist,
    reference_sample,
    reference_save,
    replay_counts,
    token_logprob,
)

TINY = 1e-12


def quad(*voices_):
    return Chorale(id="c", voices=tuple(voices_))


class TestFitCounts:
    def test_duplicates_count_multiply(self):
        c = ascending(60)
        single = MarkovModel.with_vocab_from([c], order=2, alpha=0.1)
        single.fit([c], [1])
        double = MarkovModel.with_vocab_from([c], order=2, alpha=0.1)
        double.fit([c], [2])
        single_counts, _ = count_tables(single)
        double_counts, _ = count_tables(double)
        for v in range(4):
            assert set(double_counts[v]) == set(single_counts[v])
            for ctx, by_tok in single_counts[v].items():
                assert double_counts[v][ctx] == {tok: 2 * n for tok, n in by_tok.items()}

    @given(
        st.lists(chorales(min_length=1, max_length=6), min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=8, max_size=8),
        st.booleans(),
    )
    def test_fit_matches_replay_oracle(self, pool, weights, copy_each):
        # the dataset lists each chorale twice, as the same object or, with copy_each, as an equal-but-distinct
        # one; both must count alike, and a chorale with count 0 must not count at all
        dataset = pool + ([Chorale(id=c.id, voices=c.voices) for c in pool] if copy_each else pool)
        draw_counts = weights[: len(dataset)]
        assume(any(draw_counts))
        model = MarkovModel.with_vocab_from(pool, order=2, alpha=0.1)
        model.fit(dataset, draw_counts)
        multiset = [c for c, n in zip(dataset, draw_counts) for _ in range(n)]
        counts, totals = replay_counts(multiset, 2)
        assert count_tables(model) == (counts, totals)
        model.fit(dataset, np.array(draw_counts, dtype=np.int64))
        assert count_tables(model) == (counts, totals)

    def test_fit_rejects_empty(self):
        model = MarkovModel.with_vocab_from([ascending(60)], order=1, alpha=0.1)
        with pytest.raises(ValueError):
            model.fit([], [])

    def test_fit_rejects_all_zero_counts(self):
        c = ascending(60)
        model = MarkovModel.with_vocab_from([c], order=1, alpha=0.1)
        with pytest.raises(ValueError, match="^cannot fit on an empty multiset$"):
            model.fit([c, ascending(61)], np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([1], "expected 2 draw counts, one per chorale, got shape (1,)"),
            ([1, 1, 1], "expected 2 draw counts, one per chorale, got shape (3,)"),
            ([[1, 1]], "expected 2 draw counts, one per chorale, got shape (1, 2)"),
            ([2, -1], "draw counts must be non-negative integers"),
            ([1.0, 1.0], "draw counts must be non-negative integers"),
        ],
    )
    def test_fit_rejects_malformed_counts(self, counts, message):
        c = ascending(60)
        model = MarkovModel.with_vocab_from([c], order=1, alpha=0.1)
        with pytest.raises(ValueError) as err:
            model.fit([c, c], counts)
        assert str(err.value) == message
        assert "\n" not in str(err.value)

    def test_fit_rejects_out_of_vocabulary_tokens(self):
        model = MarkovModel.with_vocab_from([ascending(60)], order=1, alpha=0.1)
        with pytest.raises(ValueError) as err:
            model.fit([ascending(100)], [1])
        assert "vocabulary" in str(err.value)

    def test_fit_names_first_out_of_vocabulary_token(self):
        known = ascending(60)
        voices = list(known.voices)
        voices[2] = voices[2][:5] + (99,) + voices[2][6:]
        alien = Chorale(id="alien", voices=tuple(voices))
        model = MarkovModel.with_vocab_from([known], order=1, alpha=0.1)
        with pytest.raises(ValueError) as err:
            model.fit([known, alien], [2, 2])
        assert str(err.value) == "chorale 'alien': token 99 not in voice 2 vocabulary"

    def test_fit_reads_only_drawn_chorales(self):
        known = ascending(60)
        model = MarkovModel.with_vocab_from([known], order=1, alpha=0.1)
        model.fit([ascending(100), known], [0, 3])  # the undrawn chorale's tokens are outside the vocabulary
        assert count_tables(model) == replay_counts([known] * 3, 1)

    def test_fit_rejects_counts_beyond_int32(self, monkeypatch):
        c = ascending(60)  # 32 events
        model = MarkovModel.with_vocab_from([c], order=1, alpha=0.1)
        monkeypatch.setattr(model_module, "_MAX_COUNT", 63)
        model.fit([c], [1])
        with pytest.raises(ValueError, match="events exceed"):
            model.fit([c], [3])  # 96 events, over the (lowered) limit

    def test_additive_smoothing_formula(self):
        # soprano vocab {60, 62}; context (60,) seen 4 times: 62 thrice, 60 once
        c = quad(
            (60, 62, 60, 62, 60, 62, 60, 60),
            (41,) * 8,
            (41,) * 8,
            (41,) * 8,
        )
        model = MarkovModel.with_vocab_from([c], order=1, alpha=1.0)
        model.fit([c], [1])
        probs = model.next_token_dist(0, (60,))
        by_token = dict(zip(model.vocabs[0], probs))
        assert by_token[62] == pytest.approx((3 + 1) / (4 + 2))
        assert by_token[60] == pytest.approx((1 + 1) / (4 + 2))

    def test_order1_deterministic_transition(self):
        c = quad((60, 62, 60, 62), (41,) * 4, (41,) * 4, (41,) * 4)
        model = MarkovModel.with_vocab_from([c], order=1, alpha=TINY)
        model.fit([c], [1])
        probs = model.next_token_dist(0, (60,))
        assert probs[model.vocabs[0].index(62)] == pytest.approx(1.0, abs=1e-9)


class TestNextTokenDist:
    def test_unseen_context_is_uniform(self):
        model = MarkovModel.with_vocab_from([ascending(60)], order=2, alpha=0.5)
        model.fit([ascending(60)], [1])
        probs = model.next_token_dist(0, (1, 2))
        assert np.allclose(probs, 1.0 / len(model.vocabs[0]))

    def test_normalization_at_random_contexts(self, desk_split):
        model = MarkovModel.with_vocab_from(desk_split.train, order=2, alpha=0.1)
        model.fit(desk_split.train.chorales, once(desk_split.train))
        rng = stream(5, "contexts")
        for v in range(4):
            vocab = model.vocabs[v] + (START,)
            for _ in range(125):
                context = tuple(vocab[int(i)] for i in rng.integers(0, len(vocab), size=2 + v))
                assert abs(model.next_token_dist(v, context).sum() - 1.0) <= 1e-12

    def test_matches_numpy_formula_for_every_interned_context(self, desk_split):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        model.fit(chorales_, once(chorales_))
        model.mean_nll(list(desk_split.validation))  # interns validation contexts: rows the counts do not cover
        assert len(model._rows) > len(model._row_totals)
        unseen = [(v, (START,) * (2 + v)) for v in range(1, 4)]  # the soprano cannot be START, so never interned
        contexts = interned_contexts(model) + unseen
        for v, context in contexts:
            assert np.array_equal(model.next_token_dist(v, context), reference_next_token_dist(model, v, context))

    def test_another_voices_context_is_uniform(self, desk_split):
        # one dict interns every voice's contexts; only the length says whose a context is
        model = MarkovModel.with_vocab_from(desk_split.train, order=2, alpha=0.1)
        model.fit(desk_split.train.chorales, once(desk_split.train))
        for voice, context in interned_contexts(model):
            for v in range(4):
                if v == voice:
                    continue
                size = len(model.vocabs[v])
                uniform = np.full(size, model.alpha) / (model.alpha * size)
                assert np.array_equal(model.next_token_dist(v, context), uniform), (v, context)


class TestContextKeys:
    @given(
        st.integers(1, 5),
        st.lists(chorales(min_length=1, max_length=8), min_size=2, max_size=4),
        st.integers(60, 70),
        st.integers(1, 80),
        st.data(),
    )
    def test_encoding_matches_token_events(self, order, pool, copies, cut, data):
        # copies of pool[0] push the others past the first 64-chorale chunk; a repeated object is encoded once
        vocab_pool = pool[: data.draw(st.integers(1, len(pool)))]  # the rest may bring unknown tokens
        batch = [Chorale(id=f"copy{i}", voices=pool[0].voices) for i in range(copies)] + pool[1:] + pool[1:2]
        model = MarkovModel.with_vocab_from(vocab_pool, order=order, alpha=0.1)
        model._encode_all(batch[:cut])  # an earlier call: row ids carry on from it
        rows, toks, sizes = model._encode_all(batch)
        first_seen: dict = {}
        expected_rows, expected_toks = [], []
        for chorale in batch:
            for v, context, tok in iter_token_events(chorale, order):
                expected_rows.append(first_seen.setdefault((v, context), len(first_seen)))
                expected_toks.append(model.vocabs[v].index(tok) if tok in model.vocabs[v] else -1)
        assert rows.tolist() == expected_rows
        assert toks.tolist() == expected_toks
        assert sizes.tolist() == [4 * chorale.length for chorale in batch]
        assert interned_contexts(model) == list(first_seen)

    def test_largest_key_fits_int64_up_to_order_5(self):
        for order in range(1, 7):
            context = (START,) * (order + 3)  # START is the top digit, and voice 3's contexts are the longest
            key = context_key(3, context)
            assert key_context(order, key) == (3, context)
            assert (key < 2**63) == (order <= 5), order

    @pytest.mark.parametrize("order", [0, 6, 7])
    def test_order_outside_int64_keys_rejected(self, order):
        with pytest.raises(ValueError) as err:
            MarkovModel(order=order, alpha=0.1, vocabs=[(60, REST)] * 4)
        assert str(err.value) == f"order must be in 1..5, got {order}"

    def test_vocabulary_must_hold_tokens(self):
        with pytest.raises(ValueError) as err:
            MarkovModel(order=1, alpha=0.1, vocabs=[(60, REST), (128,), (48,), (36,)])
        assert str(err.value) == "voice 1 vocabulary holds 128, which is not a token"

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_save_matches_text_key_sort_on_desk_model(self, desk_split, tmp_path, order):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=order, alpha=0.1)
        model.mean_nll(list(desk_split.validation))  # rows with zero counts, and rows past the table's end
        model.fit(chorales_, np.arange(len(chorales_)) % 3)
        model.mean_nll(chorales_[:5] + [ascending(40)])
        model.save(tmp_path / "a.json")
        reference_save(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_save_matches_text_key_sort_on_paper_scale_model(self, tmp_path):
        model = teacher_model(17)
        assert len(model._rows) > 10_000
        model.save(tmp_path / "a.json")
        reference_save(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_unfitted_model_saves_no_counts(self, tmp_path):
        model = MarkovModel.with_vocab_from([ascending(60)], order=2, alpha=0.1)
        model.mean_nll([ascending(60)])
        model.save(tmp_path / "a.json")
        reference_save(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert load_model(tmp_path / "a.json").vocabs == model.vocabs


class TestSample:
    def test_sampling_deterministic_given_stream(self, desk_split):
        model = MarkovModel.with_vocab_from(desk_split.train, order=2, alpha=0.1)
        model.fit(desk_split.train.chorales, once(desk_split.train))
        a = model.sample(20, stream(3, "s"), chorale_id="a")
        b = model.sample(20, stream(3, "s"), chorale_id="b")
        assert a.voices == b.voices

    def test_samples_always_valid(self, desk_split):
        model = MarkovModel.with_vocab_from(desk_split.train, order=2, alpha=0.1)
        model.fit(desk_split.train.chorales, once(desk_split.train))
        rng = stream(4, "validity")
        for i in range(200):
            assert validate(model.sample(int(rng.integers(1, 40)), rng)) == []

    def test_near_zero_alpha_reproduces_training_chorale(self):
        # rising lines keep every context unique, so the fitted conditionals
        # are point masses and sampling must replay the chorale
        source = Chorale(
            id="src",
            voices=(
                (72, HOLD, 74, HOLD, 76, 77, HOLD, 79),
                (67, 69, HOLD, 71, REST, 72, 74, HOLD),
                (60, HOLD, HOLD, 62, 64, HOLD, 65, 67),
                (48, 50, 52, HOLD, 53, 55, REST, 57),
            ),
        )
        transitions = {}
        for v, ctx, tok in iter_token_events(source, 2):
            assert transitions.setdefault((v, ctx), tok) == tok
        model = MarkovModel.with_vocab_from([source], order=2, alpha=TINY)
        model.fit([source], [1])
        clone = model.sample(source.length, stream(0, "clone"))
        assert clone.voices == source.voices

    @given(
        st.lists(chorales(min_length=2, max_length=8), min_size=2, max_size=5),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-3, 0.1, 1.0]),
    )
    def test_sample_matches_reference_sampler(self, pool, seed, alpha):
        model = MarkovModel.with_vocab_from(pool, order=2, alpha=alpha)
        fresh = model.sample(6, stream(seed, "fresh"))
        assert fresh.voices == reference_sample(model, 6, stream(seed, "fresh")).voices
        model.fit(pool[:1], [1])
        early = model.snapshot()
        model.fit(pool, once(pool))  # interns the other chorales' contexts after the snapshot
        for phase in ("fitted", "restored"):
            for k in range(3):
                length = 1 + 5 * k
                sampled = model.sample(length, stream(seed, phase, k))
                assert sampled.voices == reference_sample(model, length, stream(seed, phase, k)).voices
            model.restore(early)

    def test_sample_matches_reference_sampler_on_desk_corpus(self, desk_split):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        model.fit(chorales_[:8], once(chorales_[:8]))
        early = model.snapshot()
        model.fit(chorales_, once(chorales_))
        model.mean_nll(list(desk_split.validation))  # interns validation contexts, unfitted rows
        for phase in ("fitted", "restored"):
            for k in range(20):
                length = 1 + 2 * k
                sampled = model.sample(length, stream(9, phase, k))
                assert sampled.voices == reference_sample(model, length, stream(9, phase, k)).voices
            model.restore(early)

    def test_rows_without_counts_share_the_uniform_cdf(self, desk_split):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        model.mean_nll(list(desk_split.validation))  # rows in the table whose total will be 0
        model.fit(chorales_[:8], once(chorales_[:8]))
        model.mean_nll(chorales_[8:])  # rows interned after the fit
        model._build_tables()
        for vocab, (keys, cdfs) in zip(model.vocabs, model._tables):  # counted keys, _NO_KEY; CDFs, two uniform
            assert keys[-1] == model_module._NO_KEY and (np.diff(keys) > 0).all()
            assert cdfs.shape == (keys.size + 1, len(vocab))
        assert sum(keys.size - 1 for keys, _ in model._tables) == np.count_nonzero(model._row_totals)
        kinds = set()
        for row, (v, context) in enumerate(interned_contexts(model)):
            keys, cdfs = model._tables[v]
            counted = row < len(model._row_totals) and model._row_totals[row] > 0
            kinds.add("counted" if counted else "past the table" if row >= len(model._row_totals) else "total 0")
            at = int(np.searchsorted(keys, context_key(v, context)))
            assert (keys[at] == context_key(v, context)) == counted, row
            masked = context[model.order - 1] in (REST, START)  # the voice's own last token
            cdf = cdfs[at if counted else keys.size - 1 + masked]
            probs = reference_next_token_dist(model, v, context)
            if masked and HOLD in model.vocabs[v]:
                probs[model.vocabs[v].index(HOLD)] = 0.0
            assert cdf[:-1].tolist() == np.cumsum(probs / probs.sum())[:-1].tolist(), row
            assert cdf[-1] == np.inf  # so the first entry above a uniform is bisect_right clamped to the vocabulary
        assert kinds == {"counted", "total 0", "past the table"}

    def test_tables_are_built_once_per_fit_or_restore(self, desk_split, monkeypatch):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        model._build_tables()
        for v, (keys, cdfs) in enumerate(model._tables):  # unfitted: only the voice's two uniform CDFs
            assert keys.tolist() == [model_module._NO_KEY]
            probs = reference_next_token_dist(model, v, (START,) * (model.order + v))
            masked = probs.copy()
            if HOLD in model.vocabs[v]:
                masked[model.vocabs[v].index(HOLD)] = 0.0
            expected = [np.cumsum(p / p.sum())[:-1].tolist() + [math.inf] for p in (probs, masked)]
            assert cdfs.tolist() == expected, v
        builds = []
        build = model._build_tables
        monkeypatch.setattr(model, "_build_tables", lambda: builds.append(1) or build())
        model.fit(chorales_[:8], once(chorales_[:8]))
        early = model.snapshot()
        for _ in range(2):
            sample_batch(model, range(1, 13), 3, ("first",), ["a", "b"])
        model.mean_nll(chorales_)  # interns rows after the fit, which read the uniform CDFs
        model.sample(5, stream(3, "after mean_nll"))
        assert len(builds) == 1
        model.fit(chorales_, once(chorales_))
        for _ in range(2):
            sample_batch(model, range(1, 13), 3, ("refit",), ["a", "b"])
        assert len(builds) == 2
        model.restore(early)
        for _ in range(2):
            sample_batch(model, range(1, 13), 3, ("restored",), ["a", "b"])
        assert len(builds) == 3

    @given(
        st.lists(chorales(min_length=2, max_length=8), min_size=2, max_size=5),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-3, 0.1, 1.0]),
        st.sampled_from([0, 1, 2, 60]),
        st.sampled_from(["fresh", "fitted", "restored", "new rows"]),
    )
    def test_sample_batch_matches_reference_sampler_per_stream(self, pool, seed, alpha, size, state):
        model = MarkovModel.with_vocab_from(pool, order=2, alpha=alpha)
        if state != "fresh":
            model.fit(pool[:1], [1])
            early = model.snapshot()
            if state == "new rows":
                model.mean_nll(pool)  # interns the other chorales' contexts after the fit
            else:
                model.fit(pool, once(pool))
            if state == "restored":
                model.restore(early)
        lengths = range(1, 13)
        ids = [f"c{j}" for j in range(size)]
        batch = sample_batch(model, lengths, seed, ("batch",), ids)
        assert [chorale.id for chorale in batch] == ids
        for j, chorale in enumerate(batch):
            rng = stream(seed, "batch", j)
            length = lengths[int(rng.integers(0, len(lengths)))]
            assert chorale.voices == reference_sample(model, length, rng).voices, j

    def test_one_draw_per_position(self, desk_split):
        model = MarkovModel.with_vocab_from(desk_split.train, order=2, alpha=0.1)
        model.fit(desk_split.train.chorales, once(desk_split.train))
        rng = stream(2, "draws")
        model.sample(30, rng)
        after = stream(2, "draws")
        after.random(4 * 30)
        assert rng.random() == after.random()


def per_event_mean_nll(model, chorales_) -> float:
    total = 0.0
    positions = 0
    for chorale in chorales_:
        acc = 0.0
        for v, context, tok in iter_token_events(chorale, model.order):
            acc -= token_logprob(model, v, context, tok)
            positions += 1
        total += acc
    return total / positions


class TestMeanNll:
    @given(
        st.lists(chorales(min_length=1, max_length=8), min_size=2, max_size=5),
        st.lists(st.integers(0, 4), min_size=1, max_size=12),
    )
    def test_equals_per_event_logprob_loop(self, pool, picks):
        # vocabulary from two chorales only, so the others bring unknown tokens and contexts
        model = MarkovModel.with_vocab_from(pool[:2], order=2, alpha=0.1)
        draws = [i % len(pool) for i in picks]
        drawn = [pool[i] for i in draws]
        assert model.mean_nll(pool, draws) == per_event_mean_nll(model, drawn)
        assert model.mean_nll(drawn) == per_event_mean_nll(model, drawn)
        model.fit(pool[:1], [1])
        early = model.snapshot()
        model.fit(pool[:2], [1, 1])
        assert model.mean_nll(pool, draws) == per_event_mean_nll(model, drawn)
        assert model.mean_nll(pool, np.array(draws)) == per_event_mean_nll(model, drawn)
        model.restore(early)
        assert model.mean_nll(pool, draws) == per_event_mean_nll(model, drawn)
        assert model.mean_nll(drawn) == per_event_mean_nll(model, drawn)

    def test_equals_per_event_logprob_loop_on_desk_corpus(self, desk_split):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        draws = stream(3, "draws").integers(0, len(chorales_), size=500)
        model.fit(chorales_, np.bincount(draws, minlength=len(chorales_)))
        validation = list(desk_split.validation)
        drawn = [chorales_[i] for i in draws.tolist()]
        assert model.mean_nll(chorales_, draws) == per_event_mean_nll(model, drawn)
        assert model.mean_nll(validation) == per_event_mean_nll(model, validation)

    def test_zero_on_deterministic_training_data(self):
        c = ascending(72, length=10)
        model = MarkovModel.with_vocab_from([c], order=2, alpha=TINY)
        model.fit([c], [1])
        assert model.mean_nll([c]) < 1e-9

    def test_uniform_model_scores_log_vocab(self):
        c = ascending(72, length=6)
        model = MarkovModel.with_vocab_from([c], order=2, alpha=0.3)  # zero counts: uniform
        for v in range(4):
            assert len(model.vocabs[v]) == 6
        assert model.mean_nll([c]) == pytest.approx(math.log(6), abs=1e-12)

    def test_finite_on_out_of_vocabulary_corpus(self, desk_split):
        model = MarkovModel.with_vocab_from(desk_split.train, order=2, alpha=0.1)
        model.fit(desk_split.train.chorales, once(desk_split.train))
        alien = Chorale(id="alien", voices=((120, 121, 122),) * 4)
        value = model.mean_nll([alien])
        assert math.isfinite(value) and value > 0

    @given(chorales(min_length=2, max_length=6), chorales(min_length=2, max_length=6))
    def test_fit_model_beats_uniform_on_training_data(self, c, d):
        corpus = [c, Chorale(id=c.id + "-b", voices=d.voices)]
        fitted = MarkovModel.with_vocab_from(corpus, order=2, alpha=TINY)
        fitted.fit(corpus, once(corpus))
        uniform = MarkovModel.with_vocab_from(corpus, order=2, alpha=TINY)
        assert fitted.mean_nll(corpus) <= uniform.mean_nll(corpus) + 1e-9


class TestSnapshotAndSerialization:
    def test_snapshot_restore_roundtrip(self, desk_split):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        model.fit(chorales_[:10], once(chorales_[:10]))
        state = model.snapshot()
        before = count_tables(model)
        model.fit(chorales_[10:20], once(chorales_[10:20]))
        model.restore(state)
        fresh = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        fresh.fit(chorales_[:10], once(chorales_[:10]))
        rng = stream(8, "spot")
        for v in range(4):
            vocab = model.vocabs[v] + (START,)
            for _ in range(25):
                context = tuple(vocab[int(i)] for i in rng.integers(0, len(vocab), size=2 + v))
                assert np.array_equal(model.next_token_dist(v, context), fresh.next_token_dist(v, context))
        assert count_tables(model) == before

    def test_restore_same_snapshot_twice(self, desk_split):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        model.fit(chorales_[:10], once(chorales_[:10]))
        state = model.snapshot()
        counts, _ = count_tables(model)
        contexts = [(v, context) for v in range(4) for context in list(counts[v])[:5]]
        model.restore(state)
        first = [model.next_token_dist(v, context) for v, context in contexts]
        model.fit(chorales_[10:20], once(chorales_[10:20]))
        model.restore(state)
        second = [model.next_token_dist(v, context) for v, context in contexts]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_restore_rejects_foreign_state(self, desk_split):
        model = MarkovModel.with_vocab_from(desk_split.train, order=2, alpha=0.1)
        with pytest.raises(TypeError):
            model.restore({})

    def test_save_load_roundtrip(self, desk_split, tmp_path):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        model.fit(chorales_, once(chorales_))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = load_model(path)
        assert loaded.order == model.order and loaded.alpha == model.alpha
        assert loaded.vocabs == model.vocabs
        assert count_tables(loaded) == count_tables(model)

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope"}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_model(path)


class TestConstruction:
    def test_parameter_validation(self):
        c = ascending(60)
        with pytest.raises(ValueError):
            MarkovModel.with_vocab_from([c], order=0, alpha=0.1)
        with pytest.raises(ValueError):
            MarkovModel.with_vocab_from([c], order=1, alpha=0.0)
        with pytest.raises(ValueError):
            MarkovModel.with_vocab_from([], order=1, alpha=0.1)

    def test_hold_only_vocabulary_rejected(self):
        # a voice must start with a note or a rest, so such a model could never sample
        with pytest.raises(ValueError, match="only"):
            MarkovModel(order=1, alpha=0.1, vocabs=[(60, REST), (HOLD,), (48,), (36,)])
        MarkovModel(order=1, alpha=0.1, vocabs=[(60, REST), (HOLD, REST), (48,), (36,)])

    def test_start_never_in_vocabulary(self, desk_split):
        model = MarkovModel.with_vocab_from(desk_split.train, order=2, alpha=0.1)
        for vocab in model.vocabs:
            assert START not in vocab
