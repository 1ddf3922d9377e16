import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given

from auggen.chorale import HOLD, REST, Chorale, validate
from auggen import model as model_module
from auggen.corpus import teacher_corpus, teacher_model
from auggen.model import START, MarkovModel, sample_batch
from auggen.rng import stream
from conftest import ascending, chorales, once, repeats
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
        single.fit([c], [0])
        double = MarkovModel.with_vocab_from([c], order=2, alpha=0.1)
        double.fit([c], [0, 0])
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
        draws = [i for i, n in enumerate(weights[: len(dataset)]) for _ in range(n)]
        assume(draws)
        model = MarkovModel.with_vocab_from(pool, order=2, alpha=0.1)
        multiset = [dataset[i] for i in draws]
        assert model.fit(dataset, draws) == per_event_mean_nll(model, multiset)
        counts, totals = replay_counts(multiset, 2)
        assert count_tables(model) == (counts, totals)
        model.fit(dataset, np.array(draws[::-1], dtype=np.uint64))  # the draws' order does not move a count
        assert count_tables(model) == (counts, totals)

    def test_fit_rejects_empty(self):
        model = MarkovModel.with_vocab_from([ascending(60)], order=1, alpha=0.1)
        with pytest.raises(ValueError, match="^cannot fit on an empty multiset$"):
            model.fit([], [])

    def test_fit_rejects_all_zero_counts(self):
        # no draws: every chorale's count is zero
        c = ascending(60)
        model = MarkovModel.with_vocab_from([c], order=1, alpha=0.1)
        with pytest.raises(ValueError, match="^cannot fit on an empty multiset$"):
            model.fit([c, ascending(61)], np.zeros(0, dtype=np.int64))

    def test_fit_rejects_out_of_vocabulary_tokens(self):
        model = MarkovModel.with_vocab_from([ascending(60)], order=1, alpha=0.1)
        with pytest.raises(ValueError) as err:
            model.fit([ascending(100)], [0])
        assert "vocabulary" in str(err.value)

    def test_fit_names_first_out_of_vocabulary_token(self):
        known = ascending(60)
        voices = list(known.voices)
        voices[2] = voices[2][:5] + (99,) + voices[2][6:]
        alien = Chorale(id="alien", voices=tuple(voices))
        model = MarkovModel.with_vocab_from([known], order=1, alpha=0.1)
        with pytest.raises(ValueError) as err:
            model.fit([known, alien], [0, 1, 0, 1])
        assert str(err.value) == "chorale 'alien': token 99 not in voice 2 vocabulary"

    def test_fit_reads_only_drawn_chorales(self):
        known = ascending(60)
        model = MarkovModel.with_vocab_from([known], order=1, alpha=0.1)
        model.fit([ascending(100), known], [1, 1, 1])  # the undrawn chorale's tokens are outside the vocabulary
        assert count_tables(model) == replay_counts([known] * 3, 1)

    def test_fit_rejects_counts_beyond_int32(self, monkeypatch):
        c = ascending(60)  # 32 events
        model = MarkovModel.with_vocab_from([c], order=1, alpha=0.1)
        monkeypatch.setattr(model_module, "_MAX_COUNT", 63)
        model.fit([c], [0])
        with pytest.raises(ValueError, match="events exceed"):
            model.fit([c], [0, 0, 0])  # 96 events, over the (lowered) limit

    def test_additive_smoothing_formula(self):
        # soprano vocab {60, 62}; context (60,) seen 4 times: 62 thrice, 60 once
        c = quad(
            (60, 62, 60, 62, 60, 62, 60, 60),
            (41,) * 8,
            (41,) * 8,
            (41,) * 8,
        )
        model = MarkovModel.with_vocab_from([c], order=1, alpha=1.0)
        model.fit([c], [0])
        probs = model.next_token_dist(0, (60,))
        by_token = dict(zip(model.vocabs[0], probs))
        assert by_token[62] == pytest.approx((3 + 1) / (4 + 2))
        assert by_token[60] == pytest.approx((1 + 1) / (4 + 2))

    def test_order1_deterministic_transition(self):
        c = quad((60, 62, 60, 62), (41,) * 4, (41,) * 4, (41,) * 4)
        model = MarkovModel.with_vocab_from([c], order=1, alpha=TINY)
        model.fit([c], [0])
        probs = model.next_token_dist(0, (60,))
        assert probs[model.vocabs[0].index(62)] == pytest.approx(1.0, abs=1e-9)


class TestNextTokenDist:
    def test_unseen_context_is_uniform(self):
        model = MarkovModel.with_vocab_from([ascending(60)], order=2, alpha=0.5)
        model.fit([ascending(60)], [0])
        probs = model.next_token_dist(0, (1, 2))
        assert np.allclose(probs, 1.0 / len(model.vocabs[0]))

    @pytest.mark.parametrize("context", [(True,), (1.0,), (np.int64(1),)])
    def test_context_of_values_that_only_equal_a_token_is_uniform(self, context):
        c = quad((1, 62, 1, 62), (41,) * 4, (41,) * 4, (41,) * 4)
        model = MarkovModel.with_vocab_from([c], order=1, alpha=TINY)
        model.fit([c], [0])
        assert model.next_token_dist(0, (1,))[model.vocabs[0].index(62)] == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(model.next_token_dist(0, context), 1.0 / len(model.vocabs[0]))

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
        assert model._sorted_keys.size > len(model._row_totals)
        unseen = [(v, (START,) * (2 + v)) for v in range(1, 4)]  # the soprano cannot be START, so never interned
        contexts = interned_contexts(model) + unseen
        for v, context in contexts:
            assert np.array_equal(model.next_token_dist(v, context), reference_next_token_dist(model, v, context))

    def test_another_voices_context_is_uniform(self, desk_split):
        # one key array interns every voice's contexts; only the length says whose a context is
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
        # pool[0] and rests after it push the others past the first 64-grid batch; an equal grid is encoded once
        vocab_pool = pool[: data.draw(st.integers(1, len(pool)))]  # the rest may bring unknown tokens
        padded = [Chorale(f"pad{i}", [voice + (REST,) * i for voice in pool[0].voices]) for i in range(copies)]
        batch = padded + pool[1:] + pool[1:2]
        model = MarkovModel.with_vocab_from(vocab_pool, order=order, alpha=0.1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "_BATCH", 64)
            earlier = model._encode_all(batch[:cut])[0].tolist()  # an earlier call: its row ids must not change
            before = model._sorted_keys.size
            rows, toks, sizes = model._encode_all(batch)
        expected_contexts, expected_toks = [], []
        for chorale in batch:
            for v, context, tok in iter_token_events(chorale, order):
                expected_contexts.append((v, context))
                expected_toks.append(model.vocabs[v].index(tok) if tok in model.vocabs[v] else -1)
        contexts = interned_contexts(model)  # by row id
        assert [contexts[row] for row in rows.tolist()] == expected_contexts
        assert toks.tolist() == expected_toks
        assert sizes.tolist() == [4 * chorale.length for chorale in batch]
        assert rows.tolist()[: len(earlier)] == earlier
        assert len(set(contexts)) == len(contexts) == len(set(expected_contexts))
        assert sorted(set(earlier)) == list(range(before))
        assert sorted(set(rows.tolist()) - set(earlier)) == list(range(before, len(contexts)))

    @given(st.lists(chorales(min_length=1, max_length=6), min_size=4, max_size=10), st.data())
    def test_interleaved_fits_and_scorings_across_intern_batches(self, pool, data):
        # three chorales per intern batch, and new chorales arrive before each fit, so every call grows the store
        model = MarkovModel.with_vocab_from(pool, order=2, alpha=0.1)
        arrived = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "_BATCH", 3)
            for _ in range(3):
                arrived = data.draw(st.integers(min(arrived + 1, len(pool)), len(pool)))
                dataset = pool[:arrived]
                draws = data.draw(st.lists(st.integers(0, arrived - 1), min_size=1, max_size=12))
                drawn = [dataset[i] for i in draws]
                loss = model.fit(dataset, draws)
                assert count_tables(model) == replay_counts(drawn, 2)
                assert loss == model.mean_nll(drawn) == per_event_mean_nll(model, drawn)
                unseen = pool[arrived - 1 :]  # the last arrival and any chorale not yet fitted or scored
                assert model.mean_nll(unseen) == per_event_mean_nll(model, unseen)

    def test_equal_grids_share_one_store_entry(self):
        # a chorale's events depend only on its grid, so a chorale with another id or object adds nothing
        first = ascending(60)
        twin = Chorale(id="twin", voices=first.voices)
        model = MarkovModel.with_vocab_from([first], order=2, alpha=0.1)
        model.encode([first])
        store = [getattr(model, name).copy() for name in STORE]
        model.encode([twin, Chorale(id=first.id, voices=first.voices)])
        assert list(model._index) == [first.codes]
        for name, old in zip(STORE, store):
            assert np.array_equal(getattr(model, name), old), name
        rows, toks, sizes = model._encode_all([first, twin])
        assert sizes.tolist() == [32, 32]
        assert np.array_equal(rows[:32], rows[32:]) and np.array_equal(toks[:32], toks[32:])

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

    @pytest.mark.parametrize("vocab", [(True,), (60.0,), (np.int64(60),), (True, 60), (60.0, REST)])
    def test_vocabulary_rejects_values_that_only_equal_a_token(self, vocab):
        # True == 1 and 60.0 == 60, and each hashes alike, but a chorale cannot hold them
        with pytest.raises(ValueError) as err:
            MarkovModel(order=1, alpha=0.1, vocabs=[vocab, (60,), (60,), (60,)])
        assert str(err.value) == f"voice 0 vocabulary holds {vocab[0]!r}, which is not a token"

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_save_matches_text_key_sort_on_desk_model(self, desk_split, tmp_path, order):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=order, alpha=0.1)
        model.mean_nll(list(desk_split.validation))  # rows with zero counts, and rows past the table's end
        model.fit(chorales_, repeats(np.arange(len(chorales_)) % 3))
        model.mean_nll(chorales_[:5] + [ascending(40)])
        model.save(tmp_path / "a.json")
        reference_save(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_save_matches_text_key_sort_on_paper_scale_model(self, tmp_path):
        model = teacher_model(17)
        assert model._sorted_keys.size > 10_000
        model.save(tmp_path / "a.json")
        reference_save(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("order", [1, 5])
    @pytest.mark.parametrize("largest", [10**9, 2**31 - 1])  # a largest count that is a power of ten, or not
    def test_save_writes_counts_of_every_decimal_width(self, desk_split, tmp_path, order, largest):
        model = MarkovModel.with_vocab_from(desk_split.train, order=order, alpha=0.1)
        model._encode_all(desk_split.train.chorales)
        voices = np.array([v for v, _ in interned_contexts(model)])
        sizes = np.array([len(vocab) for vocab in model.vocabs])
        cells = np.flatnonzero(np.arange(model._width) < sizes[voices, None])  # the cells of each row's vocabulary
        values = sorted({10**k - 1 for k in range(1, 10)} | {10**k for k in range(10)} | {largest})
        rng = np.random.default_rng(order)
        table = np.zeros((voices.size, model._width), dtype=np.int32)
        table.flat[rng.choice(cells, size=2000, replace=False)] = np.resize(values, 2000)
        model.restore({"table": table, "totals": table.sum(axis=1, dtype=np.int64)})
        model.save(tmp_path / "a.json")
        reference_save(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        saved = json.loads((tmp_path / "a.json").read_text(encoding="utf-8"))["counts"]
        assert {len(str(count)) for *_, count in saved} == set(range(1, 11))

    def test_sorted_keys_stay_a_permutation_of_the_interned_keys(self):
        rng = np.random.default_rng(5)
        pool = list(teacher_corpus(5, 300))
        for order in (1, 3, 5):
            model = MarkovModel.with_vocab_from(pool, order=order, alpha=0.1)
            for _ in range(4):  # each call spans several 64-chorale chunks, and later calls reuse known keys
                model._encode_all([pool[i] for i in rng.choice(len(pool), size=150, replace=False)])
                assert np.all(np.diff(model._sorted_keys) > 0)
                assert np.array_equal(np.sort(model._sorted_rows), np.arange(model._sorted_keys.size))

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
        model.fit([source], [0])
        clone = model.sample(source.length, stream(0, "clone"))
        assert clone.voices == source.voices

    @given(
        st.lists(chorales(min_length=2, max_length=8), min_size=2, max_size=5),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-3, 0.1, 1.0]),
        st.integers(1, 5),
    )
    def test_sample_matches_reference_sampler(self, pool, seed, alpha, order):
        model = MarkovModel.with_vocab_from(pool, order=order, alpha=alpha)
        fresh = model.sample(6, stream(seed, "fresh"))
        assert fresh.voices == reference_sample(model, 6, stream(seed, "fresh")).voices
        model.fit(pool[:1], [0])
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
        keys, cdfs = model._tables  # counted keys, _NO_KEY; their CDFs, then each voice's two uniform CDFs
        assert keys[-1] == model_module._NO_KEY and (np.diff(keys) > 0).all()
        assert cdfs.shape == (keys.size + 7, max(len(vocab) for vocab in model.vocabs))
        assert keys.size - 1 == np.count_nonzero(model._row_totals)
        kinds = set()
        for row, (v, context) in enumerate(interned_contexts(model)):
            counted = row < len(model._row_totals) and model._row_totals[row] > 0
            kinds.add("counted" if counted else "past the table" if row >= len(model._row_totals) else "total 0")
            at = int(np.searchsorted(keys, context_key(v, context)))
            assert (keys[at] == context_key(v, context)) == counted, row
            masked = context[model.order - 1] in (REST, START)  # the voice's own last token
            cdf = cdfs[at if counted else keys.size - 1 + 2 * v + masked]
            probs = reference_next_token_dist(model, v, context)
            if masked and HOLD in model.vocabs[v]:
                probs[model.vocabs[v].index(HOLD)] = 0.0
            size = len(model.vocabs[v])
            assert cdf[: size - 1].tolist() == np.cumsum(probs / probs.sum())[:-1].tolist(), row
            # +inf from the last vocabulary entry on, so the first entry above a uniform is bisect_right clamped to
            # the vocabulary
            assert (cdf[size - 1 :] == np.inf).all(), row
        assert kinds == {"counted", "total 0", "past the table"}

    def test_tables_are_built_once_per_fit(self, desk_split, monkeypatch):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        model._build_tables()
        keys, cdfs = model._tables
        assert keys.tolist() == [model_module._NO_KEY]  # unfitted: only each voice's two uniform CDFs
        width = max(len(vocab) for vocab in model.vocabs)
        assert cdfs.shape == (8, width)
        for v in range(4):
            probs = reference_next_token_dist(model, v, (START,) * (model.order + v))
            masked = probs.copy()
            if HOLD in model.vocabs[v]:
                masked[model.vocabs[v].index(HOLD)] = 0.0
            padding = [math.inf] * (width - probs.size + 1)
            expected = [np.cumsum(p / p.sum())[:-1].tolist() + padding for p in (probs, masked)]
            assert cdfs[2 * v : 2 * v + 2].tolist() == expected, v
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
        model.restore(early)  # its tables were built at the first draw after its fit, and the snapshot keeps them
        for _ in range(2):
            sample_batch(model, range(1, 13), 3, ("restored",), ["a", "b"])
        assert len(builds) == 2

    def test_sample_after_restore_matches_freshly_built_tables(self, desk_split):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        model.fit(chorales_[:8], once(chorales_[:8]))
        early = model.snapshot()
        sample_batch(model, range(1, 13), 3, ("first",), ["a"])  # builds the tables the snapshot keeps
        kept = model._tables
        model.fit(chorales_, once(chorales_))
        sample_batch(model, range(1, 13), 3, ("refit",), ["a"])
        model.mean_nll(list(desk_split.validation))  # interns rows after both fits
        model.restore(early)
        ids = [f"c{j}" for j in range(20)]
        restored = sample_batch(model, range(1, 25), 5, ("restored",), ids)
        assert model._tables is kept
        model._build_tables()
        (keys, cdfs), (kept_keys, kept_cdfs) = model._tables, kept
        assert np.array_equal(keys, kept_keys) and np.array_equal(cdfs, kept_cdfs)
        rebuilt = sample_batch(model, range(1, 25), 5, ("restored",), ids)
        fresh = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)  # other row ids, the same keys
        fresh.fit(chorales_[:8], once(chorales_[:8]))
        expected = [chorale.codes for chorale in sample_batch(fresh, range(1, 25), 5, ("restored",), ids)]
        assert [chorale.codes for chorale in restored] == [chorale.codes for chorale in rebuilt] == expected

    @given(
        st.lists(chorales(min_length=2, max_length=8), min_size=2, max_size=5),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-3, 0.1, 1.0]),
        st.sampled_from([0, 1, 2, 60]),
        st.sampled_from(["fresh", "fitted", "restored", "new rows"]),
        st.integers(1, 5),
    )
    def test_sample_batch_matches_reference_sampler_per_stream(self, pool, seed, alpha, size, state, order):
        model = MarkovModel.with_vocab_from(pool, order=order, alpha=alpha)
        if state != "fresh":
            model.fit(pool[:1], [0])
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

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lengths", [[1], [2], [3], [7], [1, 2, 3, 9], [3, 12, 1, 2, 1, 6], [2, 2, 30, 3]])
    def test_wavefront_ticks_where_only_some_voices_run(self, order, lengths):
        # voice v starts at tick v and ends three ticks after voice 0 ends, so the first and last three ticks run
        # fewer than four voices, and a chorale of 1 to 3 timesteps ends before the lower voices of a longer one
        # draw its first timesteps. Each voice has its own vocabulary size, so the table's rows have padding.
        rng = np.random.default_rng(5)
        pool = []
        for k in range(12):
            voices = []
            for v in range(4):
                tokens = []
                for t in range(10):
                    r = rng.random()
                    if t and tokens[-1] != REST and r < 0.3:
                        tokens.append(HOLD)
                    else:
                        tokens.append(REST if r < 0.4 else int(72 - 12 * v + rng.integers(0, 3 + 4 * v)))
                voices.append(tuple(tokens))
            pool.append(Chorale(id=f"m{k}", voices=tuple(voices)))
        model = MarkovModel.with_vocab_from(pool, order=order, alpha=0.1)
        model.fit(pool[::2], once(pool[::2]))
        ids = [f"c{j}" for j in range(len(lengths))]
        batch = model.sample_many(lengths, [stream(order, "wave", j) for j in range(len(lengths))], ids)
        for j, (chorale, length) in enumerate(zip(batch, lengths)):
            assert chorale.voices == reference_sample(model, length, stream(order, "wave", j)).voices, j
        # each CDF is +inf from its voice's last vocabulary entry on, and finite before it
        keys, cdfs = model._tables
        voice = np.searchsorted([v * 131 ** (order + v) for v in range(1, 4)], keys[:-1], side="right")
        sizes = np.array([len(vocab) for vocab in model.vocabs])[np.append(voice, np.repeat(np.arange(4), 2))]
        assert len(set(sizes.tolist())) == 4
        assert ((cdfs == np.inf) == (np.arange(cdfs.shape[1]) >= sizes[:, None] - 1)).all()

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
        drawn = [pool[i % len(pool)] for i in picks]
        assert model.mean_nll(drawn) == per_event_mean_nll(model, drawn)
        model.fit(pool[:1], [0])
        early = model.snapshot()
        fitted = [i % 2 for i in picks]  # only the two vocabulary chorales can be fitted
        assert model.fit(pool, fitted) == per_event_mean_nll(model, [pool[i] for i in fitted])
        model.fit(pool[:2], [0, 1])
        assert model.mean_nll(drawn) == per_event_mean_nll(model, drawn)
        model.restore(early)
        assert model.mean_nll(drawn) == per_event_mean_nll(model, drawn)

    def test_equals_per_event_logprob_loop_on_desk_corpus(self, desk_split):
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        draws = stream(3, "draws").integers(0, len(chorales_), size=500)
        loss = model.fit(chorales_, draws)
        validation = list(desk_split.validation)
        drawn = [chorales_[i] for i in draws.tolist()]
        assert loss == model.mean_nll(drawn) == per_event_mean_nll(model, drawn)
        assert model.mean_nll(validation) == per_event_mean_nll(model, validation)

    def test_one_drawn_chorale_sums_in_event_order(self, desk_split):
        # one scored chorale is one column of scores, which numpy alone would sum pairwise
        chorales_ = list(desk_split.train)
        model = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        model.fit(chorales_[::2], once(chorales_[::2]))
        refit = MarkovModel.with_vocab_from(chorales_, order=2, alpha=0.1)
        for k, chorale in enumerate(chorales_[:12]):
            assert model.mean_nll([chorale]) == per_event_mean_nll(model, [chorale]), k
            for m in (1, 3):
                assert model.mean_nll([chorale] * m) == per_event_mean_nll(model, [chorale] * m), (k, m)
                assert refit.fit(chorales_, [k] * m) == per_event_mean_nll(refit, [chorale] * m), (k, m)
        for chorale in desk_split.validation:
            assert model.mean_nll([chorale]) == per_event_mean_nll(model, [chorale]), chorale.id

    @pytest.mark.parametrize(
        "draws, message",
        [
            ([4], "draw 4 is not a chorale index in 0..3"),
            ([-1], "draw -1 is not a chorale index in 0..3"),
            ([0, 0.5], "draw 0.5 is not a chorale index in 0..3"),
            ([[0]], "draw [0] is not a chorale index in 0..3"),
            ([True], "draw True is not a chorale index in 0..3"),
            (np.array([[0, 1]]), "draw [0 1] is not a chorale index in 0..3"),
            (np.array([0.0, 1.0]), "draw 0.0 is not a chorale index in 0..3"),
            (np.array([0, 1], dtype=object), "object draws"),
        ],
    )
    def test_rejects_draws_that_are_not_chorale_indices(self, draws, message):
        # the draws that fit scores for the training loss
        pool = [ascending(60 + k) for k in range(4)]
        model = MarkovModel.with_vocab_from(pool, order=2, alpha=0.1)
        with pytest.raises(ValueError) as err:
            model.fit(pool, draws)
        assert str(err.value) == message
        assert "\n" not in str(err.value)

    def test_zero_on_deterministic_training_data(self):
        c = ascending(72, length=10)
        model = MarkovModel.with_vocab_from([c], order=2, alpha=TINY)
        model.fit([c], [0])
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


# the arrays that hold a model's interned keys and its event store
STORE = ("_sorted_keys", "_sorted_rows", "_rows", "_toks", "_offsets")


def store_view(model) -> tuple:
    """Copies of ``model``'s keys and event store, its snapshot and its counts, to compare later."""
    arrays = [getattr(model, name).copy() for name in STORE]
    return arrays, dict(model._index), model.snapshot(), count_tables(model)


def batch_grids(model, seed) -> list[bytes]:
    return [c.codes for c in sample_batch(model, [5, 9, 14], seed, ("copy",), ["a", "b", "c"])]


class TestCopy:
    @pytest.mark.parametrize("fitted", [False, True], ids=["untrained", "fitted"])
    @pytest.mark.parametrize("busy", ["original", "copy"])
    def test_work_on_one_leaves_the_other_unchanged(self, desk_split, fitted, busy):
        train, validation = list(desk_split.train), list(desk_split.validation)
        model = MarkovModel.with_vocab_from(train, order=2, alpha=0.1)
        model.encode(train[:30])
        if fitted:
            model.fit(train[:20], once(train[:20]))
        twin = model.copy()
        assert twin.snapshot() is model.snapshot()
        worker, idle = (model, twin) if busy == "original" else (twin, model)
        before, drawn = store_view(idle), batch_grids(idle, 5)
        batch_grids(worker, 6)  # builds the tables of the shared state, if no draw has yet
        worker.encode(validation)  # new chorales, and keys the idle model has not interned
        worker.mean_nll(train)
        worker.fit(train[10:], once(train[10:]))
        batch_grids(worker, 7)
        after = store_view(idle)
        for name, old, new in zip(STORE, before[0], after[0]):
            assert np.array_equal(old, new), name
        assert after[1] == before[1]
        assert after[2] is before[2] and after[3] == before[3]
        assert batch_grids(idle, 5) == drawn

    def test_copy_trains_like_a_fresh_model(self, desk_split, tmp_path):
        # the shared store interns the training split first, so row ids differ from a fresh model's; nothing else
        train, validation = list(desk_split.train), list(desk_split.validation)
        base = MarkovModel.with_vocab_from(train, order=2, alpha=0.1)
        base.encode(train)
        draws = repeats(np.arange(len(train)) % 3)
        models = [base.copy(), MarkovModel.with_vocab_from(train, order=2, alpha=0.1)]
        losses = [model.fit(train, draws) for model in models]
        assert losses[0] == losses[1]
        # each model hands out ids in key order, but the copy's cover every training context and the fresh model's
        # only the drawn chorales' contexts, so the contexts they share have other rows
        keys = np.intersect1d(*(model._sorted_keys for model in models))
        rows = [model._sorted_rows[model._sorted_keys.searchsorted(keys)] for model in models]
        assert not np.array_equal(*rows)
        nll = [(model.mean_nll([train[i] for i in (3, 1, 4, 1)]), model.mean_nll(validation)) for model in models]
        assert nll[0] == nll[1]
        assert batch_grids(models[0], 9) == batch_grids(models[1], 9)
        for name, model in zip("ab", models):
            model.save(tmp_path / f"{name}.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestConstruction:
    def test_parameter_validation(self):
        c = ascending(60)
        with pytest.raises(ValueError):
            MarkovModel.with_vocab_from([c], order=0, alpha=0.1)
        with pytest.raises(ValueError):
            MarkovModel.with_vocab_from([c], order=1, alpha=0.0)
        with pytest.raises(ValueError):
            MarkovModel.with_vocab_from([], order=1, alpha=0.1)

    def test_least_accepted_alpha_scores_zero_count_events_finitely(self):
        # bisect the bit patterns of positive floats, which run in the floats' order, for the least alpha whose
        # alpha / (_MAX_COUNT + alpha * 131) is above 0: the least probability a fit can give
        low, high = 1, int(np.float64(1e-300).view(np.int64))
        while high - low > 1:
            mid = (low + high) // 2
            alpha = float(np.int64(mid).view(np.float64))
            if alpha / (model_module._MAX_COUNT + alpha * 131) > 0:
                high = mid
            else:
                low = mid
        least = float(np.int64(high).view(np.float64))
        with pytest.raises(ValueError, match="underflows"):
            MarkovModel(order=1, alpha=float(np.nextafter(least, 0.0)), vocabs=[(60, 62)] * 4)
        seen, unseen = quad((60,), (55,), (48,), (40,)), quad((62,), (55,), (48,), (40,))
        model = MarkovModel.with_vocab_from([seen, unseen], order=1, alpha=least)
        model.fit([seen, unseen], [0])  # the soprano's START row counts only 60
        # as if ``seen``, 4 events, were drawn _MAX_COUNT // 4 times: the most its count table can hold
        scale = model_module._MAX_COUNT // 4
        model.restore({"table": model.snapshot()["table"] * scale, "totals": model.snapshot()["totals"] * scale})
        nll = model.mean_nll([unseen])
        assert math.isfinite(nll) and nll > 100, nll

    def test_hold_only_vocabulary_rejected(self):
        # a voice must start with a note or a rest, so such a model could never sample
        with pytest.raises(ValueError, match="only"):
            MarkovModel(order=1, alpha=0.1, vocabs=[(60, REST), (HOLD,), (48,), (36,)])
        MarkovModel(order=1, alpha=0.1, vocabs=[(60, REST), (HOLD, REST), (48,), (36,)])

    def test_start_never_in_vocabulary(self, desk_split):
        model = MarkovModel.with_vocab_from(desk_split.train, order=2, alpha=0.1)
        for vocab in model.vocabs:
            assert START not in vocab
