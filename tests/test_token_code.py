"""The one token code: the code grid a Chorale is, and the grammar checked on it."""

from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from auggen.chorale import (
    HOLD,
    HOLD_CODE,
    REST,
    REST_CODE,
    TOKENS,
    Chorale,
    InvalidChoraleError,
    canonical_key,
    serialize_chorale,
    token_code,
    transpose,
)
from auggen.corpus import _teacher_walks, teacher_corpus
from auggen.model import MarkovModel, sample_batch
from auggen.rng import stream
from conftest import chorales
from oracles import reference_validate

# tokens, and values that equal a token or look like one without being one
TOKENS_AND_LOOKALIKES = st.one_of(
    st.integers(-5, 135),
    st.booleans(),
    st.floats(-5, 135),
    st.integers(-5, 135).map(np.int64),
    st.sampled_from([None, HOLD, REST, "x"]),
)


@st.composite
def mixed_voices(draw):
    """Voices of any count and mostly equal lengths, of notes, holds and rests, a few cells replaced by a token
    or a lookalike."""
    count = draw(st.sampled_from([4, 4, 4, 0, 3, 5]))
    length = draw(st.integers(0, 6))
    ragged = st.lists(st.integers(0, 6), min_size=count, max_size=count)
    lengths = [length] * count if draw(st.integers(0, 3)) else draw(ragged)
    voices = [draw(st.lists(st.sampled_from([60, 61, HOLD, REST]), min_size=n, max_size=n)) for n in lengths]
    cells = [(v, t) for v, n in enumerate(lengths) for t in range(n)]
    for v, t in draw(st.lists(st.sampled_from(cells), max_size=3)) if cells else ():
        voices[v][t] = draw(TOKENS_AND_LOOKALIKES)
    return tuple(map(tuple, voices))


@settings(max_examples=300)
@given(mixed_voices())
def test_construction_reports_what_the_per_token_oracle_reports(voices):
    expected = reference_validate(SimpleNamespace(voices=voices))
    if expected:
        with pytest.raises(InvalidChoraleError) as err:
            Chorale(id="c", voices=voices)
        assert list(err.value.violations) == expected
    else:
        assert Chorale(id="c", voices=voices).voices == voices


@given(chorales(min_pitch=0, max_pitch=127))
def test_code_grid_is_each_tokens_code_voice_by_voice(chorale):
    assert chorale.codes == bytes(token_code(tok) for voice in chorale.voices for tok in voice)
    grid = np.frombuffer(chorale.codes, np.uint8).reshape(4, chorale.length)
    assert tuple(tuple(TOKENS[code] for code in row) for row in grid.tolist()) == chorale.voices


def test_codes_are_the_pitch_then_hold_then_rest():
    assert (HOLD_CODE, REST_CODE) == (128, 129) and TOKENS[:128] == tuple(range(128))
    assert [token_code(tok) for tok in (0, 127, HOLD, REST)] == [0, 127, 128, 129]
    assert [token_code(tok) for tok in (True, 60.0, np.int64(60), 128, -1, "x", None, [60])] == [None] * 8


def test_a_chorale_is_its_id_and_code_grid():
    a, b = Chorale("c", ((60, HOLD),) * 4), Chorale("c", [[60, HOLD]] * 4)
    assert a == b and hash(a) == hash(b) and "codes" not in repr(a)
    assert a == Chorale.from_codes("c", a.codes) and a.codes == bytes([60, HOLD_CODE] * 4)
    other = Chorale("d", a.voices)
    assert other != a and canonical_key(other) == canonical_key(a) == a.codes


def test_sampled_walked_and_teacher_chorales_equal_their_token_built_twins():
    corpus = teacher_corpus(5, 6)
    model = MarkovModel.with_vocab_from(corpus, order=2, alpha=0.1)
    model.fit(corpus.chorales, range(len(corpus)))
    samples = sample_batch(model, [1, 7, 32], 3, ("twins",), ["s0", "s1", "s2"])
    walks = _teacher_walks(stream(5, "teacher", "walks"))[:4]
    for chorale in [*corpus, *samples, *walks]:
        twin = Chorale(chorale.id, chorale.voices)
        assert type(chorale.codes) is bytes and twin == chorale and hash(twin) == hash(chorale)
        assert canonical_key(twin) == canonical_key(chorale)
        assert serialize_chorale(twin) == serialize_chorale(chorale)


def test_codes_constructor_rejects_every_byte_that_is_no_tokens_code():
    for code in range(REST_CODE + 1, 256):
        for at, where in ((0, "voice 0"), (5, "voice 2"), (7, "voice 3")):
            codes = bytearray([60, 62] * 4)
            codes[at] = code
            with pytest.raises(InvalidChoraleError) as err:
                Chorale.from_codes("c", bytes(codes))
            # the token path's text for the int the byte is
            assert err.value.violations == (f"{where}: pitch {code} out of range at timestep {at % 2}",)


@pytest.mark.parametrize("codes", [8, bytearray(8), [60] * 8])
def test_codes_constructor_takes_only_bytes(codes):
    with pytest.raises(TypeError, match="codes must be bytes"):
        Chorale.from_codes("c", codes)


@pytest.mark.parametrize(
    "size, violations",
    [
        (0, ["voices must have at least 1 timestep"]),
        (1, [f"voice {v}: length 0 != voice 0 length 1" for v in (1, 2, 3)]),
        (6, ["voice 3: length 0 != voice 0 length 2"]),
        (9, ["voice 3: length 0 != voice 0 length 3"]),
        (11, ["voice 3: length 2 != voice 0 length 3"]),
    ],
)
def test_codes_constructor_rejects_an_empty_or_ragged_grid(size, violations):
    # the grid is read as 4 rows of ceil(size / 4) codes, so a ragged byte count leaves the last rows short
    with pytest.raises(InvalidChoraleError) as err:
        Chorale.from_codes("c", bytes([60]) * size)
    assert list(err.value.violations) == violations


@st.composite
def four_voices(draw):
    """Four voices of one length of notes, holds and rests: a HOLD may start a voice or follow a REST."""
    length = draw(st.integers(1, 5))
    return [draw(st.lists(st.sampled_from([60, HOLD, REST]), min_size=length, max_size=length)) for _ in range(4)]


@settings(max_examples=300)
@given(four_voices())
def test_codes_constructor_reports_what_the_per_token_oracle_reports(voices):
    expected = reference_validate(SimpleNamespace(voices=voices))
    codes = bytes(token_code(tok) for voice in voices for tok in voice)
    if expected:
        with pytest.raises(InvalidChoraleError) as err:
            Chorale.from_codes("c", codes)
        assert list(err.value.violations) == expected
    else:
        assert Chorale.from_codes("c", codes).voices == tuple(map(tuple, voices))


@given(chorales(max_length=6), st.integers(-130, 130))
def test_transpose_shifts_the_code_grid_as_the_token_path_does(chorale, semitones):
    shifted = tuple(tuple(tok + semitones if isinstance(tok, int) else tok for tok in voice) for voice in chorale.voices)
    expected = reference_validate(SimpleNamespace(voices=shifted))
    if expected:  # every pitch shifted out of range is named by its shifted value
        with pytest.raises(InvalidChoraleError) as err:
            transpose(chorale, semitones)
        assert list(err.value.violations) == expected
    else:
        assert transpose(chorale, semitones) == Chorale(chorale.id, shifted)
