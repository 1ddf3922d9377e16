"""The one token code: the code grid every Chorale carries, and the grammar checked on it."""

from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from auggen.chorale import HOLD, HOLD_CODE, REST, REST_CODE, TOKENS, Chorale, InvalidChoraleError, token_code
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


def test_codes_take_no_part_in_equality():
    a, b = Chorale("c", ((60, HOLD),) * 4), Chorale("c", [[60, HOLD]] * 4)
    assert a == b and hash(a) == hash(b) and "codes" not in repr(a)
