import json

import pytest
from hypothesis import given

from auggen.chorale import (
    HOLD,
    REST,
    SILENT,
    Chorale,
    ChoraleFormatError,
    InvalidChoraleError,
    canonical_key,
    parse_chorale,
    realize,
    serialize_chorale,
    transpose,
    validate,
)
from conftest import chorales
from oracles import tokens_from_grid


def quad(*voices):
    return Chorale(id="c", voices=tuple(voices))


def test_minimal_valid_chorale():
    assert validate(quad((60,), (60,), (60,), (60,))) == []


def test_hold_at_timestep_zero_rejected():
    with pytest.raises(InvalidChoraleError) as err:
        quad((HOLD, 60), (60, 60), (60, 60), (60, 60))
    assert any("HOLD at timestep 0" in v for v in err.value.violations)


def test_hold_after_rest_rejected():
    with pytest.raises(InvalidChoraleError) as err:
        quad((60, 60), (60, 60), (REST, HOLD), (60, 60))
    assert any("voice 2" in v and "HOLD after REST" in v for v in err.value.violations)


def test_wrong_voice_count_and_pitch_range():
    with pytest.raises(InvalidChoraleError) as err:
        Chorale(id="c", voices=((60,), (60,), (60,)))
    assert err.value.violations == ("expected 4 voices, got 3",)
    assert str(err.value) == "invalid chorale 'c': expected 4 voices, got 3"
    with pytest.raises(InvalidChoraleError) as err:
        quad((128,), (60,), (60,), (60,))
    assert any("out of range" in v for v in err.value.violations)


def test_unequal_lengths_rejected():
    with pytest.raises(InvalidChoraleError) as err:
        quad((60, 62), (60,), (60, 62), (60, 62))
    assert any("length" in v for v in err.value.violations)


def test_realize_holds_and_rests():
    c = quad((60, HOLD, HOLD, 62), (REST, 55, HOLD, HOLD), (REST, REST, REST, REST), (41, HOLD, REST, 43))
    grid = realize(c)
    assert list(grid.pitches[0]) == [60, 60, 60, 62]
    assert list(grid.onsets[0]) == [True, False, False, True]
    assert list(grid.pitches[1]) == [SILENT, 55, 55, 55]
    assert list(grid.pitches[2]) == [SILENT] * 4
    assert list(grid.pitches[3]) == [41, 41, SILENT, 43]


def test_realize_rejects_invalid():
    # an invalid chorale never reaches realize: building it raises
    with pytest.raises(InvalidChoraleError) as err:
        realize(quad((HOLD,), (60,), (60,), (60,)))
    assert "HOLD at timestep 0" in str(err.value)


@given(chorales(max_length=8))
def test_realize_retokenize_roundtrip(c):
    assert tokens_from_grid(realize(c)) == c.voices


@given(chorales(max_length=8))
def test_realize_shape_and_onset_count(c):
    grid = realize(c)
    assert grid.pitches.shape == (4, c.length)
    note_tokens = sum(isinstance(tok, int) for voice in c.voices for tok in voice)
    assert int(grid.onsets.sum()) == note_tokens


def test_canonical_key_ignores_id_and_sees_pitch():
    c = quad((60, HOLD), (55, 55), (48, 50), (41, REST))
    same = Chorale(id="other", voices=c.voices)
    assert canonical_key(c) == canonical_key(same)
    changed = quad((60, HOLD), (55, 55), (48, 50), (43, REST))
    assert canonical_key(c) != canonical_key(changed)
    assert canonical_key(c) != canonical_key(transpose(c, 1))


@given(chorales(max_length=6))
def test_serialize_parse_roundtrip(c):
    assert parse_chorale(serialize_chorale(c)) == c


def test_parse_rejects_out_of_range_pitch():
    with pytest.raises(ChoraleFormatError) as err:
        parse_chorale('{"id":"x","voices":[["200"],["60"],["60"],["60"]]}', line=3)
    assert "200" in str(err.value) and "line 3" in str(err.value)
    assert err.value.field == "voices[0][0]"


def test_parse_rejects_three_voices():
    with pytest.raises(ChoraleFormatError) as err:
        parse_chorale('{"id":"x","voices":[["60"],["60"],["60"]]}')
    assert "3" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"voices":[["60"],["60"],["60"],["60"]]}',
        '{"id":"x","voices":[["60"],["60"],["60"],[60]]}',
        '{"id":"x","voices":[["60"],["60"],["60"],["?"]]}',
        '{"id":"x","voices":[["__"],["60"],["60"],["60"]]}',
        '{"id":"x","voices":[["٦٠"],["60"],["60"],["60"]]}',
        '{"id":"x","voices":[["²"],["60"],["60"],["60"]]}',
        '{"id":"x","voices":[["060"],["60"],["60"],["60"]]}',
        '{"id":"x","voices":[["00"],["60"],["60"],["60"]]}',
    ],
)
def test_parse_rejects_malformed_records(text):
    with pytest.raises(ChoraleFormatError):
        parse_chorale(text)


def test_parse_rejects_json_nested_too_deeply():
    with pytest.raises(ChoraleFormatError) as err:
        parse_chorale("[" * 100_000 + "]" * 100_000, line=4)
    assert str(err.value) == "not valid JSON: nested too deeply (line 4)"


def test_every_token_text_round_trips():
    # the 130 texts a token is written as: each parses, and serializes back to the same record
    texts = [*map(str, range(128)), HOLD, REST]
    for text in texts:
        record = json.dumps({"id": "x", "voices": [["60", text]] + [["60", "60"]] * 3}, separators=(",", ":"))
        assert serialize_chorale(parse_chorale(record)) == record


def test_parse_names_the_first_bad_token():
    with pytest.raises(ChoraleFormatError) as err:
        parse_chorale('{"id":"x","voices":[["60","61"],["60","060"],["60","R"],["60",[1]]]}', line=2)
    assert str(err.value) == "unknown token '060' (line 2, field voices[1][1])"
    with pytest.raises(ChoraleFormatError) as err:
        parse_chorale('{"id":"x","voices":[["60"],["60"],["60"],[[1]]]}')
    assert str(err.value) == "token must be a string, got [1] (field voices[3][0])"


def test_transpose_shifts_notes_only():
    c = quad((60, HOLD), (55, REST), (48, 48), (41, 43))
    up = transpose(c, 2)
    assert up.voices[0] == (62, HOLD)
    assert up.voices[1] == (57, REST)
    with pytest.raises(ValueError, match="voice 0: pitch 128 out of range at timestep 0"):
        transpose(quad((127,), (60,), (60,), (60,)), 1)


@given(chorales(max_length=6))
def test_distinct_sequences_get_distinct_keys(c):
    # mutate one onset pitch; the key must change
    for v, voice in enumerate(c.voices):
        for t, tok in enumerate(voice):
            if isinstance(tok, int):
                mutated = list(list(x) for x in c.voices)
                mutated[v][t] = tok + 1 if tok < 100 else tok - 1
                other = Chorale(id=c.id, voices=tuple(tuple(x) for x in mutated))
                assert canonical_key(other) != canonical_key(c)
                return


def test_key_collision_freedom_over_generated_set():
    from auggen.rng import stream

    rng = stream(41, "keys")
    seen = {}
    for i in range(300):
        length = int(rng.integers(1, 7))
        voices = []
        for _ in range(4):
            voice = [int(rng.integers(40, 80))]
            for _ in range(length - 1):
                voice.append(HOLD if rng.random() < 0.3 else int(rng.integers(40, 80)))
            voices.append(tuple(voice))
        c = Chorale(id=f"k{i}", voices=tuple(voices))
        key = canonical_key(c)
        if key in seen:
            assert seen[key] == c.voices  # identical sequences may collide, others must not
        seen[key] = c.voices
