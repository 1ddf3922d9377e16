"""Four-voice chorale domain types on a sixteenth-note grid.

A chorale is four equal-length token sequences, ordered soprano, alto,
tenor, bass, with one token per voice per sixteenth-note timestep. A token
is one of

* an ``int`` MIDI pitch in 0..127 -- a note onset,
* :data:`HOLD` -- the previous note in the same voice keeps sounding,
* :data:`REST` -- the voice is silent.

A hold can only extend a note: it is invalid at timestep 0 and directly
after a rest. :class:`Chorale` checks this grammar when it is built, so
every chorale that exists is valid and no operation checks it again.

The wire format is one JSON object per line, pitches written as decimal
strings::

    {"id": "c-0001", "voices": [["60", "__", "R", ...], ...]}

All values here are immutable and all operations are pure, so they can be
shared freely across parallel workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

HOLD = "__"
REST = "R"
SILENT = -1  # realized-grid pitch value where no note sounds

N_VOICES = 4
MIN_PITCH = 0
MAX_PITCH = 127

Token = int | str


class ChoraleFormatError(ValueError):
    """Malformed chorale record, with the offending line/field when known."""

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field}")
        super().__init__(f"{message} ({', '.join(where)})" if where else message)
        self.line = line
        self.field = field


class InvalidChoraleError(ValueError):
    """Raised when a :class:`Chorale` would break the grammar; lists every violation."""

    def __init__(self, chorale_id: str, violations: list[str]):
        super().__init__(f"invalid chorale {chorale_id!r}: " + "; ".join(violations))
        self.chorale_id = chorale_id
        self.violations = tuple(violations)


@dataclass(frozen=True)
class Chorale:
    """Immutable, valid chorale; construction coerces voices to nested tuples.

    Construction enforces the grammar invariants: it raises
    :class:`InvalidChoraleError` with every violation :func:`validate`
    finds.
    """

    id: str
    voices: tuple[tuple[Token, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "voices", tuple(tuple(v) for v in self.voices))
        violations = validate(self)
        if violations:
            raise InvalidChoraleError(self.id, violations)

    @property
    def length(self) -> int:
        return len(self.voices[0]) if self.voices else 0


@dataclass(frozen=True)
class RealizedGrid:
    """Sounding pitch and onset flag per voice per timestep.

    ``pitches[v, t]`` is the MIDI pitch sounding in voice ``v`` at timestep
    ``t`` (holds carry the most recent note) or :data:`SILENT`;
    ``onsets[v, t]`` is True exactly where a note token occurs.
    """

    pitches: np.ndarray  # (N_VOICES, T) int16
    onsets: np.ndarray  # (N_VOICES, T) bool

    @property
    def length(self) -> int:
        return self.pitches.shape[1]


def validate(chorale: Chorale) -> list[str]:
    """Return all invariant violations, each naming voice and timestep.

    An empty list means the chorale is valid, as every constructed
    :class:`Chorale` is.
    """
    violations: list[str] = []
    voices = chorale.voices
    if len(voices) != N_VOICES:
        violations.append(f"expected {N_VOICES} voices, got {len(voices)}")
        return violations
    length = len(voices[0])
    if length < 1:
        violations.append("voices must have at least 1 timestep")
        return violations
    for v, voice in enumerate(voices):
        if len(voice) != length:
            violations.append(f"voice {v}: length {len(voice)} != voice 0 length {length}")
    if violations:
        return violations
    for v, voice in enumerate(voices):
        for t, tok in enumerate(voice):
            if isinstance(tok, bool):
                violations.append(f"voice {v}: unknown token {tok!r} at timestep {t}")
            elif isinstance(tok, int):
                if not MIN_PITCH <= tok <= MAX_PITCH:
                    violations.append(f"voice {v}: pitch {tok} out of range at timestep {t}")
            elif tok == HOLD:
                if t == 0:
                    violations.append(f"voice {v}: HOLD at timestep 0")
                elif voice[t - 1] == REST:
                    violations.append(f"voice {v}: HOLD after REST at timestep {t}")
            elif tok != REST:
                violations.append(f"voice {v}: unknown token {tok!r} at timestep {t}")
    return violations


def realize(chorale: Chorale) -> RealizedGrid:
    """Expand tokens into sounding pitches and onset flags, as read-only arrays.

    One forward fill over the voices' token codes: :func:`fill_grid` with
    the four voices laid end to end.
    """
    pitches, onsets = fill_grid(chorale.voices, chorale.length)
    pitches.setflags(write=False)
    onsets.setflags(write=False)
    return RealizedGrid(pitches=pitches, onsets=onsets)


_HOLD_CODE = -2  # below SILENT, so that ``code >= 0`` is exactly a note onset
_CODE_OF: dict[Token, int] = {**{p: p for p in range(MIN_PITCH, MAX_PITCH + 1)}, REST: SILENT, HOLD: _HOLD_CODE}


def fill_grid(parts: Iterable[Iterable[Token]], columns: int) -> tuple[np.ndarray, np.ndarray]:
    """Sounding pitches (int16) and onset flags (bool), each ``(N_VOICES, columns)``, of valid tokens.

    ``parts`` chained end to end are the ``N_VOICES * columns`` tokens of
    the grid, row by row. Pitch p codes as p, REST as :data:`SILENT` and HOLD as
    a sentinel; each cell takes the code of the last non-HOLD cell at or
    before it in its row. No row may start with a HOLD.
    """
    count = N_VOICES * columns
    codes = np.fromiter(map(_CODE_OF.__getitem__, chain.from_iterable(parts)), np.int16, count).reshape(N_VOICES, columns)
    last = np.maximum.accumulate(np.where(codes != _HOLD_CODE, np.arange(columns), 0), axis=1)
    return np.take_along_axis(codes, last, axis=1), codes >= 0


_TEXT_BY_TOKEN: dict[Token, str] = {tok: str(tok) for tok in (*range(MIN_PITCH, MAX_PITCH + 1), HOLD, REST)}
_TOKEN_BY_TEXT: dict[str, Token] = {text: tok for tok, text in _TEXT_BY_TOKEN.items()}


def _token_error(raw_voice: list, v: int, line: int | None) -> ChoraleFormatError:
    """The error for the first token of voice ``v`` that is not the text of a token."""
    t, raw = next((t, raw) for t, raw in enumerate(raw_voice) if not isinstance(raw, str) or raw not in _TOKEN_BY_TEXT)
    field = f"voices[{v}][{t}]"
    if not isinstance(raw, str):
        return ChoraleFormatError(f"token must be a string, got {raw!r}", line=line, field=field)
    if raw.isascii() and raw.isdigit() and not raw.startswith("0"):  # "0" itself is a token, so "060" is not
        return ChoraleFormatError(f"pitch {raw} out of range 0..127", line=line, field=field)
    return ChoraleFormatError(f"unknown token {raw!r}", line=line, field=field)


def canonical_key(chorale: Chorale) -> tuple[tuple[Token, ...], ...]:
    """Canonical uniqueness key: the token sequences, id excluded.

    A token is an ``int`` in 0..127 or one of two strings, so two chorales
    get equal keys iff their token sequences are identical; transpositions
    and other musical equivalences count as distinct.
    """
    return chorale.voices


def serialize_chorale(chorale: Chorale) -> str:
    """One-line JSON record; ``parse_chorale`` inverts it exactly."""
    record = {
        "id": chorale.id,
        # a Chorale holds no bool, so True cannot alias the key 1
        "voices": [list(map(_TEXT_BY_TOKEN.__getitem__, voice)) for voice in chorale.voices],
    }
    return json.dumps(record, separators=(",", ":"))


def parse_chorale(text: str, *, line: int | None = None) -> Chorale:
    """Parse one record line; raises :class:`ChoraleFormatError` on bad input."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChoraleFormatError(f"not valid JSON: {exc.msg}", line=line) from exc
    if not isinstance(record, dict):
        raise ChoraleFormatError("record must be a JSON object", line=line)
    if "id" not in record or not isinstance(record["id"], str):
        raise ChoraleFormatError("missing or non-string 'id'", line=line, field="id")
    if "voices" not in record or not isinstance(record["voices"], list):
        raise ChoraleFormatError("missing or non-list 'voices'", line=line, field="voices")
    raw_voices = record["voices"]
    if len(raw_voices) != N_VOICES:
        raise ChoraleFormatError(
            f"expected {N_VOICES} voices, got {len(raw_voices)}", line=line, field="voices"
        )
    voices = []
    for v, raw_voice in enumerate(raw_voices):
        if not isinstance(raw_voice, list):
            raise ChoraleFormatError("voice must be a list", line=line, field=f"voices[{v}]")
        try:
            voices.append(tuple([_TOKEN_BY_TEXT[raw] for raw in raw_voice]))
        except (KeyError, TypeError):  # TypeError: an unhashable token, such as a list
            raise _token_error(raw_voice, v, line) from None
    try:
        return Chorale(id=record["id"], voices=tuple(voices))
    except InvalidChoraleError as exc:
        raise ChoraleFormatError(f"invalid chorale {exc.chorale_id!r}: {exc.violations[0]}", line=line) from None


def transpose(chorale: Chorale, semitones: int) -> Chorale:
    """Shift every pitch by ``semitones``; holds and rests are unchanged.

    A pitch shifted out of range raises :class:`InvalidChoraleError`, a ``ValueError``.
    """
    voices = tuple(tuple(tok + semitones if isinstance(tok, int) else tok for tok in voice) for voice in chorale.voices)
    return Chorale(id=chorale.id, voices=voices)
