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

This module owns the one integer code of a token: pitch p is p, HOLD 128,
REST 129 (:data:`TOKENS` maps a code back). Each chorale carries its code
grid, built with it; the grammar is checked on it, the critic realizes it
(:func:`fill_grid`) and the model's context keys take it as their digits.

The wire format is one JSON object per line, pitches written as decimal
strings::

    {"id": "c-0001", "voices": [["60", "__", "R", ...], ...]}

All values here are immutable and all operations are pure, so they can be
shared freely across parallel workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Sequence

import numpy as np

HOLD = "__"
REST = "R"
SILENT = -1  # realized-grid pitch value where no note sounds

N_VOICES = 4
MIN_PITCH = 0
MAX_PITCH = 127

Token = int | str

TOKENS: tuple[Token, ...] = (*range(MIN_PITCH, MAX_PITCH + 1), HOLD, REST)  # code -> token
HOLD_CODE = TOKENS.index(HOLD)
REST_CODE = TOKENS.index(REST)
_CODE_BY_TOKEN: dict[Token, int] = {tok: code for code, tok in enumerate(TOKENS)}
_NOT_A_TOKEN = 255  # the code of anything else; a chorale holding one is never built
_HOLD_AFTER_REST = bytes((REST_CODE, HOLD_CODE))


def token_code(tok: object) -> int | None:
    """The code of ``tok``, or None if it is not a token: ``True``, ``60.0`` and ``np.int64(60)`` are not."""
    return _CODE_BY_TOKEN.get(tok) if isinstance(tok, (int, str)) and not isinstance(tok, bool) else None


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
        self.reason = f"{message} (field {field})" if field is not None else message  # the message without its line


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
    finds. ``codes`` is its code grid, every token's code voice by voice,
    read with ``np.frombuffer``; the voices determine it, so it is not
    compared or hashed.
    """

    id: str
    voices: tuple[tuple[Token, ...], ...]
    codes: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        voices = tuple(tuple(v) for v in self.voices)
        tokens = [*chain.from_iterable(voices)]
        if not {*map(type, tokens)} <= {int, str}:  # True, 60.0 and np.int64(60) would find the codes of 1 and 60
            tokens = [tok if token_code(tok) is not None else None for tok in tokens]
        object.__setattr__(self, "voices", voices)
        object.__setattr__(self, "codes", bytes(map(_CODE_BY_TOKEN.get, tokens, repeat(_NOT_A_TOKEN))))
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
    :class:`Chorale` is. Three byte searches of the code grid find a valid
    one; only the cells at fault are read one by one.
    """
    voices = chorale.voices
    if len(voices) != N_VOICES:
        return [f"expected {N_VOICES} voices, got {len(voices)}"]
    length = len(voices[0])
    if length < 1:
        return ["voices must have at least 1 timestep"]
    violations = [f"voice {v}: length {n} != voice 0 length {length}" for v, n in enumerate(map(len, voices)) if n != length]
    codes = chorale.codes
    # a REST that ends one voice and a HOLD that starts the next are a HOLD at timestep 0 as well
    if violations or not (_NOT_A_TOKEN in codes or HOLD_CODE in codes[::length] or _HOLD_AFTER_REST in codes):
        return violations
    grid = np.frombuffer(codes, np.uint8).reshape(N_VOICES, length)
    before = np.pad(grid[:, :-1], ((0, 0), (1, 0)), constant_values=REST_CODE)  # a REST before timestep 0
    faults = (grid == _NOT_A_TOKEN) | ((grid == HOLD_CODE) & (before == REST_CODE))
    for v, t in np.argwhere(faults).tolist():
        tok = voices[v][t]
        if grid[v, t] == HOLD_CODE:
            violations.append(f"voice {v}: HOLD at timestep 0" if t == 0 else f"voice {v}: HOLD after REST at timestep {t}")
        elif isinstance(tok, int) and not isinstance(tok, bool):
            violations.append(f"voice {v}: pitch {tok} out of range at timestep {t}")
        else:
            violations.append(f"voice {v}: unknown token {tok!r} at timestep {t}")
    return violations


def realize(chorale: Chorale) -> RealizedGrid:
    """Expand tokens into sounding pitches and onset flags, as read-only arrays: :func:`fill_grid` of the
    chorale alone, without its closing column."""
    pitches, onsets = fill_grid([chorale])
    pitches, onsets = pitches[:, :-1], onsets[:, :-1]
    pitches.setflags(write=False)
    onsets.setflags(write=False)
    return RealizedGrid(pitches=pitches, onsets=onsets)


def join_codes(chorales: Sequence[Chorale], gap: int, code: int) -> np.ndarray:
    """The chorales' code grids side by side, each followed by ``gap`` columns of ``code``: a read-only
    ``(N_VOICES, columns)`` uint8 array."""
    fill = bytes((code,)) * gap
    rows = [fill.join([*(c.codes[v * c.length : (v + 1) * c.length] for c in chorales), b""]) for v in range(N_VOICES)]
    return np.frombuffer(b"".join(rows), np.uint8).reshape(N_VOICES, -1)


def fill_grid(chorales: Sequence[Chorale]) -> tuple[np.ndarray, np.ndarray]:
    """Sounding pitches (int16) and onset flags (bool), each ``(N_VOICES, columns)``, of the chorales side by
    side, each followed by a REST, which realizes to a :data:`SILENT` column with no onset. One forward fill:
    each cell takes the code of the last non-HOLD cell at or before it in its row."""
    codes = join_codes(chorales, 1, REST_CODE)
    last = np.maximum.accumulate(np.where(codes != HOLD_CODE, np.arange(codes.shape[1]), 0), axis=1)
    pitches = np.take_along_axis(codes, last, axis=1).astype(np.int16)
    pitches[pitches > MAX_PITCH] = SILENT
    return pitches, codes <= MAX_PITCH


_TEXTS: tuple[str, ...] = tuple(map(str, TOKENS))  # code -> text
_TOKEN_BY_TEXT: dict[str, Token] = dict(zip(_TEXTS, TOKENS))


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
    length = chorale.length
    record = {
        "id": chorale.id,
        "voices": [[_TEXTS[code] for code in chorale.codes[v * length : (v + 1) * length]] for v in range(N_VOICES)],
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
