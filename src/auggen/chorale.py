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
REST 129 (:data:`TOKENS` maps a code back). A chorale is its id and its
code grid, ``codes``: every token's code, voice by voice. The grammar is
checked on the grid, the critic realizes it (:func:`fill_grid`), the
model's context keys take it as their digits, and equality, hashing and
:func:`canonical_key` read it; ``voices`` decodes it on read. Sampled,
walked and parsed chorales are built from codes (:meth:`Chorale.from_codes`),
with no token in between.

The wire format is one JSON object per line, pitches written as decimal
strings::

    {"id": "c-0001", "voices": [["60", "__", "R", ...], ...]}

All values here are immutable and all operations are pure, so they can be
shared freely across parallel workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterable, Sequence

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
_CODES = bytes(range(REST_CODE + 1))  # every token's code
_TOKEN_ARRAY = np.array(TOKENS, dtype=object)  # code -> token, for one numpy decode of a grid
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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Chorale:
    """Immutable, valid chorale: its id and its code grid, ``codes``, compared and hashed as ``(id, codes)``.

    ``Chorale(id, voices)`` encodes token sequences; :meth:`from_codes` takes a code grid as it is. Both raise
    :class:`InvalidChoraleError` with every violation of the grammar. ``voices`` is the grid decoded to token
    tuples, on each read.
    """

    id: str
    codes: bytes

    def __init__(self, id: str, voices: Iterable[Iterable[Token]]) -> None:
        voices = [*map(tuple, voices)]
        tokens = [*chain.from_iterable(voices)]
        if not {*map(type, tokens)} <= {int, str}:  # True, 60.0 and np.int64(60) would find the codes of 1 and 60
            tokens = [tok if token_code(tok) is not None else None for tok in tokens]
        codes = bytes(map(_CODE_BY_TOKEN.get, tokens, repeat(_NOT_A_TOKEN)))
        violations = _violations(codes, voices)
        if violations:
            raise InvalidChoraleError(id, violations)
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_codes(cls, id: str, codes: bytes) -> Chorale:
        """The chorale whose code grid is ``codes``, checked by :func:`validate`."""
        if not isinstance(codes, bytes):  # bytes(8) would be a grid of eight zeros, and a bytearray can change
            raise TypeError(f"codes must be bytes, got {type(codes).__name__}")
        chorale = cls.__new__(cls)
        object.__setattr__(chorale, "id", id)
        object.__setattr__(chorale, "codes", codes)
        violations = validate(chorale)
        if violations:
            raise InvalidChoraleError(id, violations)
        return chorale

    @property
    def length(self) -> int:
        return len(self.codes) // N_VOICES

    @property
    def voices(self) -> tuple[tuple[Token, ...], ...]:
        """The token sequences, soprano first: one decode of the grid through :data:`TOKENS`."""
        grid = _TOKEN_ARRAY[np.frombuffer(self.codes, np.uint8)].reshape(N_VOICES, -1)
        return tuple(map(tuple, grid.tolist()))

    def __repr__(self) -> str:
        return f"Chorale(id={self.id!r}, voices={self.voices!r})"


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
    """Return all invariant violations of the chorale's code grid, each naming voice and timestep.

    An empty list means the chorale is valid, as every constructed :class:`Chorale` is. The grid is read as
    ``N_VOICES`` rows of ``ceil(len(codes) / N_VOICES)`` codes, so a byte count that is no multiple of
    ``N_VOICES`` leaves the last row short, and a byte above ``REST_CODE`` reads as that pitch.
    """
    codes = chorale.codes
    length = -(-len(codes) // N_VOICES)
    return _violations(codes, [codes[v * length : (v + 1) * length] for v in range(N_VOICES)])


def _violations(codes: bytes, voices: Sequence[Sequence[object]]) -> list[str]:
    """The violations of the code grid ``codes`` joined from ``voices``, each voice's tokens or codes; a cell
    that is not a token's code is named by its entry in ``voices``. Three byte searches find a valid grid; only
    the cells at fault are read one by one."""
    if len(voices) != N_VOICES:
        return [f"expected {N_VOICES} voices, got {len(voices)}"]
    length = len(voices[0])
    if length < 1:
        return ["voices must have at least 1 timestep"]
    violations = [f"voice {v}: length {n} != voice 0 length {length}" for v, n in enumerate(map(len, voices)) if n != length]
    # a REST that ends one voice and a HOLD that starts the next are a HOLD at timestep 0 as well
    if violations or not (codes.translate(None, _CODES) or HOLD_CODE in codes[::length] or _HOLD_AFTER_REST in codes):
        return violations
    grid = np.frombuffer(codes, np.uint8).reshape(N_VOICES, length)
    before = np.pad(grid[:, :-1], ((0, 0), (1, 0)), constant_values=REST_CODE)  # a REST before timestep 0
    faults = (grid > REST_CODE) | ((grid == HOLD_CODE) & (before == REST_CODE))
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
_CODE_BY_TEXT: dict[str, int] = {text: code for code, text in enumerate(_TEXTS)}


def _token_error(raw_voice: list, v: int, line: int | None) -> ChoraleFormatError:
    """The error for the first token of voice ``v`` that is not the text of a token."""
    t, raw = next((t, raw) for t, raw in enumerate(raw_voice) if not isinstance(raw, str) or raw not in _CODE_BY_TEXT)
    field = f"voices[{v}][{t}]"
    if not isinstance(raw, str):
        return ChoraleFormatError(f"token must be a string, got {raw!r}", line=line, field=field)
    if raw.isascii() and raw.isdigit() and not raw.startswith("0"):  # "0" itself is a token, so "060" is not
        return ChoraleFormatError(f"pitch {raw} out of range 0..127", line=line, field=field)
    return ChoraleFormatError(f"unknown token {raw!r}", line=line, field=field)


def canonical_key(chorale: Chorale) -> bytes:
    """Canonical uniqueness key: the code grid, id excluded.

    Each token has one code and the grid holds the voices in order, so two
    chorales get equal keys iff their token sequences are identical;
    transpositions and other musical equivalences count as distinct.
    """
    return chorale.codes


def serialize_chorale(chorale: Chorale) -> str:
    """One-line JSON record; ``parse_chorale`` inverts it exactly."""
    length = chorale.length
    record = {
        "id": chorale.id,
        "voices": [[_TEXTS[code] for code in chorale.codes[v * length : (v + 1) * length]] for v in range(N_VOICES)],
    }
    return json.dumps(record, separators=(",", ":"))


def encodes_as_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8. A JSON string may decode to a lone surrogate (``"\\ud800"``), which no
    UTF-8 file can hold, so every string read from JSON must pass this before it is used."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_chorale(text: str, *, line: int | None = None) -> Chorale:
    """Parse one record line, each token text straight to its code; raises :class:`ChoraleFormatError` on bad
    input."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChoraleFormatError(f"not valid JSON: {exc.msg}", line=line) from exc
    except RecursionError:
        raise ChoraleFormatError("not valid JSON: nested too deeply", line=line) from None
    if not isinstance(record, dict):
        raise ChoraleFormatError("record must be a JSON object", line=line)
    if "id" not in record or not isinstance(record["id"], str):
        raise ChoraleFormatError("missing or non-string 'id'", line=line, field="id")
    if not encodes_as_utf8(record["id"]):
        raise ChoraleFormatError(f"id {record['id']!r} is not UTF-8 text", line=line, field="id")
    if "voices" not in record or not isinstance(record["voices"], list):
        raise ChoraleFormatError("missing or non-list 'voices'", line=line, field="voices")
    raw_voices = record["voices"]
    if len(raw_voices) != N_VOICES:
        raise ChoraleFormatError(
            f"expected {N_VOICES} voices, got {len(raw_voices)}", line=line, field="voices"
        )
    rows = []
    for v, raw_voice in enumerate(raw_voices):
        if not isinstance(raw_voice, list):
            raise ChoraleFormatError("voice must be a list", line=line, field=f"voices[{v}]")
        try:
            rows.append(bytes(map(_CODE_BY_TEXT.__getitem__, raw_voice)))
        except (KeyError, TypeError):  # TypeError: an unhashable token, such as a list
            raise _token_error(raw_voice, v, line) from None
    codes = b"".join(rows)
    try:
        if len({*map(len, rows)}) > 1:  # the grid alone cannot tell which voice is short
            raise InvalidChoraleError(record["id"], _violations(codes, rows))
        return Chorale.from_codes(record["id"], codes)
    except InvalidChoraleError as exc:
        raise ChoraleFormatError(f"invalid chorale {exc.chorale_id!r}: {exc.violations[0]}", line=line) from None


@lru_cache(maxsize=256)
def _shift_table(semitones: int) -> bytes:
    """The ``bytes.translate`` table of a shift by ``semitones``: each pitch code to its shifted code, or to
    ``_NOT_A_TOKEN`` out of range; every other byte to itself."""
    return bytes(c if c > MAX_PITCH else c + semitones if 0 <= c + semitones <= MAX_PITCH else _NOT_A_TOKEN for c in range(256))


def transpose(chorale: Chorale, semitones: int) -> Chorale:
    """Shift every pitch by ``semitones``, one translation of the code grid; holds and rests are unchanged.

    A pitch shifted out of range raises :class:`InvalidChoraleError`, a ``ValueError``, from the token path,
    which names every such pitch.
    """
    if isinstance(semitones, int):
        codes = chorale.codes.translate(_shift_table(semitones))
        if _NOT_A_TOKEN not in codes:
            return Chorale.from_codes(chorale.id, codes)
    voices = tuple(tuple(tok + semitones if isinstance(tok, int) else tok for tok in voice) for voice in chorale.voices)
    return Chorale(id=chorale.id, voices=voices)
