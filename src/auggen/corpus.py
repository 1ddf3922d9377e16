"""Corpus loading/saving, deterministic splitting, and synthetic corpora.

The split shuffle is a keyed-hash permutation: indices are ordered by
SHA-256 of ``"{seed}:{index}"`` before the cut. This is specified here so
the procedure is auditable and gives the same split on any platform or
library version, forever.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path

from .chorale import HOLD, REST, Chorale, Token, parse_chorale, serialize_chorale
from .model import MarkovModel, sample_batch
from .rng import stream


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class Corpus:
    """Ordered collection of chorales with unique ids."""

    chorales: tuple[Chorale, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chorales", tuple(self.chorales))
        seen: set[str] = set()
        for chorale in self.chorales:
            if chorale.id in seen:
                raise CorpusError(f"duplicate chorale id {chorale.id!r}")
            seen.add(chorale.id)

    def __len__(self) -> int:
        return len(self.chorales)

    def __iter__(self):
        return iter(self.chorales)

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.chorales)

    def digest(self) -> str:
        """SHA-256 over the serialized records; id-order sensitive."""
        h = hashlib.sha256()
        for chorale in self.chorales:
            h.update(serialize_chorale(chorale).encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


@dataclass(frozen=True)
class Split:
    train: Corpus
    validation: Corpus
    seed: int
    fraction: float


def load_corpus(path: str | Path) -> Corpus:
    chorales = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            chorales.append(parse_chorale(line, line=line_no))
    return Corpus(tuple(chorales))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for chorale in corpus:
            fh.write(serialize_chorale(chorale))
            fh.write("\n")


def _shuffled_indices(n: int, seed: int) -> list[int]:
    return sorted(range(n), key=lambda i: hashlib.sha256(f"{seed}:{i}".encode("ascii")).digest())


def split(corpus: Corpus, fraction: float, seed: int) -> Split:
    """Deterministic train/validation split; |train| = floor(fraction * n)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = len(corpus)
    if n < 2:
        raise CorpusError(f"corpus of size {n} cannot be split into nonempty parts")
    n_train = math.floor(fraction * n)
    if n_train < 1 or n_train > n - 1:
        raise CorpusError(f"fraction {fraction} of {n} chorales leaves an empty part")
    order = _shuffled_indices(n, seed)
    train = Corpus(tuple(corpus.chorales[i] for i in order[:n_train]))
    validation = Corpus(tuple(corpus.chorales[i] for i in order[n_train:]))
    return Split(train=train, validation=validation, seed=seed, fraction=fraction)


def split_manifest(s: Split) -> dict:
    return {
        "seed": s.seed,
        "fraction": s.fraction,
        "train_ids": list(s.train.ids()),
        "validation_ids": list(s.validation.ids()),
    }


def save_split_manifest(s: Split, path: str | Path) -> None:
    Path(path).write_text(json.dumps(split_manifest(s), sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Synthetic teacher corpus
# ---------------------------------------------------------------------------

# The teacher is a fixed Markov model fit on seeded chorale-like walks: the
# soprano performs a diatonic step walk and the lower voices track it,
# choosing in-register support consonant with the soprano and below the
# voice above. Desk-scale corpora therefore carry melodic, rhythmic, and
# cross-voice regularities a student model has to earn.
#
# A walk reads its constraints from tables built once from the constants
# below. Bit i of a lower voice's mask stands for pitch i of its pool, so
# each set of admissible pitches is a few integer ANDs, and a draw picks
# among the set bits in pool order. Every walk makes the same random draws,
# in the same order and with the same bounds, as a walk that filters the
# pool pitch by pitch.

_MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)
_CONSONANT_CLASSES = (0, 3, 4, 7, 8, 9)  # unison/octave, thirds, fifths, sixths
_PARALLEL_CLASSES = (0, 7)  # unison/octave and fifth
_VOICE_RANGES = ((60, 79), (55, 74), (48, 67), (41, 60))
_HOLD_PROB = 0.45
_REST_PROB = 0.02
_FOLLOW_HOLD_PROB = 0.85  # lower voices hold while the soprano holds
_MAX_LEAP = 5  # semitone cap on lower-voice motion
_STEP_WEIGHTS = (0.1, 0.3, 0.2, 0.3, 0.1)  # soprano scale steps -2..+2
# the teacher sees far more walks than any desk-scale student sees
# chorales, so its context coverage is dense and its output clean
_N_SEED_WALKS = 400
_TEACHER_ORDER = 2
_TEACHER_SMOOTHING = 0.01

_POOLS = tuple(tuple(p for p in range(low, high + 1) if p % 12 in _MAJOR_SCALE) for low, high in _VOICE_RANGES)
# the weights summed term by term from 0.0, not by sum(), whose float sum is compensated from Python 3.12 on
_STEP_TOTAL = tuple(accumulate(_STEP_WEIGHTS, initial=0.0))[-1]
# the cumulative step weights, accumulated from 0.0 term by term; a pick at or above the last cut is no step
_STEP_CUTS = tuple(accumulate((w / _STEP_TOTAL for w in _STEP_WEIGHTS), initial=0.0))[1:]
_STEPS = (-2, -1, 0, 1, 2, 0)
_SOUNDING = range(min(low for low, _ in _VOICE_RANGES), max(high for _, high in _VOICE_RANGES) + 1)


def _mask(pool: tuple[int, ...], admits) -> int:
    return sum(1 << i for i, p in enumerate(pool) if admits(p))


# per lower voice, keyed by a pitch any voice can sound: pool pitches at or below it, within a leap of it,
# consonant with it, and a unison/octave or fifth away from it (keyed with the interval class)
_FULL = tuple((1 << len(pool)) - 1 for pool in _POOLS)
_AT_MOST = tuple({c: _mask(pool, lambda p: p <= c) for c in _SOUNDING} for pool in _POOLS)
_NEAR = tuple({c: _mask(pool, lambda p: abs(p - c) <= _MAX_LEAP) for c in _SOUNDING} for pool in _POOLS)
_CONSONANT = tuple(
    {c: _mask(pool, lambda p: abs(c - p) % 12 in _CONSONANT_CLASSES) for c in _SOUNDING} for pool in _POOLS
)
_PARALLEL = tuple(
    {(c, k): _mask(pool, lambda p: abs(c - p) % 12 == k) for c in _SOUNDING for k in _PARALLEL_CLASSES}
    for pool in _POOLS
)
_BIT = tuple({p: 1 << i for i, p in enumerate(pool)} for pool in _POOLS)


def _draw_step(rng) -> int:
    return _STEPS[bisect_right(_STEP_CUTS, rng.random())]


def _support_pitch(v: int, previous: list[int | None], sounding: list[int | None], rng) -> int:
    """Pick a pitch for lower voice ``v``: near its previous one, consonant with the soprano
    without moving in parallel perfect intervals against any upper voice, and not above the
    voice directly above; constraints relax in that order if nothing qualifies."""
    ceiling, soprano, prev = sounding[v - 1], sounding[0], sounding[v]
    base = _FULL[v] if ceiling is None else _AT_MOST[v][ceiling]
    consonant = base if soprano is None else base & _CONSONANT[v][soprano]
    near = base
    if prev is not None:
        near &= _NEAR[v][prev]
        for u in range(v):
            upper_prev, upper_now = previous[u], sounding[u]
            if upper_prev is None or upper_now is None or upper_prev == upper_now:
                continue
            before = abs(upper_prev - prev) % 12
            if before in _PARALLEL_CLASSES:
                consonant &= ~_PARALLEL[v][upper_now, before] | _BIT[v][prev]  # keeping the previous pitch is no motion
    for candidates in (consonant & near, consonant, base & near, base, _FULL[v]):
        if candidates:
            break
    for _ in range(rng.integers(0, candidates.bit_count())):
        candidates &= candidates - 1  # drop the lowest set bit
    return _POOLS[v][(candidates & -candidates).bit_length() - 1]


def _teacher_walk(length: int, rng) -> Chorale:
    soprano_pool = _POOLS[0]
    voices: list[list[Token]] = [[] for _ in range(4)]
    sounding: list[int | None] = [None] * 4
    sop_idx = len(soprano_pool) // 2

    for t in range(length):
        previous = list(sounding)
        roll = rng.random()
        if roll < _REST_PROB:
            sop_tok: Token = REST
        elif t > 0 and voices[0][-1] != REST and roll < _REST_PROB + _HOLD_PROB:
            sop_tok = HOLD
        else:
            sop_idx = min(max(sop_idx + _draw_step(rng), 0), len(soprano_pool) - 1)
            sop_tok = soprano_pool[sop_idx]
        voices[0].append(sop_tok)
        sounding[0] = None if sop_tok == REST else (sounding[0] if sop_tok == HOLD else sop_tok)
        soprano_moved = isinstance(sop_tok, int)

        for v in range(1, 4):
            can_hold = t > 0 and voices[v][-1] != REST and sounding[v] is not None
            if rng.random() < _REST_PROB:
                tok: Token = REST
            elif can_hold and not soprano_moved and rng.random() < _FOLLOW_HOLD_PROB:
                tok = HOLD
            else:
                tok = _support_pitch(v, previous, sounding, rng)
            voices[v].append(tok)
            sounding[v] = None if tok == REST else (sounding[v] if tok == HOLD else tok)

    return Chorale(id="walk", voices=tuple(tuple(v) for v in voices))


_RAW_BLOCK = 4096  # raw 64-bit values read per call to the bit generator
_HALF = 0xFFFFFFFF


class _RawReader:
    """``random()`` and ``integers(0, k)`` of a PCG64 ``np.random.Generator``, served from blocks of its
    raw output: each call returns what the same call on the generator would.

    ``random()`` is the top 53 bits of one raw value, scaled by 2**-53. ``integers(0, k)`` is numpy's
    32-bit Lemire draw: it takes the low half of a raw value and keeps the high half for the next such
    draw, multiplies it by ``k`` and rejects while the product's low 32 bits are below ``(2**32 - k) % k``;
    ``k == 1`` takes nothing. The generator itself is read ahead by up to a block.
    """

    def __init__(self, rng):
        bits = rng.bit_generator
        self._raw = chain.from_iterable(iter(lambda: bits.random_raw(_RAW_BLOCK).tolist(), None))
        self._high: int | None = None  # the high half of the last raw value split for a draw, not yet used

    def random(self) -> float:
        return (next(self._raw) >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        k = high - low
        if not 1 <= k <= _HALF:
            raise ValueError(f"need 1 <= high - low < 2**32, got {k}")
        if k == 1:
            return low
        threshold = (_HALF + 1 - k) % k
        while True:
            if self._high is None:
                raw = next(self._raw)
                half, self._high = raw & _HALF, raw >> 32
            else:
                half, self._high = self._high, None
            product = half * k
            if product & _HALF >= threshold:
                return low + (product >> 32)


def _teacher_walks(rng) -> list[Chorale]:
    """The teacher's seed walks, lengths rising evenly from 32 to 48 timesteps.

    :func:`teacher_model` passes a :class:`_RawReader` over the walk stream, which reads the stream ahead
    of the last draw the walks use. That is safe: no other code reads the walk stream, so the values read
    past the last walk change nothing.
    """
    lo, hi = 32, 48
    return [_teacher_walk(lo + (i * (hi - lo)) // (_N_SEED_WALKS - 1), rng) for i in range(_N_SEED_WALKS)]


def teacher_model(seed: int) -> MarkovModel:
    """Deterministically construct the teacher from seeded walks."""
    walks = _teacher_walks(_RawReader(stream(seed, "teacher", "walks")))
    model = MarkovModel.with_vocab_from(walks, order=_TEACHER_ORDER, alpha=_TEACHER_SMOOTHING)
    model.fit(walks, [1] * len(walks))
    return model


def teacher_corpus(seed: int, n: int, length_range: tuple[int, int] = (32, 48)) -> Corpus:
    """Sample ``n`` valid chorales from the fixed seeded teacher model."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t_min, t_max = length_range
    if t_min < 4:
        raise ValueError(f"minimum length must be >= 4, got {t_min}")
    if t_max < t_min:
        raise ValueError(f"empty length range {length_range}")
    ids = [f"teacher-{i:04d}" for i in range(n)]
    return Corpus(sample_batch(teacher_model(seed), range(t_min, t_max + 1), seed, ("teacher", "sample"), ids))
