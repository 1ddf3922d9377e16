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
from itertools import accumulate
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
# The walks run as one loop that reads the constraints from lists built once
# from the constants below, and its random draws inline from a list of the
# walk stream's raw PCG64 output, as numpy's Generator draws them from the
# same values: a ``random() < p`` test is one compare of a raw value with a
# cut, and a bounded pick is numpy's 32-bit Lemire draw, half-word carry
# included. Bit i of a lower voice's mask stands for pitch i of its pool,
# so each set of admissible pitches is a few integer ANDs of entries of
# 129-entry lists indexed by pitch, entry 128 for a silent voice. The pitches
# of each mask the walks meet are memoized as a tuple, so a pick is one index.
# Every walk makes the same random draws, in the same order and with the same
# bounds, as a walk that filters the pool pitch by pitch.

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


def _raw_cut(p: float) -> int:
    """The raw values whose ``random()`` is below ``p`` are those below this cut.

    ``random()`` is ``(raw >> 11) * 2**-53``, so it is below ``p`` when ``raw >> 11 < p * 2**53`` (scaling by a
    power of two is exact), that is when the integer ``raw >> 11`` is below the ceiling of ``p * 2**53``.
    """
    return math.ceil(p * 2.0**53) << 11


_REST_CUT = _raw_cut(_REST_PROB)
_HOLD_CUT = _raw_cut(_REST_PROB + _HOLD_PROB)
_FOLLOW_CUT = _raw_cut(_FOLLOW_HOLD_PROB)
_RAW_STEP_CUTS = tuple(map(_raw_cut, _STEP_CUTS))
# the soprano's next pool index, per index and per step pick, kept inside the pool
_SOPRANO_NEXT = tuple(tuple(min(max(j + s, 0), len(_POOLS[0]) - 1) for s in _STEPS) for j in range(len(_POOLS[0])))

_SILENT = 128  # a silent voice's pitch in the walks and its entry in the lists below
_HALF = 0xFFFFFFFF
# integers(0, k) rejects a 32-bit draw whose product with k has its low half below (2**32 - k) % k
_REJECT_BELOW = tuple((_HALF + 1 - k) % k if k else 0 for k in range(max(map(len, _POOLS)) + 1))
# the most raw values a timestep reads, redraws aside: a soprano roll that takes no step, then a rest, a hold
# and a pitch draw per lower voice
_STEP_RAW = 10
_RAW_BLOCK = 4096  # the fewest raw 64-bit values read per call to the bit generator


def _mask(pool: tuple[int, ...], admits) -> int:
    return sum(1 << i for i, p in enumerate(pool) if admits(p))


def _lower_voice_tables(pool: tuple[int, ...]) -> tuple:
    """One lower voice's pool, full mask and pitch-indexed masks: pool pitches at or below a pitch, within a
    leap of it, consonant with it, a unison/octave or fifth away from it (one list per interval class, empty
    masks for the others), and the bit of each pool pitch. Entry 128, a silent voice, constrains nothing."""
    full = (1 << len(pool)) - 1
    pitches = range(_SILENT)
    at_most = [_mask(pool, lambda p: p <= c) for c in pitches] + [full]
    near = [_mask(pool, lambda p: abs(p - c) <= _MAX_LEAP) for c in pitches] + [full]
    consonant = [_mask(pool, lambda p: abs(c - p) % 12 in _CONSONANT_CLASSES) for c in pitches] + [full]
    parallel = tuple(
        [_mask(pool, lambda p: abs(c - p) % 12 == k) if k in _PARALLEL_CLASSES else 0 for c in pitches] + [0]
        for k in range(12)
    )
    bit = [1 << pool.index(c) if c in pool else 0 for c in range(_SILENT + 1)]
    return pool, full, at_most, near, consonant, parallel, bit


# per lower voice: its index, then its tables
_LOWER = tuple((v, *_lower_voice_tables(_POOLS[v])) for v in range(1, 4))


def _teacher_walks(rng) -> list[Chorale]:
    """The teacher's seed walks, lengths rising evenly from 32 to 48 timesteps, drawn from ``rng``.

    A lower voice picks a pitch near its previous one, consonant with the soprano without moving in parallel
    perfect intervals against any upper voice, and not above the voice directly above; the constraints relax
    in that order if nothing qualifies. The draws are read by index from a list of ``rng``'s raw output, with
    at least ``_STEP_RAW`` values per timestep of the walk unread at its start and after each rejected draw.
    ``random() < p`` is ``raw < _raw_cut(p)``. ``integers(0, k)`` is numpy's 32-bit Lemire draw: it takes the
    low half of a raw value and keeps the high half for the next such draw, multiplies it by ``k`` and draws
    again while the product's low 32 bits are below ``(2**32 - k) % k``; ``k == 1`` takes nothing.
    """
    bits = rng.bit_generator
    soprano_pool = _POOLS[0]
    lower = tuple((*tables, {}) for tables in _LOWER)  # each voice's picks by mask, for this call
    walks = []
    raw: list[int] = []
    i, high = 0, None  # the next unread raw value, and the high half kept for the next bounded draw
    for n in range(_N_SEED_WALKS):
        length = 32 + (n * 16) // (_N_SEED_WALKS - 1)
        if len(raw) - i < _STEP_RAW * length:
            raw, i = raw[i:] + bits.random_raw(max(_STEP_RAW * length, _RAW_BLOCK)).tolist(), 0
        voices: tuple[list[Token], ...] = ([], [], [], [])
        sounding = [_SILENT] * 4
        sop_idx = len(soprano_pool) // 2
        for _ in range(length):
            moves = []  # (previous, new) pitch of each voice above that moved from one pitch to another
            roll = raw[i]
            i += 1
            struck = False  # whether the soprano strikes a note, which the lower voices then do not hold
            if roll < _REST_CUT:
                voices[0].append(REST)
                sounding[0] = _SILENT
            elif roll < _HOLD_CUT and sounding[0] != _SILENT:
                voices[0].append(HOLD)
            else:
                sop_idx = _SOPRANO_NEXT[sop_idx][bisect_right(_RAW_STEP_CUTS, raw[i])]
                i += 1
                pitch = soprano_pool[sop_idx]
                if sounding[0] != pitch and sounding[0] != _SILENT:
                    moves.append((sounding[0], pitch))
                sounding[0] = pitch
                voices[0].append(pitch)
                struck = True

            for v, pool, full, at_most, near, consonant, parallel, bit, picks_of in lower:
                prev = sounding[v]
                rest = raw[i] < _REST_CUT
                i += 1
                if rest:
                    voices[v].append(REST)
                    sounding[v] = _SILENT
                    continue
                if prev != _SILENT and not struck:
                    hold = raw[i] < _FOLLOW_CUT
                    i += 1
                    if hold:
                        voices[v].append(HOLD)
                        continue
                base = at_most[sounding[v - 1]]
                agree = base & consonant[sounding[0]]
                close = base & near[prev]
                if prev != _SILENT:
                    keep = bit[prev]  # keeping the previous pitch is no motion
                    for upper_prev, upper_now in moves:
                        agree &= ~parallel[abs(upper_prev - prev) % 12][upper_now] | keep
                candidates = agree & close or agree or close or base or full
                picks = picks_of.get(candidates)
                if picks is None:
                    picks = picks_of[candidates] = tuple(p for j, p in enumerate(pool) if candidates >> j & 1)
                k = len(picks)
                if k == 1:
                    pitch = picks[0]
                else:
                    while True:
                        if high is None:
                            half, high = raw[i] & _HALF, raw[i] >> 32
                            i += 1
                        else:
                            half, high = high, None
                        product = half * k
                        if product & _HALF >= _REJECT_BELOW[k]:
                            break
                        if len(raw) - i < _STEP_RAW * length:
                            raw, i = raw[i:] + bits.random_raw(max(_STEP_RAW * length, _RAW_BLOCK)).tolist(), 0
                    pitch = picks[product >> 32]
                if prev != pitch and prev != _SILENT:
                    moves.append((prev, pitch))
                voices[v].append(pitch)
                sounding[v] = pitch
        walks.append(Chorale(id="walk", voices=voices))
    return walks


def teacher_model(seed: int) -> MarkovModel:
    """Deterministically construct the teacher from seeded walks.

    The walks read the walk stream's raw output in blocks, so they read ahead of their last draw, by fewer than
    ``_RAW_BLOCK + _STEP_RAW * 48`` values. That is safe: no other code reads the walk stream, so the values
    read past the last walk change nothing.
    """
    walks = _teacher_walks(stream(seed, "teacher", "walks"))
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
