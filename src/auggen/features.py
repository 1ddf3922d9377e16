"""Musical feature extractors over realized chorale grids, a batch at a time.

:func:`realize_batch` realizes a batch of chorales in one forward fill over
their code grids (:func:`~auggen.chorale.fill_grid`), so the ``(4, T)``
grids come out joined along time, with one :data:`~auggen.chorale.SILENT`
column after each chorale. That column ends every note, every sounding
voice pair and every consecutive-timestep pair at the chorale boundary
(melodic steps skip rests, so that extractor also compares chorale
indices), and an extractor is one numpy array expression over the whole
batch, with no Python loop over chorales, timesteps or voice pairs. It
returns every event value together with the index of the chorale it
belongs to. Adding a feature is one :data:`REGISTRY` entry. Six are
registered:

* ``pitch`` -- MIDI pitches at note onsets, all voices pooled (weight
  proportional to onset count, not sustained duration).
* ``rhythm`` -- note durations in sixteenths, onset to the next
  onset/rest/end within the voice, pooled over voices.
* ``harmonic_interval`` -- absolute semitone gap between adjacent voice
  pairs (S-A, A-T, T-B) at every timestep where both sound.
* ``melodic_interval`` -- signed semitone step between consecutive onsets
  within a voice, pooled over voices.
* ``parallel_errors`` -- single value per chorale: parallel perfect
  fifth/octave count per 16 timesteps. An error occurs at consecutive
  timesteps for a voice pair when both voices sound at both timesteps,
  both change pitch, and the interval mod 12 is in {0, 7} at the first
  timestep and takes the same mod-12 value at the second.
* ``voice_crossing`` -- single value per chorale: fraction of timesteps at
  which some lower voice sounds strictly above a higher voice.

A chorale with no events for a feature (an all-rest chorale, say) gets the
designated empty-distribution sentinel; grading maps that to a fixed
penalty. Extractors ``pitch``..``melodic_interval`` are *pooled* features;
the last two are *per-chorale* features, which yield at most one value. A
corpus reference pools the events of every chorale either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import math

import numpy as np

from .chorale import N_VOICES, SILENT, Chorale, fill_grid

_VOICE_PAIRS = np.triu_indices(N_VOICES, 1)  # (higher voices, lower voices) of every pair, in combinations order
_NORM_TOL = 1e-12


@dataclass(frozen=True)
class FeatureDistribution:
    """Weighted empirical distribution: sorted support, positive weights summing to 1."""

    feature_name: str
    support: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            self._check()
        except ValueError as exc:
            raise ValueError(f"feature {self.feature_name!r}: {exc}") from None

    def _check(self) -> None:
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if not self.support:
            return
        for x in self.support:
            if not math.isfinite(x):
                raise ValueError(f"support value {x} is not finite")
        for w in self.weights:
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"weight {w} must be strictly positive and finite")
        if any(a >= b for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if abs(sum(self.weights) - 1.0) > _NORM_TOL:
            raise ValueError(f"weights sum to {sum(self.weights)!r}, expected 1")

    @property
    def is_empty(self) -> bool:
        return not self.support


@dataclass(frozen=True)
class GridBatch:
    """Realized grids of a batch of chorales, joined along time, each followed by one SILENT column."""

    pitches: np.ndarray  # (N_VOICES, columns) int16
    onsets: np.ndarray  # (N_VOICES, columns) bool
    owner: np.ndarray  # (columns,) chorale index of each column; a separator belongs to the chorale before it
    starts: np.ndarray  # (chorales,) first column of each chorale
    lengths: np.ndarray  # (chorales,) timesteps of each chorale


def realize_batch(chorales: Sequence[Chorale]) -> GridBatch:
    """Realize the chorales in one forward fill, in order, each followed by a SILENT separator column."""
    lengths = np.array([chorale.length for chorale in chorales], dtype=np.intp)
    pitches, onsets = fill_grid(chorales)
    return GridBatch(
        pitches=pitches,
        onsets=onsets,
        owner=np.repeat(np.arange(lengths.size), lengths + 1),
        starts=np.cumsum(lengths + 1) - (lengths + 1),
        lengths=lengths,
    )


Events = tuple[np.ndarray, np.ndarray]  # (float64 event values, chorale index of each value)


def _owners(batch: GridBatch, cells: np.ndarray) -> np.ndarray:
    """The chorale index of each True cell of a ``(rows, columns)`` mask, in row-major order."""
    return np.broadcast_to(batch.owner[: cells.shape[1]], cells.shape)[cells]


def _pitch_events(batch: GridBatch) -> Events:
    return batch.pitches[batch.onsets].astype(float), _owners(batch, batch.onsets)


def _rhythm_events(batch: GridBatch) -> Events:
    """A note ends at the next onset or silent cell in its voice; the separator ends the last note of each chorale."""
    starts = np.flatnonzero(batch.onsets)
    # each voice's row ends in a separator, so no search runs into the next voice
    stops = np.flatnonzero(batch.onsets | (batch.pitches == SILENT))
    durations = stops[np.searchsorted(stops, starts, side="right")] - starts
    return durations.astype(float), batch.owner[starts % batch.owner.size]


def _harmonic_events(batch: GridBatch) -> Events:
    upper, lower = batch.pitches[:-1], batch.pitches[1:]  # S-A, A-T, T-B
    both = (upper != SILENT) & (lower != SILENT)
    return np.abs(upper - lower)[both].astype(float), _owners(batch, both)


def _melodic_events(batch: GridBatch) -> Events:
    voice, column = np.nonzero(batch.onsets)
    owner = batch.owner[column]
    # onset pitches voice by voice; keep the steps within one voice and one chorale
    steps = np.diff(batch.pitches[voice, column])
    same = (voice[1:] == voice[:-1]) & (owner[1:] == owner[:-1])
    return steps[same].astype(float), owner[1:][same]


def _per_chorale(batch: GridBatch, has_value: np.ndarray, count: np.ndarray, scale: float) -> Events:
    """``count * scale / length`` of each chorale where ``has_value``; both are per column, summed per chorale."""
    chorales = np.flatnonzero(np.logical_or.reduceat(has_value, batch.starts))
    return np.add.reduceat(count, batch.starts)[chorales] * scale / batch.lengths[chorales], chorales


def _parallel_errors(batch: GridBatch) -> Events:
    """Errors per 16 timesteps; no value when no voice pair ever sounds at consecutive steps."""
    higher, lower = _VOICE_PAIRS
    pitches = batch.pitches
    sounds = pitches != SILENT
    held = sounds[:, :-1] & sounds[:, 1:]  # voice sounds at t and t + 1; never across a separator
    opportunities = held[higher] & held[lower]
    moves = pitches[:, :-1] != pitches[:, 1:]
    interval = np.abs(pitches[higher] - pitches[lower]) % 12
    first, second = interval[:, :-1], interval[:, 1:]
    errors = opportunities & moves[higher] & moves[lower] & ((first == 0) | (first == 7)) & (first == second)
    return _per_chorale(batch, opportunities.any(axis=0), errors.sum(axis=0), 16.0)


def _voice_crossing(batch: GridBatch) -> Events:
    """Crossed fraction of timesteps; no value when no two voices ever sound together."""
    higher, lower = _VOICE_PAIRS
    pitches = batch.pitches
    # a lower voice strictly above a sounding higher voice sounds too: SILENT is below every pitch
    crossed = ((pitches[higher] != SILENT) & (pitches[lower] > pitches[higher])).any(axis=0)
    return _per_chorale(batch, (pitches != SILENT).sum(axis=0) >= 2, crossed.astype(np.intp), 1.0)


@dataclass(frozen=True)
class FeatureSpec:
    extractor: Callable[[GridBatch], Events]  # event values of every chorale in a batch
    pooled: bool  # pooled over corpus events vs one scalar per chorale


REGISTRY: dict[str, FeatureSpec] = {
    "pitch": FeatureSpec(_pitch_events, pooled=True),
    "rhythm": FeatureSpec(_rhythm_events, pooled=True),
    "harmonic_interval": FeatureSpec(_harmonic_events, pooled=True),
    "melodic_interval": FeatureSpec(_melodic_events, pooled=True),
    "parallel_errors": FeatureSpec(_parallel_errors, pooled=False),
    "voice_crossing": FeatureSpec(_voice_crossing, pooled=False),
}

DEFAULT_FEATURES: tuple[str, ...] = tuple(REGISTRY)


def check_feature_set(names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    if not names:
        raise ValueError("feature set must not be empty")
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown feature(s) {unknown}; registry has {sorted(REGISTRY)}")
    if len(set(names)) != len(names):
        raise ValueError("feature set has duplicates")
    return names


def feature_events(chorale: Chorale, name: str) -> list[float]:
    """Raw event values of a pooled feature, one entry per event."""
    spec = REGISTRY[name]
    if not spec.pooled:
        raise ValueError(f"{name} is a per-chorale feature; it has no event pool")
    return spec.extractor(realize_batch((chorale,)))[0].tolist()
