"""Musical feature extractors over the realized chorale grid.

An extractor maps a chorale's :class:`~auggen.chorale.RealizedGrid` to a
list of real event values. Each one is a numpy array expression over the
``(4, T)`` pitch and onset arrays, with no Python loop over timesteps or
voice pairs. :func:`extract_all` realizes a chorale once and turns each
extractor's events into a weighted empirical distribution.
Adding a feature is one :data:`REGISTRY` entry. Six are registered:

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

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

import math

import numpy as np

from .chorale import N_VOICES, SILENT, Chorale, RealizedGrid, realize

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
        except TypeError as exc:  # a value that is not a number
            raise ValueError(f"feature {self.feature_name!r}: support and weights must be numbers ({exc})") from None

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

    @classmethod
    def from_values(cls, name: str, values: Iterable[float]) -> "FeatureDistribution":
        """Empirical distribution of ``values``; duplicates merge into weight."""
        counts = Counter(float(v) for v in values)
        if not counts:
            return cls.empty(name)
        total = sum(counts.values())
        support = tuple(sorted(counts))
        return cls(name, support, tuple(counts[x] / total for x in support))

    @classmethod
    def point(cls, name: str, value: float) -> "FeatureDistribution":
        return cls(name, (float(value),), (1.0,))

    @classmethod
    def empty(cls, name: str) -> "FeatureDistribution":
        return cls(name, (), ())

    @property
    def is_empty(self) -> bool:
        return not self.support


def _pitch_events(grid: RealizedGrid) -> list[float]:
    return grid.pitches[grid.onsets].astype(float).tolist()


def _rhythm_events(grid: RealizedGrid) -> list[float]:
    """A note ends at the next onset or silent cell in its voice, or at the end of the chorale."""
    # an extra True column per row: every note stops by the row's end, and no search runs into the next voice
    end_column = np.ones((N_VOICES, 1), dtype=bool)
    starts = np.flatnonzero(np.hstack([grid.onsets, ~end_column]))
    stops = np.flatnonzero(np.hstack([grid.onsets | (grid.pitches == SILENT), end_column]))
    return (stops[np.searchsorted(stops, starts, side="right")] - starts).astype(float).tolist()


def _harmonic_events(grid: RealizedGrid) -> list[float]:
    upper, lower = grid.pitches[:-1], grid.pitches[1:]  # S-A, A-T, T-B
    both = (upper != SILENT) & (lower != SILENT)
    return np.abs(upper - lower)[both].astype(float).tolist()


def _melodic_events(grid: RealizedGrid) -> list[float]:
    voice = np.nonzero(grid.onsets)[0]
    steps = np.diff(grid.pitches[grid.onsets])  # onset pitches voice by voice; keep steps within one voice
    return steps[voice[1:] == voice[:-1]].astype(float).tolist()


def _parallel_errors(grid: RealizedGrid) -> list[float]:
    """Errors per 16 timesteps; no value when no voice pair ever sounds at consecutive steps."""
    higher, lower = _VOICE_PAIRS
    pitches = grid.pitches
    sounds = pitches != SILENT
    held = sounds[:, :-1] & sounds[:, 1:]  # voice sounds at t and t + 1
    opportunities = held[higher] & held[lower]
    if not opportunities.any():
        return []
    moves = pitches[:, :-1] != pitches[:, 1:]
    interval = np.abs(pitches[higher] - pitches[lower]) % 12
    first, second = interval[:, :-1], interval[:, 1:]
    errors = opportunities & moves[higher] & moves[lower] & ((first == 0) | (first == 7)) & (first == second)
    return [int(errors.sum()) * 16.0 / grid.length]


def _voice_crossing(grid: RealizedGrid) -> list[float]:
    """Crossed fraction of timesteps; no value when no two voices ever sound together."""
    higher, lower = _VOICE_PAIRS
    pitches = grid.pitches
    if not ((pitches != SILENT).sum(axis=0) >= 2).any():
        return []
    # a lower voice strictly above a sounding higher voice sounds too: SILENT is below every pitch
    crossed = ((pitches[higher] != SILENT) & (pitches[lower] > pitches[higher])).any(axis=0)
    return [int(crossed.sum()) / grid.length]


@dataclass(frozen=True)
class FeatureSpec:
    extractor: Callable[[RealizedGrid], list[float]]  # event values of one chorale
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


def extract_all(chorale: Chorale, names: Iterable[str]) -> dict[str, FeatureDistribution]:
    """Realize ``chorale`` once and map each feature name to its distribution."""
    grid = realize(chorale)
    return {name: FeatureDistribution.from_values(name, REGISTRY[name].extractor(grid)) for name in names}


def extract(chorale: Chorale, name: str) -> FeatureDistribution:
    return extract_all(chorale, (name,))[name]


def feature_events(chorale: Chorale, name: str) -> list[float]:
    """Raw event values of a pooled feature, one entry per event."""
    spec = REGISTRY[name]
    if not spec.pooled:
        raise ValueError(f"{name} is a per-chorale feature; it has no event pool")
    return spec.extractor(realize(chorale))
