"""Fixed external critic: reference distributions, distances, thresholds.

The critic is fit once on the true training corpus and never updated by
training. A chorale's grade is the weighted sum of per-feature 1-D
Wasserstein distances to the reference; lower is better. A feature whose
chorale-side distribution is empty contributes a fixed penalty
``p_empty`` instead of a distance, so degenerate chorales cannot pass a
quality threshold. :func:`grade` grades a sequence of chorales, or a lone
chorale as a batch of one, into a :class:`GradeBatch`, in vectorised
passes of at most :data:`PASS_SIZE`, with the bits that
:func:`wasserstein1`, the reference implementation, gives one at a time.
:func:`_pass_events` is the one place that runs the extractors of
:data:`~auggen.features.REGISTRY`, for grading and for fitting alike.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .chorale import Chorale
from .corpus import Corpus
from .features import REGISTRY, DEFAULT_FEATURES, FeatureDistribution, check_feature_set, realize_batch

DEFAULT_P_EMPTY = 100.0
PASS_SIZE = 64  # chorales per vectorised pass of the critic; bounds the pass's working arrays

_REFERENCE_FORMAT = "auggen-reference-v1"


class EmptyDistributionError(ValueError):
    pass


def wasserstein1(p: FeatureDistribution, q: FeatureDistribution) -> float:
    """Exact 1-D Wasserstein-1 distance between two discrete distributions.

    Integrates |CDF_p - CDF_q| over the merged support intervals.
    """
    if p.is_empty or q.is_empty:
        raise EmptyDistributionError("wasserstein1 requires non-empty distributions")
    xs = np.union1d(np.asarray(p.support), np.asarray(q.support))
    cum_p = np.concatenate(([0.0], np.cumsum(p.weights)))
    cum_q = np.concatenate(([0.0], np.cumsum(q.weights)))
    cdf_p = cum_p[np.searchsorted(p.support, xs, side="right")]
    cdf_q = cum_q[np.searchsorted(q.support, xs, side="right")]
    return float(np.sum(np.abs(cdf_p - cdf_q)[:-1] * np.diff(xs)))


def _number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the largest float
        raise ValueError(f"{what} {value} is too large for a float") from None


def _require_keys(payload: Mapping, keys: Sequence[str], what: str) -> None:
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{what} is missing key(s) {missing}")


class _CdfTable(NamedTuple):
    value: np.ndarray  # support points, feature by feature, ascending within each
    feature: np.ndarray  # feature index of each point
    cdf: np.ndarray  # the feature's np.cumsum(weights) at each point


@dataclass(frozen=True)
class ReferenceModel:
    """Per-feature reference distributions plus weights and the empty penalty.

    Fit only from the true corpus, never from generated chorales; immutable
    and shareable once fitted.
    """

    feature_names: tuple[str, ...]
    references: Mapping[str, FeatureDistribution]
    weights: Mapping[str, float]
    p_empty: float
    provenance: Mapping[str, object]

    def __post_init__(self) -> None:
        if not 0 < self.p_empty < math.inf:
            raise ValueError(f"p_empty must be finite and > 0, got {self.p_empty}")
        for name, w in self.weights.items():
            if not 0 <= w < math.inf:
                raise ValueError(f"weight for {name!r} must be finite and >= 0, got {w}")
        if not any(w > 0 for w in self.weights.values()):
            raise ValueError("at least one feature weight must be > 0")
        # a distance is at most p_empty or a feature's value span, which is at most 254 or a chorale's length, and
        # no chorale of 2**32 timesteps fits in memory: this running sum in feature order bounds every grade
        bound = 0.0
        for name in self.feature_names:
            bound += self.weights[name] * max(self.p_empty, 2.0**32)
        if not math.isfinite(bound):
            raise ValueError(f"weights {dict(self.weights)} with p_empty {self.p_empty} could overflow a grade")

    @cached_property
    def _cdf_table(self) -> _CdfTable:
        """The support points of every reference in feature order, each with the CDF after it; built once."""
        dists = [self.references[name] for name in self.feature_names]
        for dist in dists:
            if dist.is_empty:
                raise EmptyDistributionError(f"reference {dist.feature_name!r} has no support")
        return _CdfTable(
            value=np.array([x for dist in dists for x in dist.support], dtype=float),
            feature=np.repeat(np.arange(len(dists)), [len(dist.support) for dist in dists]),
            cdf=np.concatenate([np.cumsum(dist.weights) for dist in dists]),
        )

    def to_json(self) -> dict:
        return {
            "format": _REFERENCE_FORMAT,
            "features": list(self.feature_names),
            "weights": {name: self.weights[name] for name in self.feature_names},
            "p_empty": self.p_empty,
            "provenance": dict(self.provenance),
            "references": {
                name: {"support": list(dist.support), "weights": list(dist.weights)}
                for name, dist in self.references.items()
            },
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ReferenceModel":
        found = payload.get("format") if isinstance(payload, dict) else None
        if found != _REFERENCE_FORMAT:
            raise ValueError(f"unrecognized reference format {found!r}")
        _require_keys(payload, ("features", "references", "weights", "p_empty"), "reference")
        features = payload["features"]
        if not (isinstance(features, list) and all(isinstance(name, str) for name in features)):
            raise ValueError(f"features must be a list of feature names, got {features!r}")
        names = check_feature_set(features)
        for key in ("references", "weights"):
            if not isinstance(payload[key], dict):
                raise ValueError(f"{key} must be an object keyed by feature name")
            if set(payload[key]) != set(names):
                raise ValueError(f"{key} keys {sorted(payload[key])} do not match features {sorted(names)}")
        for name, entry in payload["references"].items():
            if not isinstance(entry, dict):
                raise ValueError(f"reference entry {name!r} must be an object")
            _require_keys(entry, ("support", "weights"), f"reference entry {name!r}")
            for key in ("support", "weights"):
                if not isinstance(entry[key], list):
                    raise ValueError(f"reference entry {name!r}: {key} must be a list")
                if any(isinstance(x, bool) for x in entry[key]):  # JSON true would read as 1
                    raise ValueError(f"reference entry {name!r}: {key} must be numbers, got a bool")
        references = {
            name: FeatureDistribution(name, tuple(entry["support"]), tuple(entry["weights"]))
            for name, entry in payload["references"].items()
        }
        return cls(
            feature_names=names,
            references=references,
            weights={k: _number(v, f"weight for {k!r}") for k, v in payload["weights"].items()},
            p_empty=_number(payload["p_empty"], "p_empty"),
            provenance=payload.get("provenance", {}),
        )

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ReferenceModel":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def fit_reference(
    corpus: Corpus,
    feature_set: Iterable[str] = DEFAULT_FEATURES,
    weights: Mapping[str, float] | None = None,
    p_empty: float = DEFAULT_P_EMPTY,
) -> ReferenceModel:
    """Fit per-feature references from ``corpus``.

    Each chorale is realized once; every feature pools its events over all
    chorales (a per-chorale feature contributes at most one value each).
    Raises if an enabled feature yields zero events over the whole corpus.
    """
    names = check_feature_set(feature_set)
    if len(corpus) == 0:
        raise ValueError("cannot fit a reference on an empty corpus")
    weight_map = {name: 1.0 for name in names}
    if weights is not None:
        for name, w in weights.items():
            if name not in weight_map:
                raise ValueError(f"weight given for disabled feature {name!r}")
            weight_map[name] = float(w)

    events: list[list[np.ndarray]] = [[] for _ in names]
    for chorales in _passes(corpus.chorales):
        segment, value = _pass_events(chorales, names)
        feature = segment % len(names)
        for k, pooled in enumerate(events):
            pooled.append(value[feature == k])
    references: dict[str, FeatureDistribution] = {}
    for name, pooled in zip(names, events):
        # no extractor yields NaN or -0.0, so np.unique merges equal values as a Counter of floats would
        support, counts = np.unique(np.concatenate(pooled), return_counts=True)
        if not support.size:
            raise ValueError(f"corpus yields zero events for feature {name!r}")
        total = int(counts.sum())
        references[name] = FeatureDistribution(name, tuple(support.tolist()), tuple(n / total for n in counts.tolist()))

    return ReferenceModel(
        feature_names=names,
        references=references,
        weights=weight_map,
        p_empty=float(p_empty),
        provenance={"corpus_digest": corpus.digest(), "corpus_size": len(corpus)},
    )


@dataclass(frozen=True)
class GradeBatch:
    """Grades of a sequence of chorales, in input order, with the support points of every distribution graded.

    A segment is one (chorale, feature) pair, numbered ``chorale * len(feature_names) + feature``.
    The points are ordered by segment, then by value.
    """

    ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    distances: np.ndarray  # (chorales, features); p_empty where a chorale has no events for a feature
    totals: np.ndarray  # (chorales,)
    point_segment: np.ndarray
    point_value: np.ndarray
    point_weight: np.ndarray


def grade(chorales: Chorale | Sequence[Chorale], reference: ReferenceModel) -> GradeBatch:
    """Grade a sequence of chorales, or a lone chorale as a batch of one.

    A chorale's distance for a feature is ``wasserstein1`` between its event
    distribution and the reference, or ``p_empty`` when it has no events;
    its total is the weighted sum in feature order. Each pass of at most
    :data:`PASS_SIZE` chorales realizes every chorale once, runs every
    extractor once and computes all its distances with array operations,
    bit for bit the values ``wasserstein1`` gives.
    """
    if isinstance(chorales, Chorale):
        chorales = (chorales,)
    parts = [_grade_pass(part, reference) for part in _passes(chorales)]
    if len(parts) == 1:
        return parts[0]
    shift = PASS_SIZE * len(reference.feature_names)  # segments per full pass
    return GradeBatch(
        ids=tuple(chorale.id for chorale in chorales),
        feature_names=reference.feature_names,
        distances=np.concatenate([part.distances for part in parts]),
        totals=np.concatenate([part.totals for part in parts]),
        point_segment=np.concatenate([part.point_segment + k * shift for k, part in enumerate(parts)]),
        point_value=np.concatenate([part.point_value for part in parts]),
        point_weight=np.concatenate([part.point_weight for part in parts]),
    )


def _passes(chorales: Sequence[Chorale]) -> list[Sequence[Chorale]]:
    """Consecutive slices of at most PASS_SIZE chorales; one empty slice for no chorales."""
    return [chorales[start : start + PASS_SIZE] for start in range(0, max(len(chorales), 1), PASS_SIZE)]


def _grade_pass(chorales: Sequence[Chorale], reference: ReferenceModel) -> GradeBatch:
    names = reference.feature_names
    width = len(names)
    segments = len(chorales) * width
    table = reference._cdf_table
    grid, key, point_value, point_weight = _support_points(chorales, reference)
    stride = grid.size
    point_segment = key // stride
    # the CDF after each point: a sequential cumsum along its segment's row, the bits np.cumsum of its weights gives
    column = np.arange(key.size) - np.searchsorted(point_segment, point_segment)
    padded = np.zeros((segments, int(column.max(initial=-1)) + 1))
    padded[point_segment, column] = point_weight
    point_cdf = np.cumsum(padded, axis=1)[point_segment, column]
    # each segment's merged support: its own points and its feature's reference points
    reference_key = table.feature * stride + np.searchsorted(grid, table.value)
    merged = np.concatenate([key, (np.arange(len(chorales))[:, None] * (width * stride) + reference_key).ravel()])
    merged.sort()
    merged = merged[_run_starts(merged)]
    merged_segment, merged_rank = np.divmod(merged, stride)
    merged_feature = merged_segment % width
    cdf = _cdf_at(key, point_segment, point_cdf, merged, merged_segment)
    merged_reference_key = merged_feature * stride + merged_rank
    reference_cdf = _cdf_at(reference_key, table.feature, table.cdf, merged_reference_key, merged_feature)
    # wasserstein1's terms, |CDF difference| times the gap to the next merged point, and their np.sum per segment
    same = merged_segment[1:] == merged_segment[:-1]
    terms = (np.abs(cdf - reference_cdf)[:-1] * np.diff(grid[merged_rank]))[same]
    sums = _row_sums(terms, np.bincount(merged_segment, minlength=segments) - 1)
    distances = np.where(np.bincount(point_segment, minlength=segments) > 0, sums, reference.p_empty).reshape(-1, width)
    # the weighted sum in feature order, as a running `total +=` from 0.0 gives: a sequential cumsum along each row
    weighted = np.zeros((len(chorales), width + 1))
    weighted[:, 1:] = distances * [reference.weights[name] for name in names]
    totals = np.cumsum(weighted, axis=1)[:, -1]
    return GradeBatch(
        ids=tuple(chorale.id for chorale in chorales),
        feature_names=names,
        distances=distances,
        totals=totals,
        point_segment=point_segment,
        point_value=point_value,
        point_weight=point_weight,
    )


def _support_points(chorales: Sequence[Chorale], reference: ReferenceModel) -> tuple[np.ndarray, ...]:
    """The distribution of every (chorale, feature) segment of one pass, as support points.

    Returns the ascending distinct values of all events and reference points,
    and for each support point its key, ``segment * len(grid) + rank of its
    value``, its value and its weight, ordered by key: by segment, then value.
    """
    segment, value = _pass_events(chorales, reference.feature_names)
    # the rank among all event and reference values makes (segment, value) one exact integer key
    grid = np.sort(np.concatenate([value, reference._cdf_table.value]))
    grid = grid[_run_starts(grid)]
    event_key = segment * grid.size + np.searchsorted(grid, value)
    order = np.argsort(event_key, kind="stable")
    runs = _run_starts(event_key[order])
    first = order[runs]  # the first event of each distinct key
    total = np.bincount(segment, minlength=len(chorales) * len(reference.feature_names))  # events per segment
    return grid, event_key[first], value[first], np.diff(runs, append=order.size) / total[segment[first]]


def _pass_events(chorales: Sequence[Chorale], names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The segment (``chorale * len(names) + feature``) and the value of every event of one pass.

    The extractors' own arrays are freed when this returns, before the keys
    are built, which lowers a pass's peak memory.
    """
    batch = realize_batch(chorales)
    values, owners = zip(*(REGISTRY[name].extractor(batch) for name in names))
    segment = np.concatenate(owners) * len(names) + np.repeat(np.arange(len(names)), [owner.size for owner in owners])
    return segment, np.concatenate(values)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in ``ordered``."""
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return np.flatnonzero(first)


def _cdf_at(
    keys: np.ndarray, owners: np.ndarray, cdf: np.ndarray, queries: np.ndarray, query_owners: np.ndarray
) -> np.ndarray:
    """The CDF at each query: that after the last key at or below it when both have one owner, else 0.0."""
    below = np.searchsorted(keys, queries, side="right") - 1  # -1 where no key is at or below: the appended sentinel
    return np.where(np.append(owners, -1)[below] == query_owners, np.append(cdf, 0.0)[below], 0.0)


def _row_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each run of ``counts`` consecutive terms, with the bits of ``np.sum`` over that run alone.

    Runs of one length are summed as the rows of one matrix: ``np.sum`` along
    a contiguous axis adds pairwise, as it does over a 1-D array of that length.
    """
    order = np.argsort(counts, kind="stable")
    ordered = counts[order]
    first = (np.cumsum(counts) - counts)[order]
    bounds = [*_run_starts(ordered).tolist(), counts.size]
    steps = np.arange(counts.max(initial=0))
    sums = np.empty(counts.size)
    for a, b in zip(bounds, bounds[1:]):
        sums[order[a:b]] = terms[first[a:b, None] + steps[: ordered[a]]].sum(axis=1)
    return sums


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: sorted ascending, element at index ceil(q*n) - 1."""
    if not values:
        raise ValueError("cannot take a quantile of an empty list")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


@dataclass(frozen=True)
class Threshold:
    """Grade cutoff with provenance; -inf and +inf are the degenerate regimes."""

    value: float
    label: str
    quantile: float | None = None
    corpus_digest: str | None = None

    def to_json(self) -> dict:
        if math.isinf(self.value):
            value: float | str = "inf" if self.value > 0 else "-inf"
        else:
            value = self.value
        return {
            "value": value,
            "label": self.label,
            "quantile": self.quantile,
            "corpus_digest": self.corpus_digest,
        }


def grade_quantile(grades: Sequence[float], q: float, corpus_digest: str | None = None, label: str = "quantile") -> Threshold:
    """Threshold at the nearest-rank ``q`` quantile of ``grades``."""
    return Threshold(value=nearest_rank(grades, q), label=label, quantile=q, corpus_digest=corpus_digest)
