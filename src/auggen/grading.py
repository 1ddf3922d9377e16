"""Fixed external critic: reference distributions, distances, thresholds.

The critic is fit once on the true training corpus and never updated by
training. A chorale's grade is the weighted sum of per-feature 1-D
Wasserstein distances to the reference; lower is better. A feature whose
chorale-side distribution is empty contributes a fixed penalty
``p_empty`` instead of a distance, so degenerate chorales cannot pass a
quality threshold.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .chorale import Chorale, realize
from .corpus import Corpus
from .features import REGISTRY, DEFAULT_FEATURES, FeatureDistribution, check_feature_set, extract_all

DEFAULT_P_EMPTY = 100.0

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


def _require_keys(payload: Mapping, keys: Sequence[str], what: str) -> None:
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{what} is missing key(s) {missing}")


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
        if payload.get("format") != _REFERENCE_FORMAT:
            raise ValueError(f"unrecognized reference format {payload.get('format')!r}")
        _require_keys(payload, ("features", "references", "weights", "p_empty"), "reference")
        names = check_feature_set(payload["features"])
        for key in ("references", "weights"):
            if set(payload[key]) != set(names):
                raise ValueError(f"{key} keys {sorted(payload[key])} do not match features {sorted(names)}")
        for name, entry in payload["references"].items():
            _require_keys(entry, ("support", "weights"), f"reference entry {name!r}")
        references = {
            name: FeatureDistribution(name, tuple(entry["support"]), tuple(entry["weights"]))
            for name, entry in payload["references"].items()
        }
        return cls(
            feature_names=names,
            references=references,
            weights={k: float(v) for k, v in payload["weights"].items()},
            p_empty=float(payload["p_empty"]),
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
    if not 0 < p_empty < math.inf:
        raise ValueError(f"p_empty must be finite and > 0, got {p_empty}")
    weight_map = {name: 1.0 for name in names}
    if weights is not None:
        for name, w in weights.items():
            if name not in weight_map:
                raise ValueError(f"weight given for disabled feature {name!r}")
            if w < 0 or not math.isfinite(w):
                raise ValueError(f"weight for {name!r} must be finite and >= 0, got {w}")
            weight_map[name] = float(w)
    if not any(w > 0 for w in weight_map.values()):
        raise ValueError("at least one feature weight must be > 0")

    events: dict[str, list[float]] = {name: [] for name in names}
    for chorale in corpus:
        grid = realize(chorale)
        for name in names:
            events[name].extend(REGISTRY[name].extractor(grid))
    references: dict[str, FeatureDistribution] = {}
    for name in names:
        reference = FeatureDistribution.from_values(name, events[name])
        if reference.is_empty:
            raise ValueError(f"corpus yields zero events for feature {name!r}")
        references[name] = reference

    return ReferenceModel(
        feature_names=names,
        references=references,
        weights=weight_map,
        p_empty=float(p_empty),
        provenance={"corpus_digest": corpus.digest(), "corpus_size": len(corpus)},
    )


@dataclass(frozen=True)
class GradeReport:
    """Per-feature distances and their weighted total (lower is better), and the distributions graded."""

    chorale_id: str
    distances: Mapping[str, float]
    total: float
    distributions: Mapping[str, FeatureDistribution]


def grade(chorale: Chorale, reference: ReferenceModel) -> GradeReport:
    distributions = extract_all(chorale, reference.feature_names)
    distances: dict[str, float] = {}
    total = 0.0
    for name, dist in distributions.items():
        d = reference.p_empty if dist.is_empty else wasserstein1(dist, reference.references[name])
        distances[name] = d
        total += reference.weights[name] * d
    return GradeReport(chorale_id=chorale.id, distances=distances, total=total, distributions=distributions)


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

    @classmethod
    def from_json(cls, payload: dict) -> "Threshold":
        raw = payload["value"]
        value = float(raw) if not isinstance(raw, str) else {"inf": math.inf, "-inf": -math.inf}[raw]
        return cls(
            value=value,
            label=payload["label"],
            quantile=payload.get("quantile"),
            corpus_digest=payload.get("corpus_digest"),
        )


def grade_quantile(grades: Sequence[float], q: float, corpus_digest: str | None = None, label: str = "quantile") -> Threshold:
    """Threshold at the nearest-rank ``q`` quantile of ``grades``."""
    return Threshold(value=nearest_rank(grades, q), label=label, quantile=q, corpus_digest=corpus_digest)
