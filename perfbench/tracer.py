"""Span tracer for the benchmark's traced run.

The tracer wraps auggen's public functions from outside the package: for
each traced function it replaces the attribute where callers look the name
up (every ``auggen`` module attribute bound to that function object, the
``MarkovModel`` class attribute, or the ``features.REGISTRY`` entry) and
puts the original back afterwards. Spans are kept in memory with their
parent span and the id of the traced operation, and written out as JSON
lines when the run ends. Nothing under ``src/`` knows about the tracer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from auggen import chorale, cli, corpus, experiment, features, grading, loop, model, rng

MODULES = (chorale, corpus, features, grading, model, loop, experiment, cli, rng)

FEATURES = tuple(features.REGISTRY)


class Span:
    __slots__ = ("id", "parent", "run", "name", "start", "end", "info")

    def __init__(self, span_id: int, parent: int | None, run: str, name: str):
        self.id = span_id
        self.parent = parent
        self.run = run
        self.name = name
        self.start = self.end = 0.0
        self.info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, origin: float) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "run": self.run,
            "name": self.name,
            "start_s": self.start - origin,
            "end_s": self.end - origin,
            "info": self.info,
        }


def _fit_info(args, kwargs, result) -> dict:
    draws = args[1]
    return {"draws": len(draws), "unique": len({id(c) for c in draws})}


def _nll_info(args, kwargs, result) -> dict:
    return {"positions": sum(len(voice) for c in args[1] for voice in c.voices)}


def _run_info(args, kwargs, result) -> dict:
    records = [rec for log in result.epoch_logs for rec in log.candidates]
    return {
        "epochs": len(result.epoch_logs),
        "candidates": len(records),
        "accepted": sum(rec.accepted for rec in records),
        "duplicates": sum(rec.reason == "duplicate" for rec in records),
        "rejected_grade": sum(rec.reason == "grade" for rec in records),
    }


def _regime_info(args, kwargs, result) -> dict:
    return {"regime": args[1]}


# (function, span name, info hook) for module-level functions
FUNCTIONS = (
    (chorale.realize, "chorale.realize", None),
    (chorale.validate, "chorale.validate", None),
    (chorale.canonical_key, "chorale.canonical_key", None),
    (chorale.parse_chorale, "chorale.parse_chorale", None),
    (chorale.serialize_chorale, "chorale.serialize_chorale", None),
    (corpus.teacher_corpus, "corpus.teacher_corpus", None),
    (corpus.split, "corpus.split", None),
    (corpus.load_corpus, "corpus.load_corpus", None),
    (corpus.save_corpus, "corpus.save_corpus", None),
    (features.feature_events, "features.feature_events", None),
    (grading.fit_reference, "grading.fit_reference", None),
    (grading.grade, "grading.grade", None),
    (grading.wasserstein1, "grading.wasserstein1", None),
    (loop.run, "loop.run", _run_info),
    (loop.generation_step, "loop.generation_step", None),
    (loop.training_step, "loop.training_step", None),
    (loop.save_run, "loop.save_run", None),
    (experiment.run_regime, "experiment.run_regime", _regime_info),
    (experiment.compare_detailed, "experiment.compare", None),
    (rng.stream, "rng.stream", None),
    (cli.cmd_grade, "cli.grade", None),
)

# (MarkovModel attribute, span name, info hook)
METHODS = (
    ("fit", "model.fit", _fit_info),
    ("sample", "model.sample", None),
    ("mean_nll", "model.mean_nll", _nll_info),
    ("snapshot", "model.snapshot", None),
    ("restore", "model.restore", None),
    ("save", "model.save", None),
)

# called ~10^5 times per operation: counted, not timed
COUNTED_METHODS = (("next_token_dist", "model.next_token_dist"),)


class Tracer:
    """Collects spans while installed; see :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = ""
        self.origin = time.perf_counter()
        self._stack: list[int] = []
        self._undo: list = []

    def _span_wrapper(self, fn, name: str, info):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.run_id, name)
            spans.append(span)
            stack.append(span.id)
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self) -> None:
        for fn, name, info in FUNCTIONS:
            wrapper = self._span_wrapper(fn, name, info)
            sites = [(m, attr) for m in MODULES for attr, value in vars(m).items() if value is fn]
            for module, attr in sites:
                self._replace(module, attr, wrapper)
        for attr, name, info in METHODS:
            self._replace(model.MarkovModel, attr, self._span_wrapper(vars(model.MarkovModel)[attr], name, info))
        for attr, name in COUNTED_METHODS:
            self._replace(model.MarkovModel, attr, self._count_wrapper(vars(model.MarkovModel)[attr], name))
        for feature, spec in list(features.REGISTRY.items()):
            wrapped = self._span_wrapper(spec.extractor, f"features.{feature}", None)
            self._undo.append((features.REGISTRY, feature, spec))
            features.REGISTRY[feature] = features.FeatureSpec(wrapped, spec.pooled)

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, run_id: str):
        """Trace every call made inside the block under ``run_id``."""
        self.run_id = run_id
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(self.origin)) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit), from the collected spans."""
        return layer_metrics(self.spans, self.counts)


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def inclusive(group) -> float:
        return sum(s.duration for s in group)

    def self_time(group, only=None) -> float:
        """Duration minus direct children (or only the children named in ``only``)."""
        return sum(
            s.duration - sum(c.duration for c in children[s.id] if only is None or c.name in only) for s in group
        )

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    def info_sum(group, key: str) -> int:
        return sum(s.info[key] for s in group)

    parent_name = {s.id: s.name for s in spans}
    m: dict[str, tuple[float, str]] = {}

    def timed(prefix: str, group, *, calls: bool = True, self_s: bool = False) -> None:
        if calls:
            m[f"{prefix}.calls"] = (len(group), "count")
        m[f"{prefix}.s"] = (inclusive(group), "s")
        if self_s:
            m[f"{prefix}.self_s"] = (self_time(group), "s")

    # spans with traced children also report self time
    timed("chorale.realize", by_name["chorale.realize"], self_s=True)
    timed("chorale.validate", by_name["chorale.validate"])
    timed("chorale.canonical_key", by_name["chorale.canonical_key"])
    timed("chorale.parse_chorale", by_name["chorale.parse_chorale"], self_s=True)
    timed("chorale.serialize_chorale", by_name["chorale.serialize_chorale"])

    for name in ("teacher_corpus", "split", "load_corpus", "save_corpus"):
        timed(f"corpus.{name}", by_name[f"corpus.{name}"], calls=False, self_s=True)

    for name in (*FEATURES, "feature_events"):
        timed(f"features.{name}", by_name[f"features.{name}"], self_s=True)

    timed("grading.fit_reference", by_name["grading.fit_reference"], calls=False, self_s=True)
    grades = by_name["grading.grade"]
    timed("grading.grade", grades, self_s=True)
    m["grading.grade.ms_per_call"] = (per(inclusive(grades), len(grades), 1e3), "ms")
    timed("grading.wasserstein1", by_name["grading.wasserstein1"])

    fits = by_name["model.fit"]
    draws = info_sum(fits, "draws")
    timed("model.fit", fits)
    m["model.fit.draws"] = (draws, "count")
    m["model.fit.s_per_1k_draws"] = (per(inclusive(fits), draws, 1e3), "s")
    m["model.fit.unique_frac"] = (per(info_sum(fits, "unique"), draws), "ratio")
    samples = by_name["model.sample"]
    timed("model.sample", samples, self_s=True)
    m["model.sample.ms_per_chorale"] = (per(inclusive(samples), len(samples), 1e3), "ms")
    m["model.next_token_dist.calls"] = (counts.get("model.next_token_dist", 0), "count")
    nll = by_name["model.mean_nll"]
    nll_train = [s for s in nll if parent_name.get(s.parent) == "loop.training_step"]
    nll_val = [s for s in nll if parent_name.get(s.parent) != "loop.training_step"]
    for label, group in (("train", nll_train), ("val", nll_val)):
        timed(f"model.mean_nll.{label}", group)
        m[f"model.mean_nll.{label}.positions"] = (info_sum(group, "positions"), "count")
    timed("model.snapshot", by_name["model.snapshot"])
    timed("model.restore", by_name["model.restore"], calls=False)
    timed("model.save", by_name["model.save"], calls=False)

    runs = by_name["loop.run"]
    for name in ("run", "generation_step", "training_step", "save_run"):
        timed(f"loop.{name}", by_name[f"loop.{name}"], calls=False, self_s=True)
    m["loop.validation.s"] = (inclusive([s for s in nll_val if parent_name.get(s.parent) == "loop.run"]), "s")
    epoch_s = []
    for run in runs:
        kids = children[run.id]
        marks = [c.start for c in kids if c.name == "loop.generation_step"]
        marks.append(next((c.start for c in kids if c.name == "model.restore"), run.end))
        epoch_s.extend(b - a for a, b in zip(marks, marks[1:]))
    m["loop.epochs"] = (info_sum(runs, "epochs"), "count")
    m["loop.epoch_s.p50"] = (grading.nearest_rank(epoch_s, 0.5) if epoch_s else 0.0, "s")
    m["loop.epoch_s.p90"] = (grading.nearest_rank(epoch_s, 0.9) if epoch_s else 0.0, "s")
    for key in ("candidates", "accepted", "duplicates", "rejected_grade"):
        m[f"loop.{key}"] = (info_sum(runs, key), "count")
    m["loop.accept_frac"] = (per(info_sum(runs, "accepted"), info_sum(runs, "candidates")), "ratio")

    regimes = by_name["experiment.run_regime"]
    for regime in experiment.ALL_REGIMES:
        m[f"experiment.run_regime.{regime}.s"] = (inclusive([s for s in regimes if s.info["regime"] == regime]), "s")
    # run_regime outside the loop and save_run: final-evaluation sampling and grading
    m["experiment.eval.self_s"] = (self_time(regimes, only={"loop.run", "loop.save_run"}), "s")
    compares = by_name["experiment.compare"]
    timed("experiment.compare", compares, calls=False, self_s=True)

    timed("rng.stream", by_name["rng.stream"])
    timed("cli.grade", by_name["cli.grade"], calls=False, self_s=True)
    return m


# Per-call means in the shape of the baseline table: (label, span name, scale, unit)
BASELINE_ROWS = (
    ("realize", "chorale.realize", 1e6, "us/call"),
    *((f"extractor {name}", f"features.{name}", 1e6, "us/call") for name in FEATURES),
    ("wasserstein1", "grading.wasserstein1", 1e6, "us/call"),
    ("grade", "grading.grade", 1e3, "ms/call"),
    ("sample", "model.sample", 1e3, "ms/chorale"),
    ("mean_nll", "model.mean_nll", 1e3, "ms/call"),
    ("snapshot", "model.snapshot", 1e3, "ms/call"),
)


def baseline_table(spans: list[Span]) -> list[tuple[str, float, str, int]]:
    """(label, mean per call, unit, calls) rows; ``fit`` is per 1k draws."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    rows = []
    for label, name, scale, unit in BASELINE_ROWS:
        group = by_name[name]
        mean = sum(s.duration for s in group) / len(group) * scale if group else 0.0
        rows.append((label, mean, unit, len(group)))
    fits = by_name["model.fit"]
    draws = sum(s.info["draws"] for s in fits)
    fit_mean = sum(s.duration for s in fits) / draws * 1e3 if draws else 0.0
    rows.insert(-3, ("fit", fit_mean, "s/1k draws", len(fits)))
    return rows
