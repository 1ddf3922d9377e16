"""Acceptance gate: six criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Every tolerance and runtime budget is pinned here.
"""

import csv
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from auggen.chorale import HOLD, REST, Chorale, canonical_key, parse_chorale, serialize_chorale, validate
from auggen.corpus import Corpus, load_corpus, split, teacher_corpus
from auggen.experiment import ALL_REGIMES, ExperimentConfig, compare_detailed
from auggen.features import FeatureDistribution
from auggen.grading import ReferenceModel, grade, nearest_rank, wasserstein1
from auggen.loop import ORIGIN_TRUE
from auggen.model import START, MarkovModel
from auggen.rng import stream
from oracles import recompute_epoch_stats, transport_cost

METRIC_TOL = 1e-9
NORM_TOL = 1e-12
# blessed artifact digests of the desk compare at seeds 17..19; rewritten by perfbench/bless.py
GOLDEN_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "desk-sweep.json"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def random_distribution(rng, max_support=8) -> FeatureDistribution:
    n = int(rng.integers(1, max_support + 1))
    support = sorted(float(x) for x in rng.choice(np.arange(-50.0, 50.5, 0.5), size=n, replace=False))
    weights = rng.random(n) + 0.05
    weights = weights / weights.sum()
    return FeatureDistribution("test", tuple(support), tuple(float(w) for w in weights))


def random_valid_chorale(rng, ident: str, min_length=2, max_length=12) -> Chorale:
    length = int(rng.integers(min_length, max_length + 1))
    voices = []
    for _ in range(4):
        voice = []
        for t in range(length):
            roll = rng.random()
            if t > 0 and voice[-1] != REST and roll < 0.3:
                voice.append(HOLD)
            elif roll < 0.4:
                voice.append(REST)
            else:
                voice.append(int(rng.integers(30, 91)))
        voices.append(tuple(voice))
    chorale = Chorale(id=ident, voices=tuple(voices))
    assert validate(chorale) == []
    return chorale


@pytest.fixture(scope="session")
def desk_compare_17(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept-compare-17")
    config = ExperimentConfig(seed=17)
    start = time.perf_counter()
    summaries, results = compare_detailed(config, out)
    elapsed = time.perf_counter() - start
    return config, out, summaries, results, elapsed


def test_criterion_1_metric_suite():
    start = time.perf_counter()
    rng = stream(2024, "metric-suite")
    for _ in range(220):
        p, q, r = (random_distribution(rng) for _ in range(3))
        d_pq, d_qp = wasserstein1(p, q), wasserstein1(q, p)
        ok = (
            d_pq >= -METRIC_TOL
            and abs(d_pq - d_qp) <= METRIC_TOL
            and wasserstein1(p, p) <= METRIC_TOL
            and wasserstein1(p, r) <= d_pq + wasserstein1(q, r) + METRIC_TOL
        )
        if not ok:
            report(1, "wasserstein1 metric properties", False, f"violated on {p} vs {q} vs {r}")
    for _ in range(220):
        p, q = random_distribution(rng, max_support=6), random_distribution(rng, max_support=6)
        if abs(wasserstein1(p, q) - transport_cost(p, q)) > METRIC_TOL:
            report(1, "wasserstein1 transport oracle", False, f"mismatch on {p} vs {q}")
    elapsed = time.perf_counter() - start
    report(
        1,
        "wasserstein1 is a metric and matches the transport oracle",
        elapsed < 5.0,
        f"220 triples + 220 oracle pairs at tol {METRIC_TOL:g} in {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_2_structural_invariants(desk_split):
    start = time.perf_counter()
    rng = stream(2024, "structural")

    for i in range(200):
        chorale = random_valid_chorale(rng, f"rt{i}")
        if parse_chorale(serialize_chorale(chorale)) != chorale:
            report(2, "serialize/parse round trip", False, chorale.id)

    corpus_351 = Corpus(tuple(Chorale(id=f"c{i}", voices=((60,), (55,), (48,), (41,))) for i in range(351)))
    s = split(corpus_351, 0.8, 17)
    sizes_ok = (len(s.train), len(s.validation)) == (280, 71)
    disjoint = set(s.train.ids()).isdisjoint(s.validation.ids())
    complete = set(s.train.ids()) | set(s.validation.ids()) == set(corpus_351.ids())
    if not (sizes_ok and disjoint and complete):
        report(2, "split disjointness and floor sizing", False, f"{len(s.train)}/{len(s.validation)}")

    model = MarkovModel.with_vocab_from(teacher_corpus(17, 20), order=2, alpha=0.1)
    model.fit(teacher_corpus(17, 20).chorales, range(20))
    for i in range(1000):
        sample = model.sample(int(rng.integers(1, 33)), rng, chorale_id=f"s{i}")
        if validate(sample):
            report(2, "sampling grammar validity", False, f"draw {i}: {validate(sample)}")

    for _ in range(500):
        v = int(rng.integers(0, 4))
        vocab = model.vocabs[v] + (START,)
        context = tuple(vocab[int(j)] for j in rng.integers(0, len(vocab), size=2 + v))
        if abs(model.next_token_dist(v, context).sum() - 1.0) > NORM_TOL:
            report(2, "probability normalization", False, f"voice {v} context {context}")

    elapsed = time.perf_counter() - start
    report(
        2,
        "round trips, split sizing, grammar validity, normalization",
        elapsed < 10.0,
        f"200 round trips, 351->280/71, 1000 draws, 500 contexts at tol {NORM_TOL:g} in {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_3_loop_soundness_desk_scale(desk_compare_17):
    config, out, summaries, results, elapsed = desk_compare_17
    problems = []

    corpus = teacher_corpus(config.seed, config.teacher_n)
    split_manifest = json.loads((out / "split.json").read_text(encoding="utf-8"))
    train_ids = list(split_manifest["train_ids"])
    validation_ids = set(split_manifest["validation_ids"])

    for regime in ALL_REGIMES:
        run_dir = out / regime
        reference = ReferenceModel.load(run_dir / "reference.json")
        run_config = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
        raw_threshold = run_config["loop"]["threshold"]["value"]
        threshold = float(raw_threshold) if not isinstance(raw_threshold, str) else math.inf * (
            1 if raw_threshold == "inf" else -1
        )

        generated = list(load_corpus(run_dir / "generated.jsonl"))
        for chorale, total in zip(generated, grade(generated, reference).totals.tolist()):
            if total > threshold:
                problems.append(f"{regime}: {chorale.id} re-grades above threshold")

        keys = [canonical_key(e.chorale) for e in results[regime].manifest]
        if len(keys) != len(set(keys)):
            problems.append(f"{regime}: manifest keys not pairwise distinct")

        with open(run_dir / "metrics.csv", encoding="utf-8", newline="") as fh:
            sizes = [int(row["dataset_size"]) for row in csv.DictReader(fh)]
        if sizes != sorted(sizes):
            problems.append(f"{regime}: dataset size decreased")

        for entry in results[regime].epoch_logs:
            if not validation_ids.isdisjoint(entry.draw_counts):
                problems.append(f"{regime}: validation id in epoch {entry.epoch} multiset")

        if results[regime].reference_digest_before != results[regime].reference_digest_after:
            problems.append(f"{regime}: reference changed during run")

    none_manifest = [
        json.loads(line)
        for line in (out / "baseline_none" / "dataset_manifest.jsonl").read_text(encoding="utf-8").splitlines()
        if line
    ]
    if [m["id"] for m in none_manifest] != train_ids or any(m["origin"] != ORIGIN_TRUE for m in none_manifest):
        problems.append("baseline_none final dataset differs from the initial one")

    ok = not problems and elapsed < 120.0
    report(
        3,
        "desk-scale loop soundness and compare runtime",
        ok,
        "; ".join(problems) if problems else f"three regimes in {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_4_compare_determinism(desk_compare_17, tmp_path_factory):
    config, out_a, _, _, _ = desk_compare_17
    out_b = tmp_path_factory.mktemp("accept-compare-17-again")
    compare_detailed(config, out_b)
    mismatched = []
    targets = ["figure1.csv", "figure2.csv"]
    targets += [f"{regime}/{name}" for regime in ALL_REGIMES for name in ("metrics.csv", "epoch_logs.csv")]
    for rel in targets:
        if (out_a / rel).read_bytes() != (out_b / rel).read_bytes():
            mismatched.append(rel)

    prefix = f"{config.seed}/"
    blessed = {
        key[len(prefix):]: digest
        for key, digest in json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))["digests"].items()
        if key.startswith(prefix)
    }
    produced = {
        path.relative_to(out_a).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_a.rglob("*"))
        if path.is_file()
    }
    off_golden = sorted(rel for rel in blessed.keys() | produced.keys() if blessed.get(rel) != produced.get(rel))
    mismatched += [f"{rel} differs from the blessed digest" for rel in off_golden]
    report(
        4,
        "byte-identical outputs across repeated compare runs and against the blessed digests",
        bool(blessed) and not mismatched,
        "; ".join(mismatched) if mismatched else f"{len(targets)} files identical, {len(blessed)} blessed digests match",
    )


def test_criterion_5_directional_replication(desk_compare_17, tmp_path_factory):
    _, _, summaries_17, _, _ = desk_compare_17
    per_seed = {17: summaries_17}
    for seed in (18, 19):
        out = tmp_path_factory.mktemp(f"accept-compare-{seed}")
        per_seed[seed], _ = compare_detailed(ExperimentConfig(seed=seed), out)

    median_wins = 0
    iqr_wins = 0
    lines = []
    for seed, summaries in sorted(per_seed.items()):
        by_name = {s.regime: s for s in summaries}
        auggen, all_ = by_name["auggen"], by_name["baseline_all"]
        med_a = nearest_rank(auggen.final_grades, 0.5)
        med_b = nearest_rank(all_.final_grades, 0.5)
        iqr_a = nearest_rank(auggen.final_grades, 0.75) - nearest_rank(auggen.final_grades, 0.25)
        iqr_b = nearest_rank(all_.final_grades, 0.75) - nearest_rank(all_.final_grades, 0.25)
        median_wins += med_a <= med_b
        iqr_wins += iqr_a <= iqr_b
        epochs_to_best = {name: by_name[name].best_epoch for name in ALL_REGIMES}
        lines.append(
            f"seed {seed}: median auggen {med_a:.3f} vs baseline_all {med_b:.3f}, "
            f"IQR {iqr_a:.3f} vs {iqr_b:.3f}, epochs-to-best {epochs_to_best}"
        )
    for line in lines:
        print(line, flush=True)
    report(
        5,
        "auggen final grades tighter/better than baseline_all in >= 2 of 3 seeds",
        median_wins >= 2 and iqr_wins >= 2,
        f"median wins {median_wins}/3, IQR wins {iqr_wins}/3",
    )


def test_criterion_6_figure1_matches_recomputation(desk_compare_17):
    _, out, _, _, _ = desk_compare_17
    with open(out / "figure1.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    mismatches = []
    for regime in ALL_REGIMES:
        recomputed = recompute_epoch_stats(out / regime / "epoch_logs.csv")
        regime_rows = [row for row in rows if row["regime"] == regime]
        if len(regime_rows) != len(recomputed):
            mismatches.append(f"{regime}: row count {len(regime_rows)} vs {len(recomputed)}")
            continue
        for row in regime_rows:
            written = tuple(float(row[k]) for k in ("min", "q1", "median", "q3", "max"))
            if written != recomputed[("", int(row["epoch"]))]:
                mismatches.append(f"{regime} epoch {row['epoch']}")
    report(
        6,
        "per-epoch grade quintuples exactly match independent recomputation",
        not mismatches,
        "; ".join(mismatches) if mismatches else f"{len(rows)} rows exact",
    )
