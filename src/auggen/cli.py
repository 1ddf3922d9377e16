"""Command-line harness.

Subcommands: ``teacher-gen`` (write a synthetic corpus), ``grade`` (grade a
corpus against a saved reference), ``train`` (single-regime run),
``compare`` (all regimes plus figure CSVs), ``report`` (recompute summary
statistics from a finished run directory). Configuration comes from a
profile (``--profile desk|paper``), optionally overlaid by a JSON config
file (``--config``) and individual flags. Exit code 0 on success, 1 on any
failure, with a diagnostic on stderr; a bad config fails before any file is
written. Usage errors from argparse exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import sys
from pathlib import Path

from . import experiment
from .corpus import CorpusError, load_corpus, save_corpus, teacher_corpus
from .experiment import PROFILES, ExperimentConfig, RegimeError, compare, recompute_epoch_stats, resolve_out_dir, run_regime
from .chorale import ChoraleFormatError
from .grading import ReferenceModel, grade

log = logging.getLogger(__name__)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    payload = PROFILES[args.profile].to_json()
    if args.config:
        overlay = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(overlay, dict):
            raise ValueError(f"{args.config}: config must be a JSON object, got {type(overlay).__name__}")
        payload.update(overlay)
    if getattr(args, "corpus", None):
        payload["corpus_path"] = args.corpus
    if args.seed is not None:
        payload["seed"] = args.seed
    return ExperimentConfig.from_json(payload)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    parser.add_argument("--config", help="JSON config file overlaying the profile")
    parser.add_argument("--corpus", help="corpus file (JSON lines); omit to synthesize a teacher corpus")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None, help=f"output directory (or ${experiment.OUT_DIR_ENV})")


def cmd_teacher_gen(args: argparse.Namespace) -> int:
    corpus = teacher_corpus(args.seed, args.n, (args.min_length, args.max_length))
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} chorales to {args.out}")
    return 0


def _open_csv(files: contextlib.ExitStack, path: str):
    return csv.writer(files.enter_context(open(path, "w", encoding="utf-8", newline="")), lineterminator="\n")


def cmd_grade(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    reference = ReferenceModel.load(args.reference)
    with contextlib.ExitStack() as files:
        grades = _open_csv(files, args.out)
        grades.writerow(["chorale_id", *[f"d_{name}" for name in reference.feature_names], "total_grade"])
        dump = _open_csv(files, args.dump_features) if args.dump_features else None
        if dump is not None:
            dump.writerow(["chorale_id", "feature_name", "value", "weight"])
        for chorale in corpus:
            report = grade(chorale, reference)
            grades.writerow(
                [chorale.id, *[repr(report.distances[n]) for n in reference.feature_names], repr(report.total)]
            )
            if dump is not None:
                for name, dist in report.distributions.items():
                    for value, weight in zip(dist.support, dist.weights):
                        dump.writerow([chorale.id, name, repr(value), repr(weight)])
    print(f"graded {len(corpus)} chorales -> {args.out}")
    if dump is not None:
        print(f"dumped feature distributions -> {args.dump_features}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _build_config(args)
    out = resolve_out_dir(args.out_dir, f"runs/{args.regime}")
    _, data_split, reference, grade_by_id = experiment.prepare(config)
    train_grades = [grade_by_id[i] for i in data_split.train.ids()]
    threshold = experiment.regime_threshold(args.regime, train_grades, config.quantile, data_split.train.digest())
    _, summary = run_regime(config, args.regime, data_split, reference, threshold, out_dir=out)
    print(
        f"{args.regime}: best epoch {summary.best_epoch} "
        f"(val loss {summary.best_val_loss:.6f}), "
        f"{summary.generated_count} generated chorales accepted -> {out}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _build_config(args)
    out = resolve_out_dir(args.out_dir, "runs/compare")
    summaries = compare(config, out)
    for summary in summaries:
        print(
            f"{summary.regime}: best epoch {summary.best_epoch}, "
            f"val loss {summary.best_val_loss:.6f}, "
            f"generated fraction {summary.generated_fraction:.3f}"
        )
    print(f"reports -> {out}")
    return 0


def _manifest_origins(manifest: Path) -> list[str]:
    origins = []
    for number, line in enumerate(manifest.read_text(encoding="utf-8").splitlines(), 1):
        if line:
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{manifest}: line {number}: {exc}") from None
            if not isinstance(record, dict) or "origin" not in record:
                raise ValueError(f"{manifest}: line {number} has no 'origin'")
            origins.append(record["origin"])
    if not origins:
        raise ValueError(f"{manifest}: no chorales listed")
    return origins


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    logs = run_dir / "epoch_logs.csv"
    if not logs.exists():
        raise FileNotFoundError(f"no epoch_logs.csv under {run_dir}")
    stats = recompute_epoch_stats(logs)
    manifest = run_dir / "dataset_manifest.jsonl"
    origins = _manifest_origins(manifest) if manifest.exists() else None  # both files checked before any output
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["epoch", "min", "q1", "median", "q3", "max"])
    for (_, epoch), quint in sorted(stats.items()):
        writer.writerow([epoch, *[repr(x) for x in quint]])
    if origins is not None:
        generated = sum(1 for o in origins if o == "generated")
        print(f"# dataset: {len(origins)} chorales, {generated} generated "
              f"({generated / len(origins):.3f} of total)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="auggen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teacher-gen", help="write a synthetic teacher corpus")
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--n", type=int, default=80)
    p.add_argument("--min-length", type=int, default=32)
    p.add_argument("--max-length", type=int, default=48)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_teacher_gen)

    p = sub.add_parser("grade", help="grade a corpus against a saved reference")
    p.add_argument("--corpus", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-features", help="also dump per-chorale feature distributions to this CSV")
    p.set_defaults(func=cmd_grade)

    p = sub.add_parser("train", help="run a single regime")
    _add_config_flags(p)
    p.add_argument("--regime", choices=experiment.ALL_REGIMES, default=experiment.REGIME_AUGGEN)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="run all configured regimes and emit figure CSVs")
    _add_config_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="recompute summary statistics from a run directory")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, CorpusError, ChoraleFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
