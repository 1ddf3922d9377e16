"""Command-line harness.

Subcommands: ``teacher-gen`` (write a synthetic corpus), ``grade`` (grade a
corpus against a saved reference), ``train`` (single-regime run),
``compare`` (all regimes plus figure CSVs), ``report`` (per-epoch grade
quintuples of a finished run directory, or one row per regime of a compare
directory). Configuration comes from a profile (``--profile desk|paper``),
optionally overlaid by a JSON config file (``--config``) and individual
flags. Exit code 0 on success, 1 on any failure, with a diagnostic on
stderr; a bad config fails before any file is written. Usage errors from
argparse exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import os
import re
import sys
import types
from pathlib import Path
from typing import Iterable

import numpy as np

from . import experiment
from .corpus import check_fields, check_teacher_request, json_fits, load_corpus, load_json, naming, read_text
from .corpus import save_corpus, teacher_corpus
from .experiment import PROFILES, ExperimentConfig, RegimeError, compare, grade_quintuple, resolve_out_dir, run_regime
from .grading import PASS_SIZE, GradeBatch, ReferenceModel, grade, nearest_rank
from .loop import ORIGIN_GENERATED, ORIGIN_TRUE
from .rng import check_seed


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    payload = PROFILES[args.profile].to_json()
    if args.seed is not None:
        check_seed("--seed", args.seed)  # before the config is read, whose name would prefix the message
    with naming(args.config):
        overlay = load_json(args.config) if args.config else {}
        if not json_fits(overlay, dict):
            raise ValueError(f"config must be a JSON object, got {type(overlay).__name__}")
        payload.update(overlay)
        corpus_path = getattr(args, "corpus", None)
        if corpus_path:  # set after the JSON check: a file name on the command line may hold bytes that are not UTF-8
            payload.pop("corpus_path", None)
        if args.seed is not None:
            payload["seed"] = args.seed
        config = ExperimentConfig.from_json(payload)
        return dataclasses.replace(config, corpus_path=corpus_path) if corpus_path else config


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    parser.add_argument("--config", help="JSON config file overlaying the profile")
    parser.add_argument("--corpus", help="corpus file (JSON lines); omit to synthesize a teacher corpus")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None, help=f"output directory (or ${experiment.OUT_DIR_ENV})")


def cmd_teacher_gen(args: argparse.Namespace) -> int:
    lengths = (args.min_length, args.max_length)
    check_teacher_request(args.n, lengths, ("--n", "--min-length", "--max-length"))  # named as the user typed them
    check_seed("--seed", args.seed)
    corpus = teacher_corpus(args.seed, args.n, lengths)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} chorales to {args.out}")
    return 0


@contextlib.contextmanager
def _replacing(*paths: str | None):
    """Text files for ``paths`` (None for an empty path). Each is written to a temporary file in its own
    directory and moved over its path only when the block ends without error; on any failure every
    temporary is deleted, so each path keeps its previous bytes. An error creating a temporary names the path
    the user gave, not the temporary."""
    temps = []
    try:
        with contextlib.ExitStack() as files:
            handles = []
            for path in paths:
                handle = None
                if path:
                    temp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
                    try:
                        handle = files.enter_context(open(temp, "x", encoding="utf-8", newline=""))
                    except OSError as exc:
                        raise OSError(exc.errno, exc.strerror, path) from None
                    temps.append((temp, path))
                handles.append(handle)
            yield handles
        for temp, path in temps:
            os.replace(temp, path)
    finally:
        for temp, _ in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _same_file(a: str, b: str) -> bool:
    if Path(a).resolve() == Path(b).resolve():
        return True
    try:
        return os.path.samefile(a, b)  # hard links, and paths that resolve() cannot tell apart
    except OSError:  # one of them does not exist yet
        return False


def _check_outputs(inputs: dict[str, str], outputs: dict[str, str | None]) -> None:
    """Raise ``ValueError`` when an output path names a directory, an input or an earlier output; nothing is
    opened."""
    seen = list(inputs.items())
    for flag, path in outputs.items():
        if path is None:
            continue
        if path and Path(path).is_dir():  # a file could not be moved over it, after the whole corpus was graded
            raise ValueError(f"{flag} {path} is a directory")
        for other_flag, other in seen:
            if _same_file(path, other):
                raise ValueError(f"{flag} {path} is the same file as {other_flag} {other}")
        seen.append((flag, path))


def csv_fields(rows: Iterable[list[str]]) -> list[str]:
    """What ``csv.writer`` writes for each of ``rows``, less the ``\\n`` that ends it. The rows are written as lines
    that end in ``\\n``, as the output files' lines do, so a field that holds a ``\\n`` is quoted."""
    lines: list[str] = []
    csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\n").writerows(rows)
    return [line[:-1] for line in lines]


# The most float texts `cmd_grade` keeps from pass to pass, about 2 MiB. A corpus's feature values and weights repeat
# and number a few thousand (4,666 in 20,000 distinct teacher chorales), but the grades of distinct chorales seldom
# repeat, so past this many the table starts afresh.
FLOAT_TEXTS = 1 << 14


def float_texts(floats: np.ndarray, table: dict[int, str]) -> tuple[list[str], np.ndarray]:
    """The ``repr`` of each distinct float64 bit pattern of ``floats``, and the index of each float's text there.

    ``table`` maps a bit pattern to its ``repr``. A pattern it lacks is formatted and added, so one table kept
    for a whole run formats each distinct float once in that run.
    """
    bits, index = np.unique(floats.view(np.int64), return_inverse=True)
    keys = bits.tolist()
    for key, x in zip(keys, bits.view(np.float64).tolist()):
        if key not in table:
            table[key] = repr(x)
    return [table[key] for key in keys], index


def grade_rows(batch: GradeBatch, ids: list[str], table: dict[int, str]) -> str:
    """The ``grades.csv`` rows of one grading pass: ``chorale_id,d_<feature>...,total_grade``, one per chorale.

    ``ids`` holds each chorale id as ``csv`` quotes it, then a comma, and each float is its ``repr``, taken from
    ``table`` (see :func:`float_texts`).
    """
    texts, index = float_texts(np.column_stack([batch.distances, batch.totals]).ravel(), table)
    rows = index.reshape(len(ids), -1).tolist()
    return "".join([f"{chorale_id}{','.join(map(texts.__getitem__, row))}\n" for chorale_id, row in zip(ids, rows)])


def feature_rows(batch: GradeBatch, ids: list[str], names: list[str], table: dict[int, str]) -> str:
    """The ``features.csv`` rows of one grading pass: ``chorale_id,feature_name,value,weight``, one per point.

    ``ids`` and ``names`` hold each chorale id and each feature name as ``csv`` quotes it, then a comma, and each
    float is its ``repr``, taken from ``table`` (see :func:`float_texts`).
    """
    prefixes = [chorale_id + name for chorale_id in ids for name in names]  # one per segment
    texts, index = float_texts(np.concatenate([batch.point_value, batch.point_weight]), table)
    values, weights = np.split(index, 2)
    points = zip(batch.point_segment.tolist(), values.tolist(), weights.tolist())
    return "".join([f"{prefixes[segment]}{texts[value]},{texts[weight]}\n" for segment, value, weight in points])


def cmd_grade(args: argparse.Namespace) -> int:
    outputs = {"--out": args.out, "--dump-features": args.dump_features}
    _check_outputs({"--corpus": args.corpus, "--reference": args.reference}, outputs)
    corpus = load_corpus(args.corpus)
    reference = ReferenceModel.load(args.reference)
    table: dict[int, str] = {}  # float64 bit pattern -> repr, for this run only; see FLOAT_TEXTS
    names = csv_fields([name, ""] for name in reference.feature_names)
    with _replacing(args.out, args.dump_features) as (out, dump):
        csv.writer(out, lineterminator="\n").writerow(
            ["chorale_id", *[f"d_{name}" for name in reference.feature_names], "total_grade"]
        )
        if dump is not None:
            dump.write("chorale_id,feature_name,value,weight\n")
        for start in range(0, len(corpus), PASS_SIZE):  # one pass at a time, so memory stays bounded
            if len(table) > FLOAT_TEXTS:
                table.clear()
            batch = grade(corpus.chorales[start : start + PASS_SIZE], reference)
            ids = csv_fields([chorale_id, ""] for chorale_id in batch.ids)  # quoted once, for both files
            out.write(grade_rows(batch, ids, table))
            if dump is not None:
                dump.write(feature_rows(batch, ids, names, table))
    print(f"graded {len(corpus)} chorales -> {args.out}")
    if dump is not None:
        print(f"dumped feature distributions -> {args.dump_features}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _build_config(args)
    out = resolve_out_dir(args.out_dir, f"runs/{args.regime}")
    prepared = experiment.prepare(config)
    _, summary = run_regime(config, args.regime, prepared, prepared.model, out_dir=out)
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
    with naming(manifest):
        # lines end at \n, \r\n and \r only, as load_corpus reads them: str.splitlines() would also end one at a
        # U+2028, U+2029 or U+0085, which JSON allows raw in a string
        for number, line in enumerate(re.split("\r\n|\r|\n", read_text(manifest)), 1):
            if line:
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ValueError(f"line {number}: {exc}") from None
                except RecursionError:
                    raise ValueError(f"line {number}: JSON nested too deeply to decode") from None
                check_fields(record, {"origin": object}, f"line {number}")
                if record["origin"] not in (ORIGIN_TRUE, ORIGIN_GENERATED):
                    expected = f"{ORIGIN_TRUE!r} or {ORIGIN_GENERATED!r}"
                    raise ValueError(f"line {number}: origin must be {expected}, got {record['origin']!r}")
                origins.append(record["origin"])
        if not origins:
            raise ValueError("no chorales listed")
    return origins


# the compare report copies these from each regime summary, then adds final_median and final_iqr from its final_grades
_SUMMARY_KEYS = {
    "regime": str, "best_epoch": int, "best_val_loss": float, "epochs_ran": int, "generated_count": int,
    "generated_fraction": float,
}


def _regime_rows(summary_json: Path) -> list[list[str]]:
    """One report row per regime summary of a compare directory's ``summary.json``, in file order. Each summary
    holds a value of each type of ``_SUMMARY_KEYS``, as :func:`~auggen.corpus.json_fits` checks it, and a nonempty
    ``final_grades`` of ``tuple[float, ...]``; other keys are ignored."""
    rows = []
    with naming(summary_json):
        summaries = load_json(summary_json)
        if not json_fits(summaries, list):
            raise ValueError(f"expected a list of regime summaries, got {type(summaries).__name__}")
        for i, summary in enumerate(summaries):
            check_fields(summary, {**_SUMMARY_KEYS, "final_grades": tuple[float, ...]}, f"entry {i}")
            grades = summary["final_grades"]
            if not grades:
                raise ValueError(f"entry {i}: final_grades must not be empty")
            iqr = nearest_rank(grades, 0.75) - nearest_rank(grades, 0.25)
            cells = [summary[key] for key in _SUMMARY_KEYS if key != "regime"] + [nearest_rank(grades, 0.5), iqr]
            rows.append([summary["regime"], *map(repr, cells)])
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    logs, summary_json = run_dir / "epoch_logs.csv", run_dir / "summary.json"
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if not logs.exists():  # a compare directory: one row per regime
        if not summary_json.exists():
            raise FileNotFoundError(f"no epoch_logs.csv or summary.json under {run_dir}")
        rows = _regime_rows(summary_json)
        writer.writerow([*_SUMMARY_KEYS, "final_median", "final_iqr"])
        writer.writerows(rows)
        return 0
    grades = experiment.epoch_grades(logs)
    manifest = run_dir / "dataset_manifest.jsonl"
    origins = _manifest_origins(manifest) if manifest.exists() else None  # both files checked before any output
    writer.writerow(["epoch", "min", "q1", "median", "q3", "max"])
    for epoch, values in sorted(grades.items()):
        writer.writerow([epoch, *map(repr, grade_quintuple(values))])
    if origins is not None:
        generated = sum(1 for o in origins if o == ORIGIN_GENERATED)
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

    p = sub.add_parser("report", help="summarise a finished run or compare directory")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RegimeError) as exc:  # CorpusError and ChoraleFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. numpy refusing the arrays of a huge --max-length or teacher_max_length
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
