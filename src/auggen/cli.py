"""Command-line harness.

Subcommands: ``teacher-gen`` (write a synthetic corpus), ``grade`` (grade a
corpus against a saved reference), ``train`` (single-regime run),
``compare`` (all regimes plus figure CSVs), ``report`` (per-epoch grade
quintuples of a finished run directory, from its ``epoch_logs.csv``, and its
dataset counts, from its ``summary.json``; or one row per regime of a compare
directory, from its ``summary.json``). Configuration comes from a profile
(``--profile desk|paper``), optionally overlaid by a JSON config file
(``--config``) and individual flags. Exit code 0 on success, 1 on any
failure, with a diagnostic on stderr; a bad config or an empty path flag
fails before any file is read or written. Usage errors from argparse exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import experiment
from .corpus import check_fields, check_teacher_request, csv_fields, json_fits, load_corpus, load_json, naming
from .corpus import save_corpus, teacher_corpus
from .experiment import PROFILES, ExperimentConfig, RegimeError, compare_detailed, grade_quintuple, resolve_out_dir
from .experiment import run_regime
from .grading import PASS_SIZE, GradeBatch, ReferenceModel, grade, nearest_rank
from .rng import check_seed


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    payload = PROFILES[args.profile].to_json()
    if args.seed is not None:
        check_seed("--seed", args.seed)  # before the config is read, whose name would prefix the message
    with naming(args.config):
        overlay = load_json(args.config) if args.config is not None else {}
        if not json_fits(overlay, dict):
            raise ValueError(f"config must be a JSON object, got {type(overlay).__name__}")
        payload.update(overlay)
        if args.corpus is not None:
            # set after the JSON check, since a file name on the command line may hold bytes that are not UTF-8; till
            # then a stand-in that, as the file name does, skips the checks of the teacher settings
            payload["corpus_path"] = ""
        if args.seed is not None:
            payload["seed"] = args.seed
        config = ExperimentConfig.from_json(payload)
        return dataclasses.replace(config, corpus_path=args.corpus) if args.corpus is not None else config


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
    """Text files for ``paths``, None for each path that is None. Each is written to a temporary file in its own
    directory and moved over its path only when the block ends without error; on any failure every
    temporary is deleted, so each path keeps its previous bytes. An error creating a temporary names the path
    the user gave, not the temporary.

    The one writer besides :func:`~auggen.corpus.save_lines`: ``auggen grade`` writes its
    files pass by pass and must leave them as they were if it fails, which ``save_lines`` does not promise."""
    temps = []
    try:
        with contextlib.ExitStack() as files:
            handles = []
            for path in paths:
                handle = None
                if path is not None:
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
        if Path(path).is_dir():  # a file could not be moved over it, after the whole corpus was graded
            raise ValueError(f"{flag} {path} is a directory")
        for other_flag, other in seen:
            if _same_file(path, other):
                raise ValueError(f"{flag} {path} is the same file as {other_flag} {other}")
        seen.append((flag, path))


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
        header = ["chorale_id", *[f"d_{name}" for name in reference.feature_names], "total_grade"]
        out.write(csv_fields([header])[0] + "\n")
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
    summaries, _ = compare_detailed(config, out)
    for summary in summaries:
        print(
            f"{summary.regime}: best epoch {summary.best_epoch}, "
            f"val loss {summary.best_val_loss:.6f}, "
            f"generated fraction {summary.generated_fraction:.3f}"
        )
    print(f"reports -> {out}")
    return 0


# the compare report copies these from each regime summary, then adds final_median and final_iqr from its final_grades
_SUMMARY_KEYS = {
    "regime": str, "best_epoch": int, "best_val_loss": float, "epochs_ran": int, "generated_count": int,
    "generated_fraction": float,
}


def _check_summary(summary: object, what: str) -> None:
    """Raise ``ValueError``, naming ``what``, unless ``summary`` is a regime summary as the report reads it: a value
    of each type of ``_SUMMARY_KEYS``, as :func:`~auggen.corpus.json_fits` checks it, an int ``true_count``, a
    nonempty ``final_grades`` of ``tuple[float, ...]``, and dataset counts of at least 0 and not both 0; other keys
    are ignored."""
    check_fields(summary, {**_SUMMARY_KEYS, "true_count": int, "final_grades": tuple[float, ...]}, what)
    if not summary["final_grades"]:
        raise ValueError(f"{what}: final_grades must not be empty")
    true, generated = summary["true_count"], summary["generated_count"]
    if min(true, generated) < 0 or true + generated == 0:
        raise ValueError(f"{what}: true_count and generated_count must be >= 0, not both 0, got {true} and {generated}")


def _regime_rows(summary_json: Path) -> list[list[str]]:
    """One report row per regime summary of a compare directory's ``summary.json``, in file order, each as
    :func:`_check_summary` checks it."""
    rows = []
    with naming(summary_json):
        summaries = load_json(summary_json)
        if not json_fits(summaries, list):
            raise ValueError(f"expected a list of regime summaries, got {type(summaries).__name__}")
        for i, summary in enumerate(summaries):
            _check_summary(summary, f"entry {i}")
            grades = summary["final_grades"]
            iqr = nearest_rank(grades, 0.75) - nearest_rank(grades, 0.25)
            cells = [summary[key] for key in _SUMMARY_KEYS if key != "regime"] + [nearest_rank(grades, 0.5), iqr]
            rows.append([summary["regime"], *map(repr, cells)])
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    logs, summary_json = run_dir / "epoch_logs.csv", run_dir / "summary.json"
    if not logs.exists():  # a compare directory: one row per regime
        if not summary_json.exists():
            raise FileNotFoundError(f"no epoch_logs.csv or summary.json under {run_dir}")
        print("\n".join(csv_fields([[*_SUMMARY_KEYS, "final_median", "final_iqr"], *_regime_rows(summary_json)])))
        return 0
    grades = experiment.epoch_grades(logs)
    summary = None
    if summary_json.exists():  # both files are checked before any output
        with naming(summary_json):
            summary = load_json(summary_json)
            _check_summary(summary, "summary")
    rows = [[epoch, *map(repr, grade_quintuple(values))] for epoch, values in sorted(grades.items())]
    print("\n".join(csv_fields([["epoch", "min", "q1", "median", "q3", "max"], *rows])))
    if summary is not None:
        generated = summary["generated_count"]
        total = summary["true_count"] + generated
        print(f"# dataset: {total} chorales, {generated} generated ({generated / total:.3f} of total)")
    return 0


# the flags that name a file or directory; an empty value names none, and would otherwise mean the current directory,
# the default or no file at all
PATH_FLAGS = ("--corpus", "--reference", "--out", "--dump-features", "--config", "--out-dir", "--run-dir")


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
        for flag in PATH_FLAGS:
            if getattr(args, flag[2:].replace("-", "_"), None) == "":
                raise ValueError(f"{flag} must not be empty")
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
