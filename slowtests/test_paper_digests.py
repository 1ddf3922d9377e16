"""Full paper-profile guard: every artifact of ``compare --profile paper --seed 17``
must match its blessed SHA-256.

This covers what no Tier-1 test reaches: 40 refits of 16,384 draws,
``baseline_all``'s dataset grown to ~2,280 chorales, ``baseline_none``'s
restore of an earlier snapshot and 351 evaluation samples per regime. It
takes about 4 s on a 2-vCPU host, so it lives outside ``testpaths``:

    python -m pytest -q slowtests

Re-bless on purpose, when a change alters the outputs, with

    python slowtests/test_paper_digests.py --bless

Blessing also records the Python and numpy versions, which the output bytes
rest on (float ``repr``; numpy's sums, ``SeedSequence`` and PCG64), and a
mismatch prints them beside the running versions, so that a version change
can be told from a code change.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from auggen import cli

BLESSED = Path(__file__).resolve().parent / "paper-seed17.json"
ARGV = ["compare", "--profile", "paper", "--seed", "17"]


def compare_digests(out_dir: Path) -> dict[str, str]:
    """Run the full paper compare into ``out_dir``; SHA-256 of every file it wrote."""
    if cli.main([*ARGV, "--out-dir", str(out_dir)]) != 0:
        raise RuntimeError(f"auggen {' '.join(ARGV)} failed")
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def versions() -> dict[str, str]:
    """The versions of Python and numpy running this process."""
    return {"numpy": np.__version__, "python": platform.python_version()}


def test_full_paper_compare_matches_blessed_digests(tmp_path):
    record = json.loads(BLESSED.read_text(encoding="utf-8"))
    blessed = record["digests"]
    produced = compare_digests(tmp_path / "compare")
    problems = [f"missing {rel}" for rel in sorted(blessed.keys() - produced.keys())]
    problems += [f"extra {rel}" for rel in sorted(produced.keys() - blessed.keys())]
    problems += [f"changed {rel}" for rel in sorted(blessed.keys() & produced.keys()) if blessed[rel] != produced[rel]]
    assert not problems, (
        f"{len(problems)} of {len(blessed)} blessed artifacts off: " + "; ".join(problems)
        + f" (blessed on {record.get('versions', 'unrecorded versions')}, running {versions()})"
    )


def bless() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = compare_digests(Path(tmp) / "compare")
    payload = {"argv": ARGV, "digests": digests, "versions": versions()}
    BLESSED.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"blessed {len(digests)} artifacts -> {BLESSED}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --bless")
    bless()
