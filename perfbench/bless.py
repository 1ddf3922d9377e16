#!/usr/bin/env python3
"""Rewrite the expected artifact digests in ``perfbench/expected/``.

    python3 perfbench/bless.py [workload ...]

Runs one operation of each named workload (default: all) at the default
seed and records the SHA-256 of every artifact the output check covers.
Bless only when a change alters the outputs on purpose, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import WORK, WORKLOAD_NAMES, bootstrap


def main(names: list[str]) -> int:
    bootstrap()
    from workloads import DEFAULT_SEED, EXPECTED_DIR, default_workloads

    workloads = default_workloads()
    for name in names or WORKLOAD_NAMES:
        workload = workloads[name]
        workload.expected = None
        work = WORK / f"bless-{name}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            state = workload.setup(DEFAULT_SEED, work / "setup")
            raw = workload.op(DEFAULT_SEED, work / "op", state)
            outcome = workload.check(DEFAULT_SEED, work / "op", raw)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if outcome.failed:
            print(f"{name}: not blessed, checks failed: {outcome.problems}", file=sys.stderr)
            return 1
        EXPECTED_DIR.mkdir(exist_ok=True)
        payload = {"seed": DEFAULT_SEED, "digests": outcome.digests}
        (EXPECTED_DIR / f"{name}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: blessed {len(outcome.digests)} artifacts at seed {DEFAULT_SEED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
