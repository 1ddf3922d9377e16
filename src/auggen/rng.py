"""Named deterministic random streams.

Every stochastic operation in this package draws from a stream addressed by
a path of labels, e.g. ``stream(seed, "gen", epoch, candidate)``. Distinct
paths give statistically independent generators, so parallel consumers
(per-candidate generation, per-regime runs) never contend for shared state
and results do not depend on execution order. An int label is one 64-bit
word of the stream's seed, so ints outside ``0..2**64 - 1`` are rejected
rather than folded onto one another; a string label is the first 64 bits
of its SHA-256, computed once per distinct string.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def check_seed(name: str, seed: int) -> None:
    """Reject a seed, named ``name`` in the message, that is not one 64-bit word."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} must be in 0..{_MASK64}, got {seed}")


@functools.lru_cache(maxsize=1024)
def _label_entropy(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def _entropy(part: int | str) -> int:
    if isinstance(part, bool) or not isinstance(part, (int, str)):
        raise TypeError(f"stream path parts must be int or str, got {part!r}")
    if isinstance(part, str):
        return _label_entropy(part)
    check_seed("a stream path int", part)
    return part


def stream(*path: int | str) -> np.random.Generator:
    """Return a PCG64 generator keyed by ``path``."""
    if not path:
        raise ValueError("stream path must not be empty")
    return np.random.default_rng([_entropy(part) for part in path])
