import hashlib

import numpy as np
import pytest

from auggen import rng
from auggen.rng import stream


def label_word(label: str) -> int:
    """The first 64 bits of ``label``'s SHA-256, big-endian: a string label's seed word."""
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


@pytest.mark.parametrize(
    "path, words",
    [
        pytest.param((17,), [17], id="seed_only"),
        pytest.param((17, 3, 7), [17, 3, 7], id="ints"),
        pytest.param((0, 2**64 - 1), [0, 2**64 - 1], id="int_bounds"),
        pytest.param((17, "gen", 3, 7), [17, label_word("gen"), 3, 7], id="mixed"),
        pytest.param((5, "teacher", "walks"), [5, label_word("teacher"), label_word("walks")], id="two_labels"),
        pytest.param(("é", 1), [label_word("é"), 1], id="non_ascii_label"),
    ],
)
def test_stream_is_default_rng_of_its_words(path, words):
    for _ in range(2):  # the second time a label's word comes from the cache
        expected = np.random.default_rng(words)
        produced = stream(*path)
        assert produced.bit_generator.state == expected.bit_generator.state
        assert produced.random(16).tobytes() == expected.random(16).tobytes()


def test_each_distinct_label_is_hashed_once(monkeypatch):
    calls, real_sha256 = [], hashlib.sha256

    def counting_sha256(data):
        calls.append(data)
        return real_sha256(data)

    monkeypatch.setattr(rng.hashlib, "sha256", counting_sha256)
    rng._label_entropy.cache_clear()
    for j in range(5):
        stream(17, "gen", 0, j)
        stream(17, "eval", "auggen", j)
    assert sorted(calls) == [b"auggen", b"eval", b"gen"]


@pytest.mark.parametrize("part", [-1, 2**64, 2**64 + 17, -(2**64) + 17])
def test_stream_rejects_ints_outside_one_word(part):
    # the low 64 bits of 2**64 + 17 are 17's: the two seeds would draw the same numbers
    with pytest.raises(ValueError, match=f"^a stream path int must be in 0..{2**64 - 1}, got {part}$"):
        stream(part)
    with pytest.raises(ValueError, match=f"got {part}"):
        stream(17, "gen", part)


@pytest.mark.parametrize("part", [True, 1.0, None, b"gen", np.int64(3)])
def test_stream_rejects_parts_that_are_not_int_or_str(part):
    with pytest.raises(TypeError, match="stream path parts must be int or str"):
        stream(17, part)


def test_stream_rejects_an_empty_path():
    with pytest.raises(ValueError, match="stream path must not be empty"):
        stream()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_check_seed_names_the_seed(seed):
    with pytest.raises(ValueError, match=f"^--seed must be in 0..{2**64 - 1}, got {seed}$"):
        rng.check_seed("--seed", seed)
