"""Generative-model contract and the order-k Markov reference model.

The training loop depends only on :class:`GenerativeModel`; any sequence
model that can rebuild itself from how often the loop drew each dataset
chorale this epoch, sample a chorale, and score chorales can be plugged
in. The shipped implementation is :class:`MarkovModel`, an additive-smoothed
count model over the token grid whose context for voice ``v`` at timestep
``t`` is the ``order`` previous tokens of voice ``v`` followed by the
timestep-``t`` tokens of the voices above it (soprano first).

Its fitted state is integer arrays. Each context is interned once as a row
id (voice ``v``'s contexts are ``order + v`` tokens long, so one dict holds
all four voices), and each chorale object is encoded once into row and
token-index arrays (index −1 outside the voice vocabulary). ``fit`` is one
``np.add.at`` of the draw counts into an int32 ``(rows, Vmax)`` count table
with int64 row totals; a row interned after the fit reads as zero counts.
``mean_nll`` gathers from the table, sums each scored chorale's event scores
sequentially, then adds those sums in draw order, so it gives the bits of a
per-event log-probability loop over the drawn chorales. ``sample`` draws all
its uniforms at once and bisects each context's CDF, cached per (row,
HOLD-masked) in one packed buffer until the next ``fit`` or ``restore``.
The sampler makes no numpy call: a cache miss builds its CDF from the
row's counts in plain floats, normalizes it by ``_pairwise_sum`` (numpy's
pairwise summation order) and accumulates it in order, so each CDF has the
bits of ``np.cumsum(probs / probs.sum())`` over ``next_token_dist``.
"""

from __future__ import annotations

import abc
import json
import math
from array import array
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .chorale import HOLD, REST, Chorale, Token
from .rng import stream

START = "^"  # context padding before timestep 0; never emitted

Context = tuple[Token, ...]

_SNAPSHOT_FORMAT = "auggen-markov-v1"
_MAX_COUNT = int(np.iinfo(np.int32).max)


class GenerativeModel(abc.ABC):
    """Behavior contract the training loop relies on."""

    @abc.abstractmethod
    def fit(self, chorales: Sequence[Chorale], counts: Sequence[int]) -> None:
        """Rebuild the model from an epoch's draws: ``chorales[i]`` counts ``counts[i]`` times."""

    @abc.abstractmethod
    def sample(self, length: int, rng: np.random.Generator, chorale_id: str = "sample") -> Chorale:
        """Draw one chorale of ``length`` timesteps; output always validates."""

    @abc.abstractmethod
    def mean_nll(self, chorales: Sequence[Chorale], draws: Sequence[int] | None = None) -> float:
        """Mean negative log-likelihood per (voice, timestep) position of ``chorales``, or of
        ``chorales[i] for i in draws`` when ``draws`` is given."""

    @abc.abstractmethod
    def snapshot(self) -> object:
        """Opaque immutable state for :meth:`restore`."""

    @abc.abstractmethod
    def restore(self, state: object) -> None:
        """Reset the model to a previously captured snapshot."""

    @abc.abstractmethod
    def save(self, path) -> None:
        """Serialize the model to a single versioned file."""


def sample_batch(
    model: GenerativeModel, length_pool: Sequence[int], seed: int, key: tuple, ids: Sequence[str]
) -> list[Chorale]:
    """One chorale per id: chorale ``j`` draws its length from ``length_pool``, then its tokens,
    from ``stream(seed, *key, j)``, and is named ``ids[j]``."""
    chorales = []
    for j, chorale_id in enumerate(ids):
        rng = stream(seed, *key, j)
        length = length_pool[int(rng.integers(0, len(length_pool)))]
        chorales.append(model.sample(length, rng, chorale_id=chorale_id))
    return chorales


def _token_sort_key(tok: Token) -> tuple[int, int | str]:
    if isinstance(tok, int):
        return (0, tok)
    return (1, tok)


_PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE


def _pairwise_sum(xs: Sequence[float], lo: int = 0, n: int | None = None) -> float:
    """``float(np.sum(np.array(xs[lo:lo + n])))`` bit for bit: numpy's pairwise float64 summation, in Python.

    Under 8 terms, a sequential sum from 0.0; up to a block, eight strided
    accumulators combined as a tree, then the remainder in order; above a
    block, the two halves split at a multiple of 8.
    """
    if n is None:
        n = len(xs) - lo
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += xs[i]
        return total
    if n <= _PAIRWISE_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += xs[i]
            r1 += xs[i + 1]
            r2 += xs[i + 2]
            r3 += xs[i + 3]
            r4 += xs[i + 4]
            r5 += xs[i + 5]
            r6 += xs[i + 6]
            r7 += xs[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            total += xs[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs, lo, half) + _pairwise_sum(xs, lo + half, n - half)


class MarkovModel(GenerativeModel):
    """Order-k count model with additive smoothing over the chorale grid.

    The per-voice vocabulary is fixed at construction; counts can be
    rebuilt at will with :meth:`fit` (the training loop rebuilds them every
    epoch from the epoch's draw counts). A freshly constructed model
    has zero counts everywhere, i.e. it is the uniform model over each
    voice's vocabulary.
    """

    def __init__(self, order: int, alpha: float, vocabs: Sequence[Sequence[Token]]):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if not 0 < alpha < math.inf:
            raise ValueError(f"smoothing alpha must be finite and > 0, got {alpha}")
        if len(vocabs) != 4:
            raise ValueError(f"expected 4 per-voice vocabularies, got {len(vocabs)}")
        cleaned = []
        for v, vocab in enumerate(vocabs):
            tokens = sorted({tok for tok in vocab if tok != START}, key=_token_sort_key)
            if not tokens:
                raise ValueError(f"voice {v} vocabulary is empty")
            if tokens == [HOLD]:
                raise ValueError(f"voice {v} vocabulary is only {HOLD!r}, which cannot start a voice")
            cleaned.append(tuple(tokens))
        self.order = order
        self.alpha = float(alpha)
        self.vocabs: tuple[tuple[Token, ...], ...] = tuple(cleaned)
        self._index = [{tok: i for i, tok in enumerate(vocab)} for vocab in self.vocabs]
        self._width = max(len(vocab) for vocab in self.vocabs)  # Vmax, the count table's column count
        # context -> row id, in order of first sight; voice v's contexts are order + v tokens long, so no two
        # voices share a key, and len(self._rows) is the row count
        self._rows: dict[Context, int] = {}
        self._encoded: dict[int, tuple[Chorale, np.ndarray, np.ndarray]] = {}  # id -> (chorale, rows, token indices)
        self._table = np.zeros((0, self._width), dtype=np.int32)
        self._row_totals = np.zeros(0, dtype=np.int64)
        self._reset_cdfs()

    @classmethod
    def with_vocab_from(cls, chorales: Iterable[Chorale], order: int, alpha: float) -> "MarkovModel":
        """Build an untrained model whose vocabularies cover ``chorales``."""
        seen: list[set[Token]] = [set() for _ in range(4)]
        count = 0
        for chorale in chorales:
            count += 1
            for v, voice in enumerate(chorale.voices):
                seen[v].update(voice)
        if count == 0:
            raise ValueError("need at least one chorale to build a vocabulary")
        return cls(order=order, alpha=alpha, vocabs=seen)

    def _encode(self, chorale: Chorale) -> tuple[np.ndarray, np.ndarray]:
        """Row ids and token indices of ``chorale``'s events in event order, cached by object identity."""
        cached = self._encoded.get(id(chorale))
        if cached is None:
            order, interned, index = self.order, self._rows, self._index
            padded = [(START,) * order + voice for voice in chorale.voices]
            rows, toks = [], []
            for t, step in enumerate(zip(*chorale.voices)):
                for v in range(4):
                    rows.append(interned.setdefault(padded[v][t : t + order] + step[:v], len(interned)))
                    toks.append(index[v].get(step[v], -1))
            # the cache holds the chorale itself, so its id cannot be reused while the entry lives
            cached = self._encoded[id(chorale)] = (chorale, np.array(rows, np.int32), np.array(toks, np.int32))
        return cached[1], cached[2]

    def _encode_all(self, chorales: Sequence[Chorale]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated row ids and token indices of ``chorales``' events, and each chorale's event count."""
        encoded = [self._encode(chorale) for chorale in chorales]
        rows = np.concatenate([r for r, _ in encoded])
        toks = np.concatenate([k for _, k in encoded])
        return rows, toks, np.array([r.size for r, _ in encoded])

    def fit(self, chorales: Sequence[Chorale], counts: Sequence[int]) -> None:
        """Replace counts with exact event counts over the draws: ``chorales[i]`` counts ``counts[i]`` times.

        Only chorales with a nonzero count are read. The vocabulary stays
        fixed: a drawn chorale using tokens outside it is rejected.
        """
        counts = np.asarray(counts)
        if counts.shape != (len(chorales),):
            raise ValueError(f"expected {len(chorales)} draw counts, one per chorale, got shape {counts.shape}")
        if counts.size and (counts.dtype.kind not in "iu" or counts.min() < 0):
            raise ValueError("draw counts must be non-negative integers")
        drawn = np.flatnonzero(counts)
        if not drawn.size:
            raise ValueError("cannot fit on an empty multiset")
        distinct = [chorales[i] for i in drawn.tolist()]
        rows, toks, sizes = self._encode_all(distinct)
        unknown = np.flatnonzero(toks < 0)
        if unknown.size:
            ends = np.cumsum(sizes)
            i = int(np.searchsorted(ends, unknown[0], side="right"))
            t, v = divmod(int(unknown[0] - ends[i] + sizes[i]), 4)
            chorale = distinct[i]
            raise ValueError(f"chorale {chorale.id!r}: token {chorale.voices[v][t]!r} not in voice {v} vocabulary")
        weights = counts[drawn].astype(np.int64)
        events = int(np.dot(weights, sizes))
        if events > _MAX_COUNT:  # no cell can exceed the event total, so int32 cells cannot wrap below it
            raise ValueError(f"{events} events exceed the count table's limit of {_MAX_COUNT}")
        table = np.zeros((len(self._rows), self._width), dtype=np.int32)
        cells = rows.astype(np.int64) * self._width + toks
        np.add.at(table.reshape(-1), cells, np.repeat(weights.astype(np.int32), sizes))  # unbuffered: repeats add up
        self._table = table
        self._row_totals = self._table.sum(axis=1, dtype=np.int64)
        self._reset_cdfs()

    def _nonzero_cells(self) -> Iterator[tuple[int, Context, Token, int]]:
        """(voice, context, token, count) for every nonzero count, in row order."""
        contexts = list(self._rows)  # row ids are handed out in insertion order
        rows, cols = np.nonzero(self._table)
        for row, col, count in zip(rows.tolist(), cols.tolist(), self._table[rows, cols].tolist()):
            context = contexts[row]
            v = len(context) - self.order
            yield v, context, self.vocabs[v][col], count

    def _smoothed(self, voice: int, row: int | None) -> list[float]:
        """``(count + alpha) / (total + alpha * size)`` for each token of the voice vocabulary, in plain
        floats; a row the counts do not cover, or none, reads as zero counts."""
        size = len(self.vocabs[voice])
        if row is None or row >= len(self._row_totals):
            counts, total = [0] * size, 0
        else:
            counts, total = self._table[row, :size].tolist(), int(self._row_totals[row])
        alpha = self.alpha
        denominator = total + alpha * size
        return [(count + alpha) / denominator for count in counts]

    def next_token_dist(self, voice: int, context: Context) -> np.ndarray:
        """P(token | context) over the voice vocabulary; sums to 1. A context that is not ``order + voice``
        tokens long is not one of the voice's, so it reads as zero counts."""
        row = self._rows.get(context) if len(context) == self.order + voice else None
        return np.array(self._smoothed(voice, row))

    def _reset_cdfs(self) -> None:
        """Forget every cached CDF; called whenever the counts change."""
        self._cdfs = array("d")  # packed CDFs, each as long as its voice's vocabulary
        self._cdf_starts = array("q", [-1]) * (2 * len(self._rows))  # offset in _cdfs per 2*row + masked
        self._uniform_starts = array("q", [-1]) * 8  # per 2*voice + masked, for contexts never interned

    def _cdf_start(self, voice: int, row: int | None, masked: bool) -> int:
        """Offset in ``_cdfs`` of the sampling CDF of ``row`` (None for a context never interned), with HOLD
        masked out if ``masked``; built on a miss with numpy's float64 sum and cumsum, in Python."""
        if row is None:  # every unseen context of a voice has the same (uniform) distribution
            starts, slot = self._uniform_starts, 2 * voice + masked
        else:
            starts, slot = self._cdf_starts, 2 * row + masked
            if slot >= len(starts):  # rows interned since the last reset
                starts.extend(array("q", [-1]) * (2 * len(self._rows) - len(starts)))
        start = starts[slot]
        if start < 0:
            probs = self._smoothed(voice, row)
            hold = self._index[voice].get(HOLD)
            if masked and hold is not None:
                probs[hold] = 0.0
            norm = _pairwise_sum(probs)
            start = starts[slot] = len(self._cdfs)
            self._cdfs.fromlist(list(accumulate([p / norm for p in probs])))  # sequential, as np.cumsum
        return start

    def sample(self, length: int, rng: np.random.Generator, chorale_id: str = "sample") -> Chorale:
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        order, vocabs = self.order, self.vocabs
        history: list[list[Token]] = [[START] * order for _ in range(4)]
        uniforms = iter(rng.random(4 * length).tolist())  # the same values as 4 * length single draws
        sizes = [len(vocab) for vocab in vocabs]
        rows, starts, uniform_starts, cdfs = self._rows, self._cdf_starts, self._uniform_starts, self._cdfs
        for t in range(length):
            step: Context = ()
            for v in range(4):
                voice = history[v]
                context = tuple(voice[-order:]) + step
                masked = t == 0 or voice[-1] == REST
                row = rows.get(context)  # None for a context never interned
                if row is None:
                    start = uniform_starts[2 * v + masked]
                else:
                    slot = 2 * row + masked
                    start = starts[slot] if slot < len(starts) else -1  # rows interned since the last reset
                if start < 0:
                    start = self._cdf_start(v, row, masked)
                size = sizes[v]
                idx = bisect_right(cdfs, next(uniforms), start, start + size) - start
                tok = vocabs[v][idx if idx < size else size - 1]
                voice.append(tok)
                step = step + (tok,)
        return Chorale(id=chorale_id, voices=tuple(tuple(h[order:]) for h in history))

    def mean_nll(self, chorales: Sequence[Chorale], draws: Sequence[int] | None = None) -> float:
        """Mean −ln P(token | context) over all grid positions of ``chorales``, or of
        ``chorales[i] for i in draws``.

        Tokens outside the vocabulary score as zero-count events, so the
        mean stays finite. Each drawn chorale is scored once, and the
        per-chorale sums are added in draw order.
        """
        if not len(chorales) or (draws is not None and not len(draws)):
            raise ValueError("cannot score an empty corpus")
        drawn, order = np.unique(np.arange(len(chorales)) if draws is None else draws, return_inverse=True)
        rows, toks, sizes = self._encode_all([chorales[i] for i in drawn.tolist()])
        fitted = rows < len(self._row_totals)
        known = fitted & (toks >= 0)
        counts = np.zeros(rows.size, dtype=np.int64)
        counts[known] = self._table[rows[known], toks[known]]
        totals = np.zeros(rows.size, dtype=np.int64)
        totals[fitted] = self._row_totals[rows[fitted]]
        smoothing = self.alpha * np.array([len(vocab) for vocab in self.vocabs])
        scores = -np.log((counts + self.alpha) / (totals + np.tile(smoothing, rows.size // 4)))
        # a leading 0.0 and a sequential cumsum per row reproduce `acc = 0.0; acc -= logprob` bit for bit
        padded = np.zeros((len(sizes), int(sizes.max()) + 1))
        padded[:, 1:][np.arange(padded.shape[1] - 1) < sizes[:, None]] = scores
        per_chorale = np.cumsum(padded, axis=1)[:, -1]
        # a sequential cumsum, not sum() or math.fsum: Python 3.12's float sum() is compensated
        return np.cumsum(per_chorale[order]).item(-1) / int(sizes[order].sum())

    # fit replaces both arrays wholesale and nothing mutates them, so snapshots share them
    def snapshot(self) -> object:
        return {"table": self._table, "totals": self._row_totals}

    def restore(self, state: object) -> None:
        if not (isinstance(state, dict) and "table" in state and "totals" in state):
            raise TypeError(f"not a MarkovModel snapshot: {type(state).__name__}")
        self._table = state["table"]
        self._row_totals = state["totals"]
        self._reset_cdfs()

    def save(self, path: str | Path) -> None:
        # Entries are ordered by (voice, [str(x) for x in context], str(token)). Joined with NUL, which sorts
        # below every character of a token's text, and with one voice's contexts all of one length, those
        # keys compare as plain strings do; each row's part of the key is built once.
        keys, entries = [], []
        last = None
        for v, context, tok, count in self._nonzero_cells():
            if context is not last:  # cells come row by row
                last, row_key, context_list = context, "\0".join([str(v), *map(str, context), ""]), list(context)
            keys.append(row_key + str(tok))
            entries.append([v, context_list, tok, count])
        entries = [entries[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]
        payload = {
            "format": _SNAPSHOT_FORMAT,
            "order": self.order,
            "alpha": self.alpha,
            "vocabs": [list(vocab) for vocab in self.vocabs],
            "counts": entries,
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
