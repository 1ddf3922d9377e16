"""Generative-model contract and the order-k Markov reference model.

The training loop depends only on :class:`GenerativeModel`; any sequence
model that can rebuild itself from how often the loop drew each dataset
chorale this epoch, sample a batch of chorales, and score chorales can be plugged
in. The shipped implementation is :class:`MarkovModel`, an additive-smoothed
count model over the token grid whose context for voice ``v`` at timestep
``t`` is the ``order`` previous tokens of voice ``v`` followed by the
timestep-``t`` tokens of the voices above it (soprano first).

Its fitted state is integer arrays. Each context is one int64 key, a
base-131 number whose leading digit is the voice and whose other digits are
the context's tokens (pitch p is digit p, HOLD 128, REST 129, START 130);
that fits in int64 for ``order <= 5``, and a larger order is rejected. Keys
are interned as row ids in order of first sight, and each chorale object is
encoded once, with numpy, into row and token-index arrays (index −1 outside
the voice vocabulary). ``fit`` is one ``np.add.at`` of the draw counts into
an int32 ``(rows, Vmax)`` count table with int64 row totals; a row interned
after the fit reads as zero counts. ``mean_nll`` gathers from the table,
sums each scored chorale's event scores sequentially, then adds those sums
in draw order, so it gives the bits of a per-event log-probability loop over
the drawn chorales. ``sample_many`` draws a batch in lockstep: each chorale
takes ``4 * length`` uniforms from its own stream, then every (timestep,
voice) is one numpy step over the chorales still running. The first draw
after each ``fit`` or ``restore`` builds one sampling table per voice: the
sorted keys of its counted rows (total above 0), their CDFs in key order,
then its uniform CDF without and with HOLD masked; a row's key says whether
HOLD is masked. A step finds the running chorales' context keys by
``np.searchsorted`` in their voice's keys and sends any other key (unknown,
total 0, or interned after the fit) to the uniform CDF, masked after a REST
or START. Each CDF has the bits of ``np.cumsum(probs / probs.sum())``
over ``next_token_dist``, but for its last entry, stored as +inf, so the
first entry above the uniform is ``bisect_right`` clamped to the
vocabulary. ``sample`` is a batch of one. ``save`` orders its cells by
their text, with ``np.lexsort`` over the text ranks of the digits.
"""

from __future__ import annotations

import abc
import json
import math
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .chorale import HOLD, MAX_PITCH, MIN_PITCH, REST, Chorale, Token
from .rng import stream

START = "^"  # context padding before timestep 0; never emitted

Context = tuple[Token, ...]

_SNAPSHOT_FORMAT = "auggen-markov-v1"
_MAX_COUNT = int(np.iinfo(np.int32).max)

# a context key's base-131 digits: the voice, then the context's tokens
_RADIX = 131
_DIGIT: dict[Token, int] = {**{p: p for p in range(MIN_PITCH, MAX_PITCH + 1)}, HOLD: 128, REST: 129, START: 130}
_TOKENS = np.array(list(_DIGIT), dtype=object)  # digit -> token
_TEXT_RANK = np.argsort(sorted(_DIGIT.values(), key=lambda digit: str(_TOKENS[digit])))  # digit -> rank of its text
_MAX_ORDER = 5  # voice 3's key has order + 4 digits, and 4 * 131**8 < 2**63 <= 4 * 131**9
_CHUNK = 64  # chorales encoded per numpy batch, so the key arrays stay small
_NO_KEY = np.iinfo(np.int64).max  # above every context key


class GenerativeModel(abc.ABC):
    """Behavior contract the training loop relies on."""

    @abc.abstractmethod
    def fit(self, chorales: Sequence[Chorale], counts: Sequence[int]) -> None:
        """Rebuild the model from an epoch's draws: ``chorales[i]`` counts ``counts[i]`` times."""

    @abc.abstractmethod
    def sample_many(
        self, lengths: Sequence[int], rngs: Sequence[np.random.Generator], ids: Sequence[str]
    ) -> list[Chorale]:
        """Draw chorale ``j`` of ``lengths[j]`` timesteps from ``rngs[j]`` alone and name it ``ids[j]``;
        output always validates."""

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
    rngs = [stream(seed, *key, j) for j in range(len(ids))]
    return model.sample_many([length_pool[int(rng.integers(0, len(length_pool)))] for rng in rngs], rngs, ids)


def _token_sort_key(tok: Token) -> tuple[int, int | str]:
    if isinstance(tok, int):
        return (0, tok)
    return (1, tok)


class MarkovModel(GenerativeModel):
    """Order-k count model with additive smoothing over the chorale grid.

    The per-voice vocabulary is fixed at construction; counts can be
    rebuilt at will with :meth:`fit` (the training loop rebuilds them every
    epoch from the epoch's draw counts). A freshly constructed model
    has zero counts everywhere, i.e. it is the uniform model over each
    voice's vocabulary.
    """

    def __init__(self, order: int, alpha: float, vocabs: Sequence[Sequence[Token]]):
        if not 1 <= order <= _MAX_ORDER:
            raise ValueError(f"order must be in 1..{_MAX_ORDER}, got {order}")
        if not 0 < alpha < math.inf:
            raise ValueError(f"smoothing alpha must be finite and > 0, got {alpha}")
        if not math.isfinite(alpha * _RADIX):  # no vocabulary has more tokens than the radix has digits
            raise ValueError(f"smoothing alpha {alpha} overflows: alpha * {_RADIX} is not finite")
        if len(vocabs) != 4:
            raise ValueError(f"expected 4 per-voice vocabularies, got {len(vocabs)}")
        cleaned = []
        for v, vocab in enumerate(vocabs):
            tokens = sorted({tok for tok in vocab if tok != START}, key=_token_sort_key)
            if not tokens:
                raise ValueError(f"voice {v} vocabulary is empty")
            if tokens == [HOLD]:
                raise ValueError(f"voice {v} vocabulary is only {HOLD!r}, which cannot start a voice")
            unknown = [tok for tok in tokens if tok not in _DIGIT]
            if unknown:
                raise ValueError(f"voice {v} vocabulary holds {unknown[0]!r}, which is not a token")
            cleaned.append(tuple(tokens))
        self.order = order
        self.alpha = float(alpha)
        self.vocabs: tuple[tuple[Token, ...], ...] = tuple(cleaned)
        self._digits = [np.array([_DIGIT[tok] for tok in vocab]) for vocab in self.vocabs]  # column -> token digit
        self._columns = np.full((4, _RADIX), -1, dtype=np.int32)  # token digit -> column; -1 outside the vocabulary
        for v, digits in enumerate(self._digits):
            self._columns[v, digits] = np.arange(len(digits))
        self._token_arrays = [np.array(vocab, dtype=object) for vocab in self.vocabs]  # column -> token
        self._width = max(len(vocab) for vocab in self.vocabs)  # Vmax, the count table's column count
        self._rows: dict[int, int] = {}  # context key -> row id, in order of first sight; its length is the row count
        self._encoded: dict[int, tuple[Chorale, np.ndarray, np.ndarray]] = {}  # id -> (chorale, rows, token indices)
        self._table = np.zeros((0, self._width), dtype=np.int32)
        self._row_totals = np.zeros(0, dtype=np.int64)
        self._tables: list[tuple[np.ndarray, np.ndarray]] | None = None  # built by _build_tables at the next draw

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

    def _encode(self, chorales: Sequence[Chorale]) -> None:
        """Cache, by object identity, the row ids and token indices of each chorale's events in event order
        (timestep by timestep, soprano first), interning new context keys in order of first sight."""
        order, lengths = self.order, np.array([chorale.length for chorale in chorales])
        padding = (START,) * order
        tokens = chain.from_iterable(chain(padding, c.voices[v]) for v in range(4) for c in chorales)
        grid = np.fromiter(map(_DIGIT.__getitem__, tokens), np.int64, 4 * int(order * len(chorales) + lengths.sum()))
        grid = grid.reshape(4, -1)  # per voice, each chorale's order STARTs, then its tokens
        steps = np.arange(lengths.sum()) + np.repeat(order * np.arange(1, len(chorales) + 1), lengths)
        recent = np.zeros((4, steps.size), dtype=np.int64)  # each voice's order previous tokens
        for lag in range(order, 0, -1):
            recent = recent * _RADIX + grid[:, steps - lag]
        keys = np.empty((steps.size, 4), dtype=np.int64)
        above = np.zeros(steps.size, dtype=np.int64)  # the timestep's tokens of the voices above
        for v in range(4):
            keys[:, v] = (v * _RADIX**order + recent[v]) * _RADIX**v + above
            above = above * _RADIX + grid[v, steps]
        interned = self._rows  # a new key's row id is the row count when it is first seen
        rows = np.array([interned.setdefault(key, len(interned)) for key in keys.reshape(-1).tolist()], np.int32)
        toks = self._columns[np.arange(4), grid[:, steps].T].reshape(-1)
        cuts = np.cumsum(4 * lengths)[:-1]
        for chorale, chorale_rows, chorale_toks in zip(chorales, np.split(rows, cuts), np.split(toks, cuts)):
            # the cache holds the chorale itself, so its id cannot be reused while the entry lives
            self._encoded[id(chorale)] = (chorale, chorale_rows, chorale_toks)

    def _encode_all(self, chorales: Sequence[Chorale]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated row ids and token indices of ``chorales``' events, and each chorale's event count."""
        pending = list({id(c): c for c in chorales if id(c) not in self._encoded}.values())
        for start in range(0, len(pending), _CHUNK):
            self._encode(pending[start : start + _CHUNK])
        encoded = [self._encoded[id(chorale)] for chorale in chorales]
        rows = np.concatenate([r for _, r, _ in encoded])
        toks = np.concatenate([k for _, _, k in encoded])
        return rows, toks, np.array([r.size for _, r, _ in encoded])

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
        self._tables = None

    def _smoothed(self, voice: int, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """``(count + alpha) / (total + alpha * size)`` for each token of the voice vocabulary, one row per
        row of ``counts`` (count table rows) and entry of ``totals`` (their totals)."""
        size = len(self.vocabs[voice])
        probs = counts[:, :size] + self.alpha
        probs /= totals[:, None] + self.alpha * size  # in place, as in _cdf_rows: a table build holds one float copy
        return probs

    def next_token_dist(self, voice: int, context: Context) -> np.ndarray:
        """P(token | context) over the voice vocabulary; sums to 1. A context that is not ``order + voice``
        tokens long is not one of the voice's, so it reads as zero counts."""
        row = None
        if len(context) == self.order + voice and all(tok in _DIGIT for tok in context):
            key = voice
            for tok in context:
                key = key * _RADIX + _DIGIT[tok]
            row = self._rows.get(key)
        if row is None or row >= len(self._row_totals):  # a row the counts do not cover reads as zero counts
            return self._smoothed(voice, np.zeros((1, self._width), np.int32), np.zeros(1, np.int64))[0]
        return self._smoothed(voice, self._table[row : row + 1], self._row_totals[row : row + 1])[0]

    def _cdf_rows(self, voice: int, counts: np.ndarray, totals: np.ndarray, masked: np.ndarray) -> np.ndarray:
        """``np.cumsum(probs / probs.sum())`` for each row of :meth:`_smoothed`, with HOLD's probability zeroed
        where ``masked``, and the last entry raised to +inf. A sum over the last axis of a C-ordered array is
        numpy's pairwise sum of each row, so every other entry has the bits of the one-row formula."""
        probs = self._smoothed(voice, counts, totals)
        hold = self._columns[voice, _DIGIT[HOLD]]
        if hold >= 0:
            probs[masked, hold] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        cdfs = np.cumsum(probs, axis=1, out=probs)
        cdfs[:, -1] = np.inf
        return cdfs

    def _build_tables(self) -> None:
        """Per voice, its sampling table: the sorted keys of its counted rows (total above 0), then ``_NO_KEY``,
        which a search past the last key lands on and no key matches; their CDFs in key order, then the voice's
        uniform CDF and that CDF with HOLD masked. A row's key says whether HOLD is masked: its voice's last
        token is a REST or START."""
        counted = np.flatnonzero(self._row_totals)
        keys = np.fromiter(self._rows, np.int64, len(self._row_totals))[counted]  # row ids are in insertion order
        by_key = np.argsort(keys)
        keys, rows = keys[by_key], counted[by_key]
        cuts = np.searchsorted(keys, [v * _RADIX ** (self.order + v) for v in range(1, 4)])  # each voice's first key
        self._tables = []
        for v, (voice_keys, voice_rows) in enumerate(zip(np.split(keys, cuts), np.split(rows, cuts))):
            counts = np.zeros((voice_rows.size + 2, self._width), dtype=np.int32)  # two zero rows: the uniform CDFs
            counts[: voice_rows.size] = self._table[voice_rows]
            totals = np.append(self._row_totals[voice_rows], [0, 0])
            masked = np.append(voice_keys // _RADIX**v % _RADIX >= _DIGIT[REST], [False, True])
            self._tables.append((np.append(voice_keys, _NO_KEY), self._cdf_rows(v, counts, totals, masked)))

    def sample(self, length: int, rng: np.random.Generator, chorale_id: str = "sample") -> Chorale:
        """Draw one chorale of ``length`` timesteps from ``rng``: a batch of one."""
        return self.sample_many([length], [rng], [chorale_id])[0]

    def sample_many(
        self, lengths: Sequence[int], rngs: Sequence[np.random.Generator], ids: Sequence[str]
    ) -> list[Chorale]:
        if not len(lengths) == len(rngs) == len(ids):
            raise ValueError(f"expected a length, stream and id per chorale, got {len(lengths)}, {len(rngs)}, {len(ids)}")
        if not len(lengths):
            return []
        if min(lengths) < 1:
            raise ValueError(f"length must be >= 1, got {min(lengths)}")
        if self._tables is None:
            self._build_tables()
        # longest first, so that the chorales still running at any timestep are a prefix of the batch
        by_length = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
        rank = np.empty(len(lengths), dtype=np.intp)
        rank[by_length] = np.arange(len(lengths))
        longest = lengths[by_length[0]]
        uniforms = np.zeros((len(lengths), 4 * longest))
        for j, (length, rng) in enumerate(zip(lengths, rngs)):  # in batch order, as one draw at a time would be
            uniforms[rank[j], : 4 * length] = rng.random(4 * length)
        uniforms = uniforms.reshape(len(lengths), longest, 4).transpose(1, 2, 0).copy()  # [t, v, ranked chorale]
        running = (np.array(lengths) > np.arange(longest)[:, None]).sum(axis=1).tolist()
        radix, modulus, rest = _RADIX, _RADIX**self.order, _DIGIT[REST]
        recent = np.full((4, len(lengths)), (modulus - 1) // (radix - 1) * _DIGIT[START])  # last order digits
        masked = np.ones((4, len(lengths)), dtype=bool)  # whether HOLD is masked: the last token is a REST or START
        picks = np.zeros((longest, 4, len(lengths)), dtype=np.intp)  # the drawn column of each voice vocabulary
        for t, n in enumerate(running):
            above = 0  # this timestep's digits of the voices above
            for v in range(4):
                last = recent[v, :n]
                keys = (v * modulus + last) * radix**v + above
                counted_keys, cdfs = self._tables[v]
                at = counted_keys.searchsorted(keys)
                # a counted row reads its own CDF, any other key its voice's uniform CDF after the last counted one
                slot = np.where(counted_keys[at] == keys, at, counted_keys.size - 1 + masked[v, :n])
                # the first entry above u: a cumsum of non-negative floats never decreases, so this is
                # bisect_right, and the +inf last entry clamps it to the vocabulary
                column = (cdfs[slot] > uniforms[t, v, :n, None]).argmax(axis=1)
                picks[t, v, :n] = column
                digit = self._digits[v][column]
                recent[v, :n] = last * radix % modulus + digit
                masked[v, :n] = digit >= rest
                above = above * radix + digit
        tokens = [self._token_arrays[v][picks[:, v].T].tolist() for v in range(4)]  # [v][ranked chorale][t]
        return [
            Chorale(id=chorale_id, voices=tuple(tuple(tokens[v][rank[j]][:length]) for v in range(4)))
            for j, (length, chorale_id) in enumerate(zip(lengths, ids))
        ]

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
        self._tables = None

    def save(self, path: str | Path) -> None:
        # Entries are ordered by (voice, [str(x) for x in context], str(token)). Rows are sorted by one lexsort
        # over the text ranks of their key digits: a voice's contexts all have order + voice digits below the
        # same leading ones, so that is list order. Then cells are sorted by (row rank, token text rank).
        cell_rows, cols = np.nonzero(self._table)
        counts = self._table[cell_rows, cols]
        rows, cell_rows = np.unique(cell_rows, return_inverse=True)
        keys = np.fromiter(self._rows, np.int64, len(self._rows))[rows]  # row ids are handed out in insertion order
        voices = np.searchsorted([v * _RADIX ** (self.order + v) for v in range(4)], keys, side="right") - 1
        digits = np.empty((self.order + 3, rows.size), dtype=np.int64)  # least significant first
        for i in range(self.order + 3):
            keys, digits[i] = np.divmod(keys, _RADIX)
        by_context = np.lexsort(np.vstack([_TEXT_RANK[digits], voices]))
        rank = np.empty_like(by_context)
        rank[by_context] = np.arange(rows.size)
        contexts = []  # in rank order, so voice by voice
        for v, voice_rows in enumerate(np.split(by_context, np.searchsorted(voices[by_context], [1, 2, 3]))):
            contexts += _TOKENS[digits[self.order + v - 1 :: -1, voice_rows].T].tolist()
        cell_voices, cell_ranks = voices[cell_rows], rank[cell_rows]
        token_digits = np.array([np.pad(d, (0, self._width - len(d))) for d in self._digits])[cell_voices, cols]
        cells = np.lexsort([_TEXT_RANK[token_digits], cell_ranks])
        entries = list(
            zip(
                cell_voices[cells].tolist(),
                map(contexts.__getitem__, cell_ranks[cells].tolist()),
                _TOKENS[token_digits[cells]].tolist(),
                counts[cells].tolist(),
            )
        )
        payload = {
            "format": _SNAPSHOT_FORMAT,
            "order": self.order,
            "alpha": self.alpha,
            "vocabs": [list(vocab) for vocab in self.vocabs],
            "counts": entries,
        }
        # built here from ints, strings and lists, so it holds no cycle; without the check, dumping is ~30% faster
        Path(path).write_text(json.dumps(payload, sort_keys=True, check_circular=False) + "\n", encoding="utf-8")
