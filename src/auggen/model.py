"""The order-k Markov model that the training loop trains and samples.

:class:`MarkovModel` is an additive-smoothed count model over the token
grid whose context for voice ``v`` at timestep ``t`` is the ``order``
previous tokens of voice ``v`` followed by the timestep-``t`` tokens of the
voices above it (soprano first). The training loop calls its ``fit``,
``sample_many``, ``mean_nll``, ``snapshot``, ``restore`` and ``save``.

Its fitted state is integer arrays. Each context is one int64 key, a
base-131 number whose leading digit is the voice and whose other digits are
the context's tokens: a token's digit is its code from
:mod:`auggen.chorale`, and START is the digit after the last code. That
fits in int64 for ``order <= 5``, and a larger order is rejected. The
interned keys are held once, ascending, with their row ids beside them. A
batch of keys is interned with one ``np.unique``, one ``np.searchsorted``
into the ascending keys and one ``np.insert`` of the new ones, which take
the next row ids in key order, so no Python code runs per key and a row id
never changes once handed out. Each code grid is encoded once, with numpy,
into row ids and token indices (−1 outside the voice vocabulary), up to
1,024 grids per batch, as a batch costs mostly a fixed overhead plus that
``np.insert``.
The events depend only on the grid, so one append-only store keyed by
``chorale.codes`` holds them: every row id and token index in one array
pair, and each grid's offset into them. A call gathers its chorales' events
with one ``np.repeat`` and ``np.arange``. ``fit`` gathers each drawn
chorale's events once, adds the draw counts into an int32 ``(rows, Vmax)``
count table with int64 row totals by one ``np.add.at`` (a row interned
after the fit reads as zero counts) and scores those events for the
training loss. Its scorer, shared with ``mean_nll``, gathers the counts
from the flat table, masking only when some row is unfitted or some token
unknown, lays each scored chorale's event scores down its own column of a
pad with at least two columns (numpy sums a single column pairwise) and
adds the pad's rows in turn, then adds the chorales' sums in draw order, so
it gives the bits of a per-event log-probability loop over the drawn
chorales. ``sample_many`` draws a
batch as a wavefront: each chorale takes ``4 * length`` uniforms from its
own stream, then at tick ``s`` voice ``v`` draws timestep ``s - v``, so
each of the longest length + 3 ticks is one numpy step over the (voice,
chorale) lanes that run. The first draw after each ``fit`` builds one
sampling table for all four voices: the ascending keys of the counted rows
(total above 0), read straight from the ascending key array and grouped by
voice by their leading digit, then their CDFs in key order in one
``Vmax``-wide matrix, then each voice's uniform CDF without and with HOLD
masked; a row's key says whether HOLD is masked. The tables depend only on
the counts, as interning only adds rows, so they belong to the fitted
state that a snapshot holds, and a ``restore`` of a state whose tables
were built draws from them. Each voice keeps its last ``order`` digits and
whether its last token masks HOLD, and an ``above`` register of the
digits that the voices above drew at its current timestep; a tick adds
``above`` to each lane's key prefix, finds the keys by one
``np.searchsorted``, sends any other key (unknown, total 0, or interned
after the fit) to its voice's uniform CDF, masked after a REST or START,
and draws each digit from its row's CDF. Then each voice's history
advances by its drawn digit, and ``above`` moves down one voice: voice
``v + 1`` draws the same timestep at the next tick. Each CDF has the bits
of ``np.cumsum(probs / probs.sum())`` over ``next_token_dist`` within its
voice's vocabulary, but for its last entry, and +inf from that last entry
on, so the first entry above the uniform is ``bisect_right`` clamped to
the vocabulary. Each chorale's drawn digits, cut to its length and cast to
``uint8``, are its code grid, with no token in between. ``sample`` is a
batch of one. A ``copy()`` shares the fitted state and the store's arrays,
which no method writes into, so every regime of a compare but the last
trains a copy of one untrained model that holds the training split's
events, and the last trains that model itself. ``save``
orders its cells by their text with one two-key ``np.lexsort``: the
token's text rank below one int64 key of the voice and the text ranks of
the context's digits. It writes the ``counts`` text from
``uint8`` arrays, each cell's digits and count as NUL-padded JSON text,
drops the NULs and splices that text into the ``json.dumps`` of the rest.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .chorale import HOLD, HOLD_CODE, REST_CODE, TOKENS, Chorale, Token, join_codes, token_code
from .rng import stream

START = "^"  # context padding before timestep 0; never emitted

Context = tuple[Token, ...]

_SNAPSHOT_FORMAT = "auggen-markov-v1"
_MAX_COUNT = int(np.iinfo(np.int32).max)

# a context key's digits: the voice, then the context's tokens, each its chorale code or START's digit
_START = len(TOKENS)
_RADIX = _START + 1
_TOKENS = np.array([*TOKENS, START], dtype=object)  # digit -> token
# digit -> rank of its text, then 0 for the padding digit _RADIX
_TEXT_RANK = np.append(np.argsort(sorted(range(_RADIX), key=lambda digit: str(_TOKENS[digit]))), 0)
# digit -> its JSON text after ", ", NUL-padded; the padding digit's text is empty
_TEXT = np.array([f", {json.dumps(tok)}".encode() for tok in _TOKENS] + [b""], "S6").view(np.uint8).reshape(-1, 6)
_PLACES = 10 ** np.arange(9, -1, -1)  # a count's decimal places: an int32 count has at most 10 digits
_MAX_ORDER = 5  # voice 3's key has order + 4 digits, and 4 * 131**8 < 2**63 <= 4 * 131**9
# chorales encoded per numpy batch: _intern's cost per batch is mostly fixed, plus an np.insert that grows
# with the key count, so a few large batches beat many small ones
_BATCH = 1024
_NO_KEY = np.iinfo(np.int64).max  # above every context key


def _ascii(text: bytes, n: int) -> np.ndarray:
    """``n`` rows of ``text``'s bytes."""
    return np.tile(np.frombuffer(text, np.uint8), (n, 1))


def check_events(events: int, what: str) -> None:
    """Reject ``events`` count-table events, which ``what`` describes, above the table's int32 limit."""
    if events > _MAX_COUNT:
        raise ValueError(f"{what}: {events} events exceed the count table's limit of {_MAX_COUNT}")


def sample_batch(
    model: MarkovModel, length_pool: Sequence[int], seed: int, key: tuple, ids: Sequence[str]
) -> list[Chorale]:
    """One chorale per id: chorale ``j`` draws its length from ``length_pool``, then its tokens,
    from ``stream(seed, *key, j)``, and is named ``ids[j]``."""
    rngs = [stream(seed, *key, j) for j in range(len(ids))]
    return model.sample_many([length_pool[int(rng.integers(0, len(length_pool)))] for rng in rngs], rngs, ids)


class MarkovModel:
    """Order-k count model with additive smoothing over the chorale grid.

    The per-voice vocabulary is fixed at construction; counts can be
    rebuilt at will with :meth:`fit` (the training loop rebuilds them every
    epoch from the epoch's draws). A freshly constructed model
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
        if not alpha / (_MAX_COUNT + alpha * _RADIX) > 0:  # the least probability a fit can give, as fit caps totals
            raise ValueError(f"smoothing alpha {alpha} underflows: alpha / ({_MAX_COUNT} + alpha * {_RADIX}) is 0")
        if len(vocabs) != 4:
            raise ValueError(f"expected 4 per-voice vocabularies, got {len(vocabs)}")
        cleaned = []
        for v, vocab in enumerate(vocabs):
            tokens = [tok for tok in vocab if tok != START]
            unknown = [tok for tok in tokens if token_code(tok) is None]  # before the set, where True would be 1
            if unknown:
                raise ValueError(f"voice {v} vocabulary holds {unknown[0]!r}, which is not a token")
            tokens = sorted(set(tokens), key=lambda tok: (isinstance(tok, str), tok))  # pitches, then "R", then "__"
            if not tokens:
                raise ValueError(f"voice {v} vocabulary is empty")
            if tokens == [HOLD]:
                raise ValueError(f"voice {v} vocabulary is only {HOLD!r}, which cannot start a voice")
            cleaned.append(tuple(tokens))
        self.order = order
        self.alpha = float(alpha)
        self.vocabs: tuple[tuple[Token, ...], ...] = tuple(cleaned)
        self._width = max(len(vocab) for vocab in self.vocabs)  # Vmax, the count table's column count
        self._digits = np.zeros((4, self._width), dtype=np.intp)  # (voice, column) -> token digit; 0 past the vocab
        self._columns = np.full((4, _RADIX), -1, dtype=np.int32)  # token digit -> column; -1 outside the vocabulary
        for v, vocab in enumerate(self.vocabs):
            digits = [token_code(tok) for tok in vocab]
            self._digits[v, : len(vocab)] = digits
            self._columns[v, digits] = np.arange(len(vocab))
        # each voice's uniform CDF, then that CDF with HOLD masked: no count moves them, and every table ends with them
        self._uniform_cdfs = np.empty((8, self._width))
        zeros, masked = np.zeros((2, self._width), dtype=np.int32), np.array([False, True])
        for v in range(4):
            self._cdf_rows(v, zeros, np.zeros(2, np.int64), masked, self._uniform_cdfs[2 * v : 2 * v + 2])
        # the interned context keys, ascending, with their row ids beside them: ids 0..K-1 in some order, for K keys
        self._sorted_keys = np.zeros(0, dtype=np.int64)
        self._sorted_rows = np.zeros(0, dtype=np.int32)
        # the event store: every encoded code grid's row ids and token indices, one grid after another;
        # grid i's events are [offsets[i], offsets[i + 1]). A chorale's events depend only on its grid.
        self._index: dict[bytes, int] = {}  # chorale.codes -> its place in the store
        self._rows = np.zeros(0, dtype=np.int32)
        self._toks = np.zeros(0, dtype=np.int32)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._set_state({"table": np.zeros((0, self._width), dtype=np.int32), "totals": np.zeros(0, dtype=np.int64)})

    def _set_state(self, state: dict) -> None:
        """Make ``state`` the fitted state: its count table, row totals and, once built, sampling tables."""
        self._state = state
        self._table, self._row_totals = state["table"], state["totals"]
        self._tables: tuple[np.ndarray, np.ndarray] | None = state.get("tables")  # None: built at the next draw

    def copy(self) -> "MarkovModel":
        """A model that starts from this one's fitted state (its ``snapshot()``) and event store arrays, with
        its own ``_index`` dict. That is safe because ``_encode`` and ``_intern`` only ever replace those arrays,
        never write into them, and ``fit`` replaces the state wholesale; the tables that ``_build_tables`` adds to
        a shared state depend only on the counts, whose rows the two share."""
        twin = object.__new__(type(self))
        twin.__dict__.update(vars(self))
        twin._index = dict(self._index)
        return twin

    @classmethod
    def with_vocab_from(cls, chorales: Iterable[Chorale], order: int, alpha: float) -> "MarkovModel":
        """Build an untrained model whose vocabularies cover ``chorales``."""
        chorales = list(chorales)
        if not chorales:
            raise ValueError("need at least one chorale to build a vocabulary")
        vocabs = [[TOKENS[code] for code in np.unique(row).tolist()] for row in join_codes(chorales, 0, REST_CODE)]
        return cls(order=order, alpha=alpha, vocabs=vocabs)

    def _encode(self, chorales: Sequence[Chorale]) -> None:
        """Append to the store the row ids and token indices of each chorale's events in event order
        (timestep by timestep, soprano first), interning new context keys."""
        order, lengths = self.order, np.array([chorale.length for chorale in chorales])
        # per voice, each chorale's order STARTs, then its codes
        grid = np.hstack([np.full((4, order), _START, np.uint8), join_codes(chorales, order, _START)])
        steps = np.arange(lengths.sum()) + np.repeat(order * np.arange(1, len(chorales) + 1), lengths)
        keys = np.empty((steps.size, 4), dtype=np.int64)
        above = np.zeros(steps.size, dtype=np.int64)  # the timestep's tokens of the voices above
        for v in range(4):
            key = np.full(steps.size, v, dtype=np.int64)  # the voice, then its order previous tokens
            for lag in range(order, 0, -1):
                key = key * _RADIX + grid[v, steps - lag]
            keys[:, v] = key * _RADIX**v + above
            above = above * _RADIX + grid[v, steps]
        self._rows = np.concatenate([self._rows, self._intern(keys.reshape(-1))])
        self._toks = np.concatenate([self._toks, self._columns[np.arange(4), grid[:, steps].T].reshape(-1)])
        self._offsets = np.concatenate([self._offsets, self._offsets[-1] + np.cumsum(4 * lengths)])
        for chorale in chorales:
            self._index[chorale.codes] = len(self._index)

    def _intern(self, keys: np.ndarray) -> np.ndarray:
        """The row id of each of ``keys``; the keys not yet interned take the next row ids, in ascending order."""
        distinct, inverse = np.unique(keys, return_inverse=True)
        at = self._sorted_keys.searchsorted(distinct)
        fresh = np.append(self._sorted_keys, _NO_KEY)[at] != distinct
        rows = np.empty(distinct.size, dtype=np.int32)
        rows[~fresh] = self._sorted_rows[at[~fresh]]
        rows[fresh] = np.arange(self._sorted_keys.size, self._sorted_keys.size + np.count_nonzero(fresh))
        self._sorted_keys = np.insert(self._sorted_keys, at[fresh], distinct[fresh])
        self._sorted_rows = np.insert(self._sorted_rows, at[fresh], rows[fresh])
        return rows[inverse]

    def encode(self, chorales: Sequence[Chorale]) -> None:
        """Add to the event store each grid of ``chorales`` not in it yet, so no later call encodes it."""
        pending = list({c.codes: c for c in chorales if c.codes not in self._index}.values())
        for start in range(0, len(pending), _BATCH):
            self._encode(pending[start : start + _BATCH])

    def _encode_all(self, chorales: Sequence[Chorale]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated row ids and token indices of ``chorales``' events, and each chorale's event count;
        a chorale not yet in the store is encoded first."""
        self.encode(chorales)
        at = np.array([self._index[chorale.codes] for chorale in chorales], dtype=np.intp)
        begins = self._offsets[at]
        sizes = self._offsets[at + 1] - begins
        ends = np.cumsum(sizes)
        events = np.arange(ends[-1]) + np.repeat(begins - (ends - sizes), sizes)  # the store's index of each event
        return self._rows[events], self._toks[events], sizes

    def _cells(self, rows: np.ndarray, toks: np.ndarray) -> np.ndarray:
        """The flat count-table index of each (row id, token index), in one int64 array."""
        cells = rows.astype(np.int64)
        cells *= self._width
        cells += toks
        return cells

    def fit(self, chorales: Sequence[Chorale], draws: Sequence[int]) -> float:
        """Replace counts with exact event counts over the draws, each the index of a chorale in ``chorales``,
        and return the training loss: :meth:`mean_nll` of ``[chorales[i] for i in draws]`` under the new counts.

        Only drawn chorales are read, each once. The vocabulary stays
        fixed: a drawn chorale using tokens outside it is rejected.
        """
        given, draws = draws, np.asarray(draws)
        if not draws.size:
            raise ValueError("cannot fit on an empty multiset")
        if draws.ndim != 1 or draws.dtype.kind not in "iu" or draws.min() < 0 or draws.max() >= len(chorales):
            last, index = len(chorales) - 1, (int, np.integer)
            bad = [d for d in given if not isinstance(d, index) or isinstance(d, bool) or not 0 <= d <= last]
            raise ValueError(f"draw {bad[0]} is not a chorale index in 0..{last}" if bad else f"{draws.dtype} draws")
        counts = np.bincount(draws.astype(np.intp), minlength=len(chorales))
        drawn = np.flatnonzero(counts)
        distinct = [chorales[i] for i in drawn.tolist()]
        rows, toks, sizes = self._encode_all(distinct)
        unknown = np.flatnonzero(toks < 0)
        if unknown.size:
            ends = np.cumsum(sizes)
            i = int(np.searchsorted(ends, unknown[0], side="right"))
            t, v = divmod(int(unknown[0] - ends[i] + sizes[i]), 4)
            chorale = distinct[i]
            raise ValueError(f"chorale {chorale.id!r}: token {chorale.voices[v][t]!r} not in voice {v} vocabulary")
        weights = counts[drawn]
        check_events(int(np.dot(weights, sizes)), "the draws")  # no cell exceeds the total, so none can wrap
        table = np.zeros((self._sorted_keys.size, self._width), dtype=np.int32)
        cells = self._cells(rows, toks)
        np.add.at(table.reshape(-1), cells, np.repeat(weights.astype(np.int32), sizes))  # unbuffered: repeats add up
        # no total exceeds the draws' events, which fit int32, so the int32 sum cannot wrap; einsum sums the
        # short rows several times faster than sum(axis=1)
        self._set_state({"table": table, "totals": np.einsum("ij->i", table).astype(np.int64)})
        places = np.cumsum(counts > 0) - 1  # chorale index -> its place among the drawn
        return self._score(rows, toks, sizes, cells, places[draws])

    def _smoothed(
        self, voice: int, counts: np.ndarray, totals: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``(count + alpha) / (total + alpha * size)`` for each token of the voice vocabulary, one row per
        row of ``counts`` (count table rows) and entry of ``totals`` (their totals); written into the first
        ``size`` entries of ``out``'s rows if given."""
        size = len(self.vocabs[voice])
        probs = np.add(counts[:, :size], self.alpha, out=None if out is None else out[:, :size])
        probs /= totals[:, None] + self.alpha * size  # in place: a table build writes straight into its CDFs
        return probs

    def next_token_dist(self, voice: int, context: Context) -> np.ndarray:
        """P(token | context) over the voice vocabulary; sums to 1. A context that is not ``order + voice``
        tokens long is not one of the voice's, so it reads as zero counts."""
        row = None
        digits = [_START if isinstance(tok, str) and tok == START else token_code(tok) for tok in context]
        if len(context) == self.order + voice and None not in digits:
            key = voice
            for digit in digits:
                key = key * _RADIX + digit
            at = self._sorted_keys.searchsorted(key)
            if at < self._sorted_keys.size and self._sorted_keys[at] == key:
                row = self._sorted_rows[at]
        if row is None or row >= len(self._row_totals):  # a row the counts do not cover reads as zero counts
            return self._smoothed(voice, np.zeros((1, self._width), np.int32), np.zeros(1, np.int64))[0]
        return self._smoothed(voice, self._table[row : row + 1], self._row_totals[row : row + 1])[0]

    def _cdf_rows(
        self, voice: int, counts: np.ndarray, totals: np.ndarray, masked: np.ndarray, out: np.ndarray
    ) -> None:
        """Write into ``out``'s rows ``np.cumsum(probs / probs.sum())`` for each row of :meth:`_smoothed`, with
        HOLD's probability zeroed where ``masked``, and +inf from the last vocabulary entry on. A sum over the
        last axis is numpy's pairwise sum of each row, so every other entry has the bits of the one-row formula."""
        probs = self._smoothed(voice, counts, totals, out)
        hold = self._columns[voice, HOLD_CODE]
        if hold >= 0:
            probs[masked, hold] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        np.cumsum(probs, axis=1, out=probs)
        out[:, probs.shape[1] - 1 :] = np.inf

    def _build_tables(self) -> None:
        """The sampling table of all four voices: the sorted keys of the ``K`` counted rows (total above 0),
        which the leading voice digit groups by voice, then ``_NO_KEY``, which a search past the last key lands
        on and no key matches; one ``Vmax``-wide CDF per counted row in key order, then each voice's uniform CDF
        and that CDF with HOLD masked (row ``K + 2 * voice + masked``). A row's key says whether HOLD is masked:
        its voice's last token is a REST or START."""
        counted = np.zeros(self._sorted_keys.size, dtype=bool)  # a row interned after the fit has no total
        counted[: self._row_totals.size] = self._row_totals > 0
        in_table = counted[self._sorted_rows]
        keys, rows = self._sorted_keys[in_table], self._sorted_rows[in_table]
        cuts = [0, *np.searchsorted(keys, [v * _RADIX ** (self.order + v) for v in range(1, 4)]), keys.size]
        cdfs = np.empty((keys.size + 8, self._width))
        cdfs[keys.size :] = self._uniform_cdfs
        for v in range(4):
            voice = slice(cuts[v], cuts[v + 1])
            masked = keys[voice] // _RADIX**v % _RADIX >= REST_CODE
            self._cdf_rows(v, self._table[rows[voice]], self._row_totals[rows[voice]], masked, cdfs[voice])
        self._tables = (np.append(keys, _NO_KEY), cdfs)
        self._state["tables"] = self._tables  # the fitted state's own, so a snapshot of it keeps them

    def sample(self, length: int, rng: np.random.Generator, chorale_id: str = "sample") -> Chorale:
        """Draw one chorale of ``length`` timesteps from ``rng``: a batch of one."""
        return self.sample_many([length], [rng], [chorale_id])[0]

    def sample_many(
        self, lengths: Sequence[int], rngs: Sequence[np.random.Generator], ids: Sequence[str]
    ) -> list[Chorale]:
        """Draw chorale ``j`` of ``lengths[j]`` timesteps from ``rngs[j]`` alone and name it ``ids[j]``;
        output always validates."""
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
        # a wavefront: at tick s voice v draws timestep s - v, so each tick is one numpy step over (voice, chorale)
        # lanes. Tick s runs voices 0..min(s, 3) (the others have not started) over the chorales that run at the
        # earliest of their timesteps; a lane whose chorale has ended draws a digit that no running lane reads.
        ticks = longest + 3
        voices = np.minimum(np.arange(ticks), 3) + 1
        running = (np.array(lengths) > np.arange(longest)[:, None]).sum(axis=1)[np.arange(ticks) + 1 - voices]
        lane = np.arange(longest)[:, None] + np.arange(4)  # the tick at which voice v draws timestep t: t + v
        wave = np.zeros((ticks, 4, len(lengths)))  # [tick, v, ranked chorale]
        wave[lane, np.arange(4)] = uniforms.reshape(len(lengths), longest, 4).transpose(1, 2, 0)
        radix, modulus = _RADIX, _RADIX**self.order
        leading = np.arange(4)[:, None] * modulus  # each voice's leading key digit, above its order digits
        place = radix ** np.arange(4)[:, None]  # each voice's key ends with the digits of the voices above
        counted_keys, cdfs = self._tables
        uniform_rows = counted_keys.size - 1 + 2 * np.arange(4)[:, None]  # each voice's unmasked uniform CDF
        columns = np.arange(4)[:, None] * self._width  # each voice's first column in the flat digit table
        digit_of = self._digits.reshape(-1)
        recent = np.full((4, len(lengths)), (modulus - 1) // (radix - 1) * _START)  # each voice's last order digits
        masked = np.ones((4, len(lengths)), dtype=bool)  # whether HOLD is masked: the last token is a REST or START
        above = np.zeros((5, len(lengths)), dtype=np.int64)  # the digits of the voices above; row 4 is never read
        digits = np.zeros((ticks, 4, len(lengths)), dtype=np.uint8)  # the drawn digit of each lane
        for s, (m, n) in enumerate(zip(voices.tolist(), running.tolist())):
            keys = (leading[:m] + recent[:m, :n]) * place[:m] + above[:m, :n]
            at = counted_keys.searchsorted(keys)
            # a counted row reads its own CDF, any other key its voice's uniform CDF, masked after a REST or START
            slot = np.where(counted_keys[at] == keys, at, uniform_rows[:m] + masked[:m, :n])
            # the first entry above u: a cumsum of non-negative floats never decreases, so this is bisect_right,
            # and the +inf entries from each voice's last vocabulary entry on clamp it to the vocabulary
            drawn = digit_of[(cdfs[slot] > wave[s, :m, :n, None]).argmax(axis=2) + columns[:m]]
            digits[s, :m, :n] = drawn
            recent[:m, :n] = recent[:m, :n] * radix % modulus + drawn
            masked[:m, :n] = drawn >= REST_CODE
            above[1 : m + 1, :n] = above[:m, :n] * radix + drawn  # voice v + 1 draws this timestep at the next tick
        grids = digits[lane, np.arange(4)].transpose(2, 1, 0)[rank]  # [chorale, v, t]
        return [Chorale.from_codes(name, grid[:, :length].tobytes()) for grid, length, name in zip(grids, lengths, ids)]

    def mean_nll(self, chorales: Sequence[Chorale]) -> float:
        """Mean −ln P(token | context) over all grid positions of ``chorales``.

        Tokens outside the vocabulary score as zero-count events, so the
        mean stays finite. The per-chorale sums are added in list order.
        """
        if not len(chorales):
            raise ValueError("cannot score an empty corpus")
        rows, toks, sizes = self._encode_all(chorales)
        return self._score(rows, toks, sizes, self._cells(rows, toks), np.arange(len(chorales)))

    def _score(
        self, rows: np.ndarray, toks: np.ndarray, sizes: np.ndarray, cells: np.ndarray, order: np.ndarray
    ) -> float:
        """Mean −ln P(token | context), bit for bit a per-event loop, over chorale ``order[k]`` for each ``k``, where
        chorale ``j`` has the ``sizes[j]`` events after chorale ``j - 1``'s in ``rows``, ``toks`` and ``cells``."""
        fitted = rows < len(self._row_totals)
        denominators = np.tile(self.alpha * np.array([len(vocab) for vocab in self.vocabs]), rows.size // 4)
        if fitted.all() and toks.min() >= 0:
            denominators += self._row_totals[rows]
            scores = self._table.reshape(-1)[cells] + self.alpha
        else:  # a row interned after the fit, or a token outside the vocabulary, counts 0
            denominators[fitted] += self._row_totals[rows[fitted]]
            known = fitted & (toks >= 0)
            scores = np.full(rows.size, self.alpha)
            scores[known] += self._table.reshape(-1)[cells[known]]
        scores /= denominators  # (count + alpha) / (total + alpha * size)
        del denominators  # before the pad is allocated: each event-sized array held at once adds to a fit's peak
        np.negative(np.log(scores, out=scores), out=scores)
        # chorale j's scores go down column j below a 0.0, so adding the rows in turn reproduces
        # `acc = 0.0; acc -= logprob` bit for bit. With one column numpy would sum it pairwise, so there are two.
        steps = np.arange(int(sizes.max()) + 1)
        padded = np.zeros((steps.size, max(sizes.size, 2)))
        # in the transposed view, chorale j's scores fill row j from entry 1 on, and a mask fills in event order
        padded.T[: sizes.size][(steps > 0) & (steps <= sizes[:, None])] = scores
        per_chorale = np.add.reduce(padded, axis=0)
        # a sequential cumsum, not sum() or math.fsum: Python 3.12's float sum() is compensated
        return np.cumsum(per_chorale[order]).item(-1) / int(sizes[order].sum())

    # fit replaces the state wholesale and nothing mutates its arrays, so snapshots share it. Its sampling tables
    # depend only on its counts, as interning only adds rows, so a snapshot keeps them once they are built.
    def snapshot(self) -> object:
        """Opaque immutable state for :meth:`restore`."""
        return self._state

    def restore(self, state: object) -> None:
        """Reset the model to a previously captured snapshot."""
        if not (isinstance(state, dict) and "table" in state and "totals" in state):
            raise TypeError(f"not a MarkovModel snapshot: {type(state).__name__}")
        self._set_state(state)

    def save(self, path: str | Path) -> None:
        """Serialize the model to a single versioned file."""
        # Entries are ordered by (voice, [str(x) for x in context], str(token)), so cells sort by the text rank
        # of their token below one key per row: its voice, then the text ranks of its context digits. A voice's
        # contexts all have order + voice digits, so that is list order.
        order, radix = self.order, _RADIX
        rows, cols = np.nonzero(self._table)
        counts = self._table[rows, cols]
        keys = np.empty(self._sorted_keys.size, dtype=np.int64)  # by row id
        keys[self._sorted_rows] = self._sorted_keys
        keys = keys[: len(self._table)]
        voices = np.searchsorted([v * radix ** (order + v) for v in range(4)], keys, side="right") - 1
        # each row's context digits, most significant first, padded with _RADIX to voice 3's order + 3 digits
        places = radix ** np.arange(order + 2, -1, -1)
        digits = (keys - voices * radix ** (order + voices)) * radix ** (3 - voices) // places[:, None] % radix
        digits[np.arange(order + 3)[:, None] >= order + voices] = radix
        context_ranks = voices * radix ** (order + 3) + places @ _TEXT_RANK[digits]
        tokens = self._digits[voices[rows], cols]
        cells = np.lexsort((_TEXT_RANK[tokens], context_ranks[rows]))
        rows, tokens, counts = rows[cells], tokens[cells], counts[cells]
        # each cell's text, ", [voice, [context], token, count]", NUL-padded: a row's head and context, the
        # token, then the count's decimal digits without leading zeros
        n = keys.size
        row_text = np.hstack([_ascii(b", [0, [", n), _TEXT[digits[0], 2:], *_TEXT[digits[1:]], _ascii(b"]", n)])
        row_text[:, 3] += voices.astype(np.uint8)  # the voice's digit
        decimal_places = _PLACES[_PLACES <= counts.max(initial=1)]
        decimal = (counts[:, None] // decimal_places % 10 + ord("0")).astype(np.uint8)
        decimal[counts[:, None] < decimal_places] = 0
        text = np.hstack([row_text[rows], _TEXT[tokens], _ascii(b", ", rows.size), decimal, _ascii(b"]", rows.size)])
        entries = "[" + text.tobytes().translate(None, b"\0").decode("ascii")[2:] + "]"
        payload = {
            "format": _SNAPSHOT_FORMAT,
            "order": self.order,
            "alpha": self.alpha,
            "vocabs": [list(vocab) for vocab in self.vocabs],
            "counts": None,
        }
        # the counts go in as text made from arrays, not as Python lists, so the line is not corpus.save_json's; it
        # is in its dialect, one line of sorted-key JSON. Imported here, as corpus imports this module
        from .corpus import json_line, save_lines

        save_lines([json_line(payload).replace('"counts": null', f'"counts": {entries}', 1)], path)
