"""Independent oracles the tests check production code against.

These deliberately re-derive results through different algorithms than the
implementations they verify. The module also holds the readers and views
that only tests need: ``threshold_from_json``, ``load_model``, ``extract``
and the distribution builders ``from_values``, ``point_distribution`` and
``empty_distribution``.
"""

import csv
import io
import json
import math
from collections import Counter
from itertools import combinations
from pathlib import Path
from typing import Iterable

import numpy as np

from auggen.chorale import HOLD, MAX_PITCH, MIN_PITCH, N_VOICES, REST, SILENT, Chorale, RealizedGrid
from auggen.corpus import (
    _CONSONANT_CLASSES,
    _FOLLOW_HOLD_PROB,
    _HOLD_PROB,
    _MAJOR_SCALE,
    _MAX_LEAP,
    _N_SEED_WALKS,
    _REST_PROB,
    _STEP_WEIGHTS,
    _VOICE_RANGES,
    teacher_model,
)
from auggen.experiment import epoch_grades
from auggen.features import REGISTRY, FeatureDistribution, GridBatch, realize_batch
from auggen.grading import GradeBatch, Threshold, wasserstein1
from auggen.model import _SNAPSHOT_FORMAT, START, MarkovModel
from auggen.rng import stream


def reference_validate(chorale) -> list[str]:
    """:func:`validate` token by token, on anything with ``voices``: a tuple of token tuples, valid or not."""
    violations: list[str] = []
    voices = chorale.voices
    if len(voices) != N_VOICES:
        violations.append(f"expected {N_VOICES} voices, got {len(voices)}")
        return violations
    length = len(voices[0])
    if length < 1:
        violations.append("voices must have at least 1 timestep")
        return violations
    for v, voice in enumerate(voices):
        if len(voice) != length:
            violations.append(f"voice {v}: length {len(voice)} != voice 0 length {length}")
    if violations:
        return violations
    for v, voice in enumerate(voices):
        for t, tok in enumerate(voice):
            if isinstance(tok, bool):
                violations.append(f"voice {v}: unknown token {tok!r} at timestep {t}")
            elif isinstance(tok, int):
                if not MIN_PITCH <= tok <= MAX_PITCH:
                    violations.append(f"voice {v}: pitch {tok} out of range at timestep {t}")
            elif tok == HOLD:
                if t == 0:
                    violations.append(f"voice {v}: HOLD at timestep 0")
                elif voice[t - 1] == REST:
                    violations.append(f"voice {v}: HOLD after REST at timestep {t}")
            elif tok != REST:
                violations.append(f"voice {v}: unknown token {tok!r} at timestep {t}")
    return violations


def reference_realize(chorale: Chorale) -> RealizedGrid:
    """:func:`realize` token by token: each voice carries its sounding pitch through holds, a rest clears it."""
    length = chorale.length
    pitches = np.full((N_VOICES, length), SILENT, dtype=np.int16)
    onsets = np.zeros((N_VOICES, length), dtype=bool)
    for v, voice in enumerate(chorale.voices):
        sounding = SILENT
        for t, tok in enumerate(voice):
            if tok == REST:
                sounding = SILENT
            elif tok != HOLD:
                sounding = tok
                onsets[v, t] = True
            pitches[v, t] = sounding
    pitches.setflags(write=False)
    onsets.setflags(write=False)
    return RealizedGrid(pitches=pitches, onsets=onsets)


def reference_realize_batch(chorales) -> GridBatch:
    """:func:`realize_batch` by joining the :func:`reference_realize` grids, each followed by a SILENT column."""
    grids = [reference_realize(chorale) for chorale in chorales]
    lengths = np.array([grid.length for grid in grids], dtype=np.intp)
    silent, no_onset = np.full((N_VOICES, 1), SILENT, dtype=np.int16), np.zeros((N_VOICES, 1), dtype=bool)
    return GridBatch(
        pitches=np.concatenate([silent[:, :0], *(part for grid in grids for part in (grid.pitches, silent))], axis=1),
        onsets=np.concatenate([no_onset[:, :0], *(part for grid in grids for part in (grid.onsets, no_onset))], axis=1),
        owner=np.repeat(np.arange(lengths.size), lengths + 1),
        starts=np.cumsum(lengths + 1) - (lengths + 1),
        lengths=lengths,
    )


def reference_feature_dump(batch: GradeBatch) -> str:
    """The ``features.csv`` rows of a grade batch, written point by point through ``csv.writer``."""
    out = io.StringIO()
    dump = csv.writer(out, lineterminator="\n")
    width = len(batch.feature_names)
    points = zip(batch.point_segment.tolist(), batch.point_value.tolist(), batch.point_weight.tolist())
    for segment, value, weight in points:
        chorale, feature = divmod(segment, width)
        dump.writerow([batch.ids[chorale], batch.feature_names[feature], repr(value), repr(weight)])
    return out.getvalue()


def tokens_from_grid(grid) -> tuple[tuple, ...]:
    """Inverse of :func:`realize`: first timestep of each sustained run is a note."""
    voices = []
    for v in range(grid.pitches.shape[0]):
        voice = []
        for t in range(grid.length):
            pitch = int(grid.pitches[v, t])
            if grid.onsets[v, t]:
                voice.append(pitch)
            elif pitch == SILENT:
                voice.append(REST)
            else:
                voice.append(HOLD)
        voices.append(tuple(voice))
    return tuple(voices)


def iter_token_events(chorale: Chorale, order: int):
    """Yield (voice, context, token) for every grid position of ``chorale``, timestep by timestep, soprano
    first: the context is the voice's ``order`` previous tokens (START before timestep 0), then the
    timestep's tokens of the voices above it."""
    voices = chorale.voices
    padded = [(START,) * order + voice for voice in voices]
    for t in range(chorale.length):
        cross = ()
        for v in range(len(voices)):
            context = padded[v][t : t + order] + cross
            yield v, context, voices[v][t]
            cross = cross + (voices[v][t],)


def replay_counts(multiset, order: int) -> tuple[list[dict], list[dict]]:
    """Per-voice Markov (counts, totals) by replaying every draw, position by position."""
    counts = [{} for _ in range(4)]
    totals = [{} for _ in range(4)]
    for chorale in multiset:
        for v, context, tok in iter_token_events(chorale, order):
            by_tok = counts[v].setdefault(context, {})
            by_tok[tok] = by_tok.get(tok, 0) + 1
            totals[v][context] = totals[v].get(context, 0) + 1
    return counts, totals


_KEY_TOKENS = (*range(128), HOLD, REST, START)  # a context key's base-131 digit d stands for _KEY_TOKENS[d]


def context_key(voice: int, context) -> int:
    """The int64 key of voice ``voice``'s ``context`` (``order + voice`` tokens): its base-131 digits are the
    voice, then each token's place in ``_KEY_TOKENS``."""
    key = voice
    for tok in context:
        key = key * 131 + _KEY_TOKENS.index(tok)
    return key


def key_context(order: int, key: int) -> tuple[int, tuple]:
    """Inverse of :func:`context_key`: (voice, context) of a key."""
    voice = max(v for v in range(4) if key >= v * 131 ** (order + v))
    digits = []
    for _ in range(order + voice):
        key, digit = divmod(key, 131)
        digits.append(digit)
    assert key == voice
    return voice, tuple(_KEY_TOKENS[digit] for digit in reversed(digits))


def interned_contexts(model) -> list[tuple[int, tuple]]:
    """(voice, context) of each row of a MarkovModel, in row order."""
    return [key_context(model.order, key) for key in model._rows]  # row ids are handed out in insertion order


def interned_row(model, voice: int, context):
    """Row id of voice ``voice``'s ``context``, or None if the model never interned it."""
    if len(context) != model.order + voice or not all(tok in _KEY_TOKENS for tok in context):
        return None
    return model._rows.get(context_key(voice, context))


def nonzero_cells(model):
    """(voice, context, token, count) for every nonzero count of a MarkovModel, in row order."""
    contexts = interned_contexts(model)
    rows, cols = np.nonzero(model._table)
    for row, col, count in zip(rows.tolist(), cols.tolist(), model._table[rows, cols].tolist()):
        v, context = contexts[row]
        yield v, context, model.vocabs[v][col], count


def reference_save(model, path) -> None:
    """``MarkovModel.save`` by sorting text keys: ``(voice, [str(x) for x in context], str(token))`` joined
    with NUL, which sorts below every character of a token's text."""
    keys, entries = [], []
    for v, context, tok, count in nonzero_cells(model):
        keys.append("\0".join([str(v), *map(str, context), str(tok)]))
        entries.append([v, list(context), tok, count])
    entries = [entries[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]
    payload = {
        "format": _SNAPSHOT_FORMAT,
        "order": model.order,
        "alpha": model.alpha,
        "vocabs": [list(vocab) for vocab in model.vocabs],
        "counts": entries,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def count_tables(model) -> tuple[list[dict], list[dict]]:
    """Dict view of a fitted MarkovModel's count table and row totals, nonzero entries only,
    in the per-voice ``{context: {token: count}}`` / ``{context: total}`` shape of :func:`replay_counts`."""
    counts = [{} for _ in range(4)]
    for v, context, tok, count in nonzero_cells(model):
        counts[v].setdefault(context, {})[tok] = count
    totals = [{} for _ in range(4)]
    for row, (v, context) in enumerate(interned_contexts(model)):
        if row < len(model._row_totals) and model._row_totals[row]:
            totals[v][context] = int(model._row_totals[row])
    return counts, totals


def reference_next_token_dist(model, voice: int, context) -> np.ndarray:
    """P(token | context) as a numpy formula: ``alpha`` plus the row's counts, over the row total plus
    ``alpha`` per token; a context the counts do not cover reads as zero counts."""
    size = len(model.vocabs[voice])
    probs = np.full(size, model.alpha, dtype=float)
    total = 0
    row = interned_row(model, voice, context)
    if row is not None and row < len(model._row_totals):
        probs += model._table[row, :size]
        total = int(model._row_totals[row])
    return probs / (total + model.alpha * size)


def token_logprob(model, voice: int, context, tok) -> float:
    """log P(token | context) of a MarkovModel, one event at a time: a context the counts do not cover, or
    a token outside the vocabulary, scores as a zero-count event, so held-out scoring stays finite."""
    count = total = 0
    row = interned_row(model, voice, context)
    if row is not None and row < len(model._row_totals):
        total = int(model._row_totals[row])
        vocab = model.vocabs[voice]
        count = int(model._table[row, vocab.index(tok)]) if tok in vocab else 0
    vocab_size = len(model.vocabs[voice])
    return float(np.log((count + model.alpha) / (total + model.alpha * vocab_size)))


def reference_sample(model, length: int, rng) -> Chorale:
    """Per-token sampler: one ``rng.random()`` per position, a fresh
    :func:`reference_next_token_dist` with HOLD masked where it cannot follow, then
    ``np.cumsum`` and ``np.searchsorted``. No caching."""
    history = [[START] * model.order for _ in range(4)]
    for t in range(length):
        step = ()
        for v in range(4):
            context = tuple(history[v][-model.order :]) + step
            probs = reference_next_token_dist(model, v, context)
            if (t == 0 or history[v][-1] == REST) and HOLD in model.vocabs[v]:
                probs[model.vocabs[v].index(HOLD)] = 0.0
            cdf = np.cumsum(probs / probs.sum())
            idx = int(np.searchsorted(cdf, rng.random(), side="right"))
            tok = model.vocabs[v][min(idx, len(model.vocabs[v]) - 1)]
            history[v].append(tok)
            step = step + (tok,)
    return Chorale(id="reference", voices=tuple(tuple(h[model.order :]) for h in history))

def recompute_epoch_stats(epoch_logs_csv) -> dict[tuple[str, int], tuple[float, ...]]:
    """Per-epoch grade quintuples of an ``epoch_logs.csv``, keyed ``("", epoch)``, through numpy's
    inverted-CDF quantile: the nearest-rank definition of ``figure1.csv``, reached through different code."""
    out = {}
    for epoch, values in epoch_grades(epoch_logs_csv).items():
        arr = np.asarray(values)
        out[("", epoch)] = (
            float(arr.min()),
            float(np.quantile(arr, 0.25, method="inverted_cdf")),
            float(np.quantile(arr, 0.5, method="inverted_cdf")),
            float(np.quantile(arr, 0.75, method="inverted_cdf")),
            float(arr.max()),
        )
    return out


def transport_cost(p, q) -> float:
    """Exact minimum-cost transport between two 1-D discrete distributions.

    Greedy matching over the sorted atoms, which is optimal on the line
    (the optimal coupling is monotone).
    """
    left = [(x, w) for x, w in zip(p.support, p.weights)]
    right = [(x, w) for x, w in zip(q.support, q.weights)]
    i = j = 0
    cost = 0.0
    li = list(left)
    rj = list(right)
    while i < len(li) and j < len(rj):
        (xp, wp), (xq, wq) = li[i], rj[j]
        moved = min(wp, wq)
        cost += moved * abs(xp - xq)
        li[i] = (xp, wp - moved)
        rj[j] = (xq, wq - moved)
        if li[i][1] <= 1e-15:
            i += 1
        if rj[j][1] <= 1e-15:
            j += 1
    return cost


def brute_parallel_count(chorale) -> tuple[int, int]:
    """(opportunities, errors) by enumerating every timestep pair and voice pair."""
    grid = reference_realize(chorale)
    length = grid.length
    opportunities = 0
    errors = 0
    for t in range(length):
        for u in range(length):
            if u != t + 1:
                continue
            for i, j in combinations(range(4), 2):
                a0, a1 = int(grid.pitches[i, t]), int(grid.pitches[i, u])
                b0, b1 = int(grid.pitches[j, t]), int(grid.pitches[j, u])
                if SILENT in (a0, a1, b0, b1):
                    continue
                opportunities += 1
                both_moved = a0 != a1 and b0 != b1
                if both_moved and abs(a0 - b0) % 12 in (0, 7) and abs(a0 - b0) % 12 == abs(a1 - b1) % 12:
                    errors += 1
    return opportunities, errors


def token_walk_parallel_errors(chorale) -> list[float]:
    """[errors per 16 timesteps] from :func:`brute_parallel_count`, or [] when there is no opportunity."""
    opportunities, errors = brute_parallel_count(chorale)
    return [errors * 16.0 / chorale.length] if opportunities else []


def token_walk_durations(chorale) -> list[float]:
    """Note durations in sixteenths, walking each voice's tokens: an onset plus its holds."""
    durations = []
    for voice in chorale.voices:
        length = len(voice)
        for t, tok in enumerate(voice):
            if isinstance(tok, int):
                end = t + 1
                while end < length and voice[end] == HOLD:
                    end += 1
                durations.append(float(end - t))
    return durations


def _sounding(voice) -> list:
    """The pitch each token leaves sounding: a note starts it, a hold keeps it, a rest ends it (None)."""
    sounding = []
    for tok in voice:
        if tok == REST:
            sounding.append(None)
        elif tok == HOLD:
            sounding.append(sounding[-1])
        else:
            sounding.append(tok)
    return sounding


def token_walk_pitches(chorale) -> list[float]:
    """Pitch of every note token, voice by voice."""
    return [float(tok) for voice in chorale.voices for tok in voice if isinstance(tok, int)]


def token_walk_harmonic_intervals(chorale) -> list[float]:
    """Absolute gap of each adjacent voice pair (S-A, A-T, T-B) at every timestep where both sound."""
    sounding = [_sounding(voice) for voice in chorale.voices]
    return [
        float(abs(a - b))
        for upper, lower in zip(sounding, sounding[1:])
        for a, b in zip(upper, lower)
        if a is not None and b is not None
    ]


def token_walk_melodic_intervals(chorale) -> list[float]:
    """Signed step between consecutive note tokens of each voice, rests and holds skipped."""
    steps = []
    for voice in chorale.voices:
        notes = [tok for tok in voice if isinstance(tok, int)]
        steps.extend(float(b - a) for a, b in zip(notes, notes[1:]))
    return steps


def token_walk_voice_crossing(chorale) -> list[float]:
    """[crossed timesteps / length], or [] when no two voices ever sound together."""
    columns = list(zip(*(_sounding(voice) for voice in chorale.voices)))
    comparable = crossed = 0
    for column in columns:
        sounding = [p for p in column if p is not None]  # still ordered from soprano down
        if len(sounding) < 2:
            continue
        comparable += 1
        if any(lower > higher for higher, lower in combinations(sounding, 2)):
            crossed += 1
    return [crossed / len(columns)] if comparable else []


TOKEN_WALKS = {
    "pitch": token_walk_pitches,
    "rhythm": token_walk_durations,
    "harmonic_interval": token_walk_harmonic_intervals,
    "melodic_interval": token_walk_melodic_intervals,
    "parallel_errors": token_walk_parallel_errors,
    "voice_crossing": token_walk_voice_crossing,
}


def reference_grade(chorale, reference) -> tuple[dict[str, float], float]:
    """(distances, total) of one chorale, feature by feature: token-walk events,
    :func:`from_values`, then ``wasserstein1`` or ``p_empty``."""
    distances = {}
    total = 0.0
    for name in reference.feature_names:
        dist = from_values(name, TOKEN_WALKS[name](chorale))
        d = reference.p_empty if dist.is_empty else wasserstein1(dist, reference.references[name])
        distances[name] = d
        total += reference.weights[name] * d
    return distances, total


def threshold_from_json(payload: dict) -> Threshold:
    """Inverse of ``Threshold.to_json``, infinities included."""
    raw = payload["value"]
    value = float(raw) if not isinstance(raw, str) else {"inf": math.inf, "-inf": -math.inf}[raw]
    return Threshold(
        value=value,
        label=payload["label"],
        quantile=payload.get("quantile"),
        corpus_digest=payload.get("corpus_digest"),
    )


def load_model(path) -> MarkovModel:
    """Inverse of ``MarkovModel.save``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != _SNAPSHOT_FORMAT:
        raise ValueError(f"unrecognized model format {payload.get('format')!r}")
    model = MarkovModel(order=payload["order"], alpha=payload["alpha"], vocabs=[tuple(v) for v in payload["vocabs"]])
    rows = model._rows
    cells = [
        (rows.setdefault(context_key(v, context), len(rows)), model.vocabs[v].index(tok), n)
        for v, context, tok, n in payload["counts"]
    ]
    table = np.zeros((len(rows), model._width), dtype=np.int32)
    for row, col, n in cells:
        table[row, col] = n
    model.restore({"table": table, "totals": table.sum(axis=1, dtype=np.int64)})
    return model


def from_values(name: str, values: Iterable[float]) -> FeatureDistribution:
    """Empirical distribution of ``values``; duplicates merge into weight."""
    counts = Counter(float(v) for v in values)
    if not counts:
        return empty_distribution(name)
    total = sum(counts.values())
    support = tuple(sorted(counts))
    return FeatureDistribution(name, support, tuple(counts[x] / total for x in support))


def point_distribution(name: str, value: float) -> FeatureDistribution:
    return FeatureDistribution(name, (float(value),), (1.0,))


def empty_distribution(name: str) -> FeatureDistribution:
    return FeatureDistribution(name, (), ())


def extract(chorale, name: str) -> FeatureDistribution:
    """The distribution of feature ``name`` over one chorale's events, through the production extractor."""
    return from_values(name, REGISTRY[name].extractor(realize_batch((chorale,)))[0].tolist())


def _voice_pitch_pool(low: int, high: int) -> list[int]:
    return [p for p in range(low, high + 1) if p % 12 in _MAJOR_SCALE]


def step_weight_total() -> float:
    """The soprano step weights summed term by term from 0.0, as Python 3.11's ``sum`` adds floats."""
    total = 0.0
    for weight in _STEP_WEIGHTS:
        total += weight
    return total


def _draw_step(rng) -> int:
    total = step_weight_total()
    pick = rng.random()
    cdf = 0.0
    for step, weight in zip(range(-2, 3), _STEP_WEIGHTS):
        cdf += weight / total
        if pick < cdf:
            return step
    return 0


def _support_pitch(pool: list[int], prev: int | None, soprano: int | None,
                   upper_motion: list[tuple[int | None, int | None]],
                   ceiling: int | None, max_leap: int, rng) -> int:
    """Pick a lower-voice pitch: near the previous one, consonant with the
    soprano without moving in parallel perfect intervals against any upper
    voice, and not above the voice directly above; constraints relax in
    that order if nothing qualifies."""

    def makes_parallel(p: int) -> bool:
        if prev is None or p == prev:
            return False
        for upper_prev, upper_now in upper_motion:
            if upper_prev is None or upper_now is None or upper_prev == upper_now:
                continue
            before = abs(upper_prev - prev) % 12
            if before in (0, 7) and before == abs(upper_now - p) % 12:
                return True
        return False

    def admissible(require_leap: bool, require_consonance: bool) -> list[int]:
        out = []
        for p in pool:
            if ceiling is not None and p > ceiling:
                continue
            if require_leap and prev is not None and abs(p - prev) > max_leap:
                continue
            if require_consonance:
                if soprano is not None and abs(soprano - p) % 12 not in _CONSONANT_CLASSES:
                    continue
                if makes_parallel(p):
                    continue
            out.append(p)
        return out

    for require_leap, require_consonance in ((True, True), (False, True), (True, False), (False, False)):
        candidates = admissible(require_leap, require_consonance)
        if candidates:
            return candidates[int(rng.integers(0, len(candidates)))]
    return pool[int(rng.integers(0, len(pool)))]


def reference_teacher_walk(length: int, rng) -> Chorale:
    """One teacher walk, each lower-voice pitch filtered from its pool pitch by pitch."""
    pools = [_voice_pitch_pool(low, high) for low, high in _VOICE_RANGES]
    voices: list[list] = [[] for _ in range(4)]
    sounding: list[int | None] = [None] * 4
    sop_idx = len(pools[0]) // 2

    for t in range(length):
        previous = list(sounding)
        roll = rng.random()
        if roll < _REST_PROB:
            sop_tok = REST
        elif t > 0 and voices[0][-1] != REST and roll < _REST_PROB + _HOLD_PROB:
            sop_tok = HOLD
        else:
            sop_idx = min(max(sop_idx + _draw_step(rng), 0), len(pools[0]) - 1)
            sop_tok = pools[0][sop_idx]
        voices[0].append(sop_tok)
        sounding[0] = None if sop_tok == REST else (sounding[0] if sop_tok == HOLD else sop_tok)
        soprano_moved = isinstance(sop_tok, int)

        for v in range(1, 4):
            can_hold = t > 0 and voices[v][-1] != REST and sounding[v] is not None
            if rng.random() < _REST_PROB:
                tok = REST
            elif can_hold and not soprano_moved and rng.random() < _FOLLOW_HOLD_PROB:
                tok = HOLD
            else:
                upper_motion = [(previous[u], sounding[u]) for u in range(v)]
                tok = _support_pitch(
                    pools[v], sounding[v], sounding[0], upper_motion, sounding[v - 1], _MAX_LEAP, rng
                )
            voices[v].append(tok)
            sounding[v] = None if tok == REST else (sounding[v] if tok == HOLD else tok)

    return Chorale(id="walk", voices=tuple(tuple(v) for v in voices))


def reference_teacher_walks(rng) -> list[Chorale]:
    """The teacher's 400 seed walks through :func:`reference_teacher_walk`, 32 to 48 timesteps long."""
    lo, hi = 32, 48
    return [reference_teacher_walk(lo + (i * (hi - lo)) // (_N_SEED_WALKS - 1), rng) for i in range(_N_SEED_WALKS)]


class RawDraws:
    """``random()`` and ``integers(low, high)`` as a numpy ``Generator`` makes them from the raw 64-bit output
    of ``rng.bit_generator``, which may be a stub serving fixed values; one raw value is read at a time.

    ``random()`` is the top 53 bits of one raw value, scaled by 2**-53. ``integers(0, k)`` is numpy's 32-bit
    Lemire draw: it takes the low half of a raw value and keeps the high half (``high``) for the next such draw,
    multiplies it by ``k`` and draws again while the product's low 32 bits are below ``(2**32 - k) % k``;
    ``k == 1`` takes nothing. ``rejected`` lists, for each rejected half, the stream index of its raw value.
    """

    _HALF = 0xFFFFFFFF

    def __init__(self, rng):
        self.bits = rng.bit_generator
        self.high: int | None = None
        self.read = 0  # raw values read
        self.rejected: list[int] = []

    def raw(self) -> int:
        self.read += 1
        return int(self.bits.random_raw(1)[0])

    def random(self) -> float:
        return (self.raw() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        k = high - low
        if not 1 <= k <= self._HALF:
            raise ValueError(f"need 1 <= high - low < 2**32, got {k}")
        if k == 1:
            return low
        while True:
            if self.high is None:
                value = self.raw()
                half, self.high = value & self._HALF, value >> 32
            else:
                half, self.high = self.high, None
            product = half * k
            if product & self._HALF >= (self._HALF + 1 - k) % k:
                return low + (product >> 32)
            self.rejected.append(self.read - 1)


def reference_teacher_corpus(seed: int, n: int, length_range: tuple[int, int]) -> list[Chorale]:
    """The teacher corpus chorale by chorale: chorale ``i`` draws ``t_min`` plus an offset into the length
    range, then its tokens, from ``stream(seed, "teacher", "sample", i)``."""
    t_min, t_max = length_range
    teacher = teacher_model(seed)
    chorales = []
    for i in range(n):
        rng = stream(seed, "teacher", "sample", i)
        length = t_min + int(rng.integers(0, t_max - t_min + 1))
        chorales.append(teacher.sample(length, rng, chorale_id=f"teacher-{i:04d}"))
    return chorales
