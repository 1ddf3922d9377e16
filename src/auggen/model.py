"""Generative-model contract and the order-k Markov reference model.

The training loop depends only on :class:`GenerativeModel`; any sequence
model that can rebuild itself from the multiset the loop draws each epoch,
sample a chorale, and score held-out chorales can be plugged in. The shipped
implementation is :class:`MarkovModel`, an additive-smoothed count model
over the token grid whose context for voice ``v`` at timestep ``t`` is the
``order`` previous tokens of voice ``v`` followed by the timestep-``t``
tokens of the voices above it (soprano first).
"""

from __future__ import annotations

import abc
import json
import logging
import math
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .chorale import HOLD, REST, Chorale, InvalidChoraleError, Token, validate

log = logging.getLogger(__name__)

START = "^"  # context padding before timestep 0; never emitted

Context = tuple[Token, ...]

_SNAPSHOT_FORMAT = "auggen-markov-v1"


class GenerativeModel(abc.ABC):
    """Behavior contract the training loop relies on."""

    @abc.abstractmethod
    def fit(self, multiset: Sequence[Chorale]) -> None:
        """Rebuild the model from an epoch's multiset; a chorale drawn n times counts n times."""

    @abc.abstractmethod
    def sample(self, length: int, rng: np.random.Generator, chorale_id: str = "sample") -> Chorale:
        """Draw one chorale of ``length`` timesteps; output always validates."""

    @abc.abstractmethod
    def mean_nll(self, chorales: Sequence[Chorale]) -> float:
        """Mean negative log-likelihood per (voice, timestep) position."""

    @abc.abstractmethod
    def snapshot(self) -> object:
        """Opaque immutable state for :meth:`restore`."""

    @abc.abstractmethod
    def restore(self, state: object) -> None:
        """Reset the model to a previously captured snapshot."""

    @abc.abstractmethod
    def save(self, path) -> None:
        """Serialize the model to a single versioned file."""


def _token_sort_key(tok: Token) -> tuple[int, int | str]:
    if isinstance(tok, int):
        return (0, tok)
    return (1, tok)


def _multiplicities(chorales: Sequence[Chorale]) -> dict[int, tuple[Chorale, int]]:
    """Each distinct chorale object (by identity, first-seen order) with its multiplicity, keyed by ``id``."""
    counts = Counter(map(id, chorales))
    first = {id(c): c for c in chorales}
    return {key: (first[key], n) for key, n in counts.items()}


def iter_token_events(chorale: Chorale, order: int) -> Iterator[tuple[int, Context, Token]]:
    """Yield (voice, context, token) for every grid position of ``chorale``."""
    voices = chorale.voices
    padded = [(START,) * order + voice for voice in voices]
    for t in range(chorale.length):
        cross: Context = ()
        for v in range(len(voices)):
            context = padded[v][t : t + order] + cross
            yield v, context, voices[v][t]
            cross = cross + (voices[v][t],)


class MarkovModel(GenerativeModel):
    """Order-k count model with additive smoothing over the chorale grid.

    The per-voice vocabulary is fixed at construction; counts can be
    rebuilt at will with :meth:`fit` (the training loop rebuilds them every
    epoch from the epoch's sampled multiset). A freshly constructed model
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
            cleaned.append(tuple(tokens))
        self.order = order
        self.alpha = float(alpha)
        self.vocabs: tuple[tuple[Token, ...], ...] = tuple(cleaned)
        self._index = [{tok: i for i, tok in enumerate(vocab)} for vocab in self.vocabs]
        self._counts: list[dict[Context, dict[Token, int]]] = [{} for _ in range(4)]
        self._totals: list[dict[Context, int]] = [{} for _ in range(4)]

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

    def fit(self, multiset: Sequence[Chorale]) -> None:
        """Replace counts with exact event counts over ``multiset``.

        Each distinct chorale object is walked once and its events count as
        often as it occurs. The vocabulary stays fixed: chorales using
        tokens outside it are rejected.
        """
        if not multiset:
            raise ValueError("cannot fit on an empty multiset")
        counts: list[dict[Context, dict[Token, int]]] = [{} for _ in range(4)]
        totals: list[dict[Context, int]] = [{} for _ in range(4)]
        for chorale, n in _multiplicities(multiset).values():
            for v, context, tok in iter_token_events(chorale, self.order):
                if tok not in self._index[v]:
                    raise ValueError(f"chorale {chorale.id!r}: token {tok!r} not in voice {v} vocabulary")
                by_tok = counts[v].setdefault(context, {})
                by_tok[tok] = by_tok.get(tok, 0) + n
                totals[v][context] = totals[v].get(context, 0) + n
        self._counts = counts
        self._totals = totals

    def next_token_dist(self, voice: int, context: Context) -> np.ndarray:
        """P(token | context) over the voice vocabulary; sums to 1."""
        vocab = self.vocabs[voice]
        probs = np.full(len(vocab), self.alpha, dtype=float)
        by_tok = self._counts[voice].get(context)
        if by_tok:
            for tok, count in by_tok.items():
                probs[self._index[voice][tok]] += count
        total = self._totals[voice].get(context, 0) + self.alpha * len(vocab)
        return probs / total

    def token_logprob(self, voice: int, context: Context, tok: Token) -> float:
        """log P(token | context); tokens outside the vocabulary score as
        zero-count events so held-out scoring stays finite."""
        count = self._counts[voice].get(context, {}).get(tok, 0)
        total = self._totals[voice].get(context, 0)
        vocab_size = len(self.vocabs[voice])
        return float(np.log((count + self.alpha) / (total + self.alpha * vocab_size)))

    def sample(self, length: int, rng: np.random.Generator, chorale_id: str = "sample") -> Chorale:
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        history: list[list[Token]] = [[START] * self.order for _ in range(4)]
        for t in range(length):
            step: Context = ()
            for v in range(4):
                context = tuple(history[v][-self.order :]) + step
                probs = self.next_token_dist(v, context)
                if t == 0 or history[v][-1] == REST:
                    hold_idx = self._index[v].get(HOLD)
                    if hold_idx is not None:
                        probs = probs.copy()
                        probs[hold_idx] = 0.0
                mass = probs.sum()
                if mass <= 0.0:
                    # every admissible token was masked out; rest is always legal
                    log.warning("all token mass masked for voice %d at t=%d; emitting REST", v, t)
                    tok: Token = REST
                else:
                    cdf = np.cumsum(probs / mass)
                    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
                    tok = self.vocabs[v][min(idx, len(self.vocabs[v]) - 1)]
                history[v].append(tok)
                step = step + (tok,)
        voices = tuple(tuple(h[self.order :]) for h in history)
        chorale = Chorale(id=chorale_id, voices=voices)
        violations = validate(chorale)
        if violations:
            raise InvalidChoraleError(chorale_id, violations)
        return chorale

    def mean_nll(self, chorales: Sequence[Chorale]) -> float:
        """Mean −ln P(token | context) over all grid positions.

        Each distinct object is scored once, and the per-draw scores are
        summed in draw order.
        """
        if not chorales:
            raise ValueError("cannot score an empty corpus")
        scores: dict[int, tuple[float, int]] = {}
        for key, (chorale, _) in _multiplicities(chorales).items():
            acc = 0.0
            n = 0
            for v, context, tok in iter_token_events(chorale, self.order):
                acc -= self.token_logprob(v, context, tok)
                n += 1
            scores[key] = (acc, n)
        total = 0.0
        positions = 0
        for chorale in chorales:
            acc, n = scores[id(chorale)]
            total += acc
            positions += n
        return total / positions

    # fit replaces both tables wholesale and nothing mutates them, so snapshots share them
    def snapshot(self) -> object:
        return {"counts": self._counts, "totals": self._totals}

    def restore(self, state: object) -> None:
        if not (isinstance(state, dict) and "counts" in state and "totals" in state):
            raise TypeError(f"not a MarkovModel snapshot: {type(state).__name__}")
        self._counts = state["counts"]
        self._totals = state["totals"]

    def save(self, path: str | Path) -> None:
        entries = []
        for v in range(4):
            for context, by_tok in self._counts[v].items():
                for tok, count in by_tok.items():
                    entries.append([v, list(context), tok, count])
        entries.sort(key=lambda e: (e[0], [str(x) for x in e[1]], str(e[2])))
        payload = {
            "format": _SNAPSHOT_FORMAT,
            "order": self.order,
            "alpha": self.alpha,
            "vocabs": [list(vocab) for vocab in self.vocabs],
            "counts": entries,
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "MarkovModel":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != _SNAPSHOT_FORMAT:
            raise ValueError(f"unrecognized model format {payload.get('format')!r}")
        model = cls(order=payload["order"], alpha=payload["alpha"], vocabs=[tuple(v) for v in payload["vocabs"]])
        for v, raw_context, tok, count in payload["counts"]:
            context = tuple(raw_context)
            by_tok = model._counts[v].setdefault(context, {})
            by_tok[tok] = count
            model._totals[v][context] = model._totals[v].get(context, 0) + count
        return model
