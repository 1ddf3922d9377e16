"""Independent oracles the tests check production code against.

These deliberately re-derive results through different algorithms than the
implementations they verify.
"""

from itertools import combinations

from auggen.chorale import HOLD, REST, SILENT, realize
from auggen.model import iter_token_events


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
    grid = realize(chorale)
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
