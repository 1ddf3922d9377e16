import hypothesis.strategies as st
import pytest
from hypothesis import settings

from auggen.chorale import HOLD, REST, Chorale
from auggen.corpus import split, teacher_corpus
from auggen.features import FeatureDistribution
from auggen.grading import fit_reference

settings.register_profile("default", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("default")


@st.composite
def voices(draw, length: int, min_pitch: int = 36, max_pitch: int = 84):
    tokens = []
    for t in range(length):
        if t == 0 or tokens[-1] == REST:
            kind = draw(st.sampled_from(["note", "note", "rest"]))
        else:
            kind = draw(st.sampled_from(["note", "note", "rest", "hold", "hold"]))
        if kind == "note":
            tokens.append(draw(st.integers(min_pitch, max_pitch)))
        elif kind == "rest":
            tokens.append(REST)
        else:
            tokens.append(HOLD)
    return tuple(tokens)


@st.composite
def chorales(draw, min_length: int = 1, max_length: int = 10, min_pitch: int = 36, max_pitch: int = 84):
    """Arbitrary valid chorale; pitches leave +/-5 semitones of headroom."""
    length = draw(st.integers(min_length, max_length))
    body = tuple(draw(voices(length, min_pitch, max_pitch)) for _ in range(4))
    return Chorale(id=f"h{draw(st.integers(0, 999999))}", voices=body)


def ascending(start, length=8):
    """One strictly-rising line per voice: every Markov context is unique."""
    return Chorale(
        id=f"asc{start}",
        voices=tuple(tuple(start - 12 * v + i for i in range(length)) for v in range(4)),
    )


def once(chorales_) -> list[int]:
    """Draw counts that fit a model on each chorale exactly once."""
    return [1] * len(chorales_)


@st.composite
def distributions(draw, max_support: int = 8, name: str = "test"):
    """Discrete distribution with integer support and rational weights."""
    n = draw(st.integers(1, max_support))
    support = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    counts = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    total = sum(counts)
    support = sorted(support)
    return FeatureDistribution(name, tuple(float(x) for x in support), tuple(c / total for c in counts))


@pytest.fixture(scope="session")
def desk_corpus():
    return teacher_corpus(17, 80)


@pytest.fixture(scope="session")
def desk_split(desk_corpus):
    return split(desk_corpus, 0.8, 17)


@pytest.fixture(scope="session")
def desk_reference(desk_split):
    return fit_reference(desk_split.train)
