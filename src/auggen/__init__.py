"""Self-augmenting training for four-voice chorale generation.

A generative model's training set is continuously augmented, each epoch,
with its own outputs that pass a fixed external grading function's quality
threshold and a uniqueness test. The package ships the domain types, the
six-feature Wasserstein critic, an order-k Markov reference model, the
training loop, and an experiment harness comparing the three threshold
regimes (quantile threshold, accept-none, accept-all).
"""

from .chorale import HOLD, REST, Chorale, canonical_key, parse_chorale, serialize_chorale, validate
from .corpus import Corpus, Split, load_corpus, save_corpus, split, teacher_corpus
from .features import DEFAULT_FEATURES, FeatureDistribution
from .grading import GradeBatch, ReferenceModel, Threshold, fit_reference, grade, grade_quantile
from .loop import RunResult, run, save_run
from .model import MarkovModel
from .experiment import ExperimentConfig, PROFILES, RegimeSummary, compare

__version__ = "0.1.0"

__all__ = [
    "HOLD",
    "REST",
    "Chorale",
    "Corpus",
    "Split",
    "RunResult",
    "MarkovModel",
    "FeatureDistribution",
    "GradeBatch",
    "ReferenceModel",
    "Threshold",
    "ExperimentConfig",
    "PROFILES",
    "RegimeSummary",
    "DEFAULT_FEATURES",
    "canonical_key",
    "parse_chorale",
    "serialize_chorale",
    "validate",
    "load_corpus",
    "save_corpus",
    "split",
    "teacher_corpus",
    "fit_reference",
    "grade",
    "grade_quantile",
    "run",
    "save_run",
    "compare",
    "__version__",
]
