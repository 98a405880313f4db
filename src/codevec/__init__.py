"""Syntactic path-context extraction and attention-based code embeddings
for semantic labeling of code snippets (method name prediction). Exports
the names README's "Library use" imports; the rest live in the modules."""

from .corpus import build_vocabs
from .metrics import evaluate
from .minij import parse_methods
from .paths import ExtractionLimits
from .pipeline import method_to_example
from .training import TrainConfig, train

__all__ = ["ExtractionLimits", "TrainConfig", "build_vocabs", "evaluate",
           "method_to_example", "parse_methods", "train"]
