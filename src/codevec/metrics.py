"""Sub-token precision/recall/F1 scoring and whole-dataset evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import RawExample, Vocabs, encode_batches, split_subtokens
from .model import ModelParams, forward

UNK_SUBTOKEN = "unk"

# Examples per `forward` call when evaluating.
EVAL_BATCH = 32


def score_pair(predicted: str, true: str) -> tuple[int, int, int]:
    """(tp, fp, fn) over case-insensitive sub-token sets.

    An 'unk' sub-token never matches: on the true side it is always a
    false negative, on the predicted side a false positive.
    """
    pred = set(split_subtokens(predicted))
    ref = set(split_subtokens(true))
    common = (pred & ref) - {UNK_SUBTOKEN}
    return len(common), len(pred - common), len(ref - common)


@dataclass
class Metrics:
    """Micro-averaged sub-token counts over scored (predicted, true) pairs;
    precision, recall, F1 and exact match derive from them."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    count: int = 0
    exact: int = 0

    def add(self, predicted: str, true: str) -> tuple[int, int, int]:
        tp, fp, fn = score_pair(predicted, true)
        self.tp += tp
        self.fp += fp
        self.fn += fn
        self.count += 1
        if fp == 0 and fn == 0:
            self.exact += 1
        return tp, fp, fn

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        precision, recall = self.precision, self.recall
        return (2 * precision * recall / (precision + recall)
                if precision + recall else 0.0)

    @property
    def exact_match(self) -> float:
        return self.exact / self.count if self.count else 0.0

    def summary(self) -> str:
        return (f"P={self.precision:.4f} R={self.recall:.4f} F1={self.f1:.4f} "
                f"exact={self.exact_match:.4f} n={self.count}")


def evaluate_encoded(params: ModelParams, batches, dataset: list[RawExample],
                     vocabs: Vocabs, per_example: list | None = None) -> Metrics:
    """Score top-1 predictions over `dataset` from the (positions, batch)
    pairs of `corpus.encode_batches`, read once in order. An example in no
    batch, as one without contexts, counts as all-false-negative. The top-1
    tag is the first maximum of q: the lowest id wins ties, as in `model.top_k`.

    When `per_example` is a list, (true, predicted, tp, fp, fn) tuples are
    appended to it in input order.
    """
    predictions = [""] * len(dataset)
    for positions, batch in batches:
        q = forward(params, batch).q
        for i, tag in zip(positions, np.argmax(q, axis=-1).tolist()):
            predictions[i] = vocabs.tags.entry(tag)
    metrics = Metrics()
    for predicted, raw in zip(predictions, dataset):
        counts = metrics.add(predicted, raw.label)
        if per_example is not None:
            per_example.append((raw.label, predicted, *counts))
    return metrics


def evaluate(params: ModelParams, dataset: list[RawExample], vocabs: Vocabs,
             seed: int = 0, per_example: list | None = None) -> Metrics:
    """Evaluate a trained model over a raw dataset, encoded with the
    model's ablation (deterministic: context subsampling uses per-example
    seeded generators); see `evaluate_encoded` for `per_example`."""
    batches = encode_batches(dataset, range(len(dataset)), EVAL_BATCH, vocabs,
                             params.dims.k_max, seed, params.ablation)
    return evaluate_encoded(params, batches, dataset, vocabs, per_example)
