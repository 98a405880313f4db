"""Sub-token precision/recall/F1 scoring and whole-dataset evaluation."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import (ABLATIONS, AblationMask, EncodedExample, RawExample,
                     Vocabs, encode_dataset, split_subtokens)
from .errors import DatasetFormatError
from .model import ModelParams, predict_topk

UNK_SUBTOKEN = "unk"


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
    precision: float
    recall: float
    f1: float
    exact_match: float
    count: int
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def summary(self) -> str:
        return (f"P={self.precision:.4f} R={self.recall:.4f} F1={self.f1:.4f} "
                f"exact={self.exact_match:.4f} n={self.count}")


class MetricsAccumulator:
    """Micro-averaged counts over scored pairs."""

    def __init__(self):
        self.tp = self.fp = self.fn = 0
        self.examples = 0
        self.exact = 0

    def add(self, predicted: str, true: str) -> tuple[int, int, int]:
        tp, fp, fn = score_pair(predicted, true)
        self.tp += tp
        self.fp += fp
        self.fn += fn
        self.examples += 1
        if fp == 0 and fn == 0:
            self.exact += 1
        return tp, fp, fn

    def result(self) -> Metrics:
        precision = self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0
        recall = self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        exact = self.exact / self.examples if self.examples else 0.0
        return Metrics(precision, recall, f1, exact, self.examples,
                       self.tp, self.fp, self.fn)


def evaluate_encoded(params: ModelParams, encoded: list[EncodedExample],
                     labels: list[str], vocabs: Vocabs,
                     per_example: list | None = None) -> Metrics:
    """Score top-1 predictions for already-encoded examples. Examples with
    no contexts cannot be predicted and count as all-false-negative.

    When `per_example` is a list, (true, predicted, tp, fp, fn) tuples are
    appended to it.
    """
    acc = MetricsAccumulator()
    for example, label in zip(encoded, labels):
        predicted = ""
        if example.trainable:
            (predicted, _), = predict_topk(params, example, 1, vocabs)
        counts = acc.add(predicted, label)
        if per_example is not None:
            per_example.append((label, predicted, *counts))
    return acc.result()


def evaluate(params: ModelParams, dataset: list[RawExample], vocabs: Vocabs,
             k_max: int | None = None, seed: int = 0,
             ablation: AblationMask = ABLATIONS["full"],
             per_example: list | None = None) -> Metrics:
    """Evaluate a trained model over a raw dataset (deterministic: context
    subsampling uses per-example seeded generators); see `evaluate_encoded`
    for `per_example`."""
    if not dataset:
        raise DatasetFormatError("empty dataset")
    if k_max is None:
        k_max = params.dims.k_max
    encoded = encode_dataset(dataset, vocabs, k_max, seed, ablation)
    return evaluate_encoded(params, encoded, [raw.label for raw in dataset],
                            vocabs, per_example)
