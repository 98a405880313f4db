import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dataclasses import astuple

from codevec.corpus import (EncodedExample, RawExample, build_vocabs, encode_example,
                            example_rng)
from codevec.metrics import EVAL_BATCH, Metrics, evaluate, evaluate_encoded, score_pair
from codevec.minij import parse_methods
from codevec.model import AttentionVariant, ModelDims, forward, init_params

from codevec.paths import ExtractionLimits
from codevec.pipeline import method_to_example
from codevec.training import TrainConfig, train

from conftest import random_encoded, tag_vocabs, toy_minij_corpus


class TestScorePair:
    def test_exact_match(self):
        assert score_pair("countLines", "countLines") == (2, 0, 0)

    def test_partial_overlap(self):
        # only "count" is shared; "line" and "lines" are distinct sub-tokens
        assert score_pair("lineCount", "countBlankLines") == (1, 1, 2)

    def test_disjoint(self):
        assert score_pair("get", "setValue") == (0, 1, 2)

    def test_case_and_order_insensitive(self):
        assert score_pair("LinesCount", "count_lines") == (2, 0, 0)

    def test_unk_never_matches(self):
        assert score_pair("unk", "unk") == (0, 1, 1)
        assert score_pair("unkValue", "setUnkValue") == (1, 1, 2)

    def test_empty_prediction(self):
        assert score_pair("", "getName") == (0, 0, 2)

    @given(st.text(alphabet="abcXY_09", min_size=1, max_size=12))
    def test_self_score_no_errors(self, name):
        tp, fp, fn = score_pair(name, name)
        assert fp == fn  # symmetric counts for identical strings
        assert tp >= 0

    def test_symmetry_swaps_fp_fn(self):
        tp1, fp1, fn1 = score_pair("getItems", "setItemList")
        tp2, fp2, fn2 = score_pair("setItemList", "getItems")
        assert (tp1, fp1, fn1) == (tp2, fn2, fp2)


class TestAccumulator:
    def test_micro_average_hand_counted(self):
        result = Metrics()
        result.add("countLines", "countLines")      # tp=2
        result.add("lineCount", "countBlankLines")  # tp=1 fp=1 fn=2
        result.add("get", "setValue")               # fp=1 fn=2
        assert (result.tp, result.fp, result.fn) == (3, 2, 4)
        assert result.precision == pytest.approx(3 / 5)
        assert result.recall == pytest.approx(3 / 7)
        assert result.f1 == pytest.approx(2 * (3 / 5) * (3 / 7) / (3 / 5 + 3 / 7))
        assert result.exact_match == pytest.approx(1 / 3)
        assert result.count == 3

    def test_exact_match_requires_set_equality(self):
        result = Metrics()
        result.add("linesCount", "countLines")
        assert result.exact_match == 1.0

    def test_empty_accumulator(self):
        result = Metrics()
        assert (result.tp, result.fp, result.fn, result.count) == (0, 0, 0, 0)
        assert (result.precision, result.recall, result.f1,
                result.exact_match) == (0.0, 0.0, 0.0, 0.0)

    def test_f1_bounds_random(self):
        rng = np.random.default_rng(3)
        words = ["get", "set", "count", "lines", "max", "value"]
        result = Metrics()
        for _ in range(200):
            pred = "".join(rng.choice(words, size=rng.integers(1, 4)))
            true = "".join(rng.choice(words, size=rng.integers(1, 4)))
            result.add(pred, true)
        for value in (result.precision, result.recall, result.f1,
                      result.exact_match):
            assert 0.0 <= value <= 1.0
        hmean = (2 * result.precision * result.recall
                 / (result.precision + result.recall))
        assert result.f1 == pytest.approx(hmean)

    def test_summary_format(self):
        result = Metrics()
        result.add("getX", "getX")
        text = result.summary()
        assert text == "P=1.0000 R=1.0000 F1=1.0000 exact=1.0000 n=1"


def trained_toy():
    limits = ExtractionLimits(8, 2)
    examples = [method_to_example(ast, limits)
                for ast in parse_methods("\n".join(toy_minij_corpus()))]
    vocabs = build_vocabs(examples)
    config = TrainConfig(dim=32, k_max=50, max_epochs=200, patience=200,
                         dropout_rate=0.0, batch_size=8, seed=5)
    params, _ = train(examples, examples, vocabs, config)
    return params, examples, vocabs


@pytest.fixture(scope="module")
def fitted():
    return trained_toy()


class TestEvaluate:

    def test_matches_hand_recount(self, fitted):
        params, examples, vocabs = fitted
        per_example = []
        metrics = evaluate(params, examples, vocabs, per_example=per_example)
        assert len(per_example) == len(examples)
        recount = Metrics()
        for true, predicted, tp, fp, fn in per_example:
            assert score_pair(predicted, true) == (tp, fp, fn)
            recount.add(predicted, true)
        assert metrics.f1 == pytest.approx(recount.f1)
        assert metrics.exact_match == pytest.approx(recount.exact_match)

    def test_agrees_with_evaluate_encoded(self, fitted):
        params, examples, vocabs = fitted
        encoded = [encode_example(raw, vocabs, params.dims.k_max,
                                  example_rng(0, i))
                   for i, raw in enumerate(examples)]
        direct = evaluate_encoded(params, encoded,
                                  [e.label for e in examples], vocabs)
        assert evaluate(params, examples, vocabs).f1 == pytest.approx(direct.f1)

    def test_deterministic(self, fitted):
        params, examples, vocabs = fitted
        assert (evaluate(params, examples, vocabs, seed=9).summary()
                == evaluate(params, examples, vocabs, seed=9).summary())

    def test_zero_context_example_counts_against_recall(self, fitted):
        params, examples, vocabs = fitted
        padded = examples + [RawExample("emptyBody", [])]
        full = evaluate(params, padded, vocabs)
        assert full.count == len(padded)
        assert full.fn >= 2  # 'empty' and 'body' both missed

    def test_unk_label_cannot_score(self, fitted):
        params, _, vocabs = fitted
        unseen = [RawExample("neverSeenTag", fitted[1][0].contexts)]
        metrics = evaluate(params, unseen, vocabs)
        assert metrics.tp == 0

    def test_batched_matches_per_example_loop(self):
        # 70 examples, 3 of them empty, span three stacked batches; the
        # counts and the rows, in input order, are those of one forward
        # and one first-maximum argmax per example.
        rng = np.random.default_rng(41)
        dims = ModelDims(d=8, num_values=20, num_paths=15, num_tags=12, k_max=10)
        params = init_params(dims, AttentionVariant.SOFT, 6)
        vocabs = tag_vocabs(dims.num_tags)
        empty = EncodedExample(1, *(np.zeros(dims.k_max, np.int64) for _ in range(3)),
                               np.zeros(dims.k_max))
        encoded = [random_encoded(rng, dims) for _ in range(67)]
        for i in (0, 33, 69):
            encoded.insert(i, empty)
        labels = [vocabs.tags.entry(int(i)) for i in rng.integers(2, dims.num_tags, 70)]
        assert len(encoded) > 2 * EVAL_BATCH

        expected, expected_rows = Metrics(), []
        for example, label in zip(encoded, labels):
            predicted = (vocabs.tags.entry(int(np.argmax(forward(params, example).q)))
                         if example.trainable else "")
            expected_rows.append((label, predicted, *expected.add(predicted, label)))
        rows = []
        metrics = evaluate_encoded(params, encoded, labels, vocabs, per_example=rows)
        assert astuple(metrics) == astuple(expected)
        assert rows == expected_rows
        assert 0 < metrics.tp and metrics.exact < metrics.count
