import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dataclasses import astuple

from codevec.corpus import (RawExample, build_vocabs, encode_batch, encode_example,
                            example_rng)
from codevec.metrics import EVAL_BATCH, Metrics, evaluate, evaluate_encoded, score_pair
from codevec.minij import parse_methods
from codevec.model import AttentionVariant, ModelDims, forward, init_params

from codevec.paths import ExtractionLimits, PathContext
from codevec.pipeline import method_to_example
from codevec.training import TrainConfig, train

from conftest import random_path, toy_minij_corpus


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
        # Batches cut at other sizes than EVAL_BATCH, handed over as a
        # generator, score as `evaluate` does; the empty example is in none.
        params, examples, vocabs = fitted
        examples = examples[:20] + [RawExample("emptyBody", [])] + examples[20:]
        positions = [i for i, raw in enumerate(examples) if raw.contexts]
        cuts = [0, 1, 8, 30, len(positions)]
        chunks = [positions[a:b] for a, b in zip(cuts, cuts[1:])]
        batches = ((chunk, encode_batch(examples, chunk, vocabs, params.dims.k_max, 4,
                                        params.ablation)) for chunk in chunks)
        direct_rows, rows = [], []
        direct = evaluate_encoded(params, batches, examples, vocabs, per_example=direct_rows)
        metrics = evaluate(params, examples, vocabs, seed=4, per_example=rows)
        assert astuple(direct) == astuple(metrics)
        assert direct_rows == rows

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
        # 70 examples, 3 of them empty and some longer than k_max, span
        # three stacked batches; the counts and the rows, in input order,
        # are those of one encode, one forward and one first-maximum argmax
        # per example.
        rng = np.random.default_rng(41)
        k_max = 10
        labels = [f"tag{i}" for i in rng.integers(2, 12, 70)]
        examples = [RawExample(label, [random_context(rng)
                                       for _ in range(rng.integers(1, 2 * k_max))])
                    for label in labels]
        for i in (0, 33, 69):
            examples[i] = RawExample(labels[i], [])
        vocabs = build_vocabs(examples)
        dims = ModelDims(d=8, num_values=len(vocabs.values), num_paths=len(vocabs.paths),
                         num_tags=len(vocabs.tags), k_max=k_max)
        params = init_params(dims, AttentionVariant.SOFT, 6)
        assert len(examples) > 2 * EVAL_BATCH
        assert any(len(raw.contexts) > k_max for raw in examples)

        expected, expected_rows = Metrics(), []
        for i, raw in enumerate(examples):
            predicted = ""
            if raw.contexts:
                encoded = encode_example(raw, vocabs, k_max, example_rng(5, i))
                predicted = vocabs.tags.entry(int(np.argmax(forward(params, encoded).q)))
            expected_rows.append((raw.label, predicted,
                                  *expected.add(predicted, raw.label)))
        rows = []
        metrics = evaluate(params, examples, vocabs, seed=5, per_example=rows)
        assert astuple(metrics) == astuple(expected)
        assert rows == expected_rows
        assert 0 < metrics.tp and metrics.exact < metrics.count


def random_context(rng: np.random.Generator) -> PathContext:
    return PathContext(f"v{rng.integers(12)}", random_path(rng), f"v{rng.integers(12)}")
