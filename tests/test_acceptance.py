"""Acceptance gate: ten end-to-end checks over extraction, the model,
training, metrics, serialization, and vector queries.

Each check reports a single `criterion N: PASS|FAIL` line, echoed after
the run summary so the gate can be read off the terminal directly.
"""

import functools
import time
from collections import Counter

import numpy as np
import pytest

from codevec.corpus import (ABLATIONS, RawExample, build_vocabs,
                            format_example, format_vocabs, parse_example,
                            parse_vocabs)
from codevec.ast_tree import read_sexpr_asts
from codevec.metrics import evaluate, score_pair
from codevec.minij import parse_methods
from codevec.model import (AttentionVariant, ModelDims, forward, init_params,
                           load_model, predict_topk, save_model)
from codevec.paths import (ExtractionLimits, PathContext,
                           extract_path_contexts, path_to_string)
from codevec.training import TrainConfig, train
from codevec.vectors import NameVectorTable, sum_of_cosines_ranking

from conftest import (as_float64, dense_gradients, oracle_path_contexts,
                      random_ast, random_encoded, toy_minij_corpus)
from test_training import gradient_failures

TANH_VARIANTS = [AttentionVariant.SOFT, AttentionVariant.NO_ATTENTION,
                 AttentionVariant.HARD, AttentionVariant.TRAIN_SOFT_PREDICT_HARD,
                 AttentionVariant.ELEMENT_WISE]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            import conftest
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_RESULTS.append(
                    f"criterion {number}: FAIL - {description}")
                raise
            conftest.ACCEPTANCE_RESULTS.append(
                f"criterion {number}: PASS - {description}")
        return wrapper
    return decorate


@criterion(1, "path extraction matches brute-force oracle under all limits")
def test_extraction_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    combos = [ExtractionLimits(length, width)
              for length in range(2, 9) for width in range(0, 4)]
    for _ in range(1000):
        ast = random_ast(rng)
        for limits in combos:
            got = Counter(
                (c.source_value, path_to_string(c.path), c.target_value)
                for c in extract_path_contexts(ast, limits))
            assert got == oracle_path_contexts(ast, limits)
    assert time.monotonic() - start < 30


@criterion(2, "assignment snippet yields its single documented path-context")
def test_assignment_reproduction():
    # the tree of `x = 7;`
    (ast,) = read_sexpr_asts('(AssignExpr (NameExpr "x") (IntegerLiteralExpr "7"))')
    contexts = extract_path_contexts(ast, ExtractionLimits())
    assert [(c.source_value, path_to_string(c.path), c.target_value)
            for c in contexts] == [
        ("x", "NameExpr^AssignExpr_IntegerLiteralExpr", "7")]


@criterion(3, "forward pass: normalized attention, normalized q, "
              "permutation invariance, masked slots inert")
def test_forward_contracts():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    dims = ModelDims(d=6, num_values=9, num_paths=7, num_tags=5, k_max=6)
    variants = TANH_VARIANTS + [AttentionVariant.SOFT_NO_FC]
    for trial in range(200):
        variant = variants[trial % len(variants)]
        params = as_float64(init_params(dims, variant, trial))
        n_valid = int(rng.integers(1, dims.k_max + 1))
        example = random_encoded(rng, dims, n_valid=n_valid)
        trace = forward(params, example)

        alpha = trace.alpha
        if alpha.ndim == 1:
            assert abs(alpha.sum() - 1.0) <= 1e-9
            assert (alpha >= 0).all() and (alpha[n_valid:] == 0).all()
        else:
            sums = alpha.sum(axis=0)
            assert np.abs(sums - 1.0).max() <= 1e-9
            assert (alpha[n_valid:] == 0).all()
        assert abs(trace.q.sum() - 1.0) <= 1e-9

        perm = rng.permutation(n_valid)
        shuffled = example.__class__(
            example.label_id,
            np.concatenate([example.sources[perm], example.sources[n_valid:]]),
            np.concatenate([example.paths[perm], example.paths[n_valid:]]),
            np.concatenate([example.targets[perm], example.targets[n_valid:]]),
            example.mask)
        if variant not in (AttentionVariant.HARD, AttentionVariant.TRAIN_SOFT_PREDICT_HARD):
            other = forward(params, shuffled)
            assert np.abs(other.code_vector - trace.code_vector).max() <= 1e-12
            assert np.abs(other.q - trace.q).max() <= 1e-12

        garbled = example.__class__(
            example.label_id, example.sources.copy(), example.paths.copy(),
            example.targets.copy(), example.mask)
        garbled.sources[n_valid:] = 2
        garbled.paths[n_valid:] = 2
        garbled.targets[n_valid:] = 2
        assert np.array_equal(forward(params, garbled).q, trace.q)
    assert time.monotonic() - start < 10


@criterion(4, "analytic gradients match central finite differences")
def test_gradient_check():
    from codevec.training import backward

    start = time.monotonic()
    rng = np.random.default_rng(104)
    dims = ModelDims(d=3, num_values=6, num_paths=5, num_tags=4, k_max=4)
    variants = [AttentionVariant.SOFT, AttentionVariant.NO_ATTENTION,
                AttentionVariant.ELEMENT_WISE, AttentionVariant.SOFT_NO_FC]
    failures = []
    for variant in variants:
        for trial in range(10):
            params = as_float64(init_params(dims, variant, 300 + trial))
            example = random_encoded(rng, dims)
            trace = forward(params, example, mode="train")
            grads = dense_gradients(
                params, backward(params, example, trace, example.label_id))
            failures += [f"{variant.value} trial {trial}: {failure}" for failure in
                         gradient_failures(params, example, example.label_id, grads, rng)]
    assert not failures
    assert time.monotonic() - start < 60


@criterion(5, "50-method/10-label corpus overfits to >=95% exact match")
def test_overfit_capacity():
    start = time.monotonic()
    limits = ExtractionLimits(8, 2)
    from codevec.pipeline import method_to_example
    examples = [method_to_example(ast, limits)
                for ast in parse_methods("\n".join(toy_minij_corpus()))]
    assert len(examples) == 50
    assert len({e.label for e in examples}) == 10
    vocabs = build_vocabs(examples)
    config = TrainConfig(dim=32, k_max=50, max_epochs=200, patience=200,
                         dropout_rate=0.0, batch_size=8, seed=5)
    params, history = train(examples, examples, vocabs, config)
    assert len(history) <= 200
    assert evaluate(params, examples, vocabs).exact_match >= 0.95
    assert time.monotonic() - start < 60


@criterion(6, "attention-variant algebra: hard/uniform/singleton identities")
def test_variant_algebra():
    rng = np.random.default_rng(106)
    dims = ModelDims(d=5, num_values=8, num_paths=6, num_tags=5, k_max=5)
    for trial in range(50):
        example = random_encoded(rng, dims, n_valid=int(rng.integers(2, 6)))

        hard = as_float64(init_params(dims, AttentionVariant.HARD, trial))
        trace = forward(hard, example)
        chosen = int(np.argmax(trace.alpha))
        assert np.array_equal(trace.code_vector, trace.combined[chosen])

        uniform = as_float64(init_params(dims, AttentionVariant.NO_ATTENTION, trial))
        trace = forward(uniform, example)
        valid = trace.mask.astype(bool)
        mean = trace.combined[valid].mean(axis=0)
        assert np.abs(trace.code_vector - mean).max() <= 1e-12

    # every variant collapses to the same model on a single-context bag
    # (attention matrices differ per variant but are irrelevant for one slot)
    for trial in range(20):
        single = random_encoded(rng, dims, n_valid=1)
        reference_params = as_float64(init_params(dims, TANH_VARIANTS[0], 900 + trial))
        traces = []
        for variant in TANH_VARIANTS:
            params = as_float64(init_params(dims, variant, 900 + trial))
            for name, arr in params.groups().items():
                if name != "attention":
                    arr[:] = reference_params.groups()[name]
            traces.append(forward(params, single))
        reference = traces[0]
        for trace in traces[1:]:
            assert np.abs(trace.q - reference.q).max() <= 1e-12
        nofc = as_float64(init_params(dims, AttentionVariant.SOFT_NO_FC, trial))
        trace = forward(nofc, single)
        assert trace.alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(trace.code_vector - trace.combined[0]).max() <= 1e-12


def _synthetic_corpus(rng, by_structure):
    """500 examples over 5 single-sub-token labels. When `by_structure`,
    the label is determined by which disjoint path pool the contexts come
    from (all token values identical); otherwise by which value pool (one
    shared path)."""
    labels = ["alpha", "bravo", "carol", "delta", "echos"]
    examples = []
    for n in range(500):
        i = n % len(labels)
        contexts = []
        for _ in range(6):
            j = int(rng.integers(6))
            if by_structure:
                contexts.append(PathContext("v", f"K{i}{j}^Mid_L{i}{j}", "v"))
            else:
                contexts.append(PathContext(f"w{i}{j}", "A^Mid_B", f"w{i}{j}"))
        examples.append(RawExample(labels[i], contexts))
    return examples


def _ablation_exact(examples, ablation_name):
    vocabs = build_vocabs(examples)
    config = TrainConfig(dim=16, k_max=10, max_epochs=30, patience=30,
                         dropout_rate=0.0, batch_size=32, seed=3,
                         ablation=ABLATIONS[ablation_name])
    params, _ = train(examples, examples, vocabs, config)
    return evaluate(params, examples, vocabs).exact_match


@criterion(7, "ablations separate structure-only from lexicon-only signal")
def test_structure_vs_lexicon_ablation():
    start = time.monotonic()
    rng = np.random.default_rng(107)
    chance = 1 / 5

    structural = _synthetic_corpus(rng, by_structure=True)
    assert _ablation_exact(structural, "no-values") >= 0.90
    assert _ablation_exact(structural, "only-values") <= chance + 0.10

    lexical = _synthetic_corpus(rng, by_structure=False)
    assert _ablation_exact(lexical, "only-values") >= 0.90
    assert _ablation_exact(lexical, "no-values") <= chance + 0.10
    assert time.monotonic() - start < 300


@criterion(8, "sub-token scoring reproduces the three worked cases")
def test_metric_fidelity():
    assert score_pair("linesCount", "countLines") == (2, 0, 0)
    assert score_pair("count", "countLines") == (1, 0, 1)
    assert score_pair("countBlankLines", "countLines") == (2, 1, 0)


@criterion(9, "model/vocab/dataset serialization round-trips exactly")
def test_serialization(tmp_path):
    rng = np.random.default_rng(109)
    dims = ModelDims(d=8, num_values=12, num_paths=9, num_tags=7, k_max=5)
    examples = [RawExample(f"tag{i}",
                           [PathContext("x", "A^M_B", "7")])
                for i in range(5)]
    vocabs = build_vocabs(examples)
    dims = ModelDims(8, len(vocabs.values), len(vocabs.paths),
                     len(vocabs.tags), 5)
    for variant in list(AttentionVariant):
        params = init_params(dims, variant, 42)
        path = tmp_path / f"{variant.value}.bin"
        save_model(str(path), params, vocabs)
        loaded_params, loaded_vocabs = load_model(str(path))
        assert format_vocabs(loaded_vocabs) == format_vocabs(vocabs)
        for _ in range(100 if variant is AttentionVariant.SOFT else 5):
            example = random_encoded(rng, dims)
            expected = predict_topk(params, example, 3, vocabs)
            got = predict_topk(loaded_params, example, 3, loaded_vocabs)
            assert got == expected  # bit-identical probabilities

    for example in examples:
        assert parse_example(format_example(example)) == example
    tags = parse_vocabs(format_vocabs(vocabs)).tags
    assert (tags.entries, tags.counts) == (vocabs.tags.entries, vocabs.tags.counts)


@criterion(10, "vector queries agree with their exhaustive-scan duals")
def test_vector_equivalence():
    rng = np.random.default_rng(110)
    for _ in range(100):
        n = int(rng.integers(4, 12))
        names = [f"t{i}" for i in range(n)]
        table = NameVectorTable(names, rng.normal(size=(n, 5)))
        a, b = rng.choice(names, size=2, replace=False)
        k = int(rng.integers(1, n))
        fast = table.combine(a, b, k)
        slow = sum_of_cosines_ranking(table, a, b, k)
        assert [x for x, _ in fast] == [x for x, _ in slow]

        units = table.units
        query = names[int(rng.integers(n))]
        scores = units @ (table.vector(query) / np.linalg.norm(table.vector(query)))
        order = [names[i] for i in np.lexsort((np.arange(n), -scores))
                 if names[i] != query][:k]
        assert [x for x, _ in table.nearest(query, k)] == order

        c = names[int(rng.integers(n))]
        va, vb, vc = (table.vector(x) / np.linalg.norm(table.vector(x))
                      for x in (a, b, c))
        composed = va - vb + vc
        if np.linalg.norm(composed) == 0:
            continue
        scores = units @ (composed / np.linalg.norm(composed))
        order = [names[i] for i in np.lexsort((np.arange(n), -scores))
                 if names[i] not in {a, b, c}][:k]
        assert [x for x, _ in table.analogy(a, b, c, k)] == order
