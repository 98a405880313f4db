from dataclasses import replace

import numpy as np
import pytest

from codevec.corpus import (ABLATIONS, PAD_ID, EncodedExample, RawExample,
                            build_vocabs, stack_examples)
from codevec.errors import DatasetFormatError, TrainingError
from codevec.metrics import evaluate
from codevec.minij import parse_methods
from codevec.model import (AttentionVariant, ModelDims, forward, init_params,
                           load_model, save_model)
from codevec.paths import ExtractionLimits
from codevec.pipeline import method_to_example
from codevec.training import (ADAM_EPSILON, AdamState, Gradients,
                              TrainConfig, adam_step, backward, loss, train)

from conftest import as_float64, dense_gradients, random_encoded, toy_minij_corpus

DIMS = ModelDims(d=3, num_values=6, num_paths=5, num_tags=4, k_max=4)
GRAD_VARIANTS = [AttentionVariant.SOFT, AttentionVariant.NO_ATTENTION,
                 AttentionVariant.ELEMENT_WISE, AttentionVariant.SOFT_NO_FC]


# Central differences use step H. A float64 loss carries rounding noise of a
# few ulps, so a difference quotient is only good to about EPS * |L| / H
# (1e-11 here); the checks below never ask for more than ten times that.
H = 1e-5
EPS = np.finfo(np.float64).eps


def loss_at(params, example, label_id, dropout_seed=None):
    """A function of no arguments that returns the summed train-mode loss
    at the parameters' current values: without dropout, or with
    `dropout_seed` the same dropout mask, drawn from a fresh generator,
    at every call."""
    def run():
        trace = forward(params, example, mode="train",
                        dropout_rate=0.0 if dropout_seed is None else 0.25,
                        rng=np.random.default_rng(dropout_seed))
        return float(np.sum(loss(trace, label_id)))
    return run


def finite_difference(run, arr, direction):
    """Central difference of `run()` along `direction` in `arr`, which is
    restored exactly afterwards."""
    original = arr.copy()
    arr[...] = original + H * direction
    up = run()
    arr[...] = original - H * direction
    down = run()
    arr[...] = original
    return (up - down) / (2 * H)


def gradient_failures(params, example, label_id, grads, rng, dropout_seed=None,
                      names=None):
    """Where the dense gradients `grads` disagree with central differences
    of the loss, one message per failing check; empty when they agree.

    Per group, the derivative along each of 3 Gaussian directions must
    match g . u to 1e-6 relative; every gradient entry must match its own
    difference to 1e-4 relative. A check passes anyway
    when the error is within the difference's noise floor, 10 EPS |L| / H:
    an entry whose true gradient is ~0 is only checked that far."""
    run = loss_at(params, example, label_id, dropout_seed)
    floor = 10 * EPS * abs(run()) / H
    failures = []
    for name, arr in params.groups().items():
        if names is not None and name not in names:
            continue
        g = grads[name]
        for j in range(3):
            u = rng.normal(size=arr.shape)
            analytic = float((g * u).sum())
            error = abs(finite_difference(run, arr, u) - analytic)
            if error > max(1e-6 * abs(analytic), floor):
                failures.append(f"{name} direction {j}: g.u={analytic:.6e}, "
                                f"error {error:.3e}")
        for idx in np.ndindex(arr.shape):
            basis = np.zeros_like(arr)
            basis[idx] = 1.0
            error = abs(finite_difference(run, arr, basis) - g[idx])
            if error > max(1e-4 * abs(g[idx]), floor):
                failures.append(f"{name}{list(idx)}: g={g[idx]:.6e}, error {error:.3e}")
    return failures


class TestLoss:
    def test_certain_prediction_zero_loss(self):
        params = init_params(DIMS, AttentionVariant.SOFT, 0)
        example = random_encoded(np.random.default_rng(0), DIMS)
        trace = forward(params, example)
        trace.log_q[:] = -np.inf
        trace.log_q[example.label_id] = 0.0
        assert loss(trace, example.label_id) == 0.0

    def test_uniform_distribution(self):
        params = init_params(DIMS, AttentionVariant.SOFT, 0)
        example = random_encoded(np.random.default_rng(0), DIMS)
        trace = forward(params, example)
        trace.log_q[:] = np.log(0.25)
        assert loss(trace, example.label_id) == pytest.approx(np.log(4))

    def test_matches_forward_q(self):
        params = as_float64(init_params(DIMS, AttentionVariant.SOFT, 1))
        example = random_encoded(np.random.default_rng(1), DIMS)
        trace = forward(params, example)
        assert loss(trace, example.label_id) == pytest.approx(
            -np.log(trace.q[example.label_id]), abs=1e-15)

    def test_large_logit_gap_stays_finite(self):
        # The label trails the top logit by 200, so its float32 probability
        # underflows to 0; the loss is still log-sum-exp minus the label's
        # logit, as float64 computes it, within float32 rounding.
        params = init_params(DIMS, AttentionVariant.SOFT, 2)
        example = random_encoded(np.random.default_rng(2), DIMS)
        real = np.arange(DIMS.num_tags) != PAD_ID

        def logits():
            return forward(params, example).code_vector @ params.tags_vocab.T

        z = np.where(real, logits(), np.inf)
        label = int(np.argmin(z))
        params.tags_vocab *= 200 / (z[real].max() - z[label])
        trace = forward(params, example)
        assert trace.q.dtype == np.float32 and trace.q[label] == 0.0
        z = logits().astype(np.float64)
        expected = np.log(np.exp(z[real] - z[real].max()).sum()) + z[real].max() - z[label]
        assert 199 < expected < 201
        assert loss(trace, label) == pytest.approx(expected, rel=np.finfo(np.float32).eps)
        batch = stack_examples([example, example])
        assert (loss(forward(params, batch), np.array([label, label]))
                == loss(trace, label)).all()


class TestGradients:
    @pytest.mark.parametrize("variant", GRAD_VARIANTS)
    def test_finite_differences(self, variant):
        rng = np.random.default_rng(12)
        for trial in range(10):
            params = as_float64(init_params(DIMS, variant, 100 + trial))
            example = random_encoded(rng, DIMS)
            trace = forward(params, example, mode="train")
            grads = dense_gradients(
                params, backward(params, example, trace, example.label_id))
            assert not gradient_failures(params, example, example.label_id,
                                         grads, rng), f"{variant.value} trial {trial}"

    def test_hard_attention_straight_through(self):
        # Away from ties the selection is locally constant, so the
        # straight-through gradient is the true one, and no gradient flows
        # into the attention vector.
        rng = np.random.default_rng(13)
        params = as_float64(init_params(DIMS, AttentionVariant.HARD, 3))
        example = random_encoded(rng, DIMS, n_valid=3)
        trace = forward(params, example, mode="train")
        grads = backward(params, example, trace, example.label_id)
        assert (grads.by_name["attention"] == 0).all()
        assert not gradient_failures(params, example, example.label_id,
                                     dense_gradients(params, grads), rng)

    def test_with_recorded_dropout_mask(self):
        rng = np.random.default_rng(14)
        params = as_float64(init_params(DIMS, AttentionVariant.SOFT, 5))
        example = random_encoded(rng, DIMS)
        trace = forward(params, example, mode="train", dropout_rate=0.25,
                        rng=np.random.default_rng(21))
        assert (trace.dropout_scale == 0).any()
        grads = dense_gradients(
            params, backward(params, example, trace, example.label_id))
        assert not gradient_failures(params, example, example.label_id, grads,
                                     rng, dropout_seed=21)

    def test_shared_source_target_row_accumulates(self):
        params = as_float64(init_params(DIMS, AttentionVariant.SOFT, 6))
        example = EncodedExample(2, np.array([3, 0]), np.array([2, 0]),
                                 np.array([3, 0]), np.array([1.0, 0.0]))
        trace = forward(params, example, mode="train")
        grads = backward(params, example, trace, example.label_id)
        value_grad = dense_gradients(params, grads)["value_vocab"]
        assert not gradient_failures(params, example, example.label_id,
                                     {"value_vocab": value_grad},
                                     np.random.default_rng(23), names={"value_vocab"})
        assert grads.rows["value_vocab"][0].tolist() == [3]
        assert np.abs(value_grad[3]).max() > 0

    def test_untouched_rows_exactly_zero(self):
        # Only the rows a valid slot names are listed, PAD never, even when
        # a valid slot holds the PAD id.
        params = init_params(DIMS, AttentionVariant.SOFT, 7)
        example = EncodedExample(2, np.array([3, PAD_ID, 5]), np.array([2, 4, 1]),
                                 np.array([4, 5, 3]), np.array([1.0, 1.0, 0.0]))
        grads = backward(params, example, forward(params, example, mode="train"), 2)
        assert grads.rows["value_vocab"][0].tolist() == [3, 4, 5]
        assert grads.rows["path_vocab"][0].tolist() == [2, 4]
        for ids, rows in grads.rows.values():
            assert rows.shape == (len(ids), DIMS.d)
        assert (grads.by_name["tags_vocab"][PAD_ID] == 0).all()

    @pytest.mark.parametrize("ids", ["duplicates", "zipf"])
    def test_row_sums_match_float64_add_at(self, ids):
        # Each table row's gradient is the float64 sum of its slots' rows,
        # rounded once to float32. The slots' own rows come from a second
        # backward over tables in which every slot has ids of its own that
        # hold the same rows, so forward, dropout and the per-slot rows
        # are the same. 'duplicates' is long-methods-like: 75 distinct
        # values over 7,200 rows. 'zipf' is mostly unique ids over 50k,
        # with padded slots and a few valid slots that hold PAD.
        rng = np.random.default_rng(41)
        B, k = 18, 200
        if ids == "duplicates":
            size = 77
            sources, paths, targets = (rng.integers(2, size, (B, k)) for _ in range(3))
            mask = np.ones((B, k))
        else:
            size = 50_000
            sources, paths, targets = (np.minimum(rng.zipf(1.1, (B, k)) + 1, size - 1)
                                       for _ in range(3))
            mask = (np.arange(k) < rng.integers(100, k + 1, (B, 1))).astype(np.float64)
            sources[0, :5] = PAD_ID
        dims = ModelDims(d=16, num_values=size, num_paths=size, num_tags=6, k_max=k)
        params = init_params(dims, AttentionVariant.SOFT, 3)
        labels = rng.integers(2, 6, B)
        slot_values = np.stack([sources, targets], -1).ravel()  # source, target per slot
        slot_paths = paths.ravel()
        own = np.arange(B * k).reshape(B, k)
        wide = replace(
            params, dims=replace(dims, num_values=2 + 2 * B * k, num_paths=2 + B * k),
            value_vocab=np.concatenate([params.value_vocab[:2],
                                        params.value_vocab[slot_values]]),
            path_vocab=np.concatenate([params.path_vocab[:2], params.path_vocab[slot_paths]]))

        def row_gradients(params, example):
            trace = forward(params, example, mode="train", dropout_rate=0.25,
                            rng=np.random.default_rng(7))
            return backward(params, example, trace, example.label_id).rows

        got = row_gradients(params, EncodedExample(labels, sources, paths, targets, mask))
        per_slot = row_gradients(wide, EncodedExample(labels, 2 + 2 * own, 2 + own,
                                                      3 + 2 * own, mask))
        for name, slot_ids in (("value_vocab", slot_values), ("path_vocab", slot_paths)):
            own_ids, own_rows = per_slot[name]
            original = slot_ids[own_ids - 2]
            reference = np.zeros((size, dims.d))
            np.add.at(reference, original, own_rows.astype(np.float64))
            table_ids, rows = got[name]
            assert PAD_ID not in table_ids and (np.diff(table_ids) > 0).all()
            assert table_ids.tolist() == sorted(set(original.tolist()) - {PAD_ID})
            expected = reference[table_ids]
            assert rows.dtype == np.float32
            assert (np.abs(rows - expected) <= np.finfo(np.float32).eps * np.abs(expected)).all()

    def test_batch_gradient_is_sum_of_examples(self):
        # One backward over a stacked batch equals the sum of per-example
        # backwards, for every variant, with and without dropout. The batch
        # draws its (B, k, 3d) mask in one call; the same generator state
        # gives the examples the same masks in B sequential (k, 3d) draws.
        rng = np.random.default_rng(15)
        for variant in AttentionVariant:
            params = as_float64(init_params(DIMS, variant, 8))
            examples = [random_encoded(rng, DIMS) for _ in range(5)]
            for dropout in (0.0, 0.25):
                def run(example, dropout_rng):
                    trace = forward(params, example, mode="train",
                                    dropout_rate=dropout, rng=dropout_rng)
                    return dense_gradients(
                        params, backward(params, example, trace, example.label_id))

                batched = run(stack_examples(examples), np.random.default_rng(22))
                single_rng = np.random.default_rng(22)
                singles = [run(ex, single_rng) for ex in examples]
                for name in params.groups():
                    summed = sum(g[name] for g in singles)
                    assert np.abs(batched[name] - summed).max() <= 1e-10, \
                        f"{variant.value}/{name} dropout={dropout}"

    def test_batched_forward_matches_per_example(self):
        rng = np.random.default_rng(18)
        for variant in AttentionVariant:
            params = as_float64(init_params(DIMS, variant, 10))
            examples = [random_encoded(rng, DIMS) for _ in range(6)]
            stacked = stack_examples(examples)
            for mode in ("train", "infer"):
                trace = forward(params, stacked, mode=mode)
                for i, example in enumerate(examples):
                    single = forward(params, example, mode=mode)
                    assert np.abs(trace.q[i] - single.q).max() <= 1e-12
                    assert loss(trace, stacked.label_id)[i] == pytest.approx(
                        loss(single, example.label_id), abs=1e-12)

    @pytest.mark.parametrize("variant", list(AttentionVariant))
    def test_masked_slots_inert_in_training(self, variant):
        # A masked slot's context row is zeroed once, in `forward`, and its
        # alpha is exactly 0: the ids it holds change no bit of the trace or
        # of any gradient. Dropout draws the same mask for both examples.
        dims = ModelDims(d=8, num_values=20, num_paths=20, num_tags=6, k_max=10)
        rng = np.random.default_rng(31)
        params = init_params(dims, variant, 12)
        padded = stack_examples([random_encoded(rng, dims, n) for n in (1, 4, 9)])
        masked = ~padded.mask.astype(bool)
        noisy = replace(padded, **{
            name: np.where(masked, rng.integers(2, 20, masked.shape), getattr(padded, name))
            for name in ("sources", "paths", "targets")})
        runs = []
        for example in (padded, noisy):
            trace = forward(params, example, mode="train", dropout_rate=0.25,
                            rng=np.random.default_rng(5))
            grads = backward(params, example, trace, example.label_id)
            runs.append((trace, dense_gradients(params, grads)))
        (trace, grads), (noisy_trace, noisy_grads) = runs
        assert (noisy.sources[masked] != PAD_ID).all()
        assert not noisy_trace.combined[masked].any()
        # Bit for bit, but for the sign of a zero: a no-FC masked row of
        # `combined` is an embedding row times 0, so -0.0 where it was < 0.
        def bits(arr):
            return (arr + 0.0).tobytes()
        for name in ("combined", "alpha", "code_vector", "log_q"):
            assert bits(getattr(trace, name)) == bits(getattr(noisy_trace, name)), name
        for name, grad in grads.items():
            assert bits(grad) == bits(noisy_grads[name]), name

    @pytest.mark.parametrize("variant", list(AttentionVariant))
    def test_infer_trace_rejected(self, variant):
        # An infer trace holds no context vectors to differentiate.
        params = init_params(DIMS, variant, 11)
        example = random_encoded(np.random.default_rng(20), DIMS)
        trace = forward(params, example)
        assert trace.context_vectors is None
        with pytest.raises(ValueError, match="train-mode trace"):
            backward(params, example, trace, example.label_id)

    def test_all_finite(self):
        rng = np.random.default_rng(16)
        for variant in GRAD_VARIANTS:
            params = init_params(DIMS, variant, 9)
            example = random_encoded(rng, DIMS)
            grads = backward(params, example, forward(params, example, mode="train"),
                             example.label_id)
            for arr in dense_gradients(params, grads).values():
                assert np.isfinite(arr).all()


def random_gradients(rng, params, touched: dict[str, list[int]]) -> Gradients:
    """Normal gradients for the dense groups and for the `touched` rows."""
    grads = Gradients.zeros_like(params)
    for arr in grads.by_name.values():
        arr[:] = rng.normal(size=arr.shape)
    for name, ids in touched.items():
        grads.rows[name] = (np.array(ids), rng.normal(size=(len(ids), DIMS.d)))
    return grads


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = init_params(DIMS, AttentionVariant.SOFT, 1)
        before = {n: a.copy() for n, a in params.groups().items()}
        adam_step(params, Gradients.zeros_like(params),
                  AdamState.zeros_like(params), TrainConfig())
        for name, arr in params.groups().items():
            assert (arr == before[name]).all()

    def test_first_step_is_signed_unit_step(self):
        # On touched rows the first lazy step is the dense step.
        params = init_params(DIMS, AttentionVariant.SOFT, 2)
        before = {n: a.copy() for n, a in params.groups().items()}
        grads = random_gradients(np.random.default_rng(0), params,
                                 {"value_vocab": [1, 3, 4], "path_vocab": [2]})
        config = TrainConfig(learning_rate=0.01)
        adam_step(params, grads, AdamState.zeros_like(params), config)
        dense = dense_gradients(params, grads)
        for name, arr in params.groups().items():
            g = dense[name]
            expected = before[name] - config.learning_rate * g / (
                np.abs(g) + ADAM_EPSILON)
            assert np.allclose(arr, expected, atol=1e-12)

    def test_untouched_rows_keep_parameters_and_moments(self):
        params = init_params(DIMS, AttentionVariant.SOFT, 4)
        state = AdamState.zeros_like(params)
        rng = np.random.default_rng(1)
        everything = {"value_vocab": list(range(1, DIMS.num_values)),
                      "path_vocab": list(range(1, DIMS.num_paths))}
        adam_step(params, random_gradients(rng, params, everything), state,
                  TrainConfig())
        snapshot = [{n: a.copy() for n, a in group.items()}
                    for group in (params.groups(), state.m, state.v)]
        touched = {"value_vocab": [2, 5], "path_vocab": [3]}
        adam_step(params, random_gradients(rng, params, touched), state,
                  TrainConfig())
        for name, ids in touched.items():
            untouched = np.setdiff1d(np.arange(len(params.groups()[name])), ids)
            for old, new in zip(snapshot, (params.groups(), state.m, state.v)):
                assert np.array_equal(new[name][untouched], old[name][untouched])
                assert not np.array_equal(new[name][ids], old[name][ids])
        assert (params.value_vocab[PAD_ID] == 0).all()
        assert (params.path_vocab[PAD_ID] == 0).all()

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params = init_params(DIMS, AttentionVariant.SOFT, 3)
            state = AdamState.zeros_like(params)
            grads = Gradients.zeros_like(params)
            for arr in grads.by_name.values():
                arr[:] = 0.5
            adam_step(params, grads, state, TrainConfig())
            adam_step(params, grads, state, TrainConfig())
            results.append(params.W.copy())
        assert (results[0] == results[1]).all()


class TestDescentAndTraining:
    def test_loss_decreases_over_full_batch_steps(self):
        rng = np.random.default_rng(17)
        params = init_params(DIMS, AttentionVariant.SOFT, 4)
        examples = [random_encoded(rng, DIMS) for _ in range(6)]
        state = AdamState.zeros_like(params)
        config = TrainConfig(learning_rate=1e-2)
        batch = stack_examples(examples)
        losses = []
        for _ in range(10):
            trace = forward(params, batch, mode="train")
            losses.append(loss(trace, batch.label_id).sum())
            adam_step(params, backward(params, batch, trace, batch.label_id),
                      state, config)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def toy_dataset(self):
        limits = ExtractionLimits(8, 2)
        return [method_to_example(ast, limits)
                for ast in parse_methods("\n".join(toy_minij_corpus()))]

    def test_overfit_toy_corpus(self):
        examples = self.toy_dataset()
        vocabs = build_vocabs(examples)
        config = TrainConfig(dim=32, k_max=50, max_epochs=200, patience=200,
                             dropout_rate=0.0, batch_size=8, seed=5)
        params, history = train(examples, examples, vocabs, config)
        metrics = evaluate(params, examples, vocabs)
        assert metrics.exact_match >= 0.95
        assert len(history) <= 200

    def test_pad_rows_stay_zero_through_training(self):
        examples = self.toy_dataset()[:10]
        vocabs = build_vocabs(examples)
        config = TrainConfig(dim=8, k_max=20, max_epochs=5, patience=5, seed=1)
        params, _ = train(examples, examples, vocabs, config)
        assert (params.value_vocab[PAD_ID] == 0).all()
        assert (params.path_vocab[PAD_ID] == 0).all()
        assert (params.tags_vocab[PAD_ID] == 0).all()

    def test_training_deterministic(self):
        examples = self.toy_dataset()[:10]
        vocabs = build_vocabs(examples)
        config = TrainConfig(dim=8, k_max=20, max_epochs=3, patience=3, seed=2)
        a, hist_a = train(examples, examples, vocabs, config)
        b, hist_b = train(examples, examples, vocabs, config)
        for name, arr in a.groups().items():
            assert (arr == b.groups()[name]).all()
        assert [h.loss for h in hist_a] == [h.loss for h in hist_b]

    def test_f1_history_non_decreasing_until_stop_on_overfit(self):
        examples = self.toy_dataset()
        vocabs = build_vocabs(examples)
        config = TrainConfig(dim=16, k_max=50, max_epochs=30, patience=1,
                             dropout_rate=0.0, batch_size=8, seed=5)
        _, history = train(examples, examples, vocabs, config)
        f1s = [h.val_f1 for h in history]
        # patience=1 stops at the first non-improving epoch
        assert all(b > a for a, b in zip(f1s[:-2], f1s[1:-1]))

    def test_non_finite_loss_names_epoch_and_example(self):
        # The first epoch leaves the parameters finite in single precision
        # but so large that in the next epoch a label trails the top logit
        # by more than a float32 holds, so the loss itself overflows; the
        # first bad example, in batch order, is named by its dataset index.
        # (A rate of 1e300 is not a float32: its first step leaves the
        # parameters infinite.)
        examples = self.toy_dataset()[:10]
        vocabs = build_vocabs(examples)
        config = TrainConfig(learning_rate=7e37, dim=8, k_max=20)
        with pytest.raises(TrainingError,
                           match=r"^non-finite loss at epoch 2, example 0: "):
            train(examples, examples, vocabs, config)

    def test_trailing_label_does_not_stop_training(self):
        # At rate 1.0 a label comes to trail the top logit so far that its
        # float32 probability underflows to 0; the loss stays finite, so
        # every epoch runs.
        examples = self.toy_dataset()
        config = TrainConfig(learning_rate=1.0, dim=32, k_max=50, batch_size=8,
                             dropout_rate=0.0, seed=5, max_epochs=60, patience=60)
        _, history = train(examples, examples, build_vocabs(examples), config)
        assert len(history) == 60
        assert all(np.isfinite(stats.loss) for stats in history)

    def test_parameters_past_single_precision_raise(self):
        # One epoch of one step keeps every loss finite but moves the
        # parameters by about 1e300, past what a model file can hold.
        examples = self.toy_dataset()[:10]
        vocabs = build_vocabs(examples)
        config = TrainConfig(learning_rate=1e300, dim=8, k_max=20, max_epochs=1)
        with pytest.raises(TrainingError, match=r"not finite in single precision "
                                                r"after epoch 1$"):
            train(examples, examples, vocabs, config)

    def test_training_step_stays_single_precision(self):
        # A float64 mask or a NumPy scalar anywhere in the step would
        # upcast an array and double the step's memory traffic.
        rng = np.random.default_rng(19)
        for variant in AttentionVariant:
            params = init_params(DIMS, variant, 12)
            batch = stack_examples([random_encoded(rng, DIMS) for _ in range(3)])
            trace = forward(params, batch, mode="train", dropout_rate=0.25, rng=rng)
            grads = backward(params, batch, trace, batch.label_id)
            state = AdamState.zeros_like(params)
            adam_step(params, grads, state, TrainConfig())
            arrays = {f"trace.{name}": getattr(trace, name)
                      for name in ("context_vectors", "dropout_scale", "combined",
                                   "alpha", "code_vector", "log_q", "q", "mask")}
            arrays["loss"] = loss(trace, batch.label_id)
            arrays.update((f"grad.{n}", g) for n, g in grads.by_name.items())
            arrays.update((f"grad.{n}", g) for n, (_, g) in grads.rows.items())
            for prefix, group in (("param", params.groups()), ("m", state.m),
                                  ("v", state.v)):
                arrays.update((f"{prefix}.{n}", a) for n, a in group.items())
            for name, arr in arrays.items():
                assert arr.dtype == np.float32, f"{variant.value}: {name}"

    def test_saved_model_is_the_validated_model(self, tmp_path):
        # Training, validation and the model file share one precision,
        # float32: the file holds the returned parameters exactly, and
        # evaluating it reproduces the best epoch's validation F1 exactly.
        examples = self.toy_dataset()
        train_set, val_set = examples[::2], examples[1::2]
        vocabs = build_vocabs(train_set)
        config = TrainConfig(learning_rate=1e-2, dim=8, k_max=20, max_epochs=10,
                             patience=10, seed=4, ablation=ABLATIONS["value-path"])
        params, history = train(train_set, val_set, vocabs, config)
        assert params.ablation == config.ablation
        best_f1 = max(h.val_f1 for h in history)
        assert best_f1 > 0.0 and best_f1 > history[-1].val_f1  # best is not last
        path = str(tmp_path / "model.bin")
        save_model(path, params, vocabs)
        loaded, loaded_vocabs = load_model(path)
        for name, arr in params.groups().items():
            assert arr.dtype == np.float32, name
            assert np.array_equal(loaded.groups()[name], arr), name
        assert loaded.ablation == config.ablation
        metrics = evaluate(loaded, val_set, loaded_vocabs, seed=config.seed)
        assert metrics.f1 == best_f1

    def test_non_finite_learning_rate_rejected(self):
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning rate"):
                TrainConfig(learning_rate=rate)

    def test_empty_train_set(self):
        examples = self.toy_dataset()[:5]
        with pytest.raises(DatasetFormatError, match="^empty training set$"):
            train([], examples, build_vocabs(examples), TrainConfig())

    def test_empty_validation_set(self):
        examples = self.toy_dataset()[:5]
        with pytest.raises(DatasetFormatError, match="^empty validation set$"):
            train(examples, [], build_vocabs(examples), TrainConfig())

    def test_zero_context_examples_reported_not_dropped(self):
        examples = self.toy_dataset()[:5] + [RawExample("nothing", [])]
        vocabs = build_vocabs(examples)
        lines = []
        config = TrainConfig(dim=4, k_max=10, max_epochs=1, patience=1, seed=0)
        train(examples, examples, vocabs, config, log=lines.append)
        assert any("no contexts" in line for line in lines)

    def test_log_line_format(self):
        examples = self.toy_dataset()[:5]
        vocabs = build_vocabs(examples)
        lines = []
        config = TrainConfig(dim=4, k_max=10, max_epochs=2, patience=2, seed=0)
        train(examples, examples, vocabs, config, log=lines.append)
        assert lines[0].startswith("epoch=1 loss=")
        assert " val_p=" in lines[0] and " val_f1=" in lines[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError, match="batch size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="max epochs"):
            TrainConfig(max_epochs=0)
