import itertools
import math
import struct

import numpy as np
import pytest

from codevec.corpus import (ABLATIONS, PAD_ID, AblationMask, EncodedExample,
                            RawExample, build_vocabs, encode_example, example_rng)
from codevec.errors import ModelFormatError, TrainingError
from codevec.model import (MAX_SLOTS, AttentionVariant, ModelDims, ModelParams,
                           forward, init_params, load_model, predict_topk,
                           save_model, top_k)
from codevec.paths import PathContext, path_from_string

from conftest import as_float64, random_encoded, save_model_with, tag_vocabs

DIMS = ModelDims(d=4, num_values=6, num_paths=5, num_tags=4, k_max=5)


def oracle_forward_soft(params, example):
    """Straight-line recomputation of the soft-attention forward pass,
    written against the equations rather than sharing code with forward()."""
    valid = [i for i in range(len(example.mask)) if example.mask[i]]
    combined = {}
    for i in valid:
        c = list(params.value_vocab[example.sources[i]]) \
            + list(params.path_vocab[example.paths[i]]) \
            + list(params.value_vocab[example.targets[i]])
        u = [sum(params.W[r][k] * c[k] for k in range(len(c)))
             for r in range(params.dims.d)]
        combined[i] = [math.tanh(x) for x in u]
    scores = {i: sum(combined[i][k] * params.attention[k]
                     for k in range(params.dims.d)) for i in valid}
    peak = max(scores.values())
    exps = {i: math.exp(scores[i] - peak) for i in valid}
    total = sum(exps.values())
    alpha = {i: exps[i] / total for i in valid}
    upsilon = [sum(alpha[i] * combined[i][k] for i in valid)
               for k in range(params.dims.d)]
    logits = [sum(upsilon[k] * params.tags_vocab[y][k]
                  for k in range(params.dims.d))
              for y in range(params.dims.num_tags)]
    peak = max(logits[1:])
    exps = [0.0] + [math.exp(z - peak) for z in logits[1:]]
    total = sum(exps)
    return [e / total for e in exps]


class TestInit:
    def test_deterministic(self):
        a = init_params(DIMS, AttentionVariant.SOFT, 42)
        b = init_params(DIMS, AttentionVariant.SOFT, 42)
        for name, arr in a.groups().items():
            assert (arr == b.groups()[name]).all()

    def test_glorot_bound_on_w(self):
        params = init_params(ModelDims(32, 10, 10, 10, 5),
                             AttentionVariant.SOFT, 0)
        bound = np.sqrt(6 / (32 + 96))
        assert np.abs(params.W).max() <= bound
        assert np.abs(params.W).max() > 0.5 * bound  # actually fills the range

    def test_pad_rows_zero(self):
        for variant in AttentionVariant:
            params = init_params(DIMS, variant, 1)
            assert (params.value_vocab[PAD_ID] == 0).all()
            assert (params.path_vocab[PAD_ID] == 0).all()
            assert (params.tags_vocab[PAD_ID] == 0).all()

    def test_variant_shapes(self):
        nofc = init_params(DIMS, AttentionVariant.SOFT_NO_FC, 0)
        assert nofc.W is None
        assert nofc.attention.shape == (12,)
        assert nofc.tags_vocab.shape == (4, 12)
        elem = init_params(DIMS, AttentionVariant.ELEMENT_WISE, 0)
        assert elem.attention.shape == (4, 4)

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError):
            ModelDims(0, 6, 5, 4, 5)
        with pytest.raises(ValueError):
            ModelDims(4, 2, 5, 4, 5)  # no real vocab entries


class TestForward:
    def test_identical_contexts_split_attention(self):
        params = init_params(DIMS, AttentionVariant.SOFT, 3)
        example = EncodedExample(2, np.array([2, 2, 0]), np.array([3, 3, 0]),
                                 np.array([4, 4, 0]),
                                 np.array([1.0, 1.0, 0.0]))
        trace = forward(params, example)
        assert trace.alpha[:2] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert trace.alpha[2] == 0.0

    def test_singleton_bag_all_variants_coincide(self):
        rng = np.random.default_rng(0)
        example = random_encoded(rng, DIMS, n_valid=1)
        reference = None
        for variant in (AttentionVariant.SOFT, AttentionVariant.NO_ATTENTION,
                        AttentionVariant.HARD,
                        AttentionVariant.TRAIN_SOFT_PREDICT_HARD):
            params = init_params(DIMS, variant, 11)
            trace = forward(params, example)
            assert trace.alpha[0] == 1.0
            assert np.allclose(trace.code_vector, trace.combined[0], atol=0)
            if reference is None:
                reference = trace.q
            else:
                assert np.allclose(trace.q, reference, atol=1e-12)

    def test_contract_sums(self):
        rng = np.random.default_rng(1)
        for variant in AttentionVariant:
            params = as_float64(init_params(DIMS, variant, 5))
            for _ in range(30):
                example = random_encoded(rng, DIMS)
                trace = forward(params, example)
                assert trace.alpha.sum(axis=0) == pytest.approx(
                    np.ones(()) if trace.alpha.ndim == 1 else np.ones(DIMS.d),
                    abs=1e-9)
                assert trace.q.sum() == pytest.approx(1.0, abs=1e-9)
                assert trace.q[PAD_ID] == 0.0
                assert (trace.alpha[~example.mask.astype(bool)] == 0).all()
                assert (np.abs(trace.combined) < 1.0).all() or \
                    variant is AttentionVariant.SOFT_NO_FC

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        dims = ModelDims(4, 5, 4, 3, 3)
        for seed in range(20):
            params = init_params(dims, AttentionVariant.SOFT, seed)
            example = random_encoded(rng, dims)
            trace = forward(params, example)
            expected = oracle_forward_soft(params, example)
            assert np.allclose(trace.q, expected, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for variant in AttentionVariant:
            params = init_params(DIMS, variant, 7)
            example = random_encoded(rng, DIMS, n_valid=DIMS.k_max)
            perm = rng.permutation(DIMS.k_max)
            shuffled = EncodedExample(example.label_id, example.sources[perm],
                                      example.paths[perm], example.targets[perm],
                                      example.mask[perm])
            a = forward(params, example)
            b = forward(params, shuffled)
            assert np.allclose(a.code_vector, b.code_vector, atol=1e-12)
            assert np.allclose(a.q, b.q, atol=1e-12)

    def test_all_masked_rejected(self):
        params = init_params(DIMS, AttentionVariant.SOFT, 0)
        example = EncodedExample(2, np.zeros(3, int), np.zeros(3, int),
                                 np.zeros(3, int), np.zeros(3))
        with pytest.raises(ValueError):
            forward(params, example)

    def test_no_attention_is_mean(self):
        rng = np.random.default_rng(4)
        params = init_params(DIMS, AttentionVariant.NO_ATTENTION, 2)
        example = random_encoded(rng, DIMS, n_valid=3)
        trace = forward(params, example)
        assert np.allclose(trace.code_vector, trace.combined[:3].mean(axis=0),
                           atol=1e-12)

    def test_no_attention_equals_soft_with_zero_vector(self):
        rng = np.random.default_rng(5)
        params = init_params(DIMS, AttentionVariant.SOFT, 2)
        params.attention[:] = 0.0
        example = random_encoded(rng, DIMS)
        soft = forward(params, example)
        none_params = ModelParams(DIMS, AttentionVariant.NO_ATTENTION,
                                  params.value_vocab, params.path_vocab,
                                  params.W, params.attention, params.tags_vocab)
        uniform = forward(none_params, example)
        assert np.allclose(soft.q, uniform.q, atol=1e-12)

    def test_hard_selects_argmax_combined(self):
        rng = np.random.default_rng(6)
        params = init_params(DIMS, AttentionVariant.HARD, 2)
        example = random_encoded(rng, DIMS, n_valid=4)
        trace = forward(params, example)
        chosen = int(np.argmax(trace.alpha))
        assert trace.alpha[chosen] == 1.0
        assert (trace.code_vector == trace.combined[chosen]).all()

    def test_hard_tie_break_lowest_index(self):
        params = init_params(DIMS, AttentionVariant.HARD, 2)
        example = EncodedExample(2, np.array([3, 3]), np.array([2, 2]),
                                 np.array([4, 4]), np.array([1.0, 1.0]))
        trace = forward(params, example)
        assert trace.alpha.tolist() == [1.0, 0.0]

    def test_dropout_train_vs_infer(self):
        rng = np.random.default_rng(7)
        params = init_params(DIMS, AttentionVariant.SOFT, 2)
        example = random_encoded(rng, DIMS)
        infer = forward(params, example)
        dropped = forward(params, example, mode="train", dropout_rate=0.5,
                          rng=np.random.default_rng(0))
        assert not np.allclose(infer.q, dropped.q)
        # inverted dropout: kept entries are scaled by 1/keep
        scale = dropped.dropout_scale
        assert set(np.round(np.unique(scale), 9)) <= {0.0, 2.0}
        with pytest.raises(ValueError):
            forward(params, example, mode="train", dropout_rate=0.5)


def full_sort(scores, k, exclude):
    """Reference ranking: every id sorted by score, then id, exclusions dropped."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [int(i) for i in order if i not in exclude][:k]


class TestTopK:
    SCORES = np.array([1.0, 3.0, 2.0, 3.0, 2.0, 2.0, 0.0])

    def test_tie_straddling_k(self):
        assert top_k(self.SCORES, 3) == full_sort(self.SCORES, 3, set()) == [1, 3, 2]

    def test_excluded_ids_in_shortlist_and_at_the_tie(self):
        # 3 ranks inside the shortlist; 2 opens the tie at position k.
        assert top_k(self.SCORES, 3, {3, 2}) == full_sort(self.SCORES, 3, {3, 2}) == [1, 4, 5]

    def test_shortlist_covering_every_id_sorts_all(self):
        assert top_k(self.SCORES, 5, {0, 4}) == full_sort(self.SCORES, 5, {0, 4})
        assert top_k(self.SCORES, 7) == full_sort(self.SCORES, 7, set())
        assert top_k(self.SCORES, 100, {6}) == [1, 3, 2, 4, 5, 0]

    def test_k_zero(self):
        assert top_k(self.SCORES, 0) == top_k(self.SCORES, 0, {1}) == []

    def test_every_id_excluded(self):
        assert top_k(self.SCORES, 3, set(range(len(self.SCORES)))) == []

    def test_matches_full_sort_on_tied_scores(self):
        # Four distinct values put ties at and across every position.
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            scores = rng.integers(0, 4, size=n).astype(np.float32)
            exclude = set(rng.choice(n, size=int(rng.integers(0, n + 1)),
                                     replace=False).tolist())
            k = int(rng.integers(0, n + 2))
            assert top_k(scores, k, exclude) == full_sort(scores, k, exclude)


class TestPredict:
    def test_full_distribution_sums_to_one(self):
        rng = np.random.default_rng(8)
        params = as_float64(init_params(DIMS, AttentionVariant.SOFT, 4))
        example = random_encoded(rng, DIMS)
        ranked = predict_topk(params, example, DIMS.num_tags, tag_vocabs(DIMS.num_tags))
        assert sum(p for _, p in ranked) == pytest.approx(1.0, abs=1e-9)
        probs = [p for _, p in ranked]
        assert probs == sorted(probs, reverse=True)

    def test_k_clamped(self):
        rng = np.random.default_rng(9)
        params = init_params(DIMS, AttentionVariant.SOFT, 4)
        example = random_encoded(rng, DIMS)
        vocabs = tag_vocabs(DIMS.num_tags)
        ranked = predict_topk(params, example, 100, vocabs)
        assert len(ranked) == DIMS.num_tags - 1
        assert vocabs.tags.entry(PAD_ID) not in [tag for tag, _ in ranked]

    @pytest.mark.parametrize("k", [1, 3, 5, 12])
    def test_ties_ranked_by_id_like_a_full_sort(self, k):
        # Tag rows copied within a class give exactly equal probabilities.
        # Class sizes 2, 2, 3, 2, 2 over ids 1..11 put ties across
        # positions 1, 3 and 5 and below them. PAD is never listed.
        dims = ModelDims(d=4, num_values=6, num_paths=5, num_tags=12, k_max=5)
        rng = np.random.default_rng(11)
        params = init_params(dims, AttentionVariant.SOFT, 4)
        example = random_encoded(rng, dims)
        code = forward(params, example).code_vector
        ids = rng.permutation(np.arange(1, 12))
        for cls, members in enumerate(np.split(ids, [2, 4, 7, 9])):
            params.tags_vocab[members] = (3.0 - cls) * code / (code @ code)
        q = forward(params, example).q
        assert q[ids[4]] == q[ids[5]] == q[ids[6]] > q[ids[7]] == q[ids[8]]
        full = [i for i in np.lexsort((np.arange(len(q)), -q)) if i != PAD_ID][:k]
        vocabs = tag_vocabs(dims.num_tags)
        assert predict_topk(params, example, k, vocabs) == [
            (vocabs.tags.entry(int(i)), float(q[i])) for i in full]

    def test_train_soft_predict_hard_uses_hard_at_inference(self):
        rng = np.random.default_rng(10)
        example = random_encoded(rng, DIMS, n_valid=4)
        mixed = init_params(DIMS, AttentionVariant.TRAIN_SOFT_PREDICT_HARD, 4)
        hard = ModelParams(DIMS, AttentionVariant.HARD, mixed.value_vocab,
                           mixed.path_vocab, mixed.W, mixed.attention,
                           mixed.tags_vocab)
        vocabs = tag_vocabs(DIMS.num_tags)
        assert predict_topk(mixed, example, 3, vocabs) == predict_topk(
            hard, example, 3, vocabs)
        soft_trace = forward(mixed, example, mode="train")
        assert 0.0 < soft_trace.alpha.max() < 1.0


def tiny_vocabs():
    path = path_from_string("NameExpr^AssignExpr_IntegerLiteralExpr")
    examples = [RawExample("setX", [PathContext("x", path, "7")]),
                RawExample("setY", [PathContext("y", path, "8")])]
    return build_vocabs(examples)


class TestSerialization:
    def make_model(self, variant, seed=0, ablation=ABLATIONS["full"]):
        vocabs = tiny_vocabs()
        dims = ModelDims(4, len(vocabs.values), len(vocabs.paths),
                         len(vocabs.tags), 5)
        params = init_params(dims, variant, seed, ablation)
        return params, vocabs

    @pytest.mark.parametrize("hide", list(itertools.product([False, True], repeat=3)),
                             ids=lambda hide: "".join("01"[h] for h in hide))
    def test_ablation_round_trips(self, tmp_path, hide):
        # Any AblationMask, the five named ones among them, is saved in the
        # header; save -> load -> save is byte-identical.
        ablation = AblationMask(*hide)
        params, vocabs = self.make_model(AttentionVariant.SOFT, ablation=ablation)
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_model(str(first), params, vocabs)
        loaded, loaded_vocabs = load_model(str(first))
        assert loaded.ablation == ablation
        save_model(str(second), loaded, loaded_vocabs)
        assert second.read_bytes() == first.read_bytes()
        bits = struct.unpack_from("<I", first.read_bytes(), 28)[0]
        assert bits == hide[0] + 2 * hide[1] + 4 * hide[2]

    def test_init_params_ablation_defaults_to_full(self):
        params, _ = self.make_model(AttentionVariant.SOFT)
        assert params.ablation == ABLATIONS["full"] == AblationMask()
        assert params.copy().ablation == params.ablation

    @pytest.mark.parametrize("bits", [8, 9, 2**32 - 1])
    def test_unknown_ablation_bits_rejected(self, tmp_path, bits):
        params, vocabs = self.make_model(AttentionVariant.SOFT)
        path = tmp_path / "model.bin"
        save_model(str(path), params, vocabs)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 28, bits)
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match=f"^unknown ablation bits {bits}$"):
            load_model(str(path))

    def test_previous_format_rejected(self, tmp_path):
        # A C2V1 file, whose header had no ablation field, is not read.
        params, vocabs = self.make_model(AttentionVariant.SOFT)
        path = tmp_path / "model.bin"
        save_model(str(path), params, vocabs)
        path.write_bytes(b"C2V1" + path.read_bytes()[4:])
        with pytest.raises(ModelFormatError, match="^bad magic"):
            load_model(str(path))

    @pytest.mark.parametrize("variant", list(AttentionVariant))
    def test_round_trip_bit_identical(self, tmp_path, variant):
        params, vocabs = self.make_model(variant)
        path = str(tmp_path / "model.bin")
        save_model(path, params, vocabs)
        loaded, loaded_vocabs = load_model(path)
        assert loaded.variant is variant
        assert loaded.dims == params.dims
        for name, arr in params.groups().items():
            assert (arr == loaded.groups()[name]).all()
        for name in ("values", "tags"):
            got, expected = getattr(loaded_vocabs, name), getattr(vocabs, name)
            assert (got.entries, got.counts) == (expected.entries, expected.counts)

    def test_round_trip_predictions_identical(self, tmp_path):
        params, vocabs = self.make_model(AttentionVariant.SOFT, seed=3)
        path = str(tmp_path / "model.bin")
        save_model(path, params, vocabs)
        loaded, loaded_vocabs = load_model(path)
        rng = np.random.default_rng(0)
        for _ in range(100):
            example = random_encoded(rng, params.dims)
            assert predict_topk(params, example, 3, vocabs) == predict_topk(
                loaded, example, 3, loaded_vocabs)

    def test_non_finite_matrix_rejected(self, tmp_path):
        params, vocabs = self.make_model(AttentionVariant.SOFT)
        path = tmp_path / "model.bin"
        save_model_with(path, params, vocabs, "W", (1, 2), np.nan)
        with pytest.raises(ModelFormatError, match="non-finite values in W"):
            load_model(str(path))
        # save_model itself refuses such a value and leaves no file
        params.W[1, 2] = np.nan
        refused = tmp_path / "refused.bin"
        with pytest.raises(TrainingError, match="^W is not finite in single precision$"):
            save_model(str(refused), params, vocabs)
        assert not refused.exists()

    # Header u32 fields 0-6 after the magic: variant, d, |X|, |P|, |Y|, k_max,
    # ablation bits.
    @pytest.mark.parametrize("field,value", [
        (1, 0), (5, 0), (5, MAX_SLOTS + 1), (2, 2), (4, 1)],
        ids=["d=0", "k_max=0", "k_max too large", "2 values", "1 tag"])
    def test_bad_header_dimension(self, tmp_path, field, value):
        params, vocabs = self.make_model(AttentionVariant.SOFT)
        path = tmp_path / "model.bin"
        save_model(str(path), params, vocabs)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4 + 4 * field, value)
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="^bad model file: "):
            load_model(str(path))

    def test_vocabulary_block_not_utf8(self, tmp_path):
        params, vocabs = self.make_model(AttentionVariant.SOFT)
        path = tmp_path / "model.bin"
        save_model(str(path), params, vocabs)
        data = bytearray(path.read_bytes())
        data[36] = 0xFF  # first byte of the vocabulary block
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="utf-8"):
            load_model(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def test_truncated(self, tmp_path):
        params, vocabs = self.make_model(AttentionVariant.SOFT)
        path = tmp_path / "model.bin"
        save_model(str(path), params, vocabs)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ModelFormatError):
            load_model(str(path))
