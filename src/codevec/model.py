"""Learnable parameters and the forward pass: embedding lookup, combination
layer, attention (soft / none / hard / train-soft-predict-hard /
element-wise / no-FC), code vector aggregation, and the tag distribution.
Every intermediate is exposed for backprop and inspection.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import PAD_ID, EncodedExample, Vocabs, format_vocabs, parse_vocabs
from .errors import ModelFormatError


class AttentionVariant(Enum):
    SOFT = "soft"
    NO_ATTENTION = "none"
    HARD = "hard"
    TRAIN_SOFT_PREDICT_HARD = "soft-hard"
    ELEMENT_WISE = "elementwise"
    SOFT_NO_FC = "nofc"


# Stable codes for the binary model format.
_VARIANT_CODES = {v: i for i, v in enumerate(AttentionVariant)}
_CODE_VARIANTS = {i: v for v, i in _VARIANT_CODES.items()}


@dataclass(frozen=True)
class ModelDims:
    d: int
    num_values: int
    num_paths: int
    num_tags: int
    k_max: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("embedding size must be >= 1")
        if min(self.num_values, self.num_paths, self.num_tags) <= 2:
            raise ValueError("vocabularies must contain at least one real entry")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


@dataclass
class ModelParams:
    dims: ModelDims
    variant: AttentionVariant
    value_vocab: np.ndarray  # (|X|, d)
    path_vocab: np.ndarray   # (|P|, d)
    W: np.ndarray | None     # (d, 3d); absent for the no-FC variant
    attention: np.ndarray    # (d,), (3d,) for no-FC, (d, d) for element-wise
    tags_vocab: np.ndarray   # (|Y|, d), (|Y|, 3d) for no-FC

    def groups(self) -> dict[str, np.ndarray]:
        """Named learnable arrays, in declaration order."""
        out = {"value_vocab": self.value_vocab, "path_vocab": self.path_vocab}
        if self.W is not None:
            out["W"] = self.W
        out["attention"] = self.attention
        out["tags_vocab"] = self.tags_vocab
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims, self.variant, self.value_vocab.copy(),
                           self.path_vocab.copy(),
                           None if self.W is None else self.W.copy(),
                           self.attention.copy(), self.tags_vocab.copy())

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(self.dims, self.variant,
                           self.value_vocab.astype(dtype),
                           self.path_vocab.astype(dtype),
                           None if self.W is None else self.W.astype(dtype),
                           self.attention.astype(dtype),
                           self.tags_vocab.astype(dtype))


@dataclass
class ForwardTrace:
    """Per-example intermediates. Rows of padded slots are zero; `alpha` is
    (k,) for scalar attention or (k, d) for element-wise."""

    context_vectors: np.ndarray   # (k, 3d) after dropout scaling
    dropout_scale: np.ndarray     # (k, 3d) multiplier applied to raw contexts
    combined: np.ndarray          # (k, dc)
    alpha: np.ndarray
    code_vector: np.ndarray       # (dc,)
    logits: np.ndarray            # (|Y|,)
    q: np.ndarray                 # (|Y|,), q[PAD] == 0
    mask: np.ndarray              # (k,)
    attention_kind: str           # 'soft' | 'uniform' | 'hard' | 'elementwise'


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], dtype=np.float64):
    fan_in, fan_out = (shape[0], shape[1]) if len(shape) == 2 else (1, shape[0])
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_params(dims: ModelDims, variant: AttentionVariant, seed: int,
                dtype=np.float64) -> ModelParams:
    """Glorot-uniform initialization, deterministic per seed; PAD rows zero."""
    rng = np.random.default_rng(seed)
    d = dims.d
    value_vocab = _glorot(rng, (dims.num_values, d), dtype)
    path_vocab = _glorot(rng, (dims.num_paths, d), dtype)
    if variant is AttentionVariant.SOFT_NO_FC:
        W = None
        attention = _glorot(rng, (3 * d,), dtype)
        tags_vocab = _glorot(rng, (dims.num_tags, 3 * d), dtype)
    else:
        W = _glorot(rng, (d, 3 * d), dtype)
        if variant is AttentionVariant.ELEMENT_WISE:
            attention = _glorot(rng, (d, d), dtype)
        else:
            attention = _glorot(rng, (d,), dtype)
        tags_vocab = _glorot(rng, (dims.num_tags, d), dtype)
    value_vocab[PAD_ID] = 0.0
    path_vocab[PAD_ID] = 0.0
    tags_vocab[PAD_ID] = 0.0
    return ModelParams(dims, variant, value_vocab, path_vocab, W, attention, tags_vocab)


def _masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over slots where mask is 1; masked slots get exactly zero.

    Works per column when logits is (k, d). Max-subtraction keeps the exp
    in range for large scores.
    """
    valid = mask.astype(bool)
    if logits.ndim == 2:
        valid = valid[:, None]
    shifted = np.where(valid, logits, -np.inf)
    exp = np.exp(shifted - shifted.max(axis=0))
    return exp / exp.sum(axis=0)


def _stable_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def _attention_kind(variant: AttentionVariant, mode: str) -> str:
    if variant is AttentionVariant.NO_ATTENTION:
        return "uniform"
    if variant is AttentionVariant.HARD:
        return "hard"
    if variant is AttentionVariant.TRAIN_SOFT_PREDICT_HARD:
        return "soft" if mode == "train" else "hard"
    if variant is AttentionVariant.ELEMENT_WISE:
        return "elementwise"
    return "soft"


def forward(params: ModelParams, example: EncodedExample, mode: str = "infer",
            dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
            dropout_mask: np.ndarray | None = None) -> ForwardTrace:
    """Compute the full forward pass for one encoded example.

    In train mode, inverted dropout with the given rate is applied to the
    context vectors (kept entries scaled by 1/keep); pass `dropout_mask`
    to reuse a recorded binary mask, e.g. for finite-difference checks.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    mask = example.mask.astype(params.value_vocab.dtype)
    if not mask.any():
        raise ValueError("all slots are masked; nothing to aggregate")

    contexts = np.concatenate([
        params.value_vocab[example.sources],
        params.path_vocab[example.paths],
        params.value_vocab[example.targets],
    ], axis=1) * mask[:, None]

    if mode == "train" and dropout_rate > 0.0:
        keep = 1.0 - dropout_rate
        if dropout_mask is None:
            if rng is None:
                raise ValueError("train-mode dropout requires an rng or a recorded mask")
            dropout_mask = (rng.random(contexts.shape) < keep).astype(contexts.dtype)
        scale = dropout_mask / keep
    else:
        scale = np.ones_like(contexts)
    contexts = contexts * scale

    if params.variant is AttentionVariant.SOFT_NO_FC:
        combined = contexts
    else:
        combined = np.tanh(contexts @ params.W.T) * mask[:, None]

    kind = _attention_kind(params.variant, mode)
    if kind == "uniform":
        alpha = mask / mask.sum()
    elif kind == "elementwise":
        scores = combined @ params.attention  # (k, d); column j scored by a_j
        alpha = _masked_softmax(scores, mask)
    else:
        scores = combined @ params.attention  # (k,)
        if kind == "hard":
            alpha = np.zeros_like(scores)
            # Lowest index wins ties: argmax on a masked array returns the
            # first occurrence of the maximum.
            alpha[np.argmax(np.where(mask.astype(bool), scores, -np.inf))] = 1.0
        else:
            alpha = _masked_softmax(scores, mask)

    if kind == "elementwise":
        code_vector = (alpha * combined).sum(axis=0)
    else:
        code_vector = alpha @ combined

    logits = params.tags_vocab @ code_vector
    logits_masked = logits.copy()
    logits_masked[PAD_ID] = -np.inf  # PAD is never a real label
    q = _stable_softmax(logits_masked)
    q[PAD_ID] = 0.0

    return ForwardTrace(contexts, scale, combined, alpha, code_vector,
                        logits, q, mask, kind)


def predict_topk(params: ModelParams, example: EncodedExample, k: int,
                 vocabs: Vocabs | None = None):
    """Top-k tags by probability, ties broken by tag id ascending. Returns
    (tag string, probability) pairs when vocabs is given, else tag ids."""
    trace = forward(params, example, mode="infer")
    k = min(k, len(trace.q))
    ranked = np.lexsort((np.arange(len(trace.q)), -trace.q))[:k]
    if vocabs is None:
        return [(int(i), float(trace.q[i])) for i in ranked]
    return [(vocabs.tags.entry(int(i)), float(trace.q[i])) for i in ranked]


# --- binary model format -----------------------------------------------------
#
# magic 'C2V1'; little-endian u32 [variant code, d, |X|, |P|, |Y|, k_max];
# u32-length-prefixed UTF-8 vocabulary block; matrices in declaration
# order, row-major float32 little-endian.

MAGIC = b"C2V1"


def _matrix_order(params: ModelParams):
    mats = [params.value_vocab, params.path_vocab]
    if params.W is not None:
        mats.append(params.W)
    mats.extend([params.attention, params.tags_vocab])
    return mats


def save_model(path: str, params: ModelParams, vocabs: Vocabs) -> None:
    """Write the model in single precision together with its vocabularies."""
    dims = params.dims
    vocab_blob = format_vocabs(vocabs).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<6I", _VARIANT_CODES[params.variant], dims.d,
                                 dims.num_values, dims.num_paths, dims.num_tags,
                                 dims.k_max))
        handle.write(struct.pack("<I", len(vocab_blob)))
        handle.write(vocab_blob)
        for matrix in _matrix_order(params):
            handle.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def load_model(path: str) -> tuple[ModelParams, Vocabs]:
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != MAGIC:
        raise ModelFormatError("bad magic; not a codevec model file")
    try:
        code, d, nx, np_, ny, k_max = struct.unpack_from("<6I", data, 4)
        (blob_len,) = struct.unpack_from("<I", data, 28)
        blob = data[32:32 + blob_len]
        if len(blob) != blob_len:
            raise ModelFormatError("truncated vocabulary block")
        vocabs = parse_vocabs(blob.decode("utf-8"))
        variant = _CODE_VARIANTS.get(code)
        if variant is None:
            raise ModelFormatError(f"unknown variant code {code}")
        dims = ModelDims(d, nx, np_, ny, k_max)
        if (len(vocabs.values), len(vocabs.paths), len(vocabs.tags)) != (nx, np_, ny):
            raise ModelFormatError("vocabulary sizes disagree with header")

        offset = 32 + blob_len

        def take(shape):
            nonlocal offset
            count = int(np.prod(shape))
            if offset + 4 * count > len(data):
                raise ModelFormatError("truncated matrix data")
            arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
            offset += 4 * count
            return arr.reshape(shape).astype(np.float32)

        value_vocab = take((nx, d))
        path_vocab = take((np_, d))
        if variant is AttentionVariant.SOFT_NO_FC:
            W = None
            attention = take((3 * d,))
            tags_vocab = take((ny, 3 * d))
        else:
            W = take((d, 3 * d))
            attention = take((d, d)) if variant is AttentionVariant.ELEMENT_WISE else take((d,))
            tags_vocab = take((ny, d))
        if offset != len(data):
            raise ModelFormatError("trailing bytes after matrices")
    except struct.error as exc:
        raise ModelFormatError(f"truncated model file: {exc}") from None
    return ModelParams(dims, variant, value_vocab, path_vocab, W, attention,
                       tags_vocab), vocabs
