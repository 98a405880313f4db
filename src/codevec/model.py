"""Learnable parameters and the forward pass: embedding lookup, combination
layer, attention (soft / none / hard / train-soft-predict-hard /
element-wise / no-FC), code vector aggregation, and the tag distribution.
Every intermediate is exposed for backprop and inspection.
"""

from __future__ import annotations

import io
import math
import os
import stat
import struct
from dataclasses import astuple, dataclass, replace
from enum import Enum

import numpy as np

from .corpus import (ABLATIONS, PAD_ID, AblationMask, EncodedExample, Vocabs,
                     format_vocabs, parse_vocabs)
from .errors import ModelFormatError, TrainingError


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


# Largest k_max, the context slots per example, a model may have: a model
# file read from disk sets how many slots predict and eval allocate.
MAX_SLOTS = 1 << 16


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
        if not 1 <= self.k_max <= MAX_SLOTS:
            raise ValueError(f"k_max must be in [1, {MAX_SLOTS}]")


@dataclass
class ModelParams:
    dims: ModelDims
    variant: AttentionVariant
    value_vocab: np.ndarray  # (|X|, d)
    path_vocab: np.ndarray   # (|P|, d)
    W: np.ndarray | None     # (d, 3d); absent for the no-FC variant
    attention: np.ndarray    # (d,), (3d,) for no-FC, (d, d) for element-wise
    tags_vocab: np.ndarray   # (|Y|, d), (|Y|, 3d) for no-FC
    ablation: AblationMask = ABLATIONS["full"]  # the encoding it was trained on

    def groups(self) -> dict[str, np.ndarray]:
        """Named learnable arrays, in declaration order."""
        out = {"value_vocab": self.value_vocab, "path_vocab": self.path_vocab}
        if self.W is not None:
            out["W"] = self.W
        out["attention"] = self.attention
        out["tags_vocab"] = self.tags_vocab
        return out

    def copy(self) -> "ModelParams":
        return replace(self, **{name: arr.copy() for name, arr in self.groups().items()})


@dataclass
class ForwardTrace:
    """Forward-pass intermediates. Rows of padded slots are zero; `alpha` is
    (k,) for scalar attention or (k, d) for element-wise. The shapes are
    those of one example; a stacked batch adds a leading batch axis."""

    context_vectors: np.ndarray | None  # (k, 3d) after dropout scaling; train mode only
    dropout_scale: np.ndarray | float  # (k, 3d) train-mode dropout multiplier, else 1.0
    combined: np.ndarray          # (k, dc)
    alpha: np.ndarray
    code_vector: np.ndarray       # (dc,)
    log_q: np.ndarray             # (|Y|,), log q; log_q[PAD] == -inf
    q: np.ndarray                 # (|Y|,), q[PAD] == 0
    mask: np.ndarray              # (k,)
    attention_kind: str           # 'soft' (element-wise too) | 'uniform' | 'hard'


# Elements per float64 draw of `_glorot`: the most it holds beyond its result.
INIT_BLOCK = 1 << 16


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """`rng.uniform(-bound, bound, size=shape)` in float32, drawn by blocks."""
    fan_in, fan_out = (shape[0], shape[1]) if len(shape) == 2 else (1, shape[0])
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    for start in range(0, flat.size, INIT_BLOCK):
        flat[start:start + INIT_BLOCK] = rng.uniform(
            -bound, bound, size=min(INIT_BLOCK, flat.size - start))
    return out


def _shapes(dims: ModelDims, variant: AttentionVariant) -> dict[str, tuple[int, ...]]:
    """Shape of each learnable group, in declaration order."""
    d = dims.d
    shapes = {"value_vocab": (dims.num_values, d), "path_vocab": (dims.num_paths, d)}
    if variant is AttentionVariant.SOFT_NO_FC:
        shapes["attention"] = (3 * d,)
        shapes["tags_vocab"] = (dims.num_tags, 3 * d)
    else:
        shapes["W"] = (d, 3 * d)
        shapes["attention"] = (d, d) if variant is AttentionVariant.ELEMENT_WISE else (d,)
        shapes["tags_vocab"] = (dims.num_tags, d)
    return shapes


def init_params(dims: ModelDims, variant: AttentionVariant, seed: int,
                ablation: AblationMask = ABLATIONS["full"]) -> ModelParams:
    """Glorot-uniform initialization, deterministic per seed; PAD rows zero.
    Single precision, as the model file stores it: training, inference
    and `save_model` all see the same values."""
    rng = np.random.default_rng(seed)
    groups = {name: _glorot(rng, shape) for name, shape in _shapes(dims, variant).items()}
    for name in ("value_vocab", "path_vocab", "tags_vocab"):
        groups[name][PAD_ID] = 0.0
    return ModelParams(dims, variant, **{"W": None, **groups}, ablation=ablation)


def _attention_kind(variant: AttentionVariant, mode: str) -> str:
    if variant is AttentionVariant.NO_ATTENTION:
        return "uniform"
    if variant is AttentionVariant.HARD:
        return "hard"
    if variant is AttentionVariant.TRAIN_SOFT_PREDICT_HARD:
        return "soft" if mode == "train" else "hard"
    return "soft"


def _project(table: np.ndarray, ids: np.ndarray, block: np.ndarray) -> np.ndarray:
    """table[ids] @ block.T, each distinct id's row multiplied once. Entries
    are clipped to a third of the largest float, so that a sum of three
    stays finite (not inf - inf) and tanh of it saturates."""
    unique, inverse = np.unique(ids, return_inverse=True)
    product = table[unique] @ block.T
    limit = np.finfo(product.dtype).max / 3
    return np.clip(product, -limit, limit, out=product)[inverse]


@np.errstate(all="ignore")  # q (infer) or the loss (train) is checked instead
def forward(params: ModelParams, example: EncodedExample, mode: str = "infer",
            dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
            ) -> ForwardTrace:
    """Compute the full forward pass for one encoded example, or for a
    batch from `corpus.encode_batch`: its arrays carry a leading batch
    axis, and so does every array of the trace.

    In train mode, inverted dropout at the given rate scales the context
    vectors (kept entries by 1/keep); `rng` draws one float64 per entry.
    In infer mode, where W·[x_s; p; x_t] = W_s·x_s + W_p·p + W_t·x_t, each
    distinct id of the valid slots is projected once through its block of W,
    the trace holds no context vectors, and a non-finite q raises TrainingError.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    mask = example.mask.astype(params.value_vocab.dtype)
    valid = mask.astype(bool)
    if not valid.any(axis=-1).all():
        raise ValueError("all slots are masked; nothing to aggregate")
    columns = ((params.value_vocab, example.sources), (params.path_vocab, example.paths),
               (params.value_vocab, example.targets))

    d = params.dims.d
    contexts, scale = None, 1.0
    if mode == "infer" and params.W is not None:
        source, path, target = (_project(table, ids[valid], params.W[:, j * d:(j + 1) * d])
                                for j, (table, ids) in enumerate(columns))
        combined = np.zeros(valid.shape + (d,), source.dtype)
        combined[valid] = np.tanh(source + path + target)
    else:
        contexts = np.empty(valid.shape + (3 * d,), params.value_vocab.dtype)
        for j, (table, ids) in enumerate(columns):
            contexts[..., j * d:(j + 1) * d] = table[ids]
        contexts[~valid] = 0.0  # a masked slot's row is zero from here on
        if mode == "train" and dropout_rate > 0.0:
            if rng is None:
                raise ValueError("train-mode dropout requires an rng")
            keep = 1.0 - dropout_rate
            scale = np.empty_like(contexts)  # per example: the stream of one whole draw
            for block in scale.reshape(-1, *contexts.shape[-2:]):
                np.less(rng.random(block.shape), keep, out=block)
            scale /= keep
            contexts *= scale
        combined = contexts if params.W is None else np.tanh(
            contexts.reshape(-1, 3 * d) @ params.W.T).reshape(valid.shape + (d,))

    # alpha is (..., k, w): w = d for element-wise attention, else 1. A
    # masked slot scores -inf, so it gets exactly zero weight.
    kind = _attention_kind(params.variant, mode)
    scores = combined @ params.attention.reshape(combined.shape[-1], -1)
    scores = np.where(valid[..., None], scores, -np.inf)
    if kind == "uniform":
        alpha = (mask / mask.sum(axis=-1, keepdims=True))[..., None]
    elif kind == "hard":  # argmax returns the first maximum: the lowest index wins ties
        best = np.argmax(scores, axis=-2)
        alpha = (np.arange(valid.shape[-1])[:, None] == best[..., None, :]).astype(scores.dtype)
    else:  # softmax over the slots; max-subtraction keeps exp in range
        alpha = np.exp(scores - scores.max(axis=-2, keepdims=True))
        alpha /= alpha.sum(axis=-2, keepdims=True)

    # v = sum_i alpha_i * c_i; for scalar weights one batched matmul, alpha^T @ combined.
    if params.attention.ndim == 1:
        alpha = alpha[..., 0]
        code_vector = (alpha[..., None, :] @ combined)[..., 0, :]
    else:
        code_vector = (alpha * combined).sum(axis=-2)

    # PAD is never a real label: q[PAD] == 0 and log_q[PAD] == -inf.
    shifted = code_vector @ params.tags_vocab.T
    shifted[..., PAD_ID] = -np.inf
    shifted -= shifted.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    q = exp / total
    if mode == "infer" and not np.isfinite(q).all():
        raise TrainingError("non-finite scores")

    return ForwardTrace(contexts if mode == "train" else None, scale, combined, alpha,
                        code_vector, shifted - np.log(total), q, mask, kind)


def top_k(scores: np.ndarray, k: int,
          exclude: set[int] | frozenset[int] = frozenset()) -> list[int]:
    """Ids of the k highest scores, ties broken by id ascending, skipping
    any id in `exclude`.

    Only the scores at or above the (k + len(exclude))-th largest are
    sorted; that shortlist keeps every tie straddling the position.
    """
    if k <= 0:
        return []
    m = k + len(exclude)
    if m >= len(scores):
        order = np.argsort(-scores, kind="stable")  # equal scores stay in id order
    else:
        kth = scores[np.argpartition(-scores, m - 1)[m - 1]]
        shortlist = np.flatnonzero(scores >= kth)
        order = shortlist[np.argsort(-scores[shortlist], kind="stable")]
    return [i for i in order.tolist() if i not in exclude][:k]


def predict_topk(params: ModelParams, example: EncodedExample, k: int,
                 vocabs: Vocabs) -> list[tuple[str, float]]:
    """Top-k (tag, probability) pairs ranked by `top_k`; PAD, never a real
    label, is never listed."""
    q = forward(params, example, mode="infer").q
    return [(vocabs.tags.entry(i), float(q[i])) for i in top_k(q, k, {PAD_ID})]


# --- binary model format -----------------------------------------------------
#
# magic 'C2V2'; little-endian u32 [variant code, d, |X|, |P|, |Y|, k_max,
# ablation bits: bit i set hides AblationMask field i, so 1 source, 2 path,
# 4 target]; u32-length-prefixed UTF-8 vocabulary block; matrices in
# declaration order, row-major float32 little-endian.

MAGIC = b"C2V2"


def check_single_precision(params: ModelParams, suffix: str = "") -> None:
    """TrainingError, ending in `suffix`, unless every value fits a model file."""
    limit = np.finfo(np.float32).max
    for name, arr in params.groups().items():
        if not -limit <= arr.min() <= arr.max() <= limit:
            raise TrainingError(f"{name} is not finite in single precision{suffix}")


def save_model(path: str, params: ModelParams, vocabs: Vocabs) -> None:
    """Write the model in single precision together with its vocabularies."""
    check_single_precision(params)
    dims = params.dims
    vocab_blob = format_vocabs(vocabs).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<7I", _VARIANT_CODES[params.variant], dims.d,
                                 dims.num_values, dims.num_paths, dims.num_tags,
                                 dims.k_max, sum(hide << i for i, hide in
                                                 enumerate(astuple(params.ablation)))))
        handle.write(struct.pack("<I", len(vocab_blob)))
        handle.write(vocab_blob)
        for matrix in params.groups().values():
            handle.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def _read_matrix(handle: io.BufferedIOBase, shape: tuple[int, ...]) -> np.ndarray:
    """The next row-major little-endian float32 matrix of `handle`, read in place."""
    matrix = np.empty(shape, "<f4")
    if handle.readinto(matrix.reshape(-1).view(np.uint8)) != matrix.nbytes:
        raise ModelFormatError("truncated matrix data")
    return matrix.astype(np.float32, copy=False)


def load_model(path: str) -> tuple[ModelParams, Vocabs]:
    """The model and vocabularies of a model file. Every size is checked
    against the header and the file's size before anything is allocated;
    each matrix is then read in place."""
    with open(path, "rb") as file:
        status = os.fstat(file.fileno())
        if stat.S_ISREG(status.st_mode):
            handle, size = file, status.st_size
        else:  # a pipe, whose size is known once it is read whole
            data = file.read()
            handle, size = io.BytesIO(data), len(data)
        head = handle.read(36)
        if head[:4] != MAGIC:
            raise ModelFormatError("bad magic; not a codevec model file")
        try:
            code, d, nx, np_, ny, k_max, bits = struct.unpack_from("<7I", head, 4)
            if bits >= 8:
                raise ModelFormatError(f"unknown ablation bits {bits}")
            (blob_len,) = struct.unpack_from("<I", head, 32)
            if 36 + blob_len > size:
                raise ModelFormatError("truncated vocabulary block")
            vocabs = parse_vocabs(handle.read(blob_len).decode("utf-8"))
            variant = _CODE_VARIANTS.get(code)
            if variant is None:
                raise ModelFormatError(f"unknown variant code {code}")
            dims = ModelDims(d, nx, np_, ny, k_max)
            if (len(vocabs.values), len(vocabs.paths), len(vocabs.tags)) != (nx, np_, ny):
                raise ModelFormatError("vocabulary sizes disagree with header")
            shapes = _shapes(dims, variant)
            end = 36 + blob_len + 4 * sum(map(math.prod, shapes.values()))
            if end > size:
                raise ModelFormatError("truncated matrix data")
            if end < size:
                raise ModelFormatError("trailing bytes after matrices")
            groups = {name: _read_matrix(handle, shape) for name, shape in shapes.items()}
        except struct.error as exc:
            raise ModelFormatError(f"truncated model file: {exc}") from None
        except ValueError as exc:  # header dimensions, or a vocabulary block not in UTF-8
            raise ModelFormatError(f"bad model file: {exc}") from None
    for name, matrix in groups.items():  # min and max propagate NaN: no temporary array
        if not np.isfinite([matrix.min(), matrix.max()]).all():
            raise ModelFormatError(f"non-finite values in {name}")
    ablation = AblationMask(*(bool(bits >> i & 1) for i in range(3)))
    return ModelParams(dims, variant, **{"W": None, **groups}, ablation=ablation), vocabs
