"""Cross-entropy loss, reverse-mode gradients of the forward pass, lazy
Adam updates, and the epoch loop with sub-token-F1 early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (ABLATIONS, PAD_ID, AblationMask, RawExample, Vocabs,
                     EncodedExample, encode_batches)
from .errors import DatasetFormatError, TrainingError
from .metrics import EVAL_BATCH, evaluate_encoded
from .model import (AttentionVariant, ForwardTrace, ModelDims, ModelParams,
                    check_single_precision, forward, init_params)

# Parameter groups whose gradients are row-sparse: an example touches at
# most 3 * k_max of their rows.
EMBEDDINGS = ("value_vocab", "path_vocab")

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def loss(trace: ForwardTrace, label_id) -> float | np.ndarray:
    """Negative log-likelihood of the true label, -log q[label], read from
    the trace's log q; one per example for a stacked batch. It stays
    finite where q[label] underflows."""
    return -np.take_along_axis(trace.log_q, np.expand_dims(label_id, -1), -1)[..., 0]


@dataclass
class Gradients:
    """`by_name` holds W, attention and tags_vocab densely; `rows` holds
    each embedding table's gradient as (unique row ids, summed row
    gradients), PAD excluded, so untouched rows cost nothing."""

    by_name: dict[str, np.ndarray]
    rows: dict[str, tuple[np.ndarray, np.ndarray]]

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "Gradients":
        """Zero dense groups, and no touched embedding rows."""
        groups = params.groups()
        return cls({name: np.zeros_like(arr) for name, arr in groups.items()
                    if name not in EMBEDDINGS},
                   {name: (np.empty(0, np.int64),
                           np.empty((0, groups[name].shape[1]), groups[name].dtype))
                    for name in EMBEDDINGS})


def _sum_rows(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique non-PAD ids, ascending, and for each the float64 sum of its
    d-wide rows (`rows` holds one per id, in order), rounded once: one
    bincount over `row id * width + column` per block of up to 32 columns."""
    unique, inverse = np.unique(ids, return_inverse=True)
    d = rows.shape[-1]
    width = np.gcd(d, 32)
    index = (inverse[:, None] * width + np.arange(width)).ravel()
    summed = np.empty((unique.size, d), rows.dtype)
    for start in range(0, d, width):
        summed[:, start:start + width] = np.bincount(
            index, rows[..., start:start + width].astype(np.float64).ravel(),
            unique.size * width).reshape(-1, width)
    keep = unique != PAD_ID
    return unique[keep], summed[keep]


def _flat(arr: np.ndarray) -> np.ndarray:
    """All leading axes merged into one: (..., n) -> (m, n)."""
    return arr.reshape(-1, arr.shape[-1])


def backward(params: ModelParams, example: EncodedExample, trace: ForwardTrace,
             label_id) -> Gradients:
    """Exact gradients of the loss for the trace's attention kind. For a
    stacked batch they are the sums of the per-example gradients.

    Hard attention is handled straight-through: the gradient flows through
    the selected combined vector only, none through the selection itself.
    Only a train-mode trace holds the context vectors it needs.
    """
    if trace.context_vectors is None:
        raise ValueError("backward needs a train-mode trace")
    g = {}
    d = params.dims.d

    # softmax + NLL
    dz = trace.q.copy()
    dz -= np.arange(dz.shape[-1]) == np.expand_dims(label_id, -1)
    g["tags_vocab"] = _flat(dz).T @ _flat(trace.code_vector)
    d_code = dz @ params.tags_vocab

    # v = sum_i alpha_i * h_i with alpha (..., k, w); alpha is 0 on masked slots.
    h = trace.combined
    alpha = trace.alpha.reshape(h.shape[:-1] + (-1,))
    dh = alpha * d_code[..., None, :]
    if trace.attention_kind == "soft":
        d_alpha = (h @ d_code[..., None] if params.attention.ndim == 1
                   else h * d_code[..., None, :])
        de = alpha * (d_alpha - (alpha * d_alpha).sum(axis=-2, keepdims=True))
        g["attention"] = (_flat(h).T @ _flat(de)).reshape(params.attention.shape)
        dh += (de * params.attention if params.attention.ndim == 1
               else de @ params.attention.T)
    else:  # uniform: alpha constant in the inputs; hard: straight-through.
        g["attention"] = np.zeros_like(params.attention)

    # Flat valid rows from here on: views when every slot is valid.
    rows = slice(None) if trace.mask.all() else trace.mask.ravel() != 0
    d_contexts = _flat(dh)[rows]
    if params.variant is not AttentionVariant.SOFT_NO_FC:
        d_contexts *= 1.0 - _flat(h)[rows] ** 2
        g["W"] = d_contexts.T @ _flat(trace.context_vectors)[rows]
        d_contexts = d_contexts @ params.W
    if isinstance(trace.dropout_scale, np.ndarray):
        d_contexts *= _flat(trace.dropout_scale)[rows]
    # The value table takes each slot's source row, then its target row.
    value_ids = np.stack([example.sources, example.targets], -1).reshape(-1, 2)[rows]
    return Gradients(g, {
        "value_vocab": _sum_rows(value_ids.ravel(), d_contexts.reshape(-1, 3, d)[:, ::2]),
        "path_vocab": _sum_rows(example.paths.ravel()[rows], d_contexts[:, d:2 * d])})


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        groups = params.groups()
        return cls({n: np.zeros(a.shape, a.dtype) for n, a in groups.items()},
                   {n: np.zeros(a.shape, a.dtype) for n, a in groups.items()})


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    dropout_rate: float = 0.25
    k_max: int = 200
    seed: int = 1
    variant: AttentionVariant = AttentionVariant.SOFT
    ablation: AblationMask = ABLATIONS["full"]
    dim: int = 128

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning rate must be finite and positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def adam_step(params: ModelParams, grads: Gradients, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected lazy Adam update, in place. Dense groups update
    whole; an embedding table updates its parameters and both moments at
    the touched rows only, so a row absent from the batch keeps all three,
    and PAD rows, never touched, stay zero. Bias correction uses the
    global step."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, param in params.groups().items():
        rows, grad = grads.rows.get(name) or (slice(None), grads.by_name[name])
        # In place: a dense group's moments are views, a table's rows copies.
        m, v = state.m[name][rows], state.v[name][rows]
        scratch = np.multiply(grad, 1 - b1)
        m *= b1
        m += scratch
        v *= b2
        v += np.multiply(np.square(grad, out=scratch), 1 - b2, out=scratch)
        if name in grads.rows:
            state.m[name][rows], state.v[name][rows] = m, v
        denominator = np.sqrt(np.divide(v, 1 - b2 ** t, out=scratch), out=scratch)
        denominator += ADAM_EPSILON
        update = m / (1 - b1 ** t)
        update *= config.learning_rate
        param[rows] -= np.divide(update, denominator, out=update)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    val_precision: float
    val_recall: float
    val_f1: float

    def log_line(self) -> str:
        return (f"epoch={self.epoch} loss={self.loss:.6f} "
                f"val_p={self.val_precision:.4f} val_r={self.val_recall:.4f} "
                f"val_f1={self.val_f1:.4f}")


@np.errstate(all="ignore")  # each loss, and each epoch's parameters, are checked instead
def train(train_set: list[RawExample], val_set: list[RawExample], vocabs: Vocabs,
          config: TrainConfig, log=None, checkpoint=None,
          ) -> tuple[ModelParams, list[EpochStats]]:
    """Minibatch Adam training with per-epoch shuffling and early stopping
    on validation sub-token F1. Returns the best-F1 checkpoint.

    `log` is called with each epoch's log line; `checkpoint` with
    (epoch, params) after each epoch.
    """
    for name, dataset in (("training", train_set), ("validation", val_set)):
        if not dataset:
            raise DatasetFormatError(f"empty {name} set")
    dims = ModelDims(config.dim, len(vocabs.values), len(vocabs.paths),
                     len(vocabs.tags), config.k_max)
    params = init_params(dims, config.variant, config.seed, config.ablation)
    state = AdamState.zeros_like(params)
    shuffle_rng = np.random.default_rng(config.seed)
    dropout_rng = np.random.default_rng(config.seed + 1)

    val_batches = list(encode_batches(val_set, range(len(val_set)), EVAL_BATCH, vocabs,
                                      config.k_max, config.seed, params.ablation))

    history: list[EpochStats] = []
    best_f1 = -1.0
    best_epoch = 0
    untrainable = sum(1 for raw in train_set if not raw.contexts)
    if untrainable and log:
        log(f"warning: {untrainable} examples have no contexts and are skipped")

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_set)).tolist()
        epoch_loss = 0.0
        for batch, stacked in encode_batches(train_set, order, config.batch_size, vocabs,
                                             config.k_max, config.seed, params.ablation, epoch):
            trace = forward(params, stacked, mode="train",
                            dropout_rate=config.dropout_rate, rng=dropout_rng)
            losses = loss(trace, stacked.label_id)
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                j = bad[0]
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, example {batch[j]}: "
                    f"loss={losses[j]}, q_max={trace.q[j].max():.3e}")
            epoch_loss += float(losses.sum(dtype=np.float64))
            adam_step(params, backward(params, stacked, trace, stacked.label_id),
                      state, config)

        check_single_precision(params, f" after epoch {epoch}")
        metrics = evaluate_encoded(params, val_batches, val_set, vocabs)
        stats = EpochStats(epoch, epoch_loss / max(len(train_set) - untrainable, 1),
                           metrics.precision, metrics.recall, metrics.f1)
        history.append(stats)
        if log:
            log(stats.log_line())
        if checkpoint:
            checkpoint(epoch, params)
        if metrics.f1 > best_f1:
            if best_epoch == 0:  # the first best epoch makes the one kept copy
                best_params = params.copy()
            else:
                for name, kept in best_params.groups().items():
                    np.copyto(kept, getattr(params, name))
            best_f1 = metrics.f1
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break
    return best_params, history
