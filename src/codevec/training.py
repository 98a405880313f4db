"""Cross-entropy loss, reverse-mode gradients of the forward pass, lazy
Adam updates, and the epoch loop with sub-token-F1 early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (ABLATIONS, PAD_ID, AblationMask, RawExample, Vocabs,
                     EncodedExample, encode_dataset, stack_examples)
from .errors import TrainingError
from .metrics import evaluate_encoded
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
    """Negative log-likelihood of the true label under the predicted
    distribution; one per example for a stacked batch. It is -log q[label]
    where q[label] is a normal float; where q[label] underflows, it is
    log-sum-exp over the real tags' logits minus the label's logit, which
    stays finite however far the label trails."""
    label = np.expand_dims(label_id, -1)
    q = np.take_along_axis(trace.q, label, axis=-1)[..., 0]
    tiny = np.finfo(q.dtype).tiny
    real = np.arange(trace.logits.shape[-1]) != PAD_ID
    shifted = np.where(real, trace.logits, -np.inf)
    shifted -= shifted.max(axis=-1, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=-1))
    return np.where(q >= tiny, -np.log(np.maximum(q, tiny)),
                    log_sum - np.take_along_axis(shifted, label, axis=-1)[..., 0])


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
    """Unique non-PAD ids, and for each the sum of its rows."""
    keep = ids != PAD_ID
    unique, inverse = np.unique(ids[keep], return_inverse=True)
    summed = np.zeros((len(unique), rows.shape[-1]), rows.dtype)
    np.add.at(summed, inverse, rows[keep])
    return unique, summed


def _flat(arr: np.ndarray) -> np.ndarray:
    """All leading axes merged into one: (..., n) -> (m, n)."""
    return arr.reshape(-1, arr.shape[-1])


def backward(params: ModelParams, example: EncodedExample, trace: ForwardTrace,
             label_id) -> Gradients:
    """Exact gradients of the loss for the trace's attention kind. For a
    stacked batch they are the sums of the per-example gradients.

    Hard attention is handled straight-through: the gradient flows through
    the selected combined vector only, none through the selection itself.
    """
    grads = Gradients.zeros_like(params)
    g = grads.by_name
    mask = trace.mask
    d = params.dims.d

    # softmax + NLL
    dz = trace.q.copy()
    dz -= np.arange(dz.shape[-1]) == np.expand_dims(label_id, -1)
    dz[..., PAD_ID] = 0.0  # PAD is excluded from the tag softmax
    g["tags_vocab"] = _flat(dz).T @ _flat(trace.code_vector)
    d_code = dz @ params.tags_vocab

    h = trace.combined
    alpha = trace.alpha
    if trace.attention_kind == "elementwise":
        d_alpha = h * d_code[..., None, :]
        dh = alpha * d_code[..., None, :]
        col_dot = (alpha * d_alpha).sum(axis=-2, keepdims=True)
        de = alpha * (d_alpha - col_dot) * mask[..., None]
        g["attention"] = _flat(h).T @ _flat(de)
        dh += de @ params.attention.T
    elif trace.attention_kind == "soft":
        d_alpha = (h @ d_code[..., None])[..., 0]
        dh = alpha[..., None] * d_code[..., None, :]
        de = alpha * (d_alpha - (alpha * d_alpha).sum(axis=-1, keepdims=True)) * mask
        g["attention"] = de.reshape(-1) @ _flat(h)
        dh += de[..., None] * params.attention
    else:
        # uniform: alpha constant in the inputs; hard: straight-through.
        dh = alpha[..., None] * d_code[..., None, :]

    dh *= mask[..., None]

    if params.variant is AttentionVariant.SOFT_NO_FC:
        d_contexts = dh
    else:
        du = dh * (1.0 - h ** 2)
        g["W"] = _flat(du).T @ _flat(trace.context_vectors)
        d_contexts = du @ params.W

    # Padded slots never contribute: only valid slots reach the tables.
    valid = mask.astype(bool)
    d_contexts = (d_contexts * trace.dropout_scale)[valid]
    grads.rows["value_vocab"] = _sum_rows(
        np.concatenate([example.sources[valid], example.targets[valid]]),
        np.concatenate([d_contexts[:, :d], d_contexts[:, 2 * d:]]))
    grads.rows["path_vocab"] = _sum_rows(example.paths[valid], d_contexts[:, d:2 * d])
    return grads


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        groups = params.groups()
        return cls({n: np.zeros_like(a) for n, a in groups.items()},
                   {n: np.zeros_like(a) for n, a in groups.items()})


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
        if name in grads.rows:
            rows, grad = grads.rows[name]
        else:
            rows, grad = slice(None), grads.by_name[name]
        m = b1 * state.m[name][rows] + (1 - b1) * grad
        v = b2 * state.v[name][rows] + (1 - b2) * grad ** 2
        state.m[name][rows] = m
        state.v[name][rows] = v
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        param[rows] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


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
    if not train_set:
        raise TrainingError("empty training set")
    dims = ModelDims(config.dim, len(vocabs.values), len(vocabs.paths),
                     len(vocabs.tags), config.k_max)
    params = init_params(dims, config.variant, config.seed, config.ablation)
    state = AdamState.zeros_like(params)
    shuffle_rng = np.random.default_rng(config.seed)
    dropout_rng = np.random.default_rng(config.seed + 1)

    val_encoded = encode_dataset(val_set, vocabs, config.k_max, config.seed,
                                 params.ablation)
    val_labels = [raw.label for raw in val_set]

    history: list[EpochStats] = []
    best_f1 = -1.0
    best_epoch = 0
    untrainable = sum(1 for raw in train_set if not raw.contexts)
    if untrainable and log:
        log(f"warning: {untrainable} examples have no contexts and are skipped")

    for epoch in range(1, config.max_epochs + 1):
        encoded = encode_dataset(train_set, vocabs, config.k_max, config.seed,
                                 params.ablation, epoch=epoch)
        order = shuffle_rng.permutation(len(encoded))
        order = [i for i in order if encoded[i].trainable]

        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            stacked = stack_examples([encoded[i] for i in batch])
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
        metrics = evaluate_encoded(params, val_encoded, val_labels, vocabs)
        stats = EpochStats(epoch, epoch_loss / max(len(order), 1),
                           metrics.precision, metrics.recall, metrics.f1)
        history.append(stats)
        if log:
            log(stats.log_line())
        if checkpoint:
            checkpoint(epoch, params)
        if metrics.f1 > best_f1:
            best_f1 = metrics.f1
            best_params = params.copy()
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break
    return best_params, history
