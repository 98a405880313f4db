"""Cross-entropy loss, reverse-mode gradients of the forward pass, Adam
updates, and the epoch loop with sub-token-F1 early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (ABLATIONS, PAD_ID, AblationMask, RawExample, Vocabs,
                     EncodedExample, encode_dataset)
from .errors import TrainingError
from .metrics import evaluate_encoded
from .model import (AttentionVariant, ForwardTrace, ModelDims, ModelParams,
                    forward, init_params)


def loss(trace: ForwardTrace, label_id: int) -> float:
    """Negative log-likelihood of the true label under the predicted
    distribution."""
    return float(-np.log(trace.q[label_id]))


@dataclass
class Gradients:
    """Same shapes as the parameter groups; embedding rows not touched by
    the example stay exactly zero."""

    by_name: dict[str, np.ndarray]

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "Gradients":
        return cls({name: np.zeros_like(arr) for name, arr in params.groups().items()})

    def add_(self, other: "Gradients") -> "Gradients":
        for name, arr in other.by_name.items():
            self.by_name[name] += arr
        return self


def backward(params: ModelParams, example: EncodedExample, trace: ForwardTrace,
             label_id: int) -> Gradients:
    """Exact gradients of the loss for the trace's attention kind.

    Hard attention is handled straight-through: the gradient flows through
    the selected combined vector only, none through the selection itself.
    """
    grads = Gradients.zeros_like(params)
    g = grads.by_name
    mask_bool = trace.mask.astype(bool)
    d = params.dims.d

    # softmax + NLL
    dz = trace.q.copy()
    dz[label_id] -= 1.0
    dz[PAD_ID] = 0.0  # PAD is excluded from the tag softmax
    g["tags_vocab"] += np.outer(dz, trace.code_vector)
    d_code = params.tags_vocab.T @ dz

    h = trace.combined
    alpha = trace.alpha
    if trace.attention_kind == "elementwise":
        d_alpha = h * d_code[None, :]
        dh = alpha * d_code[None, :]
        col_dot = (alpha * d_alpha).sum(axis=0)
        de = alpha * (d_alpha - col_dot[None, :])
        de *= trace.mask[:, None]
        g["attention"] += h.T @ de
        dh += de @ params.attention.T
    elif trace.attention_kind == "soft":
        d_alpha = h @ d_code
        dh = alpha[:, None] * d_code[None, :]
        de = alpha * (d_alpha - float(alpha @ d_alpha))
        de *= trace.mask
        g["attention"] += h.T @ de
        dh += np.outer(de, params.attention)
    else:
        # uniform: alpha constant in the inputs; hard: straight-through.
        dh = alpha[:, None] * d_code[None, :]

    dh *= trace.mask[:, None]

    if params.variant is AttentionVariant.SOFT_NO_FC:
        d_contexts = dh
    else:
        du = dh * (1.0 - h ** 2)
        g["W"] += du.T @ trace.context_vectors
        d_contexts = du @ params.W

    d_contexts = d_contexts * trace.dropout_scale * trace.mask[:, None]

    valid = np.flatnonzero(mask_bool)
    np.add.at(g["value_vocab"], example.sources[valid], d_contexts[valid, :d])
    np.add.at(g["path_vocab"], example.paths[valid], d_contexts[valid, d:2 * d])
    np.add.at(g["value_vocab"], example.targets[valid], d_contexts[valid, 2 * d:])

    # Padded slots never contribute; keep the PAD rows bit-exactly zero.
    g["value_vocab"][PAD_ID] = 0.0
    g["path_vocab"][PAD_ID] = 0.0
    g["tags_vocab"][PAD_ID] = 0.0
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
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
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
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def adam_step(params: ModelParams, grads: Gradients, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place. PAD embedding rows have
    zero gradient and zero moments, so they stay untouched."""
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    for name, param in params.groups().items():
        grad = grads.by_name[name]
        state.m[name] = b1 * state.m[name] + (1 - b1) * grad
        state.v[name] = b2 * state.v[name] + (1 - b2) * grad ** 2
        m_hat = state.m[name] / (1 - b1 ** t)
        v_hat = state.v[name] / (1 - b2 ** t)
        param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)


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
    params = init_params(dims, config.variant, config.seed)
    state = AdamState.zeros_like(params)
    shuffle_rng = np.random.default_rng(config.seed)
    dropout_rng = np.random.default_rng(config.seed + 1)

    val_encoded = encode_dataset(val_set, vocabs, config.k_max, config.seed,
                                 config.ablation)
    val_labels = [raw.label for raw in val_set]

    history: list[EpochStats] = []
    best_f1 = -1.0
    best_params = params.copy()
    best_epoch = 0
    untrainable = sum(1 for raw in train_set if not raw.contexts)
    if untrainable and log:
        log(f"warning: {untrainable} examples have no contexts and are skipped")

    for epoch in range(1, config.max_epochs + 1):
        encoded = encode_dataset(train_set, vocabs, config.k_max, config.seed,
                                 config.ablation, epoch=epoch)
        order = shuffle_rng.permutation(len(encoded))
        order = [i for i in order if encoded[i].trainable]

        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            grads = Gradients.zeros_like(params)
            for i in batch:
                trace = forward(params, encoded[i], mode="train",
                                dropout_rate=config.dropout_rate, rng=dropout_rng)
                example_loss = loss(trace, encoded[i].label_id)
                if not np.isfinite(example_loss):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, example {i}: "
                        f"loss={example_loss}, q_max={trace.q.max():.3e}")
                epoch_loss += example_loss
                grads.add_(backward(params, encoded[i], trace, encoded[i].label_id))
            adam_step(params, grads, state, config)

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
