"""Hand-derived backpropagation and Adam for the residual model.

Training uses weighted categorical cross-entropy (per-window weights from the
dataset pipeline), batch-statistics BN with running-stat momentum 0.9, and
early stopping on a validation loss monitored once per epoch. Validation
holds out one session per training subject so the held-out test subject is
never touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .dataset import DatasetSplit, Window
from .errors import (
    EmptyTestSet,
    EmptyTrainSet,
    InvalidConfig,
    ShapeMismatch,
)
from .model import ModelConfig, ModelParams, build, forward_batch

PROB_FLOOR = 1e-12
BN_MOMENTUM = 0.9
VAL_SESSION = 5


@dataclass(frozen=True)
class Hyperparams:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 1000
    patience: int = 100
    batch_size: int = 64

    def validate(self) -> None:
        if self.lr <= 0:
            raise InvalidConfig(f"lr must be > 0, got {self.lr}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise InvalidConfig("beta1 and beta2 must lie in (0, 1)")
        if self.adam_eps <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise InvalidConfig("adam_eps, batch_size, epochs must be positive")
        if self.patience > self.epochs:
            raise InvalidConfig(
                f"patience {self.patience} exceeds epochs {self.epochs}")


@dataclass
class AdamState:
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


@dataclass
class Metrics:
    confusion: np.ndarray          # (classes, classes), rows = truth
    balanced_accuracy: float
    loss: float

    def as_kv(self) -> str:
        return (f"balanced_accuracy={self.balanced_accuracy:.6f}\n"
                f"loss={self.loss:.6f}")

    def as_text(self) -> str:
        lines = [self.as_kv(), "", "confusion matrix (rows = truth):"]
        for row in self.confusion:
            lines.append(" ".join(f"{int(v):6d}" for v in row))
        return "\n".join(lines)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_balanced_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0            # 1-based
    stopped_early: bool = False

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w") as f:
            f.write("epoch,train_loss,val_loss,val_bacc\n")
            rows = zip(self.train_loss, self.val_loss, self.val_balanced_accuracy)
            for i, (tl, vl, vb) in enumerate(rows, start=1):
                f.write(f"{i},{tl:.8f},{vl:.8f},{vb:.8f}\n")


# ---------------------------------------------------------------------------
# training-mode forward/backward
# ---------------------------------------------------------------------------

def _bn_train_forward(x, gamma, beta, eps):
    mu = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))      # population variance
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None]) * inv[None, :, None]
    y = gamma[None, :, None] * xhat + beta[None, :, None]
    return y, (xhat, inv, mu, var)


def _bn_train_backward(g, gamma, cache):
    xhat, inv, _, _ = cache
    dgamma = (g * xhat).sum(axis=(0, 2))
    dbeta = g.sum(axis=(0, 2))
    g_mean = g.mean(axis=(0, 2))
    gx_mean = (g * xhat).mean(axis=(0, 2))
    dx = (gamma * inv)[None, :, None] * (
        g - g_mean[None, :, None] - xhat * gx_mean[None, :, None])
    return dx, dgamma, dbeta


def _conv_index(name: str) -> int | None:
    """Position of a conv within its block; None for the stem."""
    return None if name == "stem" else int(name.split(".c")[1])


def _forward_train(m: ModelParams, x: np.ndarray):
    """Forward pass with batch-statistics BN, returning a tape for backward."""
    eps = m.config.bn_eps
    last = m.config.convs_per_block - 1
    tape = {"layers": []}
    a = x
    skip = None
    for name, layer in m.conv_layers():
        pos = _conv_index(name)
        entry = {"name": name}
        if pos == 0:
            skip = a
            entry["skip"] = a
        z, entry["patches"] = kernels.conv1d(a, layer.w)
        z += layer.b[:, None]
        h, entry["bn"] = _bn_train_forward(z, layer.gamma, layer.beta, eps)
        if pos == last:
            h = h + skip
        a = kernels.relu(h)
        entry["post"] = a
        tape["layers"].append(entry)
    flat = a.reshape(a.shape[0], -1)
    tape["flat"] = flat
    logits = kernels.dense_batch(flat, m.head_w, m.head_b)
    return logits, tape


def _loss_and_dlogits(logits, targets, weights):
    batch = logits.shape[0]
    probs = kernels.softmax(logits)
    picked = np.maximum(probs[np.arange(batch), targets], PROB_FLOOR)
    losses = -weights * np.log(picked)
    dlogits = probs.copy()
    dlogits[np.arange(batch), targets] -= 1.0
    dlogits *= (weights / batch)[:, None]
    return float(losses.mean()), dlogits.astype(logits.dtype)


def _backward_train(m: ModelParams, x, targets, weights):
    """Gradients of the mean weighted CE loss plus the BN batch statistics."""
    logits, tape = _forward_train(m, x)
    loss, dlogits = _loss_and_dlogits(logits, targets, weights)

    grads: dict[str, np.ndarray] = {}
    grads["head.w"] = dlogits.T @ tape["flat"]
    grads["head.b"] = dlogits.sum(axis=0)
    da = (dlogits @ m.head_w).reshape(tape["layers"][-1]["post"].shape)

    bn_stats = {}
    layers = list(m.conv_layers())
    last = m.config.convs_per_block - 1
    pending_skip_grad = None
    for idx in range(len(layers) - 1, -1, -1):
        name, layer = layers[idx]
        entry = tape["layers"][idx]
        pos = _conv_index(name)
        dh = da * (entry["post"] > 0)
        if pos == last:
            pending_skip_grad = dh   # the add routes dh to the skip input too
        dz, dgamma, dbeta = _bn_train_backward(dh, layer.gamma, entry["bn"])
        dx, dw, db = kernels.conv1d_backward(dz, layer.w, entry["patches"])
        grads[f"{name}.w"] = dw
        grads[f"{name}.b"] = db
        grads[f"{name}.gamma"] = dgamma
        grads[f"{name}.beta"] = dbeta
        bn_stats[name] = (entry["bn"][2], entry["bn"][3])
        if pos == 0 and pending_skip_grad is not None:
            dx = dx + pending_skip_grad
            pending_skip_grad = None
        da = dx
    return grads, loss, bn_stats


def backward(m: ModelParams, x: np.ndarray, targets: np.ndarray,
             weights: np.ndarray):
    """Gradients of the mean weighted CE loss w.r.t. every trainable tensor.

    x: (B, in_channels, seq_len); targets: (B,) class ids; weights: (B,).
    Returns (grads dict keyed like ModelParams.param_items, batch loss).
    """
    if m.bn_folded:
        raise InvalidConfig("cannot train a BN-folded model")
    if x.ndim != 3 or x.shape[0] == 0:
        raise ShapeMismatch(f"batch must be (B, C, L) with B >= 1, got {x.shape}")
    if x.shape[0] != len(targets) or len(targets) != len(weights):
        raise ShapeMismatch("batch, targets, and weights lengths differ")
    dtype = m.stem.w.dtype
    grads, loss, _ = _backward_train(
        m, x.astype(dtype, copy=False),
        np.asarray(targets), np.asarray(weights, dtype=dtype))
    return grads, loss


def init_adam(m: ModelParams) -> AdamState:
    zeros = {name: np.zeros_like(p) for name, p in m.param_items()}
    return AdamState(t=0,
                     m={k: v.copy() for k, v in zeros.items()},
                     v={k: v.copy() for k, v in zeros.items()})


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              state: AdamState, hp: Hyperparams):
    """Standard bias-corrected Adam update, in place."""
    state.t += 1
    bc1 = 1.0 - hp.beta1 ** state.t
    bc2 = 1.0 - hp.beta2 ** state.t
    for name, p in params.param_items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient {name} shape {g.shape} != {p.shape}")
        m_ = state.m[name]
        v_ = state.v[name]
        m_ *= hp.beta1
        m_ += (1.0 - hp.beta1) * g
        v_ *= hp.beta2
        v_ += (1.0 - hp.beta2) * np.square(g)
        m_hat = m_ / bc1
        v_hat = v_ / bc2
        p -= (hp.lr * m_hat / (np.sqrt(v_hat) + hp.adam_eps)).astype(p.dtype)
    return params, state


def _update_running_stats(m: ModelParams, bn_stats) -> None:
    for name, layer in m.conv_layers():
        mu, var = bn_stats[name]
        layer.mean = (BN_MOMENTUM * layer.mean
                      + (1.0 - BN_MOMENTUM) * mu).astype(np.float32)
        layer.var = (BN_MOMENTUM * layer.var
                     + (1.0 - BN_MOMENTUM) * var).astype(np.float32)


def _stack(windows: list[Window]):
    x = np.stack([w.data for w in windows]).astype(np.float32)
    y = np.array([w.label for w in windows], dtype=np.int64)
    wt = np.array([w.weight for w in windows], dtype=np.float32)
    return x, y, wt


def _split_validation(train_windows: list[Window]):
    """Hold out one session per training subject (session 5, or that
    subject's highest session when 5 is absent)."""
    val_session = {}
    for w in train_windows:
        sessions = val_session.setdefault(w.subject, set())
        sessions.add(w.session)
    chosen = {s: (VAL_SESSION if VAL_SESSION in sess else max(sess))
              for s, sess in val_session.items()}
    train = [w for w in train_windows if w.session != chosen[w.subject]]
    val = [w for w in train_windows if w.session == chosen[w.subject]]
    if not train:
        raise EmptyTrainSet("every window fell into the validation session")
    return train, val


def metrics_from_logits(logits: np.ndarray, targets: np.ndarray,
                        weights: np.ndarray, classes: int) -> Metrics:
    """Confusion matrix, balanced accuracy over classes present, and the
    weighted mean cross-entropy, from precomputed logits."""
    probs = kernels.softmax(logits)
    preds = probs.argmax(axis=1)
    confusion = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(confusion, (targets, preds), 1)
    picked = np.maximum(probs[np.arange(len(targets)), targets], PROB_FLOOR)
    loss = float(-(weights * np.log(picked)).mean())
    row_sums = confusion.sum(axis=1)
    present = row_sums > 0
    recalls = confusion.diagonal()[present] / row_sums[present]
    return Metrics(confusion=confusion,
                   balanced_accuracy=float(recalls.mean()),
                   loss=loss)


def _eval_arrays(m: ModelParams, x, y, wt, batch: int = 512):
    logits = np.concatenate([forward_batch(m, x[i:i + batch])
                             for i in range(0, len(x), batch)])
    return metrics_from_logits(logits, y, wt, m.config.classes)


def evaluate(m: ModelParams, windows: list[Window]) -> Metrics:
    """Argmax evaluation: confusion matrix, balanced accuracy, weighted loss."""
    if not windows:
        raise EmptyTestSet("evaluate needs at least one window")
    return _eval_arrays(m, *_stack(windows))


def train_fold(split: DatasetSplit, config: ModelConfig, hp: Hyperparams,
               seed: int) -> tuple[ModelParams, TrainHistory]:
    """Train on split.train with early stopping; restores best-epoch weights.

    The monitored quantity is the weighted validation loss; training stops
    once `patience + 1` consecutive epochs fail to improve it (patience 0
    stops at the first epoch that does not improve).
    """
    hp.validate()
    if not split.train:
        raise EmptyTrainSet(f"fold {split.held_out_subject} has no training windows")
    train_windows, val_windows = _split_validation(split.train)
    x_train, y_train, w_train = _stack(train_windows)
    x_val, y_val, w_val = _stack(val_windows) if val_windows else (None, None, None)

    params = build(config, seed)
    state = init_adam(params)
    rng = np.random.default_rng(seed)
    history = TrainHistory()

    best_loss = np.inf
    best_params = None
    since_best = 0
    n = len(x_train)
    for epoch in range(1, hp.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for i in range(0, n, hp.batch_size):
            idx = order[i:i + hp.batch_size]
            grads, loss, bn_stats = _backward_train(
                params, x_train[idx], y_train[idx], w_train[idx])
            adam_step(params, grads, state, hp)
            _update_running_stats(params, bn_stats)
            loss_sum += loss * len(idx)
        train_loss = loss_sum / n

        if x_val is not None:
            val = _eval_arrays(params, x_val, y_val, w_val)
            val_loss, val_bacc = val.loss, val.balanced_accuracy
        else:
            val_loss, val_bacc = train_loss, 0.0
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        history.val_balanced_accuracy.append(val_bacc)

        if val_loss < best_loss:
            best_loss = val_loss
            best_params = params.copy()
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best > hp.patience:
                history.stopped_early = True
                break

    if best_params is not None:
        params = best_params
    return params, history
