"""Hand-derived backpropagation and Adam for the residual model.

Training uses weighted categorical cross-entropy (per-window weights from the
dataset pipeline), batch-statistics BN with running-stat momentum 0.9, and
early stopping on a validation loss monitored once per epoch. Validation
holds out one session per training subject so the held-out test subject is
never touched.

A step runs in a Workspace: every activation, gradient and scratch array
the step writes, allocated once and written with out=. Its zero-bordered
pad buffers are kernels.conv1d's operands: the batch, each ReLU output and
each conv's output gradient are written into their interiors. train_fold
builds a workspace per epoch, sized for min(batch_size, n) windows; a
shorter last batch uses its leading rows. It is dropped before the
validation pass, so it never coexists with the evaluation's buffers (at
width 52, model.forward_batch's 4.3 MB head input for a 512-window chunk
and one block's 830 KB). A step that allocates frees about 30 MB of
temporaries at its end, which the allocator returns to the OS and the
next step faults back in (about 10,000 page faults a step at width 52,
batch 64). backward and _forward_train build a workspace per call and
run the same code.
"""

from __future__ import annotations

import time
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
        if not 0 <= self.patience <= self.epochs:
            raise InvalidConfig(f"patience {self.patience} outside [0, epochs "
                                f"{self.epochs}]")


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
    step_ms: list[float] = field(default_factory=list)  # process CPU per step
    best_epoch: int = 0            # 1-based
    stopped_early: bool = False

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w") as f:
            f.write("epoch,train_loss,val_loss,val_bacc,step_ms\n")
            rows = zip(self.train_loss, self.val_loss,
                       self.val_balanced_accuracy, self.step_ms)
            for i, (tl, vl, vb, ms) in enumerate(rows, start=1):
                f.write(f"{i},{tl:.8f},{vl:.8f},{vb:.8f},{ms:.3f}\n")


# ---------------------------------------------------------------------------
# training-mode forward/backward
# ---------------------------------------------------------------------------

class Workspace:
    """Every array a training step writes, for batches of up to `batch`
    windows, in the parameters' dtype.

    Per conv layer it holds the zero-padded input (batch, C_in, L+K-1),
    whose interior the batch or the previous layer's ReLU is written to,
    and the normalized activations x_hat; shared buffers take the im2col
    patches of one block of kernels.BLOCK windows, the BN output before the
    ReLU, the flowing gradients, the padded output gradient and each weight
    gradient. A step writes everything with out=, and a shorter batch of b
    windows uses the leading rows buf[:b], so a step allocates nothing of
    the batch's size.
    """

    def __init__(self, m: ModelParams, batch: int):
        cfg = m.config
        dtype = m.stem.w.dtype
        c, length, k = cfg.width, cfg.seq_len, cfg.kernel
        widest = max(c, cfg.in_channels)

        def act(channels=c):
            return np.empty((batch, channels, length), dtype)

        self.pad = (k - 1) // 2
        self.padded = [np.zeros((batch, layer.w.shape[1], length + k - 1), dtype)
                       for _, layer in m.conv_layers()]
        self.xhat = [act() for _ in self.padded]
        self.out = act()                   # last ReLU output, the head's input
        self.h = act()                     # BN output before the ReLU
        self.mask = np.empty((batch, c, length), bool)
        self.patches = np.empty((min(batch, kernels.BLOCK), widest * k, length),
                                dtype)
        self.products = np.empty((batch, c, widest), dtype)
        self.grad = (act(), act())
        self.g_padded = np.zeros((batch, c, length + k - 1), dtype)
        self.dw = {name: np.empty_like(layer.w) for name, layer in m.conv_layers()}
        self.head_w = np.empty_like(m.head_w)

    def interior(self, buf: np.ndarray, b: int) -> np.ndarray:
        return buf[:b, :, self.pad:buf.shape[2] - self.pad]


def _bn_normalize(z: np.ndarray, eps: float):
    """Batch-statistics BN of z (B, C, L) in place, in one centred pass:
    z becomes x_hat. Returns (mean, population variance, 1/sqrt(var+eps))."""
    n = z.shape[0] * z.shape[2]
    mu = np.einsum("bcl->c", z) / n
    z -= mu[:, None]
    var = np.einsum("bcl,bcl->c", z, z) / n
    inv = 1.0 / np.sqrt(var + eps)
    z *= inv[:, None]
    return mu, var, inv


def _bn_backward(dh: np.ndarray, xhat: np.ndarray, gamma: np.ndarray,
                 inv: np.ndarray, out: np.ndarray):
    """dL/dz into out, given dh = dL/d(gamma*x_hat + beta); returns
    (dgamma, dbeta). The two batch means the BN gradient needs are dbeta/n
    and dgamma/n, so each reduction runs once. x_hat is overwritten, dh is
    not."""
    n = dh.shape[0] * dh.shape[2]
    dgamma = np.einsum("bcl,bcl->c", dh, xhat)
    dbeta = np.einsum("bcl->c", dh)
    xhat *= (dgamma / n)[:, None]
    xhat += (dbeta / n)[:, None]
    np.subtract(dh, xhat, out=xhat)
    np.multiply(xhat, (gamma * inv)[:, None], out=out)
    return dgamma, dbeta


def _conv_index(name: str) -> int | None:
    """Position of a conv within its block; None for the stem."""
    return None if name == "stem" else int(name.split(".c")[1])


def _forward(ws: Workspace, m: ModelParams, x: np.ndarray):
    """Forward pass with batch-statistics BN through ws's leading len(x)
    rows. Returns the logits and a tape of views into ws plus each layer's
    batch statistics."""
    b = x.shape[0]
    eps = m.config.bn_eps
    last = m.config.convs_per_block - 1
    layers = list(m.conv_layers())
    tape = {"layers": []}
    a = ws.interior(ws.padded[0], b)
    a[...] = x
    skip = None
    for i, (name, layer) in enumerate(layers):
        pos = _conv_index(name)
        if pos == 0:
            skip = a
        _, c_in, k = layer.w.shape
        xhat = ws.xhat[i][:b]
        kernels.conv1d(ws.padded[i][:b], layer.w, xhat,
                       patches=ws.patches[:b, :c_in * k])
        # the conv bias only shifts the batch mean, which BN subtracts
        mu, var, inv = _bn_normalize(xhat, eps)
        h = ws.h[:b]
        np.multiply(xhat, layer.gamma[:, None], out=h)
        h += layer.beta[:, None]
        if pos == last:
            h += skip
        a = (ws.interior(ws.padded[i + 1], b) if i + 1 < len(layers)
             else ws.out[:b])
        np.maximum(h, 0, out=a)
        tape["layers"].append({"post": a, "mean": mu + layer.b, "var": var,
                               "inv": inv})
    tape["flat"] = a.reshape(b, -1)
    logits = kernels.dense_batch(tape["flat"], m.head_w, m.head_b)
    return logits, tape


def _forward_train(m: ModelParams, x: np.ndarray):
    """Forward pass with batch-statistics BN, returning a tape for backward."""
    return _forward(Workspace(m, x.shape[0]), m, x)


def _loss_and_dlogits(logits, targets, weights):
    batch = logits.shape[0]
    probs = kernels.softmax(logits)
    picked = np.maximum(probs[np.arange(batch), targets], PROB_FLOOR)
    losses = -weights * np.log(picked)
    dlogits = probs.copy()
    dlogits[np.arange(batch), targets] -= 1.0
    dlogits *= (weights / batch)[:, None]
    return float(losses.mean()), dlogits.astype(logits.dtype)


def _step(ws: Workspace, m: ModelParams, x, targets, weights):
    """Gradients of the mean weighted CE loss plus the BN batch statistics,
    for the len(x) windows of x, computed in ws. The weight gradients are
    ws's own arrays, valid until the next step."""
    b = x.shape[0]
    logits, tape = _forward(ws, m, x)
    loss, dlogits = _loss_and_dlogits(logits, targets, weights)

    grads: dict[str, np.ndarray] = {}
    grads["head.w"] = np.matmul(dlogits.T, tape["flat"], out=ws.head_w)
    grads["head.b"] = dlogits.sum(axis=0)
    da, spare = ws.grad[0][:b], ws.grad[1][:b]
    np.matmul(dlogits, m.head_w, out=da.reshape(b, -1))

    bn_stats = {}
    layers = list(m.conv_layers())
    last = m.config.convs_per_block - 1
    mask = ws.mask[:b]
    dz = ws.interior(ws.g_padded, b)
    skip_grad = None
    for i in range(len(layers) - 1, -1, -1):
        name, layer = layers[i]
        entry = tape["layers"][i]
        pos = _conv_index(name)
        np.greater(entry["post"], 0, out=mask)
        da *= mask                          # da is now dL/dh
        dgamma, dbeta = _bn_backward(da, ws.xhat[i][:b], layer.gamma,
                                     entry["inv"], dz)
        if pos == last:                     # the add routes dh to the skip too
            skip_grad, da = da, spare
        c_out, c_in, k = layer.w.shape
        dw, db = kernels.conv1d_weight_grad(
            dz, ws.padded[i][:b], dw=ws.dw[name],
            products=ws.products[:b, :, :c_in])
        if i:   # nothing reads the stem's input gradient
            flipped = layer.w.transpose(1, 0, 2)[:, :, ::-1]
            kernels.conv1d(ws.g_padded[:b], flipped, da,
                           patches=ws.patches[:b, :c_out * k])
        grads[f"{name}.w"] = dw
        grads[f"{name}.b"] = db
        grads[f"{name}.gamma"] = dgamma
        grads[f"{name}.beta"] = dbeta
        bn_stats[name] = (entry["mean"], entry["var"])
        if pos == 0:
            da += skip_grad
            spare = skip_grad
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
    grads, loss, _ = _step(
        Workspace(m, x.shape[0]), m, x.astype(dtype, copy=False),
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
        ws = Workspace(params, min(hp.batch_size, n))
        start = time.process_time()
        for i in range(0, n, hp.batch_size):
            idx = order[i:i + hp.batch_size]
            grads, loss, bn_stats = _step(
                ws, params, x_train[idx], y_train[idx], w_train[idx])
            adam_step(params, grads, state, hp)
            _update_running_stats(params, bn_stats)
            loss_sum += loss * len(idx)
        steps = len(range(0, n, hp.batch_size))
        history.step_ms.append(1000.0 * (time.process_time() - start) / steps)
        del ws   # never alive next to the validation pass's temporaries
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
