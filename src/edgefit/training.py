"""Hand-derived backpropagation and Adam for the residual model.

Training uses weighted categorical cross-entropy (per-window weights from the
dataset pipeline), batch-statistics BN with running-stat momentum 0.9, and
early stopping on a validation loss monitored once per epoch. Validation
holds out one session per training subject so the held-out test subject is
never touched.

A step runs in a Workspace: every activation, gradient and scratch array
the step writes, allocated once and written with out=. Both passes walk
the convs of model.topology by their index: conv i reads operand i of
the workspace, the interior of its pad buffer's unfold view, and its
ReLU writes operand i + 1, the next conv's; a block's last conv adds
operand conv.skip, the block input, before its ReLU. Every conv kernel
takes the unfold view, which the workspace builds once per pad buffer,
the patches as their kernels.patch_views, which the workspace binds once
per conv for its input and for its output gradient, and the forward's
weights as their kernels.weight_matrix, a view of the layer's array at
call time, so Adam's edits reach the next step; a batch of b windows
passes the leading rows of each view, view[:b]. Per conv,
BN keeps only the centred activation zc and applies its per-channel
factors as (C, L) rows (kernels.channel_rows), the forward keeps the
ReLU's mask h > 0, taken from the contiguous BN output h, for the
backward to multiply by (10 masks, 1.3 MB at width 52 and batch 64), and
one kernels.conv1d_backward call copies the patches of the output
gradient's unfold view once for both the weight and the input gradient.

train_fold builds one workspace per fold, sized for min(batch_size, n)
windows; a shorter last batch uses its leading rows. The validation pass
is one model.forward_batch call over every validation window, which runs
in the model's forward plan, one block's 964 KB at width 52, and
allocates only the logits; the model keeps the plan from its first
validation on, and the best-epoch copy does not carry it. backward builds
a workspace per call and runs the same code.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .dataset import DatasetSplit, Window, stack_windows
from .errors import (
    EmptyTestSet,
    EmptyTrainSet,
    InvalidConfig,
    ShapeMismatch,
)
from .model import ModelConfig, ModelParams, build, forward_batch, topology

PROB_FLOOR = 1e-12
BN_MOMENTUM = 0.9
VAL_SESSION = 5
# Adam's step size, moment decays and denominator floor (Kingma & Ba's
# defaults)
LR, BETA1, BETA2, ADAM_EPS = 1e-3, 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class Hyperparams:
    """The training options: the epoch budget, the early stopping patience
    and the batch size. Without a patience given it is min(100, epochs),
    so a short run still trains. Adam's constants are LR, BETA1, BETA2 and
    ADAM_EPS."""

    epochs: int = 1000
    patience: int | None = None
    batch_size: int = 64

    def __post_init__(self):
        if self.patience is None:
            object.__setattr__(self, "patience", min(100, self.epochs))

    def validate(self) -> None:
        if self.batch_size < 1 or self.epochs < 1:
            raise InvalidConfig("batch_size and epochs must be positive")
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
    windows, in the parameters' dtype, sized from topology's records: a
    per-conv array by its conv's channels, a shared one for the widest.

    Per conv layer it holds the kernels.unfold view (batch, C_in, K, L),
    built once, of a zero-bordered pad buffer (batch, C_in, L+K-1) that it
    keeps no other reference to (the view's base), the conv's operand,
    whose interior is the input; the centred activations zc, the conv
    output less its batch mean, which is all the BN backward needs, and
    the boolean mask of its ReLU, which the forward writes from the
    contiguous BN output so that the backward reads no strided operand
    (1.3 MB for the 10 convs at width 52 and batch 64); `out` holds the
    last ReLU output, the head's input. Shared buffers take the BN output
    before the ReLU, the flowing gradients, the unfold view of the output
    gradient's pad buffer, each weight gradient and, for one block of
    kernels.BLOCK windows, the im2col patches, bound per conv as the
    kernels.patch_views of the first C_in*K and C_out*K patch rows, its
    input's and its output gradient's, and the weight gradient's
    per-window products. A step writes everything with out=, and a
    shorter batch of b windows uses the leading rows buf[:b], so a step
    allocates nothing of the batch's size.
    """

    def __init__(self, m: ModelParams, batch: int):
        cfg = m.config
        dtype = m.convs[0].w.dtype
        convs, length, k = topology(cfg), cfg.seq_len, cfg.kernel
        c = max(conv.out_channels for conv in convs)
        widest = max(c, cfg.in_channels)

        def act(channels=c):
            return np.empty((batch, channels, length), dtype)

        def unfolded(channels):
            return kernels.unfold(
                np.zeros((batch, channels, length + k - 1), dtype), k)

        self.unfolded = [unfolded(conv.in_channels) for conv in convs]
        self.zc = [act(conv.out_channels) for conv in convs]
        self.out = act(convs[-1].out_channels)
        self.h = act()                     # BN output before the ReLU
        self.masks = [np.empty(zc.shape, bool) for zc in self.zc]
        rows = min(batch, kernels.BLOCK)
        patches = np.empty((rows, widest * k, length), dtype)

        def patch_views(channels):
            return kernels.patch_views(patches[:, :channels * k], k)

        # per conv, the patches of its input and of its output gradient
        self.patches = [patch_views(conv.in_channels) for conv in convs]
        self.g_patches = [patch_views(conv.out_channels) for conv in convs]
        self.products = np.empty((rows, c * k, widest), dtype)
        self.grad = (act(), act())
        self.g_unfolded = unfolded(c)
        self.dw = [np.empty_like(layer.w) for layer in m.convs]
        self.head_w = np.empty_like(m.head_w)

    def operands(self, b: int) -> list[np.ndarray]:
        """The leading b rows of each conv's input, the interior of its
        unfold view, then of `out`: conv i reads operand i, its ReLU writes
        operand i + 1, and the head reads the last."""
        return ([kernels.interior(u[:b]) for u in self.unfolded]
                + [self.out[:b]])


def _bn_normalize(z: np.ndarray, eps: float):
    """Batch statistics of z (B, C, L), which is centred in place: z
    becomes zc = z - mean, and x_hat = zc/sqrt(var+eps) is never formed.
    Returns (mean, population variance, 1/sqrt(var+eps))."""
    n = z.shape[0] * z.shape[2]
    mu = np.einsum("bcl->c", z) / n
    z -= kernels.channel_rows(mu, z.shape[2])
    var = np.einsum("bcl,bcl->c", z, z) / n
    return mu, var, 1.0 / np.sqrt(var + eps)


def _bn_backward(dh: np.ndarray, zc: np.ndarray, gamma: np.ndarray,
                 inv: np.ndarray, out: np.ndarray):
    """dL/dz into out, given dh = dL/d(gamma*x_hat + beta) and the centred
    zc, x_hat = zc*inv; returns (dgamma, dbeta). With dgamma = inv *
    sum(dh*zc), dz = gamma*inv * (dh - zc*inv*dgamma/n - dbeta/n), each
    reduction runs once and each per-channel factor is applied as a (C, L)
    row. zc is overwritten, dh is not."""
    length = dh.shape[2]
    n = dh.shape[0] * length
    dgamma = inv * np.einsum("bcl,bcl->c", dh, zc)
    dbeta = np.einsum("bcl->c", dh)
    zc *= kernels.channel_rows(inv * dgamma / n, length)
    zc += kernels.channel_rows(dbeta / n, length)
    np.subtract(dh, zc, out=zc)
    # scaled contiguous, then copied: a multiply straight into the strided
    # out takes longer than both
    zc *= kernels.channel_rows(gamma * inv, length)
    out[...] = zc
    return dgamma, dbeta


def _forward(ws: Workspace, m: ModelParams, x: np.ndarray):
    """Forward pass with batch-statistics BN through ws's leading len(x)
    rows, leaving every operand and centred activation zc in ws; the BN
    output is h = zc*(gamma*inv) + beta, with both per-channel factors
    applied as (C, L) rows. Returns the logits and one (mean, var,
    1/sqrt(var+eps)) per conv, in topology order. A conv with an add, a
    block's last, adds the block's input, operand conv.skip, before its
    ReLU."""
    b = x.shape[0]
    operands = ws.operands(b)
    operands[0][...] = x
    stats = []
    length, k = m.config.seq_len, m.config.kernel
    for i, (conv, layer) in enumerate(zip(topology(m.config), m.convs)):
        zc = ws.zc[i][:b]
        split, patches = ws.patches[i]
        kernels.conv1d(ws.unfolded[i][:b], kernels.weight_matrix(layer.w, k),
                       zc, patches=(split[:b], patches[:b]))
        mu, var, inv = _bn_normalize(zc, m.config.bn_eps)
        h = ws.h[:b]
        np.multiply(zc, kernels.channel_rows(layer.gamma * inv, length), out=h)
        h += kernels.channel_rows(layer.beta, length)
        if conv.add is not None:
            h += operands[conv.skip]
        np.greater(h, 0, out=ws.masks[i][:b])
        np.maximum(h, 0, out=operands[i + 1])
        stats.append((mu, var, inv))
    logits = kernels.dense_batch(operands[-1].reshape(b, -1), m.head_w,
                                 m.head_b)
    return logits, stats


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
    """Gradients of the mean weighted CE loss for the len(x) windows of x,
    computed in ws: (grads keyed by param_items in its order, loss,
    _forward's stats). The conv weight gradients are ws's own arrays,
    valid until the next step. Conv i's ReLU mask is the one _forward
    kept, and one kernels.conv1d_backward call gives its weight and input
    gradients; the stem asks for no input gradient, since nothing reads
    it. An add sends its gradient to both branches, so the one kept at a
    block's last conv joins the input gradient of its first, conv.skip."""
    b = x.shape[0]
    logits, stats = _forward(ws, m, x)
    operands = ws.operands(b)
    loss, dlogits = _loss_and_dlogits(logits, targets, weights)

    grads = dict.fromkeys(name for name, _ in m.param_items())
    grads["head.w"] = np.matmul(dlogits.T, operands[-1].reshape(b, -1),
                                out=ws.head_w)
    grads["head.b"] = dlogits.sum(axis=0)
    da, spare = ws.grad[0][:b], ws.grad[1][:b]
    np.matmul(dlogits, m.head_w, out=da.reshape(b, -1))

    convs = topology(m.config)
    dz = kernels.interior(ws.g_unfolded[:b])
    skip_grad, first = None, None
    for i in range(len(convs) - 1, -1, -1):
        name, layer = convs[i].name, m.convs[i]
        da *= ws.masks[i][:b]               # da is now dL/dh
        dgamma, dbeta = _bn_backward(da, ws.zc[i][:b], layer.gamma,
                                     stats[i][2], dz)
        if convs[i].add is not None:        # the add routes dh to the skip too
            skip_grad, da, first = da, spare, convs[i].skip
        c_out, c_in, k = layer.w.shape
        split, patches = ws.g_patches[i]
        grads[f"{name}.w"] = kernels.conv1d_backward(
            ws.g_unfolded[:b], layer.w, ws.unfolded[i][:b], da if i else None,
            ws.dw[i], patches=(split[:b], patches[:b]),
            products=ws.products[:b, :c_out * k, :c_in])
        grads[f"{name}.gamma"] = dgamma
        grads[f"{name}.beta"] = dbeta
        if i == first:
            da += skip_grad
            spare = skip_grad
    return grads, loss, stats


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
    dtype = m.convs[0].w.dtype
    grads, loss, _ = _step(
        Workspace(m, x.shape[0]), m, x.astype(dtype, copy=False),
        np.asarray(targets), np.asarray(weights, dtype=dtype))
    return grads, loss


def init_adam(m: ModelParams) -> AdamState:
    return AdamState(t=0,
                     m={name: np.zeros_like(p) for name, p in m.param_items()},
                     v={name: np.zeros_like(p) for name, p in m.param_items()})


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              state: AdamState, hp: Hyperparams):
    """Bias-corrected Adam update, in place, in the folded form of Kingma
    & Ba's section 2: with bc1 = 1 - beta1^t and bc2 = 1 - beta2^t,

        p -= (lr*sqrt(bc2)/bc1) * m / (sqrt(v) + eps*sqrt(bc2)).

    Multiplying the textbook m_hat / (sqrt(v_hat) + eps), with m_hat =
    m/bc1 and v_hat = v/bc2, through by sqrt(bc2) gives it, so in exact
    arithmetic the update is the textbook's. eps is scaled by sqrt(bc2) to
    stay the floor of sqrt(v_hat), not of sqrt(v), which early on is
    smaller by that factor. The bias corrections become two scalars: no
    m_hat or v_hat array is formed, and the update keeps p's dtype. The
    step size lr is LR: hp sets none of Adam's constants."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    step = LR * math.sqrt(bc2) / bc1
    eps = ADAM_EPS * math.sqrt(bc2)
    for name, p in params.param_items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient {name} shape {g.shape} != {p.shape}")
        m_ = state.m[name]
        v_ = state.v[name]
        m_ *= BETA1
        m_ += (1.0 - BETA1) * g
        v_ *= BETA2
        v_ += (1.0 - BETA2) * np.square(g)
        p -= step * m_ / (np.sqrt(v_) + eps)
    return params, state


def _update_running_stats(m: ModelParams, stats) -> None:
    for layer, (mu, var, _) in zip(m.convs, stats):
        layer.mean = (BN_MOMENTUM * layer.mean
                      + (1.0 - BN_MOMENTUM) * mu).astype(np.float32)
        layer.var = (BN_MOMENTUM * layer.var
                     + (1.0 - BN_MOMENTUM) * var).astype(np.float32)


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
    weighted mean cross-entropy, from precomputed logits. ShapeMismatch
    when a label is not one of the model's classes."""
    if len(targets) and targets.max() >= classes:
        raise ShapeMismatch(f"model has {classes} classes, but the windows "
                            f"hold label {targets.max()}")
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


def _eval_arrays(m: ModelParams, x, y, wt):
    """Metrics of m on finite windows x, whose one forward_batch call runs
    inside kernels.float_checked: NonFiniteInput, with no numpy warning,
    when finite weights overflow it."""
    with kernels.float_checked("forward"):
        logits = forward_batch(m, x)
    return metrics_from_logits(logits, y, wt, m.config.classes)


def evaluate(m: ModelParams, windows: list[Window]) -> Metrics:
    """Argmax evaluation: confusion matrix, balanced accuracy, weighted loss."""
    if not windows:
        raise EmptyTestSet("evaluate needs at least one window")
    return _eval_arrays(m, *stack_windows(windows))


def train_fold(split: DatasetSplit, config: ModelConfig, hp: Hyperparams,
               seed: int) -> tuple[ModelParams, TrainHistory]:
    """Train on split.train with early stopping; restores best-epoch weights.

    The monitored quantity is the weighted validation loss; training stops
    once `patience + 1` consecutive epochs fail to improve it (patience 0
    stops at the first epoch that does not improve).

    The epoch loop runs inside kernels.float_checked: finite windows that
    overflow a float32 step raise NonFiniteInput, with no numpy warning.
    """
    hp.validate()
    if not split.train:
        raise EmptyTrainSet(f"fold {split.held_out_subject} has no training windows")
    train_windows, val_windows = _split_validation(split.train)
    x_train, y_train, w_train = stack_windows(train_windows)
    x_val, y_val, w_val = stack_windows(val_windows)

    params = build(config, seed)
    state = init_adam(params)
    rng = np.random.default_rng(seed)
    history = TrainHistory()

    best_loss = np.inf
    best_params = None
    since_best = 0
    n = len(x_train)
    ws = Workspace(params, min(hp.batch_size, n))
    with kernels.float_checked("training"):
        for epoch in range(1, hp.epochs + 1):
            order = rng.permutation(n)
            loss_sum = 0.0
            start = time.process_time()
            for i in range(0, n, hp.batch_size):
                idx = order[i:i + hp.batch_size]
                grads, loss, stats = _step(
                    ws, params, x_train[idx], y_train[idx], w_train[idx])
                adam_step(params, grads, state, hp)
                _update_running_stats(params, stats)
                loss_sum += loss * len(idx)
            steps = len(range(0, n, hp.batch_size))
            history.step_ms.append(1000.0 * (time.process_time() - start) / steps)
            train_loss = loss_sum / n

            val = _eval_arrays(params, x_val, y_val, w_val)
            history.train_loss.append(train_loss)
            history.val_loss.append(val.loss)
            history.val_balanced_accuracy.append(val.balanced_accuracy)

            if val.loss < best_loss:
                best_loss = val.loss
                best_params = copy.deepcopy(params)
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
