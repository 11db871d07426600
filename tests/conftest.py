import numpy as np
import pytest

from edgefit import kernels, model, synth
from edgefit.dataset import NUM_CHANNELS, NUM_CLASSES, WINDOW_SIZE, Window
from edgefit.errors import ShapeMismatch


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_config():
    return model.ModelConfig(width=4)


def randomize_bn(m, seed=0):
    """Give a freshly built model non-trivial BN statistics, as if trained."""
    rng = np.random.default_rng(seed)
    for _, layer in m.conv_layers():
        n = layer.gamma.shape[0]
        layer.gamma = rng.uniform(0.5, 1.5, n).astype(np.float32)
        layer.beta = (0.3 * rng.standard_normal(n)).astype(np.float32)
        layer.mean = (0.2 * rng.standard_normal(n)).astype(np.float32)
        layer.var = rng.uniform(0.5, 2.0, n).astype(np.float32)
    return m


def astype(m, dtype):
    """A copy of the model m with every tensor cast to dtype, for the
    float64 gradient oracles of test_training.py and criterion 4."""
    out = m.copy()
    for _, layer in out.conv_layers():
        for a in ("w", "b", "gamma", "beta", "mean", "var"):
            setattr(layer, a, getattr(layer, a).astype(dtype))
    out.head_w = out.head_w.astype(dtype)
    out.head_b = out.head_b.astype(dtype)
    return out


def conv1d_same(x, w, b):
    """Cross-correlation of a single window (C_in, L) -> (C_out, L)."""
    if x.ndim != 2:
        raise ShapeMismatch(f"conv input must be (C, L), got shape {x.shape}")
    return kernels.conv1d_same_batch(x[None], w, b)[0]


def same_padded(x, w):
    """The batch x (B, C_in, L) with (K-1)/2 zero columns on each side for
    the kernel w (C_out, C_in, K), in np.result_type(x, w): the operand
    kernels.conv1d takes."""
    pad = (w.shape[2] - 1) // 2
    out = np.zeros((*x.shape[:2], x.shape[2] + 2 * pad), np.result_type(x, w))
    out[:, :, pad:pad + x.shape[2]] = x
    return out


def dense(x, w, b):
    """Affine map w @ x + b for x (N,), w (M, N), b (M,)."""
    if x.ndim != 1 or w.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ShapeMismatch(f"weight {w.shape} incompatible with input {x.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeMismatch(f"bias shape {b.shape} != ({w.shape[0]},)")
    return w @ x + b


def layerwise_forward(m, x, capture=None):
    """The float forward over a batch (B, in_channels, seq_len), one layer
    at a time over the whole batch, each layer through its kernels
    function: the oracle of model.forward_batch. With capture, a dict,
    every activation of model.activation_names is stored under its name."""
    cfg = m.config
    if x.ndim != 3 or x.shape[1:] != (cfg.in_channels, cfg.seq_len):
        raise ShapeMismatch(
            f"expected (B, {cfg.in_channels}, {cfg.seq_len}), got {x.shape}")

    def bn(layer, t):
        if m.bn_folded:
            return t
        return kernels.batchnorm_infer(t, layer.gamma, layer.beta,
                                       layer.mean, layer.var, cfg.bn_eps)

    def record(name, arr):
        if capture is not None:
            capture[name] = arr

    record("input", x)
    a = kernels.relu(bn(m.stem, kernels.conv1d_same_batch(x, m.stem.w,
                                                          m.stem.b)))
    record("stem.out", a)
    for i, block in enumerate(m.blocks):
        skip = a
        h = a
        for j, layer in enumerate(block):
            h = bn(layer, kernels.conv1d_same_batch(h, layer.w, layer.b))
            if j < len(block) - 1:
                h = kernels.relu(h)
            record(f"b{i}.c{j}.out", h)
        a = kernels.relu(kernels.add(h, skip))
        record(f"b{i}.add.out", a)
    return kernels.dense_batch(a.reshape(a.shape[0], -1), m.head_w, m.head_b)


def captured(m, x):
    """model.forward_batch's logits for the batch x and every activation it
    captures, by name: a copy of each block's view, joined over the batch."""
    parts = {}
    logits = model.forward_batch(
        m, x, capture=lambda name, arr: parts.setdefault(name, []).append(
            arr.copy()))
    return logits, {name: np.concatenate(p) for name, p in parts.items()}


def make_separable_windows(n=200, seed=0, labels=(1, 2)):
    """Trivially separable two-class windows: opposite DC levels, tiny noise.

    Subjects alternate between 1 and 2 and sessions cycle 1..5 so the
    leave-one-user-out and validation-session machinery can run on them.
    """
    rng = np.random.default_rng(seed)
    windows = []
    for i in range(n):
        level = 1.0 if i % 2 == 0 else -1.0
        data = (level + 0.05 * rng.standard_normal(
            (NUM_CHANNELS, WINDOW_SIZE))).astype(np.float32)
        windows.append(Window(data=data, label=labels[i % 2], weight=1.0,
                              subject=1 + (i % 2), session=1 + (i // 2) % 5))
    return windows


def make_random_windows(n, seed=0, scale=1.0):
    """Gaussian windows for calibration and agreement tests."""
    rng = np.random.default_rng(seed)
    return [Window(
        data=(scale * rng.standard_normal(
            (NUM_CHANNELS, WINDOW_SIZE))).astype(np.float32),
        label=int(rng.integers(NUM_CLASSES)), weight=1.0,
        subject=1 + int(rng.integers(10)), session=1 + int(rng.integers(5)),
    ) for _ in range(n)]


@pytest.fixture(scope="session")
def synth_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    synth.make_synthetic_dataset(out, subjects=3, sessions=2,
                                 class_seconds=4.0, null_seconds=1.5, seed=9)
    return out
