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


def conv1d_same(x, w, b):
    """Cross-correlation of a single window (C_in, L) -> (C_out, L)."""
    if x.ndim != 2:
        raise ShapeMismatch(f"conv input must be (C, L), got shape {x.shape}")
    return kernels.conv1d_same_batch(x[None], w, b)[0]


def dense(x, w, b):
    """Affine map w @ x + b for x (N,), w (M, N), b (M,)."""
    if x.ndim != 1 or w.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ShapeMismatch(f"weight {w.shape} incompatible with input {x.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeMismatch(f"bias shape {b.shape} != ({w.shape[0]},)")
    return w @ x + b


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
