import numpy as np
import pytest

from edgefit import kernels, model, synth
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


@pytest.fixture(scope="session")
def synth_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    synth.make_synthetic_dataset(out, subjects=3, sessions=2,
                                 class_seconds=4.0, null_seconds=1.5, seed=9)
    return out
