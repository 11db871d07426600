"""Dense float kernels for 1D CNN inference and training.

All kernels are pure functions over numpy arrays (float32 in the production
path; they preserve float64 inputs so test oracles can run at higher
precision). Activations are laid out channels-first: (C, L) for a single
window, (B, C, L) for the batched variants used by the trainer.

conv1d is the only code that pads a convolution and lowers it to a GEMM:
the float forward (conv1d_same_batch), the trainer's forward and backward
(conv1d_backward) and the integer path (quantize._qconv_run) all call it,
and it calls im2col through this module's namespace. It zero-fills its
padded buffer in np.result_type(x, w), so float operands keep their dtype
and integer activations against float weights become the float GEMM
operand the integer path needs.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeMismatch(msg)


def im2col(x_padded: np.ndarray, kernel: int, out_len: int) -> np.ndarray:
    """Unfold a padded batch (B, C, L+K-1) into patches (B, C*K, out_len).

    Patch index (c, k) flattens to c*K + k, matching w.reshape(C_out, C_in*K).
    """
    b, c, _ = x_padded.shape
    cols = np.stack([x_padded[:, :, k:k + out_len] for k in range(kernel)], axis=2)
    return cols.reshape(b, c * kernel, out_len)


def conv1d(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-correlation with zero 'same' padding, stride 1, no bias.

    x: (B, C_in, L), w: (C_out, C_in, K) with K odd. Returns y (B, C_out, L)
    and the patches (B, C_in*K, L) that conv1d_backward needs. Each window
    is one GEMM of the (C_out, C_in*K) weights over its own patches, so a
    window's result does not depend on the batch it runs in.
    """
    batch, c_in, length = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) // 2
    xp = np.zeros((batch, c_in, length + 2 * pad), dtype=np.result_type(x, w))
    xp[:, :, pad:pad + length] = x
    patches = im2col(xp, k, length)
    return np.matmul(w.reshape(c_out, c_in * k), patches), patches


def conv1d_backward(g: np.ndarray, w: np.ndarray, patches: np.ndarray):
    """Gradients of conv1d given dL/dy g (B, C_out, L) and conv1d's patches.

    Returns (dx, dw, db). dx is conv1d of g with the flipped, transposed
    kernel; db is the gradient of a per-channel bias added to y.
    """
    c_out, c_in, k = w.shape
    dx, _ = conv1d(g, w.transpose(1, 0, 2)[:, :, ::-1])
    dw = np.tensordot(g, patches, axes=([0, 2], [0, 2])).reshape(c_out, c_in, k)
    return dx, dw, g.sum(axis=(0, 2))


def conv1d_same_batch(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conv1d plus a bias b (C_out,), with its operands' shapes checked."""
    _require(x.ndim == 3, f"conv input must be (B, C, L), got shape {x.shape}")
    _require(w.ndim == 3, f"conv weight must be (C_out, C_in, K), got shape {w.shape}")
    c_out, c_in, k = w.shape
    _require(k % 2 == 1, f"kernel size must be odd, got {k}")
    _require(x.shape[1] == c_in, f"input channels {x.shape[1]} != weight C_in {c_in}")
    _require(b.shape == (c_out,), f"bias shape {b.shape} != ({c_out},)")
    y, _ = conv1d(x, w)
    y += b[:, None]
    return y


def batchnorm_infer(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    mean: np.ndarray, var: np.ndarray, eps: float) -> np.ndarray:
    """Per-channel affine normalization y = gamma*(x-mean)/sqrt(var+eps)+beta.

    x: (C, L) or (B, C, L); parameter vectors are (C,).
    """
    c = x.shape[-2]
    for name, p in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        _require(p.shape == (c,), f"{name} shape {p.shape} != ({c},)")
    shape = (c, 1) if x.ndim == 2 else (1, c, 1)
    inv = gamma / np.sqrt(var + eps)
    return (x - mean.reshape(shape)) * inv.reshape(shape) + beta.reshape(shape)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    _require(x.shape == y.shape, f"add shapes differ: {x.shape} vs {y.shape}")
    return x + y


def dense_batch(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched affine map for x (B, N) -> (B, M)."""
    _require(x.ndim == 2 and w.shape[1] == x.shape[1],
             f"weight {w.shape} incompatible with input {x.shape}")
    return x @ w.T + b[None, :]


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    if not np.all(np.isfinite(z)):
        raise NonFiniteInput("softmax input contains NaN or Inf")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput(f"{what} contains NaN or Inf")
    return x
