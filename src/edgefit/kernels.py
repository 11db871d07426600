"""Dense float kernels for 1D CNN inference and training.

All kernels are pure functions over numpy arrays (float32 in the production
path; they preserve float64 inputs so test oracles can run at higher
precision). Activations are laid out channels-first: (C, L) for a single
window, (B, C, L) for the batched variants used by the trainer.

conv1d is the only code that pads a convolution and lowers it to a GEMM:
the float forward (conv1d_same_batch), the trainer's forward and input
gradient (through conv1d_backward) and the integer path (the conv step of
quantize.QuantPlan) all call it, and it calls im2col through this
module's namespace. Without a pad buffer it zero-fills one in
np.result_type(x, w), so float operands keep their dtype. conv1d_backward
forms the weight gradient from the same padded input, one batched GEMM
per tap. Both take optional output buffers in numpy's out= idiom, which
the trainer and the integer plan pass; without them every result is
allocated, and the values are the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeMismatch(msg)


def im2col(x_padded: np.ndarray, kernel: int, out_len: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """Unfold a padded batch (B, C, L+K-1) into patches (B, C*K, out_len).

    Patch index (c, k) flattens to c*K + k, matching w.reshape(C_out, C_in*K).
    out, if given, is the (B, C*K, out_len) array the patches are written to.
    """
    b, c, _ = x_padded.shape
    if out is None:
        out = np.empty((b, c * kernel, out_len), dtype=x_padded.dtype)
    for k in range(kernel):
        out[:, k::kernel] = x_padded[:, :, k:k + out_len]
    return out


def _is_view(x: np.ndarray, of: np.ndarray) -> bool:
    """Whether x is the array `of`: one dtype, shape, strides and first
    element. Two aligned elements whose alignment is their itemsize overlap
    only when they start at one address, so a bounds check of the first
    elements compares the addresses without reading them; reading them
    (ctypes, __array_interface__) costs several microseconds a call, and
    only other dtypes and misaligned arrays need it."""
    if x.dtype != of.dtype or x.shape != of.shape or x.strides != of.strides:
        return False
    if x.dtype.alignment == x.itemsize and x.flags.aligned and of.flags.aligned:
        first = (slice(0, 1),) * x.ndim
        return np.may_share_memory(x[first], of[first])
    return x.ctypes.data == of.ctypes.data


def conv1d(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None, *,
           padded: np.ndarray | None = None,
           patches: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Cross-correlation with zero 'same' padding, stride 1, no bias.

    x: (B, C_in, L), w: (C_out, C_in, K) with K odd. Returns y (B, C_out, L)
    and the patches (B, C_in*K, L) it multiplied. Each window is one GEMM of
    the (C_out, C_in*K) weights over its own patches, so a window's result
    does not depend on the batch it runs in.

    out, padded and patches are optional output buffers in numpy's out=
    idiom, for a caller that runs many steps without allocating: out
    receives y, patches the patches, and padded (B, C_in, L+K-1), whose
    borders must be zero, the padded input. x may be padded's own interior
    view, as when the layer before wrote its output there; it is then
    read in place, not copied. Without them conv1d allocates each, the pad
    buffer zero-filled in np.result_type(x, w).
    """
    batch, c_in, length = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) // 2
    if padded is None:
        padded = np.zeros((batch, c_in, length + 2 * pad),
                          dtype=np.result_type(x, w))
    interior = padded[:, :, pad:pad + length]
    if not np.may_share_memory(x, padded):
        interior[...] = x
    elif not _is_view(x, interior):
        raise ShapeMismatch("conv input overlaps the pad buffer but is not "
                            "its interior")
    patches = im2col(padded, k, length, patches)
    return np.matmul(w.reshape(c_out, c_in * k), patches, out=out), patches


def conv1d_backward(g: np.ndarray, w: np.ndarray, padded: np.ndarray, *,
                    dx: np.ndarray | None = None,
                    dw: np.ndarray | None = None,
                    g_padded: np.ndarray | None = None,
                    patches: np.ndarray | None = None,
                    products: np.ndarray | None = None):
    """Gradients of conv1d given dL/dy g (B, C_out, L) and the padded input
    (B, C_in, L+K-1) conv1d multiplied.

    Returns (dx, dw, db). dx is conv1d of g with the flipped, transposed
    kernel; db is the gradient of a per-channel bias added to y. dw takes
    one batched GEMM per tap of g against a strided view of the padded
    input, summed over the batch, so neither operand is copied and no
    patches need to be kept from the forward pass.

    dx, dw, g_padded and patches are optional output buffers as in conv1d
    (g may be g_padded's interior); products (B, C_out, C_in) holds one
    tap's per-window products.
    """
    batch, _, length = g.shape
    c_out, c_in, k = w.shape
    dx, _ = conv1d(g, w.transpose(1, 0, 2)[:, :, ::-1], dx,
                   padded=g_padded, patches=patches)
    if dw is None:
        dw = np.empty(w.shape, dtype=np.result_type(g, padded))
    if products is None:
        products = np.empty((batch, c_out, c_in), dtype=dw.dtype)
    for t in range(k):
        np.matmul(g, padded[:, :, t:t + length].transpose(0, 2, 1),
                  out=products)
        dw[:, :, t] = products.sum(axis=0)
    return dx, dw, np.einsum("bcl->c", g)


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
