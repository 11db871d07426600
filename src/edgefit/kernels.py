"""Dense float kernels for 1D CNN inference and training.

All kernels are pure functions over numpy arrays (float32 in the production
path; they preserve float64 inputs so test oracles can run at higher
precision). Activations are laid out channels-first: (C, L) for a single
window, (B, C, L) for the batched variants used by the trainer.

conv1d is the only code that lowers a convolution to a GEMM: the float
forward (model.forward_batch, through conv1d_same_batch), the trainer's
forward and input gradient and the integer path (the conv step of
quantize.QuantPlan) all call it, and it calls im2col through this
module's namespace. Its operand is the padded batch (B, C_in, L+K-1), and
the caller owns its zero borders: the trainer and the integer plan write
each input into the interior of a pad buffer they keep, and
conv1d_same_batch copies its input into one its caller keeps or, without
one, zero-fills one in np.result_type(x, w), so float operands keep their
dtype.

batchnorm_infer, relu and add are the layer-by-layer forms of what
model.forward_batch does in place on a conv's output: the tests compose
them into its oracle, and perfbench's tracer wraps them by name.

conv1d unfolds and multiplies a batch one block of BLOCK windows at a
time, so a block's patches are still in the cache when its GEMM reads
them (the unrolled convolution of Chellapilla et al., 2006, blocked for
the cache as in Goto and van de Geijn, 2008). At width 52 and kernel 3 a
window's patches take 25 KB; 16 windows' 400 KB, with their input and
output, stay well inside a 2 MB L2, where a batch of 512 unfolded at once
wrote 12.8 MB of patches before its GEMM read any of them back. Each
window is still its own GEMM, so a window's result does not depend on the
batch or the block it runs in, and a batch of at most BLOCK windows runs
as one block with no loop.

conv1d_weight_grad forms the weight gradient from the same padded input,
one batched GEMM per tap; the input gradient is conv1d of the padded
output gradient with the flipped, transposed kernel. Both take optional
output buffers in numpy's out= idiom; without them every result is
allocated, with the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch

# Windows conv1d unfolds and multiplies at a time (see the module docstring).
BLOCK = 16


def _require(cond: bool, msg: str, *args) -> None:
    """Raise ShapeMismatch(msg % args) unless cond; the message is only
    formatted on failure, so a check costs a comparison."""
    if not cond:
        raise ShapeMismatch(msg % args)


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


def conv1d(padded: np.ndarray, w: np.ndarray, out: np.ndarray | None = None,
           *, patches: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation with zero 'same' padding, stride 1, no bias.

    padded: (B, C_in, L+K-1), the input with (K-1)/2 zero columns on each
    side; w: (C_out, C_in, K) with K odd. Returns y (B, C_out, L). Each
    block of BLOCK windows is unfolded by im2col and multiplied by the
    (C_out, C_in*K) weights, one GEMM per window, into its rows of y.

    out and patches are optional output buffers in numpy's out= idiom, for
    a caller that runs many steps without allocating: out receives y, and
    patches (min(B, BLOCK), C_in*K, L) the patches of one block at a time.
    """
    batch, c_in, padded_len = padded.shape
    c_out, _, k = w.shape
    length = padded_len - k + 1
    w2 = w.reshape(c_out, c_in * k)
    if batch <= BLOCK:
        return np.matmul(w2, im2col(padded, k, length, patches), out=out)
    if out is None:
        out = np.empty((batch, c_out, length), np.result_type(w, padded))
    if patches is None:
        patches = np.empty((BLOCK, c_in * k, length), padded.dtype)
    for i in range(0, batch, BLOCK):
        rows = slice(i, i + BLOCK)
        block = padded[rows]
        np.matmul(w2, im2col(block, k, length, patches[:len(block)]),
                  out=out[rows])
    return out


def conv1d_weight_grad(g: np.ndarray, padded: np.ndarray, *,
                       dw: np.ndarray | None = None,
                       products: np.ndarray | None = None):
    """Gradients (dw, db) of conv1d's weights and of a per-channel bias
    added to y, given dL/dy g (B, C_out, L) and the padded input (B, C_in,
    L+K-1) conv1d multiplied.

    dw takes one batched GEMM per tap of g against a strided view of the
    padded input, summed over the batch, so neither operand is copied and
    no patches need to be kept from the forward pass. dw (C_out, C_in, K)
    and products (B, C_out, C_in), one tap's per-window products, are
    optional output buffers.
    """
    batch, c_out, length = g.shape
    _, c_in, padded_len = padded.shape
    k = padded_len - length + 1
    if dw is None:
        dw = np.empty((c_out, c_in, k), dtype=np.result_type(g, padded))
    if products is None:
        products = np.empty((batch, c_out, c_in), dtype=dw.dtype)
    for t in range(k):
        np.matmul(g, padded[:, :, t:t + length].transpose(0, 2, 1),
                  out=products)
        dw[:, :, t] = products.sum(axis=0)
    return dw, np.einsum("bcl->c", g)


def conv1d_same_batch(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                      out: np.ndarray | None = None, *,
                      padded: np.ndarray | None = None,
                      patches: np.ndarray | None = None) -> np.ndarray:
    """conv1d of x (B, C_in, L), zero-padded here, plus a bias b (C_out,),
    with its operands' shapes checked.

    out, padded and patches are optional buffers in numpy's out= idiom:
    out and patches as for conv1d, and padded the (B, C_in, L+K-1) operand,
    whose (K-1)/2 border columns on each side the caller keeps zero; x is
    copied into its interior. Without it, one is zero-filled in
    np.result_type(x, w). x may be out itself, since it is copied before
    y is written.
    """
    # one test when the shapes fit; each is checked by name only if not
    if not (x.ndim == w.ndim == 3 and w.shape[2] % 2 == 1
            and x.shape[1] == w.shape[1] and b.shape == w.shape[:1]):
        _require(x.ndim == 3, "conv input must be (B, C, L), got shape %s",
                 x.shape)
        _require(w.ndim == 3,
                 "conv weight must be (C_out, C_in, K), got shape %s", w.shape)
        _require(w.shape[2] % 2 == 1, "kernel size must be odd, got %d",
                 w.shape[2])
        _require(x.shape[1] == w.shape[1], "input channels %d != weight C_in %d",
                 x.shape[1], w.shape[1])
        _require(b.shape == w.shape[:1], "bias shape %s != (%d,)", b.shape,
                 w.shape[0])
    batch, c_in, length = x.shape
    pad = (w.shape[2] - 1) // 2
    if padded is None:
        padded = np.zeros((batch, c_in, length + 2 * pad), np.result_type(x, w))
    else:
        _require(padded.shape == (batch, c_in, length + 2 * pad),
                 "pad buffer shape %s != %s", padded.shape,
                 (batch, c_in, length + 2 * pad))
    padded[:, :, pad:pad + length] = x
    y = conv1d(padded, w, out, patches=patches)
    y += b[:, None]
    return y


def batchnorm_infer(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    mean: np.ndarray, var: np.ndarray, eps: float) -> np.ndarray:
    """Per-channel affine normalization y = gamma*(x-mean)/sqrt(var+eps)+beta.

    x: (C, L) or (B, C, L); parameter vectors are (C,).
    """
    c = x.shape[-2]
    for name, p in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        _require(p.shape == (c,), "%s shape %s != (%d,)", name, p.shape, c)
    shape = (c, 1) if x.ndim == 2 else (1, c, 1)
    inv = gamma / np.sqrt(var + eps)
    return (x - mean.reshape(shape)) * inv.reshape(shape) + beta.reshape(shape)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    _require(x.shape == y.shape, "add shapes differ: %s vs %s", x.shape, y.shape)
    return x + y


def dense_batch(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched affine map for x (B, N) -> (B, M)."""
    _require(x.ndim == 2 and w.shape[1] == x.shape[1],
             "weight %s incompatible with input %s", w.shape, x.shape)
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
