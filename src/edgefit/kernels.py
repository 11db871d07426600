"""Dense float kernels for 1D CNN inference and training.

All kernels are pure functions over numpy arrays (float32 in the production
path; they preserve float64 inputs so test oracles can run at higher
precision). Activations are laid out channels-first: (C, L) for a single
window, (B, C, L) for the batched variants used by the trainer.

im2col and a GEMM are the one lowering of a convolution, and conv1d and
conv1d_backward are the only code that runs it, each calling im2col
through this module's namespace: the float forward (model.forward_batch,
through conv1d_same_batch), the trainer's forward and the integer path
(the conv step of quantize.QuantPlan) call conv1d, and the trainer's
backward conv1d_backward. Every conv entry point takes one operand, the
padded batch (B, C_in, L+K-1), and the caller owns its zero borders: the
float forward, the trainer and the integer plan each keep zero-filled pad
buffers and write every input into interior(padded, K), the (B, C_in, L)
view between the borders. interior is the one place that knows the
border width (K-1)/2.

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

BLOCK is also the block of model.forward_batch, which runs each block of
windows through the whole network, and of the integer plan
(quantize.QuantPlan). There each block pays one call of every step, so
fewer, larger blocks cost less per window, though a 52-channel conv's
int64 accumulators for 16 windows take 266 KB: at width 52, 835 windows
ran in 0.914 of the time in blocks of 16 as in blocks of 8, and no faster
in blocks of 32 (2-vCPU Xeon, numpy 2.4.6, OpenBLAS 0.3.31).

dense_batch, the classifier head, runs one GEMV per row for the same
reason conv1d runs one GEMM per window: BLAS sums a many-row GEMM in
another order than a one-row one, so a head over the whole batch gave a
window logits that changed in their last bits with the batch (at width
52, up to 1.5e-5 on logits up to 15 in magnitude). Row by row, every
float output of a window, its logits included, is the same bit for bit
whatever batch or block it runs in.

conv1d_backward is the trainer's half of the same lowering. Per block it
unfolds the zero-bordered output gradient once, through im2col, and that
one patch matrix gives both gradients: the flipped, transposed kernel
times the patches is the input gradient (the GEMM conv1d would run on it,
so the bits are conv1d's), and the patches times the block's input
interior, transposed, are the weight gradient's per-window products, in
which tap t is patch row K-1-t. A vector of ones times a block's
products, one GEMV, sums them over the block, in half the time of a sum
over numpy's axis 0 (7 against 14 us a 16-window block at width 52). It
forms the weight gradient only: the trainer's convs feed batch-statistics
BN, which makes a conv bias's gradient exactly zero. Both conv kernels
take optional output buffers in numpy's out= idiom; without them every
result is allocated, with the same bits.

float_checked is the package's one float32 overflow guard (below).
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch

# Windows a conv, the float forward and the integer plan take at a time
# (see the module docstring).
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

    One strided copy: windows is the (B, C, K, out_len) view of x_padded
    whose element (b, c, k, l) is x_padded[b, c, k + l], and splitting
    out's axis 1 into (C, K) is always a view of out. The view is built
    with the ndarray constructor, which costs less per call than
    as_strided or sliding_window_view at one window.
    """
    b, c, _ = x_padded.shape
    if out is None:
        out = np.empty((b, c * kernel, out_len), dtype=x_padded.dtype)
    x = np.ascontiguousarray(x_padded)
    s0, s1, s2 = x.strides
    windows = np.ndarray((b, c, kernel, out_len), x.dtype, x, 0,
                         (s0, s1, s2, s2))
    np.copyto(out.reshape(b, c, kernel, out_len), windows)
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


def conv1d_backward(g_padded: np.ndarray, w: np.ndarray, padded: np.ndarray,
                    dx: np.ndarray | None = None,
                    dw: np.ndarray | None = None, *,
                    patches: np.ndarray | None = None,
                    products: np.ndarray | None = None) -> np.ndarray:
    """The weight gradient dw (C_out, C_in, K) of conv1d(padded, w), given
    dL/dy zero-bordered as g_padded (B, C_out, L+K-1); dx (B, C_in, L), if
    given, receives the input gradient, and without it none is formed.
    No bias gradient is formed: the trainer's convs feed batch-statistics
    BN, under which it is exactly zero.

    Each block of BLOCK windows is unfolded once by im2col into patches
    (min(B, BLOCK), C_out*K, L). The (C_in, C_out*K) flipped kernel times
    them gives the block's dx, one GEMM per window as in conv1d; the
    patches times the block's input interior, transposed, give products
    (min(B, BLOCK), C_out*K, C_in). One GEMV, a vector of ones times the
    products flattened to (n, C_out*K*C_in), sums them over the block's n
    windows, and the block sums add up to dw, tap t at patch row K-1-t.
    dw, patches and products are optional output buffers; a products
    buffer contiguous in its last two axes is summed without a copy.
    """
    batch, c_out, padded_len = g_padded.shape
    _, c_in, k = w.shape
    length = padded_len - k + 1
    x = interior(padded, k).transpose(0, 2, 1)
    rows = min(batch, BLOCK)
    if dw is None:
        dw = np.empty(w.shape, np.result_type(g_padded, padded))
    if patches is None:
        patches = np.empty((rows, c_out * k, length), g_padded.dtype)
    if products is None:
        products = np.empty((rows, c_out * k, c_in), dw.dtype)
    w_flipped = w.transpose(1, 0, 2)[:, :, ::-1].reshape(c_in, c_out * k)
    ones = np.ones(rows, dw.dtype)
    # summed contiguous, then copied: a sum straight into dw's strided taps
    # view runs 4x slower
    total, block_sum = np.empty((2, c_out * k * c_in), dw.dtype)
    for i in range(0, batch, BLOCK):
        block = slice(i, i + BLOCK)
        n = len(g_padded[block])
        unfolded = im2col(g_padded[block], k, length, patches[:n])
        if dx is not None:
            np.matmul(w_flipped, unfolded, out=dx[block])
        np.matmul(unfolded, x[block], out=products[:n])
        np.matmul(ones[:n], products[:n].reshape(n, -1),
                  out=block_sum if i else total)
        if i:
            total += block_sum
    # total[(o*K + j)*C_in + c] is dw[o, c, K-1-j], the row order of the
    # patches
    np.copyto(dw.transpose(0, 2, 1)[:, ::-1], total.reshape(c_out, k, c_in))
    return dw


def channel_rows(v: np.ndarray, length: int) -> np.ndarray:
    """The (C, L) array of the per-channel values v (C,), each repeated
    over L. Broadcast against (B, C, L), a row makes numpy's inner loop run
    over C*L elements, where a (C, 1) column makes it run over L."""
    return np.repeat(v[:, None], length, axis=1)


def interior(padded: np.ndarray, kernel: int) -> np.ndarray:
    """The (..., L) view of an operand padded (..., L+K-1) for the odd
    kernel size K: every column but the (K-1)/2 borders on each side."""
    pad = (kernel - 1) // 2
    return padded[..., pad:padded.shape[-1] - pad]


def conv1d_same_batch(padded: np.ndarray, w: np.ndarray, b: np.ndarray,
                      out: np.ndarray | None = None, *,
                      patches: np.ndarray | None = None) -> np.ndarray:
    """conv1d of the padded batch (B, C_in, L+K-1) plus a bias b (C_out,),
    with its operands' shapes checked; out and patches as for conv1d."""
    # one test when the shapes fit; each is checked by name only if not
    if not (padded.ndim == w.ndim == 3 and w.shape[2] % 2 == 1
            and padded.shape[1] == w.shape[1] and b.shape == w.shape[:1]):
        _require(padded.ndim == 3,
                 "conv input must be (B, C, L+K-1), got shape %s",
                 padded.shape)
        _require(w.ndim == 3,
                 "conv weight must be (C_out, C_in, K), got shape %s", w.shape)
        _require(w.shape[2] % 2 == 1, "kernel size must be odd, got %d",
                 w.shape[2])
        _require(padded.shape[1] == w.shape[1],
                 "input channels %d != weight C_in %d", padded.shape[1],
                 w.shape[1])
        _require(b.shape == w.shape[:1], "bias shape %s != (%d,)", b.shape,
                 w.shape[0])
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
    """Batched affine map for x (B, N) -> (B, M), one GEMV per row: a
    stacked one-row matmul gives each row the bits a one-row call does,
    whatever B (see the module docstring)."""
    _require(x.ndim == 2 and w.shape[1] == x.shape[1],
             "weight %s incompatible with input %s", w.shape, x.shape)
    return (x[:, None, :] @ w.T)[:, 0] + b


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


@contextlib.contextmanager
def float_checked(what: str):
    """Run a block under np.errstate(over="raise", invalid="raise") and
    turn the first overflow or invalid value into NonFiniteInput("float32
    {what}: ..."), with no numpy warning. The loaders admit only finite
    values, yet finite weights or windows can overflow float32 arithmetic.

    It wraps whole stages, once per call: training.train_fold's epoch loop,
    training._eval_arrays' forward pass, the BN fold and calibration of
    quantize.post_training_quantize, and platform_model.host_bench's runs.
    model.forward_batch carries none: entered and left on every call, the
    guard raised the one-window float latency (perfbench's
    stream.float.p50_ms) by 4-6 %."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise NonFiniteInput(f"float32 {what}: {e}") from None
