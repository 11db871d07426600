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
backward conv1d_backward. Every conv kernel takes its operands in one
form each. The input is the unfold view (B, C_in, K, L) of a
zero-bordered pad buffer (B, C_in, L+K-1), whose element (b, c, k, l) is
the buffer's (b, c, k + l), and the caller owns the buffer and its zero
borders. The forward's weights are the (C_out, C_in*K) GEMM matrix,
weight_matrix(w, K), which checks w against the views' kernel K; the
backward, which only the trainer runs, takes the (C_out, C_in, K)
weights it flips. A patches buffer (B, C_in*K, L) comes as its two
patch_views, the (B, C_in, K, L) split that im2col writes and the buffer
the GEMM reads. The float forward (model.ForwardPlan), the trainer
(training.Workspace) and the integer plan each build their views once,
from buffers they allocate once, and write every input into
interior(view), the view's centre tap, which is the (B, C_in, L) run of
the buffer between its borders: the view aliases the buffer, so it
reads every input written there. interior is the one place that knows
the border width (K-1)/2, and im2col copies the patches straight from
the view: no kernel branches on its operands' shapes or copies an
operand whole.

A one-window conv is then one copy and one GEMM, with no view built
and no shape unpacked, since each view is a sizeable share of the
call: with the weights reshaped to the matrix and the patches buffer
split into (C, K) inside the call, a one-window conv1d_same_batch of a
52-channel conv takes 9.4-9.6 us; with both views bound by the caller
8.8-9.0 us, against 8.0-8.4 us for the bare copy and GEMM (timeit
minima, three alternating processes each, 2-vCPU Xeon, numpy 2.4.6, one
BLAS thread).

At one window a numpy pass over a conv's output costs about a
microsecond, so the plans hand every pass operands of its own shape
where they can: numpy runs any broadcast, even one over a leading axis
of 1, through its buffered iterator, which at width 52 took 1.08 us for
a one-window int64 multiply by a (C, L) row against 0.74 us by a
(1, C, L) one, and at 16 windows allocates a 50 KB buffer and takes
1.5-2x the time of a same-shape pass (multiply 12.0 against 7.6 us, add
10.4 against 5.2 us, right shift 13.6 against 9.0 us). Two more slow
paths cost as much. np.maximum and np.minimum take a slower loop when
an operand is a scalar: an int64 clamp of a (52, 40) window took 1.42
against 0.66 us with a bound array of its own shape, and 13.3 against
8.8 us at 16 windows; a float32 ReLU into a pad buffer's interior 2.3
against 1.6 us, and 18.6 against 15.2 us. And numpy's wrappers that
dispatch through the array-function protocol cost more than the method
or assignment that does their work: np.copyto took 0.58 us against
0.32 us for dst[...] = src, np.take 2.51 against 1.70 us for the
array's take, np.all(np.isfinite(x)) 2.50 against 1.48 us for
np.isfinite(x).all() (timeit minima, numpy 2.4.6, one BLAS thread). So
every clamp and ReLU of the plans takes a constant block of its
operand's shape as its bound (quantize.QuantPlan, model.ForwardPlan),
every per-channel constant a plan adds or multiplies is a (1, C, L) row
(channel_rows) built with the plan, the int8 requantization's and a
BN-folded float model's biases alike, and the package copies by
assignment and calls take and all as methods. The plan of an unfolded
float model holds no parameter, since training edits it between calls,
and still adds BN's (C, 1) columns.

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

conv1d_backward is the trainer's half of the same lowering. Its output
gradient is an operand too, the unfold view of a zero-bordered pad
buffer, and per block im2col copies its patches once; that one patch
matrix gives both gradients: the flipped, transposed kernel times the
patches is the input gradient (the GEMM conv1d would run on it, so the
bits are conv1d's), and the patches times the block's input, the
interior of its operand, transposed, are the weight gradient's
per-window products, in which tap t is patch row K-1-t. A vector of ones
times a block's products, one GEMV, sums them over the block, in half the
time of a sum over numpy's axis 0 (7 against 14 us a 16-window block at
width 52). The convs have no bias: each feeds BN, whose beta is its one
per-channel offset (model.ConvLayer), so no kernel adds or
differentiates one. Both conv kernels take optional output buffers in
numpy's out= idiom; without them every result is allocated, with the
same bits.

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


def unfold(padded: np.ndarray, kernel: int) -> np.ndarray:
    """The (B, C, K, L) view of the C-contiguous padded batch (B, C,
    L+K-1) whose element (b, c, k, l) is padded[b, c, k + l].

    It aliases padded, so it reads whatever is written into padded later:
    a caller builds it once per pad buffer (a plan per block size, the
    trainer per workspace, taking a batch's leading rows), and every call
    then reads the input just written into interior(view). It is built
    with the ndarray constructor, which costs less than as_strided or
    sliding_window_view and raises ValueError for a padded that is not
    C-contiguous instead of copying it, so the view is never one of a copy
    that later writes would miss.
    """
    b, c, padded_len = padded.shape
    s0, s1, s2 = padded.strides
    return np.ndarray((b, c, kernel, padded_len - kernel + 1), padded.dtype,
                      padded, 0, (s0, s1, s2, s2))


def weight_matrix(w: np.ndarray, kernel: int) -> np.ndarray:
    """The (C_out, C_in*K) GEMM matrix of the conv weights w (C_out, C_in,
    K), the one form of a weight operand conv1d takes: row o holds w[o]
    flattened, tap (c, k) at column c*K + k, the row of that tap in
    im2col's patches. A view of w when w is C-contiguous, so an in-place
    edit of w reaches it.

    kernel is the K of the unfold views the matrix multiplies, and
    weights that are not (C_out, C_in, kernel) raise ShapeMismatch naming
    them: the matrix keeps only C_in*K, which conv1d_same_batch checks
    against the view's channels."""
    if not (w.ndim == 3 and w.shape[2] == kernel):
        _require(w.ndim == 3, "conv weight must be (C_out, C_in, K), got "
                 "shape %s", w.shape)
        raise ShapeMismatch(f"conv weight K {w.shape[2]} != unfold view's "
                            f"kernel {kernel}")
    return w.reshape(len(w), -1)


def patch_views(patches: np.ndarray, kernel: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """The two bound views of a patches buffer (B, C*K, L) of a conv of
    kernel K: (its (B, C, K, L) split, which im2col writes, and the buffer
    itself, which the GEMM reads), the one form of the patches operand of
    im2col, conv1d and conv1d_backward. The split is built with explicit
    strides, so it is a view even of a buffer sliced from a wider one
    along axis 1, as the trainer's are, and never of a copy."""
    b, rows, length = patches.shape
    s0, s1, s2 = patches.strides
    split = np.lib.stride_tricks.as_strided(
        patches, (b, rows // kernel, kernel, length), (s0, s1 * kernel, s1, s2))
    return split, patches


def im2col(unfolded: np.ndarray,
           out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The patches (B, C*K, L) of a conv operand, its unfold view (B, C,
    K, L); patch row (c, k) is c*K + k, matching weight_matrix's columns.
    out, if given, is the patch_views pair (split, patches) of the buffer
    the patches are written to, and the buffer is returned.

    One strided copy from the view into the split view of the buffer: the
    two have one shape, so the copy runs without numpy's buffered
    broadcast iterator, which any broadcast, even one over a leading axis
    of 1, would take, and with both views bound by the caller the call
    builds none.
    """
    if out is None:
        b, c, kernel, length = unfolded.shape
        out = patch_views(np.empty((b, c * kernel, length), unfolded.dtype),
                          kernel)
    split, patches = out
    split[...] = unfolded
    return patches


def conv1d(unfolded: np.ndarray, w: np.ndarray, out: np.ndarray | None = None,
           *, patches: tuple[np.ndarray, np.ndarray] | None = None
           ) -> np.ndarray:
    """Cross-correlation with zero 'same' padding, stride 1, no bias.

    unfolded: (B, C_in, K, L), the unfold view of the input's pad buffer;
    w: (C_out, C_in*K), the weight_matrix of (C_out, C_in, K) weights with
    K odd. Returns y (B, C_out, L). im2col copies the patches of each
    block of BLOCK windows from the view, and w multiplies them, one GEMM
    per window, into the block's rows of y.

    out and patches are optional output buffers in numpy's out= idiom, for
    a caller that runs many steps without allocating: out receives y, and
    patches, the patch_views pair of a (min(B, BLOCK), C_in*K, L) buffer,
    the patches of one block at a time. A batch of at most BLOCK windows
    is one im2col and one GEMM, and builds no view.
    """
    batch = len(unfolded)
    if batch <= BLOCK:
        return np.matmul(w, im2col(unfolded, patches), out=out)
    if out is None:
        out = np.empty((batch, len(w), unfolded.shape[3]),
                       np.result_type(w, unfolded))
    if patches is None:
        patches = patch_views(np.empty((BLOCK, w.shape[1], unfolded.shape[3]),
                                       unfolded.dtype), unfolded.shape[2])
    split, cols = patches
    for i in range(0, batch, BLOCK):
        rows = slice(i, i + BLOCK)
        block = unfolded[rows]
        n = len(block)
        np.matmul(w, im2col(block, (split[:n], cols[:n])), out=out[rows])
    return out


def conv1d_backward(g_unfolded: np.ndarray, w: np.ndarray,
                    unfolded: np.ndarray, dx: np.ndarray | None = None,
                    dw: np.ndarray | None = None, *,
                    patches: tuple[np.ndarray, np.ndarray] | None = None,
                    products: np.ndarray | None = None) -> np.ndarray:
    """The weight gradient dw (C_out, C_in, K) of conv1d(unfolded,
    weight_matrix(w, K)), given dL/dy as g_unfolded (B, C_out, K, L), the
    unfold view of its zero-bordered pad buffer; dx (B, C_in, L), if
    given, receives the input gradient, and without it none is formed.
    The convs have no bias, so there is no bias gradient.

    im2col copies the patches of each block of BLOCK windows from the
    gradient's view once, into patches, the patch_views pair of a
    (min(B, BLOCK), C_out*K, L) buffer. The (C_in, C_out*K) flipped kernel
    times them gives the block's dx, one GEMM per window as in conv1d;
    the patches times the block's input, interior(unfolded), transposed,
    give products (min(B, BLOCK), C_out*K, C_in). One GEMV, a vector of
    ones times the products flattened to (n, C_out*K*C_in), sums them over
    the block's n windows, and the block sums add up to dw, tap t at patch
    row K-1-t. dw, patches and products are optional output buffers; a
    products buffer contiguous in its last two axes is summed without a
    copy.
    """
    batch, c_out, k, length = g_unfolded.shape
    c_in = w.shape[1]
    x = interior(unfolded).transpose(0, 2, 1)
    rows = min(batch, BLOCK)
    if dw is None:
        dw = np.empty(w.shape, np.result_type(g_unfolded, unfolded))
    if patches is None:
        patches = patch_views(
            np.empty((rows, c_out * k, length), g_unfolded.dtype), k)
    if products is None:
        products = np.empty((rows, c_out * k, c_in), dw.dtype)
    w_flipped = w.transpose(1, 0, 2)[:, :, ::-1].reshape(c_in, c_out * k)
    split, cols = patches
    ones = np.ones(rows, dw.dtype)
    # summed contiguous, then copied: a sum straight into dw's strided taps
    # view runs 4x slower
    total, block_sum = np.empty((2, c_out * k * c_in), dw.dtype)
    for i in range(0, batch, BLOCK):
        block = slice(i, i + BLOCK)
        n = len(g_unfolded[block])
        im2col(g_unfolded[block], (split[:n], cols[:n]))
        if dx is not None:
            np.matmul(w_flipped, cols[:n], out=dx[block])
        np.matmul(cols[:n], x[block], out=products[:n])
        np.matmul(ones[:n], products[:n].reshape(n, -1),
                  out=block_sum if i else total)
        if i:
            total += block_sum
    # total[(o*K + j)*C_in + c] is dw[o, c, K-1-j], the row order of the
    # patches
    dw.transpose(0, 2, 1)[:, ::-1] = total.reshape(c_out, k, c_in)
    return dw


def channel_rows(v: np.ndarray, length: int) -> np.ndarray:
    """The (C, L) array of the per-channel values v (C,), each repeated
    over L. Broadcast against (B, C, L), a row makes numpy's inner loop run
    over C*L elements, where a (C, 1) column makes it run over L. Any
    broadcast, even one over a leading axis of 1, still runs through
    numpy's buffered iterator: at 16 windows of width 52 that is a 50 KB
    buffer and 1.5-2x the time of a same-shape pass. A row given a
    leading axis, (1, C, L), meets a one-window batch in its own shape and
    so takes no iterator buffer (quantize._ConvStep)."""
    return np.repeat(v[:, None], length, axis=1)


def interior(unfolded: np.ndarray) -> np.ndarray:
    """The (B, C, L) input of a conv operand, its unfold view (B, C, K, L)
    of a pad buffer (B, C, L+K-1) with (K-1)/2 zero columns on each side:
    the view's centre tap (K-1)/2, which is every column of the buffer but
    the borders. It aliases the buffer, so an input written into it is
    what the operand reads."""
    return unfolded[:, :, (unfolded.shape[2] - 1) // 2]


def conv1d_same_batch(unfolded: np.ndarray, w: np.ndarray,
                      out: np.ndarray | None = None, *,
                      patches: tuple[np.ndarray, np.ndarray] | None = None
                      ) -> np.ndarray:
    """conv1d of the unfold view (B, C_in, K, L) and the weight matrix
    (C_out, C_in*K), with their shapes checked; out and patches as for
    conv1d. weight_matrix checked the weights' K against the view's, so
    every operand whose shape misses another's raises ShapeMismatch
    naming it."""
    # one test when the shapes fit; each is checked by name only if not
    if not (unfolded.ndim == 4 and w.ndim == 2 and unfolded.shape[2] % 2
            and unfolded.shape[1] * unfolded.shape[2] == w.shape[1]):
        _require(unfolded.ndim == 4,
                 "conv input must be the unfold view (B, C, K, L) of its pad "
                 "buffer, got shape %s", unfolded.shape)
        _require(w.ndim == 2,
                 "conv weight must be the (C_out, C_in*K) weight_matrix, got "
                 "shape %s", w.shape)
        _require(unfolded.shape[2] % 2 == 1, "kernel size must be odd, got %d",
                 unfolded.shape[2])
        raise ShapeMismatch(
            f"unfold view of kernel {unfolded.shape[2]} over "
            f"{unfolded.shape[1]} input channels != weight matrix's "
            f"{w.shape[1]} columns (C_in*K)")
    return conv1d(unfolded, w, out, patches=patches)


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
    if not np.isfinite(z).all():
        raise NonFiniteInput("softmax input contains NaN or Inf")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{what} contains NaN or Inf")
    return x


@contextlib.contextmanager
def float_checked(what: str):
    """Run a block under np.errstate(over="raise", invalid="raise") and
    turn the first overflow or invalid value into NonFiniteInput("float32
    {what}: ..."), with no numpy warning. The loaders admit only finite
    values, yet finite weights or windows can overflow float32 arithmetic.

    It wraps whole stages, once per call: prepare's normalization of each
    recording (dataset.segment_windows), training.train_fold's epoch loop,
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
