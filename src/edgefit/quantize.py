"""Post-training 8-bit quantization and the integer-only inference path.

Scheme: symmetric per-output-channel int8 weights, asymmetric per-tensor
int8 activations, int32 biases at scale s_in*s_w. Each layer rescales its
int32 accumulator to the next activation's int8 grid with a fixed-point
multiplier M0 in [2^30, 2^31) and a right shift n, so every value between
the input quantization and the final logit dequantization is an integer.
Tensor quantization rounds half away from zero; the accumulator rescale
rounds half up (add 2^(shift-1), then arithmetic right shift).

The conv and head GEMMs run through BLAS in float32 or float64 (numpy has
no BLAS kernel for integers) and still return the exact integer products.
Every operand is an integer: weights lie in [-128, 127] and so do the
activations q, which the GEMMs multiply as they are; the input zero point
enters through the constants instead (below). Every partial sum the GEMM
forms, in whatever order it adds, is then an integer of magnitude at most
fan_in * 128 * 128, below the bound fan_in * 128 * 255 of the
zero-point-shifted operand q - zp in [-255, 255] that _gemm_dtype and the
accumulator check use (zero points lie in [-128, 127]; check_quant_invariants
enforces it, also on load). float32 represents every integer up to 2^24
exactly, float64 every one up to 2^53, so no sum ever rounds. Each conv
takes float32 when that bound is below 2^24 (every conv at width 52:
fan_in 156 gives 5.09 M) and float64 otherwise; the head always takes
float64 (at width 52, fan_in 2080 gives 67.9 M). quantize_model and
check_quant_invariants reject any layer whose worst case plus its largest
bias reaches 2^31, far below 2^53. The products are cast back to integers
before anything is added, so the accumulators equal those of an int32 GEMM
bit for bit. The convs lower through kernels.conv1d, the one conv lowering
of the package.

The input zero point is folded as integer-only inference does (Jacob et
al., CVPR 2018): sum_t w*(q - zp) = sum_t w*q - zp*sum_t w, where the
sums run over the taps inside the window, since the zero borders of a
conv's operand stand for the real value 0 and add nothing. At output
position l of a conv with pad (K-1)/2, the taps t with 0 <= l+t-pad < L
count, so the folded term varies over l at the borders. It stays exact:
|bias_q - zp*sum w| <= |bias_q| + fan_in*128*128 < 2^31 by the
accumulator check, and the accumulator of q plus that bias equals the
accumulator of q - zp plus bias_q.

The model, QuantModel, holds exactly what an EFQ3 file holds, which is
what a microcontroller runtime stores (TensorFlow Lite Micro): one QLayer
per conv and for the head, with the int8 weights, their per-channel scales
and the int32 biases, and one table, specs, of a (scale, zero point) per
activation: the input, each conv's output and each residual add's output.
The table is keyed and ordered by model.activation_names: calibrate ranges
each activation under its name, quantize_model reads that range, the EFQ3
file stores its spec and the int8 trace records it under that name. A
conv reads the activation its model.topology record names and fuses a
ReLU unless the record names an add; the head reads the last activation.
quantize_model, load and _layout each walk that table. The fixed-point
multipliers are not stored: like each TFLM kernel's Prepare, the walk
derives every M0 and n with quantize_multiplier, in one call over each
conv's channel vector s_in*s_w/s_out and one over each add's s_a/s_out,
s_h/s_out.

The walk. _layout, which check_quant_invariants, quantize_model (through
it) and load run, checks every invariant check_quant_invariants lists:
each spec's zero point and scale, each multiplier's shift, each layer's
worst-case accumulator and the head's weight scales. It builds no plan
constant: a step it returns holds its layer, its specs' zero points and
its M0 and n vectors, and the arrays the plan runs on are cached
properties of the step, built at the plan's first run (below), so a
quantize or a load that never runs the model pays for none of them.

The plan. qforward_batch runs a QuantPlan, built at the model's first
qforward_batch and kept on it (QuantModel.plan), over blocks of
kernels.BLOCK windows, as a microcontroller runtime plans its tensor arena
before the first inference (TensorFlow Lite Micro). Its constants are
built at its first run, from the model's arrays at that moment; the plan
then holds:

- each conv's weights in its GEMM dtype and three contiguous int64
  (C_out, L) rows: M0 and the total shift 31 + n, each channel's value
  repeated over the window, and the offset
  (bias_q - zp_in*sum_{t: 0 <= l+t-pad < L} sum_c w_q[o, c, t])*M0
  + 2^(30+n), which adds the bias, the input zero point's term and the
  rounding term in one step (CMSIS-NN's fused output stage). Every
  requantization pass then runs as one C_out*L loop per window. The
  accumulator bound keeps the offset below 2^62 + 2^61, and acc*M0 plus
  it, within int64;
- each residual add's multipliers, with the input zero points folded into
  the rounding terms, and its table: the add's output depends on its two
  int8 operands alone, so the plan rescales, sums and saturates all
  65,536 pairs once, and a block looks each output up at (a as uint8) << 8
  | (h as uint8); the head's weights transposed in float64 and its int32
  biases bias_q - zp_in*sum_n w_q[c, n];
- two float64 work arrays of the input for kernels.BLOCK windows, in
  which quantize_input divides, clamps and rounds;
- scratch arrays for kernels.BLOCK windows, one per shape and dtype, that
  every step of that shape shares: the GEMM operand with its zero
  borders, the patches, the GEMM output, the int64 accumulators (on a
  64-bit host, the adds' intp table indices share them) and the adds'
  two uint16 index arrays;
- one int8 arena of arena_bytes per window. The input, each block's skip
  and every conv's input and output are views into it at planned offsets:
  slot 0 holds the stem output and every block's input and output, the
  convs of a block alternate between slots 1 and 2, and the input and the
  head's int32 accumulators sit above slot 0, where slots 1 and 2 are dead
  while they live. arena_bytes is count_macs().peak_activation_bytes,
  6,240 B at width 52, the RAM figure the paper reports. A block of b
  windows places each operand at its offset times b in the flattened
  arena, so every operand is one contiguous (b, C, L) array.

At width 52 a plan holds 2.78 MB: 0.50 MB of conv rows, 192 KB of add
tables, 0.49 MB of GEMM-ready weights, 1.41 MB of scratch, 70 KB of
input work arrays and a 98 KB arena.

A conv copies q into its GEMM operand's interior, a plain cast to the
operand's dtype, runs kernels.conv1d on the operand, zero borders
included, into its scratch arrays, and requantizes the accumulators in
place into its output slot with _rescale and _saturate: (acc*M0 +
offset) >> (31+n), which is (acc + bias_q)*M0 / 2^(31+n) of the shifted
operand rounded half up, plus the output zero point. An add makes five
passes over its operands: a's byte into a uint16 array, the shift, h's
byte into the second, the OR and one copy into the intp index; then
np.take writes the lookup in place into its contiguous output. A block
allocates only the input's finiteness mask and the iterator buffer of
_rescale's (C_out, L)-row passes: under tracemalloc, at width 52, a
steady call of 16 windows peaks at 51 KB, one of 8 windows at 51 KB and
one window at 2 KB; a conv step allocates 50 KB, _rescale's buffer, and
an add nothing: a uint8 operand of a uint16 or intp ufunc would be cast
through a buffer.

The plan is laid out by _layout and builds its constants at its first
run, in the same qforward_batch call, so it checks the model and derives
its constants once, from the model's arrays at that moment: edit no
array of a model after its first inference (save and load it, or
quantize again, to get a new plan). It
runs in its own arrays, so two threads must not run one model at once.
A copy or a pickle of a model carries no plan (its views would not alias
the copied arena) and lays out its own at its first call, from the
copy's arrays at that moment.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container, kernels
from .dataset import Window
from .errors import (
    AccumulatorOverflow,
    EmptyCalibrationSet,
    EmptyTestSet,
    InvalidConfig,
    MissingCalibration,
    RequantRangeError,
    ShapeMismatch,
)
from .model import (
    ModelConfig,
    ModelParams,
    activation_names,
    config_from_meta,
    fold_batchnorm,
    forward_batch,
    topology,
)
from .training import _stack, metrics_from_logits

QMIN, QMAX = -128, 127
RANGE_FLOOR = 1e-3      # minimum activation range width
WEIGHT_SCALE_FLOOR = 1e-12
INT32_LIMIT = 2 ** 31

QUANT_MAGIC = b"EFQ3"

# the arrays of a QLayer with their EFQ3 dtypes
_LAYER_TENSORS = (("w_q", "|i1"), ("w_scale", "<f4"), ("bias_q", "<i4"))


@dataclass(frozen=True)
class QuantSpec:
    """Affine int8 mapping: real = scale * (q - zero_point)."""

    scale: float
    zero_point: int


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero, as int64."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)


def quantize_tensor(w: np.ndarray, floor: np.ndarray | float = 0.0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Quantize a float weight tensor to symmetric int8 per output channel
    (axis 0): scale = max|w| / 127 over the channel, raised to floor (one
    per channel, or one for all) and to WEIGHT_SCALE_FLOOR, so an all-zero
    channel gets a positive scale instead of an error; zero point 0.
    Returns the int8 values and the (C_out,) float32 scales.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise InvalidConfig("cannot quantize non-finite tensor")
    scale = np.abs(w).max(axis=tuple(range(1, w.ndim)))
    scale = np.maximum(np.maximum(scale / QMAX, floor),
                       WEIGHT_SCALE_FLOOR).astype(np.float32)
    q = round_half_away(w / scale.astype(np.float64).reshape(
        -1, *[1] * (w.ndim - 1)))
    return np.clip(q, QMIN, QMAX).astype(np.int8), scale


def activation_spec(lo: float, hi: float) -> QuantSpec:
    """Affine spec over [lo, hi], widened to include 0 and floored in width."""
    lo = min(lo, 0.0)
    hi = max(hi, 0.0)
    if hi - lo < RANGE_FLOOR:
        hi = lo + RANGE_FLOOR
    scale = float(np.float32((hi - lo) / (QMAX - QMIN)))
    zp = int(round_half_away(np.array(QMIN - lo / scale)))
    return QuantSpec(scale=scale, zero_point=int(np.clip(zp, QMIN, QMAX)))


@dataclass
class CalibStats:
    """Observed activation ranges (lo, hi) by name, each widened to include
    0, so that zero is always representable: lo <= 0 <= hi."""

    ranges: dict[str, tuple[float, float]]

    def update(self, name: str, arr: np.ndarray) -> None:
        """Widen name's range to arr's min and max."""
        self.widen(name, float(arr.min()), float(arr.max()))

    def widen(self, name: str, lo: float, hi: float) -> None:
        """Widen name's range to [lo, hi] and to 0."""
        lo, hi = min(lo, 0.0), max(hi, 0.0)
        if name in self.ranges:
            old_lo, old_hi = self.ranges[name]
            lo, hi = min(lo, old_lo), max(hi, old_hi)
        self.ranges[name] = (lo, hi)

    def range_of(self, name: str) -> tuple[float, float]:
        if name not in self.ranges:
            raise MissingCalibration(name)
        return self.ranges[name]


def calibrate(folded: ModelParams, calib: list[Window]) -> CalibStats:
    """Record the range of every activation of the folded float model,
    keyed by its name in activation_names: its min and max over calib,
    widened to include 0 (CalibStats).

    The windows run through one forward_batch call, whose capture
    callback ranges each activation of each block of kernels.BLOCK
    windows in the view forward_batch passes, which may be a pad buffer's
    strided interior; a reduction reads it in place, whatever its strides.
    The activations that come out of a ReLU, each conv's or add's
    {name}.out in model.topology, are never negative, so their low end is
    the 0 every range is widened to and only their max is taken; the
    others, the input and the block's last convs before the add, take a
    min and a max. Every activation is batch-invariant (see
    forward_batch), so every range equals a one-window-at-a-time run's bit
    for bit and depends on the set of windows alone."""
    if not folded.bn_folded:
        raise InvalidConfig("calibrate expects a BN-folded model")
    if not calib:
        raise EmptyCalibrationSet("calibration set is empty")
    stats = CalibStats(ranges={})
    relu_outputs = {f"{conv.add or conv.name}.out"
                    for conv in topology(folded.config)}

    def capture(name: str, arr: np.ndarray) -> None:
        if name in relu_outputs:
            stats.widen(name, 0.0, float(arr.max()))
        else:
            stats.update(name, arr)

    x = np.stack([w.data for w in calib])
    forward_batch(folded, x.astype(np.float32, copy=False), capture=capture)
    return stats


# ---------------------------------------------------------------------------
# fixed-point requantization
# ---------------------------------------------------------------------------

def quantize_multiplier(ratio, name: str = "multiplier"
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Express each scale ratio, a float or an array of them (one per
    channel), as M0 * 2^-(31+n) with M0 in [2^30, 2^31) and n in [-30, 31],
    since _rescale shifts an int64 by 31 + n bits. Returns M0 and n as
    int64 of ratio's shape; raises RequantRangeError, naming the layer name
    and the first ratio in C order that is not finite and positive or needs
    another shift.

    n is negative for ratios >= 1 (the residual add can need that); the
    representation is exact to within half an ulp of M0.
    """
    ratio = np.asarray(ratio, dtype=np.float64)
    valid = (ratio > 0) & (ratio < math.inf)
    # ratio = mantissa * 2^exponent, mantissa in [0.5, 1); scaling it by
    # 2^31 is exact, and rint rounds half to even as round() does
    mantissa, exponent = np.frexp(np.where(valid, ratio, 1.0))
    m0 = np.rint(np.ldexp(mantissa, 31)).astype(np.int64)
    carry = m0 == 1 << 31
    m0 >>= carry
    n = -exponent.astype(np.int64) - carry
    bad = ~valid | (n < -30) | (n > 31)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        r = float(ratio.flat[i])
        if not valid.flat[i]:
            raise RequantRangeError(
                f"{name}: scale ratio must be finite and positive, got {r}")
        raise RequantRangeError(f"{name}: scale ratio {r} needs shift "
                                f"{int(n.flat[i])}, outside [-30, 31]")
    return m0, n


def _rescale(x: np.ndarray, m0, offset, shift, out: np.ndarray | None = None
             ) -> np.ndarray:
    """(x*M0 + offset) >> shift as int64, into out (x itself allowed) when
    given. With offset 2^(shift-1) this rounds x*M0 / 2^shift half up."""
    t = np.multiply(x, m0, out=out)
    t += offset
    t >>= shift
    return t


def _saturate(value: np.ndarray, low: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """Clamp the int64 array value to [low, 127] in place and return it as
    int8, written into out when given."""
    np.maximum(value, low, out=value)
    np.minimum(value, QMAX, out=value)
    if out is None:
        return value.astype(np.int8)
    # a plain cast, faster than a minimum that casts into out
    np.copyto(out, value, casting="unsafe")
    return out


# ---------------------------------------------------------------------------
# quantized model
# ---------------------------------------------------------------------------

@dataclass
class QLayer:
    """A conv's or the head's tensors, as EFQ3 stores them."""

    w_q: np.ndarray           # (C_out, C_in, K), or (classes, N) for the head
    w_scale: np.ndarray       # (C_out,) float32
    bias_q: np.ndarray        # (C_out,) int32


@dataclass
class QuantModel:
    config: ModelConfig
    # one spec per activation, keyed and ordered by activation_names(config)
    specs: dict[str, QuantSpec]
    convs: list[QLayer]       # one per record of topology(config), in order
    head: QLayer
    # built by the first qforward_batch (see the module docstring)
    plan: QuantPlan | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # a plan's views alias its own arena and scratch, which no copy or
        # pickle of them would: a copy builds its own plan at its first call
        return {**self.__dict__, "plan": None}

    def layers(self):
        """(name, QLayer) for every conv, named as in
        ModelParams.conv_layers, and then ("head", head)."""
        names = [conv.name for conv in topology(self.config)] + ["head"]
        return zip(names, self.convs + [self.head])


def _check_accumulator(name: str, fan_in: int, bias_q: np.ndarray) -> None:
    """Raise AccumulatorOverflow unless the worst-case accumulator of a
    layer, fan_in*128*255 + max|bias_q| (int8 weights against q - zp in
    [-255, 255]), fits int32."""
    worst = fan_in * 128 * 255 + int(np.abs(bias_q.astype(np.int64)).max(
        initial=0))
    if worst >= INT32_LIMIT:
        raise AccumulatorOverflow(
            f"{name}: worst-case accumulator {worst} does not fit int32")


def _checked(name: str, spec: QuantSpec) -> QuantSpec:
    """spec, once its zero point is known to lie in the int8 range (the
    exact float GEMM bound assumes |q - zero_point| <= 255) and its scale
    to be finite and positive."""
    if not QMIN <= spec.zero_point <= QMAX:
        raise AccumulatorOverflow(f"{name}: zero point {spec.zero_point} "
                                  f"outside [{QMIN}, {QMAX}]")
    if not 0 < spec.scale < math.inf:
        raise RequantRangeError(f"{name}: scale {spec.scale}")
    return spec


def _quantize_weights(name: str, w: np.ndarray, b: np.ndarray, s_in: float,
                      floor: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int8 weights, their per-channel scales and the int32 biases at
    s_in*s_w of a conv or the head reading an activation of scale s_in.

    Each channel's weight scale is raised to floor and to the least one
    that keeps its quantized bias b / (s_in*s_w) within 2^30. That matters
    only for a channel whose weights are (nearly) all zero."""
    b = b.astype(np.float64)
    w_q, w_scale = quantize_tensor(
        w, floor=np.maximum(np.abs(b) / (s_in * 2.0 ** 30), floor))
    bias_real = b / (s_in * w_scale.astype(np.float64))
    if not np.all(np.isfinite(bias_real)):
        raise AccumulatorOverflow(f"{name}: quantized bias exceeds int32")
    bias_q = round_half_away(bias_real)
    _check_accumulator(name, w[0].size, bias_q)
    return w_q, w_scale, bias_q.astype(np.int32)


def _quantize_conv(name: str, w: np.ndarray, b: np.ndarray,
                   in_spec: QuantSpec, out_spec: QuantSpec) -> QLayer:
    # the floor keeps the multiplier's scale ratio s_in * s_w / s_out at
    # or above 2^-31, so its shift n <= 30
    w_q, w_scale, bias_q = _quantize_weights(
        name, w, b, in_spec.scale,
        floor=out_spec.scale / (in_spec.scale * 2.0 ** 31))
    # the bias floor fits every finite bias into int32, but once |b|
    # reaches s_out * 2^60 the scale it takes needs a multiplier shift
    # n < -30
    if np.any(in_spec.scale * w_scale.astype(np.float64) / out_spec.scale
              >= 2.0 ** 30):
        raise AccumulatorOverflow(f"{name}: quantized bias exceeds int32 at "
                                  f"every scale the multiplier can express")
    return QLayer(w_q, w_scale, bias_q)


def quantize_model(folded: ModelParams, stats: CalibStats) -> QuantModel:
    """Build the int8 model from a folded float model and the range of
    every activation in activation_names; it passes check_quant_invariants,
    so its plan can be laid out."""
    if not folded.bn_folded:
        raise InvalidConfig("quantize_model expects a BN-folded model")
    names = activation_names(folded.config)
    specs = {name: activation_spec(*stats.range_of(name)) for name in names}
    convs = [_quantize_conv(conv.name, layer.w, layer.b, specs[conv.reads],
                            specs[f"{conv.name}.out"])
             for conv, layer in zip(topology(folded.config), folded.convs)]
    head = QLayer(*_quantize_weights("head", folded.head_w, folded.head_b,
                                     specs[names[-1]].scale, 0.0))
    qm = QuantModel(folded.config, specs, convs, head)
    check_quant_invariants(qm)
    return qm


def post_training_quantize(params: ModelParams, pool: list[Window],
                           calib_size: int, seed: int
                           ) -> tuple[QuantModel, int]:
    """The quantize stage of one fold: fold params' BN, calibrate on n =
    min(calib_size, len(pool)) windows drawn from pool without replacement
    by default_rng(seed), kept in pool order, and quantize_model. Returns
    the int8 model and n.

    The fold and the calibration run inside kernels.float_checked, so
    finite weights or windows that overflow them raise NonFiniteInput; an
    empty pool raises calibrate's EmptyCalibrationSet. The draw depends on
    len(pool), calib_size and seed alone, so equal arguments give equal
    EFQ3 bytes."""
    n = min(calib_size, len(pool))
    idx = np.random.default_rng(seed).choice(len(pool), n, replace=False)
    with kernels.float_checked("BN fold and calibration"):
        folded = fold_batchnorm(params)
        stats = calibrate(folded, [pool[i] for i in sorted(idx)])
    return quantize_model(folded, stats), n


# ---------------------------------------------------------------------------
# integer inference
# ---------------------------------------------------------------------------

def _note(trace, name, arr):
    if trace is not None:
        trace.append((name, str(arr.dtype)))


def _gemm_dtype(fan_in: int) -> type:
    """Narrowest float type whose GEMM gives exact integer results for
    int8 weights against zero-point-shifted int8 inputs q - zp over fan_in
    terms, |sum| <= fan_in*128*255. The plan's GEMMs multiply q itself,
    whose sums stay within fan_in*128*128, so the bound holds for them
    too."""
    return np.float32 if fan_in * 128 * 255 < 2 ** 24 else np.float64


def quantize_input(spec: QuantSpec, x: np.ndarray,
                   out: np.ndarray | None = None,
                   work: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> np.ndarray:
    """Float windows to int8 on spec's grid, rounding half away from zero;
    written into out when given. Raises NonFiniteInput for NaN or Inf.
    work, when given, is two float64 arrays of x's shape that the quotient
    and its rounding term are computed in, so that the call allocates
    nothing but the finiteness check's mask; without it they are
    allocated.

    x/scale is clamped in float64 to [-128 - zp, 127 - zp] before the
    integer cast: rounding keeps a value between two integers between
    them, so the result is that of rounding and then saturating, and no
    value too large for int64 reaches the cast. A finite x whose quotient
    overflows to +-inf saturates the same way, without a warning. The
    rounding is trunc(v + copysign(0.5, v)), the bits of round_half_away:
    the sum is sign-symmetric, so it rounds as |v| + 0.5 does."""
    kernels.check_finite(x, "int8 input")
    zp = spec.zero_point
    v, half = (np.empty(x.shape), np.empty(x.shape)) if work is None else work
    # a plain cast, then the quotient in place: a float32 x divided into
    # float64 would be cast through a buffer
    np.copyto(v, x)
    with np.errstate(over="ignore"):
        np.divide(v, spec.scale, out=v)
    np.maximum(v, QMIN - zp, out=v)
    np.minimum(v, QMAX - zp, out=v)
    v += np.copysign(0.5, v, out=half)
    np.trunc(v, out=v)
    # every value is now an integer in [-128, 127] less zp
    v += zp
    if out is None:
        return v.astype(np.int8)
    np.copyto(out, v, casting="unsafe")
    return out


@dataclass(frozen=True)
class _ConvStep:
    """One conv as the plan runs it: x (B, C_in, L) int8 -> y (B, C_out, L)
    int8 through the scratch arrays of its layer shape. The walk builds it
    from the layer and the per-channel M0 and n; the arrays it runs on are
    cached properties, built at the plan's first run of the step."""

    acc_name: str             # the trace's names: {conv}.acc, {conv}.out
    out_name: str
    layer: QLayer
    in_zp: int
    multiplier: tuple[np.ndarray, np.ndarray]     # (C_out,) int64 M0, n
    out_zp: int
    low: int                  # the output zero point under a fused ReLU
    length: int

    @classmethod
    def of(cls, name: str, layer: QLayer, in_spec: QuantSpec,
           out_spec: QuantSpec, relu: bool, length: int) -> _ConvStep:
        """The step of the conv name reading an activation of length L on
        in_spec's grid into out_spec's, with M0 and n per channel from
        s_in*s_w/s_out and, if relu, a fused ReLU; a weight scale that is
        not finite and positive makes its ratio so."""
        _, c_in, k = layer.w_q.shape
        _check_accumulator(name, c_in * k, layer.bias_q)
        out_name = f"{name}.out"
        out = _checked(out_name, out_spec)
        ratios = in_spec.scale * layer.w_scale.astype(np.float64) / out.scale
        return cls(f"{name}.acc", out_name, layer, in_spec.zero_point,
                   quantize_multiplier(ratios, name), out.zero_point,
                   out.zero_point if relu else QMIN, length)

    @property
    def dtype(self) -> type:
        return _gemm_dtype(self.layer.w_q[0].size)

    @functools.cached_property
    def w(self) -> np.ndarray:
        """(C_out, C_in, K) in the layer's GEMM dtype."""
        return self.layer.w_q.astype(self.dtype)

    # per-element (C_out, L) int64 rows, so that every requantization pass
    # runs as one C_out*L loop per window: M0 and 31 + n repeat each
    # channel's value over L; the offset varies at the borders
    @functools.cached_property
    def m0(self) -> np.ndarray:
        return kernels.channel_rows(self.multiplier[0], self.length)

    @functools.cached_property
    def shift(self) -> np.ndarray:
        return kernels.channel_rows(self.multiplier[1] + 31, self.length)

    @functools.cached_property
    def offset(self) -> np.ndarray:
        """(bias_q - zp_in * the weights on the taps inside the window at
        l)*M0 + 2^(30+n)."""
        w, length = self.w, self.length
        c_out, c_in, k = w.shape
        m0, shift_n = self.multiplier
        # the GEMM multiplies q, not q - zp, so the offset subtracts zp
        # times the sum of the weights on the taps inside the window at l:
        # the GEMM of a window of ones, whose zero borders drop the others,
        # exact as the GEMM of any int8 window is
        tap = np.arange(k)[:, None] + np.arange(length) - (k - 1) // 2
        ones = np.tile((tap >= 0) & (tap < length), (c_in, 1)).astype(w.dtype)
        taps = (w.reshape(c_out, -1) @ ones).astype(np.int64)
        # |bias_q - zp*taps| <= |bias_q| + fan_in*128*128 < 2^31 and M0 <
        # 2^31 bound its product by 2^62, and n <= 31 the rounding term by
        # 2^61: the offset stays within int64, and acc*M0 plus it equals
        # (acc + bias_q)*M0 + 2^(30+n) of the zero-point-shifted operand
        return ((self.layer.bias_q.astype(np.int64)[:, None]
                 - self.in_zp * taps) * m0[:, None]
                + np.left_shift(np.int64(1), shift_n + 30)[:, None])

    def scratch(self, take, length: int) -> tuple[np.ndarray, ...]:
        """(padded, its interior, patches, GEMM output, int64 accumulators),
        each from take(shape, dtype, tag) as in QuantPlan. The padded
        buffer, zero-filled, is shared only with convs of its shape, which
        all write its interior alone, so its borders stay zero."""
        c_out, c_in, k = self.layer.w_q.shape
        padded = take((c_in, length + k - 1), self.dtype, "padded")
        return (padded, kernels.interior(padded, k),
                take((c_in * k, length), self.dtype),
                take((c_out, length), self.dtype),
                take((c_out, length), np.int64))

    def run(self, x, y, padded, interior, patches, gemm, acc, trace) -> None:
        # a plain cast of q: the offset carries the input zero point
        np.copyto(interior, x)
        kernels.conv1d(padded, self.w, gemm, patches=patches)
        acc[...] = gemm
        _note(trace, self.acc_name, acc)
        # (acc + bias_q)*M0 / 2^(31+n) rounded half up, as offset folds it
        _rescale(acc, self.m0, self.offset, self.shift, out=acc)
        acc += self.out_zp
        _saturate(acc, self.low, out=y)
        _note(trace, self.out_name, y)


@dataclass(frozen=True)
class _AddStep:
    """The residual merge: each addend (q - zp)*M0 rescaled with the zero
    point folded into its offset, 2^(s-1) - zp*M0, then summed and
    saturated with the fused ReLU's floor at the output zero point. The
    output depends on the two int8 operands alone, so the plan runs it as
    a lookup in table, at an index built in uint16 scratch from the two
    operands' bytes by plain casts and same-type passes and copied once
    into the intp array np.take reads."""

    out_name: str             # {add}.out
    a: tuple[np.int64, np.int64, np.int64]     # block input: M0, offset, s
    h: tuple[np.int64, np.int64, np.int64]     # last conv output
    out_zp: int
    channels: int

    @classmethod
    def of(cls, name: str, a: QuantSpec, h: QuantSpec, out: QuantSpec,
           channels: int) -> _AddStep:
        """The add name of the block input on a's grid and the last conv
        output on h's into out, with M0 and n from s_a/s_out and s_h/s_out."""
        out_name = f"{name}.out"
        out = _checked(out_name, out)
        m0, n = quantize_multiplier([a.scale / out.scale, h.scale / out.scale],
                                    name)
        s = 31 + n
        offset = (1 << (s - 1)) - np.array([a.zero_point, h.zero_point]) * m0
        return cls(out_name, *zip(m0, offset, s), out.zero_point, channels)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The (65536,) int8 output of every operand pair, at index
        (a as uint8) << 8 | (h as uint8). Built at the plan's first add,
        never by _layout's walk, which every quantize and load repeats."""
        byte = np.arange(256, dtype=np.uint8).view(np.int8).astype(np.int64)
        total = _rescale(byte, *self.a)[:, None] + _rescale(byte, *self.h)
        total += self.out_zp
        return _saturate(total, self.out_zp).ravel()

    def scratch(self, take, length: int) -> tuple[np.ndarray, ...]:
        # two uint16 arrays for the index and the intp one np.take wants:
        # any other index type makes it copy
        shape = (self.channels, length)
        return (take(shape, np.uint16), take(shape, np.uint16),
                take(shape, np.intp))

    def run(self, a, h, y, pair, low, index, trace) -> None:
        # plain casts and passes over one type: a uint8 operand of a
        # uint16 ufunc would be cast through a buffer
        np.copyto(pair, a.view(np.uint8))
        pair <<= 8
        np.copyto(low, h.view(np.uint8))
        pair |= low
        np.copyto(index, pair)
        # mode="raise" would buffer y
        np.take(self.table, index, out=y, mode="clip")
        _note(trace, self.out_name, y)


@dataclass(frozen=True)
class _HeadStep:
    """The dense head: int32 accumulators of a float64 GEMM, then the one
    float step, the logit dequantization. Its GEMM operands are cached
    properties, built at the plan's first run."""

    layer: QLayer
    in_zp: int
    scale: np.ndarray         # (classes,) float64: s_in * s_w

    @classmethod
    def of(cls, head: QLayer, in_spec: QuantSpec) -> _HeadStep:
        _check_accumulator("head", head.w_q.shape[1], head.bias_q)
        scale = in_spec.scale * head.w_scale.astype(np.float64)
        # |acc| < 2^31, so every logit is then a finite float32
        if not np.all((head.w_scale > 0)
                      & (scale * 2.0 ** 31 < np.finfo(np.float32).max)):
            raise RequantRangeError("head: weight scales must be positive and "
                                    "keep s_in*s_w*2^31 below float32's max")
        return cls(head, in_spec.zero_point, scale)

    @functools.cached_property
    def w_t(self) -> np.ndarray:
        """(N, classes) float64."""
        return self.layer.w_q.T.astype(np.float64)

    @functools.cached_property
    def bias(self) -> np.ndarray:
        """(classes,) int32: bias_q - zp_in * sum_n w_q, as the GEMM
        multiplies q, not q - zp; |bias| <= |bias_q| + fan_in*128*128 <
        2^31."""
        return (self.layer.bias_q.astype(np.int64) - self.in_zp
                * self.layer.w_q.sum(axis=1, dtype=np.int64)).astype(np.int32)

    def scratch(self, take, length: int) -> tuple[np.ndarray, ...]:
        classes, n = self.layer.w_q.shape
        return take((n,), np.float64), take((classes,), np.float64)

    def run(self, x, acc, operand, gemm, logits, trace) -> None:
        np.copyto(operand, x)
        np.matmul(operand, self.w_t, out=gemm)
        acc[...] = gemm
        acc += self.bias
        _note(trace, "head.acc", acc)
        np.multiply(acc, self.scale, out=logits)


def _layout(qm: QuantModel) -> list[tuple]:
    """Walk topology(qm.config) once: pass each step the specs of the
    activations it reads and writes, which checks the layer and derives its
    multipliers, and place its arena operands. Returns (step, its operands
    as (offset, shape, dtype)) in run order."""
    cfg = qm.config
    specs = qm.specs
    length = cfg.seq_len
    act = (cfg.width, length)
    slot = [0, cfg.width * length, 2 * cfg.width * length]
    convs = topology(cfg)
    starts = {conv.skip for conv in convs}
    # slot 0 holds every block's input, which its add reads, and the
    # head's: every add writes there, as does a conv without an add whose
    # output the next conv starts a block from. The other convs alternate
    # between slots 1 and 2; the input sits above slot 0 and dies once
    # the stem has run.
    _checked("input", specs["input"])
    src, layout = slot[1], []
    for i, (conv, layer) in enumerate(zip(convs, qm.convs)):
        out = f"{conv.name}.out"
        dst = (0 if conv.add is None and i + 1 in starts
               else slot[2] if src == slot[1] else slot[1])
        layout.append((_ConvStep.of(conv.name, layer, specs[conv.reads],
                                    specs[out], conv.add is None, length),
                       [(src, (conv.in_channels, length), np.int8),
                        (dst, act, np.int8)]))
        if conv.add is not None:
            layout.append((_AddStep.of(
                conv.add, specs[convs[conv.skip].reads], specs[out],
                specs[f"{conv.add}.out"], cfg.width),
                [(0, act, np.int8), (dst, act, np.int8), (0, act, np.int8)]))
        src = dst if conv.add is None else 0
    # the head reads slot 0 and keeps its int32 accumulators above it
    layout.append((_HeadStep.of(qm.head, specs[activation_names(cfg)[-1]]), [
        (0, (cfg.width * length,), np.int8),
        (slot[1], (cfg.classes,), np.int32)]))
    return layout


class QuantPlan:
    """The integer network laid out once: GEMM-ready constants, scratch
    arrays for kernels.BLOCK windows shared by every step that takes one of
    the same shape, and one int8 activation arena of arena_bytes per window
    that holds every activation at a planned offset (see the module
    docstring)."""

    def __init__(self, qm: QuantModel):
        self.input_spec = qm.specs["input"]
        # (step, its arena operands as (offset, shape, dtype))
        self.layout = _layout(qm)
        # the stem's first operand
        self.input = self.layout[0][1][0]
        self.arena_bytes = max(
            offset + math.prod(shape) * np.dtype(dtype).itemsize
            for _, operands in self.layout for offset, shape, dtype in operands)
        self.arena = np.zeros((kernels.BLOCK, self.arena_bytes), np.int8)
        # quantize_input's quotient and rounding term
        self.work = np.zeros((2, kernels.BLOCK, *self.input[1]), np.float64)
        # the k-th array of one (tag, shape, dtype) a step takes is the
        # k-th such array of every other step: the steps run one at a time
        # and none reads what another left in its scratch
        pool: dict[tuple, np.ndarray] = {}
        self.scratch = []
        for step, _ in self.layout:
            taken: dict[tuple, int] = {}

            def take(shape, dtype, tag=""):
                key = (tag, shape, np.dtype(dtype))
                taken[key] = taken.get(key, 0) + 1
                key += (taken[key],)
                if key not in pool:
                    pool[key] = np.zeros((kernels.BLOCK, *shape), dtype)
                return pool[key]

            self.scratch.append(step.scratch(take, qm.config.seq_len))
        self._bound: dict[int, tuple] = {}

    def _bind(self, batch: int) -> tuple:
        """The arena views and scratch arrays every step takes for a block
        of batch windows: the leading rows of each scratch array, and each
        operand at its offset times batch in the flattened arena, so that
        every operand is one contiguous (batch, *shape) array."""
        arena = self.arena.reshape(-1)

        def view(offset, shape, dtype):
            start = offset * batch
            end = start + math.prod(shape) * np.dtype(dtype).itemsize * batch
            return arena[start:end].view(dtype).reshape(batch, *shape)

        calls = [(step.run, [view(*operand) for operand in operands]
                  + [a[:batch] for a in scratch])
                 for (step, operands), scratch in zip(self.layout, self.scratch)]
        bound = (view(*self.input), tuple(self.work[:, :batch]), calls[:-1],
                 calls[-1])
        self._bound[batch] = bound
        return bound

    def run(self, x: np.ndarray, logits: np.ndarray, trace=None) -> None:
        """Write the logits (b, classes) of the float windows x (b,
        in_channels, seq_len), b <= kernels.BLOCK, into logits."""
        q, work, body, (head, args) = (self._bound.get(len(x))
                                       or self._bind(len(x)))
        quantize_input(self.input_spec, x, out=q, work=work)
        _note(trace, "input", q)
        for run, operands in body:
            run(*operands, trace)
        head(*args, logits, trace)


def qforward_batch(qm: QuantModel, x: np.ndarray,
                   trace: list | None = None) -> np.ndarray:
    """Integer inference over a batch (B, in_channels, seq_len) of float
    windows; only the input quantization and the final logit dequantization
    use floating point. Builds the model's plan on its first call."""
    cfg = qm.config
    if x.ndim != 3 or x.shape[1:] != (cfg.in_channels, cfg.seq_len):
        raise ShapeMismatch(
            f"expected (B, {cfg.in_channels}, {cfg.seq_len}), got {x.shape}")
    if qm.plan is None:
        qm.plan = QuantPlan(qm)
    logits = np.empty((x.shape[0], cfg.classes), dtype=np.float32)
    for i in range(0, x.shape[0], kernels.BLOCK):
        block = slice(i, i + kernels.BLOCK)
        # every block takes the same path: the first one traces it
        qm.plan.run(x[block], logits[block], trace if i == 0 else None)
    return logits


def qforward(qm: QuantModel, x: np.ndarray,
             trace: list | None = None) -> np.ndarray:
    """Single-window integer inference -> float logits (classes,)."""
    cfg = qm.config
    if x.shape != (cfg.in_channels, cfg.seq_len):
        raise ShapeMismatch(
            f"expected ({cfg.in_channels}, {cfg.seq_len}), got {x.shape}")
    return qforward_batch(qm, x[None], trace=trace)[0]


def count_float_entries(trace: list) -> int:
    """Float-typed intermediates recorded between input quantization and
    logit dequantization; the integer path contract requires zero."""
    return sum(1 for _, dtype in trace if dtype.startswith("float"))


def evaluate_quant(qm: QuantModel, windows: list[Window]):
    """Argmax Metrics of the integer path over a window list, in one
    qforward_batch call (which runs blocks of kernels.BLOCK)."""
    if not windows:
        raise EmptyTestSet("evaluate needs at least one window")
    x, y, wt = _stack(windows)
    return metrics_from_logits(qforward_batch(qm, x), y, wt,
                               qm.config.classes)


def check_quant_invariants(qm: QuantModel) -> None:
    """Verify the fixed-point contract on every layer; raises on violation.

    Zero points must lie in the int8 range: the exact float GEMM bound
    (see the module docstring) assumes |q - zero_point| <= 255. Every
    scale, of a spec or a weight channel, must be finite and positive, and
    every scale ratio a multiplier encodes must take a shift n in [-30, 31]
    (quantize_multiplier). Every conv and the head must keep the
    worst-case accumulator that quantize_model checks within int32, which
    also keeps the plan's folded biases bias_q - zp_in*sum w within int32
    and its offsets (bias_q - zp_in*sum w)*M0 + 2^(30+n) within int64,
    and the head's s_in*s_w*2^31 must stay below float32's maximum,
    which keeps every logit finite. This is the walk that lays out the
    plan (_layout); it builds none of the plan's constants."""
    _layout(qm)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save(qm: QuantModel, path: str | Path) -> None:
    """Write an EFQ3 container (layout in edgefit.container) with the
    config as metadata and as named tensors the w_q, w_scale and bias_q of
    every conv and the head and the scale and zero point of every
    activation. Which convs fuse a ReLU follows from the architecture."""
    tensors = {f"{name}.{attr}": getattr(layer, attr).astype(dtype)
               for name, layer in qm.layers() for attr, dtype in _LAYER_TENSORS}
    for name, spec in qm.specs.items():
        tensors[f"{name}.scale"] = np.array(spec.scale, "<f4")
        tensors[f"{name}.zero_point"] = np.array(spec.zero_point, "<i4")
    container.write(path, QUANT_MAGIC,
                    {"config": dataclasses.asdict(qm.config)}, tensors)


def load(path: str | Path) -> QuantModel:
    """Read an EFQ3 file. Every tensor must have the shape the file's config
    gives it, and the model must pass check_quant_invariants."""
    contents = container.read(path, QUANT_MAGIC)
    cfg = config_from_meta(contents)
    take = contents.take
    c = cfg.width

    def layer(name, shape):
        return QLayer(*(take(f"{name}.{attr}", dtype, shape if attr == "w_q"
                             else shape[:1]) for attr, dtype in _LAYER_TENSORS))

    qm = QuantModel(
        cfg,
        {name: QuantSpec(float(take(f"{name}.scale", "<f4", ())),
                         int(take(f"{name}.zero_point", "<i4", ())))
         for name in activation_names(cfg)},
        [layer(conv.name, (c, conv.in_channels, cfg.kernel))
         for conv in topology(cfg)],
        layer("head", (cfg.classes, cfg.seq_len * c)))
    contents.finish()
    check_quant_invariants(qm)
    return qm
