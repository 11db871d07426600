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
Every operand is an integer: weights lie in [-128, 127] and the
zero-point-shifted activations q - zp in [-255, 255], since zero points
lie in [-128, 127] (check_quant_invariants enforces it, also on load).
Every partial sum the GEMM forms, in whatever order it adds, is then an
integer of magnitude at most fan_in * 128 * 255, and float32 represents
every integer up to 2^24 exactly, float64 every one up to 2^53, so no sum
ever rounds. Each conv takes float32 when that bound is below 2^24 (every
conv at width 52: fan_in 156 gives 5.09 M) and float64 otherwise; the
head always takes float64 (at width 52, fan_in 2080 gives 67.9 M).
quantize_model and check_quant_invariants reject any layer whose worst
case plus its largest bias reaches 2^31, far below 2^53. The products are
cast back to integers before anything is added, so the accumulators equal
those of an int32 GEMM bit for bit. The convs lower through
kernels.conv1d, the one conv lowering of the package.

The model, QuantModel, holds exactly what an EFQ3 file holds, which is
what a microcontroller runtime stores (TensorFlow Lite Micro): one QLayer
per conv and for the head, with the int8 weights, their per-channel scales
and the int32 biases, and one table, specs, of a (scale, zero point) per
activation: the input, each conv's output and each residual add's output.
The table is keyed and ordered by model.activation_names: calibrate ranges
each activation under its name, quantize_model reads that range, the EFQ3
file stores its spec and the int8 trace records it under that name. A
layer reads the activation just before its output in that order, and the
head reads the last one. A conv is named by its position, as in
ModelParams.conv_layers, and fuses a ReLU unless it is a block's last;
_layout is the one walk that knows this topology. The fixed-point
multipliers are not stored: like each TFLM kernel's Prepare, the plan
derives every M0 and n with quantize_multiplier when it lays the network
out, from s_in*s_w/s_out per conv channel and s_a/s_out, s_h/s_out per
add.

The plan. qforward_batch runs a QuantPlan, built at the model's first
qforward_batch and kept on it (QuantModel.plan), over blocks of
BLOCK_WINDOWS windows, as a microcontroller runtime plans its tensor arena
before the first inference (TensorFlow Lite Micro). The plan holds:

- each conv's weights in its GEMM dtype and three contiguous int64
  (C_out, L) rows, each channel's value repeated over the window: M0, the
  total shift 31 + n, and bias_q*M0 + 2^(30+n), which adds the bias and
  the rounding term in one step (CMSIS-NN's fused output stage). Every
  requantization pass then runs as one C_out*L loop per window. The
  accumulator bound keeps the offset, and acc*M0 plus it, within int64;
- each residual add's multipliers, with the input zero points folded into
  the rounding terms, and its table: the add's output depends on its two
  int8 operands alone, so the plan rescales, sums and saturates all
  65,536 pairs once, and a block looks each output up at (a as uint8) << 8
  | (h as uint8); the head's weights transposed in float64;
- scratch arrays for BLOCK_WINDOWS windows, one per shape and dtype, that
  every step of that shape shares: the GEMM operand with its zero
  borders, the patches, the GEMM output and the int64 accumulators (on a
  64-bit host, the adds' intp table indices share them);
- one int8 arena of arena_bytes per window. The input, each block's skip
  and every conv's input and output are views into it at planned offsets:
  slot 0 holds the stem output and every block's input and output, the
  convs of a block alternate between slots 1 and 2, and the input and the
  head's int32 accumulators sit above slot 0, where slots 1 and 2 are dead
  while they live. arena_bytes is count_macs().peak_activation_bytes,
  6,240 B at width 52, the RAM figure the paper reports.

At width 52 a plan holds 1.88 MB: 0.50 MB of conv rows, 192 KB of add
tables, 0.49 MB of GEMM-ready weights, 0.64 MB of scratch and a 49 KB
arena.

A conv writes q - zp into its GEMM operand's interior in the operand's
dtype, runs kernels.conv1d on the operand, zero borders included, into
its scratch arrays, and requantizes the accumulators in place into its
output slot with _rescale and _saturate, the arithmetic of
_requantize_array. An add makes three passes: the index, its low byte and
the lookup. A block allocates only the input quantization's temporaries,
numpy's casting buffers and, for more than one window, the copy np.take
writes back into the strided arena: at width 52 a steady call of 8
windows peaks at 55 KB of allocations (468 KB before the plan), and one
window at 19 KB.

The plan is laid out by _layout, the walk check_quant_invariants runs, so
it derives the multipliers and checks the model once, from the model's
arrays at that moment: edit no array of a model after its first
inference (save and load it, or quantize again, to get a new plan). It
runs in its own arrays, so two threads must not run one model at once.
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
    forward_batch,
)
from .training import _stack, metrics_from_logits

QMIN, QMAX = -128, 127
RANGE_FLOOR = 1e-3      # minimum activation range width
WEIGHT_SCALE_FLOOR = 1e-12
INT32_LIMIT = 2 ** 31
CALIB_BLOCK = 64        # windows per forward_batch call in calibrate

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
    """Observed activation ranges, widened so zero is always representable."""

    ranges: dict[str, tuple[float, float]]

    def update(self, name: str, arr: np.ndarray) -> None:
        lo = min(float(arr.min()), 0.0)
        hi = max(float(arr.max()), 0.0)
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
    keyed by its name in activation_names.

    The windows run through forward_batch in chunks of CALIB_BLOCK, whose
    capture callback is CalibStats.update: it ranges each activation of
    each block of kernels.BLOCK windows while the block's contiguous
    buffer holds it. Every activation is batch-invariant (kernels.conv1d
    runs one GEMM per window and the other layers are elementwise), so
    every range equals a one-window-at-a-time run's bit for bit and
    depends on the set of windows alone."""
    if not folded.bn_folded:
        raise InvalidConfig("calibrate expects a BN-folded model")
    if not calib:
        raise EmptyCalibrationSet("calibration set is empty")
    stats = CalibStats(ranges={})
    for i in range(0, len(calib), CALIB_BLOCK):
        x = np.stack([w.data for w in calib[i:i + CALIB_BLOCK]])
        forward_batch(folded, x.astype(np.float32, copy=False),
                      capture=stats.update)
    return stats


# ---------------------------------------------------------------------------
# fixed-point requantization
# ---------------------------------------------------------------------------

def quantize_multiplier(ratio: float, name: str = "multiplier"
                        ) -> tuple[int, int]:
    """Express ratio as M0 * 2^-(31+n) with M0 in [2^30, 2^31) and n in
    [-30, 31], since _rescale shifts an int64 by 31 + n bits; raises
    RequantRangeError, naming the layer name, for any other ratio.

    n is negative for ratios >= 1 (the residual add can need that); the
    representation is exact to within half an ulp of M0.
    """
    if not (ratio > 0 and math.isfinite(ratio)):
        raise RequantRangeError(
            f"{name}: scale ratio must be finite and positive, got {ratio}")
    mantissa, exponent = math.frexp(ratio)     # ratio = mantissa * 2^exponent
    m0 = round(mantissa * (1 << 31))
    if m0 == (1 << 31):
        m0 >>= 1
        exponent += 1
    n = -exponent
    if not -30 <= n <= 31:
        raise RequantRangeError(f"{name}: scale ratio {ratio} needs shift "
                                f"{n}, outside [-30, 31]")
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


def _requantize_array(acc: np.ndarray, m0, shift_n, zero_point_out: int
                      ) -> np.ndarray:
    """Vectorized requantize: round-half-up of acc*M0 / 2^(31+n), plus
    zero_point_out, saturated to [-128, 127] as int8. acc is int64 and m0
    and shift_n broadcast against it as int64; acc is left as is. The
    plan's conv step runs the same _rescale and _saturate on constants it
    derived once: the total shift 31 + n and the rounding term with the
    bias folded in, saturating at its zero point under a fused ReLU."""
    shift = shift_n + 31
    value = _rescale(acc, m0, np.left_shift(np.int64(1), shift - 1), shift)
    value += zero_point_out
    return _saturate(value, QMIN)


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
    stem: QLayer
    blocks: list[list[QLayer]]
    head: QLayer
    # built by the first qforward_batch (see the module docstring)
    plan: QuantPlan | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def layers(self):
        """Yield (name, QLayer) for every conv, named as in
        ModelParams.conv_layers, and then ("head", head)."""
        yield "stem", self.stem
        for i, block in enumerate(self.blocks):
            for j, layer in enumerate(block):
                yield f"b{i}.c{j}", layer
        yield "head", self.head


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
    # each conv reads the activation just before its output
    read_by = dict(zip(names[1:], names))
    convs = [_quantize_conv(name, layer.w, layer.b,
                            specs[read_by[f"{name}.out"]], specs[f"{name}.out"])
             for name, layer in folded.conv_layers()]
    head = QLayer(*_quantize_weights("head", folded.head_w, folded.head_b,
                                     specs[names[-1]].scale, 0.0))
    n = folded.config.convs_per_block
    qm = QuantModel(folded.config, specs, convs[0],
                    [convs[i:i + n] for i in range(1, len(convs), n)], head)
    check_quant_invariants(qm)
    return qm


# ---------------------------------------------------------------------------
# integer inference
# ---------------------------------------------------------------------------

def _note(trace, name, arr):
    if trace is not None:
        trace.append((name, str(arr.dtype)))


# Windows per block in qforward_batch: a 52-channel conv's int64
# accumulators for 8 windows take 133 KB.
BLOCK_WINDOWS = 8


def _gemm_dtype(fan_in: int) -> type:
    """Narrowest float type whose GEMM gives exact integer results for
    int8 weights against zero-point-shifted int8 inputs over fan_in terms."""
    return np.float32 if fan_in * 128 * 255 < 2 ** 24 else np.float64


def quantize_input(spec: QuantSpec, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Float windows to int8 on spec's grid, rounding half away from zero;
    written into out when given. Raises NonFiniteInput for NaN or Inf.

    x/scale is clamped in float64 to [-128 - zp, 127 - zp] before the
    integer cast: rounding keeps a value between two integers between
    them, so the result is that of rounding and then saturating, and no
    value too large for int64 reaches the cast. A finite x whose quotient
    overflows to +-inf saturates the same way, without a warning."""
    kernels.check_finite(x, "int8 input")
    zp = spec.zero_point
    with np.errstate(over="ignore"):
        v = np.divide(x, spec.scale, dtype=np.float64)
    np.maximum(v, QMIN - zp, out=v)
    q = round_half_away(np.minimum(v, QMAX - zp, out=v))
    q += zp
    if out is None:
        return q.astype(np.int8)
    np.copyto(out, q, casting="unsafe")
    return out


@dataclass(frozen=True)
class _ConvStep:
    """One conv as the plan runs it: x (B, C_in, L) int8 -> y (B, C_out, L)
    int8 through the scratch arrays of its layer shape."""

    acc_name: str             # the trace's names: {conv}.acc, {conv}.out
    out_name: str
    w: np.ndarray             # (C_out, C_in, K) in the layer's GEMM dtype
    # per-element rows, each channel's value repeated over L, so that every
    # requantization pass runs as one C_out*L loop per window
    m0: np.ndarray            # (C_out, L) int64
    offset: np.ndarray        # (C_out, L) int64: bias_q*M0 + 2^(30+n)
    shift: np.ndarray         # (C_out, L) int64: 31 + n
    in_zp: int
    out_zp: int
    low: int                  # the output zero point under a fused ReLU

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
        m0, shift_n = (np.array(column, np.int64)[:, None] for column in zip(
            *(quantize_multiplier(float(r), name) for r in ratios)))
        # |bias_q| < 2^31 - fan_in*128*255 and M0 < 2^31 bound (acc +
        # bias)*M0 by 2^62 and n <= 31 the rounding term by 2^61, so
        # neither the offset nor acc*M0 + offset leaves int64
        offset = (layer.bias_q.astype(np.int64)[:, None] * m0
                  + np.left_shift(np.int64(1), shift_n + 30))

        def row(column):
            return np.repeat(column, length, axis=1)
        return cls(f"{name}.acc", out_name,
                   layer.w_q.astype(_gemm_dtype(c_in * k)), row(m0),
                   row(offset), row(shift_n + 31), in_spec.zero_point,
                   out.zero_point, out.zero_point if relu else QMIN)

    def scratch(self, take, length: int) -> tuple[np.ndarray, ...]:
        """(padded, its interior, patches, GEMM output, int64 accumulators),
        each from take(shape, dtype, tag) as in QuantPlan. The padded
        buffer, zero-filled, is shared only with convs of its shape, which
        all write its interior alone, so its borders stay zero."""
        c_out, c_in, k = self.w.shape
        pad = (k - 1) // 2
        padded = take((c_in, length + 2 * pad), self.w.dtype, "padded")
        return (padded, padded[:, :, pad:pad + length],
                take((c_in * k, length), self.w.dtype),
                take((c_out, length), self.w.dtype),
                take((c_out, length), np.int64))

    def run(self, x, y, padded, interior, patches, gemm, acc, trace) -> None:
        # q - zp lies in [-255, 255]: subtract in the GEMM dtype, not int8
        np.subtract(x, self.in_zp, out=interior, dtype=interior.dtype)
        kernels.conv1d(padded, self.w, gemm, patches=patches)
        acc[...] = gemm
        _note(trace, self.acc_name, acc)
        # _requantize_array's arithmetic, with the bias folded into offset
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
    a lookup in table."""

    out_name: str             # b{i}.add.out
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

        def fold(spec: QuantSpec):
            m0, n = quantize_multiplier(spec.scale / out.scale, name)
            s = 31 + n
            offset = (1 << (s - 1)) - spec.zero_point * m0
            return np.int64(m0), np.int64(offset), np.int64(s)
        return cls(out_name, fold(a), fold(h), out.zero_point, channels)

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
        # intp, the index type np.take wants: any other makes it copy
        return (take((self.channels, length), np.intp),)

    def run(self, a, h, y, index, trace) -> None:
        np.left_shift(a.view(np.uint8), 8, out=index, dtype=np.intp)
        np.bitwise_or(index, h.view(np.uint8), out=index)
        # mode="raise" would buffer y
        np.take(self.table, index, out=y, mode="clip")
        _note(trace, self.out_name, y)


@dataclass(frozen=True)
class _HeadStep:
    """The dense head: int32 accumulators of a float64 GEMM, then the one
    float step, the logit dequantization."""

    w_t: np.ndarray           # (N, classes) float64
    bias_q: np.ndarray        # (classes,) int32
    scale: np.ndarray         # (classes,) float64: s_in * s_w
    in_zp: int

    @classmethod
    def of(cls, head: QLayer, in_spec: QuantSpec) -> _HeadStep:
        _check_accumulator("head", head.w_q.shape[1], head.bias_q)
        if not np.all((head.w_scale > 0) & np.isfinite(head.w_scale)):
            raise RequantRangeError("head: weight scales must be finite and "
                                    "positive")
        return cls(head.w_q.T.astype(np.float64), head.bias_q.astype(np.int32),
                   in_spec.scale * head.w_scale.astype(np.float64),
                   in_spec.zero_point)

    def scratch(self, take, length: int) -> tuple[np.ndarray, ...]:
        n, classes = self.w_t.shape
        return take((n,), np.float64), take((classes,), np.float64)

    def run(self, x, acc, operand, gemm, logits, trace) -> None:
        np.subtract(x, self.in_zp, out=operand, dtype=np.float64)
        np.matmul(operand, self.w_t, out=gemm)
        acc[...] = gemm
        acc += self.bias_q
        _note(trace, "head.acc", acc)
        np.multiply(acc, self.scale, out=logits)


def _layout(qm: QuantModel) -> list[tuple]:
    """Walk the network once: pass each step the specs of the activations
    it reads and writes, which checks the layer and derives its
    multipliers, and place its arena operands. Every conv fuses a ReLU but
    a block's last. Returns (step, its operands as (offset, shape, dtype))
    in run order."""
    cfg = qm.config
    specs = qm.specs
    length = cfg.seq_len
    act = (cfg.width, length)
    slot = [0, cfg.width * length, 2 * cfg.width * length]
    # the input sits above slot 0 and dies once the stem has run
    layout = [(_ConvStep.of("stem", qm.stem, _checked("input", specs["input"]),
                            specs["stem.out"], True, length), [
        (slot[1], (cfg.in_channels, length), np.int8), (0, act, np.int8)])]
    current = "stem.out"
    for i, block in enumerate(qm.blocks):
        # slot 0 keeps the block input for the skip; the convs alternate
        # between slots 1 and 2
        block_in, src = current, 0
        for j, layer in enumerate(block):
            name, dst = f"b{i}.c{j}", slot[1 + j % 2]
            layout.append((_ConvStep.of(
                name, layer, specs[current], specs[f"{name}.out"],
                j < len(block) - 1, length), [
                    (src, act, np.int8), (dst, act, np.int8)]))
            src, current = dst, f"{name}.out"
        layout.append((_AddStep.of(f"b{i}.add", specs[block_in],
                                   specs[current], specs[f"b{i}.add.out"],
                                   cfg.width), [
            (0, act, np.int8), (src, act, np.int8), (0, act, np.int8)]))
        current = f"b{i}.add.out"
    # the head reads slot 0 and keeps its int32 accumulators above it
    layout.append((_HeadStep.of(qm.head, specs[current]), [
        (0, (cfg.width * length,), np.int8),
        (slot[1], (cfg.classes,), np.int32)]))
    return layout


class QuantPlan:
    """The integer network laid out once: GEMM-ready constants, scratch
    arrays for BLOCK_WINDOWS windows shared by every step that takes one of
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
        self.arena = np.zeros((BLOCK_WINDOWS, self.arena_bytes), np.int8)
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
                    pool[key] = np.zeros((BLOCK_WINDOWS, *shape), dtype)
                return pool[key]

            self.scratch.append(step.scratch(take, qm.config.seq_len))
        self._bound: dict[int, tuple] = {}

    def _bind(self, batch: int) -> tuple:
        """The arena views and scratch arrays every step takes for a block
        of batch windows: the leading rows of each array."""
        arena = self.arena[:batch]

        def view(offset, shape, dtype):
            end = offset + math.prod(shape) * np.dtype(dtype).itemsize
            return arena[:, offset:end].view(dtype).reshape(batch, *shape)

        calls = [(step.run, [view(*operand) for operand in operands]
                  + [a[:batch] for a in scratch])
                 for (step, operands), scratch in zip(self.layout, self.scratch)]
        bound = (view(*self.input), calls[:-1], calls[-1])
        self._bound[batch] = bound
        return bound

    def run(self, x: np.ndarray, logits: np.ndarray, trace=None) -> None:
        """Write the logits (b, classes) of the float windows x (b,
        in_channels, seq_len), b <= BLOCK_WINDOWS, into logits."""
        q, body, (head, args) = self._bound.get(len(x)) or self._bind(len(x))
        quantize_input(self.input_spec, x, out=q)
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
    for i in range(0, x.shape[0], BLOCK_WINDOWS):
        block = slice(i, i + BLOCK_WINDOWS)
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
    qforward_batch call (which runs blocks of BLOCK_WINDOWS)."""
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
    also keeps the plan's folded constants bias_q*M0 + 2^(30+n) within
    int64. This is the walk that lays out the plan (_layout)."""
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
        layer("stem", (c, cfg.in_channels, cfg.kernel)),
        [[layer(f"b{i}.c{j}", (c, c, cfg.kernel))
          for j in range(cfg.convs_per_block)] for i in range(cfg.blocks)],
        layer("head", (cfg.classes, cfg.seq_len * c)))
    contents.finish()
    check_quant_invariants(qm)
    return qm
