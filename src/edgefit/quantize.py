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
ever rounds. Each layer takes float32 when that bound is below 2^24
(every conv at width 52: fan_in 156 gives 5.09 M) and float64 otherwise
(the head: fan_in 2080 gives 67.9 M). quantize_model rejects any layer
whose worst case reaches 2^31, far below 2^53. The products are cast back
to int64 before the int32 bias is added, so the accumulators equal those
of an int32 GEMM bit for bit. The convs lower through kernels.conv1d, the
one conv lowering of the package: _qconv_run hands it the shifted
activations as int16 and the weights in the layer's float type, and
conv1d pads in np.result_type of the two, so its buffer is the float GEMM
operand and its padding is 0, the shifted zero point.

qforward_batch runs the network over blocks of BLOCK_WINDOWS windows and
requantizes in place, so every temporary of a block stays small and in
cache, and the allocator reuses it for the next block. Run as one block,
a 128-window batch mapped and faulted in about 80 MB of fresh pages per
call (20,000 page faults).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container, kernels
from .dataset import Window
from .errors import (
    AccumulatorOverflow,
    EmptyCalibrationSet,
    InvalidConfig,
    MissingCalibration,
    RequantRangeError,
    ShapeMismatch,
)
from .model import (
    ModelConfig,
    ModelParams,
    calibration_sites,
    config_from_meta,
    forward_batch,
)

QMIN, QMAX = -128, 127
RANGE_FLOOR = 1e-3      # minimum activation range width
WEIGHT_SCALE_FLOOR = 1e-12
INT32_LIMIT = 2 ** 31

QUANT_MAGIC = b"EFQ2"

# QConvLayer arrays with their EFQ2 dtypes; a QDense has the first three.
_CONV_TENSORS = (("w_q", "|i1"), ("w_scale", "<f4"), ("bias_q", "<i4"),
                 ("m0", "<i4"), ("shift", "<i4"))


@dataclass(frozen=True)
class QuantSpec:
    """Affine int8 mapping: real = scale * (q - zero_point)."""

    scale: float
    zero_point: int


@dataclass
class QuantTensor:
    values: np.ndarray       # int8
    scale: np.ndarray        # float32 scalar array, or (C,) for per-channel
    zero_point: np.ndarray   # int32, same shape as scale


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero, as int64."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)


def quantize_tensor(x: np.ndarray, channel_axis: int | None = None,
                    floor: np.ndarray | float = 0.0) -> QuantTensor:
    """Quantize a float tensor to symmetric int8: scale = max|x| / 127 (per
    channel_axis when given), raised to floor (broadcast like the scale)
    and to WEIGHT_SCALE_FLOOR, so an all-zero tensor or channel gets a
    positive scale instead of an error; zero point 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidConfig("cannot quantize non-finite tensor")
    if channel_axis is None:
        scale = np.array(np.abs(x).max(), dtype=np.float64)
    else:
        reduce_axes = tuple(a for a in range(x.ndim) if a != channel_axis)
        scale = np.abs(x).max(axis=reduce_axes)
    scale = np.maximum(np.maximum(scale / QMAX, floor),
                       WEIGHT_SCALE_FLOOR).astype(np.float32)
    zp = np.zeros_like(scale, dtype=np.int32)
    if channel_axis is None:
        q = round_half_away(x / float(scale))
    else:
        shape = [1] * x.ndim
        shape[channel_axis] = -1
        q = round_half_away(x / scale.astype(np.float64).reshape(shape))
    values = np.clip(q, QMIN, QMAX).astype(np.int8)
    return QuantTensor(values=values, scale=scale, zero_point=zp)


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
    """Record per-site activation ranges of the folded float model.

    Windows run one at a time so the recorded ranges are independent of any
    batching. The conv outputs would be batch-invariant anyway (kernels.conv1d
    runs one GEMM per window), but the head's GEMM takes the whole batch,
    and its accumulation order varies with the batch shape."""
    if not folded.bn_folded:
        raise InvalidConfig("calibrate expects a BN-folded model")
    if not calib:
        raise EmptyCalibrationSet("calibration set is empty")
    stats = CalibStats(ranges={})
    for w in calib:
        capture: dict[str, np.ndarray] = {}
        forward_batch(folded, w.data.astype(np.float32)[None], capture=capture)
        for name, arr in capture.items():
            stats.update(name, arr)
    return stats


# ---------------------------------------------------------------------------
# fixed-point requantization
# ---------------------------------------------------------------------------

def quantize_multiplier(ratio: float) -> tuple[int, int]:
    """Express ratio as M0 * 2^-(31+n) with M0 in [2^30, 2^31).

    n is negative for ratios >= 1 (the residual add can need that); the
    representation is exact to within half an ulp of M0.
    """
    if not (ratio > 0 and math.isfinite(ratio)):
        raise RequantRangeError(f"scale ratio must be positive, got {ratio}")
    mantissa, exponent = math.frexp(ratio)     # ratio = mantissa * 2^exponent
    m0 = round(mantissa * (1 << 31))
    if m0 == (1 << 31):
        m0 >>= 1
        exponent += 1
    n = -exponent
    if 31 + n < 1:
        raise RequantRangeError(f"scale ratio {ratio} too large to represent")
    return m0, n


def _rescale_array(acc: np.ndarray, m0: np.ndarray, shift_n: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Round-half-up of acc*M0 / 2^(31+n), unclamped, as int64. out, an
    int64 array of acc's shape (acc itself allowed), receives the result
    instead of a new array."""
    shift = 31 + shift_n
    t = np.multiply(acc, m0, out=out)
    t += np.left_shift(np.int64(1), shift - 1)
    t >>= shift
    return t


def _requantize_array(acc: np.ndarray, m0: np.ndarray, shift_n: np.ndarray,
                      zero_point_out: int, low: int = QMIN,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized requantize; acc int64, m0/shift_n broadcastable int64.
    Results saturate to [low, 127]; a fused ReLU passes its zero point as
    low. out is _rescale_array's scratch array."""
    value = _rescale_array(acc, m0, shift_n, out=out)
    value += zero_point_out
    return np.clip(value, low, QMAX, out=value).astype(np.int8)


# ---------------------------------------------------------------------------
# quantized model
# ---------------------------------------------------------------------------

@dataclass
class QConvLayer:
    name: str
    w_q: np.ndarray           # (C_out, C_in, K) int8
    w_scale: np.ndarray       # (C_out,) float32
    bias_q: np.ndarray        # (C_out,) int32
    in_spec: QuantSpec
    out_spec: QuantSpec
    m0: np.ndarray            # (C_out,) int32
    shift: np.ndarray         # (C_out,) int32
    relu: bool


@dataclass
class QAdd:
    """Residual merge: both addends rescaled into the output spec."""

    a_spec: QuantSpec         # block input
    h_spec: QuantSpec         # last conv output
    out_spec: QuantSpec
    a_m0: int
    a_shift: int
    h_m0: int
    h_shift: int


@dataclass
class QDense:
    w_q: np.ndarray           # (classes, N) int8
    w_scale: np.ndarray       # (classes,) float32
    bias_q: np.ndarray        # (classes,) int32
    in_spec: QuantSpec


@dataclass
class QBlock:
    convs: list[QConvLayer]
    add: QAdd


@dataclass
class QuantModel:
    config: ModelConfig
    input_spec: QuantSpec
    stem: QConvLayer
    blocks: list[QBlock]
    head: QDense

    def layers(self):
        yield self.stem
        for block in self.blocks:
            yield from block.convs


def _spec_items(qm: QuantModel):
    """Yield (name, QuantSpec) for every activation spec the model holds."""
    yield "input", qm.input_spec
    for layer in qm.layers():
        yield f"{layer.name}.in", layer.in_spec
        yield f"{layer.name}.out", layer.out_spec
    for i, block in enumerate(qm.blocks):
        yield f"b{i}.add.a", block.add.a_spec
        yield f"b{i}.add.h", block.add.h_spec
        yield f"b{i}.add.out", block.add.out_spec
    yield "head.in", qm.head.in_spec


def _bias_scale_floor(b: np.ndarray, s_in: float) -> np.ndarray:
    """Least weight scale per output channel that keeps the quantized
    bias b / (s_in * s_w) within 2^30."""
    return np.abs(b.astype(np.float64)) / (s_in * 2.0 ** 30)


def _quantize_conv(name: str, w: np.ndarray, b: np.ndarray,
                   in_spec: QuantSpec, out_spec: QuantSpec,
                   relu: bool) -> QConvLayer:
    # the floor matters only for a channel whose weights are (nearly) all
    # zero: it keeps the bias within int32 and the multiplier's scale
    # ratio s_in * s_w / s_out at or above 2^-31, so its shift n <= 30
    floor = np.maximum(_bias_scale_floor(b, in_spec.scale),
                       out_spec.scale / (in_spec.scale * 2.0 ** 31))
    qt = quantize_tensor(w, channel_axis=0, floor=floor)
    w_scale = qt.scale.astype(np.float32)
    bias_scale = in_spec.scale * w_scale.astype(np.float64)
    bias_real = b.astype(np.float64) / bias_scale
    ratios = bias_scale / out_spec.scale
    # the floor fits every finite bias into int32, but once |b| reaches
    # s_out * 2^60 the scale it takes needs a multiplier shift n < -30
    if not np.all(np.isfinite(bias_real)) or np.any(ratios >= 2.0 ** 30):
        raise AccumulatorOverflow(f"{name}: quantized bias exceeds int32 at "
                                  f"every scale the multiplier can express")
    bias_q = round_half_away(bias_real)
    pairs = [quantize_multiplier(float(r)) for r in ratios]
    m0 = np.array([p[0] for p in pairs], dtype=np.int32)
    shift = np.array([p[1] for p in pairs], dtype=np.int32)
    fan_in = w.shape[1] * w.shape[2]
    worst = fan_in * QMAX * 255 + int(np.abs(bias_q).max(initial=0))
    if worst >= INT32_LIMIT:
        raise AccumulatorOverflow(
            f"{name}: worst-case accumulator {worst} does not fit int32")
    return QConvLayer(name=name, w_q=qt.values, w_scale=w_scale,
                      bias_q=bias_q.astype(np.int32),
                      in_spec=in_spec, out_spec=out_spec,
                      m0=m0, shift=shift, relu=relu)


def quantize_model(folded: ModelParams, stats: CalibStats) -> QuantModel:
    """Build the int8 model from a folded float model and calibration ranges."""
    if not folded.bn_folded:
        raise InvalidConfig("quantize_model expects a BN-folded model")
    cfg = folded.config
    for site in calibration_sites(cfg):
        stats.range_of(site)

    input_spec = activation_spec(*stats.range_of("input"))
    stem_out = activation_spec(*stats.range_of("stem"))
    stem = _quantize_conv("stem", folded.stem.w, folded.stem.b,
                          input_spec, stem_out, relu=True)

    blocks = []
    current = stem_out
    for i, block in enumerate(folded.blocks):
        block_in = current
        convs = []
        for j, layer in enumerate(block):
            if j < cfg.convs_per_block - 1:
                out_spec = activation_spec(*stats.range_of(f"b{i}.r{j + 1}"))
                relu = True
            else:
                out_spec = activation_spec(*stats.range_of(f"b{i}.conv3"))
                relu = False
            convs.append(_quantize_conv(f"b{i}.c{j}", layer.w, layer.b,
                                        current, out_spec, relu))
            current = out_spec
        out_spec = activation_spec(*stats.range_of(f"b{i}.out"))
        a_m0, a_shift = quantize_multiplier(block_in.scale / out_spec.scale)
        h_m0, h_shift = quantize_multiplier(current.scale / out_spec.scale)
        blocks.append(QBlock(convs=convs, add=QAdd(
            a_spec=block_in, h_spec=current, out_spec=out_spec,
            a_m0=a_m0, a_shift=a_shift, h_m0=h_m0, h_shift=h_shift)))
        current = out_spec

    qt = quantize_tensor(folded.head_w, channel_axis=0,
                         floor=_bias_scale_floor(folded.head_b, current.scale))
    head_scale = current.scale * qt.scale.astype(np.float64)
    head_real = folded.head_b.astype(np.float64) / head_scale
    if not np.all(np.isfinite(head_real)) or np.any(np.abs(head_real) >= INT32_LIMIT):
        raise AccumulatorOverflow("head: quantized bias exceeds int32")
    head_bias = round_half_away(head_real)
    fan_in = folded.head_w.shape[1]
    worst = fan_in * QMAX * 255 + int(np.abs(head_bias).max(initial=0))
    if worst >= INT32_LIMIT:
        raise AccumulatorOverflow(
            f"head: worst-case accumulator {worst} does not fit int32")
    head = QDense(w_q=qt.values, w_scale=qt.scale.astype(np.float32),
                  bias_q=head_bias.astype(np.int32), in_spec=current)
    return QuantModel(config=cfg, input_spec=input_spec, stem=stem,
                      blocks=blocks, head=head)


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


def _qconv_run(layer: QConvLayer, x_q: np.ndarray, trace) -> np.ndarray:
    """x_q: (B, C_in, L) int8 -> (B, C_out, L) int8."""
    _, c_in, k = layer.w_q.shape
    # q - zp lies in [-255, 255]; conv1d pads it with 0, the shifted zero
    # point, and runs the GEMM in the weights' float type
    shifted = np.subtract(x_q, layer.in_spec.zero_point, dtype=np.int16)
    acc, _ = kernels.conv1d(shifted, layer.w_q.astype(_gemm_dtype(c_in * k)))
    acc = acc.astype(np.int64)
    acc += layer.bias_q[:, None]
    _note(trace, f"{layer.name}.acc", acc)
    low = layer.out_spec.zero_point if layer.relu else QMIN
    q = _requantize_array(acc, layer.m0.astype(np.int64)[:, None],
                          layer.shift.astype(np.int64)[:, None],
                          layer.out_spec.zero_point, low, out=acc)
    _note(trace, layer.name, q)
    return q


def _qadd_run(add: QAdd, q_a: np.ndarray, q_h: np.ndarray, trace) -> np.ndarray:
    # rescale unclamped (addends may exceed int8 range before saturation)
    a = np.subtract(q_a, add.a_spec.zero_point, dtype=np.int64)
    _rescale_array(a, np.int64(add.a_m0), np.int64(add.a_shift), out=a)
    h = np.subtract(q_h, add.h_spec.zero_point, dtype=np.int64)
    _rescale_array(h, np.int64(add.h_m0), np.int64(add.h_shift), out=h)
    a += h
    a += add.out_spec.zero_point
    # saturate, with the fused ReLU's floor at the output zero point
    q = np.clip(a, add.out_spec.zero_point, QMAX, out=a).astype(np.int8)
    _note(trace, "add", q)
    return q


def quantize_input(spec: QuantSpec, x: np.ndarray) -> np.ndarray:
    q = round_half_away(np.asarray(x, dtype=np.float64) / spec.scale)
    return np.clip(q + spec.zero_point, QMIN, QMAX).astype(np.int8)


def qforward_batch(qm: QuantModel, x: np.ndarray,
                   trace: list | None = None) -> np.ndarray:
    """Integer inference over a batch (B, in_channels, seq_len) of float
    windows; only the input quantization and the final logit dequantization
    use floating point."""
    cfg = qm.config
    if x.ndim != 3 or x.shape[1:] != (cfg.in_channels, cfg.seq_len):
        raise ShapeMismatch(
            f"expected (B, {cfg.in_channels}, {cfg.seq_len}), got {x.shape}")
    logits = np.empty((x.shape[0], cfg.classes), dtype=np.float32)
    for i in range(0, x.shape[0], BLOCK_WINDOWS):
        block = slice(i, i + BLOCK_WINDOWS)
        # every block takes the same path: the first one traces it
        logits[block] = _qforward_block(qm, x[block],
                                        trace if i == 0 else None)
    return logits


def _qforward_block(qm: QuantModel, x: np.ndarray, trace) -> np.ndarray:
    """qforward_batch over one block; float64 logits."""
    q = quantize_input(qm.input_spec, x)
    _note(trace, "input", q)
    q = _qconv_run(qm.stem, q, trace)
    for block in qm.blocks:
        q_in = q
        for layer in block.convs:
            q = _qconv_run(layer, q, trace)
        q = _qadd_run(block.add, q_in, q, trace)
    head = qm.head
    flat = q.reshape(q.shape[0], -1)
    dtype = _gemm_dtype(head.w_q.shape[1])
    shifted = flat.astype(dtype) - head.in_spec.zero_point
    acc = (shifted @ head.w_q.astype(dtype).T).astype(np.int64)
    acc += head.bias_q[None, :]
    _note(trace, "head.acc", acc)
    scale = head.in_spec.scale * head.w_scale.astype(np.float64)
    return acc.astype(np.float64) * scale[None, :]


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


def evaluate_quant(qm: QuantModel, windows: list[Window], batch: int = 256):
    """Argmax Metrics of the integer path over a window list."""
    from .training import EmptyTestSet, metrics_from_logits
    if not windows:
        raise EmptyTestSet("evaluate needs at least one window")
    x = np.stack([w.data for w in windows]).astype(np.float32)
    y = np.array([w.label for w in windows], dtype=np.int64)
    wt = np.array([w.weight for w in windows], dtype=np.float32)
    logits = np.concatenate([qforward_batch(qm, x[i:i + batch])
                             for i in range(0, len(x), batch)])
    return metrics_from_logits(logits, y, wt, qm.config.classes)


def check_quant_invariants(qm: QuantModel) -> None:
    """Verify the fixed-point contract on every layer; raises on violation.

    Zero points must lie in the int8 range: the exact float GEMM bound
    (see the module docstring) assumes |q - zero_point| <= 255. Every
    scale, of a spec or a weight channel, must be finite and positive, and
    every multiplier M0 * 2^-(31+n) must be one quantize_multiplier gives
    for its scale ratio, with n in [-30, 31]: _rescale_array shifts an
    int64 by 31 + n bits."""
    for name, spec in _spec_items(qm):
        if not QMIN <= spec.zero_point <= QMAX:
            raise AccumulatorOverflow(f"{name}: zero point {spec.zero_point} "
                                      f"outside [{QMIN}, {QMAX}]")
        if not 0 < spec.scale < math.inf:
            raise RequantRangeError(f"{name}: scale {spec.scale}")
    if not np.all((qm.head.w_scale > 0) & np.isfinite(qm.head.w_scale)):
        raise RequantRangeError("head: weight scales must be finite and "
                                "positive")
    # (name, M0s, shifts, the scale ratios they encode); a weight scale
    # that is not finite and positive makes its ratio so
    multipliers = [(layer.name, layer.m0, layer.shift,
                    (layer.in_spec.scale * layer.w_scale.astype(np.float64))
                    / layer.out_spec.scale) for layer in qm.layers()]
    for i, block in enumerate(qm.blocks):
        add = block.add
        multipliers.append((f"b{i}.add", [add.a_m0, add.h_m0],
                            [add.a_shift, add.h_shift],
                            [add.a_spec.scale / add.out_spec.scale,
                             add.h_spec.scale / add.out_spec.scale]))
    for name, m0s, shifts, ratios in multipliers:
        for m0, n, r in zip(m0s, shifts, ratios):
            if not 0 < r < math.inf:
                raise RequantRangeError(f"{name}: scale ratio {r}")
            if not ((1 << 30) <= int(m0) < (1 << 31) and -30 <= int(n) <= 31):
                raise RequantRangeError(f"{name}: M0 {m0} or shift {n} "
                                        f"out of range")
            error = abs(int(m0) * 2.0 ** (-31 - int(n)) - r) / r
            if error > 2 ** -24:
                raise RequantRangeError(f"{name}: multiplier error {error}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save(qm: QuantModel, path: str | Path) -> None:
    """Write an EFQ2 container (layout in edgefit.container) with the
    config as metadata and every array, spec and multiplier as a named
    tensor. Which convs fuse a ReLU follows from the architecture."""
    tensors = {f"{layer.name}.{attr}": getattr(layer, attr).astype(dtype)
               for layer in qm.layers() for attr, dtype in _CONV_TENSORS}
    for i, block in enumerate(qm.blocks):
        add = block.add
        tensors[f"b{i}.add"] = np.array(
            [add.a_m0, add.a_shift, add.h_m0, add.h_shift], "<i4")
    for attr, dtype in _CONV_TENSORS[:3]:
        tensors[f"head.{attr}"] = getattr(qm.head, attr).astype(dtype)
    for name, spec in _spec_items(qm):
        tensors[f"{name}.scale"] = np.array(spec.scale, "<f4")
        tensors[f"{name}.zero_point"] = np.array(spec.zero_point, "<i4")
    container.write(path, QUANT_MAGIC,
                    {"config": dataclasses.asdict(qm.config)}, tensors)


def load(path: str | Path) -> QuantModel:
    """Read an EFQ2 file. Every tensor must have the shape the file's config
    gives it, and the model must pass check_quant_invariants."""
    contents = container.read(path, QUANT_MAGIC)
    cfg = config_from_meta(contents)
    take = contents.take
    c = cfg.width

    def spec(name):
        return QuantSpec(float(take(f"{name}.scale", "<f4", ())),
                         int(take(f"{name}.zero_point", "<i4", ())))

    def conv(name, c_in, relu):
        w_q = take(f"{name}.w_q", "|i1", (c, c_in, cfg.kernel))
        w_scale, bias_q, m0, shift = (take(f"{name}.{attr}", dtype, (c,))
                                      for attr, dtype in _CONV_TENSORS[1:])
        return QConvLayer(name, w_q, w_scale, bias_q, spec(f"{name}.in"),
                          spec(f"{name}.out"), m0, shift, relu)

    stem = conv("stem", cfg.in_channels, True)
    blocks = []
    for i in range(cfg.blocks):
        convs = [conv(f"b{i}.c{j}", c, j < cfg.convs_per_block - 1)
                 for j in range(cfg.convs_per_block)]
        add = QAdd(spec(f"b{i}.add.a"), spec(f"b{i}.add.h"),
                   spec(f"b{i}.add.out"), *take(f"b{i}.add", "<i4", (4,)).tolist())
        blocks.append(QBlock(convs, add))
    head = QDense(take("head.w_q", "|i1", (cfg.classes, cfg.seq_len * c)),
                  take("head.w_scale", "<f4", (cfg.classes,)),
                  take("head.bias_q", "<i4", (cfg.classes,)), spec("head.in"))
    qm = QuantModel(cfg, spec("input"), stem, blocks, head)
    contents.finish()
    check_quant_invariants(qm)
    return qm
