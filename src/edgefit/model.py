"""The residual 1D CNN: one stem conv, three identity blocks of three convs,
and a dense classifier over the flattened activations.

Every convolution uses 'same' padding at stride 1, so all activations keep
the input length. Each identity block runs conv-BN-ReLU, conv-BN-ReLU,
conv-BN, adds the unmodified block input, and applies a final ReLU.

The float executor, forward_batch, runs in a ForwardPlan kept on the
model, as quantize.QuantPlan runs the int8 one: one block of
kernels.BLOCK windows' buffers (830 KB at width 52) and every conv's
views into them, laid out at the model's first call. The plan holds no
parameter, so training's in-place updates reach the next call; it makes
the calls on one model share its buffers, so one thread at a time runs
a model and a capture callback must not call forward_batch on it; and a
copy or a pickle of a model carries no plan, but builds its own.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import container, kernels
from .errors import CorruptFile, InvalidConfig, ShapeMismatch

MODEL_MAGIC = b"EFM2"


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 7
    seq_len: int = 40
    classes: int = 12
    width: int = 52
    kernel: int = 3
    blocks: int = 3
    convs_per_block: int = 3
    bn_eps: float = 1e-3

    def __post_init__(self):
        # keep bn_eps float32-exact so the file format round-trips the
        # config; one beyond float32's range becomes inf, which validate
        # rejects
        with np.errstate(over="ignore"):
            object.__setattr__(self, "bn_eps", float(np.float32(self.bn_eps)))

    def validate(self) -> None:
        if min(self.in_channels, self.seq_len, self.classes, self.width,
               self.blocks, self.convs_per_block) < 1:
            raise InvalidConfig(f"non-positive dimension in {self}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise InvalidConfig(f"kernel must be odd and positive, got {self.kernel}")
        if not 0 <= self.bn_eps < np.inf:
            raise InvalidConfig(f"bn_eps must be finite and >= 0, "
                                f"got {self.bn_eps}")


class Conv(NamedTuple):
    """One conv of the network as topology lists it: its name, its input
    channels and the activation it reads. A block's last conv also names
    skip, the index of the block's first conv, whose operand (the block
    input) it adds to its output before its ReLU, and that add."""

    name: str
    in_channels: int
    reads: str
    skip: int | None = None
    add: str | None = None


@functools.lru_cache(maxsize=64)
def topology(config: ModelConfig) -> tuple[Conv, ...]:
    """The convs of config in execution order: the stem, then each block's
    convs b{i}.c{j}, the last adding the block input as b{i}.add. Each
    conv writes {name}.out and each add {add}.out; every conv fuses a ReLU
    but a block's last, whose add does. The table is cached per config,
    so the executors walk it on every call without rebuilding it; its
    size grows with config.blocks * config.convs_per_block, so a file's
    config must be bounded (config_from_meta) before it is built."""
    convs = [Conv("stem", config.in_channels, "input")]
    for i in range(config.blocks):
        first = len(convs)
        for j in range(config.convs_per_block):
            reads = f"{convs[-1].add or convs[-1].name}.out"
            convs.append(Conv(f"b{i}.c{j}", config.width, reads))
        convs[-1] = convs[-1]._replace(skip=first, add=f"b{i}.add")
    return tuple(convs)


@dataclass
class ConvLayer:
    """One convolution with its batch-normalization parameters."""

    w: np.ndarray       # (C_out, C_in, K)
    b: np.ndarray       # (C_out,)
    gamma: np.ndarray   # (C_out,)
    beta: np.ndarray
    mean: np.ndarray    # running mean
    var: np.ndarray     # running variance


@dataclass
class ModelParams:
    config: ModelConfig
    convs: list[ConvLayer]   # one per record of topology(config), in order
    head_w: np.ndarray   # (classes, seq_len*width)
    head_b: np.ndarray   # (classes,)
    bn_folded: bool = False
    # built by the first forward_batch (see ForwardPlan)
    plan: ForwardPlan | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # a plan's views alias its own buffers, which no copy or pickle of
        # them would: a copy builds its own plan at its first call
        return {**self.__dict__, "plan": None}

    def conv_layers(self):
        """(name, ConvLayer) for every conv, in execution order."""
        return zip((conv.name for conv in topology(self.config)), self.convs)

    def param_items(self):
        """Yield (name, array) for every trainable tensor, fixed order.

        Running BN statistics are excluded; they are updated by momentum,
        not by gradient descent.
        """
        for name, layer in self.conv_layers():
            yield f"{name}.w", layer.w
            yield f"{name}.b", layer.b
            if not self.bn_folded:
                yield f"{name}.gamma", layer.gamma
                yield f"{name}.beta", layer.beta
        yield "head.w", self.head_w
        yield "head.b", self.head_b

    def all_tensors(self):
        """Yield (name, array) for every tensor including running stats."""
        for name, layer in self.conv_layers():
            for f in dataclasses.fields(ConvLayer):
                yield f"{name}.{f.name}", getattr(layer, f.name)
        yield "head.w", self.head_w
        yield "head.b", self.head_b


def build(config: ModelConfig, seed: int) -> ModelParams:
    """He-uniform initialized parameters, deterministic in the seed."""
    config.validate()
    rng = np.random.default_rng(seed)

    def he_uniform(shape, fan_in):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    def conv_layer(c_out, c_in):
        k = config.kernel
        return ConvLayer(
            w=he_uniform((c_out, c_in, k), c_in * k),
            b=np.zeros(c_out, dtype=np.float32),
            gamma=np.ones(c_out, dtype=np.float32),
            beta=np.zeros(c_out, dtype=np.float32),
            mean=np.zeros(c_out, dtype=np.float32),
            var=np.ones(c_out, dtype=np.float32),
        )

    convs = [conv_layer(config.width, conv.in_channels)
             for conv in topology(config)]
    flat = config.seq_len * config.width
    head_w = he_uniform((config.classes, flat), flat)
    head_b = np.zeros(config.classes, dtype=np.float32)
    return ModelParams(config, convs, head_w, head_b)


class ForwardPlan:
    """The float network's buffers for one block of kernels.BLOCK windows,
    laid out once per (config, dtype), and for each block size n every
    conv's views into them, bound at the first block of that size.

    The buffers: a zero-bordered pad buffer of the input, the skip buffer,
    which holds a residual block's input, one pad buffer that every other
    conv reads, one conv output and one patches buffer; 830 KB at width
    52. Conv i reads pads[i] and the ReLU of every conv but the last
    writes the interior of pads[i + 1]: the stem reads the input's pad
    buffer, a conv that starts a block reads the skip buffer, which the
    block's add reads too, and every other conv the one pad buffer. The
    last conv's ReLU runs in place in the contiguous conv output, which
    the head then reads as its (n, width*seq_len) input, with no copy.
    Only the convs' interiors are ever written, so every border stays
    zero. A plan holds buffers only, never a parameter: forward_batch
    reads every layer's arrays at call time."""

    def __init__(self, config: ModelConfig, dtype: np.dtype):
        self.config, self.dtype = config, dtype
        convs = topology(config)
        nb, width, k = kernels.BLOCK, config.width, config.kernel
        padded_len = config.seq_len + k - 1
        padded_in = np.zeros((nb, config.in_channels, padded_len), dtype)
        skip = np.zeros((nb, width, padded_len), dtype)
        padded = np.zeros((nb, width, padded_len), dtype)
        starts = {conv.skip for conv in convs}
        self.pads = [padded_in] + [skip if i in starts else padded
                                   for i in range(1, len(convs))]
        self.out = np.empty((nb, width, config.seq_len), dtype)
        self.patches = np.empty(
            nb * max(config.in_channels, width) * k * config.seq_len, dtype)
        self._bound: dict[int, tuple] = {}

    def bind(self, n: int) -> tuple:
        """The views a block of n windows runs in: the input's interior,
        one tuple per conv (its operand, patches, output, the interior its
        add reads or None, the array its ReLU writes, and the names of its
        output and of the activation after its ReLU) and the head input,
        the conv output flattened to (n, width*seq_len)."""
        bound = self._bound.get(n)
        if bound is None:
            cfg = self.config
            k, length = cfg.kernel, cfg.seq_len
            out = self.out[:n]
            pads = [kernels.interior(pad[:n], k) for pad in self.pads] + [out]
            steps = tuple(
                (self.pads[i][:n],
                 self.patches[:n * conv.in_channels * k * length].reshape(
                     n, -1, length),
                 out,
                 None if conv.skip is None else pads[conv.skip],
                 pads[i + 1], f"{conv.name}.out",
                 f"{conv.add or conv.name}.out")
                for i, conv in enumerate(topology(cfg)))
            bound = self._bound[n] = (pads[0], steps, out.reshape(n, -1))
        return bound


def forward_batch(m: ModelParams, x: np.ndarray,
                  capture: Callable[[str, np.ndarray], object] | None = None
                  ) -> np.ndarray:
    """Inference forward over a batch (B, in_channels, seq_len) -> (B, classes).

    The batch runs depth-first: each block of kernels.BLOCK windows goes
    through the whole network, head included, before the next block
    starts, in the buffers of one block (the fused layers of Alwani et
    al., 2016), so its feature maps stay in the cache. Those buffers and
    every conv's views into them are the model's ForwardPlan (m.plan),
    built at its first call and again only when the model's config or the
    call's dtype changes, as a microcontroller runtime plans its tensor
    arena once (TensorFlow Lite Micro): 830 KB at width 52, which the
    model keeps. A call allocates only the (B, classes) logits and a
    block's small temporaries, and its loop over the convs only calls
    kernels: each conv is kernels.conv1d_same_batch of its pad buffer into
    the output buffer, looked up in kernels at call time, where the bias,
    BN unless folded (in batchnorm_infer's order) and a residual add run
    in place before the ReLU writes the next conv's operand; the last
    conv's ReLU runs in place, and kernels.dense_batch reads the block's
    head input from the output buffer. Every parameter is read at call
    time, so an in-place edit or a rebound array reaches the next call.

    Every float output of a window, its logits included, is
    batch-invariant: it equals a layer-by-layer run's bit for bit,
    whatever batch or block the window runs in, since each conv is one
    GEMM per window, the head one GEMV per window and the other layers
    are elementwise.

    The plan makes a model's calls share its buffers: one thread at a time
    may run a model, and capture must not call forward_batch on it. A copy
    or a pickle of the model carries no plan and builds its own.

    With capture given, capture(name, activation) is called for every
    activation of activation_names(m.config), in that order, once per
    block. The activation is an (n, C, seq_len) view of that block's
    windows, valid only during the call: the slice of x, a pad buffer's
    (non-contiguous) interior or the output buffer.
    """
    cfg = m.config
    if x.ndim != 3 or x.shape[1:] != (cfg.in_channels, cfg.seq_len):
        raise ShapeMismatch(
            f"expected (B, {cfg.in_channels}, {cfg.seq_len}), got {x.shape}")
    # a model's tensors share one dtype
    dtype = np.result_type(x, m.convs[0].w)
    plan = m.plan
    if plan is None or (plan.config, plan.dtype) != (cfg, dtype):
        plan = m.plan = ForwardPlan(cfg, dtype)
    logits = np.empty((len(x), cfg.classes),
                      np.result_type(dtype, m.head_w, m.head_b))
    for start in range(0, len(x), kernels.BLOCK):
        rows = slice(start, start + kernels.BLOCK)
        block = x[rows]
        inputs, steps, head_in = plan.bind(len(block))
        if capture is not None:
            capture("input", block)
        np.copyto(inputs, block)
        for layer, (operand, patches, out, skip, relu_out, name,
                    relu_name) in zip(m.convs, steps):
            y = kernels.conv1d_same_batch(operand, layer.w, layer.b, out,
                                          patches=patches)
            if not m.bn_folded:     # in batchnorm_infer's order
                y -= layer.mean[:, None]
                y *= (layer.gamma / np.sqrt(layer.var + cfg.bn_eps))[:, None]
                y += layer.beta[:, None]
            if skip is not None:
                if capture is not None:
                    capture(name, y)
                y += skip
            np.maximum(y, 0, out=relu_out)
            if capture is not None:
                capture(relu_name, relu_out)
        logits[rows] = kernels.dense_batch(head_in, m.head_w, m.head_b)
    return logits


def forward(m: ModelParams, x: np.ndarray) -> np.ndarray:
    """Single-window forward (in_channels, seq_len) -> logits (classes,):
    a one-window forward_batch, whose logits and activations equal the
    window's of any batched call bit for bit."""
    cfg = m.config
    if x.ndim != 2 or x.shape != (cfg.in_channels, cfg.seq_len):
        raise ShapeMismatch(
            f"expected ({cfg.in_channels}, {cfg.seq_len}), got {x.shape}")
    logits = forward_batch(m, x[None])[0]
    return kernels.check_finite(logits, "logits")


def activation_names(config: ModelConfig) -> list[str]:
    """The name of every activation the int8 model quantizes, in execution
    order: the input, then each conv's {name}.out (after its ReLU, if it
    has one) of topology(config), followed by its add's {add}.out if it
    has one. forward_batch captures them, quantize.calibrate ranges them,
    and an EFQ3 file and the int8 trace store them under these names."""
    return ["input"] + [f"{name}.out" for conv in topology(config)
                        for name in (conv.name, conv.add) if name]


@dataclass
class MacReport:
    per_layer: dict[str, int]
    total: int
    param_count: int
    flash_bytes_int8: int
    peak_activation_bytes: int

    def as_text(self) -> str:
        width = max(len(k) for k in self.per_layer) + 2
        lines = ["layer" + " " * (width - 5) + "MACs"]
        for name, macs in self.per_layer.items():
            lines.append(f"{name:<{width}}{macs:>12,}")
        lines.append(f"{'total':<{width}}{self.total:>12,}")
        lines.append("")
        lines.append(f"parameters            {self.param_count:,}")
        lines.append(f"flash (int8 model)    {self.flash_bytes_int8 / 1024:.2f} kB")
        lines.append(f"peak activations      {self.peak_activation_bytes / 1024:.2f} kB")
        return "\n".join(lines)

    def as_kv(self) -> str:
        lines = [f"macs.{k}={v}" for k, v in self.per_layer.items()]
        lines += [
            f"macs.total={self.total}",
            f"param_count={self.param_count}",
            f"flash_bytes_int8={self.flash_bytes_int8}",
            f"peak_activation_bytes={self.peak_activation_bytes}",
        ]
        return "\n".join(lines)


def _weights_and_biases(config: ModelConfig) -> tuple[int, int]:
    """The weight and bias counts of config's convs and head, in closed
    form: no table of its layers is built, so a file's config can be
    bounded by them before anything is allocated for it."""
    c, k = config.width, config.kernel
    convs = config.blocks * config.convs_per_block      # besides the stem
    weights = (c * config.in_channels * k + convs * c * c * k
               + config.classes * config.seq_len * c)
    return weights, c * (1 + convs) + config.classes


def count_macs(config: ModelConfig) -> MacReport:
    """Per-layer multiply-accumulate counts and memory footprint estimates.

    Counting convention: one MAC per multiply-accumulate in convolutions and
    the dense head; BN, ReLU, and the residual add are excluded. Flash
    assumes int8 weights, int32 biases, and one float32 scale per output
    channel. Peak activations assume int8 buffers with the block input kept
    alive for the skip connection: inside a block the skip, a conv's input
    and its output, which is two buffers when the block's one conv reads
    the skip itself. quantize.QuantPlan lays out its arena to this figure.
    """
    config.validate()
    c, l, k = config.width, config.seq_len, config.kernel
    per_layer = {conv.name: l * k * conv.in_channels * c
                 for conv in topology(config)}
    per_layer["head"] = l * c * config.classes
    total = sum(per_layer.values())

    weights, biases = _weights_and_biases(config)
    out_channels = biases
    flash = weights * 1 + biases * 4 + out_channels * 4

    act = c * l   # int8 bytes of one full-width activation
    in_block = 1 + min(config.convs_per_block, 2)   # skip + in + out
    peak = max(config.in_channels * l + act,   # stem
               in_block * act,                 # inside a block
               act + config.classes * 4)       # head (int32 logits)
    return MacReport(per_layer=per_layer, total=total,
                     param_count=weights + biases,
                     flash_bytes_int8=flash,
                     peak_activation_bytes=peak)


def fold_batchnorm(m: ModelParams) -> ModelParams:
    """Absorb every BN into its convolution: w' = w*g/sqrt(v+eps) per output
    channel, b' = (b-mean)*g/sqrt(v+eps)+beta. The result skips BN entirely
    (its BN parameters are identity and bn_eps is zeroed, so folding again
    is a no-op)."""
    out = copy.deepcopy(m)
    eps = m.config.bn_eps if not m.bn_folded else 0.0
    for layer in out.convs:
        scale = (layer.gamma / np.sqrt(layer.var + eps)).astype(np.float32)
        layer.w = (layer.w * scale[:, None, None]).astype(np.float32)
        layer.b = ((layer.b - layer.mean) * scale + layer.beta).astype(np.float32)
        c = layer.b.shape[0]
        layer.gamma = np.ones(c, dtype=np.float32)
        layer.beta = np.zeros(c, dtype=np.float32)
        layer.mean = np.zeros(c, dtype=np.float32)
        layer.var = np.ones(c, dtype=np.float32)
    out.config = dataclasses.replace(m.config, bn_eps=0.0)
    out.bn_folded = True
    return out


def config_from_meta(contents: container.Contents) -> ModelConfig:
    """The ModelConfig in a model container's metadata. CorruptFile unless
    it is valid, every dimension is an int and the file holds at least as
    many tensor elements as the config has weights and biases, which
    bounds what a loader allocates for it."""
    try:
        config = ModelConfig(**contents.meta["config"])
        dims = dataclasses.astuple(config)[:-1]      # every field but bn_eps
        if any(type(d) is not int for d in dims):
            raise TypeError(f"non-integer dimension in {config}")
        config.validate()
    except (KeyError, TypeError, ValueError, OverflowError,
            InvalidConfig) as e:
        raise CorruptFile(f"{contents.path}: bad model config ({e})") from None
    if sum(_weights_and_biases(config)) > sum(
            arr.size for arr in contents.tensors.values()):
        raise CorruptFile(f"{contents.path}: bad model config ({config} "
                          f"has more parameters than the file holds)")
    return config


def save(m: ModelParams, path: str | Path) -> None:
    """Write an EFM2 container (layout in edgefit.container): config and
    bn_folded as metadata, and every tensor of all_tensors() by name."""
    container.write(path, MODEL_MAGIC,
                    {"config": dataclasses.asdict(m.config),
                     "bn_folded": m.bn_folded},
                    {name: arr.astype("<f4") for name, arr in m.all_tensors()})


def load(path: str | Path) -> ModelParams:
    """Read an EFM2 file: every tensor must have the dtype and shape of the
    one build gives for the file's config, and be finite, and no running
    variance may be negative, nor zero where the BN eps fold_batchnorm
    adds to it (bn_eps, or 0 once folded) is 0. The model holds the
    file's arrays themselves, each fresh and writable (container.read),
    so nothing is drawn or copied for it."""
    contents = container.read(path, MODEL_MAGIC)
    config = config_from_meta(contents)
    bn_folded = contents.meta.get("bn_folded")
    if not isinstance(bn_folded, bool):
        raise CorruptFile(f"{contents.path}: bn_folded is {bn_folded!r}")
    eps = 0.0 if bn_folded else config.bn_eps

    def take(name, shape):
        arr = contents.take(name, "<f4", shape)
        if not np.isfinite(arr).all():
            raise CorruptFile(f"{contents.path}: tensor {name} is not finite")
        if name.endswith(".var") and (arr <= 0 if eps == 0 else arr < 0).any():
            raise CorruptFile(f"{contents.path}: tensor {name} holds a "
                              f"negative variance, or a zero one with eps 0")
        return arr

    c, k = config.width, config.kernel
    # in all_tensors' order
    convs = [ConvLayer(*(take(f"{conv.name}.{f.name}",
                              (c, conv.in_channels, k) if f.name == "w"
                              else (c,))
                         for f in dataclasses.fields(ConvLayer)))
             for conv in topology(config)]
    m = ModelParams(config, convs,
                    take("head.w", (config.classes, config.seq_len * c)),
                    take("head.b", (config.classes,)), bn_folded)
    contents.finish()
    return m
