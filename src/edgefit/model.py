"""The residual 1D CNN: one stem conv, three identity blocks of three convs,
and a dense classifier over the flattened activations.

Every convolution uses 'same' padding at stride 1, so all activations keep
the input length. Each identity block runs conv-BN-ReLU, conv-BN-ReLU,
conv-BN, adds the unmodified block input, and applies a final ReLU.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
    stem: ConvLayer
    blocks: list[list[ConvLayer]]
    head_w: np.ndarray   # (classes, seq_len*width)
    head_b: np.ndarray   # (classes,)
    bn_folded: bool = False

    def conv_layers(self):
        """Yield (name, ConvLayer) in execution order."""
        yield "stem", self.stem
        for i, block in enumerate(self.blocks):
            for j, layer in enumerate(block):
                yield f"b{i}.c{j}", layer

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
            for attr in ("w", "b", "gamma", "beta", "mean", "var"):
                yield f"{name}.{attr}", getattr(layer, attr)
        yield "head.w", self.head_w
        yield "head.b", self.head_b

    def copy(self) -> "ModelParams":
        def cl(layer: ConvLayer) -> ConvLayer:
            return ConvLayer(*(getattr(layer, a).copy()
                               for a in ("w", "b", "gamma", "beta", "mean", "var")))
        return ModelParams(
            config=self.config,
            stem=cl(self.stem),
            blocks=[[cl(l) for l in blk] for blk in self.blocks],
            head_w=self.head_w.copy(),
            head_b=self.head_b.copy(),
            bn_folded=self.bn_folded,
        )


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

    c = config.width
    stem = conv_layer(c, config.in_channels)
    blocks = [[conv_layer(c, c) for _ in range(config.convs_per_block)]
              for _ in range(config.blocks)]
    flat = config.seq_len * c
    head_w = he_uniform((config.classes, flat), flat)
    head_b = np.zeros(config.classes, dtype=np.float32)
    return ModelParams(config, stem, blocks, head_w, head_b)


def forward_batch(m: ModelParams, x: np.ndarray,
                  capture: Callable[[str, np.ndarray], object] | None = None
                  ) -> np.ndarray:
    """Inference forward over a batch (B, in_channels, seq_len) -> (B, classes).

    The batch runs depth-first: each block of kernels.BLOCK windows goes
    through the whole conv stack before the next block starts, in buffers
    sized for one block (the fused layers of Alwani et al., 2016), so its
    feature maps stay in the cache, and a call allocates one block's
    buffers (830 KB at width 52) and the (B, seq_len*width) head input.
    Every conv is kernels.conv1d_same_batch into one output buffer, which
    copies its input into a zero-bordered pad buffer first: a residual
    block's first conv into the skip buffer, which keeps the block's input
    for the add, and every other conv into one shared buffer. The bias,
    BN unless folded (in batchnorm_infer's order), the ReLU and the
    residual add then run in place on the output. The head runs once over
    the whole batch, so every activation and logit equals a layer-by-layer
    run's bit for bit, whatever the batch.

    With capture given, capture(name, activation) is called for every
    activation of activation_names(m.config), in that order, once per
    block. The activation is a contiguous (n, C, seq_len) view of that
    block's windows, valid only during the call.
    """
    cfg = m.config
    if x.ndim != 3 or x.shape[1:] != (cfg.in_channels, cfg.seq_len):
        raise ShapeMismatch(
            f"expected (B, {cfg.in_channels}, {cfg.seq_len}), got {x.shape}")
    dtype = np.result_type(x, m.stem.w)   # a model's tensors share one dtype
    batch, width, length, k = len(x), cfg.width, cfg.seq_len, cfg.kernel
    nb = min(batch, kernels.BLOCK)
    interior = slice((k - 1) // 2, (k - 1) // 2 + length)
    padded_in = np.zeros((nb, cfg.in_channels, length + k - 1), dtype)
    skip = np.zeros((nb, width, length + k - 1), dtype)
    padded = np.zeros((nb, width, length + k - 1), dtype)
    out = np.empty((nb, width, length), dtype)
    patches = np.empty(nb * max(cfg.in_channels, width) * k * length, dtype)
    flat = np.empty((batch, width * length), dtype)

    def conv(layer: ConvLayer, a: np.ndarray, pad_buf: np.ndarray
             ) -> np.ndarray:
        n, c_in = a.shape[:2]
        y = kernels.conv1d_same_batch(
            a, layer.w, layer.b, out[:n], padded=pad_buf[:n],
            patches=patches[:n * c_in * k * length].reshape(n, c_in * k, length))
        if not m.bn_folded:     # in batchnorm_infer's order
            y -= layer.mean[:, None]
            y *= (layer.gamma / np.sqrt(layer.var + cfg.bn_eps))[:, None]
            y += layer.beta[:, None]
        return y

    def record(name: str, a: np.ndarray) -> None:
        if capture is not None:
            capture(name, a)

    for start in range(0, batch, kernels.BLOCK):
        a = x[start:start + kernels.BLOCK]
        n = len(a)
        record("input", a)
        a = conv(m.stem, a, padded_in)
        np.maximum(a, 0, out=a)
        record("stem.out", a)
        for i, block in enumerate(m.blocks):
            for j, layer in enumerate(block):
                a = conv(layer, a, skip if j == 0 else padded)
                if j < len(block) - 1:
                    np.maximum(a, 0, out=a)
                record(f"b{i}.c{j}.out", a)
            a += skip[:n, :, interior]
            np.maximum(a, 0, out=a)
            record(f"b{i}.add.out", a)
        flat[start:start + n] = a.reshape(n, -1)
    return kernels.dense_batch(flat, m.head_w, m.head_b)


def forward(m: ModelParams, x: np.ndarray) -> np.ndarray:
    """Single-window forward (in_channels, seq_len) -> logits (classes,)."""
    cfg = m.config
    if x.ndim != 2 or x.shape != (cfg.in_channels, cfg.seq_len):
        raise ShapeMismatch(
            f"expected ({cfg.in_channels}, {cfg.seq_len}), got {x.shape}")
    logits = forward_batch(m, x[None])[0]
    return kernels.check_finite(logits, "logits")


def activation_names(config: ModelConfig) -> list[str]:
    """The name of every activation the int8 model quantizes, in execution
    order: input, stem.out, each conv's b{i}.c{j}.out (after its ReLU, if
    it has one) and each residual add's b{i}.add.out. forward_batch
    captures them, quantize.calibrate ranges them, and an EFQ3 file and
    the int8 trace store them under these names."""
    names = ["input", "stem.out"]
    for i in range(config.blocks):
        names += [f"b{i}.c{j}.out" for j in range(config.convs_per_block)]
        names.append(f"b{i}.add.out")
    return names


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
    per_layer: dict[str, int] = {"stem": l * k * config.in_channels * c}
    for i in range(config.blocks):
        for j in range(config.convs_per_block):
            per_layer[f"b{i}.c{j}"] = l * k * c * c
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
    out = m.copy()
    eps = m.config.bn_eps if not m.bn_folded else 0.0
    for _, layer in out.conv_layers():
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
    variance may be negative."""
    contents = container.read(path, MODEL_MAGIC)
    m = build(config_from_meta(contents), 0)
    for name, arr in m.all_tensors():
        arr[...] = contents.take(name, "<f4", arr.shape)
        if not np.isfinite(arr).all():
            raise CorruptFile(f"{contents.path}: tensor {name} is not finite")
        if name.endswith(".var") and (arr < 0).any():
            raise CorruptFile(f"{contents.path}: tensor {name} holds a "
                              f"negative variance")
    contents.finish()
    m.bn_folded = contents.meta.get("bn_folded")
    if not isinstance(m.bn_folded, bool):
        raise CorruptFile(f"{contents.path}: bn_folded is {m.bn_folded!r}")
    return m
