"""The residual 1D CNN: one stem conv, three identity blocks of three convs,
and a dense classifier over the flattened activations.

Every convolution uses 'same' padding at stride 1, so all activations keep
the input length. Each identity block runs conv-BN-ReLU, conv-BN-ReLU,
conv-BN, adds the unmodified block input, and applies a final ReLU.

The float executor, forward_batch, runs in a ForwardPlan kept on the
model, as quantize.QuantPlan runs the int8 one: one block of
kernels.BLOCK windows' buffers (964 KB at width 52 in float32, 1.93 MB in
float64) and every conv's views into them, laid out at the model's first
call. Two contracts follow from what the plan holds:
- an unfolded model is the one training updates in place, so its plan
  holds no parameter and every edit or rebinding reaches the next call;
- a BN-folded model is a deployed model, as a QuantModel is: its plan
  also holds each conv's weights as the (C_out, C_in*K) GEMM matrix, a
  view of the model's own weights (296,400 B at width 52 that the plan
  does not own), and each conv's bias as a (1, C_out, L) row in the
  call's dtype (83,200 B at width 52 in float32, 166,400 B in float64).
  So no array of a folded model may be edited after its first call;
  fold it again, or save and load it, for a new plan.
The plan makes the calls on one model share its buffers, so one thread
at a time runs a model and a capture callback must not call
forward_batch on it; and a copy or a pickle of a model carries no plan,
but builds its own.
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

MODEL_MAGIC = b"EFM3"


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
    and output channels and the activation it reads. These records are
    the one source of every conv's channel counts: the weights, buffers,
    arena slots and head input of every executor are sized from them. A
    block's last conv also names skip, the index of the block's first
    conv, whose operand (the block input) it adds to its output before
    its ReLU, and that add."""

    name: str
    in_channels: int
    out_channels: int
    reads: str
    skip: int | None = None
    add: str | None = None


@functools.lru_cache(maxsize=64)
def topology(config: ModelConfig) -> tuple[Conv, ...]:
    """The convs of config in execution order: the stem, then each block's
    convs b{i}.c{j}, the last adding the block input as b{i}.add. Each
    conv writes {name}.out and each add {add}.out; every conv fuses a ReLU
    but a block's last, whose add does. The stem reads config.in_channels
    and every conv writes config.width channels, which every conv after
    the stem reads: this is the one place that reads config.width for a
    conv's channels, and every executor sizes its weights and buffers
    from the records. The head reads the last conv's out_channels *
    seq_len. The table is cached per config, so the executors walk it on
    every call without rebuilding it; its size grows with config.blocks *
    config.convs_per_block, so config_from_meta bounds a file's config by
    the file's tensor count before it is built."""
    convs = [Conv("stem", config.in_channels, config.width, "input")]
    for i in range(config.blocks):
        first = len(convs)
        for j in range(config.convs_per_block):
            reads = f"{convs[-1].add or convs[-1].name}.out"
            convs.append(Conv(f"b{i}.c{j}", config.width, config.width, reads))
        convs[-1] = convs[-1]._replace(skip=first, add=f"b{i}.add")
    return tuple(convs)


@dataclass
class ConvLayer:
    """One convolution with its batch-normalization parameters. The conv
    has no bias: BN subtracts its batch mean, so beta is the conv's one
    per-channel offset, BN's shift while the model is unfolded and the
    conv's bias once fold_batchnorm has folded it."""

    w: np.ndarray       # (C_out, C_in, K)
    gamma: np.ndarray   # (C_out,)
    beta: np.ndarray
    mean: np.ndarray    # running mean
    var: np.ndarray     # running variance


@dataclass
class ModelParams:
    config: ModelConfig
    convs: list[ConvLayer]   # one per record of topology(config), in order
    head_w: np.ndarray   # (classes, seq_len * the last conv's out_channels)
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
        """Yield (name, array) for every trainable tensor, fixed order:
        each conv's w, gamma and beta, then head.w and head.b. Running BN
        statistics are left out; they are updated by momentum, not by
        gradient descent.
        """
        for name, layer in self.conv_layers():
            yield f"{name}.w", layer.w
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
            gamma=np.ones(c_out, dtype=np.float32),
            beta=np.zeros(c_out, dtype=np.float32),
            mean=np.zeros(c_out, dtype=np.float32),
            var=np.ones(c_out, dtype=np.float32),
        )

    table = topology(config)
    convs = [conv_layer(conv.out_channels, conv.in_channels) for conv in table]
    flat = config.seq_len * table[-1].out_channels
    head_w = he_uniform((config.classes, flat), flat)
    head_b = np.zeros(config.classes, dtype=np.float32)
    return ModelParams(config, convs, head_w, head_b)


class ForwardPlan:
    """The float network's buffers for one block of kernels.BLOCK windows,
    laid out once per (config, dtype), with a folded model's parameters,
    and for each block size n every conv's views into them, bound at the
    first block of that size.

    The buffers: a zero-bordered pad buffer of the input, the skip buffer,
    which holds a residual block's input, one pad buffer that every other
    conv reads, one conv output, one patches buffer and a block of zeros
    of the conv output's shape, the ReLU's floor, which no call writes;
    963,968 B at width 52 in float32, twice that in float64. Conv i reads
    pads[i]; every ReLU runs in place in
    the contiguous conv output, and one copy moves the activation of
    every conv but the last into the interior of pads[i + 1]: the stem
    reads the input's pad buffer, a conv that starts a block reads the
    skip buffer, which the block's add reads too, and every other conv
    the one pad buffer. The head reads the last conv's activation from
    the conv output as its (n, width*seq_len) input, with no copy. Only
    the convs' interiors are ever written, so every border stays zero.
    A ReLU in place and a copy cost no more than a ReLU into a strided
    interior, and every capture then reduces a contiguous array (on
    perfbench's pipeline, quantize_s fell 5 %). Every size comes from
    topology's records, a buffer that several convs share sized for the
    widest of them.

    Each conv's step also binds the kernels.patch_views of its leading
    n*C_in*K*L patches, so that a call hands kernels.conv1d_same_batch
    both views of its patches and builds none.

    The plan of an unfolded model holds no parameter (weights and bias
    are None): forward_batch reads every layer's arrays at call time, and
    takes each conv's kernels.weight_matrix there, a view. The plan of a
    BN-folded model, built by ForwardPlan.of, also holds weights, each
    conv's kernels.weight_matrix, a view of its folded weights that takes
    no memory of its own, and bias, each conv's folded beta as a
    (1, C_out, L) row in the plan's dtype, 83,200 B at width 52 in
    float32 and 166,400 B in float64. A row meets a one-window conv
    output in its own shape (kernels.channel_rows): at width 52 a float32
    add of a (C_out, 1) column of beta took 1.65 us against 0.57 us for
    the row, and 11.1 against 6.3 us at 16 windows (timeit minima, numpy
    2.4.6)."""

    def __init__(self, config: ModelConfig, dtype: np.dtype):
        self.config, self.dtype = config, dtype
        convs = topology(config)
        nb, k, length = kernels.BLOCK, config.kernel, config.seq_len
        width = max(conv.out_channels for conv in convs)
        padded_in, skip, padded = (np.zeros((nb, c, length + k - 1), dtype)
                                   for c in (config.in_channels, width, width))
        starts = {conv.skip for conv in convs}
        self.pads = [padded_in] + [skip if i in starts else padded
                                   for i in range(1, len(convs))]
        self.out = np.empty((nb, width, length), dtype)
        # the ReLU's floor as an operand of the conv output's own shape:
        # against a scalar 0, np.maximum takes a slower loop
        self.zero = np.zeros((nb, width, length), dtype)
        self.patches = np.empty(
            nb * max(conv.in_channels for conv in convs) * k * length, dtype)
        # a folded model's parameters (of)
        self.weights: list[np.ndarray] | None = None
        self.bias: list[np.ndarray] | None = None
        self._bound: dict[int, tuple] = {}

    @classmethod
    def of(cls, m: ModelParams, dtype: np.dtype) -> ForwardPlan:
        """The plan of m's calls in dtype, with the weight matrices and
        the bias rows if m is folded, built from m's arrays as they are
        now."""
        plan = cls(m.config, dtype)
        if m.bn_folded:
            plan.weights = [kernels.weight_matrix(layer.w, m.config.kernel)
                            for layer in m.convs]
            plan.bias = [kernels.channel_rows(layer.beta.astype(dtype),
                                              m.config.seq_len)[None]
                         for layer in m.convs]
        return plan

    def bind(self, n: int) -> tuple:
        """The views a block of n windows runs in: the input's interior,
        one tuple per conv (its operand, the kernels.unfold view of its
        pad buffer; its weight matrix or None; its patch views and output;
        its bias row or None; the
        interior its add reads or None; the interior its activation is
        copied into, or None for the last conv, whose activation the head
        reads in place; and the names of its output and of the activation
        after its ReLU), the head input, the conv output flattened to
        (n, width*seq_len), and the ReLU's floor, the leading n rows of
        the zero block.

        Each view is built from the leading n rows of its C-contiguous pad
        buffer, themselves C-contiguous, so it aliases the buffer
        (kernels.unfold raises rather than view a copy), and every
        interior is kernels.interior of a view: what forward_batch writes
        there is what the next conv reads."""
        bound = self._bound.get(n)
        if bound is None:
            cfg = self.config
            k, length = cfg.kernel, cfg.seq_len
            out = self.out[:n]
            views = [kernels.unfold(pad[:n], k) for pad in self.pads]
            pads = [kernels.interior(view) for view in views]
            steps = tuple(
                (views[i],
                 None if self.weights is None else self.weights[i],
                 kernels.patch_views(
                     self.patches[:n * conv.in_channels * k * length].reshape(
                         n, -1, length), k),
                 out,
                 None if self.bias is None else self.bias[i],
                 None if conv.skip is None else pads[conv.skip],
                 pads[i + 1] if i + 1 < len(pads) else None,
                 f"{conv.name}.out",
                 f"{conv.add or conv.name}.out")
                for i, conv in enumerate(topology(cfg)))
            bound = self._bound[n] = (pads[0], steps, out.reshape(n, -1),
                                      self.zero[:n])
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
    built at its first call and again only when the model's config, its
    bn_folded or the call's dtype changes, as a microcontroller runtime
    plans its tensor arena once (TensorFlow Lite Micro): 964 KB at width
    52 in float32 (1.93 MB in float64), and for a folded model views of
    its weight matrices and 83,200 B of bias rows in float32 (166,400 B
    in float64), which the model keeps. A call allocates
    only the (B, classes) logits and a block's small temporaries, and its
    loop over the convs only calls kernels: each conv is
    kernels.conv1d_same_batch of the operands the plan bound, the unfold
    view of its pad buffer and the two views of its patches, and of its
    weight matrix, the plan's for a folded model, into the output buffer,
    looked up in kernels at call time. Then its bias, a residual
    add and the ReLU run in place there, and one copy moves the
    activation into the interior of the next conv's operand; the last
    conv's stays, and kernels.dense_batch reads the block's head input
    from the output buffer.

    The two kinds of model keep two contracts. An unfolded model's conv
    applies BN's mean and scale, then beta (in batchnorm_infer's order),
    and every parameter is read at call time, each conv's weights taken
    as their kernels.weight_matrix there, so an in-place edit or a
    rebound array, as training makes, reaches the next call, and weights
    whose shape misses the conv's raise ShapeMismatch. A folded model's
    conv multiplies the plan's weight matrix and adds the plan's
    (1, C_out, L) row of its beta, both built when the plan was, as
    quantize.QuantPlan holds an int8 model's: edit no array of a folded
    model after its first call (fold_batchnorm or load give a model with
    a fresh plan).

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
    windows, valid only during the call: the slice of x, or the
    contiguous output buffer.
    """
    cfg = m.config
    if x.ndim != 3 or x.shape[1:] != (cfg.in_channels, cfg.seq_len):
        raise ShapeMismatch(
            f"expected (B, {cfg.in_channels}, {cfg.seq_len}), got {x.shape}")
    # a model's tensors share one dtype
    dtype = np.result_type(x, m.convs[0].w)
    plan = m.plan
    if plan is None or ((plan.config, plan.dtype, plan.bias is not None)
                        != (cfg, dtype, m.bn_folded)):
        plan = m.plan = ForwardPlan.of(m, dtype)
    logits = np.empty((len(x), cfg.classes),
                      np.result_type(dtype, m.head_w, m.head_b))
    for start in range(0, len(x), kernels.BLOCK):
        rows = slice(start, start + kernels.BLOCK)
        block = x[rows]
        inputs, steps, head_in, zero = plan.bind(len(block))
        if capture is not None:
            capture("input", block)
        inputs[...] = block
        for layer, (operand, w, patches, out, bias, skip, next_in, name,
                    relu_name) in zip(m.convs, steps):
            if w is None:           # unfolded: the layer's weights now
                w = kernels.weight_matrix(layer.w, cfg.kernel)
            y = kernels.conv1d_same_batch(operand, w, out, patches=patches)
            if bias is not None:    # folded: the plan's row of beta
                y += bias
            else:                   # in batchnorm_infer's order
                y -= layer.mean[:, None]
                y *= (layer.gamma / np.sqrt(layer.var + cfg.bn_eps))[:, None]
                y += layer.beta[:, None]
            if skip is not None:
                if capture is not None:
                    capture(name, y)
                y += skip
            np.maximum(y, zero, out=y)
            if capture is not None:
                capture(relu_name, y)
            if next_in is not None:
                next_in[...] = y
        logits[rows] = kernels.dense_batch(head_in, m.head_w, m.head_b)
    return logits


def forward(m: ModelParams, x: np.ndarray) -> np.ndarray:
    """Single-window forward (in_channels, seq_len) -> logits (classes,):
    a one-window forward_batch, whose logits and activations equal the
    window's of any batched call bit for bit. A window of another shape
    raises forward_batch's ShapeMismatch, which names x[None]'s shape."""
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


def arena_plan(config: ModelConfig) -> tuple[dict[str, int], int]:
    """The int8 activation arena of one window, as quantize.QuantPlan lays
    it out: the byte offset of every activation of activation_names(config)
    and of the head's int32 accumulators, head.acc, and the arena's size,
    the end of the furthest of them. Each of three slots holds the widest
    conv output. Slot 0 holds every block's input, which its add reads,
    and the head's: every add writes there, as does a conv without an add
    whose output the next conv starts a block from (the stem). The other
    convs alternate between slots 1 and 2. The input and the head's
    accumulators sit at slot 1, above slot 0, where no conv output lives
    while they do: the input dies once the stem has run."""
    convs, length = topology(config), config.seq_len
    starts = {conv.skip for conv in convs}
    slot = [i * length * max(conv.out_channels for conv in convs)
            for i in range(3)]
    placed = {"input": (slot[1], config.in_channels * length)}  # offset, size
    for i, conv in enumerate(convs):
        src, size = placed[conv.reads][0], conv.out_channels * length
        dst = (0 if conv.add is None and i + 1 in starts
               else slot[2] if src == slot[1] else slot[1])
        placed[f"{conv.name}.out"] = dst, size
        if conv.add is not None:
            placed[f"{conv.add}.out"] = 0, size
    placed["head.acc"] = slot[1], config.classes * 4
    return ({name: offset for name, (offset, _) in placed.items()},
            max(map(sum, placed.values())))


def count_macs(config: ModelConfig) -> MacReport:
    """Per-layer multiply-accumulate counts and memory footprint estimates,
    read off topology(config)'s records.

    Counting convention: one MAC per multiply-accumulate in convolutions and
    the dense head; BN, ReLU, and the residual add are excluded. Flash
    assumes int8 weights, and an int32 bias and one float32 scale per
    output channel. Peak activations are the int8 arena arena_plan lays
    out, which keeps the block input alive for the skip connection: inside
    a block the skip, a conv's input and its output, which is two buffers
    when the block's one conv reads the skip itself.
    """
    config.validate()
    convs, l, k = topology(config), config.seq_len, config.kernel
    per_layer = {conv.name: l * k * conv.in_channels * conv.out_channels
                 for conv in convs}
    per_layer["head"] = l * convs[-1].out_channels * config.classes
    weights = sum(k * conv.in_channels * conv.out_channels
                  for conv in convs) + per_layer["head"]
    biases = sum(conv.out_channels for conv in convs) + config.classes
    return MacReport(per_layer=per_layer, total=sum(per_layer.values()),
                     param_count=weights + biases,
                     flash_bytes_int8=weights + biases * (4 + 4),
                     peak_activation_bytes=arena_plan(config)[1])


def fold_batchnorm(m: ModelParams) -> ModelParams:
    """Absorb every BN into its convolution: w' = w*g/sqrt(v+eps) per output
    channel, and beta' = beta - mean*g/sqrt(v+eps) becomes the conv's bias.
    The result skips BN's mean and scale (gamma 1, mean 0, var 1 and
    bn_eps 0, which load requires of a folded file), so folding again is
    a no-op."""
    out = copy.deepcopy(m)
    eps = m.config.bn_eps if not m.bn_folded else 0.0
    for layer in out.convs:
        scale = (layer.gamma / np.sqrt(layer.var + eps)).astype(np.float32)
        layer.w = (layer.w * scale[:, None, None]).astype(np.float32)
        layer.beta = (layer.beta - layer.mean * scale).astype(np.float32)
        c = layer.beta.shape[0]
        layer.gamma = np.ones(c, dtype=np.float32)
        layer.mean = np.zeros(c, dtype=np.float32)
        layer.var = np.ones(c, dtype=np.float32)
    out.config = dataclasses.replace(m.config, bn_eps=0.0)
    out.bn_folded = True
    return out


def config_from_meta(contents: container.Contents) -> ModelConfig:
    """The ModelConfig in a model container's metadata. CorruptFile unless
    it is valid, every dimension is an int, the file holds at least as
    many tensors as the config has convs (each stores three or more),
    checked first, as it bounds the table topology and count_macs build
    for the config, and at least as many tensor elements as count_macs
    counts parameters, which bounds what a loader allocates for it."""
    try:
        config = ModelConfig(**contents.meta["config"])
        dims = dataclasses.astuple(config)[:-1]      # every field but bn_eps
        if any(type(d) is not int for d in dims):
            raise TypeError(f"non-integer dimension in {config}")
        config.validate()
    except (KeyError, TypeError, ValueError, OverflowError,
            InvalidConfig) as e:
        raise CorruptFile(f"{contents.path}: bad model config ({e})") from None
    if (1 + config.blocks * config.convs_per_block > len(contents.tensors)
            or count_macs(config).param_count > sum(
                arr.size for arr in contents.tensors.values())):
        raise CorruptFile(f"{contents.path}: bad model config ({config} "
                          f"has more convs or parameters than the file holds)")
    return config


def save(m: ModelParams, path: str | Path) -> None:
    """Write an EFM3 container (layout in edgefit.container): config and
    bn_folded as metadata, and every tensor of all_tensors() by name."""
    container.write(path, MODEL_MAGIC,
                    {"config": dataclasses.asdict(m.config),
                     "bn_folded": m.bn_folded},
                    {name: arr.astype("<f4") for name, arr in m.all_tensors()})


def load(path: str | Path) -> ModelParams:
    """Read an EFM3 file: every tensor must have the dtype and shape of the
    one build gives for the file's config, and be finite. A folded file
    must hold fold_batchnorm's identity statistics, every gamma and var 1
    and every mean 0: forward_batch skips them, so any other value would
    make forward_batch and a second fold_batchnorm run different
    networks. In an unfolded file no running variance may be negative,
    nor zero where bn_eps, which fold_batchnorm adds to it, is 0. The
    model holds the file's arrays themselves, each fresh and writable
    (container.read), so nothing is drawn or copied for it."""
    contents = container.read(path, MODEL_MAGIC)
    config = config_from_meta(contents)
    bn_folded = contents.meta.get("bn_folded")
    if not isinstance(bn_folded, bool):
        raise CorruptFile(f"{contents.path}: bn_folded is {bn_folded!r}")
    identity = {"gamma": 1, "mean": 0, "var": 1} if bn_folded else {}

    def take(name, shape):
        arr = contents.take(name, "<f4", shape)
        if not np.isfinite(arr).all():
            raise CorruptFile(f"{contents.path}: tensor {name} is not finite")
        want = identity.get(name.rpartition(".")[2])
        if want is not None and (arr != want).any():
            raise CorruptFile(f"{contents.path}: tensor {name} of a BN-folded "
                              f"model is not {want} throughout")
        if name.endswith(".var") and (
                arr <= 0 if config.bn_eps == 0 else arr < 0).any():
            raise CorruptFile(f"{contents.path}: tensor {name} holds a "
                              f"negative variance, or a zero one with eps 0")
        return arr

    def conv_layer(name, shape):      # its tensors in all_tensors' order
        return ConvLayer(*(take(f"{name}.{f.name}",
                                shape if f.name == "w" else shape[:1])
                           for f in dataclasses.fields(ConvLayer)))

    table = topology(config)
    convs = [conv_layer(conv.name, (conv.out_channels, conv.in_channels,
                                    config.kernel)) for conv in table]
    flat = config.seq_len * table[-1].out_channels
    m = ModelParams(config, convs, take("head.w", (config.classes, flat)),
                    take("head.b", (config.classes,)), bn_folded)
    contents.finish()
    return m
