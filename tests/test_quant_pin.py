"""A pin of the integer inference path across changes to its code.

Each case writes a seeded EFQ3 file through container.write alone: int8
weights, float32 weight scales, int32 biases and one (scale, zero point)
per activation, named by model.activation_names and ModelParams.conv_layers.
It loads the file with quantize.load and compares SHA-256 digests with
constants: of qforward_batch's logits on seeded windows, of a few one-window
qforward calls, and of the bytes quantize.save writes for the loaded model.

A second set of cases pins a file at the edges the invariants admit:
zero points at -128 and 127, weights at +-127, biases next to the
accumulator bound and multiplier shifts of 31 and -30. Its digests were
taken from the integer path as it ran before the convs and the head folded
the input zero point into their constants.

Only the file format is used, not the in-memory model's fields, so the test
holds whatever the model's classes look like. The digests do not depend on
the host or on BLAS: the GEMMs multiply integers exactly, and every other
step is integer arithmetic or one correctly rounded IEEE float64 operation.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from edgefit import container, model, quantize
from edgefit.model import ModelConfig

# (width, convs_per_block) -> digests of (batched logits, one-window
# logits, the re-saved file)
PINNED = {
    (8, 3): (
        "cdfb7ab5aa72283312ba3eb5d5fe48ae5d8945d31e210577a60648d2c45be259",
        "34f6a9db30b96502b407594d7a560d0b5ac6e193068102dc3cf50cb9efe46297",
        "f5b1591a01165aa38f229e0ecae6022cd868219707ac8d6461bc0bc95c340e75",
    ),
    (52, 3): (
        "f4ce253b0d7b8bd59619bfb19625b7223874ec506a1b0b10bb4b42b3138e2be7",
        "04ba892a143d1fc7232d3834c9e5dba4c56edec7df35ef1964568bedbb9b2ede",
        "450b4e7d5fb04f92dcddca4a2e730fd28df664a5b129e32b5226ff9dae9fd3c0",
    ),
    (8, 1): (
        "1fc0888b04cd208f7c740fee8e389e909c7d1f0fb4fe05c754e188310754da77",
        "90fe0acba18a8559f897416cc42d23c56747ec2b43ac7d03ed24e9c368395341",
        "7c614444d4fc845e717b14ea23397a5ba18d97519a730246da046594520b1ac5",
    ),
}


def write_seeded_model(path, config, seed):
    """An EFQ3 file of config with seeded tensors and specs that pass
    check_quant_invariants: every scale ratio a multiplier encodes lies in
    about [1e-4, 3], and no accumulator comes near int32."""
    rng = np.random.default_rng(seed)
    tensors = {}
    layers = [(name, layer.w.shape)
              for name, layer in model.build(config, 0).conv_layers()]
    layers.append(("head", (config.classes, config.width * config.seq_len)))
    for name, shape in layers:
        fan_in = int(np.prod(shape[1:]))
        tensors[f"{name}.w_q"] = rng.integers(-127, 128, shape).astype("|i1")
        # about 0.4 / (73 sqrt(fan_in)): an accumulator of uniform int8
        # weights spreads about 73 sqrt(fan_in) times as wide as its operand
        tensors[f"{name}.w_scale"] = (rng.uniform(0.5, 1.5, shape[0]) * 0.4
                                      / (73 * np.sqrt(fan_in))).astype("<f4")
        tensors[f"{name}.bias_q"] = rng.integers(-2000, 2001,
                                                 shape[0]).astype("<i4")
    for name in model.activation_names(config):
        tensors[f"{name}.scale"] = np.array(rng.uniform(0.02, 0.05), "<f4")
        tensors[f"{name}.zero_point"] = np.array(rng.integers(-64, 65), "<i4")
    container.write(path, quantize.QUANT_MAGIC,
                    {"config": dataclasses.asdict(config)}, tensors)


# (width, convs_per_block, input zero point) -> the same digests for
# write_edge_model's file
PINNED_EDGES = {
    (8, 3, 127): (
        "d74ca5503b9aad4b1118fba487f2ece225544f0a74c91b546e557e5cc46b2fb3",
        "d50c7603270e35de51b242cb1b2b9568e9203389e5379385f90b13dbc7b87a32",
        "2b38fd7545de5f585b06fedde998975680566c7ba3cd2bd3ebb2f9e0cd38c742",
    ),
    (8, 1, -128): (
        "2d610bf9cea20516b52f24ddeba61ff99a96062ac7508c89fffc196d9803e60a",
        "60ccabc6bdd7aa8c420f24588455f9d14c3d36595298be92c44b0c6faa595a59",
        "8382573e8557245423c7510d0fa7c1a17b1a514e6f942ec39e1d1f6df8d8dc0c",
    ),
    (52, 3, 127): (
        "c774b3d50a56a39f26a4d57d17f65095fad9acf05ecf6c590c1144d4269e0598",
        "51c958cd3ffc6a70e6af5f986972c889f13cb3cd1f14ac01db8ad74282587869",
        "d4ead4ec49e0b9d1019b0a0155a72d45ffeebc10e4377efae606e4f1d9caa653",
    ),
}


def write_edge_model(path, config, seed, input_zp):
    """An EFQ3 file of config at the edges check_quant_invariants admits:
    every activation's zero point at -128 or 127 (the input's at
    input_zp), every weight at +-127 (channel 0 all +127, channel 1 all
    -127), and every even channel's bias within 1000 of the largest
    magnitude the accumulator bound leaves, 2^31 - 1 - fan_in*128*255.
    Each conv's channel 2 takes the smallest scale ratio a multiplier
    encodes (shift n = 31) and channel 3 the largest (n = -30). The other
    even channels take ratios that bring their bias to about +-128 quanta,
    so some saturate and some do not, and the odd ones, biased within
    +-2000, ratios that spread their accumulators over the int8 range."""
    rng = np.random.default_rng(seed)
    names = model.activation_names(config)
    convs = model.topology(config)
    # a ReLU output on a zero point of 127 is constant: only the convs
    # inside a block, whose chain the skip bypasses, may take one
    inner = {f"{conv.name}.out" for conv in convs[1:] if conv.add is None}
    unfused = {f"{conv.name}.out" for conv in convs if conv.add is not None}
    specs = {name: (rng.uniform(0.02, 0.05),
                    input_zp if name == "input" else 127 if name in unfused
                    else rng.choice([-128, 127]) if name in inner else -128)
             for name in names}
    tensors = {}
    for name, (scale, zp) in specs.items():
        tensors[f"{name}.scale"] = np.array(scale, "<f4")
        tensors[f"{name}.zero_point"] = np.array(zp, "<i4")
    # each layer with the scale of the activation it reads and writes
    layers = [(conv.name, layer.w.shape, conv.reads, f"{conv.name}.out")
              for conv, layer in zip(convs, model.build(config, 0).convs)]
    layers.append(("head", (config.classes, config.width * config.seq_len),
                   names[-1], None))
    for name, shape, reads, writes in layers:
        fan_in = int(np.prod(shape[1:]))
        w = np.where(rng.random(shape) < 0.5, 127, -127)
        w[0], w[1] = 127, -127
        bound = 2 ** 31 - 1 - fan_in * 128 * 255
        near = np.arange(shape[0]) % 2 == 0
        bias = np.where(near, rng.choice([-1, 1], shape[0]) * (
            bound - rng.integers(0, 1000, shape[0])),
            rng.integers(-2000, 2001, shape[0]))
        # a ratio s_in*s_w/s_out per channel; the head's s_out is 1
        ratio = rng.uniform(0.5, 1.5, shape[0]) * np.where(
            near, 128 / bound, 1 / (127 * np.sqrt(fan_in)))
        if writes is not None:
            ratio[2], ratio[3] = 1.5 * 2.0 ** -32, 0.75 * 2.0 ** 30
        s_in = float(np.float32(specs[reads][0]))
        s_out = 1.0 if writes is None else float(np.float32(specs[writes][0]))
        tensors[f"{name}.w_q"] = w.astype("|i1")
        tensors[f"{name}.w_scale"] = (ratio * s_out / s_in).astype("<f4")
        tensors[f"{name}.bias_q"] = bias.astype("<i4")
    container.write(path, quantize.QUANT_MAGIC,
                    {"config": dataclasses.asdict(config)}, tensors)


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def digests(path, config, tmp_path):
    """The digests of the EFQ3 file path of config: of qforward_batch's
    logits on 37 seeded windows, of three one-window qforward calls (which
    must equal their rows) and of the file quantize.save writes."""
    qm = quantize.load(path)
    x = (1.5 * np.random.default_rng(17).standard_normal(
        (37, config.in_channels, config.seq_len))).astype(np.float32)
    batched = quantize.qforward_batch(qm, x)
    single = np.stack([quantize.qforward(qm, x[i]) for i in (0, 5, 36)])
    np.testing.assert_array_equal(single, batched[[0, 5, 36]])
    resaved = tmp_path / "resaved.efq"
    quantize.save(qm, resaved)
    return (digest(batched), digest(single),
            hashlib.sha256(resaved.read_bytes()).hexdigest())


@pytest.mark.parametrize("width, convs_per_block", list(PINNED))
def test_integer_path_is_pinned(tmp_path, width, convs_per_block):
    config = ModelConfig(width=width, convs_per_block=convs_per_block)
    path = tmp_path / "seeded.efq"
    write_seeded_model(path, config, seed=width + convs_per_block)
    assert digests(path, config, tmp_path) == PINNED[(width, convs_per_block)]


@pytest.mark.parametrize("width, convs_per_block, input_zp", list(PINNED_EDGES))
def test_edges_are_pinned(tmp_path, width, convs_per_block, input_zp):
    config = ModelConfig(width=width, convs_per_block=convs_per_block)
    path = tmp_path / "edges.efq"
    write_edge_model(path, config, seed=width + convs_per_block,
                     input_zp=input_zp)
    assert digests(path, config, tmp_path) == PINNED_EDGES[
        (width, convs_per_block, input_zp)]
