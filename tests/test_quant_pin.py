"""A pin of the integer inference path across changes to its code.

Each case writes a seeded EFQ3 file through container.write alone: int8
weights, float32 weight scales, int32 biases and one (scale, zero point)
per activation, named by model.activation_names and ModelParams.conv_layers.
It loads the file with quantize.load and compares SHA-256 digests with
constants: of qforward_batch's logits on seeded windows, of a few one-window
qforward calls, and of the bytes quantize.save writes for the loaded model.

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


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("width, convs_per_block", list(PINNED))
def test_integer_path_is_pinned(tmp_path, width, convs_per_block):
    config = ModelConfig(width=width, convs_per_block=convs_per_block)
    path = tmp_path / "seeded.efq"
    write_seeded_model(path, config, seed=width + convs_per_block)
    qm = quantize.load(path)
    x = (1.5 * np.random.default_rng(17).standard_normal(
        (37, config.in_channels, config.seq_len))).astype(np.float32)
    batched = quantize.qforward_batch(qm, x)
    single = np.stack([quantize.qforward(qm, x[i]) for i in (0, 5, 36)])
    np.testing.assert_array_equal(single, batched[[0, 5, 36]])
    resaved = tmp_path / "resaved.efq"
    quantize.save(qm, resaved)
    assert (digest(batched), digest(single),
            hashlib.sha256(resaved.read_bytes()).hexdigest()) == PINNED[
                (width, convs_per_block)]
