import copy
import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import (
    captured,
    conv1d_same,
    dense,
    layerwise_forward,
    make_random_windows,
    randomize_bn,
    regrouped,
)
from edgefit import container, kernels, model, quantize
from edgefit.errors import (
    CorruptFile,
    InvalidConfig,
    ShapeMismatch,
    VersionMismatch,
)
from edgefit.model import ModelConfig, build, count_macs, fold_batchnorm, forward


class TestBuild:
    def test_deterministic(self):
        cfg = ModelConfig(width=4)
        a, b = build(cfg, seed=42), build(cfg, seed=42)
        for (na, ta), (nb, tb) in zip(a.all_tensors(), b.all_tensors()):
            assert na == nb
            assert ta.tobytes() == tb.tobytes()

    def test_seed_changes_weights(self):
        cfg = ModelConfig(width=4)
        a, b = build(cfg, seed=1), build(cfg, seed=2)
        assert not np.array_equal(a.convs[0].w, b.convs[0].w)

    def test_shapes(self):
        m = build(ModelConfig(width=4), seed=0)
        assert len(m.convs) == 10
        assert m.convs[0].w.shape == (4, 7, 3)
        assert all(layer.w.shape == (4, 4, 3) for layer in m.convs[1:])
        assert m.head_w.shape == (12, 160)
        assert m.head_b.shape == (12,)

    def test_bn_initialized_near_identity(self, rng):
        m = build(ModelConfig(width=4, bn_eps=0.0), seed=0)
        x = rng.standard_normal((4, 40)).astype(np.float32)
        stem = m.convs[0]
        y = kernels.batchnorm_infer(x, stem.gamma, stem.beta,
                                    stem.mean, stem.var, 0.0)
        np.testing.assert_allclose(y, x, rtol=1e-6)

    def test_he_bound(self):
        m = build(ModelConfig(width=4), seed=0)
        bound = np.sqrt(6.0 / (7 * 3))
        assert np.abs(m.convs[0].w).max() <= bound

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            build(ModelConfig(width=0), seed=0)
        with pytest.raises(InvalidConfig):
            build(ModelConfig(kernel=2), seed=0)
        with pytest.raises(InvalidConfig):
            build(ModelConfig(bn_eps=float("nan")), seed=0)


class TestTopology:
    def test_records_spelled_out(self):
        Conv = model.Conv
        assert model.topology(ModelConfig(blocks=2, convs_per_block=1)) == (
            Conv("stem", 7, 52, "input"),
            Conv("b0.c0", 52, 52, "stem.out", 1, "b0.add"),
            Conv("b1.c0", 52, 52, "b0.add.out", 2, "b1.add"))
        assert model.topology(ModelConfig()) == (
            Conv("stem", 7, 52, "input"),
            Conv("b0.c0", 52, 52, "stem.out"),
            Conv("b0.c1", 52, 52, "b0.c0.out"),
            Conv("b0.c2", 52, 52, "b0.c1.out", 1, "b0.add"),
            Conv("b1.c0", 52, 52, "b0.add.out"),
            Conv("b1.c1", 52, 52, "b1.c0.out"),
            Conv("b1.c2", 52, 52, "b1.c1.out", 4, "b1.add"),
            Conv("b2.c0", 52, 52, "b1.add.out"),
            Conv("b2.c1", 52, 52, "b2.c0.out"),
            Conv("b2.c2", 52, 52, "b2.c1.out", 7, "b2.add"))

    @pytest.mark.parametrize("blocks, convs_per_block",
                             itertools.product([1, 2, 3], repeat=2))
    @pytest.mark.parametrize("width", [4, 52])
    @pytest.mark.parametrize("kernel", [3, 5])
    def test_closed_form_counts_match_records(self, blocks, convs_per_block,
                                              width, kernel):
        """count_macs, which sums topology's records, counts the arrays
        build sizes from them: a conv's MACs are its weights times
        seq_len, the head's its weights, and flash holds a byte per weight
        and an int32 bias and a float32 scale per output channel."""
        cfg = ModelConfig(width=width, kernel=kernel, blocks=blocks,
                          convs_per_block=convs_per_block)
        m, report = build(cfg, seed=0), count_macs(cfg)
        weights = sum(layer.w.size for layer in m.convs) + m.head_w.size
        biases = sum(layer.beta.size for layer in m.convs) + m.head_b.size
        assert report.param_count == weights + biases
        assert report.flash_bytes_int8 == weights + 8 * biases
        assert report.per_layer == {
            **{name: layer.w.size * cfg.seq_len
               for name, layer in m.conv_layers()}, "head": m.head_w.size}

    def test_built_once_per_config(self):
        table = model.topology(ModelConfig(width=6, blocks=2))
        assert model.topology(ModelConfig(width=6, blocks=2)) is table
        assert [name for name, _ in build(ModelConfig(width=6, blocks=2),
                                          0).conv_layers()] == [
            conv.name for conv in table]


class TestForward:
    def test_zero_weights_zero_input_gives_head_bias(self, rng):
        m = build(ModelConfig(width=4), seed=0)
        for _, layer in m.conv_layers():
            layer.w[:] = 0
        m.head_w[:] = 0
        m.head_b = rng.standard_normal(12).astype(np.float32)
        logits = forward(m, np.zeros((7, 40), np.float32))
        np.testing.assert_array_equal(logits, m.head_b)

    def test_deterministic(self, rng):
        m = build(ModelConfig(width=4), seed=0)
        x = rng.standard_normal((7, 40)).astype(np.float32)
        assert np.array_equal(forward(m, x), forward(m, x))

    @pytest.mark.parametrize("shape", [(7, 39), (6, 40), (7,), (1, 7, 40)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("executor", ["float", "int8"])
    def test_shape_check(self, executor, shape):
        """One check per executor, forward_batch's or qforward_batch's, on
        the window as a batch of one, rejects every other shape."""
        m = build(ModelConfig(width=4), seed=0)
        if executor == "int8":
            folded = fold_batchnorm(m)
            m = quantize.quantize_model(folded, quantize.calibrate(
                folded, make_random_windows(8)))
        run = {"float": forward, "int8": quantize.qforward}[executor]
        with pytest.raises(ShapeMismatch, match=r"got \(1, "):
            run(m, np.zeros(shape, np.float32))

    def test_compositional_oracle_tiny_variant(self, rng):
        """A hand-composed chain of tensor-core calls must reproduce
        forward() on a small-width, short-sequence test variant."""
        cfg = ModelConfig(width=2, seq_len=4)
        m = randomize_bn(build(cfg, seed=5), seed=6)
        x = rng.standard_normal((7, 4)).astype(np.float32)

        def bn(layer, t):
            return kernels.batchnorm_infer(t, layer.gamma, layer.beta,
                                           layer.mean, layer.var, cfg.bn_eps)

        stem, blocks = regrouped(m.convs, cfg)
        a = kernels.relu(bn(stem, conv1d_same(x, stem.w)))
        for blk in blocks:
            skip = a
            h = kernels.relu(bn(blk[0], conv1d_same(a, blk[0].w)))
            h = kernels.relu(bn(blk[1], conv1d_same(h, blk[1].w)))
            h = bn(blk[2], conv1d_same(h, blk[2].w))
            a = kernels.relu(kernels.add(h, skip))
        expected = dense(a.reshape(-1), m.head_w, m.head_b)
        np.testing.assert_allclose(forward(m, x), expected, atol=1e-6)

    def test_every_activation_keeps_input_length(self, rng):
        m = build(ModelConfig(width=4), seed=0)
        _, capture = captured(
            m, rng.standard_normal((2, 7, 40)).astype(np.float32))
        for name, arr in capture.items():
            assert arr.shape[-1] == 40, name

    def test_skip_ablation(self, rng):
        """Zero conv weights and identity BN turn a block into ReLU(input)."""
        m = build(ModelConfig(width=4, bn_eps=0.0), seed=0)
        for layer in m.convs[1:]:
            layer.w[:] = 0
        x = rng.standard_normal((1, 7, 40)).astype(np.float32)
        _, capture = captured(m, x)
        stem_out = capture["stem.out"]
        np.testing.assert_array_equal(capture["b0.add.out"],
                                      kernels.relu(stem_out))
        np.testing.assert_array_equal(capture["b2.add.out"],
                                      stem_out * (stem_out > 0))


class TestDepthFirst:
    """forward_batch runs each block of kernels.BLOCK windows through the
    whole conv stack in one block's buffers."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("folded", [False, True])
    @pytest.mark.parametrize("convs_per_block", [1, 3])
    @pytest.mark.parametrize("width", [4, 52])
    def test_bit_identical_to_layerwise(self, width, convs_per_block, folded,
                                        dtype):
        """Logits and every captured activation equal the layer-by-layer
        oracle's, dtype included, for batches inside one block, of exactly
        one block, over several blocks with a partial last one, and of
        512 windows."""
        self.check_against_layerwise(
            ModelConfig(width=width, convs_per_block=convs_per_block),
            folded, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("folded", [False, True])
    @pytest.mark.parametrize("blocks, convs_per_block", [(1, 1), (1, 3),
                                                         (3, 2)])
    def test_block_shapes_bit_identical_to_layerwise(
            self, blocks, convs_per_block, folded, dtype):
        """One residual block, and blocks of two convs, whose last conv
        reads its first's output, against the same oracle."""
        self.check_against_layerwise(
            ModelConfig(width=4, blocks=blocks,
                        convs_per_block=convs_per_block), folded, dtype)

    @staticmethod
    def check_against_layerwise(config, folded, dtype):
        m = randomize_bn(build(config, seed=config.width),
                         seed=config.convs_per_block)
        if folded:
            m = fold_batchnorm(m)
        x = np.random.default_rng(config.width).standard_normal(
            (512, 7, 40)).astype(dtype)
        for batch in (1, 3, kernels.BLOCK, 2 * kernels.BLOCK + 3, 512):
            expected_acts = {}
            expected = layerwise_forward(m, x[:batch], expected_acts)
            logits, acts = captured(m, x[:batch])
            assert logits.dtype == expected.dtype == dtype
            np.testing.assert_array_equal(logits, expected)
            assert list(acts) == model.activation_names(m.config)
            assert list(expected_acts) == list(acts)
            for name, arr in expected_acts.items():
                assert acts[name].dtype == arr.dtype == dtype, name
                np.testing.assert_array_equal(acts[name], arr, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("folded", [False, True])
    @pytest.mark.parametrize("width", [4, 52])
    def test_activations_and_logits_batch_invariant(self, width, folded,
                                                    dtype):
        """Each window's logits and activations equal its rows of a
        300-window call bit for bit: in a one-window call, through forward
        and through forward_batch, and in a split of the batch into calls
        of 37 windows, whose blocks start at other windows."""
        m = randomize_bn(build(ModelConfig(width=width), seed=6))
        if folded:
            m = fold_batchnorm(m)
        x = np.stack([w.data for w in make_random_windows(300, seed=7)]
                     ).astype(dtype)
        logits, acts = captured(m, x)
        for i in range(0, 300, 17):
            one, one_acts = captured(m, x[i:i + 1])
            for name, arr in one_acts.items():
                np.testing.assert_array_equal(arr[0], acts[name][i],
                                              err_msg=name)
            for single in (one[0], forward(m, x[i])):
                assert single.dtype == logits.dtype
                assert single.tobytes() == logits[i].tobytes()
        for i in range(0, 300, 37):
            part, part_acts = captured(m, x[i:i + 37])
            assert part.tobytes() == logits[i:i + 37].tobytes()
            for name, arr in part_acts.items():
                np.testing.assert_array_equal(arr, acts[name][i:i + 37],
                                              err_msg=name)

    def test_capture_once_per_block(self, rng):
        m = build(ModelConfig(width=4), seed=0)
        calls = []
        batch = 2 * kernels.BLOCK + 3
        model.forward_batch(
            m, rng.standard_normal((batch, 7, 40)).astype(np.float32),
            capture=lambda name, arr: calls.append((name, len(arr))))
        names = model.activation_names(m.config)
        assert calls == [(name, n) for n in (kernels.BLOCK, kernels.BLOCK, 3)
                         for name in names]

    def test_empty_batch(self):
        m = build(ModelConfig(width=4), seed=0)
        logits = model.forward_batch(m, np.zeros((0, 7, 40), np.float32))
        assert logits.shape == (0, 12)

    @pytest.mark.parametrize("batch", [1, 16, 512])
    def test_allocations_bounded(self, rng, batch):
        """At width 52 a steady call allocates the logits and a block's
        small temporaries, the BN factors' and the head's: the block
        buffers are the model's plan, laid out by its first call, and the
        head reads each block's input from them. One window fits in 32 KB
        and 16 in 256 KB, where a call that allocated one block's buffers
        took 70 KB and 976 KB; 512 windows fit in 128 KB, where a call
        that allocated their (512, 2080) head input took 4.2 MB."""
        m = randomize_bn(build(ModelConfig(width=52), seed=0))
        x = rng.standard_normal((batch, 7, 40)).astype(np.float32)
        bound = {1: 32 * 1024, 16: 256 * 1024, 512: 128 * 1024}[batch]
        model.forward_batch(m, x)
        tracemalloc.start()
        try:
            model.forward_batch(m, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestForwardPlan:
    """forward_batch runs in a ForwardPlan that the model keeps: buffers
    and views only, so parameters and the kernels module are read at call
    time."""

    BATCHES = (1, kernels.BLOCK, 2 * kernels.BLOCK + 3, 1)

    def test_alternating_batches_and_dtypes_bit_identical(self):
        """One model, batches of 1, 16, 35 and 1 windows, each in float32
        and float64: logits and every captured activation equal the
        layer-by-layer oracle's, captured in activation_names order once
        per block."""
        cfg = ModelConfig(width=8)
        m = randomize_bn(build(cfg, seed=1), seed=2)
        x = np.random.default_rng(3).standard_normal((64, 7, 40))
        names = model.activation_names(cfg)
        for batch in self.BATCHES:
            for dtype in (np.float32, np.float64):
                xb = x[:batch].astype(dtype)
                calls = []
                model.forward_batch(
                    m, xb, capture=lambda name, a: calls.append((name, len(a))))
                sizes = [min(kernels.BLOCK, batch - i)
                         for i in range(0, batch, kernels.BLOCK)]
                assert calls == [(name, n) for n in sizes for name in names]
                expected_acts = {}
                expected = layerwise_forward(m, xb, expected_acts)
                logits, acts = captured(m, xb)
                assert logits.dtype == expected.dtype == dtype
                np.testing.assert_array_equal(logits, expected)
                assert list(acts) == list(expected_acts) == names
                for name, arr in expected_acts.items():
                    np.testing.assert_array_equal(acts[name], arr,
                                                  err_msg=name)

    def test_built_once_per_model_config_and_dtype(self, monkeypatch):
        built = []

        class Counted(model.ForwardPlan):
            def __init__(self, config, dtype):
                built.append((config, dtype))
                super().__init__(config, dtype)

        monkeypatch.setattr(model, "ForwardPlan", Counted)
        cfg = ModelConfig(width=4)
        m, other = build(cfg, seed=0), build(cfg, seed=1)
        x = np.random.default_rng(0).standard_normal((64, 7, 40))

        def run(model_params, dtype):
            for batch in self.BATCHES:
                model.forward_batch(model_params, x[:batch].astype(dtype))

        run(m, np.float32)
        assert built == [(cfg, np.float32)]
        run(m, np.float64)
        assert built[1:] == [(cfg, np.float64)]
        run(other, np.float64)
        assert len(built) == 3
        m.config = dataclasses.replace(cfg, bn_eps=0.5)
        run(m, np.float64)
        assert built[3:] == [(m.config, np.float64)]
        run(m, np.float64)
        assert len(built) == 4
        plan = {f.name: f for f in dataclasses.fields(m)}["plan"]
        assert not (plan.compare or plan.repr or plan.init)

    @pytest.mark.parametrize("edit", ["weight", "rebound_weight",
                                      "running_stats", "head"])
    def test_parameter_edits_reach_next_call(self, rng, edit):
        """The plan of an unfolded model holds no parameter: after an
        in-place edit, as Adam makes, or a rebinding of a layer's weights
        or of its mean and var, as the running statistics' update makes,
        the next logits equal a fresh model's."""
        m = randomize_bn(build(ModelConfig(width=8), seed=0))
        x = rng.standard_normal((2 * kernels.BLOCK + 3, 7, 40)).astype(
            np.float32)
        before = model.forward_batch(m, x)
        if edit == "weight":
            m.convs[4].w *= 1.5
            m.convs[4].beta += 0.25
        elif edit == "rebound_weight":
            m.convs[4].w = m.convs[4].w * 1.5
        elif edit == "running_stats":
            layer = m.convs[3]
            layer.mean = layer.mean + 0.5
            layer.var = layer.var * 2.0
        else:
            m.head_w[3] *= -1.0
        after = model.forward_batch(m, x)
        fresh = model.ModelParams(m.config, copy.deepcopy(m.convs),
                                  m.head_w.copy(), m.head_b.copy(),
                                  m.bn_folded)
        assert fresh.plan is None
        np.testing.assert_array_equal(after, model.forward_batch(fresh, x))
        np.testing.assert_array_equal(after, layerwise_forward(m, x))
        assert not np.array_equal(after, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_floor_is_a_zero_block_never_written(self, rng, dtype):
        """Blocks of 1, 5 and 16 windows bind the leading rows of the
        plan's one zero block, of the conv output's shape, as the ReLU's
        floor, and after batches of 1, 5, 16 and 35 random windows, with
        capture on, the block is still zero byte for byte."""
        m = randomize_bn(build(ModelConfig(width=8), seed=0))
        x = rng.standard_normal((35, 7, 40)).astype(dtype)
        for n in (1, 5, kernels.BLOCK):
            model.forward_batch(m, x[:n])
            *_, zero = m.plan.bind(n)
            assert zero.base is m.plan.zero
            assert zero.shape == m.plan.out[:n].shape == (n, 8, 40)
        seen = []
        for n in (1, 5, kernels.BLOCK, 35):
            for scale in (1.0, 1e3):
                model.forward_batch(
                    m, scale * x[:n],
                    capture=lambda name, a: seen.append(float(a.min())))
        assert min(seen) < 0
        assert m.plan.zero.dtype == dtype
        assert m.plan.zero.tobytes() == bytes(m.plan.zero.nbytes)

    def test_planned_forward_calls_kernels_at_call_time(self, monkeypatch):
        """Counters installed on kernels.conv1d_same_batch and
        kernels.im2col after the plan exists see one call per conv and
        block, for an unfolded model and for a folded one, whose plan
        holds bias rows: the plan keeps no reference to either function
        and no row stands in for a call, so the benchmark's tracer and its
        canary tap, installed after a model's first call, still see every
        conv."""
        cfg = ModelConfig(width=4)
        models = [build(cfg, seed=0),
                  fold_batchnorm(randomize_bn(build(cfg, seed=0)))]
        convs = len(model.topology(cfg))
        x = np.random.default_rng(0).standard_normal((64, 7, 40)).astype(
            np.float32)
        for m in models:
            for batch in self.BATCHES:
                model.forward_batch(m, x[:batch])
            assert m.plan is not None
        assert [m.plan.bias is None for m in models] == [True, False]
        calls = {"conv1d_same_batch": 0, "im2col": 0}
        for name in calls:
            def counted(*args, _original=getattr(kernels, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(kernels, name, counted)
        for m in models:
            for batch in self.BATCHES:
                for name in calls:
                    calls[name] = 0
                expected = model.forward_batch(m, x[:batch])
                blocks = -(-batch // kernels.BLOCK)
                assert calls == {"conv1d_same_batch": blocks * convs,
                                 "im2col": blocks * convs}
                np.testing.assert_array_equal(expected, layerwise_forward(
                    m, x[:batch]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_folded_plan_holds_bias_rows(self, rng, dtype):
        """A folded model's plan holds one (1, C_out, L) row per conv in
        the call's dtype, its beta repeated over L, and binds it into that
        conv's step; an unfolded model's plan holds none."""
        m = randomize_bn(build(ModelConfig(width=8), seed=0))
        folded = fold_batchnorm(m)
        x = rng.standard_normal((5, 7, 40)).astype(dtype)
        model.forward_batch(m, x)
        assert m.plan.bias is None
        assert all(step[4] is None for step in m.plan.bind(5)[1])
        model.forward_batch(folded, x)
        bias, table = folded.plan.bias, model.topology(folded.config)
        assert len(bias) == len(table) == len(folded.convs)
        for row, conv, layer, step in zip(bias, table, folded.convs,
                                          folded.plan.bind(5)[1]):
            assert row.shape == (1, conv.out_channels, 40)
            assert row.dtype == dtype
            np.testing.assert_array_equal(
                row[0], np.repeat(layer.beta.astype(dtype)[:, None], 40, 1))
            assert step[4] is row

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_folded_plan_holds_weight_matrices(self, rng, dtype):
        """A folded model's plan holds one (C_out, C_in*K) matrix per conv,
        a view of its folded weights in any call's dtype, and binds it
        into that conv's step. Calls of 1, 5, 16 and 35 windows write none
        of them, and an unfolded model's plan holds no matrix."""
        m = randomize_bn(build(ModelConfig(width=8), seed=0))
        folded = fold_batchnorm(m)
        x = rng.standard_normal((35, 7, 40)).astype(dtype)
        model.forward_batch(m, x[:5])
        assert m.plan.weights is None
        assert all(step[1] is None for step in m.plan.bind(5)[1])
        model.forward_batch(folded, x[:5])
        plan, table = folded.plan, model.topology(folded.config)
        assert len(plan.weights) == len(table) == len(folded.convs)
        for matrix, conv, layer, step in zip(plan.weights, table,
                                             folded.convs, plan.bind(5)[1]):
            assert matrix.shape == (conv.out_channels,
                                    conv.in_channels * folded.config.kernel)
            assert matrix.base is layer.w and step[1] is matrix
            np.testing.assert_array_equal(
                matrix, layer.w.reshape(len(layer.w), -1))
        before = [layer.w.tobytes() for layer in folded.convs]
        for n in (1, 5, kernels.BLOCK, 35):
            model.forward_batch(folded, x[:n])
        assert [layer.w.tobytes() for layer in folded.convs] == before

    @pytest.mark.parametrize("shape", [(8, 24, 1), (8, 8, 1), (8, 4, 3),
                                       (8, 24)])
    def test_rebound_weights_of_another_shape_rejected(self, rng, shape):
        """Rebound weights whose shape misses their conv's raise
        ShapeMismatch naming the weights or their matrix at the next call
        of an unfolded model, and in a folded model's plan, also those of
        a (C_out, C_in*K, 1) array, whose matrix has the conv's columns."""
        m = build(ModelConfig(width=8), seed=0)
        x = rng.standard_normal((3, 7, 40)).astype(np.float32)
        model.forward_batch(m, x)
        m.convs[2].w = rng.standard_normal(shape).astype(np.float32)
        with pytest.raises(ShapeMismatch, match="conv weight|weight matrix"):
            model.forward_batch(m, x)
        with pytest.raises(ShapeMismatch, match="conv weight|weight matrix"):
            model.forward_batch(fold_batchnorm(m), x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_folded_forward_bit_identical_rows_never_written(self, rng,
                                                             dtype):
        """Blocks of 1, 5, 16 and 35 windows of a folded model, with
        capture on: the logits equal the layer-by-layer oracle's and each
        window's one-window forward bit for bit, every captured conv
        activation is the contiguous conv output, and the plan's bias rows
        are unchanged byte for byte."""
        folded = fold_batchnorm(randomize_bn(build(ModelConfig(width=8),
                                                   seed=0), seed=3))
        x = rng.standard_normal((35, 7, 40)).astype(dtype)
        model.forward_batch(folded, x[:1])
        before = [row.tobytes() for row in folded.plan.bias]
        for n in (1, 5, kernels.BLOCK, 35):
            views = []
            logits = model.forward_batch(
                folded, x[:n], capture=lambda name, a: views.append(
                    name == "input" or (a.flags.c_contiguous
                                        and a.base is folded.plan.out)))
            assert len(views) == len(model.activation_names(
                folded.config)) * -(-n // kernels.BLOCK) and all(views)
            np.testing.assert_array_equal(logits,
                                          layerwise_forward(folded, x[:n]))
            for window, row in zip(x[:n], logits):
                np.testing.assert_array_equal(model.forward(folded, window),
                                              row)
        assert [row.tobytes() for row in folded.plan.bias] == before


class TestMacReport:
    def test_default_width_near_reference_budget(self):
        report = count_macs(ModelConfig(width=52))
        assert report.total == 2_988_960
        assert 2_887_438 <= report.total <= 3_191_378   # +-5% of 3,039,408

    def test_width_one(self):
        assert count_macs(ModelConfig(width=1)).total == 2_400

    @pytest.mark.parametrize("width", [1, 3, 16, 52])
    def test_closed_form_matches_enumeration(self, width):
        report = count_macs(ModelConfig(width=width))
        assert report.total == 1080 * width ** 2 + 1320 * width
        assert report.total == sum(report.per_layer.values())

    def test_param_count_and_flash(self):
        report = count_macs(ModelConfig(width=52))
        # weights: stem 52*7*3 + 9 convs 52*52*3 + head 12*40*52; biases 9*52+52+12
        expected_params = 52 * 7 * 3 + 9 * 52 * 52 * 3 + 12 * 40 * 52 + 10 * 52 + 12
        assert report.param_count == expected_params
        assert abs(report.param_count - 1e5) / 1e5 < 0.05
        # within 10% of the 105.11 kB reference footprint
        assert abs(report.flash_bytes_int8 - 105.11 * 1024) / (105.11 * 1024) < 0.10

    def test_peak_activation(self):
        report = count_macs(ModelConfig(width=52))
        assert report.peak_activation_bytes == 3 * 52 * 40

    def test_report_formats(self):
        report = count_macs(ModelConfig(width=4))
        assert "total" in report.as_text()
        assert "macs.total=22560" in report.as_kv()   # 1080*16 + 1320*4


class TestFoldBatchnorm:
    def test_identity_bn_keeps_weights(self):
        m = build(ModelConfig(width=4, bn_eps=0.0), seed=0)
        folded = fold_batchnorm(m)
        np.testing.assert_array_equal(folded.convs[0].w, m.convs[0].w)
        np.testing.assert_array_equal(folded.convs[0].beta, m.convs[0].beta)
        assert folded.bn_folded

    def test_equivalence_on_random_model(self, rng):
        m = randomize_bn(build(ModelConfig(width=8), seed=3), seed=7)
        folded = fold_batchnorm(m)
        x = rng.standard_normal((100, 7, 40)).astype(np.float32)
        dev = np.abs(model.forward_batch(m, x)
                     - model.forward_batch(folded, x)).max()
        assert dev < 1e-4

    def test_idempotent(self, rng):
        m = randomize_bn(build(ModelConfig(width=4), seed=1), seed=2)
        once = fold_batchnorm(m)
        twice = fold_batchnorm(once)
        for (_, a), (_, b) in zip(once.all_tensors(), twice.all_tensors()):
            np.testing.assert_array_equal(a, b)

    def test_folded_model_has_zero_eps(self):
        m = build(ModelConfig(width=4), seed=0)
        assert fold_batchnorm(m).config.bn_eps == 0.0


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        m = randomize_bn(build(ModelConfig(width=5), seed=9), seed=4)
        path = tmp_path / "m.efm"
        model.save(m, path)
        loaded = model.load(path)
        assert loaded.config == m.config
        assert loaded.bn_folded == m.bn_folded
        for (na, a), (nb, b) in zip(m.all_tensors(), loaded.all_tensors()):
            assert na == nb
            assert a.tobytes() == b.tobytes()

    def test_load_holds_owned_writable_arrays_and_draws_nothing(
            self, tmp_path, monkeypatch):
        """load takes the file's arrays as they are read, builds no
        He-uniform model to overwrite, and each array is the model's own,
        writable float32 in C order, as training's in-place updates need."""
        m = randomize_bn(build(ModelConfig(width=5), seed=9), seed=4)
        path = tmp_path / "m.efm"
        model.save(m, path)

        def no_build(*args):
            raise AssertionError("load built a model")

        monkeypatch.setattr(model, "build", no_build)
        monkeypatch.setattr(np.random, "default_rng", no_build)
        loaded = model.load(path)
        bases = set()
        for name, arr in loaded.all_tensors():
            assert arr.dtype == np.float32 and arr.flags.c_contiguous, name
            assert arr.flags.owndata and arr.flags.writeable, name
            bases.add(id(arr))
        assert len(bases) == len(list(m.all_tensors()))
        loaded.convs[0].w += 1
        np.testing.assert_array_equal(loaded.convs[0].w, m.convs[0].w + 1)

    def test_folded_flag_round_trip(self, tmp_path):
        m = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        path = tmp_path / "m.efm"
        model.save(m, path)
        assert model.load(path).bn_folded

    def test_truncated(self, tmp_path):
        m = build(ModelConfig(width=4), seed=0)
        path = tmp_path / "m.efm"
        model.save(m, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CorruptFile):
            model.load(path)

    def test_wrong_magic(self, tmp_path):
        m = build(ModelConfig(width=4), seed=0)
        path = tmp_path / "m.efm"
        model.save(m, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"ZZZZ"
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            model.load(path)

    def test_trailing_bytes(self, tmp_path):
        m = build(ModelConfig(width=4), seed=0)
        path = tmp_path / "m.efm"
        model.save(m, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptFile):
            model.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptFile):
            model.load(tmp_path / "ghost.efm")

    @staticmethod
    def forged(tmp_path, kind, edit):
        """A checksummed width-4 EFM3 or EFQ3 file after edit(contents)."""
        m = fold_batchnorm(randomize_bn(build(ModelConfig(width=4), seed=0)))
        path = tmp_path / kind
        if kind == "EFM3":
            model.save(m, path)
        else:
            quantize.save(quantize.quantize_model(m, quantize.calibrate(
                m, make_random_windows(2, seed=0))), path)
        contents = container.read(path, kind.encode())
        edit(contents)
        container.write(path, kind.encode(), contents.meta, contents.tensors)
        return path, {"EFM3": model.load, "EFQ3": quantize.load}[kind]

    @pytest.mark.parametrize("kind", ["EFM3", "EFQ3"])
    @pytest.mark.parametrize("update", [
        {"blocks": 2 ** 31}, {"convs_per_block": 2 ** 31},
        {"bn_eps": 1e308}, {"bn_eps": 10 ** 400},
        # few enough parameters for the file's elements, too many convs
        # for its tensors
        {"width": 1, "blocks": 30}],
        ids=lambda update: "-".join(f"{k}-{v}" for k, v in update.items()))
    def test_config_out_of_range_is_corrupt(self, tmp_path, monkeypatch,
                                            kind, update):
        """2^31 blocks or convs, and 30 blocks of width 1, more convs than
        the file's 52 (EFM3) or 61 (EFQ3) tensors, are bounded by the
        file's tensor count before count_macs or topology could build a
        per-layer table, and a bn_eps beyond float32 is rejected without
        a warning."""
        def refused(config):
            raise AssertionError("a loader built a per-layer table")

        path, load = self.forged(
            tmp_path, kind,
            lambda contents: contents.meta["config"].update(update))
        monkeypatch.setattr(model, "count_macs", refused)
        for module in (model, quantize):
            monkeypatch.setattr(module, "topology", refused)
        with pytest.raises(CorruptFile, match="bad model config"):
            load(path)

    @pytest.mark.parametrize("name, value", [
        ("stem.w", float("nan")), ("b0.c1.beta", float("inf")),
        ("head.w", -float("inf")), ("b1.c0.var", float("nan")),
        ("b2.c2.var", -1.0),
        # the forged file is folded, so its variances must be 1
        ("stem.var", 0.0),
        # and every gamma 1 and mean 0: forward_batch skips them, and
        # fold_batchnorm would apply them
        ("b0.c0.gamma", 2.0), ("b0.c0.mean", 0.5), ("b0.c0.var", 4.0)])
    def test_non_finite_tensor_or_negative_variance_is_corrupt(
            self, tmp_path, name, value):
        def edit(contents):
            contents.tensors[name].flat[1] = value

        path, load = self.forged(tmp_path, "EFM3", edit)
        with pytest.raises(CorruptFile, match=f"tensor {name} "):
            load(path)

    @pytest.mark.parametrize("folded, digest", [
        (False,
         "fdf011d65dfac532c4569093fc64587e0954358331fa66343d598ef3af07e565"),
        (True,
         "4902eee55749e36882a58f0458c725ff1012bf82a70f7d9fa3dbf563e9b2aa0f"),
    ])
    def test_efm3_bytes_pinned(self, tmp_path, folded, digest):
        """The SHA-256 of the EFM3 bytes of build(width 8, seed 0) and of
        its BN-folded randomize_bn copy: a pin of the file format, of
        build's draws and of fold_batchnorm's float32 arithmetic, each
        step of which is one correctly rounded IEEE operation."""
        m = build(ModelConfig(width=8), seed=0)
        if folded:
            m = fold_batchnorm(randomize_bn(m))
        path = tmp_path / "m.efm"
        model.save(m, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_efm3_tensors(self, tmp_path):
        """The default topology's EFM3 file holds five tensors per conv,
        with no conv bias, then the head's two: 52 in all."""
        path = tmp_path / "m.efm"
        model.save(build(ModelConfig(), seed=0), path)
        convs = ["stem"] + [f"b{i}.c{j}" for i in range(3) for j in range(3)]
        assert list(container.read(path, b"EFM3").tensors) == [
            f"{conv}.{field}" for conv in convs
            for field in ("w", "gamma", "beta", "mean", "var")
        ] + ["head.w", "head.b"]
