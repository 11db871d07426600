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
        assert not np.array_equal(a.stem.w, b.stem.w)

    def test_shapes(self):
        m = build(ModelConfig(width=4), seed=0)
        assert m.stem.w.shape == (4, 7, 3)
        assert all(layer.w.shape == (4, 4, 3)
                   for blk in m.blocks for layer in blk)
        assert m.head_w.shape == (12, 160)
        assert m.head_b.shape == (12,)

    def test_bn_initialized_near_identity(self, rng):
        m = build(ModelConfig(width=4, bn_eps=0.0), seed=0)
        x = rng.standard_normal((4, 40)).astype(np.float32)
        y = kernels.batchnorm_infer(x, m.stem.gamma, m.stem.beta,
                                    m.stem.mean, m.stem.var, 0.0)
        np.testing.assert_allclose(y, x, rtol=1e-6)

    def test_he_bound(self):
        m = build(ModelConfig(width=4), seed=0)
        bound = np.sqrt(6.0 / (7 * 3))
        assert np.abs(m.stem.w).max() <= bound

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            build(ModelConfig(width=0), seed=0)
        with pytest.raises(InvalidConfig):
            build(ModelConfig(kernel=2), seed=0)
        with pytest.raises(InvalidConfig):
            build(ModelConfig(bn_eps=float("nan")), seed=0)


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

    def test_shape_check(self):
        m = build(ModelConfig(width=4), seed=0)
        with pytest.raises(ShapeMismatch):
            forward(m, np.zeros((7, 39), np.float32))

    def test_compositional_oracle_tiny_variant(self, rng):
        """A hand-composed chain of tensor-core calls must reproduce
        forward() on a small-width, short-sequence test variant."""
        cfg = ModelConfig(width=2, seq_len=4)
        m = randomize_bn(build(cfg, seed=5), seed=6)
        x = rng.standard_normal((7, 4)).astype(np.float32)

        def bn(layer, t):
            return kernels.batchnorm_infer(t, layer.gamma, layer.beta,
                                           layer.mean, layer.var, cfg.bn_eps)

        a = kernels.relu(bn(m.stem, conv1d_same(x, m.stem.w, m.stem.b)))
        for blk in m.blocks:
            skip = a
            h = kernels.relu(bn(blk[0], conv1d_same(a, blk[0].w, blk[0].b)))
            h = kernels.relu(bn(blk[1], conv1d_same(h, blk[1].w, blk[1].b)))
            h = bn(blk[2], conv1d_same(h, blk[2].w, blk[2].b))
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
        for blk in m.blocks:
            for layer in blk:
                layer.w[:] = 0
                layer.b[:] = 0
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
        the 512 windows training._eval_arrays passes."""
        m = randomize_bn(build(ModelConfig(width=width,
                                           convs_per_block=convs_per_block),
                               seed=width), seed=convs_per_block)
        if folded:
            m = fold_batchnorm(m)
        x = np.random.default_rng(width).standard_normal(
            (512, 7, 40)).astype(dtype)
        for batch in (1, 3, kernels.BLOCK, 2 * kernels.BLOCK + 3, 512):
            expected_acts = {}
            expected = layerwise_forward(m, x[:batch], expected_acts)
            logits, acts = captured(m, x[:batch])
            assert logits.dtype == expected.dtype == dtype
            np.testing.assert_array_equal(logits, expected)
            assert list(acts) == model.activation_names(m.config)
            for name, arr in expected_acts.items():
                assert acts[name].dtype == arr.dtype == dtype, name
                np.testing.assert_array_equal(acts[name], arr, err_msg=name)

    def test_capture_once_per_block_contiguous(self, rng):
        m = build(ModelConfig(width=4), seed=0)
        calls = []

        def capture(name, arr):
            assert arr.flags.c_contiguous, name
            calls.append((name, len(arr)))

        batch = 2 * kernels.BLOCK + 3
        model.forward_batch(
            m, rng.standard_normal((batch, 7, 40)).astype(np.float32),
            capture=capture)
        names = model.activation_names(m.config)
        assert calls == [(name, n) for n in (kernels.BLOCK, kernels.BLOCK, 3)
                         for name in names]

    def test_empty_batch(self):
        m = build(ModelConfig(width=4), seed=0)
        logits = model.forward_batch(m, np.zeros((0, 7, 40), np.float32))
        assert logits.shape == (0, 12)

    @pytest.mark.parametrize("batch", [1, 512])
    def test_allocations_bounded(self, rng, batch):
        """At width 52 a call holds the (B, 2080) head input and one block's
        buffers: the padded input, the skip and pad buffers, the conv
        output and the patches. The head's logits and its temporaries (75 KB for 512
        windows) fit in 96 KB."""
        cfg = ModelConfig(width=52)
        m = fold_batchnorm(build(cfg, seed=0))
        x = rng.standard_normal((batch, 7, 40)).astype(np.float32)
        n = min(batch, kernels.BLOCK)
        padded_len = cfg.seq_len + cfg.kernel - 1
        block = n * (cfg.in_channels * padded_len + 2 * cfg.width * padded_len
                     + cfg.width * cfg.seq_len
                     + cfg.width * cfg.kernel * cfg.seq_len) * 4
        head_in = batch * cfg.width * cfg.seq_len * 4
        model.forward_batch(m, x)
        tracemalloc.start()
        try:
            model.forward_batch(m, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= head_in + block + 96 * 1024
        if batch == 1:
            assert peak < 128 * 1024


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
        np.testing.assert_array_equal(folded.stem.w, m.stem.w)
        np.testing.assert_array_equal(folded.stem.b, m.stem.b)
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
        """A checksummed width-4 EFM2 or EFQ3 file after edit(contents)."""
        m = fold_batchnorm(randomize_bn(build(ModelConfig(width=4), seed=0)))
        path = tmp_path / kind
        if kind == "EFM2":
            model.save(m, path)
        else:
            quantize.save(quantize.quantize_model(m, quantize.calibrate(
                m, make_random_windows(2, seed=0))), path)
        contents = container.read(path, kind.encode())
        edit(contents)
        container.write(path, kind.encode(), contents.meta, contents.tensors)
        return path, {"EFM2": model.load, "EFQ3": quantize.load}[kind]

    @pytest.mark.parametrize("kind", ["EFM2", "EFQ3"])
    @pytest.mark.parametrize("field, value", [
        ("blocks", 2 ** 31), ("convs_per_block", 2 ** 31),
        ("bn_eps", 1e308), ("bn_eps", 10 ** 400)])
    def test_config_out_of_range_is_corrupt(self, tmp_path, monkeypatch,
                                            kind, field, value):
        """2^31 blocks or convs are bounded by the closed-form parameter
        count before count_macs could build its per-layer table, and a
        bn_eps beyond float32 is rejected without a warning."""
        def refused(config):
            raise AssertionError("a loader built the per-layer MAC table")

        monkeypatch.setattr(model, "count_macs", refused)
        path, load = self.forged(
            tmp_path, kind,
            lambda contents: contents.meta["config"].update({field: value}))
        with pytest.raises(CorruptFile, match="bad model config"):
            load(path)

    @pytest.mark.parametrize("name, value", [
        ("stem.w", float("nan")), ("b0.c1.b", float("inf")),
        ("head.w", -float("inf")), ("b1.c0.var", float("nan")),
        ("b2.c2.var", -1.0)])
    def test_non_finite_tensor_or_negative_variance_is_corrupt(
            self, tmp_path, name, value):
        def edit(contents):
            contents.tensors[name].flat[1] = value

        path, load = self.forged(tmp_path, "EFM2", edit)
        with pytest.raises(CorruptFile, match=f"tensor {name} "):
            load(path)
