import copy

import numpy as np
import pytest

from conftest import randomize_bn
from edgefit import kernels, model, quantize, synth
from edgefit.errors import (
    AccumulatorOverflow,
    CorruptFile,
    EmptyCalibrationSet,
    InvalidConfig,
    MissingCalibration,
    NumericalContractError,
    RequantRangeError,
    VersionMismatch,
)
from edgefit.model import ModelConfig, build, fold_batchnorm
from edgefit.quantize import (
    CalibStats,
    QuantSpec,
    calibrate,
    QuantTensor,
    activation_spec,
    check_quant_invariants,
    qforward,
    qforward_batch,
    quantize_input,
    quantize_model,
    quantize_multiplier,
    quantize_tensor,
    round_half_away,
)


def quantize_affine(x):
    """Per-tensor affine int8 over a range widened to include 0:
    scale (max - min) / 255 and a zero point, as activations get."""
    x = np.asarray(x, dtype=np.float64)
    spec = activation_spec(float(x.min()), float(x.max()))
    q = round_half_away(x / spec.scale) + spec.zero_point
    return QuantTensor(values=np.clip(q, -128, 127).astype(np.int8),
                       scale=np.array(spec.scale, dtype=np.float32),
                       zero_point=np.array(spec.zero_point, dtype=np.int32))


def dequantize(qt):
    scale = qt.scale.astype(np.float32)
    zp = qt.zero_point.astype(np.float32)
    if scale.ndim == 1 and qt.values.ndim > 1:
        shape = [1] * qt.values.ndim
        shape[0] = -1
        scale = scale.reshape(shape)
        zp = zp.reshape(shape)
    return (qt.values.astype(np.float32) - zp) * scale


def requantize(acc, m0, n, zero_point_out):
    """Scalar oracle of quantize._requantize_array: round-half-up of
    acc*M0 / 2^(31+n), plus the output zero point, saturated to
    [-128, 127], in Python integers."""
    if not (1 << 30) <= m0 < (1 << 31):
        raise RequantRangeError(f"M0 {m0} outside [2^30, 2^31)")
    if n < 0:
        raise RequantRangeError(f"shift n must be >= 0, got {n}")
    shift = 31 + n
    value = (int(acc) * int(m0) + (1 << (shift - 1))) >> shift
    return max(-128, min(127, value + zero_point_out))


def quantized_fixture(width=8, model_seed=3, calib_seed=1, n_calib=256):
    folded = fold_batchnorm(build(ModelConfig(width=width), seed=model_seed))
    calib = synth.make_random_windows(n_calib, seed=calib_seed)
    stats = calibrate(folded, calib)
    return folded, quantize_model(folded, stats)


class TestQuantizeTensor:
    def test_symmetric_example(self):
        qt = quantize_tensor(np.array([-1.0, 0.0, 1.0]))
        assert float(qt.scale) == pytest.approx(1 / 127, rel=1e-6)
        np.testing.assert_array_equal(qt.values, [-127, 0, 127])
        assert int(qt.zero_point) == 0

    def test_affine_full_positive_range(self):
        s = 0.02
        qt = quantize_affine(np.array([0.0, 255 * s]))
        assert int(qt.zero_point) == -128
        np.testing.assert_array_equal(qt.values, [-128, 127])

    def test_dequantize_error_bound(self, rng):
        x = rng.uniform(-2, 2, size=100)
        qt = quantize_tensor(x)
        err = np.abs(dequantize(qt) - x)
        assert np.all(err <= float(qt.scale) / 2 + 1e-9)

    def test_affine_dequantize_error_bound(self, rng):
        x = rng.uniform(-1, 3, size=100)
        qt = quantize_affine(x)
        err = np.abs(dequantize(qt) - x)
        assert np.all(err <= float(qt.scale) / 2 + 1e-9)

    def test_all_zero_gets_scale_floor(self):
        qt = quantize_tensor(np.zeros(5))
        assert float(qt.scale) > 0
        np.testing.assert_array_equal(qt.values, 0)

    def test_per_channel(self, rng):
        w = rng.standard_normal((4, 3, 3))
        w[2] *= 10
        qt = quantize_tensor(w, channel_axis=0)
        assert qt.scale.shape == (4,)
        assert float(qt.scale[2]) == pytest.approx(np.abs(w[2]).max() / 127,
                                                   rel=1e-5)
        assert np.abs(qt.values).max() <= 127

    def test_rounding_half_away_from_zero(self):
        # scale 1: 0.5 -> 1, -0.5 -> -1 (not banker's rounding)
        qt = quantize_tensor(np.array([127.0, 0.5, -0.5, -127.0]))
        np.testing.assert_array_equal(qt.values, [127, 1, -1, -127])


class TestQuantizeMultiplier:
    def test_half(self):
        m0, n = quantize_multiplier(0.5)
        assert (m0, n) == (1 << 30, 0)

    def test_range_and_accuracy(self, rng):
        for _ in range(500):
            ratio = float(10 ** rng.uniform(-6, 0.5))
            m0, n = quantize_multiplier(ratio)
            assert (1 << 30) <= m0 < (1 << 31)
            assert abs(m0 * 2.0 ** (-31 - n) - ratio) / ratio < 2 ** -24

    def test_invalid(self):
        with pytest.raises(RequantRangeError):
            quantize_multiplier(0.0)
        with pytest.raises(RequantRangeError):
            quantize_multiplier(-1.0)


class TestRequantize:
    def test_zero_acc_gives_zero_point(self):
        m0, n = quantize_multiplier(0.25)
        assert requantize(0, m0, n, 7) == 7
        assert requantize(0, m0, n, -3) == -3

    def test_exact_multiples(self):
        # M0 = 2^30, n = 0 encodes ratio 1/2 exactly: acc=2k -> k
        m0 = 1 << 30
        for k in range(-100, 101):
            assert requantize(2 * k, m0, 0, 0) == max(-128, min(127, k))

    def test_saturation(self):
        m0, n = quantize_multiplier(0.5)
        assert requantize(2 ** 31 - 1, m0, n, 0) == 127
        assert requantize(-(2 ** 31), m0, n, 0) == -128

    def test_precondition_checks(self):
        with pytest.raises(RequantRangeError):
            requantize(10, 1 << 29, 0, 0)
        with pytest.raises(RequantRangeError):
            requantize(10, 1 << 30, -1, 0)

    def test_against_rational_oracle_one_million_draws(self, rng):
        """requantize must agree with round(acc * ratio) computed in float64
        to within 1 LSB over a million random (acc, ratio) draws."""
        n_draws = 1_000_000
        accs = rng.integers(-(2 ** 31), 2 ** 31, size=n_draws, dtype=np.int64)
        ratios = 10 ** rng.uniform(-6, -0.01, size=n_draws)
        chunks = 16
        worst = 0
        for c in range(chunks):
            sl = slice(c * n_draws // chunks, (c + 1) * n_draws // chunks)
            pairs = [quantize_multiplier(float(r)) for r in ratios[sl]]
            m0 = np.array([p[0] for p in pairs], dtype=np.int64)
            n = np.array([p[1] for p in pairs], dtype=np.int64)
            got = quantize._requantize_array(accs[sl], m0, n, 0)
            oracle = np.clip(np.rint(accs[sl].astype(np.float64) * ratios[sl]),
                             -128, 127)
            worst = max(worst, int(np.abs(got - oracle).max()))
        assert worst <= 1

    def test_scalar_matches_vectorized(self, rng):
        for _ in range(1000):
            acc = int(rng.integers(-(2 ** 31), 2 ** 31))
            m0, n = quantize_multiplier(float(10 ** rng.uniform(-6, -0.01)))
            zp = int(rng.integers(-100, 100))
            scalar = requantize(acc, m0, n, zp)
            vec = quantize._requantize_array(
                np.array([acc], dtype=np.int64), np.int64(m0), np.int64(n), zp)
            assert scalar == int(vec[0])


class TestCalibrate:
    def test_zero_window_ranges_contain_zero(self):
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        zero = synth.make_random_windows(1, seed=0, scale=0.0)
        stats = calibrate(folded, zero)
        for lo, hi in stats.ranges.values():
            assert lo <= 0.0 <= hi

    def test_monotone_ranges(self):
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        few = calibrate(folded, synth.make_random_windows(8, seed=1))
        more = calibrate(folded, synth.make_random_windows(8, seed=1)
                         + synth.make_random_windows(8, seed=2))
        for name, (lo, hi) in few.ranges.items():
            lo2, hi2 = more.ranges[name]
            assert lo2 <= lo and hi2 >= hi

    def test_duplicate_windows_do_not_change_stats(self):
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        w = synth.make_random_windows(1, seed=3)
        once = calibrate(folded, w)
        twice = calibrate(folded, w + w)
        assert once.ranges == twice.ranges

    def test_empty(self):
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        with pytest.raises(EmptyCalibrationSet):
            calibrate(folded, [])

    def test_unfolded_rejected(self):
        m = build(ModelConfig(width=4), seed=0)
        with pytest.raises(InvalidConfig):
            calibrate(m, synth.make_random_windows(1, seed=0))


class TestQuantizeModel:
    def test_multiplier_invariant_every_layer(self):
        _, qm = quantized_fixture()
        check_quant_invariants(qm)

    def test_deterministic_bytes(self, tmp_path):
        _, qm1 = quantized_fixture()
        _, qm2 = quantized_fixture()
        p1, p2 = tmp_path / "a.efq", tmp_path / "b.efq"
        quantize.save(qm1, p1)
        quantize.save(qm2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_calibration(self):
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        stats = CalibStats(ranges={"input": (-1.0, 1.0)})
        with pytest.raises(MissingCalibration):
            quantize_model(folded, stats)

    def test_unfolded_rejected(self):
        m = build(ModelConfig(width=4), seed=0)
        with pytest.raises(InvalidConfig):
            quantize_model(m, CalibStats(ranges={}))

    def test_accumulator_bound_violation(self):
        w = np.ones((1, 70_000, 3), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        spec = QuantSpec(scale=0.1, zero_point=0)
        with pytest.raises(AccumulatorOverflow):
            quantize._quantize_conv("huge", w, b, spec, spec, relu=False)

    def test_bias_overflow(self):
        w = np.ones((1, 2, 3), dtype=np.float32)
        b = np.array([1e30], dtype=np.float32)
        spec = QuantSpec(scale=0.1, zero_point=0)
        with pytest.raises(AccumulatorOverflow):
            quantize._quantize_conv("big-bias", w, b, spec, spec, relu=False)


def reference_qconv(layer, x_q):
    """Exact integer oracle: Python-loop convolution plus long-division
    rounding, independent of the numpy/shift implementation."""
    c_out, c_in, k = layer.w_q.shape
    length = x_q.shape[1]
    pad = (k - 1) // 2
    out = np.zeros((c_out, length), dtype=np.int64)
    for o in range(c_out):
        for t in range(length):
            acc = int(layer.bias_q[o])
            for c in range(c_in):
                for kk in range(k):
                    src = t + kk - pad
                    if 0 <= src < length:
                        xv = int(x_q[c, src]) - layer.in_spec.zero_point
                        acc += int(layer.w_q[o, c, kk]) * xv
            num = acc * int(layer.m0[o])
            den = 1 << (31 + int(layer.shift[o]))
            q, r = divmod(num, den)          # floor division, exact ints
            if 2 * r >= den:                 # round half toward +inf
                q += 1
            q += layer.out_spec.zero_point
            q = max(-128, min(127, q))
            if layer.relu:
                q = max(q, layer.out_spec.zero_point)
            out[o, t] = q
    return out.astype(np.int8)


class TestQForward:
    def test_identity_layer_small_instance(self):
        """K=1 identity weights with matching in/out specs: the quantized
        conv reproduces its input to within 2 quanta."""
        c = 4
        spec = QuantSpec(scale=0.05, zero_point=3)
        w = np.eye(c, dtype=np.float32)[:, :, None]
        layer = quantize._quantize_conv("id", w, np.zeros(c, np.float32),
                                        spec, spec, relu=False)
        rng = np.random.default_rng(0)
        x_q = rng.integers(-128, 128, size=(1, c, 10)).astype(np.int8)
        out = quantize._qconv_run(layer, x_q, None)[0]
        assert np.abs(out.astype(int) - x_q[0].astype(int)).max() <= 2

    def test_one_layer_exact_integer_oracle(self, rng):
        w = rng.standard_normal((3, 2, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32) * 0.1
        in_spec = QuantSpec(scale=0.04, zero_point=-5)
        out_spec = QuantSpec(scale=0.11, zero_point=12)
        for relu in (False, True):
            layer = quantize._quantize_conv("t", w, b, in_spec, out_spec, relu)
            x_q = rng.integers(-128, 128, size=(1, 2, 9)).astype(np.int8)
            got = quantize._qconv_run(layer, x_q, None)[0]
            np.testing.assert_array_equal(got, reference_qconv(layer, x_q[0]))

    def test_no_floats_in_integer_path(self):
        _, qm = quantized_fixture(width=4)
        trace = []
        qforward(qm, synth.make_random_windows(1, seed=5)[0].data, trace=trace)
        assert quantize.count_float_entries(trace) == 0
        assert len(trace) > 10   # the trace actually covered the layers

    def test_zero_input_is_deterministic_bias_path(self):
        _, qm = quantized_fixture(width=4)
        zero = np.zeros((7, 40), dtype=np.float32)
        a = qforward(qm, zero)
        b = qforward(qm, zero)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.isfinite(a))
        # zero input quantizes exactly to the input zero point
        np.testing.assert_array_equal(
            quantize_input(qm.input_spec, zero),
            np.full((7, 40), qm.input_spec.zero_point, dtype=np.int8))

    def test_single_matches_batched(self):
        _, qm = quantized_fixture(width=4)
        windows = synth.make_random_windows(6, seed=6)
        x = np.stack([w.data for w in windows])
        batched = qforward_batch(qm, x)
        for i, w in enumerate(windows):
            np.testing.assert_array_equal(qforward(qm, w.data), batched[i])

    def test_top1_agreement_with_float(self):
        folded, qm = quantized_fixture(width=8)
        windows = synth.make_random_windows(300, seed=2)
        x = np.stack([w.data for w in windows])
        agree = (qforward_batch(qm, x).argmax(1)
                 == model.forward_batch(folded, x).argmax(1)).mean()
        assert agree >= 0.95

    def test_trained_bn_model_agreement(self):
        folded = fold_batchnorm(
            randomize_bn(build(ModelConfig(width=8), seed=3), seed=7))
        calib = synth.make_random_windows(256, seed=1)
        qm = quantize_model(folded, calibrate(folded, calib))
        windows = synth.make_random_windows(300, seed=2)
        x = np.stack([w.data for w in windows])
        agree = (qforward_batch(qm, x).argmax(1)
                 == model.forward_batch(folded, x).argmax(1)).mean()
        assert agree >= 0.90


def int32_qconv_run(layer, x_q):
    """The conv with its GEMM in int32, as the integer path ran it before
    the GEMMs moved to float32/float64: the oracle for their exactness."""
    batch, c_in, length = x_q.shape
    c_out, _, k = layer.w_q.shape
    pad = (k - 1) // 2
    shifted = x_q.astype(np.int32) - layer.in_spec.zero_point
    xp = np.pad(shifted, ((0, 0), (0, 0), (pad, pad)))
    cols = kernels.im2col(xp, k, length)
    flat = cols.transpose(1, 0, 2).reshape(c_in * k, batch * length)
    acc = layer.w_q.reshape(c_out, -1).astype(np.int32) @ flat
    acc = acc.reshape(c_out, batch, length).transpose(1, 0, 2)
    acc = acc + layer.bias_q[None, :, None]
    q = quantize._requantize_array(acc.astype(np.int64),
                                   layer.m0.astype(np.int64)[None, :, None],
                                   layer.shift.astype(np.int64)[None, :, None],
                                   layer.out_spec.zero_point)
    if layer.relu:
        q = np.maximum(q, np.int8(layer.out_spec.zero_point))
    return q


def int32_qforward_batch(qm, x):
    """qforward_batch with every GEMM (convs and head) in int32."""
    q = quantize.quantize_input(qm.input_spec, x)
    q = int32_qconv_run(qm.stem, q)
    for block in qm.blocks:
        q_in = q
        for layer in block.convs:
            q = int32_qconv_run(layer, q)
        q = quantize._qadd_run(block.add, q_in, q, None)
    flat = q.reshape(q.shape[0], -1)
    shifted = flat.astype(np.int32) - qm.head.in_spec.zero_point
    acc = shifted @ qm.head.w_q.astype(np.int32).T + qm.head.bias_q[None, :]
    scale = qm.head.in_spec.scale * qm.head.w_scale.astype(np.float64)
    return (acc.astype(np.float64) * scale[None, :]).astype(np.float32)


def extreme_model(qm, rng):
    """A copy of qm with every weight +-127 (two all-+127 output channels
    per layer, whose sums reach fan_in * 127 * 255 on an input that sits
    at one extreme) and zero points alternating between -128 and 127."""
    qm = copy.deepcopy(qm)
    zps = iter([-128, 127] * 100)

    def spec(s):
        return quantize.QuantSpec(scale=s.scale, zero_point=next(zps))

    def weights(w):
        w = np.where(rng.random(w.shape) < 0.5, 127, -127).astype(np.int8)
        w[:2] = 127
        return w

    qm.input_spec = quantize.QuantSpec(scale=1e-3, zero_point=127)
    for layer in qm.layers():
        layer.w_q = weights(layer.w_q)
        layer.in_spec, layer.out_spec = spec(layer.in_spec), spec(layer.out_spec)
    for block in qm.blocks:
        add = block.add
        add.a_spec, add.h_spec = spec(add.a_spec), spec(add.h_spec)
        add.out_spec = spec(add.out_spec)
    qm.head.w_q = weights(qm.head.w_q)
    qm.head.in_spec = spec(qm.head.in_spec)
    return qm


class TestExactFloatGemm:
    """qforward_batch runs its GEMMs in float32/float64; the logits must be
    bit-identical to the int32 GEMMs."""

    @staticmethod
    def check_against_oracle(qm, x):
        trace = []
        got = qforward_batch(qm, x, trace=trace)
        np.testing.assert_array_equal(got, int32_qforward_batch(qm, x))
        assert quantize.count_float_entries(trace) == 0
        acc = [dtype for name, dtype in trace if name.endswith(".acc")]
        cfg = qm.config
        assert len(acc) == 2 + cfg.blocks * cfg.convs_per_block  # convs, head
        assert all(dtype.startswith("int") for dtype in acc)

    def test_width_52_random_windows(self):
        _, qm = quantized_fixture(width=52, n_calib=64)
        assert quantize._gemm_dtype(52 * 3) is np.float32
        assert quantize._gemm_dtype(52 * 40) is np.float64
        x = np.stack([w.data for w in synth.make_random_windows(256, seed=11)])
        self.check_against_oracle(qm, x)

    def test_partial_last_block(self):
        # 2 full blocks and a partial one; each window equals its single call
        _, qm = quantized_fixture(width=52, n_calib=64)
        n = 2 * quantize.BLOCK_WINDOWS + 3
        x = np.stack([w.data for w in synth.make_random_windows(n, seed=13)])
        self.check_against_oracle(qm, x)
        batched = qforward_batch(qm, x)
        for i in range(n):
            np.testing.assert_array_equal(qforward(qm, x[i]), batched[i])

    def test_wide_conv_takes_float64(self):
        # fan_in 176 * 3 = 528: 528 * 128 * 255 >= 2^24
        _, qm = quantized_fixture(width=176, n_calib=16)
        assert qm.blocks[0].convs[0].w_q.shape[1:] == (176, 3)
        assert quantize._gemm_dtype(528) is np.float64
        x = np.stack([w.data for w in synth.make_random_windows(24, seed=12)])
        self.check_against_oracle(qm, x)

    def test_extreme_operands(self, rng):
        _, qm = quantized_fixture(width=52, n_calib=64)
        qm = extreme_model(qm, rng)
        x = np.where(rng.random((64, 7, 40)) < 0.5, -1.0, 1.0)
        q_in = quantize_input(qm.input_spec, x)
        assert set(np.unique(q_in)) == {-128, 127}
        self.check_against_oracle(qm, x.astype(np.float32))
        # all q = -128 against zero point 127: every stem product is
        # 127 * -255 in the two all-+127 channels
        self.check_against_oracle(qm, np.full((4, 7, 40), -1.0, np.float32))


    @pytest.mark.parametrize("site", ["conv", "head"])
    @pytest.mark.parametrize("bias", [0.05, 0.0])
    def test_zero_weight_channel(self, site, bias):
        """An all-zero weight channel gets a weight scale floored so its
        bias fits int32 and its shift n stays <= 30."""
        folded = fold_batchnorm(build(ModelConfig(width=8), seed=3))
        w, b = ((folded.blocks[0][0].w, folded.blocks[0][0].b) if site == "conv"
                else (folded.head_w, folded.head_b))
        w[3] = 0
        b[3] = bias
        qm = quantize_model(folded, calibrate(
            folded, synth.make_random_windows(64, seed=1)))
        check_quant_invariants(qm)
        assert np.all(qm.blocks[0].convs[0].shift <= 30)
        x = np.stack([win.data for win in synth.make_random_windows(24, seed=4)])
        self.check_against_oracle(qm, x)


class TestQuantFile:
    def test_round_trip(self, tmp_path):
        _, qm = quantized_fixture(width=4)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        loaded = quantize.load(path)
        windows = synth.make_random_windows(5, seed=8)
        for w in windows:
            np.testing.assert_array_equal(qforward(qm, w.data),
                                          qforward(loaded, w.data))
        resaved = tmp_path / "q2.efq"
        quantize.save(loaded, resaved)
        assert path.read_bytes() == resaved.read_bytes()

    def test_truncated(self, tmp_path):
        _, qm = quantized_fixture(width=4)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptFile):
            quantize.load(path)

    def test_wrong_magic(self, tmp_path):
        _, qm = quantized_fixture(width=4)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"EFM1"
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            quantize.load(path)

    def test_missing(self, tmp_path):
        with pytest.raises(CorruptFile):
            quantize.load(tmp_path / "none.efq")

    def test_corrupt_zero_point_rejected(self, tmp_path):
        _, qm = quantized_fixture(width=4)
        qm.input_spec = QuantSpec(scale=qm.input_spec.scale, zero_point=300)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        with pytest.raises(NumericalContractError, match="input: zero point"):
            quantize.load(path)

    @pytest.mark.parametrize("where, value", [
        ("w_scale", float("nan")), ("spec", float("nan")),
        ("w_scale", float("inf")), ("spec", 0.0)])
    def test_bad_scale_rejected(self, tmp_path, where, value):
        _, qm = quantized_fixture(width=4)
        if where == "w_scale":
            qm.stem.w_scale[0] = value
        else:
            qm.stem.out_spec = QuantSpec(scale=value,
                                         zero_point=qm.stem.out_spec.zero_point)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        with pytest.raises(RequantRangeError, match="stem"):
            quantize.load(path)

    @pytest.mark.parametrize("where", ["conv", "add"])
    def test_shift_beyond_31_rejected(self, tmp_path, where):
        # a multiplier consistent with its scale ratio 0.75 * 2^-40, so
        # only the shift bound (n = 40 > 31) rejects it
        _, qm = quantized_fixture(width=4)
        if where == "conv":
            stem = qm.stem
            stem.w_scale[0] = 0.75 * 2.0 ** -40 * (stem.out_spec.scale
                                                   / stem.in_spec.scale)
            stem.m0[0], stem.shift[0] = quantize_multiplier(
                stem.in_spec.scale * float(stem.w_scale[0])
                / stem.out_spec.scale)
            n, match = int(stem.shift[0]), "stem"
        else:
            add = qm.blocks[0].add
            add.a_spec = QuantSpec(
                scale=float(np.float32(0.75 * 2.0 ** -40 * add.out_spec.scale)),
                zero_point=add.a_spec.zero_point)
            add.a_m0, add.a_shift = quantize_multiplier(
                add.a_spec.scale / add.out_spec.scale)
            n, match = add.a_shift, "b0.add"
        assert n == 40
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        with pytest.raises(RequantRangeError, match=match):
            quantize.load(path)

    def test_corrupt_m0_rejected(self, tmp_path):
        _, qm = quantized_fixture(width=4)
        qm.stem.m0[0] = 12345
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        with pytest.raises(NumericalContractError):
            quantize.load(path)
