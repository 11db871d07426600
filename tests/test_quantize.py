import copy
import dataclasses
import itertools
import math
import pickle
import re
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from conftest import (assert_zero_borders, captured, make_random_windows,
                      randomize_bn, regrouped, requantize_array,
                      same_unfolded)
from test_quant_pin import write_seeded_model
from edgefit import container, kernels, model, quantize, training
from edgefit.errors import (
    AccumulatorOverflow,
    CorruptFile,
    EmptyCalibrationSet,
    InvalidConfig,
    MissingCalibration,
    NonFiniteInput,
    NumericalContractError,
    RequantRangeError,
    VersionMismatch,
)
from edgefit.model import ModelConfig, build, fold_batchnorm
from edgefit.quantize import (
    QuantSpec,
    calibrate,
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


@dataclass
class QuantTensor:
    values: np.ndarray       # int8
    scale: np.ndarray        # float32 scalar array, or (C,) for per-channel
    zero_point: np.ndarray   # int32, same shape as scale


def quantize_symmetric(x):
    """quantize_tensor's (values, scale) with its zero points, all 0."""
    values, scale = quantize_tensor(x)
    return QuantTensor(values, scale, np.zeros_like(scale, dtype=np.int32))


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
    """Scalar oracle of conftest.requantize_array: round-half-up of
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
    calib = make_random_windows(n_calib, seed=calib_seed)
    return folded, quantize_model(folded, calibrate(folded, calib))


class TestQuantizeTensor:
    """quantize_tensor scales per output channel; the one-channel inputs
    cover what a per-tensor scale did."""

    def test_symmetric_example(self):
        values, scale = quantize_tensor(np.array([[-1.0, 0.0, 1.0]]))
        assert scale.dtype == np.float32 and scale.shape == (1,)
        assert float(scale[0]) == pytest.approx(1 / 127, rel=1e-6)
        np.testing.assert_array_equal(values, [[-127, 0, 127]])

    def test_affine_full_positive_range(self):
        s = 0.02
        qt = quantize_affine(np.array([0.0, 255 * s]))
        assert int(qt.zero_point) == -128
        np.testing.assert_array_equal(qt.values, [-128, 127])

    def test_dequantize_error_bound(self, rng):
        x = rng.uniform(-2, 2, size=(1, 100))
        qt = quantize_symmetric(x)
        err = np.abs(dequantize(qt) - x)
        assert np.all(err <= float(qt.scale[0]) / 2 + 1e-9)

    def test_affine_dequantize_error_bound(self, rng):
        x = rng.uniform(-1, 3, size=100)
        qt = quantize_affine(x)
        err = np.abs(dequantize(qt) - x)
        assert np.all(err <= float(qt.scale) / 2 + 1e-9)

    def test_all_zero_gets_scale_floor(self):
        values, scale = quantize_tensor(np.zeros((1, 5)))
        assert float(scale[0]) > 0
        np.testing.assert_array_equal(values, 0)

    def test_per_channel(self, rng):
        w = rng.standard_normal((4, 3, 3))
        w[2] *= 10
        values, scale = quantize_tensor(w)
        assert scale.shape == (4,)
        assert float(scale[2]) == pytest.approx(np.abs(w[2]).max() / 127,
                                                rel=1e-5)
        assert np.abs(values).max() <= 127
        err = np.abs(dequantize(quantize_symmetric(w)) - w)
        assert np.all(err <= scale[:, None, None] / 2 + 1e-9)

    def test_rounding_half_away_from_zero(self):
        # scale 1: 0.5 -> 1, -0.5 -> -1 (not banker's rounding)
        values, _ = quantize_tensor(np.array([[127.0, 0.5, -0.5, -127.0]]))
        np.testing.assert_array_equal(values, [[127, 1, -1, -127]])


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
        for ratio in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(RequantRangeError, match="b1.c2"):
                quantize_multiplier(ratio, "b1.c2")

    def test_shift_bounds(self):
        # n = 31 for ratios in [2^-32, 2^-31), n = -30 in [2^29, 2^30)
        assert quantize_multiplier(2.0 ** -32) == (1 << 30, 31)
        assert quantize_multiplier(0.75 * 2.0 ** 30) == (3 << 29, -30)
        for ratio, n in ((2.0 ** -32 * 0.99, 32), (2.0 ** 30, -31)):
            with pytest.raises(RequantRangeError,
                               match=f"b0.add: .* needs shift {n},"):
                quantize_multiplier(ratio, "b0.add")


    @staticmethod
    def scalar_rule(ratio):
        """M0 and n of one ratio in Python floats and ints: the mantissa
        scaled by 2^31 and rounded half to even, halved back into
        [2^30, 2^31) when it rounds up to 2^31."""
        mantissa, exponent = math.frexp(ratio)
        m0 = round(mantissa * (1 << 31))
        if m0 == 1 << 31:
            m0, exponent = m0 >> 1, exponent + 1
        return m0, -exponent

    def test_arrays_match_the_scalar_rule(self, rng):
        """Element-wise over random ratios and over ratios whose mantissa
        rounds up to 2^31, in any shape, as int64."""
        carries = (1 - 2.0 ** -53) * 2.0 ** np.arange(-31, 30)
        for ratio in (10 ** rng.uniform(-9, 9, 2000), carries,
                      10 ** rng.uniform(-3, 0, (4, 13))):
            ratio = np.clip(ratio, 2.0 ** -32, 2.0 ** 30 * 0.999)
            m0, n = quantize_multiplier(ratio)
            assert m0.dtype == n.dtype == np.int64
            assert m0.shape == n.shape == ratio.shape
            assert list(zip(m0.ravel().tolist(), n.ravel().tolist())) == [
                self.scalar_rule(float(r)) for r in ratio.ravel()]
        assert set(quantize_multiplier(carries)[0].tolist()) == {1 << 30}

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "scale ratio must be finite and positive, got nan"),
        (0.0, "scale ratio must be finite and positive, got 0.0"),
        (-0.25, "scale ratio must be finite and positive, got -0.25"),
        (math.inf, "scale ratio must be finite and positive, got inf"),
        (2.0 ** 30, f"scale ratio {2.0 ** 30} needs shift -31, outside"),
        (2.0 ** -33, f"scale ratio {2.0 ** -33} needs shift 32, outside")])
    def test_array_error_names_the_first_offending_channel(self, bad, message):
        """A bad channel among good ones is named with the layer; of two
        bad channels, the first in C order is."""
        ratio = np.full(6, 0.01)
        ratio[2] = bad
        with pytest.raises(RequantRangeError, match=re.escape(
                f"b1.c2: {message}")):
            quantize_multiplier(ratio, "b1.c2")
        ratio[4] = 2.0 ** 31 if math.isnan(bad) else math.nan
        with pytest.raises(RequantRangeError, match=re.escape(
                f"b1.c2: {message}")):
            quantize_multiplier(ratio, "b1.c2")


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

    def test_scalar_matches_vectorized(self, rng):
        for _ in range(1000):
            acc = int(rng.integers(-(2 ** 31), 2 ** 31))
            m0, n = quantize_multiplier(float(10 ** rng.uniform(-6, -0.01)))
            zp = int(rng.integers(-100, 100))
            scalar = requantize(acc, m0, n, zp)
            vec = requantize_array(np.array([acc], dtype=np.int64),
                                   np.int64(m0), np.int64(n), zp)
            assert scalar == int(vec[0])


class TestCalibrate:
    def test_zero_window_quantizes_to_zero_point(self):
        """An all-zero window ranges the input to (0, 0) and each ReLU
        output to a low end of 0; the input's spec, widened to include 0,
        maps the window to its zero point, the real value 0 exactly."""
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        zero = make_random_windows(1, seed=0, scale=0.0)
        ranges = calibrate(folded, zero)
        assert ranges["input"] == (0.0, 0.0)
        for conv in model.topology(folded.config):
            assert ranges[f"{conv.add or conv.name}.out"][0] == 0.0
        spec = activation_spec(*ranges["input"])
        assert (quantize_input(spec, zero[0].data) == spec.zero_point).all()

    def test_positive_input_range_is_not_widened(self, tmp_path):
        """Windows whose every value is positive range the input to a low
        end above 0: calibrate returns what it observed, and quantize_model
        widens each range to include 0 (activation_spec), so the EFQ3 bytes
        equal those of the ranges widened by hand."""
        folded = fold_batchnorm(randomize_bn(build(ModelConfig(width=8),
                                                   seed=6)))
        windows = make_random_windows(20, seed=7)
        for w in windows:
            w.data = np.abs(w.data) + np.float32(0.25)
        ranges = calibrate(folded, windows)
        lo, hi = ranges["input"]
        assert 0.25 <= lo < hi
        widened = {name: (min(r[0], 0.0), max(r[1], 0.0))
                   for name, r in ranges.items()}
        assert widened["input"] == (0.0, hi)
        paths = []
        for tag, r in (("observed", ranges), ("widened", widened)):
            paths.append(tmp_path / f"{tag}.efq")
            quantize.save(quantize_model(folded, r), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_monotone_ranges(self):
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        few = calibrate(folded, make_random_windows(8, seed=1))
        more = calibrate(folded, make_random_windows(8, seed=1)
                         + make_random_windows(8, seed=2))
        for name, (lo, hi) in few.items():
            lo2, hi2 = more[name]
            assert lo2 <= lo and hi2 >= hi

    def test_duplicate_windows_do_not_change_stats(self):
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        w = make_random_windows(1, seed=3)
        once = calibrate(folded, w)
        twice = calibrate(folded, w + w)
        assert once == twice

    @staticmethod
    def check_one_window_at_a_time(folded, windows, tmp_path):
        """calibrate's ranges and the EFQ3 bytes they give equal those of
        the rule stated here over every activation of the windows run
        through forward_batch one at a time: each activation's min and
        max, except that a ReLU output, each conv's or add's {name}.out in
        model.topology, takes 0 as its low end. Returns the ranges."""
        relu_outputs = {f"{conv.add or conv.name}.out"
                        for conv in model.topology(folded.config)}
        seen = {}
        for w in windows:
            _, capture = captured(folded, w.data.astype(np.float32)[None])
            for name, arr in capture.items():
                seen.setdefault(name, []).append((float(arr.min()),
                                                  float(arr.max())))
        single = {name: (0.0 if name in relu_outputs
                         else min(lo for lo, _ in extremes),
                         max(hi for _, hi in extremes))
                  for name, extremes in seen.items()}
        batched = calibrate(folded, windows)
        assert list(batched) == model.activation_names(folded.config)
        assert batched == single
        paths = []
        for tag, ranges in (("single", single), ("batched", batched)):
            paths.append(tmp_path / f"{tag}.efq")
            quantize.save(quantize_model(folded, ranges), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        return batched

    def test_blocks_match_one_window_at_a_time(self, tmp_path):
        """Width 52, 512 windows (8 blocks): every activation's range and
        the EFQ3 bytes equal those of running the windows through
        forward_batch one at a time."""
        folded = fold_batchnorm(randomize_bn(build(ModelConfig(width=52),
                                                   seed=6)))
        self.check_one_window_at_a_time(
            folded, make_random_windows(512, seed=7), tmp_path)

    @pytest.mark.parametrize("blocks, convs_per_block",
                             [(1, 1), (1, 3), (3, 1), (3, 3)])
    def test_topologies_match_one_window_at_a_time(
            self, tmp_path, blocks, convs_per_block):
        """calibrate takes only the max of a ReLU output, each conv's or
        add's {name}.out in model.topology; the oracle takes both ends.
        Width 8, 40 windows (3 blocks), in every block shape."""
        cfg = ModelConfig(width=8, blocks=blocks,
                          convs_per_block=convs_per_block)
        folded = fold_batchnorm(randomize_bn(build(cfg, seed=6), seed=2))
        ranges = self.check_one_window_at_a_time(
            folded, make_random_windows(40, seed=7), tmp_path)
        relu_outputs = {f"{conv.add or conv.name}.out"
                        for conv in model.topology(cfg)}
        assert len(relu_outputs) == 1 + blocks * convs_per_block
        for name, (lo, hi) in ranges.items():
            assert lo == 0.0 < hi if name in relu_outputs else lo < 0.0 < hi

    def test_all_zero_relu_site(self, tmp_path):
        """A conv whose ReLU output is 0 on every window (zero weights, a
        negative folded beta, its bias) ranges to (0, 0), as the two-sided rule gives, and
        quantizes with the range floor."""
        folded = fold_batchnorm(randomize_bn(build(ModelConfig(width=8),
                                                   seed=6)))
        layer = folded.convs[2]                       # b0.c1
        layer.w[...] = 0
        layer.beta[...] = -0.5
        ranges = self.check_one_window_at_a_time(
            folded, make_random_windows(40, seed=7), tmp_path)
        assert ranges["b0.c1.out"] == (0.0, 0.0)
        assert activation_spec(0.0, 0.0).scale > 0

    def test_empty(self):
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        with pytest.raises(EmptyCalibrationSet):
            calibrate(folded, [])

    def test_unfolded_rejected(self):
        m = build(ModelConfig(width=4), seed=0)
        with pytest.raises(InvalidConfig):
            calibrate(m, make_random_windows(1, seed=0))


class TestQuantizeModel:
    @pytest.mark.parametrize("config", [ModelConfig(),
                                        ModelConfig(convs_per_block=1)])
    def test_one_name_per_activation(self, config, tmp_path):
        """activation_names names what forward_batch captures, what
        calibrate ranges, the specs an EFQ3 file stores and the
        activations the int8 trace records."""
        names = model.activation_names(config)
        folded = fold_batchnorm(build(config, seed=0))
        windows = make_random_windows(4, seed=0)
        _, capture = captured(folded, windows[0].data[None])
        assert list(capture) == names
        ranges = calibrate(folded, windows)
        assert list(ranges) == names
        qm = quantize_model(folded, ranges)
        quantize.save(qm, tmp_path / "q.efq")
        stored = container.read(tmp_path / "q.efq", quantize.QUANT_MAGIC)
        for field in ("scale", "zero_point"):
            assert sorted(name.removesuffix(f".{field}")
                          for name in stored.tensors
                          if name.endswith(f".{field}")) == sorted(names)
        trace = []
        qforward(qm, windows[0].data, trace=trace)
        assert [name for name, _ in trace
                if not name.endswith(".acc")] == names

    def test_multiplier_invariant_every_layer(self):
        _, qm = quantized_fixture()
        check_quant_invariants(qm)

    def test_checks_the_model_it_returns(self, monkeypatch):
        checked = []
        monkeypatch.setattr(quantize, "check_quant_invariants", checked.append)
        _, qm = quantized_fixture(width=4)
        assert checked == [qm]

    def test_deterministic_bytes(self, tmp_path):
        _, qm1 = quantized_fixture()
        _, qm2 = quantized_fixture()
        p1, p2 = tmp_path / "a.efq", tmp_path / "b.efq"
        quantize.save(qm1, p1)
        quantize.save(qm2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_calibration(self):
        """The first name of activation_names without a range is the one
        MissingCalibration names."""
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        ranges = calibrate(folded, make_random_windows(2, seed=0))
        del ranges["b0.c1.out"], ranges["b1.c0.out"]
        with pytest.raises(MissingCalibration, match="'b0.c1.out'") as info:
            quantize_model(folded, ranges)
        assert info.value.site == "b0.c1.out"

    def test_unfolded_rejected(self):
        m = build(ModelConfig(width=4), seed=0)
        with pytest.raises(InvalidConfig):
            quantize_model(m, {})

    def test_accumulator_bound_violation(self):
        """A stem of fan-in 70,000 x 3 can overflow int32:
        check_quant_invariants, which quantize_model and load run, names
        it."""
        _, qm = quantized_fixture(width=4)
        stem = quantize.QLayer(np.ones((4, 70_000, 3), np.int8),
                               np.ones(4, np.float32), np.zeros(4, np.int32))
        qm = dataclasses.replace(
            qm, config=dataclasses.replace(qm.config, in_channels=70_000),
            convs=[stem] + qm.convs[1:])
        with pytest.raises(AccumulatorOverflow,
                           match="^stem: worst-case accumulator"):
            check_quant_invariants(qm)

    def test_bias_overflow(self):
        """A finite bias so large that the weight scale it takes needs a
        multiplier shift below -30: quantize_model's check, _layout's,
        names the conv."""
        folded = fold_batchnorm(build(ModelConfig(width=4), seed=0))
        ranges = calibrate(folded, make_random_windows(2, seed=0))
        folded.convs[2].beta[0] = 1e30                # b0.c1
        with pytest.raises(RequantRangeError,
                           match=r"^b0\.c1: scale ratio .* needs shift"):
            quantize_model(folded, ranges)


def conv_multipliers(layer, in_spec, out_spec):
    """quantize_multiplier's M0 and n per output channel of layer, reading
    in_spec's grid into out_spec's, as two int64 columns."""
    ratios = (in_spec.scale * layer.w_scale.astype(np.float64)
              / out_spec.scale)
    pairs = [quantize_multiplier(float(r)) for r in ratios]
    return (np.array([m0 for m0, _ in pairs], np.int64)[:, None],
            np.array([n for _, n in pairs], np.int64)[:, None])


def reference_qconv(layer, in_spec, out_spec, relu, x_q):
    """Exact integer oracle: Python-loop convolution plus long-division
    rounding, independent of the numpy/shift implementation."""
    c_out, c_in, k = layer.w_q.shape
    m0, shift = conv_multipliers(layer, in_spec, out_spec)
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
                        xv = int(x_q[c, src]) - in_spec.zero_point
                        acc += int(layer.w_q[o, c, kk]) * xv
            num = acc * int(m0[o, 0])
            den = 1 << (31 + int(shift[o, 0]))
            q, r = divmod(num, den)          # floor division, exact ints
            if 2 * r >= den:                 # round half toward +inf
                q += 1
            q += out_spec.zero_point
            q = max(-128, min(127, q))
            if relu:
                q = max(q, out_spec.zero_point)
            out[o, t] = q
    return out.astype(np.int8)


def plan_qconv(layer, in_spec, out_spec, relu, x_q):
    """x_q (B, C_in, L) int8 on in_spec's grid through the conv step the
    plan runs for layer, with scratch arrays of its own."""
    batch, _, length = x_q.shape
    step = quantize._ConvStep.of("t", layer, in_spec, out_spec, relu, length)
    y = np.empty((batch, layer.w_q.shape[0], length), np.int8)
    scratch = step.scratch(
        lambda shape, dtype, tag="", fill=0: np.full((batch, *shape), fill,
                                                     dtype), length)
    step.run(x_q, y, *scratch, None)
    return y


class TestQuantizeInput:
    """quantize_input rounds half away from zero and saturates; it clamps
    in float64 before any integer cast and rejects NaN and Inf."""

    SPEC = QuantSpec(scale=0.03, zero_point=-10)

    @staticmethod
    def rounded_then_saturated(spec, x):
        """The arithmetic quantize_input had before it clamped first: round
        to int64, add the zero point, saturate. Exact for |x/scale| < 2^62."""
        q = round_half_away(np.asarray(x, np.float64) / spec.scale)
        return np.clip(q + spec.zero_point, -128, 127).astype(np.int8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_range_values_unchanged(self, rng, dtype):
        """Ties at +-0.5 LSB, -0.0, the largest double below 0.5 LSB, the
        saturation edges and random values give what rounding first gave."""
        s = self.SPEC.scale
        k = np.arange(-160.0, 160.0)
        x = np.concatenate([
            k * s, (k + 0.5) * s, (k - 0.5) * s,
            [0.0, -0.0, 0.49999999999999994 * s, -0.49999999999999994 * s,
             0.49999999999999994, -0.49999999999999994, 1e6, -1e6],
            rng.uniform(-5, 5, 1000)]).astype(dtype)
        np.testing.assert_array_equal(quantize_input(self.SPEC, x),
                                      self.rounded_then_saturated(self.SPEC, x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value, q", [(1e20, 127), (-1e20, -128),
                                          (3e38, 127), (-3e38, -128)])
    def test_huge_values_saturate(self, dtype, value, q):
        got = quantize_input(self.SPEC, np.full((7, 40), value, dtype))
        np.testing.assert_array_equal(got, np.full((7, 40), q, np.int8))

    @pytest.mark.parametrize("value, q", [(1.7e308, 127), (-1.7e308, -128)])
    def test_quotient_beyond_float64_saturates_silently(self, value, q):
        """x/scale overflows float64 at scale 0.03; the warnings filter
        turns any RuntimeWarning into an error."""
        got = quantize_input(self.SPEC, np.full((7, 40), value))
        np.testing.assert_array_equal(got, np.full((7, 40), q, np.int8))

    @pytest.mark.parametrize("value", [1e20, -1e20, 3e38, -3e38])
    def test_huge_window_logits_are_those_of_a_saturated_one(self, value):
        """Through qforward and qforward_batch, a window of +-1e20 or
        +-3e38 gives the logits of one that saturates at +-1e6."""
        _, qm = quantized_fixture(width=4)
        x = np.full((7, 40), value, np.float32)
        expected = qforward(qm, np.full((7, 40), np.sign(value) * 1e6,
                                        np.float32))
        np.testing.assert_array_equal(qforward(qm, x), expected)
        batch = np.stack([x, -x, x])
        np.testing.assert_array_equal(qforward_batch(qm, batch)[[0, 2]],
                                      [expected, expected])

    @pytest.mark.parametrize("zp", [0, -10, 3, 127, -128])
    @pytest.mark.parametrize("planned", [False, True])
    def test_ties_and_edges_match_round_half_away(self, zp, planned):
        """At scale 1, the ties +-0.5 and +-2.5 round away from zero,
        -0.0 gives the zero point, 0.49999999999999994 rounds as
        round_half_away rounds it, and values beyond the grid saturate:
        round_half_away plus the zero point, clipped, with and without
        the plan's out and work arrays."""
        spec = QuantSpec(scale=1.0, zero_point=zp)
        x = np.array([0.5, -0.5, 2.5, -2.5, 1.5, -1.5, 0.0, -0.0,
                      0.49999999999999994, -0.49999999999999994,
                      127.5, -128.5, 300.0, -300.0, 1e300, -1e300])
        # round_half_away's int64 cast takes no 1e300
        expected = np.clip(round_half_away(np.clip(x, -1e6, 1e6)) + zp,
                           -128, 127)
        if planned:
            out = np.empty(x.shape, np.int8)
            work = (np.empty(x.shape), np.empty(x.shape))
            assert quantize_input(spec, x, out=out, work=work) is out
        else:
            out = quantize_input(spec, x)
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, expected)

    def test_work_arrays_take_every_temporary(self):
        """With out and work given, a 16-window block allocates only the
        finiteness check's mask, not the float64 temporaries."""
        x = np.stack([w.data for w in make_random_windows(16, seed=3)])
        out = np.empty(x.shape, np.int8)
        work = (np.empty(x.shape), np.empty(x.shape))
        peaks = []
        for kwargs in ({}, {"out": out, "work": work}):
            quantize_input(self.SPEC, x, **kwargs)
            tracemalloc.start()
            try:
                quantize_input(self.SPEC, x, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 8 * 1024 < 2 * x.size * 8 <= peaks[0]
        np.testing.assert_array_equal(out, quantize_input(self.SPEC, x))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_input_raises(self, value):
        _, qm = quantized_fixture(width=4)
        windows = make_random_windows(9, seed=3)
        windows[7].data[2, 11] = value
        x = np.stack([w.data for w in windows])
        with pytest.raises(NonFiniteInput):
            quantize_input(self.SPEC, x)
        with pytest.raises(NonFiniteInput):
            qforward(qm, x[7])
        with pytest.raises(NonFiniteInput):
            qforward_batch(qm, x)
        with pytest.raises(NonFiniteInput):
            quantize.evaluate_quant(qm, windows)


class TestQForward:
    def test_identity_layer_small_instance(self):
        """K=1 identity weights with matching in/out specs: the quantized
        conv reproduces its input to within 2 quanta."""
        c = 4
        spec = QuantSpec(scale=0.05, zero_point=3)
        w = np.eye(c, dtype=np.float32)[:, :, None]
        layer = quantize._quantize_weights("id", w, np.zeros(c, np.float32),
                                           spec.scale, spec.scale)
        rng = np.random.default_rng(0)
        x_q = rng.integers(-128, 128, size=(1, c, 10)).astype(np.int8)
        out = plan_qconv(layer, spec, spec, False, x_q)[0]
        assert np.abs(out.astype(int) - x_q[0].astype(int)).max() <= 2

    def test_one_layer_exact_integer_oracle(self, rng):
        w = rng.standard_normal((3, 2, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32) * 0.1
        in_spec = QuantSpec(scale=0.04, zero_point=-5)
        out_spec = QuantSpec(scale=0.11, zero_point=12)
        layer = quantize._quantize_weights("t", w, b, in_spec.scale,
                                           out_spec.scale)
        for relu in (False, True):
            x_q = rng.integers(-128, 128, size=(1, 2, 9)).astype(np.int8)
            got = plan_qconv(layer, in_spec, out_spec, relu, x_q)[0]
            np.testing.assert_array_equal(
                got, reference_qconv(layer, in_spec, out_spec, relu, x_q[0]))

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("in_zp", [-128, 0, 127])
    def test_border_taps(self, rng, kernel, in_zp):
        """At lengths 1, 2, K and 40, the taps that fall on the zero
        borders add nothing, whatever the input zero point: the conv step
        gives the unplanned oracle's output, and the exact oracle's."""
        c_in, c_out = 3, 6
        w_q = np.where(rng.random((c_out, c_in, kernel)) < 0.5, 127, -127)
        w_q[0], w_q[1] = 127, -127
        layer = quantize.QLayer(w_q.astype(np.int8),
                                rng.uniform(0.5, 1.5, c_out).astype(np.float32)
                                / (127 * 8 * c_in * kernel),
                                rng.integers(-3000, 3001, c_out, np.int32))
        in_spec = QuantSpec(scale=0.04, zero_point=in_zp)
        out_spec = QuantSpec(scale=0.011, zero_point=-7)
        for length in sorted({1, 2, kernel, 40}):
            x_q = rng.integers(-128, 128, (3, c_in, length)).astype(np.int8)
            x_q[0] = in_zp
            for relu in (False, True):
                got = plan_qconv(layer, in_spec, out_spec, relu, x_q)
                np.testing.assert_array_equal(got, unplanned_qconv(
                    "t", layer, in_spec, out_spec, relu, x_q, None))
                np.testing.assert_array_equal(got[2], reference_qconv(
                    layer, in_spec, out_spec, relu, x_q[2]))

    def test_no_floats_in_integer_path(self):
        _, qm = quantized_fixture(width=4)
        trace = []
        qforward(qm, make_random_windows(1, seed=5)[0].data, trace=trace)
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
            quantize_input(qm.specs["input"], zero),
            np.full((7, 40), qm.specs["input"].zero_point, dtype=np.int8))

    def test_single_matches_batched(self):
        _, qm = quantized_fixture(width=4)
        windows = make_random_windows(6, seed=6)
        x = np.stack([w.data for w in windows])
        batched = qforward_batch(qm, x)
        for i, w in enumerate(windows):
            np.testing.assert_array_equal(qforward(qm, w.data), batched[i])

    def test_plan_pad_borders_stay_zero(self):
        """Blocks of 8, 3 and 1 windows write only the interiors of the
        conv steps' pad buffers, each reached as the base of its step's
        unfold view, the array the view was built on."""
        _, qm = quantized_fixture(width=4)
        for n in (8, 3, 1):
            qforward_batch(qm, np.stack(
                [w.data for w in make_random_windows(n, seed=n)]))
        convs = [(step, scratch) for (step, _), scratch
                 in zip(qm.plan.layout, qm.plan.scratch)
                 if isinstance(step, quantize._ConvStep)]
        assert len(convs) == 10
        for step, (_, unfolded, *_) in convs:
            padded = unfolded.base
            assert padded.ndim == 3 and padded.any()
            assert_zero_borders(padded, step.layer.w_q.shape[2])

    def test_evaluate_quant_is_one_batch_call(self, monkeypatch):
        """37 windows, not a multiple of kernels.BLOCK: evaluate_quant gives
        the confusion matrix and loss of metrics_from_logits over one
        call of quantize.qforward_batch, the module global the benchmark
        taps, whose logits are those of any split into smaller calls."""
        _, qm = quantized_fixture(width=8)
        windows = make_random_windows(37, seed=5)
        x = np.stack([w.data for w in windows])
        logits = qforward_batch(qm, x)
        split = np.concatenate([qforward_batch(qm, x[i:i + 10])
                                for i in range(0, len(x), 10)])
        assert logits.tobytes() == split.tobytes()
        want = training.metrics_from_logits(
            logits, np.array([w.label for w in windows]),
            np.array([w.weight for w in windows], np.float32),
            qm.config.classes)
        calls = []

        def counted(qmodel, x):
            calls.append(len(x))
            return qforward_batch(qmodel, x)

        monkeypatch.setattr(quantize, "qforward_batch", counted)
        got = quantize.evaluate_quant(qm, windows)
        assert calls == [37]
        np.testing.assert_array_equal(got.confusion, want.confusion)
        assert got.loss == want.loss

    def test_top1_agreement_with_float(self):
        folded, qm = quantized_fixture(width=8)
        windows = make_random_windows(300, seed=2)
        x = np.stack([w.data for w in windows])
        agree = (qforward_batch(qm, x).argmax(1)
                 == model.forward_batch(folded, x).argmax(1)).mean()
        assert agree >= 0.95

    def test_trained_bn_model_agreement(self):
        folded = fold_batchnorm(
            randomize_bn(build(ModelConfig(width=8), seed=3), seed=7))
        calib = make_random_windows(256, seed=1)
        qm = quantize_model(folded, calibrate(folded, calib))
        windows = make_random_windows(300, seed=2)
        x = np.stack([w.data for w in windows])
        agree = (qforward_batch(qm, x).argmax(1)
                 == model.forward_batch(folded, x).argmax(1)).mean()
        assert agree >= 0.90


# The unplanned oracle: the integer path as it ran before QuantPlan, which
# rebuilt every constant and temporary on each call and added the bias and
# rounding term separately; its requantization is its own copy.

def oracle_rescale(acc, m0, shift_n, out=None):
    """Round-half-up of acc*M0 / 2^(31+n), unclamped, as int64."""
    shift = 31 + shift_n
    t = np.multiply(acc, m0, out=out)
    t += np.left_shift(np.int64(1), shift - 1)
    t >>= shift
    return t


def oracle_requantize(acc, m0, shift_n, zero_point_out, low=-128):
    value = oracle_rescale(acc, m0, shift_n, out=acc)
    value += zero_point_out
    return np.clip(value, low, 127, out=value).astype(np.int8)


def walk_network(qm, q, conv, add):
    """The int8 network as the oracles run it, independent of _layout: q =
    conv(name, layer, in_spec, out_spec, relu, q) for each conv, where
    every conv but a block's last fuses a ReLU, and q = add(name, a_spec,
    h_spec, out_spec, q_a, q_h) for each block's residual add of its input
    q_a and its last conv's output q_h. Returns the head's input and its
    spec."""
    specs = qm.specs
    stem, blocks = regrouped(qm.convs, qm.config)
    q = conv("stem", stem, specs["input"], specs["stem.out"], True, q)
    spec = specs["stem.out"]
    for i, block in enumerate(blocks):
        q_in, block_in = q, spec
        for j, layer in enumerate(block):
            name = f"b{i}.c{j}"
            out = specs[f"{name}.out"]
            q = conv(name, layer, spec, out, j < len(block) - 1, q)
            spec = out
        out = specs[f"b{i}.add.out"]
        q = add(f"b{i}.add", block_in, spec, out, q_in, q)
        spec = out
    return q, spec


def unplanned_qconv(name, layer, in_spec, out_spec, relu, x_q, trace):
    """x_q: (B, C_in, L) int8 on in_spec's grid -> (B, C_out, L) int8."""
    _, c_in, k = layer.w_q.shape
    shifted = np.subtract(x_q, in_spec.zero_point, dtype=np.int16)
    w = layer.w_q.astype(quantize._gemm_dtype(c_in * k))
    acc = kernels.conv1d(same_unfolded(shifted, w),
                         kernels.weight_matrix(w, k))
    acc = acc.astype(np.int64)
    acc += layer.bias_q[:, None]
    quantize._note(trace, f"{name}.acc", acc)
    low = out_spec.zero_point if relu else -128
    q = oracle_requantize(acc, *conv_multipliers(layer, in_spec, out_spec),
                          out_spec.zero_point, low)
    quantize._note(trace, f"{name}.out", q)
    return q


def unplanned_qadd(name, a_spec, h_spec, out_spec, q_a, q_h, trace):
    """The block input q_a on a_spec's grid plus the last conv output q_h
    on h_spec's, into out_spec with the fused ReLU, traced as the add
    name's output."""
    def rescaled(q, spec):
        # unclamped (addends may exceed int8 range before saturation)
        m0, n = quantize_multiplier(spec.scale / out_spec.scale)
        x = np.subtract(q, spec.zero_point, dtype=np.int64)
        return oracle_rescale(x, np.int64(m0), np.int64(n), out=x)

    a = rescaled(q_a, a_spec)
    a += rescaled(q_h, h_spec)
    a += out_spec.zero_point
    q = np.clip(a, out_spec.zero_point, 127, out=a).astype(np.int8)
    quantize._note(trace, f"{name}.out", q)
    return q


def unplanned_qforward_batch(qm, x, trace=None):
    """Float32 logits of the batch x, one block of kernels.BLOCK at a time."""
    logits = np.empty((x.shape[0], qm.config.classes), dtype=np.float32)
    for i in range(0, x.shape[0], kernels.BLOCK):
        block = slice(i, i + kernels.BLOCK)
        logits[block] = unplanned_block(qm, x[block], trace if i == 0 else None)
    return logits


def unplanned_block(qm, x, trace):
    spec = qm.specs["input"]
    q = np.asarray(x, dtype=np.float64) / spec.scale
    q = np.clip(round_half_away(q) + spec.zero_point, -128, 127)
    q = q.astype(np.int8)
    quantize._note(trace, "input", q)
    q, spec = walk_network(
        qm, q, lambda *args: unplanned_qconv(*args, trace),
        lambda *args: unplanned_qadd(*args, trace))
    head = qm.head
    flat = q.reshape(q.shape[0], -1)
    dtype = quantize._gemm_dtype(head.w_q.shape[1])
    shifted = flat.astype(dtype) - spec.zero_point
    acc = (shifted @ head.w_q.astype(dtype).T).astype(np.int64)
    acc += head.bias_q[None, :]
    quantize._note(trace, "head.acc", acc)
    scale = spec.scale * head.w_scale.astype(np.float64)
    return acc.astype(np.float64) * scale[None, :]


def int32_qconv_run(name, layer, in_spec, out_spec, relu, x_q):
    """The conv with its GEMM in int32, as the integer path ran it before
    the GEMMs moved to float32/float64: the oracle for their exactness."""
    batch, c_in, length = x_q.shape
    c_out, _, k = layer.w_q.shape
    pad = (k - 1) // 2
    shifted = x_q.astype(np.int32) - in_spec.zero_point
    xp = np.pad(shifted, ((0, 0), (0, 0), (pad, pad)))
    cols = kernels.im2col(kernels.unfold(xp, k))
    flat = cols.transpose(1, 0, 2).reshape(c_in * k, batch * length)
    acc = layer.w_q.reshape(c_out, -1).astype(np.int32) @ flat
    acc = acc.reshape(c_out, batch, length).transpose(1, 0, 2)
    acc = acc + layer.bias_q[None, :, None]
    m0, shift = conv_multipliers(layer, in_spec, out_spec)
    q = requantize_array(acc.astype(np.int64), m0[None], shift[None],
                         out_spec.zero_point)
    if relu:
        q = np.maximum(q, np.int8(out_spec.zero_point))
    return q


def int32_qforward_batch(qm, x):
    """qforward_batch with every GEMM (convs and head) in int32."""
    q, spec = walk_network(
        qm, quantize.quantize_input(qm.specs["input"], x), int32_qconv_run,
        lambda *args: unplanned_qadd(*args, None))
    flat = q.reshape(q.shape[0], -1)
    shifted = flat.astype(np.int32) - spec.zero_point
    acc = shifted @ qm.head.w_q.astype(np.int32).T + qm.head.bias_q[None, :]
    scale = spec.scale * qm.head.w_scale.astype(np.float64)
    return (acc.astype(np.float64) * scale[None, :]).astype(np.float32)


def extreme_model(qm, rng):
    """A copy of qm with every weight +-127 (two all-+127 output channels
    per layer, whose sums reach fan_in * 127 * 255 on an input that sits
    at one extreme), an input scale of 1e-3 and activation zero points
    alternating between -128 and 127. It passes check_quant_invariants:
    the stem's multipliers follow its new input scale."""
    qm = copy.deepcopy(qm)
    zps = iter([-128, 127] * 100)

    def weights(w):
        w = np.where(rng.random(w.shape) < 0.5, 127, -127).astype(np.int8)
        w[:2] = 127
        return w

    for _, layer in qm.layers():
        layer.w_q = weights(layer.w_q)
    qm.specs = {name: QuantSpec(scale=1e-3, zero_point=127) if name == "input"
                else QuantSpec(scale=spec.scale, zero_point=next(zps))
                for name, spec in qm.specs.items()}
    return qm


class TestExactFloatGemm:
    """qforward_batch runs its GEMMs in float32/float64; the logits must be
    bit-identical to the int32 GEMMs and to the unplanned oracle."""

    @staticmethod
    def check_against_oracle(qm, x):
        trace = []
        got = qforward_batch(qm, x, trace=trace)
        np.testing.assert_array_equal(got, int32_qforward_batch(qm, x))
        oracle_trace = []
        np.testing.assert_array_equal(
            got, unplanned_qforward_batch(qm, x, trace=oracle_trace))
        assert [name for name, _ in trace] == [name for name, _ in oracle_trace]
        assert quantize.count_float_entries(trace) == 0
        acc = [dtype for name, dtype in trace if name.endswith(".acc")]
        cfg = qm.config
        assert len(acc) == 2 + cfg.blocks * cfg.convs_per_block  # convs, head
        assert all(dtype.startswith("int") for dtype in acc)

    def test_width_52_random_windows(self):
        _, qm = quantized_fixture(width=52, n_calib=64)
        assert quantize._gemm_dtype(52 * 3) is np.float32
        assert quantize._gemm_dtype(52 * 40) is np.float64
        x = np.stack([w.data for w in make_random_windows(256, seed=11)])
        self.check_against_oracle(qm, x)

    def test_partial_last_block(self):
        # 2 full blocks and a partial one; each window equals its single call
        _, qm = quantized_fixture(width=52, n_calib=64)
        n = 2 * kernels.BLOCK + 3
        x = np.stack([w.data for w in make_random_windows(n, seed=13)])
        self.check_against_oracle(qm, x)
        batched = qforward_batch(qm, x)
        for i in range(n):
            np.testing.assert_array_equal(qforward(qm, x[i]), batched[i])

    def test_wide_conv_takes_float64(self):
        # fan_in 176 * 3 = 528: 528 * 128 * 255 >= 2^24
        _, qm = quantized_fixture(width=176, n_calib=16)
        assert qm.convs[1].w_q.shape[1:] == (176, 3)
        assert quantize._gemm_dtype(528) is np.float64
        x = np.stack([w.data for w in make_random_windows(24, seed=12)])
        self.check_against_oracle(qm, x)

    def test_extreme_operands(self, rng):
        _, qm = quantized_fixture(width=52, n_calib=64)
        qm = extreme_model(qm, rng)
        x = np.where(rng.random((64, 7, 40)) < 0.5, -1.0, 1.0)
        q_in = quantize_input(qm.specs["input"], x)
        assert set(np.unique(q_in)) == {-128, 127}
        self.check_against_oracle(qm, x.astype(np.float32))
        # all q = -128 against zero point 127: every stem product is
        # 127 * -255 in the two all-+127 channels
        self.check_against_oracle(qm, np.full((4, 7, 40), -1.0, np.float32))
        batched = qforward_batch(qm, x[:5].astype(np.float32))
        for i in range(5):
            np.testing.assert_array_equal(
                qforward(qm, x[i].astype(np.float32)), batched[i])

    @pytest.mark.parametrize("site", ["conv", "head"])
    @pytest.mark.parametrize("bias", [0.05, 0.0])
    def test_zero_weight_channel(self, site, bias):
        """An all-zero weight channel gets a weight scale floored so its
        bias fits int32 and its shift n stays <= 30."""
        folded = fold_batchnorm(build(ModelConfig(width=8), seed=3))
        w, b = ((folded.convs[1].w, folded.convs[1].beta) if site == "conv"
                else (folded.head_w, folded.head_b))
        w[3] = 0
        b[3] = bias
        qm = quantize_model(folded, calibrate(
            folded, make_random_windows(64, seed=1)))
        check_quant_invariants(qm)
        x = np.stack([win.data for win in make_random_windows(24, seed=4)])
        self.check_against_oracle(qm, x)
        step = qm.plan.layout[1][0]
        assert step.out_name == "b0.c0.out" and np.all(step.shift <= 31 + 30)


def exact_multiplier(ratio):
    """M0 in [2^30, 2^31) and n with M0 = ratio * 2^(31+n) rounded to
    nearest, ties to even, in exact rational arithmetic."""
    n, scaled = -64, Fraction(ratio) * Fraction(2) ** -33
    while scaled < 2 ** 30:
        n, scaled = n + 1, scaled * 2
    m0 = round(scaled)
    return (m0 >> 1, n - 1) if m0 == 2 ** 31 else (m0, n)


class TestQuantPlan:
    """The plan qforward_batch builds once per model and runs."""

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    @pytest.mark.parametrize("kind", ["float", "int8"])
    def test_copy_after_inference_builds_its_own_plan(self, kind, how):
        """A copy or a pickle of a model that has run carries no plan,
        whose views would not alias the copied buffers, and its logits
        equal the original's bit for bit, as train_fold's best-epoch copy
        and fold_batchnorm rely on."""
        folded, qm = quantized_fixture(width=8)
        m, run = ((qm, qforward_batch) if kind == "int8"
                  else (folded, model.forward_batch))
        x = np.stack([w.data for w in make_random_windows(40, seed=5)])
        expected = run(m, x)
        assert m.plan is not None
        clone = (copy.deepcopy(m) if how == "deepcopy"
                 else pickle.loads(pickle.dumps(m)))
        assert clone.plan is None and m.plan is not None
        np.testing.assert_array_equal(run(clone, x), expected)
        np.testing.assert_array_equal(run(clone, x[:1]), run(m, x[:1]))
        np.testing.assert_array_equal(run(m, x), expected)

    def test_multipliers_match_exact_arithmetic(self):
        """Every conv's and add's M0 and n in the plan, and the constants
        folded from them, follow from the scale ratio of the specs found by
        walking the network here: s_in*s_w/s_out, s_a/s_out, s_h/s_out.
        A conv holds M0 and n in every column of its channel's row, and at
        column l the offset (bias_q - zp_in * the sum of the weights on the
        taps that fall inside the window at l)*M0 + 2^(30+n), each row
        shaped (1, C_out, L) like a one-window block's accumulators; the
        head's bias is bias_q - zp_in times the sum of its channel's
        weights."""
        _, qm = quantized_fixture(width=8)
        qforward(qm, make_random_windows(1, seed=0)[0].data)
        steps = iter(step for step, _ in qm.plan.layout)
        length = qm.config.seq_len

        def conv(name, layer, in_spec, out_spec, relu, q):
            step = next(steps)
            assert step.out_name == f"{name}.out"
            assert step.low == (out_spec.zero_point if relu else -128)
            rows = (step.m0, step.shift, step.offset)
            for row in rows:
                assert row.dtype == np.int64 and row.flags.c_contiguous
                assert row.shape == (1, len(layer.w_scale), length)
            _, c_in, k = layer.w_q.shape
            pad = (k - 1) // 2
            for o, s_w in enumerate(layer.w_scale):
                m0, n = exact_multiplier(in_spec.scale * float(s_w)
                                         / out_spec.scale)
                offset = [(int(layer.bias_q[o]) - in_spec.zero_point * sum(
                    int(layer.w_q[o, c, t]) for c in range(c_in)
                    for t in range(k) if 0 <= l + t - pad < length))
                    * m0 + 2 ** (30 + n) for l in range(length)]
                assert [row[0, o].tolist() for row in rows] == [
                    [m0] * length, [31 + n] * length, offset]

        def add(name, a_spec, h_spec, out_spec, q_a, q_h):
            step = next(steps)
            assert step.out_name == f"{name}.out"
            for folded, addend in ((step.a, a_spec), (step.h, h_spec)):
                m0, n = exact_multiplier(addend.scale / out_spec.scale)
                assert folded == (m0, 2 ** (30 + n) - addend.zero_point * m0,
                                  31 + n)

        _, spec = walk_network(qm, None, conv, add)
        head = next(steps)
        assert head.bias.shape == (1, qm.config.classes)
        assert head.bias[0].tolist() == [
            int(b) - spec.zero_point * sum(map(int, w))
            for b, w in zip(qm.head.bias_q, qm.head.w_q)]
        np.testing.assert_array_equal(
            head.scale, spec.scale * qm.head.w_scale.astype(np.float64))

    @pytest.mark.parametrize("extreme", [False, True])
    def test_add_tables_match_arithmetic_on_every_pair(self, rng, extreme):
        """Each add's table holds, at index (a as uint8) << 8 | (h as
        uint8), the unplanned oracle's add of a and h, for all 65,536
        pairs; extreme_model's zero points sit at -128 and 127."""
        _, qm = quantized_fixture(width=8)
        if extreme:
            qm = extreme_model(qm, rng)
        qforward(qm, make_random_windows(1, seed=0)[0].data)
        index = np.arange(1 << 16)
        a = (index >> 8).astype(np.uint8).view(np.int8)
        h = (index & 0xFF).astype(np.uint8).view(np.int8)
        adds = iter(step for step, _ in qm.plan.layout
                    if isinstance(step, quantize._AddStep))

        def add(name, a_spec, h_spec, out_spec, q_a, q_h):
            step = next(adds)
            assert step.out_name == f"{name}.out"
            assert step.table.dtype == np.int8
            np.testing.assert_array_equal(step.table, unplanned_qadd(
                name, a_spec, h_spec, out_spec, a, h, None))

        walk_network(qm, None, lambda *args: None, add)
        assert next(adds, None) is None

    def test_width_8_matches_oracles(self):
        _, qm = quantized_fixture(width=8)
        x = np.stack([w.data for w in make_random_windows(19, seed=9)])
        TestExactFloatGemm.check_against_oracle(qm, x)

    @pytest.mark.parametrize("width", [4, 8, 52])
    def test_arena_is_the_peak_activation_figure(self, width):
        cfg = ModelConfig(width=width)
        _, qm = quantized_fixture(width=width, n_calib=16)
        qforward(qm, make_random_windows(1, seed=0)[0].data)
        plan = qm.plan
        assert plan.arena.dtype == np.int8
        assert plan.arena.shape == (kernels.BLOCK, plan.arena_bytes)
        assert plan.arena_bytes == model.count_macs(cfg).peak_activation_bytes
        act = width * cfg.seq_len
        if width == 4:
            # the input outgrows one activation slot: the stem's operands
            # set the arena at 3 slots, not the input's 280 B plus one
            assert cfg.in_channels * cfg.seq_len > act
        assert plan.arena_bytes == max(cfg.in_channels * cfg.seq_len + act,
                                       3 * act, act + 4 * cfg.classes)

    def test_one_conv_per_block_needs_two_slots(self):
        cfg = ModelConfig(width=8, convs_per_block=1)
        folded = fold_batchnorm(build(cfg, seed=3))
        qm = quantize_model(folded, calibrate(
            folded, make_random_windows(16, seed=1)))
        x = np.stack([w.data for w in make_random_windows(9, seed=2)])
        TestExactFloatGemm.check_against_oracle(qm, x)
        assert qm.plan.arena_bytes == model.count_macs(cfg).peak_activation_bytes
        assert qm.plan.arena_bytes == max(7 * 40 + 320, 2 * 320)

    def test_head_accumulators_can_end_the_arena(self):
        """With 100 classes the head's int32 accumulators, at slot 1, reach
        past the three slots and the input: they set arena_bytes."""
        cfg = ModelConfig(width=4, classes=100)
        folded = fold_batchnorm(build(cfg, seed=3))
        qm = quantize_model(folded, calibrate(
            folded, make_random_windows(16, seed=1)))
        x = np.stack([w.data for w in make_random_windows(9, seed=2)])
        TestExactFloatGemm.check_against_oracle(qm, x)
        assert qm.plan.arena_bytes == model.count_macs(cfg).peak_activation_bytes
        assert qm.plan.arena_bytes == 4 * 40 + 4 * 100

    @pytest.mark.parametrize("blocks, convs_per_block", [(1, 1), (1, 3),
                                                         (3, 2)])
    def test_block_shapes_match_oracles(self, blocks, convs_per_block):
        """One residual block, and blocks of two convs, run as the oracles
        do, in an arena of the peak activation figure."""
        cfg = ModelConfig(width=8, blocks=blocks,
                          convs_per_block=convs_per_block)
        folded = fold_batchnorm(randomize_bn(build(cfg, seed=3), seed=4))
        qm = quantize_model(folded, calibrate(
            folded, make_random_windows(16, seed=1)))
        x = np.stack([w.data for w in make_random_windows(19, seed=2)])
        TestExactFloatGemm.check_against_oracle(qm, x)
        peak = model.count_macs(cfg).peak_activation_bytes
        assert qm.plan.arena_bytes == peak

    def test_built_once_per_model(self, monkeypatch):
        _, qm = quantized_fixture(width=8)
        built = []
        original = quantize.QuantPlan.__init__

        def counted(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(quantize.QuantPlan, "__init__", counted)
        x = np.stack([w.data for w in make_random_windows(11, seed=3)])
        first = qforward_batch(qm, x)
        plan = qm.plan
        np.testing.assert_array_equal(qforward_batch(qm, x), first)
        np.testing.assert_array_equal(qforward(qm, x[10]), first[10])
        assert built == [plan] and qm.plan is plan
        assert "plan" not in repr(qm)

    def test_walk_builds_no_plan_constant(self, tmp_path, monkeypatch):
        """check_quant_invariants, quantize_model and load walk the network
        without building a conv's GEMM-dtype weights, its (1, C_out, L) rows
        or offsets, an add's table or the head's operands; the first
        qforward_batch builds each once."""
        folded = fold_batchnorm(build(ModelConfig(width=8), seed=3))
        ranges = calibrate(folded, make_random_windows(16, seed=1))
        rows = []
        original = kernels.channel_rows

        def counted(v, length):
            rows.append(len(v))
            return original(v, length)

        monkeypatch.setattr(kernels, "channel_rows", counted)
        qm = quantize_model(folded, ranges)
        check_quant_invariants(qm)
        quantize.save(qm, tmp_path / "q.efq")
        loaded = quantize.load(tmp_path / "q.efq")
        cached = {"w", "m0", "shift", "offset", "table", "w_t", "bias"}
        for step, _ in quantize._layout(loaded):
            assert not cached & set(vars(step)), step
        assert rows == [] and loaded.plan is None
        x = np.stack([w.data for w in make_random_windows(3, seed=2)])
        qforward_batch(loaded, x)
        convs = len(model.topology(loaded.config))
        assert rows == [8] * 2 * convs
        for step, _ in loaded.plan.layout:
            assert cached & set(vars(step)), step
        qforward_batch(loaded, x)
        assert len(rows) == 2 * convs

    def test_saved_and_loaded_model_gives_same_logits(self, tmp_path):
        _, qm = quantized_fixture(width=52, n_calib=64)
        x = np.stack([w.data for w in make_random_windows(10, seed=5)])
        before = qforward_batch(qm, x)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        loaded = quantize.load(path)
        assert loaded.plan is None
        np.testing.assert_array_equal(qforward_batch(loaded, x), before)

    def test_steady_call_allocates_under_128kb(self):
        """A full block of kernels.BLOCK windows, and a block of 8."""
        _, qm = quantized_fixture(width=52, n_calib=16)
        for n in (kernels.BLOCK, 8):
            x = np.stack([w.data for w in make_random_windows(n, seed=2)])
            qforward_batch(qm, x)
            tracemalloc.start()
            try:
                qforward_batch(qm, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 128 * 1024, n

    def test_steady_full_block_allocates_under_64kb(self):
        """A block of kernels.BLOCK windows quantizes its input in the
        plan's work arrays; what is left is _rescale's row buffer."""
        _, qm = quantized_fixture(width=52, n_calib=16)
        x = np.stack([w.data for w in make_random_windows(
            kernels.BLOCK, seed=2)])
        qforward_batch(qm, x)
        tracemalloc.start()
        try:
            qforward_batch(qm, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_steady_single_window_allocates_under_64kb(self):
        _, qm = quantized_fixture(width=52, n_calib=16)
        x = make_random_windows(1, seed=2)[0].data
        qforward(qm, x)
        tracemalloc.start()
        try:
            qforward(qm, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_plan_checks_the_model(self):
        _, qm = quantized_fixture(width=4)
        qm.convs[1].bias_q[0] = 2 ** 31 - 1
        with pytest.raises(AccumulatorOverflow, match="b0.c0"):
            qforward(qm, make_random_windows(1, seed=0)[0].data)
        assert qm.plan is None

    @staticmethod
    def conv_bounds(plan, n):
        """(step, accumulators, floor, ceiling) of every conv step as a
        block of n windows binds them."""
        body = plan._bound[n][-2]
        return [(step, *args[-3:]) for (step, _), (_, args)
                in zip(plan.layout, body)
                if isinstance(step, quantize._ConvStep)]

    @pytest.mark.parametrize("n", [1, 5, kernels.BLOCK])
    def test_saturation_bounds_have_the_accumulators_shape(self, tmp_path,
                                                           n):
        """At every block size each conv step clamps its accumulators
        against a floor and a ceiling of their own shape, holding the
        step's floor and 127. The seeded file's convs have distinct
        output zero points, so several floors occur: convs of one floor
        share its array, and no two floors, nor a floor and the
        ceiling, share one."""
        path = tmp_path / "q.efq"
        write_seeded_model(path, ModelConfig(width=8), seed=2)
        qm = quantize.load(path)
        x = np.stack([w.data for w in make_random_windows(n, seed=n)])
        qforward_batch(qm, x)
        bounds = self.conv_bounds(qm.plan, n)
        assert len(bounds) == 10
        assert len({step.low for step, *_ in bounds}) > 3
        for step, acc, floor, ceiling in bounds:
            assert acc.shape == floor.shape == ceiling.shape == (n, 8, 40)
            assert floor.dtype == ceiling.dtype == np.int64
            assert (floor == step.low).all() and (ceiling == 127).all()
        for (a, _, floor_a, ceiling), (b, _, floor_b, _) in (
                itertools.combinations(bounds, 2)):
            assert np.shares_memory(floor_a, floor_b) == (a.low == b.low)
            assert not np.shares_memory(floor_a, ceiling)

    def test_constant_blocks_are_never_written(self, rng):
        """The saturation blocks and quantize_input's bound blocks hold
        their values byte for byte after blocks of 1, 5, 16 and 35
        random windows and of +-1 windows, traced, on a calibrated model
        and on extreme_model's, whose zero points of 127 make a floor
        equal to the ceiling."""
        _, calibrated = quantized_fixture(width=8)
        for qm, extreme in ((calibrated, False),
                            (extreme_model(calibrated, rng), True)):
            qforward_batch(qm, make_random_windows(1, seed=0)[0].data[None])
            plan = qm.plan
            assert extreme == any(
                floor.base is ceiling.base
                for *_, floor, ceiling in self.conv_bounds(plan, 1))
            zp = qm.specs["input"].zero_point
            expected = [(plan.bounds[0], np.full(plan.bounds[0].shape,
                                                 -128.0 - zp)),
                        (plan.bounds[1], np.full(plan.bounds[1].shape,
                                                 127.0 - zp))]
            for step, _, floor, ceiling in self.conv_bounds(plan, 1):
                for block, value in ((floor.base, step.low),
                                     (ceiling.base, 127)):
                    assert block.shape == (kernels.BLOCK, 8, 40)
                    expected.append((block, np.full(block.shape, value,
                                                    np.int64)))
            assert len({id(block) for block, _ in expected}) > 3
            batches = [np.stack([w.data for w in make_random_windows(
                n, seed=n, scale=scale)]) for n in (1, 5, kernels.BLOCK, 35)
                for scale in (1.0, 100.0)]
            batches.append(np.where(rng.random((35, 7, 40)) < 0.5, -1.0,
                                    1.0).astype(np.float32))
            for x in batches:
                trace = []
                qforward_batch(qm, x, trace=trace)
                assert trace
            for block, want in expected:
                assert block.tobytes() == want.tobytes()


class TestQuantFile:
    def test_round_trip(self, tmp_path):
        _, qm = quantized_fixture(width=4)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        loaded = quantize.load(path)
        windows = make_random_windows(5, seed=8)
        for w in windows:
            np.testing.assert_array_equal(qforward(qm, w.data),
                                          qforward(loaded, w.data))
        resaved = tmp_path / "q2.efq"
        quantize.save(loaded, resaved)
        assert path.read_bytes() == resaved.read_bytes()

    def test_file_holds_each_fact_once(self, tmp_path):
        """Three tensors per conv and for the head, and one scale and zero
        point per activation: the input, each conv's output, each add's."""
        _, qm = quantized_fixture(width=8)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        assert path.read_bytes()[:4] == b"EFQ3"
        cfg = qm.config
        convs = ["stem"] + [f"b{i}.c{j}" for i in range(cfg.blocks)
                            for j in range(cfg.convs_per_block)]
        activations = (["input"] + [f"{name}.out" for name in convs]
                       + [f"b{i}.add.out" for i in range(cfg.blocks)])
        assert len(activations) == 14
        expected = {f"{layer}.{attr}" for layer in convs + ["head"]
                    for attr in ("w_q", "w_scale", "bias_q")}
        expected |= {f"{name}.{attr}" for name in activations
                     for attr in ("scale", "zero_point")}
        tensors = container.read(path, quantize.QUANT_MAGIC).tensors
        assert set(tensors) == expected and len(tensors) == 3 * 11 + 2 * 14

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
        qm.specs["input"] = QuantSpec(scale=qm.specs["input"].scale,
                                      zero_point=300)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        with pytest.raises(NumericalContractError, match="input: zero point"):
            quantize.load(path)

    @pytest.mark.parametrize("name", ["input", "stem.out", "b0.c1.out",
                                      "b1.add.out"])
    @pytest.mark.parametrize("attr, value", [
        ("zero_point", 128), ("zero_point", -129), ("scale", 0.0),
        ("scale", float("inf"))])
    def test_every_activation_spec_is_checked(self, tmp_path, name, attr,
                                              value):
        # a checksummed EFQ3 with one bad spec; the plan's walk checks
        # each activation's spec where its layer produces it
        _, qm = quantized_fixture(width=4)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        contents = container.read(path, quantize.QUANT_MAGIC)
        tensor = contents.tensors[f"{name}.{attr}"]
        contents.tensors[f"{name}.{attr}"] = np.full_like(tensor, value)
        container.write(path, quantize.QUANT_MAGIC, contents.meta,
                        contents.tensors)
        error, what = ((AccumulatorOverflow, "zero point") if attr == "zero_point"
                       else (RequantRangeError, "scale"))
        with pytest.raises(error, match=f"{name}: {what}"):
            quantize.load(path)

    @pytest.mark.parametrize("where, value", [
        ("w_scale", float("nan")), ("spec", float("nan")),
        ("w_scale", float("inf")), ("spec", 0.0), ("head", 0.0),
        ("head", 1e38)])
    def test_bad_scale_rejected(self, tmp_path, where, value):
        _, qm = quantized_fixture(width=4)
        if where == "w_scale":
            qm.convs[0].w_scale[0] = value
        elif where == "head":
            qm.head.w_scale[0] = value
        else:
            qm.specs["stem.out"] = QuantSpec(
                scale=value, zero_point=qm.specs["stem.out"].zero_point)
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        with pytest.raises(RequantRangeError,
                           match="head" if where == "head" else "stem"):
            quantize.load(path)

    @pytest.mark.parametrize("where", ["conv", "add"])
    def test_shift_beyond_31_rejected(self, tmp_path, where):
        # finite positive scales whose ratio 0.75 * 2^-40 (stem channel 0,
        # or block 0's input against its add's output) needs n = 40 > 31
        _, qm = quantized_fixture(width=4)
        specs = qm.specs
        if where == "conv":
            stem = qm.convs[0]
            stem.w_scale[0] = 0.75 * 2.0 ** -40 * (specs["stem.out"].scale
                                                   / specs["input"].scale)
            ratio = (specs["input"].scale * float(stem.w_scale[0])
                     / specs["stem.out"].scale)
            match = "stem"
        else:
            specs["b0.add.out"] = QuantSpec(
                scale=float(np.float32(specs["stem.out"].scale
                                       / (0.75 * 2.0 ** -40))),
                zero_point=specs["b0.add.out"].zero_point)
            ratio = specs["stem.out"].scale / specs["b0.add.out"].scale
            match = "b0.add"
        assert math.frexp(ratio)[1] == -40
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        with pytest.raises(RequantRangeError, match=f"{match}: .* shift 40,"):
            quantize.load(path)

    @pytest.mark.parametrize("site", ["b0.c0", "head"])
    def test_forged_accumulator_bound_rejected(self, tmp_path, site):
        # one int32 bias at the type's limit: every multiplier, scale and
        # zero point is still valid, only the accumulator bound is broken
        _, qm = quantized_fixture(width=8)
        layer = qm.convs[1] if site == "b0.c0" else qm.head
        layer.bias_q[0] = 2 ** 31 - 1
        path = tmp_path / "q.efq"
        quantize.save(qm, path)
        with pytest.raises(AccumulatorOverflow, match=site):
            quantize.load(path)
