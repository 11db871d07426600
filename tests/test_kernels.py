import numpy as np
import pytest

from conftest import conv1d_same, dense, make_random_windows, same_padded
from edgefit import kernels, model, quantize, training
from edgefit.errors import NonFiniteInput, ShapeMismatch


def naive_conv1d_same(x, w, b):
    """Direct-summation oracle in float64: triple loop over (out, pos, taps)."""
    c_out, c_in, k = w.shape
    length = x.shape[1]
    pad = (k - 1) // 2
    xp = np.zeros((c_in, length + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + length] = x
    y = np.zeros((c_out, length), dtype=np.float64)
    for o in range(c_out):
        for t in range(length):
            acc = 0.0
            for c in range(c_in):
                for kk in range(k):
                    acc += w[o, c, kk] * xp[c, t + kk]
            y[o, t] = acc + b[o]
    return y


def naive_conv1d_same_grads(x, w, g):
    """Direct-summation adjoint of naive_conv1d_same in float64: the
    gradients (dx, dw, db) of sum(g * y) for an upstream gradient g
    (C_out, L), each tap's product routed back to its input and weight."""
    c_out, c_in, k = w.shape
    length = x.shape[1]
    pad = (k - 1) // 2
    dx = np.zeros((c_in, length), dtype=np.float64)
    dw = np.zeros((c_out, c_in, k), dtype=np.float64)
    for o in range(c_out):
        for t in range(length):
            for c in range(c_in):
                for kk in range(k):
                    src = t + kk - pad
                    if 0 <= src < length:
                        dx[c, src] += w[o, c, kk] * g[o, t]
                        dw[o, c, kk] += x[c, src] * g[o, t]
    return dx, dw, g.sum(axis=1)


CONV_CASES = [(1, 1, 5, 1), (3, 4, 12, 3), (8, 6, 16, 5), (5, 8, 9, 5)]


class TestConv1dSame:
    def test_identity_kernel(self, rng):
        x = rng.standard_normal((3, 10)).astype(np.float32)
        w = np.eye(3, dtype=np.float32)[:, :, None]   # K=1 channel identity
        y = conv1d_same(x, w, np.zeros(3, dtype=np.float32))
        np.testing.assert_allclose(y, x, rtol=1e-6)

    def test_edge_detector_example(self):
        # oracle: naive_conv1d_same([[1,2,3]], [[[1,0,-1]]], [0]) == [-2,-2,2]
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        w = np.array([[[1.0, 0.0, -1.0]]], dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        expected = naive_conv1d_same(x.astype(np.float64),
                                     w.astype(np.float64), b.astype(np.float64))
        np.testing.assert_array_equal(expected, [[-2.0, -2.0, 2.0]])
        np.testing.assert_allclose(conv1d_same(x, w, b), expected)

    def test_zero_input_yields_bias(self, rng):
        x = np.zeros((2, 6), dtype=np.float32)
        w = rng.standard_normal((5, 2, 3)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        y = conv1d_same(x, w, b)
        np.testing.assert_allclose(y, np.broadcast_to(b[:, None], (5, 6)))

    @pytest.mark.parametrize("c_in,c_out,length,k", CONV_CASES)
    def test_matches_naive_oracle(self, rng, c_in, c_out, length, k):
        x = rng.standard_normal((c_in, length)).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        expected = naive_conv1d_same(x.astype(np.float64),
                                     w.astype(np.float64), b.astype(np.float64))
        np.testing.assert_allclose(conv1d_same(x, w, b), expected,
                                   atol=1e-5)

    def test_linearity_in_input(self, rng):
        w = rng.standard_normal((4, 3, 3)).astype(np.float32)
        b = np.zeros(4, dtype=np.float32)
        x1 = rng.standard_normal((3, 16)).astype(np.float32)
        x2 = rng.standard_normal((3, 16)).astype(np.float32)
        a = np.float32(2.5)
        lhs = conv1d_same(a * x1 + x2, w, b)
        rhs = a * conv1d_same(x1, w, b) + conv1d_same(x2, w, b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-5)

    def test_shape_mismatch(self, rng):
        x = rng.standard_normal((3, 10)).astype(np.float32)
        w = rng.standard_normal((4, 5, 3)).astype(np.float32)
        with pytest.raises(ShapeMismatch):
            conv1d_same(x, w, np.zeros(4, dtype=np.float32))

    def test_even_kernel_rejected(self, rng):
        x = rng.standard_normal((3, 10)).astype(np.float32)
        w = rng.standard_normal((4, 3, 2)).astype(np.float32)
        with pytest.raises(ShapeMismatch):
            conv1d_same(x, w, np.zeros(4, dtype=np.float32))

    def test_batched_matches_single(self, rng):
        x = rng.standard_normal((5, 3, 12)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        batched = kernels.conv1d_same_batch(x, w, b)
        for i in range(5):
            np.testing.assert_array_equal(batched[i],
                                          conv1d_same(x[i], w, b))

    def test_buffers_match_allocating_call(self, rng):
        """With out, padded and patches given, the result is the allocating
        call's, also when x is out itself."""
        x = rng.standard_normal((5, 4, 12)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        expected = kernels.conv1d_same_batch(x, w, b)
        out = x.copy()
        padded = np.zeros((5, 4, 14), np.float32)
        y = kernels.conv1d_same_batch(out, w, b, out, padded=padded,
                                      patches=np.empty((5, 12, 12), np.float32))
        assert y is out
        np.testing.assert_array_equal(y, expected)

    def test_pad_buffer_shape_checked(self, rng):
        x = rng.standard_normal((2, 3, 12)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeMismatch, match="pad buffer"):
            kernels.conv1d_same_batch(x, w, np.zeros(4, np.float32),
                                      padded=np.zeros((1, 3, 14), np.float32))


def flip(w):
    """The kernel (C_in, C_out, K), transposed with its taps reversed, whose
    conv1d over the padded output gradient is the input gradient of w's."""
    return w.transpose(1, 0, 2)[:, :, ::-1]


class TestConv1dBackward:
    @pytest.mark.parametrize("c_in,c_out,length,k", CONV_CASES)
    def test_matches_naive_adjoint(self, rng, c_in, c_out, length, k):
        x = rng.standard_normal((2, c_in, length))
        w = rng.standard_normal((c_out, c_in, k))
        g = rng.standard_normal((2, c_out, length))
        dx = kernels.conv1d(same_padded(g, flip(w)), flip(w))
        dw, db = kernels.conv1d_weight_grad(g, same_padded(x, w))
        grads = [naive_conv1d_same_grads(x[i], w, g[i]) for i in range(2)]
        for i in range(2):
            np.testing.assert_allclose(dx[i], grads[i][0], rtol=1e-12,
                                       atol=1e-12)
        np.testing.assert_allclose(dw, grads[0][1] + grads[1][1], rtol=1e-12,
                                   atol=1e-12)
        np.testing.assert_allclose(db, grads[0][2] + grads[1][2], rtol=1e-12,
                                   atol=1e-12)


class TestConvBuffers:
    """conv1d and conv1d_weight_grad write into caller-owned buffers with
    the same bits as when they allocate, also through leading-row views of
    buffers sized for a larger batch, as the trainer passes them."""

    @pytest.mark.parametrize("c_in,c_out,length,k", CONV_CASES)
    def test_buffers_match_allocating_call(self, rng, c_in, c_out, length, k):
        batch, pad = 3, (k - 1) // 2
        x = rng.standard_normal((batch, c_in, length)).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
        g = rng.standard_normal((batch, c_out, length)).astype(np.float32)
        padded = same_padded(x, w)
        y = kernels.conv1d(padded, w)
        dx = kernels.conv1d(same_padded(g, flip(w)), flip(w))
        dw, db = kernels.conv1d_weight_grad(g, padded)

        rows = batch + 2          # buffers sized for a larger batch
        wide = max(c_in, c_out)
        pad_buf = np.zeros((rows, c_in, length + k - 1), np.float32)
        g_pad_buf = np.zeros((rows, c_out, length + k - 1), np.float32)
        patch_buf = np.empty((rows, wide * k, length), np.float32)
        out = np.empty((rows, c_out, length), np.float32)
        dx_buf = np.empty((rows, c_in, length), np.float32)
        products = np.empty((rows, c_out, c_in), np.float32)
        dw_buf = np.empty(w.shape, np.float32)

        # the caller writes each input into its pad buffer's interior
        pad_buf[:batch, :, pad:pad + length] = x
        g_interior = g_pad_buf[:batch, :, pad:pad + length]
        g_interior[...] = g
        y2 = kernels.conv1d(pad_buf[:batch], w, out[:batch],
                            patches=patch_buf[:batch, :c_in * k])
        assert np.shares_memory(y2, out)
        np.testing.assert_array_equal(y2, y)
        np.testing.assert_array_equal(patch_buf[:batch, :c_in * k],
                                      kernels.im2col(padded, k, length))
        dx2 = kernels.conv1d(g_pad_buf[:batch], flip(w), dx_buf[:batch],
                             patches=patch_buf[:batch, :c_out * k])
        dw2, db2 = kernels.conv1d_weight_grad(
            g_interior, pad_buf[:batch], dw=dw_buf, products=products[:batch])
        assert np.shares_memory(dx2, dx_buf) and dw2 is dw_buf
        np.testing.assert_array_equal(dx2, dx)
        np.testing.assert_array_equal(dw2, dw)
        np.testing.assert_array_equal(db2, db)

    @pytest.mark.parametrize("buffers", [False, True])
    @pytest.mark.parametrize("c_in,c_out,length,k", CONV_CASES)
    def test_blocks_match_one_window_calls(self, rng, c_in, c_out, length,
                                           k, buffers):
        """2*BLOCK + 3 windows, three blocks the last of them short, give
        the bits of one-window calls; the caller's patches buffer holds one
        block."""
        batch = 2 * kernels.BLOCK + 3
        x = rng.standard_normal((batch, c_in, length)).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
        g = rng.standard_normal((batch, c_out, length)).astype(np.float32)
        padded = same_padded(x, w)
        g_padded = same_padded(g, flip(w))
        one = [kernels.conv1d_weight_grad(g[i:i + 1], padded[i:i + 1])
               for i in range(batch)]
        want_y = np.concatenate([kernels.conv1d(padded[i:i + 1], w)
                                 for i in range(batch)])
        want_dx = np.concatenate([kernels.conv1d(g_padded[i:i + 1], flip(w))
                                  for i in range(batch)])
        want_dw = np.stack([dw for dw, _ in one]).sum(axis=0)
        want_db = np.stack([db for _, db in one]).sum(axis=0)

        if buffers:
            patches = np.empty((kernels.BLOCK, max(c_in, c_out) * k, length),
                               np.float32)
            y = kernels.conv1d(
                padded, w, np.empty((batch, c_out, length), np.float32),
                patches=patches[:, :c_in * k])
            dx = kernels.conv1d(g_padded, flip(w), np.empty_like(x),
                                patches=patches[:, :c_out * k])
            dw, db = kernels.conv1d_weight_grad(
                g, padded, dw=np.empty_like(w),
                products=np.empty((batch, c_out, c_in), np.float32))
        else:
            y = kernels.conv1d(padded, w)
            dx = kernels.conv1d(g_padded, flip(w))
            dw, db = kernels.conv1d_weight_grad(g, padded)
        for got, want in ((y, want_y), (dx, want_dx)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # the weight gradients sum over the whole batch, not block by block
        np.testing.assert_allclose(dw, want_dw, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(db, want_db, rtol=1e-5, atol=1e-5)


def test_every_conv_lowers_through_im2col(monkeypatch):
    """The float forward, a training step and the int8 forward call
    kernels.im2col once per conv and block of windows (kernels.BLOCK for
    the float convs, quantize.BLOCK_WINDOWS for the integer plan), and the
    training backward once more for every conv but the stem, whose input
    gradient nothing reads: the benchmark taps and traces that one name."""
    cfg = model.ModelConfig(width=4)
    convs = 1 + cfg.blocks * cfg.convs_per_block
    m = model.build(cfg, seed=0)
    folded = model.fold_batchnorm(m)
    qm = quantize.quantize_model(folded, quantize.calibrate(
        folded, make_random_windows(4, seed=0)))
    calls = []
    original = kernels.im2col

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, "im2col", counted)

    def count(run):
        calls.clear()
        run()
        return len(calls)

    for n in (3, 2 * kernels.BLOCK + 3):
        x = np.stack([w.data for w in make_random_windows(n, seed=1)])
        blocks = -(-n // kernels.BLOCK)
        assert count(lambda: model.forward_batch(m, x)) == blocks * convs
        assert count(lambda: training.backward(
            m, x, np.arange(n) % 12, np.ones(n))) == blocks * (2 * convs - 1)
        assert count(lambda: quantize.qforward_batch(qm, x)) == (
            -(-n // quantize.BLOCK_WINDOWS) * convs)


class TestBatchnormInfer:
    def test_identity_parameters(self, rng):
        x = rng.standard_normal((3, 8)).astype(np.float32)
        ones, zeros = np.ones(3, np.float32), np.zeros(3, np.float32)
        y = kernels.batchnorm_infer(x, ones, zeros, zeros, ones, 0.0)
        np.testing.assert_allclose(y, x, rtol=1e-6)

    def test_formula_value(self):
        # 3*(4-2)/sqrt(4)+1 = 4
        x = np.full((1, 1), 4.0, dtype=np.float32)
        y = kernels.batchnorm_infer(
            x, np.array([3.0], np.float32), np.array([1.0], np.float32),
            np.array([2.0], np.float32), np.array([4.0], np.float32), 0.0)
        np.testing.assert_allclose(y, [[4.0]])

    def test_zero_gamma_gives_beta(self, rng):
        x = rng.standard_normal((2, 6)).astype(np.float32)
        beta = np.array([1.5, -0.5], np.float32)
        y = kernels.batchnorm_infer(
            x, np.zeros(2, np.float32), beta,
            np.zeros(2, np.float32), np.ones(2, np.float32), 1e-3)
        np.testing.assert_allclose(y, np.broadcast_to(beta[:, None], (2, 6)))

    def test_shape_mismatch(self, rng):
        x = rng.standard_normal((3, 8)).astype(np.float32)
        with pytest.raises(ShapeMismatch):
            kernels.batchnorm_infer(x, np.ones(4, np.float32),
                                    np.zeros(3, np.float32),
                                    np.zeros(3, np.float32),
                                    np.ones(3, np.float32), 1e-3)


class TestRelu:
    def test_values(self):
        np.testing.assert_array_equal(
            kernels.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        np.testing.assert_array_equal(
            kernels.relu(np.array([-3.0, -0.1])), [0.0, 0.0])

    def test_idempotent(self, rng):
        x = rng.standard_normal(50).astype(np.float32)
        once = kernels.relu(x)
        np.testing.assert_array_equal(kernels.relu(once), once)


class TestAdd:
    def test_zero_identity(self, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_array_equal(kernels.add(x, np.zeros_like(x)), x)

    def test_commutative(self, rng):
        x = rng.standard_normal((2, 5)).astype(np.float32)
        y = rng.standard_normal((2, 5)).astype(np.float32)
        np.testing.assert_array_equal(kernels.add(x, y), kernels.add(y, x))

    def test_values(self):
        np.testing.assert_array_equal(
            kernels.add(np.array([1.0, 2.0]), np.array([3.0, 4.0])), [4.0, 6.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kernels.add(np.zeros(3), np.zeros(4))


class TestDense:
    def test_identity(self, rng):
        x = rng.standard_normal(5).astype(np.float32)
        y = dense(x, np.eye(5, dtype=np.float32),
                          np.zeros(5, dtype=np.float32))
        np.testing.assert_allclose(y, x)

    def test_dot_product_example(self):
        # oracle: [1,2]·[1,1] + 3 = 6
        y = dense(np.array([1.0, 1.0], np.float32),
                          np.array([[1.0, 2.0]], np.float32),
                          np.array([3.0], np.float32))
        np.testing.assert_allclose(y, [6.0])

    def test_zero_input_gives_bias(self, rng):
        w = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        np.testing.assert_array_equal(
            dense(np.zeros(6, np.float32), w, b), b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            dense(np.zeros(3), np.zeros((2, 4)), np.zeros(2))


class TestSoftmax:
    def test_uniform_logits(self):
        p = kernels.softmax(np.zeros(12))
        np.testing.assert_allclose(p, np.full(12, 1 / 12), rtol=1e-12)

    def test_closed_form(self):
        # exp(0)=1, exp(ln 3)=3 -> [1/4, 3/4]
        p = kernels.softmax(np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(p, [0.25, 0.75], rtol=1e-12)

    def test_shift_invariance(self, rng):
        z = rng.standard_normal(9)
        np.testing.assert_allclose(kernels.softmax(z + 123.4),
                                   kernels.softmax(z), rtol=1e-9)

    def test_probability_vector(self, rng):
        for _ in range(20):
            p = kernels.softmax(rng.standard_normal(12) * 10)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-6

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            kernels.softmax(np.array([0.0, np.inf]))


def test_kernels_are_pure(rng):
    x = rng.standard_normal((3, 10)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    first = conv1d_same(x, w, b)
    second = conv1d_same(x.copy(), w.copy(), b.copy())
    assert np.array_equal(first, second)
    np.testing.assert_array_equal(kernels.softmax(first[:, 0]),
                                  kernels.softmax(first[:, 0]))
