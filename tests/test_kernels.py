import numpy as np
import pytest

from conftest import (conv1d_same, dense, make_random_windows, same_padded,
                      same_unfolded)
from edgefit.kernels import patch_views, weight_matrix
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
    gradients (dx, dw) of sum(g * y) for an upstream gradient g (C_out, L),
    each tap's product routed back to its input and weight."""
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
    return dx, dw


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

    def test_unfold_view_of_another_kernel_rejected(self, rng):
        """An unfold view is checked against the weight matrix's columns,
        C_in*K: one of another kernel fails, as one of other input
        channels does."""
        x = rng.standard_normal((2, 3, 10)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3)).astype(np.float32)
        view = kernels.unfold(same_padded(x, w), 1)
        with pytest.raises(ShapeMismatch, match="unfold view of kernel 1"):
            kernels.conv1d_same_batch(view, weight_matrix(w, 3))

    def test_padded_batch_rejected(self, rng):
        """The pad buffer itself, (B, C_in, L+K-1), is not an operand: the
        one a conv takes is its unfold view, which the error names."""
        x = rng.standard_normal((2, 3, 10)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeMismatch, match=r"unfold view \(B, C, K, L\)"):
            kernels.conv1d_same_batch(same_padded(x, w),
                                      weight_matrix(w, 3))

    @pytest.mark.parametrize("case,match", [
        ("weights_3d", r"conv weight must be the \(C_out, C_in\*K\)"),
        ("matrix_as_weights", r"conv weight must be \(C_out, C_in, K\)"),
        ("even_kernel", "kernel size must be odd, got 2"),
        ("channels", "unfold view of kernel 3 over 2 input channels != "
                     r"weight matrix's 9 columns \(C_in\*K\)"),
        ("taps_as_channels", "conv weight K 1 != unfold view's kernel 3"),
        ("even_weights", "conv weight K 2 != unfold view's kernel 1"),
    ])
    def test_rejected_shape_names_its_operand(self, rng, case, match):
        """Weights that are not the (C_out, C_in*K) matrix, a matrix made
        of weights that are not (C_out, C_in, K) or not of the view's
        kernel, an even kernel and a view whose channels miss the
        matrix's columns are each a ShapeMismatch naming the operand at
        fault, as an input that is not an unfold view and a view of
        another kernel are (above). Taps that count as channels, (C_out,
        C_in*K, 1) weights against a kernel-K view, and even (4, 3, 2)
        weights against a (B, 6, 1, L) view give matrices of the view's
        columns, so weight_matrix, which still sees the weights' K,
        rejects them."""
        x = rng.standard_normal((2, 3, 10)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3)).astype(np.float32)
        w2 = rng.standard_normal((4, 3, 2)).astype(np.float32)
        unfolded = same_unfolded(x, w)
        with pytest.raises(ShapeMismatch, match=match):
            if case == "weights_3d":
                kernels.conv1d_same_batch(unfolded, w)
            elif case == "matrix_as_weights":
                weight_matrix(w.reshape(4, 9), 3)
            elif case == "even_kernel":
                kernels.conv1d_same_batch(same_unfolded(x, w2),
                                          weight_matrix(w2, 2))
            elif case == "channels":
                kernels.conv1d_same_batch(same_unfolded(x[:, :2], w),
                                          weight_matrix(w, 3))
            elif case == "taps_as_channels":
                kernels.conv1d_same_batch(unfolded,
                                          weight_matrix(w.reshape(4, 9, 1), 3))
            else:
                view = kernels.unfold(np.concatenate([x, x], axis=1), 1)
                kernels.conv1d_same_batch(view, weight_matrix(w2, 1))

    def test_even_kernel_rejected(self, rng):
        x = rng.standard_normal((3, 10)).astype(np.float32)
        w = rng.standard_normal((4, 3, 2)).astype(np.float32)
        with pytest.raises(ShapeMismatch):
            conv1d_same(x, w, np.zeros(4, dtype=np.float32))

    def test_batched_matches_single(self, rng):
        x = rng.standard_normal((5, 3, 12)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        batched = kernels.conv1d_same_batch(same_unfolded(x, w),
                                            weight_matrix(w, 3))
        batched += b[:, None]
        for i in range(5):
            np.testing.assert_array_equal(batched[i],
                                          conv1d_same(x[i], w, b))

    def test_buffers_match_allocating_call(self, rng):
        """At 1, BLOCK and 2*BLOCK + 3 windows, with out and the bound patch
        views of one block given, the result is the allocating call's bit
        for bit, written into out."""
        w3 = rng.standard_normal((4, 4, 3)).astype(np.float32)
        w = weight_matrix(w3, 3)
        for batch in (1, kernels.BLOCK, 2 * kernels.BLOCK + 3):
            x = rng.standard_normal((batch, 4, 12)).astype(np.float32)
            unfolded = same_unfolded(x, w3)
            expected = kernels.conv1d_same_batch(unfolded, w)
            out = np.empty_like(x)
            patches = patch_views(np.empty(
                (min(batch, kernels.BLOCK), 12, 12), np.float32), 3)
            y = kernels.conv1d_same_batch(unfolded, w, out, patches=patches)
            assert y is out
            assert y.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [1, 3, 5])
def test_interior_is_the_view_between_the_borders(rng, k):
    """The interior of an unfold view is its pad buffer's run between the
    (K-1)/2 border columns on each side, and writes to it reach the
    buffer."""
    padded = rng.standard_normal((2, 3, 10 + k - 1))
    inner = kernels.interior(kernels.unfold(padded, k))
    pad = (k - 1) // 2
    assert inner.shape == (2, 3, 10)
    np.testing.assert_array_equal(inner, padded[:, :, pad:pad + 10])
    inner[...] = 7.0
    assert (padded[:, :, pad:pad + 10] == 7.0).all()


@pytest.mark.parametrize("k", [1, 3, 5])
def test_unfold_is_a_view_of_the_buffer_itself(rng, k):
    """unfold's element (b, c, t, l) is padded[b, c, t + l], it reads what
    is written into padded after it was built, and it raises for a padded
    that is not C-contiguous instead of viewing a copy."""
    padded = np.zeros((2, 3, 10 + k - 1), np.float32)
    view = kernels.unfold(padded, k)
    padded[...] = rng.standard_normal(padded.shape)
    assert view.shape == (2, 3, k, 10) and np.shares_memory(view, padded)
    for t in range(k):
        np.testing.assert_array_equal(view[:, :, t], padded[:, :, t:t + 10])
    with pytest.raises(ValueError):
        kernels.unfold(padded[:, ::2], k)


def flip(w):
    """The kernel (C_in, C_out, K), transposed with its taps reversed, whose
    conv1d over the padded output gradient is the input gradient of w's."""
    return w.transpose(1, 0, 2)[:, :, ::-1]


def conv1d_weight_grad(g, unfolded):
    """The weight-gradient oracle: dw of conv1d's weights, given dL/dy g
    (B, C_out, L) and the input's unfold view (B, C_in, K, L), one batched
    GEMM per tap of g against that tap of the view, summed over the
    batch."""
    return np.stack([
        np.matmul(g, unfolded[:, :, t].transpose(0, 2, 1)).sum(axis=0)
        for t in range(unfolded.shape[2])], axis=2)


def backward(g, w, unfolded):
    """(dx, dw) of kernels.conv1d_backward for the output gradient g
    (B, C_out, L), each in a fresh array."""
    dx = np.empty(unfolded.shape[:2] + g.shape[2:], g.dtype)
    dw = kernels.conv1d_backward(same_unfolded(g, flip(w)), w, unfolded, dx)
    return dx, dw


def bound_rows(views, b):
    """The leading b rows of each of a conv's bound patch views, as the
    plans bind them per block size and the trainer per batch."""
    return tuple(v[:b] for v in views)


def test_patch_views_alias_their_buffer(rng):
    """The split view's element (b, c, t, l) is the buffer's (b, c*K + t,
    l), for a contiguous buffer and for one sliced along axis 1 from a
    wider one, as the trainer's are: it is a view of the buffer, never of
    a copy, and a write through it reaches the patches the GEMM reads."""
    wide = np.zeros((4, 6 * 3, 10), np.float32)
    for buf in (wide, wide[:3, :4 * 3]):
        split, patches = patch_views(buf, 3)
        assert patches is buf and split.shape == (len(buf), 4 if buf is not
                                                  wide else 6, 3, 10)
        assert np.shares_memory(split, wide)
        split[...] = rng.standard_normal(split.shape)
        c = split.shape[1]
        for t in range(3):
            np.testing.assert_array_equal(split[:, :, t],
                                          buf[:, t:c * 3:3])


class TestConv1dBackward:
    @pytest.mark.parametrize("c_in,c_out,length,k", CONV_CASES)
    def test_matches_naive_adjoint(self, rng, c_in, c_out, length, k):
        x = rng.standard_normal((2, c_in, length))
        w = rng.standard_normal((c_out, c_in, k))
        g = rng.standard_normal((2, c_out, length))
        dx, dw = backward(g, w, same_unfolded(x, w))
        grads = [naive_conv1d_same_grads(x[i], w, g[i]) for i in range(2)]
        for i in range(2):
            np.testing.assert_allclose(dx[i], grads[i][0], rtol=1e-12,
                                       atol=1e-12)
        np.testing.assert_allclose(dw, grads[0][1] + grads[1][1], rtol=1e-12,
                                   atol=1e-12)

    @pytest.mark.parametrize("buffers", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in,c_out", [(7, 4), (4, 4), (7, 52),
                                            (52, 52)])
    @pytest.mark.parametrize("batch", [1, kernels.BLOCK,
                                       2 * kernels.BLOCK + 3])
    def test_matches_conv1d_and_weight_grad_oracle(self, rng, batch, c_in,
                                                   c_out, dtype, buffers):
        """dx has the bits of conv1d on the gradient's unfold view with the
        flipped kernel; dw agrees with the per-tap oracle within rounding
        of dtype; without dx the weight gradient keeps its bits. With
        buffers, every output goes to a caller-owned array, sliced from one
        sized for a wider layer as the trainer's workspace slices them,
        and the patches are the bound views of such a slice."""
        length, k = 40, 3
        x = rng.standard_normal((batch, c_in, length)).astype(dtype)
        w = rng.standard_normal((c_out, c_in, k)).astype(dtype)
        g = rng.standard_normal((batch, c_out, length)).astype(dtype)
        unfolded, g_unfolded = same_unfolded(x, w), same_unfolded(g, flip(w))
        kwargs = {}
        if buffers:
            rows, wide = min(batch, kernels.BLOCK), max(c_in, c_out)
            kwargs = dict(
                patches=patch_views(np.empty((rows, wide * k, length), dtype)
                                    [:, :c_out * k], k),
                products=np.empty((rows, c_out * k, wide), dtype)[:, :, :c_in])
            dw_buf = np.empty(w.shape, dtype)
        dx = np.empty_like(x)
        dw = kernels.conv1d_backward(g_unfolded, w, unfolded, dx,
                                     dw_buf if buffers else None, **kwargs)
        assert not buffers or dw is dw_buf
        want_dx = kernels.conv1d(g_unfolded, weight_matrix(flip(w), k))
        assert dx.dtype == want_dx.dtype == dw.dtype == dtype
        assert dx.tobytes() == want_dx.tobytes()
        want_dw = conv1d_weight_grad(g.astype(np.float64),
                                     unfolded.astype(np.float64))
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(dw, want_dw, rtol=tol,
                                   atol=tol * np.abs(want_dw).max())
        dw2 = kernels.conv1d_backward(g_unfolded, w, unfolded, **kwargs)
        assert dw2.tobytes() == dw.tobytes()


class TestConvBuffers:
    """conv1d and conv1d_backward write into caller-owned buffers with the
    same bits as when they allocate, also through leading-row views of
    buffers sized for a larger batch, operands that are the unfold views
    of pad buffers, and patch views of a buffer, all bound before any
    input is written, as the trainer and the plans pass them."""

    @pytest.mark.parametrize("c_in,c_out,length,k", CONV_CASES)
    def test_buffers_match_allocating_call(self, rng, c_in, c_out, length, k):
        """At 1, BLOCK and 2*BLOCK + 3 windows, conv1d and conv1d_backward
        into caller-owned buffers and bound patch views give the bits of
        the allocating calls, and the patches of the last block are in the
        buffer the views were bound to."""
        for batch in (1, kernels.BLOCK, 2 * kernels.BLOCK + 3):
            self.check_buffers_match_allocating_call(rng, batch, c_in, c_out,
                                                     length, k)

    @staticmethod
    def check_buffers_match_allocating_call(rng, batch, c_in, c_out, length,
                                            k):
        x = rng.standard_normal((batch, c_in, length)).astype(np.float32)
        w3 = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
        g = rng.standard_normal((batch, c_out, length)).astype(np.float32)
        w = weight_matrix(w3, k)
        unfolded = same_unfolded(x, w3)
        y = kernels.conv1d(unfolded, w)
        dx, dw = backward(g, w3, unfolded)

        rows = batch + 2          # buffers sized for a larger batch
        block = min(batch, kernels.BLOCK)
        wide = max(c_in, c_out)
        pad_buf = np.zeros((rows, c_in, length + k - 1), np.float32)
        g_pad_buf = np.zeros((rows, c_out, length + k - 1), np.float32)
        patch_buf = np.empty((block + 2, wide * k, length), np.float32)
        out = np.empty((rows, c_out, length), np.float32)
        dx_buf = np.empty((rows, c_in, length), np.float32)
        products = np.empty((block, c_out * k, wide), np.float32)
        dw_buf = np.empty(w3.shape, np.float32)
        # the views are bound before any input is written
        view = kernels.unfold(pad_buf, k)[:batch]
        g_view = kernels.unfold(g_pad_buf, k)[:batch]
        patches = bound_rows(patch_views(patch_buf[:, :c_in * k], k), block)
        g_patches = bound_rows(patch_views(patch_buf[:, :c_out * k], k), block)

        # the caller writes each input into its view's interior
        kernels.interior(view)[...] = x
        kernels.interior(g_view)[...] = g
        out.fill(np.nan)
        patch_buf.fill(np.nan)
        y2 = kernels.conv1d(view, w, out[:batch], patches=patches)
        assert np.shares_memory(y2, out)
        assert y2.tobytes() == y.tobytes()
        # the last block's patches, written through the split view
        last = unfolded[(batch - 1) // kernels.BLOCK * kernels.BLOCK:]
        np.testing.assert_array_equal(patch_buf[:len(last), :c_in * k],
                                      kernels.im2col(last))
        dw2 = kernels.conv1d_backward(
            g_view, w3, view, dx_buf[:batch], dw_buf, patches=g_patches,
            products=products[:, :, :c_in])
        assert dw2 is dw_buf
        assert dx_buf[:batch].tobytes() == dx.tobytes()
        assert dw2.tobytes() == dw.tobytes()

    @pytest.mark.parametrize("buffers", [False, True])
    @pytest.mark.parametrize("c_in,c_out,length,k", CONV_CASES)
    def test_blocks_match_one_window_calls(self, rng, c_in, c_out, length,
                                           k, buffers):
        """2*BLOCK + 3 windows, three blocks the last of them short, give
        the bits of one-window calls; the caller's patch views and products
        buffer hold one block, and conv1d's operand, the unfold view, the
        whole batch."""
        batch = 2 * kernels.BLOCK + 3
        x = rng.standard_normal((batch, c_in, length)).astype(np.float32)
        w3 = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
        g = rng.standard_normal((batch, c_out, length)).astype(np.float32)
        w = weight_matrix(w3, k)
        unfolded = same_unfolded(x, w3)
        one = [backward(g[i:i + 1], w3, unfolded[i:i + 1])
               for i in range(batch)]
        want_y = np.concatenate([kernels.conv1d(unfolded[i:i + 1], w)
                                 for i in range(batch)])
        want_dx = np.concatenate([dx for dx, _ in one])
        want_dw = np.stack([dw for _, dw in one]).sum(axis=0)

        patches = np.empty((kernels.BLOCK, max(c_in, c_out) * k, length),
                           np.float32)
        if buffers:
            y = kernels.conv1d(
                unfolded, w, np.empty((batch, c_out, length), np.float32),
                patches=patch_views(patches[:, :c_in * k], k))
        else:
            y = kernels.conv1d(unfolded, w)
        assert y.dtype == want_y.dtype and y.shape == want_y.shape
        assert y.tobytes() == want_y.tobytes()
        if buffers:
            dx = np.empty_like(x)
            dw = kernels.conv1d_backward(
                same_unfolded(g, flip(w3)), w3, unfolded, dx,
                np.empty_like(w3),
                patches=patch_views(patches[:, :c_out * k], k),
                products=np.empty((kernels.BLOCK, c_out * k, c_in),
                                  np.float32))
        else:
            dx, dw = backward(g, w3, unfolded)
        assert dx.dtype == want_dx.dtype and dx.shape == want_dx.shape
        assert dx.tobytes() == want_dx.tobytes()
        # the weight gradient sums over the whole batch, not window by window
        np.testing.assert_allclose(dw, want_dw, rtol=1e-5, atol=1e-5)


def test_every_conv_lowers_through_im2col(monkeypatch):
    """The float forward, a training step and the int8 forward call
    kernels.im2col once per conv and block of kernels.BLOCK windows, and
    the training backward once more, since every conv, the stem too, unfolds
    its output gradient for the weight gradient: the benchmark taps and
    traces that one name."""
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

    for n in (1, 3, 2 * kernels.BLOCK + 3):
        x = np.stack([w.data for w in make_random_windows(n, seed=1)])
        blocks = -(-n // kernels.BLOCK)
        assert count(lambda: model.forward_batch(m, x)) == blocks * convs
        assert count(lambda: training.backward(
            m, x, np.arange(n) % 12, np.ones(n))) == blocks * 2 * convs
        assert count(lambda: quantize.qforward_batch(qm, x)) == blocks * convs


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
    unfolded = same_unfolded(x[None], w)
    first = kernels.conv1d_same_batch(unfolded, weight_matrix(w, 3))[0]
    second = kernels.conv1d_same_batch(unfolded.copy(),
                                       weight_matrix(w.copy(), 3))[0]
    assert np.array_equal(first, second)
    np.testing.assert_array_equal(kernels.softmax(first[:, 0]),
                                  kernels.softmax(first[:, 0]))
