import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (assert_zero_borders, astype, make_random_windows,
                      make_separable_windows, regrouped, same_unfolded)
from edgefit import dataset, kernels, model, training
from edgefit.errors import EmptyTestSet, EmptyTrainSet, InvalidConfig
from edgefit.model import ModelConfig, build
from edgefit.training import (
    AdamState,
    Hyperparams,
    adam_step,
    backward,
    evaluate,
    init_adam,
    train_fold,
)


# ---------------------------------------------------------------------------
# the allocating trainer, kept as the oracle of the workspace trainer
# ---------------------------------------------------------------------------

def oracle_bn_train_forward(x, gamma, beta, eps):
    mu = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))      # population variance
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None]) * inv[None, :, None]
    y = gamma[None, :, None] * xhat + beta[None, :, None]
    return y, (xhat, inv, mu, var)


def oracle_bn_train_backward(g, gamma, cache):
    xhat, inv, _, _ = cache
    dgamma = (g * xhat).sum(axis=(0, 2))
    dbeta = g.sum(axis=(0, 2))
    g_mean = g.mean(axis=(0, 2))
    gx_mean = (g * xhat).mean(axis=(0, 2))
    dx = (gamma * inv)[None, :, None] * (
        g - g_mean[None, :, None] - xhat * gx_mean[None, :, None])
    return dx, dgamma, dbeta


def named_convs(m):
    """(name, position in its block or None for the stem, ConvLayer) per
    conv of m, in execution order, from the config alone."""
    stem, blocks = regrouped(m.convs, m.config)
    return [("stem", None, stem)] + [
        (f"b{i}.c{j}", j, layer)
        for i, block in enumerate(blocks) for j, layer in enumerate(block)]


def oracle_forward_train(m, x):
    """Forward pass with batch-statistics BN, a fresh array per tensor,
    returning a tape for oracle_backward_train."""
    eps = m.config.bn_eps
    last = m.config.convs_per_block - 1
    tape = {"layers": []}
    a = x
    skip = None
    for name, pos, layer in named_convs(m):
        entry = {"name": name}
        if pos == 0:
            skip = a
        unfolded = same_unfolded(a, layer.w)
        z = kernels.conv1d(unfolded,
                           kernels.weight_matrix(layer.w, m.config.kernel))
        entry["patches"] = kernels.im2col(unfolded)
        h, entry["bn"] = oracle_bn_train_forward(z, layer.gamma, layer.beta, eps)
        if pos == last:
            h = h + skip
        a = kernels.relu(h)
        entry["post"] = a
        tape["layers"].append(entry)
    flat = a.reshape(a.shape[0], -1)
    tape["flat"] = flat
    logits = kernels.dense_batch(flat, m.head_w, m.head_b)
    return logits, tape


def oracle_backward_train(m, x, targets, weights):
    """(grads, loss, [(mean, var)] per conv) as training._step returns
    them, grads also holding under {name}.b the gradient a conv bias would
    have, dL/dz summed over batch and length, which the model has no
    tensor for; dw is one tensordot of g with the forward's patches over
    batch and length."""
    logits, tape = oracle_forward_train(m, x)
    loss, dlogits = training._loss_and_dlogits(logits, targets, weights)

    grads = {}
    grads["head.w"] = dlogits.T @ tape["flat"]
    grads["head.b"] = dlogits.sum(axis=0)
    da = (dlogits @ m.head_w).reshape(tape["layers"][-1]["post"].shape)

    bn_stats = [(e["bn"][2], e["bn"][3]) for e in tape["layers"]]
    layers = named_convs(m)
    last = m.config.convs_per_block - 1
    pending_skip_grad = None
    for idx in range(len(layers) - 1, -1, -1):
        name, pos, layer = layers[idx]
        entry = tape["layers"][idx]
        dh = da * (entry["post"] > 0)
        if pos == last:
            pending_skip_grad = dh
        dz, dgamma, dbeta = oracle_bn_train_backward(dh, layer.gamma, entry["bn"])
        c_out, c_in, k = layer.w.shape
        flipped = layer.w.transpose(1, 0, 2)[:, :, ::-1]
        dx = kernels.conv1d(same_unfolded(dz, flipped),
                            kernels.weight_matrix(flipped, k))
        dw = np.tensordot(dz, entry["patches"], axes=([0, 2], [0, 2]))
        grads[f"{name}.w"] = dw.reshape(c_out, c_in, k)
        grads[f"{name}.b"] = dz.sum(axis=(0, 2))
        grads[f"{name}.gamma"] = dgamma
        grads[f"{name}.beta"] = dbeta
        if pos == 0 and pending_skip_grad is not None:
            dx = dx + pending_skip_grad
            pending_skip_grad = None
        da = dx
    return grads, loss, bn_stats


def weighted_cross_entropy(probs, target, weight):
    """-weight * ln(probs[target]), probabilities clamped to >= 1e-12:
    the per-window loss the batched training loss averages."""
    return float(-weight * np.log(max(float(probs[target]), training.PROB_FLOOR)))


class TestWeightedCrossEntropy:
    def test_perfect_prediction(self):
        probs = np.zeros(12)
        probs[3] = 1.0
        assert weighted_cross_entropy(probs, 3, 1.0) == pytest.approx(0.0)

    def test_uniform_probs(self):
        probs = np.full(12, 1 / 12)
        assert weighted_cross_entropy(probs, 0, 1.0) == pytest.approx(
            np.log(12), rel=1e-9)

    def test_linear_in_weight(self, rng):
        probs = np.abs(rng.standard_normal(12))
        probs /= probs.sum()
        assert weighted_cross_entropy(probs, 5, 2.0) == pytest.approx(
            2 * weighted_cross_entropy(probs, 5, 1.0))

    def test_clamp_handles_zero_prob(self):
        probs = np.zeros(12)
        probs[0] = 1.0
        loss = weighted_cross_entropy(probs, 1, 1.0)
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(1e-12))


def finite_difference_check(m, x, y, w, h, kink_aware):
    """Central-difference oracle in float64. Returns per-tensor relative
    errors and the fraction of elements whose perturbation crossed a ReLU
    kink (central differences are not a derivative estimate across a kink,
    so those elements are excluded when kink_aware is set)."""
    grads, _ = backward(m, x, y, w)

    def loss_and_masks():
        ws = training.Workspace(m, len(x))
        logits, _ = training._forward(ws, m, x)
        loss, _ = training._loss_and_dlogits(logits, y, w)
        masks = np.concatenate([(a > 0).ravel()
                                for a in ws.operands(len(x))[1:]])
        return loss, masks

    _, base_masks = loss_and_masks()
    per_tensor = {}
    crossings = total = 0
    for name, p in m.param_items():
        g = grads[name].ravel()
        fp = p.ravel()
        scale = max(np.abs(g).max(), 1e-3)
        worst = 0.0
        for i in range(fp.size):
            total += 1
            orig = fp[i]
            fp[i] = orig + h
            lp, mp = loss_and_masks()
            fp[i] = orig - h
            lm, mm = loss_and_masks()
            fp[i] = orig
            if kink_aware and not (np.array_equal(mp, base_masks)
                                   and np.array_equal(mm, base_masks)):
                crossings += 1
                continue
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(g[i] - fd) / max(scale, abs(fd)))
        per_tensor[name] = worst
    return per_tensor, crossings / total


class TestBackward:
    def test_gradients_match_finite_differences(self, rng):
        """Keystone: analytic backprop vs the 64-bit central-difference
        oracle on a small-width model, batch of 2 random windows."""
        m = astype(build(ModelConfig(width=4), seed=1), np.float64)
        x = rng.standard_normal((2, 7, 40))
        y = np.array([3, 7])
        w = np.array([1.0, 2.0])
        per_tensor, kink_fraction = finite_difference_check(
            m, x, y, w, h=1e-5, kink_aware=False)
        assert kink_fraction == 0.0
        assert max(per_tensor.values()) < 1e-3, per_tensor

    def test_bn_cancels_a_conv_bias(self, rng):
        """BN subtracts the batch mean, so a per-channel conv bias would
        cancel from the loss, which is why the convs have none: backward
        returns the gradients of exactly the tensors param_items names, in
        float32 and float64, and the allocating oracle's gradient of a
        conv bias, dL/dz summed over batch and length, is zero up to
        rounding of the gamma gradient."""
        for dtype in (np.float32, np.float64):
            m = astype(build(ModelConfig(width=4), seed=1), dtype)
            x, y, w = random_batch(rng, 3, dtype)
            grads, _ = backward(m, x, y, w)
            want, _, _ = oracle_backward_train(m, x, y, w)
            assert grads.keys() == {n for n, _ in m.param_items()}
            assert all(g.dtype == dtype for g in grads.values())
            for name, _, _ in named_convs(m):
                assert f"{name}.b" not in grads, name
                assert (np.abs(want[f"{name}.b"]).max()
                        <= 1e3 * np.finfo(dtype).eps
                        * np.abs(want[f"{name}.gamma"]).max()), name

    def test_duplicated_batch_leaves_gradients_unchanged(self, rng):
        m = astype(build(ModelConfig(width=4), seed=2), np.float64)
        x = rng.standard_normal((2, 7, 40))
        y = np.array([1, 5])
        w = np.array([0.5, 1.5])
        g1, l1 = backward(m, x, y, w)
        g2, l2 = backward(m, np.concatenate([x, x]),
                          np.concatenate([y, y]), np.concatenate([w, w]))
        assert l1 == pytest.approx(l2, rel=1e-12)
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], rtol=1e-9,
                                       atol=1e-12)

    def test_gradients_linear_in_weights(self, rng):
        """With the batch (hence BN statistics) fixed, gradients are linear
        in the per-sample weights; a zero-weight sample contributes nothing."""
        m = astype(build(ModelConfig(width=4), seed=3), np.float64)
        x = rng.standard_normal((2, 7, 40))
        y = np.array([2, 9])
        g10, _ = backward(m, x, y, np.array([1.0, 0.0]))
        g01, _ = backward(m, x, y, np.array([0.0, 1.0]))
        gab, _ = backward(m, x, y, np.array([2.0, 3.0]))
        for name in gab:
            np.testing.assert_allclose(gab[name], 2 * g10[name] + 3 * g01[name],
                                       rtol=1e-9, atol=1e-12)

    def test_zero_weight_sample_label_is_irrelevant(self, rng):
        m = astype(build(ModelConfig(width=4), seed=3), np.float64)
        x = rng.standard_normal((2, 7, 40))
        w = np.array([1.0, 0.0])
        ga, _ = backward(m, x, np.array([2, 9]), w)
        gb, _ = backward(m, x, np.array([2, 4]), w)
        for name in ga:
            np.testing.assert_array_equal(ga[name], gb[name])

    def test_folded_model_rejected(self):
        m = model.fold_batchnorm(build(ModelConfig(width=4), seed=0))
        with pytest.raises(InvalidConfig):
            backward(m, np.zeros((1, 7, 40)), np.array([0]), np.ones(1))


def random_batch(rng, n, dtype):
    return (rng.standard_normal((n, 7, 40)).astype(dtype),
            rng.integers(12, size=n), rng.uniform(0.5, 2.0, n).astype(dtype))


class TestWorkspaceTrainer:
    @pytest.mark.parametrize("width, rows, b, blocks, convs", [
        *(pytest.param(width, rows, b, 3, 3, id=f"{width}-{rows}-{b}")
          for width, rows, b in [(2, 6, 6), (2, 6, 4), (52, 16, 16),
                                 (52, 16, 11), (52, 40, 37)]),
        *(pytest.param(4, 6, 5, blocks, convs,
                       id=f"blocks{blocks}-convs{convs}")
          for blocks, convs in [(3, 1), (3, 2), (1, 3), (1, 1)])])
    def test_matches_allocating_oracle(self, rng, width, rows, b, blocks,
                                       convs):
        """Full and shorter-than-workspace batches, one and three im2col
        blocks (kernels.BLOCK windows each), one to three residual blocks
        of one to three convs (a one-conv block both starts and ends at
        the same conv), float64: the gradient of every tensor param_items
        names within 1e-12 of the allocating trainer's largest such
        gradient, loss and BN statistics within 1e-12 relative."""
        config = ModelConfig(width=width, blocks=blocks, convs_per_block=convs)
        m = astype(build(config, seed=4), np.float64)
        x, y, w = random_batch(rng, b, np.float64)
        grads, loss, stats = training._step(training.Workspace(m, rows),
                                            m, x, y, w)
        want, want_loss, want_stats = oracle_backward_train(m, x, y, w)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        names = [n for n, _ in m.param_items()]
        assert grads.keys() == set(names)
        scale = max(np.abs(want[name]).max() for name in names)
        for name in names:
            assert np.abs(grads[name] - want[name]).max() <= 1e-12 * scale, name
        assert len(stats) == len(want_stats)
        for (mu, var, _), (want_mu, want_var) in zip(stats, want_stats):
            np.testing.assert_allclose(mu, want_mu, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(var, want_var, rtol=1e-12)

    @pytest.mark.parametrize("blocks, convs", [(1, 1), (3, 1), (3, 3)])
    def test_gradients_keyed_in_param_items_order(self, rng, blocks, convs):
        """A step's gradients are keyed by the names param_items yields, in
        its order, which is the order adam_step walks."""
        m = build(ModelConfig(width=4, blocks=blocks, convs_per_block=convs),
                  seed=4)
        grads, _, _ = training._step(training.Workspace(m, 3), m,
                                     *random_batch(rng, 3, np.float32))
        assert list(grads) == [n for n, _ in m.param_items()]

    def test_leading_rows_bit_identical_to_sized_workspace(self, rng):
        """A 5-window batch through the first rows of an 8-window workspace
        (that an 8-window step has already filled) gives the bits a
        5-window workspace gives."""
        m = build(ModelConfig(width=8), seed=5)
        big = training.Workspace(m, 8)
        training._step(big, m, *random_batch(rng, 8, np.float32))
        batch = random_batch(rng, 5, np.float32)
        got, loss, stats = training._step(big, m, *batch)
        want, want_loss, want_stats = training._step(
            training.Workspace(m, 5), m, *batch)
        assert loss == want_loss
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        for i, (got_s, want_s) in enumerate(zip(stats, want_stats)):
            for a, b in zip(got_s, want_s):
                assert a.tobytes() == b.tobytes(), i

    def test_patch_views_bound_on_one_block_buffer(self):
        """Every conv's patch views, of its input and of its output
        gradient, are bound at construction on one buffer of one block of
        kernels.BLOCK windows, each split a view of its patches."""
        cfg = ModelConfig(width=8)
        ws = training.Workspace(build(cfg, seed=5), 2 * kernels.BLOCK)
        convs = model.topology(cfg)
        base = ws.patches[0][1].base
        for views, channels in ((ws.patches, "in_channels"),
                                (ws.g_patches, "out_channels")):
            assert len(views) == len(convs)
            for (split, patches), conv in zip(views, convs):
                c = getattr(conv, channels)
                assert split.shape == (kernels.BLOCK, c, cfg.kernel, 40)
                assert patches.shape == (kernels.BLOCK, c * cfg.kernel, 40)
                assert patches.base is base and np.shares_memory(split,
                                                                 patches)

    @pytest.mark.parametrize("k", [3, 5])
    def test_pad_borders_stay_zero(self, rng, k):
        """Steps of 8 windows and a shorter last one write only the
        interiors of the workspace's pad buffers, through the unfold views
        the conv kernels read; each buffer is reached as the base of its
        view, the array the view was built on."""
        m = build(ModelConfig(width=8, kernel=k), seed=5)
        ws = training.Workspace(m, 8)
        for n in (8, 8, 3):
            training._step(ws, m, *random_batch(rng, n, np.float32))
        pad = (k - 1) // 2
        for view in [*ws.unfolded, ws.g_unfolded]:
            buf = view.base
            assert buf.ndim == 3
            assert buf[:, :, pad:buf.shape[2] - pad].any()
            assert_zero_borders(buf, k)

    def test_steady_step_allocates_under_2mb(self, monkeypatch):
        """The second optimizer step of an epoch at width 52, batch 64, Adam
        included, peaks below 2 MB of fresh allocations (numpy reports its
        buffers to tracemalloc); the allocating trainer peaked at 30 MB."""
        split = separable_split(300)
        peaks = []
        original = training.adam_step

        def tapped(*args):
            out = original(*args)
            current, peak = tracemalloc.get_traced_memory()
            if len(peaks) < 3:
                peaks.append((current, peak))
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(training, "adam_step", tapped)
        tracemalloc.start()
        try:
            train_fold(split, ModelConfig(width=52),
                       Hyperparams(epochs=1, patience=0, batch_size=64), seed=0)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 3
        step_peak = peaks[1][1] - peaks[0][0]
        assert step_peak < 2_000_000, step_peak


class TestAdamStep:
    @staticmethod
    def setup_model(seed=0):
        m = build(ModelConfig(width=2), seed=seed)
        return m, init_adam(m)

    def test_first_step_is_signed_lr(self):
        m, state = self.setup_model()
        hp = Hyperparams()
        before = {n: p.copy() for n, p in m.param_items()}
        grads = {n: np.where(np.arange(p.size).reshape(p.shape) % 2 == 0,
                             0.7, -1.3).astype(p.dtype)
                 for n, p in m.param_items()}
        adam_step(m, grads, state, hp)
        for n, p in m.param_items():
            delta = p - before[n]
            np.testing.assert_allclose(
                delta, -training.LR * np.sign(grads[n]), rtol=1e-4)

    def test_zero_gradient_keeps_params(self):
        m, state = self.setup_model()
        before = {n: p.copy() for n, p in m.param_items()}
        grads = {n: np.zeros_like(p) for n, p in m.param_items()}
        adam_step(m, grads, state, Hyperparams())
        assert state.t == 1
        for n, p in m.param_items():
            np.testing.assert_array_equal(p, before[n])

    def test_first_step_magnitude_independent_of_scale(self):
        hp = Hyperparams()
        for scale in (1e-4, 1.0, 1e4):
            m, state = self.setup_model()
            before = {n: p.copy() for n, p in m.param_items()}
            grads = {n: np.full_like(p, scale) for n, p in m.param_items()}
            adam_step(m, grads, state, hp)
            for n, p in m.param_items():
                np.testing.assert_allclose(np.abs(p - before[n]),
                                           training.LR, rtol=1e-3)

    def test_matches_textbook_oracle(self, rng):
        """Fifty steps of seeded random gradients in float64 land within
        1e-12 relative of Kingma & Ba's Algorithm 1, bias-corrected
        moments m_hat and v_hat and all."""
        m = astype(build(ModelConfig(width=4), seed=0), np.float64)
        state, hp = init_adam(m), Hyperparams()
        want = {n: p.copy() for n, p in m.param_items()}
        m1 = {n: np.zeros_like(p) for n, p in want.items()}
        m2 = {n: np.zeros_like(p) for n, p in want.items()}
        for t in range(1, 51):
            grads = {n: rng.standard_normal(p.shape) for n, p in want.items()}
            adam_step(m, grads, state, hp)
            for n, g in grads.items():
                m1[n] = training.BETA1 * m1[n] + (1 - training.BETA1) * g
                m2[n] = training.BETA2 * m2[n] + (1 - training.BETA2) * g * g
                m_hat = m1[n] / (1 - training.BETA1 ** t)
                v_hat = m2[n] / (1 - training.BETA2 ** t)
                want[n] = want[n] - training.LR * m_hat / (
                    np.sqrt(v_hat) + training.ADAM_EPS)
        for n, p in m.param_items():
            np.testing.assert_allclose(p, want[n], rtol=1e-12, err_msg=n)

    def test_patience_defaults_to_min_100_epochs(self):
        assert Hyperparams().patience == 100
        assert Hyperparams(epochs=5).patience == 5
        assert Hyperparams(epochs=5, patience=2).patience == 2

    def test_hyperparam_validation(self):
        with pytest.raises(InvalidConfig):
            Hyperparams(patience=10, epochs=5).validate()
        with pytest.raises(InvalidConfig, match="patience -1"):
            Hyperparams(patience=-1, epochs=5).validate()


def separable_split(n=200, seed=0):
    windows = make_separable_windows(n, seed=seed)
    return dataset.DatasetSplit(train=windows, test=windows,
                                held_out_subject=0)


class TestTrainFold:
    def test_patience_zero_stops_at_first_plateau(self):
        split = separable_split(60)
        hp = Hyperparams(epochs=5, patience=0, batch_size=16)
        _, history = train_fold(split, ModelConfig(width=2), hp, seed=0)
        if history.stopped_early:
            assert len(history.val_loss) < 5
            # stopping epoch is the first one that failed to improve
            assert history.val_loss[-1] >= min(history.val_loss[:-1])

    @pytest.mark.parametrize("patience, val_losses, epochs_run", [
        (0, [3.0, 2.0, 2.5, 1.0, 0.5], 3),
        (0, [3.0, 3.0, 1.0, 0.5, 0.4], 2),     # a tie does not improve
        (1, [3.0, 2.0, 2.5, 2.6, 1.0], 4),
        (1, [3.0, 2.0, 2.5, 1.0, 1.5], 5),
    ])
    def test_stops_after_patience_plus_one_non_improving_epochs(
            self, monkeypatch, patience, val_losses, epochs_run):
        scripted = iter(val_losses)
        monkeypatch.setattr(
            training, "_eval_arrays",
            lambda *args: SimpleNamespace(loss=next(scripted),
                                          balanced_accuracy=0.0))
        hp = Hyperparams(epochs=len(val_losses), patience=patience,
                         batch_size=32)
        _, history = train_fold(separable_split(40), ModelConfig(width=2),
                                hp, seed=0)
        assert history.val_loss == val_losses[:epochs_run]
        assert history.stopped_early == (epochs_run < len(val_losses))

    def test_seed_determinism(self):
        split = separable_split(80)
        hp = Hyperparams(epochs=3, patience=3, batch_size=16)
        cfg = ModelConfig(width=4)
        m1, h1 = train_fold(split, cfg, hp, seed=7)
        m2, h2 = train_fold(split, cfg, hp, seed=7)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        for (_, a), (_, b) in zip(m1.all_tensors(), m2.all_tensors()):
            assert a.tobytes() == b.tobytes()

    def test_separable_set_reaches_perfect_accuracy(self):
        split = separable_split(200)
        hp = Hyperparams(epochs=30, patience=30, batch_size=32)
        params, history = train_fold(split, ModelConfig(width=8), hp, seed=0)
        metrics = evaluate(params, split.train)
        assert metrics.balanced_accuracy == pytest.approx(1.0)
        assert history.train_loss[-1] < 0.2 * history.train_loss[0]

    def test_partial_last_batch_model_bytes_repeat(self, tmp_path):
        split = separable_split(90)
        hp = Hyperparams(epochs=2, patience=2, batch_size=16)
        train, _ = training._split_validation(split.train)
        assert len(train) % hp.batch_size != 0
        files = []
        for tag in ("a", "b"):
            params, _ = train_fold(split, ModelConfig(width=4), hp, seed=3)
            files.append(tmp_path / f"{tag}.efm")
            model.save(params, files[-1])
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_best_epoch_has_minimal_val_loss(self):
        split = separable_split(100)
        hp = Hyperparams(epochs=8, patience=8, batch_size=16)
        _, history = train_fold(split, ModelConfig(width=4), hp, seed=1)
        assert history.val_loss[history.best_epoch - 1] == min(history.val_loss)

    def test_empty_train_set(self):
        split = dataset.DatasetSplit(train=[], test=[], held_out_subject=1)
        with pytest.raises(EmptyTrainSet):
            train_fold(split, ModelConfig(width=2), Hyperparams(), seed=0)

    def test_one_session_per_subject_leaves_nothing_to_train(self):
        """Each subject's one session is its validation session."""
        windows = make_separable_windows(40)
        for w in windows:
            w.session = 3
        split = dataset.DatasetSplit(train=windows, test=windows,
                                     held_out_subject=0)
        with pytest.raises(EmptyTrainSet, match="validation session"):
            train_fold(split, ModelConfig(width=2), Hyperparams(), seed=0)

    def test_history_csv(self, tmp_path):
        split = separable_split(60)
        hp = Hyperparams(epochs=2, patience=2, batch_size=16)
        _, history = train_fold(split, ModelConfig(width=2), hp, seed=0)
        path = tmp_path / "h.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_bacc,step_ms"
        assert len(lines) == 1 + len(history.train_loss)
        assert len(history.step_ms) == len(history.train_loss)
        assert all(float(line.split(",")[-1]) >= 0 for line in lines[1:])


class TestEvaluate:
    def test_perfect_predictor(self):
        windows = make_separable_windows(40, seed=0)
        split = dataset.DatasetSplit(train=windows, test=windows,
                                     held_out_subject=0)
        hp = Hyperparams(epochs=25, patience=25, batch_size=16)
        params, _ = train_fold(split, ModelConfig(width=8), hp, seed=0)
        metrics = evaluate(params, windows)
        assert metrics.balanced_accuracy == pytest.approx(1.0)
        assert np.trace(metrics.confusion) == len(windows)

    def test_constant_predictor_on_balanced_two_class_set(self, rng):
        # force one class by a huge head bias: recall 1 on it, 0 on the other
        m = build(ModelConfig(width=2), seed=0)
        m.head_b[4] = 100.0
        windows = make_separable_windows(40, seed=0, labels=(4, 5))
        metrics = evaluate(m, windows)
        assert metrics.balanced_accuracy == pytest.approx(0.5)

    def test_confusion_row_sums_are_truth_counts(self, rng):
        m = build(ModelConfig(width=2), seed=0)
        windows = make_random_windows(60, seed=1)
        metrics = evaluate(m, windows)
        truth_counts = np.bincount([w.label for w in windows], minlength=12)
        np.testing.assert_array_equal(metrics.confusion.sum(axis=1),
                                      truth_counts)

    def test_one_forward_batch_call(self, monkeypatch):
        """600 windows reach training.forward_batch, the module global the
        benchmark taps, in one call."""
        m = build(ModelConfig(width=2), seed=0)
        windows = make_random_windows(600, seed=2)
        calls = []

        def counted(params, x):
            calls.append(len(x))
            return model.forward_batch(params, x)

        monkeypatch.setattr(training, "forward_batch", counted)
        evaluate(m, windows)
        assert calls == [600]

    def test_empty(self):
        m = build(ModelConfig(width=2), seed=0)
        with pytest.raises(EmptyTestSet):
            evaluate(m, [])

    def test_metrics_text_has_confusion_block(self):
        m = build(ModelConfig(width=2), seed=0)
        metrics = evaluate(m, make_random_windows(10, seed=0))
        text = metrics.as_text()
        assert "balanced_accuracy=" in text
        assert "confusion matrix" in text


def test_validation_split_prefers_session_five():
    windows = []
    for session in (1, 2, 5):
        windows += [w for w in make_separable_windows(20, seed=session)]
        for w in windows[-20:]:
            w.session = session
    train, val = training._split_validation(windows)
    assert {w.session for w in val} == {5}
    assert {w.session for w in train} == {1, 2}


def test_validation_split_falls_back_to_max_session():
    windows = make_separable_windows(30, seed=0)
    for i, w in enumerate(windows):
        w.session = 1 + i % 3   # sessions 1..3, no session 5
    train, val = training._split_validation(windows)
    assert {w.session for w in val} == {3}
    assert {w.session for w in train} == {1, 2}
