from types import SimpleNamespace

import numpy as np
import pytest

from edgefit import dataset, model, synth, training
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
        logits, tape = training._forward_train(m, x)
        loss, _ = training._loss_and_dlogits(logits, y, w)
        masks = np.concatenate([(e["post"] > 0).ravel()
                                for e in tape["layers"]])
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
        m = build(ModelConfig(width=4), seed=1).astype(np.float64)
        x = rng.standard_normal((2, 7, 40))
        y = np.array([3, 7])
        w = np.array([1.0, 2.0])
        per_tensor, kink_fraction = finite_difference_check(
            m, x, y, w, h=1e-5, kink_aware=False)
        assert kink_fraction == 0.0
        assert max(per_tensor.values()) < 1e-3, per_tensor

    def test_conv_bias_gradient_is_zero_under_bn(self, rng):
        # BN subtracts the batch mean, so a per-channel conv bias cancels
        m = build(ModelConfig(width=4), seed=1).astype(np.float64)
        grads, _ = backward(m, rng.standard_normal((3, 7, 40)),
                            np.array([0, 1, 2]), np.ones(3))
        for name, g in grads.items():
            if name.endswith(".b") and name != "head.b":
                assert np.abs(g).max() < 1e-12, name

    def test_duplicated_batch_leaves_gradients_unchanged(self, rng):
        m = build(ModelConfig(width=4), seed=2).astype(np.float64)
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
        m = build(ModelConfig(width=4), seed=3).astype(np.float64)
        x = rng.standard_normal((2, 7, 40))
        y = np.array([2, 9])
        g10, _ = backward(m, x, y, np.array([1.0, 0.0]))
        g01, _ = backward(m, x, y, np.array([0.0, 1.0]))
        gab, _ = backward(m, x, y, np.array([2.0, 3.0]))
        for name in gab:
            np.testing.assert_allclose(gab[name], 2 * g10[name] + 3 * g01[name],
                                       rtol=1e-9, atol=1e-12)

    def test_zero_weight_sample_label_is_irrelevant(self, rng):
        m = build(ModelConfig(width=4), seed=3).astype(np.float64)
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


class TestAdamStep:
    @staticmethod
    def setup_model(seed=0):
        m = build(ModelConfig(width=2), seed=seed)
        return m, init_adam(m)

    def test_first_step_is_signed_lr(self):
        m, state = self.setup_model()
        hp = Hyperparams(adam_eps=1e-12)
        before = {n: p.copy() for n, p in m.param_items()}
        grads = {n: np.where(np.arange(p.size).reshape(p.shape) % 2 == 0,
                             0.7, -1.3).astype(p.dtype)
                 for n, p in m.param_items()}
        adam_step(m, grads, state, hp)
        for n, p in m.param_items():
            delta = p - before[n]
            np.testing.assert_allclose(delta, -hp.lr * np.sign(grads[n]),
                                       rtol=1e-4)

    def test_zero_gradient_keeps_params(self):
        m, state = self.setup_model()
        before = {n: p.copy() for n, p in m.param_items()}
        grads = {n: np.zeros_like(p) for n, p in m.param_items()}
        adam_step(m, grads, state, Hyperparams())
        assert state.t == 1
        for n, p in m.param_items():
            np.testing.assert_array_equal(p, before[n])

    def test_first_step_magnitude_independent_of_scale(self):
        hp = Hyperparams(adam_eps=1e-12)
        for scale in (1e-4, 1.0, 1e4):
            m, state = self.setup_model()
            before = {n: p.copy() for n, p in m.param_items()}
            grads = {n: np.full_like(p, scale) for n, p in m.param_items()}
            adam_step(m, grads, state, hp)
            for n, p in m.param_items():
                np.testing.assert_allclose(np.abs(p - before[n]), hp.lr,
                                           rtol=1e-3)

    def test_hyperparam_validation(self):
        with pytest.raises(InvalidConfig):
            Hyperparams(patience=10, epochs=5).validate()
        with pytest.raises(InvalidConfig):
            Hyperparams(lr=0).validate()


def separable_split(n=200, seed=0):
    windows = synth.make_separable_windows(n, seed=seed)
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

    def test_best_epoch_has_minimal_val_loss(self):
        split = separable_split(100)
        hp = Hyperparams(epochs=8, patience=8, batch_size=16)
        _, history = train_fold(split, ModelConfig(width=4), hp, seed=1)
        assert history.val_loss[history.best_epoch - 1] == min(history.val_loss)

    def test_empty_train_set(self):
        split = dataset.DatasetSplit(train=[], test=[], held_out_subject=1)
        with pytest.raises(EmptyTrainSet):
            train_fold(split, ModelConfig(width=2), Hyperparams(), seed=0)

    def test_history_csv(self, tmp_path):
        split = separable_split(60)
        hp = Hyperparams(epochs=2, patience=2, batch_size=16)
        _, history = train_fold(split, ModelConfig(width=2), hp, seed=0)
        path = tmp_path / "h.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_bacc"
        assert len(lines) == 1 + len(history.train_loss)


class TestEvaluate:
    def test_perfect_predictor(self):
        windows = synth.make_separable_windows(40, seed=0)
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
        windows = synth.make_separable_windows(40, seed=0, labels=(4, 5))
        metrics = evaluate(m, windows)
        assert metrics.balanced_accuracy == pytest.approx(0.5)

    def test_confusion_row_sums_are_truth_counts(self, rng):
        m = build(ModelConfig(width=2), seed=0)
        windows = synth.make_random_windows(60, seed=1)
        metrics = evaluate(m, windows)
        truth_counts = np.bincount([w.label for w in windows], minlength=12)
        np.testing.assert_array_equal(metrics.confusion.sum(axis=1),
                                      truth_counts)

    def test_empty(self):
        m = build(ModelConfig(width=2), seed=0)
        with pytest.raises(EmptyTestSet):
            evaluate(m, [])

    def test_metrics_text_has_confusion_block(self):
        m = build(ModelConfig(width=2), seed=0)
        metrics = evaluate(m, synth.make_random_windows(10, seed=0))
        text = metrics.as_text()
        assert "balanced_accuracy=" in text
        assert "confusion matrix" in text


def test_validation_split_prefers_session_five():
    windows = []
    for session in (1, 2, 5):
        windows += [w for w in synth.make_separable_windows(20, seed=session)]
        for w in windows[-20:]:
            w.session = session
    train, val = training._split_validation(windows)
    assert {w.session for w in val} == {5}
    assert {w.session for w in train} == {1, 2}


def test_validation_split_falls_back_to_max_session():
    windows = synth.make_separable_windows(30, seed=0)
    for i, w in enumerate(windows):
        w.session = 1 + i % 3   # sessions 1..3, no session 5
    train, val = training._split_validation(windows)
    assert {w.session for w in val} == {3}
    assert {w.session for w in train} == {1, 2}
