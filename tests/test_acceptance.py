"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

The long-running criteria (6c, 7) train one leave-one-user-out fold. They
use a generated multi-subject dataset by default; point EDGEFIT_DATASET at
a directory of canonical-schema CSVs to run them on real recordings
instead.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from conftest import (astype, make_random_windows, make_separable_windows,
                      randomize_bn, requantize_array)
from edgefit import cli, dataset, model, platform_model, quantize, synth, training

WIDTH = 24          # training width for the reduced-protocol criteria
TRAIN_EPOCHS = 100


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared trained fold (criteria 6c and 7)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fold_split(tmp_path_factory):
    env = os.environ.get("EDGEFIT_DATASET")
    if env:
        recordings = dataset.load_recordings(Path(env))
        source = f"real dataset at {env}"
    else:
        data_dir = tmp_path_factory.mktemp("gymdata")
        synth.make_synthetic_dataset(data_dir, subjects=4, sessions=3,
                                     class_seconds=12.0, noise=0.5, seed=5)
        recordings = dataset.load_recordings(data_dir)
        source = "generated stand-in dataset (4 subjects x 3 sessions)"
    held_out = sorted({r.subject for r in recordings})[0]
    split = dataset.build_fold(recordings, held_out_subject=held_out)
    return split, source


@pytest.fixture(scope="module")
def trained_fold(fold_split):
    split, source = fold_split
    cfg = model.ModelConfig(width=WIDTH)
    hp = training.Hyperparams(epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS,
                              batch_size=64)
    params, history = training.train_fold(split, cfg, hp, seed=0)
    return params, history, split, source


def test_criterion_01_platform_arithmetic():
    reference = {
        "gap8@80MHz": (448.80, 5.610, 0.37, 8.220),
        "gap8@175MHz": (953.70, 5.450, 0.41, 7.372),
        "cortex-m4@60MHz": (26.60, 0.44, 5.39, 0.564),
        "cortex-m4@120MHz": (50.35, 0.42, 5.17, 0.588),
        "cortex-m7@108MHz": (73.05, 0.68, 7.74, 0.394),
        "cortex-m7@216MHz": (145.57, 0.67, 8.07, 0.376),
    }
    worst = 0.0
    for p in platform_model.BUILTIN_PROFILES:
        d = platform_model.derive_metrics(p)
        got = (d.throughput_mmacs, d.mac_per_cycle, d.energy_mj,
               d.efficiency_gmacspw)
        for g, ref in zip(got, reference[p.name]):
            worst = max(worst, abs(g - ref) / ref)
    report(1, worst < 0.01,
           f"6 profiles x 4 derived metrics, worst deviation {worst * 100:.2f}% "
           f"(tolerance 1%)")


def test_criterion_02_speedup_claims():
    rep = platform_model.speedup_table(list(platform_model.BUILTIN_PROFILES),
                                       baseline="gap8@175MHz")
    ratios = {r.name: r.time_ratio for r in rep.rows}
    m4 = ratios["cortex-m4@120MHz"]
    m7 = ratios["cortex-m7@216MHz"]
    ok = abs(m4 - 18.9) / 18.9 < 0.01 and abs(m7 - 6.5) / 6.5 < 0.01
    report(2, ok, f"computed {m4:.2f}x / {m7:.2f}x vs published 18.9x / 6.5x")


def test_criterion_03_mac_budget():
    cfg = model.ModelConfig(width=52)
    rep = model.count_macs(cfg)
    in_band = 2_887_438 <= rep.total <= 3_191_378

    # independent enumeration: one fan-in's worth of MACs per output element
    enumerated = {}
    shapes = [("stem", cfg.in_channels, cfg.width)]
    shapes += [(f"b{i}.c{j}", cfg.width, cfg.width)
               for i in range(cfg.blocks) for j in range(cfg.convs_per_block)]
    for name, c_in, c_out in shapes:
        total = 0
        for _ in range(c_out):
            for _ in range(cfg.seq_len):
                total += c_in * cfg.kernel
        enumerated[name] = total
    total = 0
    for _ in range(cfg.classes):
        total += cfg.seq_len * cfg.width
    enumerated["head"] = total
    enumeration_exact = (enumerated == rep.per_layer
                         and sum(enumerated.values()) == rep.total
                         and rep.total == 1080 * cfg.width ** 2 + 1320 * cfg.width)

    flash_ref = 105.11 * 1024
    flash_ok = abs(rep.flash_bytes_int8 - flash_ref) / flash_ref < 0.10
    ok = in_band and enumeration_exact and flash_ok
    report(3, ok,
           f"total {rep.total:,} MACs in [2,887,438..3,191,378], enumeration "
           f"exact: {enumeration_exact}, params {rep.param_count:,}, flash "
           f"{rep.flash_bytes_int8 / 1024:.1f} kB vs 105.11 kB")


def test_criterion_04_gradient_oracle(rng):
    """Analytic backprop vs 64-bit central differences at h=1e-3.

    Elements whose +-h perturbation flips a ReLU mask are excluded: the loss
    is not differentiable across such an interval, so central differences do
    not estimate the derivative there. Everything else must agree to 1e-3."""
    m = astype(model.build(model.ModelConfig(width=4), seed=1), np.float64)
    x = rng.standard_normal((2, 7, 40))
    y = np.array([3, 7])
    w = np.array([1.0, 2.0])
    grads, _ = training.backward(m, x, y, w)

    def loss_and_masks():
        ws = training.Workspace(m, len(x))
        logits, _ = training._forward(ws, m, x)
        loss, _ = training._loss_and_dlogits(logits, y, w)
        masks = np.concatenate([(a > 0).ravel()
                                for a in ws.operands(len(x))[1:]])
        return loss, masks

    _, base = loss_and_masks()
    h = 1e-3
    worst = 0.0
    checked = total = 0
    for name, p in m.param_items():
        g = grads[name].ravel()
        fp = p.ravel()
        scale = max(np.abs(g).max(), 1e-3)
        for i in range(fp.size):
            total += 1
            orig = fp[i]
            fp[i] = orig + h
            lp, mp = loss_and_masks()
            fp[i] = orig - h
            lm, mm = loss_and_masks()
            fp[i] = orig
            if not (np.array_equal(mp, base) and np.array_equal(mm, base)):
                continue
            checked += 1
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(g[i] - fd) / max(scale, abs(fd)))
    ok = worst < 1e-3 and checked / total > 0.5
    report(4, ok,
           f"max relative error {worst:.2e} over {checked}/{total} parameter "
           f"elements (rest crossed ReLU kinks; tolerance 1e-3)")


def test_criterion_05_folding_equivalence(rng):
    m = randomize_bn(model.build(model.ModelConfig(width=8), seed=3), seed=7)
    folded = model.fold_batchnorm(m)
    x = rng.standard_normal((100, 7, 40)).astype(np.float32)
    dev = float(np.abs(model.forward_batch(m, x)
                       - model.forward_batch(folded, x)).max())
    report(5, dev < 1e-4,
           f"max |logit difference| {dev:.2e} over 100 random inputs "
           f"(tolerance 1e-4)")


def test_criterion_06a_requantize_oracle(rng):
    n_draws = 1_000_000
    accs = rng.integers(-(2 ** 31), 2 ** 31, size=n_draws, dtype=np.int64)
    ratios = 10 ** rng.uniform(-6, -0.01, size=n_draws)
    worst = 0
    chunk = n_draws // 20
    for c in range(20):
        sl = slice(c * chunk, (c + 1) * chunk)
        m0, n = quantize.quantize_multiplier(ratios[sl])
        got = requantize_array(accs[sl], m0, n, 0)
        oracle = np.clip(np.rint(accs[sl].astype(np.float64) * ratios[sl]),
                         -128, 127)
        worst = max(worst, int(np.abs(got - oracle).max()))
    report("6a", worst <= 1,
           f"requantize vs rational oracle over 10^6 draws: max deviation "
           f"{worst} LSB (tolerance 1)")


def test_criterion_06b_random_model_agreement():
    folded = model.fold_batchnorm(model.build(model.ModelConfig(width=52),
                                              seed=0))
    calib = make_random_windows(512, seed=1)
    qm = quantize.quantize_model(folded, quantize.calibrate(folded, calib))
    windows = make_random_windows(1000, seed=2)
    x = np.stack([w.data for w in windows])
    agree = float((quantize.qforward_batch(qm, x).argmax(1)
                   == model.forward_batch(folded, x).argmax(1)).mean())
    report("6b", agree >= 0.95,
           f"top-1 agreement {agree * 100:.1f}% on 1000 calibrated random "
           f"inputs (threshold 95%)")


def test_criterion_06c_trained_fold_accuracy_drop(trained_fold):
    params, _, split, source = trained_fold
    qm, _ = quantize.post_training_quantize(params, split.train, 512, 0)
    float_bacc = training.evaluate(params, split.test).balanced_accuracy
    quant_bacc = quantize.evaluate_quant(qm, split.test).balanced_accuracy
    drop = (float_bacc - quant_bacc) * 100
    report("6c", quant_bacc >= float_bacc - 0.04,
           f"{source}: float {float_bacc * 100:.1f}%, quantized "
           f"{quant_bacc * 100:.1f}%, drop {drop:.2f} points (tolerance 4.0)")


def test_criterion_07_training_protocol(trained_fold):
    params, history, split, source = trained_fold
    bacc = training.evaluate(params, split.test).balanced_accuracy
    held_out_ok = bacc >= 0.70 and len(history.train_loss) >= 0.1 * TRAIN_EPOCHS

    sep = make_separable_windows(200, seed=0)
    sep_split = dataset.DatasetSplit(train=sep, test=sep, held_out_subject=0)
    hp = training.Hyperparams(epochs=30, patience=30, batch_size=32)
    sep_params, sep_hist = training.train_fold(
        sep_split, model.ModelConfig(width=8), hp, seed=0)
    sep_bacc = training.evaluate(sep_params, sep).balanced_accuracy
    loss_ratio = sep_hist.train_loss[-1] / sep_hist.train_loss[0]
    sep_ok = sep_bacc == 1.0 and loss_ratio < 0.20

    report(7, held_out_ok and sep_ok,
           f"{source}: held-out balanced accuracy {bacc * 100:.1f}% after "
           f"{len(history.train_loss)} epochs (threshold 70%); separable set "
           f"bacc {sep_bacc * 100:.0f}% with loss at "
           f"{loss_ratio * 100:.1f}% of epoch 1 (threshold 20%)")


def test_criterion_08_dataset_invariants(rng):
    count_ok = True
    for _ in range(200):
        length = int(rng.integers(0, 500))
        stride = int(rng.integers(1, 80))
        expected = max(0, (length - 40) // stride + 1) if length >= 40 else 0
        count_ok &= dataset.window_count(length, 40, stride) == expected

    windows = [dataset.Window(data=np.zeros((7, 40), np.float32), label=0,
                              weight=1.0, subject=s, session=1 + i % 5)
               for s in range(1, 11) for i in range(4)]
    partition_ok = True
    seen_test_subjects = []
    for split in (dataset.fold_split(windows, s) for s in range(1, 11)):
        train_subj = {w.subject for w in split.train}
        test_subj = {w.subject for w in split.test}
        partition_ok &= not (train_subj & test_subj)
        partition_ok &= len(split.train) + len(split.test) == len(windows)
        seen_test_subjects.extend(test_subj)
    partition_ok &= sorted(seen_test_subjects) == list(range(1, 11))

    labels = np.repeat(np.arange(12), 40)
    recs = [dataset.Recording(
        subject=s, session=1,
        timestamps=np.arange(len(labels), dtype=np.float64) / 20.0,
        data=rng.standard_normal((len(labels), 7)).astype(np.float32),
        labels=labels.astype(np.int16)) for s in (1, 2)]
    split = dataset.build_fold(recs, held_out_subject=2, stride=40)
    weights = np.array([w.weight for w in split.train])
    weights_ok = bool(np.all(np.abs(weights - 1.0) <= 1e-6))

    ok = count_ok and partition_ok and weights_ok
    report(8, ok,
           f"window-count law over 200 cases: {count_ok}; LOUO partition "
           f"exact: {partition_ok}; uniform-frequency weights all 1.0: "
           f"{weights_ok}")


def test_criterion_09_realtime_feasibility():
    max_clock_latencies = {"gap8": 3.2, "cortex-m4": 60.36, "cortex-m7": 20.88}
    margins = {}
    feasible = True
    for name, t in max_clock_latencies.items():
        check = platform_model.realtime_check(t, 20)
        feasible &= check.feasible
        margins[name] = check.margin
    report(9, feasible,
           "all three platforms meet the 1000 ms stride budget; margins "
           + ", ".join(f"{k} {v:.0f}x" for k, v in margins.items()))


def test_criterion_10_cli_determinism(tmp_path):
    data = tmp_path / "data"
    prep = tmp_path / "prep"
    assert cli.main(["synth", "--out", str(data), "--subjects", "3",
                     "--sessions", "2", "--class-seconds", "4",
                     "--seed", "11"]) == 0
    assert cli.main(["prepare", "--dataset", str(data), "--out", str(prep),
                     "--fold", "1"]) == 0
    windows = str(prep / "windows_fold1.efw")

    models = []
    for tag in ("a", "b"):
        out = tmp_path / f"m_{tag}.efm"
        assert cli.main(["train", "--windows", windows, "--fold", "1",
                         "--out", str(out), "--width", "8", "--epochs", "4",
                         "--patience", "4", "--seed", "13"]) == 0
        models.append(out.read_bytes())
    train_ok = models[0] == models[1]

    qmodels = []
    for tag in ("a", "b"):
        out = tmp_path / f"q_{tag}.efq"
        assert cli.main(["quantize", "--model", str(tmp_path / "m_a.efm"),
                         "--windows", windows, "--fold", "1",
                         "--calib-size", "64", "--seed", "13",
                         "--out", str(out)]) == 0
        qmodels.append(out.read_bytes())
    quant_ok = qmodels[0] == qmodels[1]

    report(10, train_ok and quant_ok,
           f"repeated cmd_train byte-identical: {train_ok}; repeated "
           f"cmd_quantize byte-identical: {quant_ok}")
