"""Tests of the benchmark itself, on a tiny dataset and model.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from edgefit import model, quantize, training  # noqa: E402

TINY = workloads.Scale(
    synth_args=(("subjects", 3), ("sessions", 2), ("class_seconds", 8.0),
                ("null_seconds", 1.5)),
    width=8, calib_windows=32, short_train_every=1, small_eval_windows=32,
    min_stream_windows=100, probe_windows=4)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_lists_what_the_code_reports():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert units("end_to_end") == {k: u for k, (u, _) in
                                   workloads.END_TO_END.items()}
    assert units("per_layer") == {k: u for k, (u, _) in
                                  tracer.per_layer_units().items()}
    assert {m["name"]: m["better"] for m in BENCH["end_to_end"]} == {
        k: b for k, (_, b) in workloads.END_TO_END.items()}
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result, details = workloads.execute(workload, 3, 0, trace, str(tmp_path),
                                        1, TINY)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= TINY.min_stream_windows
    expected = units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if trace:
        assert (tmp_path / f"spans-{workload}-seed3.json").is_file()
        assert values["quantize.qforward_batch.windows"] > 0
        for site in tracer.CONV_SITES:
            assert values[f"kernels.conv1d_same_batch.{site}.calls"] > 0
    else:
        assert all(v > 0 for v in values.values())
    assert not any(p.is_dir() for p in tmp_path.iterdir())   # scratch removed


def test_broken_quant_model_counts_as_failed_op(tmp_path, monkeypatch):
    original = quantize.quantize_model

    def broken(folded, stats):
        qm = original(folded, stats)
        qm.stem.m0[0] = 1 << 29            # outside [2^30, 2^31)
        return qm

    monkeypatch.setattr(quantize, "quantize_model", broken)
    result, _ = workloads.execute("stream", 3, 0, False, str(tmp_path), 1, TINY)
    assert result["failed"] >= 1
    assert not result["correct"]


def test_failed_check_does_not_raise():
    run = workloads.Run(pace.Pace())
    assert run.op("x", workloads.check, False, "deliberate") is None
    assert (run.attempted, run.failed) == (1, 1)
    with pytest.raises(workloads.Aborted):
        run.need("x", workloads.check, False, "deliberate")


def test_pace_rescales_to_reference_speed_without_canary_time():
    p = pace.Pace()
    slow = 2 * pace.REF_S
    # a host at half the reference speed; one canary tick inside the interval
    p.ticks = [(0.0, 0.1, slow), (1.0, 1.1, slow), (2.0, 2.1, slow)]
    assert p.raw_s(0.1, 2.0) == pytest.approx(1.8)
    assert p.work_s(0.1, 2.0) == pytest.approx(0.9)


def test_tracer_patches_every_binding_and_restores_them():
    before = model.forward_batch
    t = tracer.Tracer()
    t.install()
    try:
        assert training.forward_batch is model.forward_batch
        assert quantize.forward_batch is model.forward_batch
        assert model.forward_batch is not before
        cfg = model.ModelConfig(width=8)
        m = model.build(cfg, 0)
        x = np.zeros((2, cfg.in_channels, cfg.seq_len), dtype=np.float32)
        model.forward_batch(m, x)
    finally:
        t.uninstall()
    assert model.forward_batch is before
    assert quantize.forward_batch is before
    metrics = t.per_layer(cfg, 1.0, 1.0)
    macs = model.count_macs(cfg)
    for site in tracer.CONV_SITES:
        assert metrics[f"kernels.conv1d_same_batch.{site}.calls"] == 1
    assert metrics["kernels.conv1d_same_batch.calls"] == len(tracer.CONV_SITES)
    conv_s = sum(s[2] - s[1] for s in t.spans
                 if s[0] == "kernels.conv1d_same_batch")
    conv_macs = 2 * sum(macs.per_layer[s] for s in tracer.CONV_SITES)
    assert metrics["kernels.conv1d_same_batch.mmac_per_s"] == pytest.approx(
        conv_macs / conv_s / 1e6)
    (fb,) = [s for s in t.spans if s[0] == "model.forward_batch"]
    children = sum(s[2] - s[1] for s in t.spans if s[3] == t.spans.index(fb))
    assert metrics["model.forward_batch.self_s"] == pytest.approx(
        fb[2] - fb[1] - children)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
