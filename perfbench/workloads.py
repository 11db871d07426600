"""The train, pipeline and stream workloads, measured from outside edgefit.

Every workload walks the same user path: prepare (ingest, window, split),
train, quantize, evaluate, stream. Each one repeats a different stage for
the measured time and runs the others once, so that every workload reports
every end-to-end metric (README.md gives the reasons and the sizes). Stages
are ops: a raised error or a failed correctness check counts the op as
failed and the run goes on where it can.

Intervals are timed in process CPU time and turned into metrics at the end
of the run, rescaled to reference host speed by pace.Pace (see end_to_end). Run as a script, this module performs one cold set-up (see
set_up).
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from edgefit import dataset, kernels, model, quantize, synth, training
from pace import Pace, clock
from tracer import Tracer, per_layer_units

WORKLOADS = ("train", "pipeline", "stream")

# name -> (unit, better); the order is the order of the report
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "train.windows_per_s": ("windows/s", "higher"),
    "prepare.rows_per_s": ("rows/s", "higher"),
    "quantize_s": ("s", "lower"),
    "eval_float.windows_per_s": ("windows/s", "higher"),
    "eval_int8.windows_per_s": ("windows/s", "higher"),
    "stream.float.p50_ms": ("ms", "lower"),
    "stream.float.p99_ms": ("ms", "lower"),
    "stream.int8.p50_ms": ("ms", "lower"),
    "stream.int8.p99_ms": ("ms", "lower"),
}

# The one time the canary rescaling leaves alone: set-up runs in other
# processes, which the canary does not see.
UNSCALED = {"setup_s"}

HELD_OUT = 1               # the subject held out: fold 1
MAX_INT8_DROP = 0.04       # balanced-accuracy bound of acceptance criterion 6c
WARM_UP_STEPS = 5          # steps before timing; the first ones run slower
SETUP_REPS = 3             # cold set-ups, one process each
FLOAT_EVAL_REPEATS = 5     # float evaluation is short: take the median of 5
# Quantize runs (and in train and stream, evaluations): each of these
# metrics is a median of three samples.
PASSES = 3


@dataclass(frozen=True)
class Scale:
    """Input sizes. FULL is the benchmark; tests use a tiny one."""

    synth_args: tuple = ()          # extra make_synthetic_dataset arguments
    width: int = 52
    calib_windows: int = 512
    short_train_every: int = 4      # short training keeps every 4th window
    small_eval_windows: int = 128   # one evaluate_quant batch
    min_stream_windows: int = 1000  # each: 1 float call, 1 int8 call
    probe_windows: int = 16         # round-trip and float-entry checks


FULL = Scale()


class CheckFailed(Exception):
    """An output of edgefit is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Aborted(Exception):
    """A stage whose output later stages need has failed."""


class Run:
    """Counts ops, keeps timed intervals, opens stage spans when traced."""

    def __init__(self, pace: Pace, tracer: Tracer | None = None):
        self.attempted = 0
        self.failed = 0
        self.pace = pace
        self.tracer = tracer
        # metric -> [(start, end, work)]; work None for a duration metric
        self.intervals: dict[str, list[tuple[float, float, float | None]]] = {}

    @contextmanager
    def timed(self, metric: str, work: float | None = None):
        """Time the block as one sample of metric, with canaries around it and,
        at most every pace.MIN_GAP_S, after an im2col call inside it: every
        conv of the float and int8 paths runs one."""
        self.pace.tick()
        with _tap(kernels, "im2col", self.pace.maybe_tick):
            start = clock()
            yield
            end = clock()
        self.pace.tick()
        self.add(metric, start, end, work)

    def add(self, metric: str, start: float, end: float,
            work: float | None = None) -> None:
        self.intervals.setdefault(metric, []).append((start, end, work))

    def op(self, stage: str | None, fn, *args):
        """Run one op; returns its result, or None when it failed."""
        self.attempted += 1
        span = (self.tracer.stage(stage) if self.tracer and stage
                else nullcontext())
        try:
            with span:
                return fn(*args)
        except Exception:
            self.failed += 1
            print(f"op {stage or fn.__name__} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def need(self, stage: str, fn, *args):
        result = self.op(stage, fn, *args)
        if result is None:
            raise Aborted(stage)
        return result

    def values(self, metric: str, scaled: bool = True) -> list[float]:
        """Samples of metric: rates for work intervals, else seconds."""
        seconds = self.pace.work_s if scaled else self.pace.raw_s
        return [seconds(s, e) if w is None else w / seconds(s, e)
                for s, e, w in self.intervals.get(metric, [])]


@dataclass
class Env:
    scale: Scale
    config: model.ModelConfig
    seed: int
    data_dir: str
    work_dir: str
    threads: int


@contextmanager
def _tap(module, name: str, after):
    """Call after(result) each time module.name returns, while the block runs."""
    original = getattr(module, name)

    def tapped(*args, **kwargs):
        out = original(*args, **kwargs)
        after(out)
        return out

    setattr(module, name, tapped)
    try:
        yield
    finally:
        setattr(module, name, original)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def warm_up(config: model.ModelConfig, seed: int) -> None:
    """First BLAS calls and allocations of training steps and a forward."""
    params = model.build(config, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((64, config.in_channels, config.seq_len),
                            dtype=np.float32)
    targets = rng.integers(config.classes, size=64)
    hp = training.Hyperparams()
    state = training.init_adam(params)
    for _ in range(WARM_UP_STEPS):
        grads, _ = training.backward(params, x, targets,
                                     np.ones(64, dtype=np.float32))
        training.adam_step(params, grads, state, hp)
    model.forward(params, x[0])


def cold_set_up(spec: dict) -> float:
    """Generate the CSV dataset and warm up; returns the CPU seconds this
    process has used since it started, imports of numpy and edgefit included."""
    synth.make_synthetic_dataset(spec["data_dir"], seed=spec["seed"],
                                 **spec["synth_args"])
    warm_up(model.ModelConfig(width=spec["width"]), spec["seed"])
    return clock()


def set_up(run: Run, scale: Scale, seed: int, work_dir: str) -> str:
    """SETUP_REPS cold set-ups, each a setup_s sample; returns the data
    directory of the first.

    The first is this process's own: its CPU time up to the end of the
    set-up, interpreter start and imports included. The others run this
    module as a script in a fresh process each, so that every sample pays
    the one-off costs: interpreter start, imports, the first BLAS calls and
    allocations.
    """
    def spec(name: str) -> dict:
        return {"data_dir": os.path.join(work_dir, name), "seed": seed,
                "width": scale.width, "synth_args": dict(scale.synth_args)}

    first = spec("csv")
    run.add("setup_s", 0.0, cold_set_up(first))
    src = os.path.dirname(os.path.dirname(os.path.abspath(model.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for rep in range(1, SETUP_REPS):
        other = spec(f"csv{rep}")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), json.dumps(other)],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        run.add("setup_s", 0.0, float(proc.stdout.split()[-1]))
        shutil.rmtree(other["data_dir"])
    return first["data_dir"]


# ---------------------------------------------------------------------------
# stages; each times only the edgefit calls and checks afterwards
# ---------------------------------------------------------------------------

def _stack(windows):
    return np.stack([w.data for w in windows])


def prepare(run: Run, env: Env) -> dataset.DatasetSplit:
    """Ingest every CSV file, window and split fold HELD_OUT, then an EFW1
    round trip. Files load one call each so that canaries run between them;
    while windows are cut, canaries run after window labels."""
    path = os.path.join(env.work_dir, "fold.efw")
    files = sorted(glob.glob(os.path.join(env.data_dir, "*.csv")))
    recordings: list[dataset.Recording] = []
    run.pace.tick()
    start = clock()
    for f in files:
        recordings += dataset.load_recordings(f)
        run.pace.maybe_tick()
    with _tap(dataset, "label_window", run.pace.maybe_tick):
        split = dataset.build_fold(recordings, HELD_OUT, n_threads=env.threads)
    dataset.save_windows(path, split.train + split.test)
    loaded = dataset.load_windows(path)
    end = clock()
    run.pace.tick()

    def expected(test: bool) -> int:
        return sum(dataset.window_count(len(r), dataset.WINDOW_SIZE,
                                        dataset.RATE_HZ)
                   for r in recordings
                   if (r.subject == HELD_OUT) == test)

    check(len(split.train) == expected(False), "train window count")
    check(len(split.test) == expected(True), "test window count")
    written = split.train + split.test
    check(len(loaded) == len(written), "EFW1 round trip window count")
    check(np.array_equal(_stack(loaded), _stack(written))
          and [w.label for w in loaded] == [w.label for w in written],
          "EFW1 round trip changed windows")
    run.add("prepare.rows_per_s", start, end, sum(len(r) for r in recordings))
    return split


def train(run: Run, env: Env, split: dataset.DatasetSplit) -> model.ModelParams:
    """One epoch of train_fold at batch 64 with its validation pass. Each
    optimizer step is one train.windows_per_s sample: the time from the end
    of one adam_step to the end of the next, for batch_size windows, less
    the canary that may run between them."""
    hp = training.Hyperparams(epochs=1, patience=0)
    last = []

    def step_done(_):
        now = clock()
        if last:
            run.add("train.windows_per_s", last[-1], now, hp.batch_size)
        run.pace.maybe_tick()
        last.append(clock())

    with _tap(training, "adam_step", step_done):
        params, history = training.train_fold(split, env.config, hp, env.seed)
    losses = history.train_loss + history.val_loss
    check(bool(losses) and bool(np.all(np.isfinite(losses))),
          f"non-finite training loss {losses}")
    return params


def check_quant(params, loaded_params, qm, loaded_qm, probe) -> None:
    """Round trips give bit-identical logits; the int8 path stays integer."""
    check(np.array_equal(model.forward_batch(params, probe),
                         model.forward_batch(loaded_params, probe)),
          "EFM1 round trip changed logits")
    quantize.check_quant_invariants(loaded_qm)
    trace: list = []
    logits = quantize.qforward_batch(loaded_qm, probe, trace=trace)
    check(np.array_equal(quantize.qforward_batch(qm, probe), logits),
          "EFQ1 round trip changed logits")
    check(quantize.count_float_entries(trace) == 0,
          "float intermediates in the int8 path")


def quantize_stage(run: Run, env: Env, params: model.ModelParams,
                   split: dataset.DatasetSplit):
    """EFM1 round trip, BN folding, calibration, int8 model, EFQ1 round trip."""
    rng = np.random.default_rng(env.seed)
    size = min(env.scale.calib_windows, len(split.train))
    calib = [split.train[i]
             for i in sorted(rng.choice(len(split.train), size, replace=False))]
    efm = os.path.join(env.work_dir, "model.efm")
    efq = os.path.join(env.work_dir, "model.efq")
    with run.timed("quantize_s"):
        model.save(params, efm)
        loaded_params = model.load(efm)
        folded = model.fold_batchnorm(loaded_params)
        qm = quantize.quantize_model(folded, quantize.calibrate(folded, calib))
        quantize.check_quant_invariants(qm)
        quantize.save(qm, efq)
        loaded_qm = quantize.load(efq)
    probe = _stack(split.test[:env.scale.probe_windows])
    check_quant(params, loaded_params, qm, loaded_qm, probe)
    return folded, loaded_qm


def evaluate(run: Run, env: Env, folded, qm, windows):
    """FLOAT_EVAL_REPEATS float evaluations and one int8 evaluation; returns
    the batched logits they computed, which the stream stage checks
    single-window results against."""
    float_out: list[np.ndarray] = []
    int8_out: list[np.ndarray] = []

    n = len(windows)
    with _tap(training, "forward_batch", float_out.append), \
            _tap(quantize, "qforward_batch", int8_out.append):
        for _ in range(FLOAT_EVAL_REPEATS):
            float_out.clear()
            with run.timed("eval_float.windows_per_s", n):
                float_metrics = training.evaluate(folded, windows)
        with run.timed("eval_int8.windows_per_s", n):
            int8_metrics = quantize.evaluate_quant(qm, windows)
    drop = float_metrics.balanced_accuracy - int8_metrics.balanced_accuracy
    check(drop <= MAX_INT8_DROP,
          f"int8 balanced accuracy {drop * 100:.2f} points below float")
    return np.concatenate(float_out), np.concatenate(int8_out)


def stream(run: Run, folded, qm, windows, float_ref, int8_ref,
           min_calls: int, seconds: float) -> int:
    """One closed-loop caller: each window through the float path, then the
    int8 path, one window at a time, cycling over `windows`. The canary runs
    before every call and after the last, so that each call is rescaled by
    the host speed right around it. Returns the windows sent."""
    float_argmax = float_ref.argmax(axis=1)

    def one(k: int):
        x = windows[k].data
        run.pace.tick()
        t0 = clock()
        float_logits = model.forward(folded, x)
        t1 = clock()
        run.pace.tick()
        t2 = clock()
        int8_logits = quantize.qforward(qm, x)
        t3 = clock()
        check(int(float_logits.argmax()) == float_argmax[k],
              f"window {k}: float argmax differs from the batched one")
        run.add("stream.float", t0, t1)
        check(np.array_equal(int8_logits, int8_ref[k]),
              f"window {k}: int8 logits differ from the batched ones")
        run.add("stream.int8", t2, t3)
        return True

    sent = 0
    with run.tracer.stage("stream") if run.tracer else nullcontext():
        start = time.perf_counter()
        while sent < min_calls or time.perf_counter() - start < seconds:
            run.op(None, one, sent % len(windows))
            sent += 1
        run.pace.tick()
    return sent


# ---------------------------------------------------------------------------
# workloads. Each returns the counts of the work it sized by time, which a
# traced pass replays (`counts`); train and pipeline do fixed work.
# ---------------------------------------------------------------------------

def _short(split: dataset.DatasetSplit, every: int) -> dataset.DatasetSplit:
    return dataclasses.replace(split, train=split.train[::every])


def _quantize_eval(run: Run, env: Env, params, split, windows):
    """Quantize, then evaluate `windows`; returns the float model, the int8
    model and their batched float and int8 logits."""
    folded, qm = run.need("quantize", quantize_stage, run, env, params, split)
    return (folded, qm,
            *run.need("eval", evaluate, run, env, folded, qm, windows))


def run_train(run: Run, env: Env, seconds: float, counts: dict) -> dict:
    """Prepare; one full-fold epoch; three passes of quantize and evaluate
    128 held-out windows; stream 1,000 windows, cycling over those. The
    epoch count is fixed, not timed: one epoch takes about as long as the
    measured time (10-14 s on the reference host), so a timed count would
    flip between one and two with the host's speed."""
    split = run.need("prepare", prepare, run, env)
    params = run.need("train", train, run, env, split)
    windows = split.test[:env.scale.small_eval_windows]
    for _ in range(PASSES):
        folded, qm, float_ref, int8_ref = _quantize_eval(run, env, params,
                                                         split, windows)
    stream(run, folded, qm, windows, float_ref, int8_ref,
           env.scale.min_stream_windows, 0)
    return {}


def run_pipeline(run: Run, env: Env, seconds: float, counts: dict) -> dict:
    """Prepare, a short training run, quantize three times and evaluate all
    held-out windows; then stream 1,000 of them. The timed stages are fixed
    work that takes longer than the measured time (about 17 s on the
    reference host); a repeat until the time is up would flip between one
    pass and two with the host's speed."""
    split = run.need("prepare", prepare, run, env)
    params = run.need("train", train, run, env,
                      _short(split, env.scale.short_train_every))
    for _ in range(PASSES):
        folded, qm = run.need("quantize", quantize_stage, run, env, params,
                              split)
    float_ref, int8_ref = run.need("eval", evaluate, run, env, folded, qm,
                                   split.test)
    stream(run, folded, qm, split.test, float_ref, int8_ref,
           env.scale.min_stream_windows, 0)
    return {}


def run_stream(run: Run, env: Env, seconds: float, counts: dict) -> dict:
    """Prepare, a short training run, three passes of quantize and evaluate
    128 held-out windows; then stream those windows for the measured
    time."""
    split = run.need("prepare", prepare, run, env)
    params = run.need("train", train, run, env,
                      _short(split, env.scale.short_train_every))
    windows = split.test[:env.scale.small_eval_windows]
    for _ in range(PASSES):
        folded, qm, float_ref, int8_ref = _quantize_eval(run, env, params,
                                                         split, windows)
    replay = "windows" in counts
    sent = stream(run, folded, qm, windows, float_ref, int8_ref,
                  counts["windows"] if replay else env.scale.min_stream_windows,
                  0 if replay else seconds)
    return {"windows": sent}


FLOWS = {"train": run_train, "pipeline": run_pipeline, "stream": run_stream}
# the stages each workload repeats, whose time the module self shares split
FOCUS = {"train": ("train",), "pipeline": ("prepare", "quantize", "eval"),
         "stream": ("stream",)}


def end_to_end(run: Run, scaled: bool = True) -> dict[str, float]:
    """Sample medians, stream percentiles and peak memory. With scaled, the
    times are rescaled to reference host speed, except the UNSCALED ones."""
    out = {"peak_rss_mb":
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    for name in END_TO_END:
        values = run.values(name, scaled and name not in UNSCALED)
        if values:
            out[name] = statistics.median(values)
    for path in ("float", "int8"):
        name = f"stream.{path}"
        if len(run.intervals.get(name, [])) < 100:
            continue
        calls = run.values(name, scaled)
        out[f"{name}.p50_ms"] = statistics.median(calls) * 1e3
        out[f"{name}.p99_ms"] = statistics.quantiles(calls, n=100)[98] * 1e3
    return out


def execute(workload: str, seed: int, seconds: float, trace: bool,
            out_dir: str, threads: int, scale: Scale = FULL):
    """Set up, run the workload once untraced and, with trace, once more
    traced with the same op counts. Returns (result, details)."""
    config = model.ModelConfig(width=scale.width)
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    pace = Pace()
    runs = [Run(pace)]
    counts = None
    try:
        data_dir = set_up(runs[0], scale, seed, work_dir)
        env = Env(scale, config, seed, data_dir, work_dir, threads)
        start = time.perf_counter()
        try:
            counts = FLOWS[workload](runs[0], env, seconds, {})
        except Aborted as e:
            print(f"{workload}: stopped after stage {e} failed", file=sys.stderr)
        wall_s = time.perf_counter() - start
        metrics = end_to_end(runs[0])
        expected = END_TO_END
        if trace:
            expected = per_layer_units()
            metrics = {}
            if counts is not None:
                tracer = Tracer()
                runs.append(Run(pace, tracer))
                pace.span = lambda: tracer.stage("canary")
                tracer.install()
                try:
                    start = time.perf_counter()
                    FLOWS[workload](runs[1], env, seconds, counts)
                    traced_s = time.perf_counter() - start
                except Aborted as e:
                    print(f"{workload}: traced pass stopped after stage {e}",
                          file=sys.stderr)
                else:
                    metrics = tracer.per_layer(config, traced_s, wall_s,
                                               FOCUS[workload])
                finally:
                    tracer.uninstall()
                tracer.write(os.path.join(
                    out_dir, f"spans-{workload}-seed{seed}.json"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    complete = set(metrics) == set(expected) and all(
        np.isfinite(v) for v in metrics.values())
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": expected[name][0]}
                    for name in expected if name in metrics},
    }
    canary_ms = [c * 1e3 for _, _, c in pace.ticks]
    details = {"counts": counts, "wall_s": wall_s,
               "unscaled": end_to_end(runs[0], scaled=False),
               "canary_ms": {"ticks": len(canary_ms),
                             "median": statistics.median(canary_ms),
                             "quartiles": statistics.quantiles(canary_ms, n=4)}}
    return result, details


if __name__ == "__main__":
    # one cold set-up for set_up; prints its CPU seconds
    print(cold_set_up(json.loads(sys.argv[1])))
