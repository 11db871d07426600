"""Command-line entry point: prepare, train, quantize, eval, bench, report,
and synth subcommands over the full pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical-contract
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataset, model, platform_model, quantize, synth, training
from .errors import (
    DataError,
    EdgefitError,
    InvalidConfig,
    NumericalContractError,
    ShapeMismatch,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _sniff_model(path: str):
    """Load an int8 model file of any version (magic EFQ*) as one, so that
    an old version is named as such, and any other file as a float model."""
    p = Path(path)
    if p.is_file():
        with open(p, "rb") as f:
            if f.read(3) == quantize.QUANT_MAGIC[:3]:
                return quantize.load(p)
    return model.load(p)


def _output_file(flag: str, path: str) -> str:
    """path, once a file can be created there: InvalidConfig when it is a
    directory or its directory does not exist. Commands check their
    outputs before they load or write anything."""
    p = Path(path)
    if p.is_dir() or not p.parent.is_dir():
        raise InvalidConfig(f"{flag} {path} is a directory or lies in no "
                            f"existing directory")
    return path


def cmd_prepare(args) -> int:
    try:
        fold = None if args.fold == "all" else int(args.fold)
    except ValueError:
        raise InvalidConfig(f"--fold must be a subject id or 'all', "
                            f"got {args.fold!r}") from None
    recordings = dataset.load_recordings(args.dataset)
    subjects = sorted({r.subject for r in recordings})
    if fold is not None and fold not in subjects:
        raise InvalidConfig(f"no subject {fold} in {args.dataset}")
    if args.stride < 1:
        raise InvalidConfig(f"--stride must be >= 1, got {args.stride}")
    folds = subjects if fold is None else [fold]
    out = dataset.make_out_dir(args.out)
    manifest = {"stride": args.stride, "window_size": dataset.WINDOW_SIZE,
                "folds": []}
    for k in folds:
        split = dataset.build_fold(recordings, k, stride=args.stride)
        path = out / f"windows_fold{k}.efw"
        dataset.save_windows(path, split.train + split.test)
        manifest["folds"].append({
            "held_out_subject": k,
            "windows_file": path.name,
            "train_windows": len(split.train),
            "test_windows": len(split.test),
        })
        print(f"fold {k}: {len(split.train)} train / {len(split.test)} test "
              f"windows -> {path}")
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)
    return EXIT_OK


def cmd_train(args) -> int:
    _output_file("--out", args.out)
    history_path = _output_file("--history", args.history or str(
        Path(args.out).with_suffix(".history.csv")))
    windows = dataset.load_windows(args.windows)
    split = dataset.fold_split(windows, args.fold)
    config = model.ModelConfig(width=args.width)
    patience = min(100, args.epochs) if args.patience is None else args.patience
    hp = training.Hyperparams(epochs=args.epochs, patience=patience,
                              batch_size=args.batch_size)
    params, history = training.train_fold(split, config, hp, args.seed)
    model.save(params, args.out)
    history.to_csv(history_path)
    best = history.best_epoch
    print(f"trained fold {args.fold}: {len(history.train_loss)} epochs, "
          f"best epoch {best} (val_loss {history.val_loss[best - 1]:.4f}, "
          f"val_bacc {history.val_balanced_accuracy[best - 1]:.4f})")
    print(f"step time {np.mean(history.step_ms):.1f} ms "
          f"(process CPU per optimizer step, mean over epochs)")
    print(f"model -> {args.out}")
    print(f"history -> {history_path}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    if args.calib_size < 1:
        raise InvalidConfig(
            f"--calib-size must be >= 1, got {args.calib_size}")
    _output_file("--out", args.out)
    m = model.load(args.model)
    windows = dataset.load_windows(args.windows)
    calib_pool = (windows if args.fold is None
                  else dataset.fold_split(windows, args.fold).train)
    if not calib_pool:
        raise InvalidConfig("no calibration windows after fold exclusion")
    rng = np.random.default_rng(args.seed)
    size = min(args.calib_size, len(calib_pool))
    idx = rng.choice(len(calib_pool), size=size, replace=False)
    calib = [calib_pool[i] for i in sorted(idx)]
    folded = model.fold_batchnorm(m)
    stats = quantize.calibrate(folded, calib)
    qm = quantize.quantize_model(folded, stats)
    quantize.save(qm, args.out)
    print(f"calibrated on {size} windows; quantized model -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    m = _sniff_model(args.model)
    windows = dataset.load_windows(args.windows)
    if args.fold is not None:
        windows = dataset.fold_split(windows, args.fold).test
    if isinstance(m, quantize.QuantModel):
        metrics = quantize.evaluate_quant(m, windows)
    else:
        metrics = training.evaluate(m, windows)
    print(metrics.as_kv() if args.format == "kv" else metrics.as_text())
    return EXIT_OK


def cmd_bench(args) -> int:
    m = _sniff_model(args.model)
    result = platform_model.host_bench(m, n_runs=args.runs, seed=args.seed)
    report = model.count_macs(m.config)
    if args.format == "kv":
        print(result.as_kv())
        print(report.as_kv())
    else:
        kind = "integer" if isinstance(m, quantize.QuantModel) else "float"
        print(f"{kind} path: median {result.median_ms:.3f} CPU ms/inference "
              f"(IQR {result.spread_ms:.3f} ms) over {result.n_runs} runs")
        print(f"host throughput: {result.throughput_mmacs:.1f} MMAC/s")
        print()
        print(report.as_text())
    return EXIT_OK


def cmd_report(args) -> int:
    if args.stride < 1:
        raise InvalidConfig(f"--stride must be >= 1, got {args.stride}")
    if args.profiles:
        profiles = platform_model.load_profiles(args.profiles)
    else:
        profiles = list(platform_model.BUILTIN_PROFILES)
    if args.baseline is not None and all(p.name != args.baseline
                                         for p in profiles):
        raise InvalidConfig(f"no profile named '{args.baseline}'")
    if args.format == "kv":
        print(platform_model.report_kv(profiles))
    else:
        print(platform_model.report_table(profiles))
    if len(profiles) >= 2:
        speedups = platform_model.speedup_table(profiles, baseline=args.baseline)
        print()
        print(speedups.as_kv() if args.format == "kv" else speedups.as_text())
    budget = platform_model.realtime_check(
        max(p.time_per_inference_ms for p in profiles), args.stride)
    print()
    print(f"realtime @ 20 Hz, stride {args.stride}: budget {budget.budget_ms:.0f} ms, "
          f"slowest platform {'feasible' if budget.feasible else 'INFEASIBLE'} "
          f"(margin {budget.margin:.1f}x)")
    return EXIT_OK


def cmd_synth(args) -> int:
    paths = synth.make_synthetic_dataset(
        args.out, subjects=args.subjects, sessions=args.sessions,
        class_seconds=args.class_seconds, seed=args.seed)
    print(f"wrote {len(paths)} session files under {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="edgefit",
                     description="Train, quantize, and profile the workout-"
                                 "recognition CNN.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest CSVs, window, and split")
    p.add_argument("--dataset", required=True, help="CSV file or directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--stride", type=int, default=20)
    p.add_argument("--fold", default="all",
                   help="held-out subject id, or 'all' for every fold")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train one leave-one-user-out fold")
    p.add_argument("--windows", required=True, help="window container file")
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--width", type=int, default=52)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--patience", type=int, help="default min(100, --epochs)")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", default=None, help="history CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="fold BN, calibrate, quantize")
    p.add_argument("--model", required=True)
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fold", type=int, default=None,
                   help="exclude this subject from calibration")
    p.add_argument("--calib-size", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("eval", help="evaluate a float or quantized model")
    p.add_argument("--model", required=True, help="EFM2 or EFQ3 file")
    p.add_argument("--windows", required=True)
    p.add_argument("--fold", type=int, default=None,
                   help="evaluate only this subject's windows")
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="micro-benchmark inference on this host "
                                      "in process CPU time")
    p.add_argument("--model", required=True)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="derived platform metrics and speedups")
    p.add_argument("--profiles", default=None,
                   help="CSV of name,clock_hz,power_mw,time_ms,mac_count "
                        "(default: built-in reference profiles)")
    p.add_argument("--baseline", default=None)
    p.add_argument("--stride", type=int, default=20)
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic CSV dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--subjects", type=int, default=10,
                   help="subjects %d-%d (default 10)" % dataset.SUBJECT_RANGE)
    p.add_argument("--sessions", type=int, default=5,
                   help="sessions per subject %d-%d (default 5)"
                        % dataset.SESSION_RANGE)
    p.add_argument("--class-seconds", type=float, default=12.0,
                   help="seconds per exercise segment, finite and >= 0 "
                        "(default 12)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # train, quantize, bench and synth seed np.random.default_rng with it
        if getattr(args, "seed", 0) < 0:
            raise InvalidConfig(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except DataError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalContractError, ShapeMismatch) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except InvalidConfig as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE
    except EdgefitError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
