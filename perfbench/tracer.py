"""Span tracing of edgefit's public functions, from outside the package.

The tracer replaces module attributes at run time. A function that another
module imported by value (``from .model import forward_batch`` in training
and quantize) is replaced wherever it appears, so every call site is seen.
Spans (name, start, end, parent) stay in memory until the run ends; self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

from edgefit import model

# Conv call order inside one model.forward_batch; names match count_macs.
CONV_SITES = ("stem", "b0.c0", "b0.c1", "b0.c2", "b1.c0", "b1.c1", "b1.c2",
              "b2.c0", "b2.c1", "b2.c2")


def _rows(args, result):
    return sum(len(r) for r in result)


def _bytes_out(args, result):
    return result.nbytes


def _batch(args, result):
    return args[1].shape[0]


def _conv_batch(args, result):
    return args[0].shape[0]


def _calib_windows(args, result):
    return len(args[1])


# (module, function, work counter or None, work metric name, work unit)
TRACED = (
    ("dataset", "load_recordings", _rows, "rows", "count"),
    ("dataset", "build_fold", None, None, None),
    ("dataset", "save_windows", None, None, None),
    ("dataset", "load_windows", None, None, None),
    ("training", "train_fold", None, None, None),
    ("training", "adam_step", None, None, None),
    ("training", "evaluate", None, None, None),
    ("training", "metrics_from_logits", None, None, None),
    ("model", "forward", None, None, None),
    ("model", "forward_batch", None, None, None),
    ("model", "fold_batchnorm", None, None, None),
    ("model", "save", None, None, None),
    ("model", "load", None, None, None),
    ("kernels", "im2col", _bytes_out, "bytes_out", "B"),
    ("kernels", "conv1d_same_batch", _conv_batch, None, None),
    ("kernels", "batchnorm_infer", None, None, None),
    ("kernels", "relu", None, None, None),
    ("kernels", "add", None, None, None),
    ("kernels", "dense_batch", None, None, None),
    ("kernels", "softmax", None, None, None),
    ("quantize", "calibrate", _calib_windows, "windows", "count"),
    ("quantize", "quantize_model", None, None, None),
    ("quantize", "check_quant_invariants", None, None, None),
    ("quantize", "save", None, None, None),
    ("quantize", "load", None, None, None),
    ("quantize", "qforward", None, None, None),
    ("quantize", "qforward_batch", _batch, "windows", "count"),
    ("quantize", "evaluate_quant", None, None, None),
)

MODULES = ("dataset", "training", "model", "kernels", "quantize")


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out: dict[str, tuple[str, str]] = {}
    for mod, fn, _, work, unit in TRACED:
        out[f"{mod}.{fn}.calls"] = ("count", "lower")
        out[f"{mod}.{fn}.self_s"] = ("s", "lower")
        if work:
            out[f"{mod}.{fn}.{work}"] = (unit, "lower" if unit == "B" else "higher")
    for name in ("kernels.conv1d_same_batch", "quantize.qforward_batch"):
        out[f"{name}.mmac_per_s"] = ("MMAC/s", "higher")
    for site in CONV_SITES:
        base = f"kernels.conv1d_same_batch.{site}"
        out[f"{base}.calls"] = ("count", "lower")
        out[f"{base}.self_s"] = ("s", "lower")
        out[f"{base}.mmac_per_s"] = ("MMAC/s", "higher")
    for mod in MODULES:
        out[f"trace.self_share.{mod}"] = ("fraction", "lower")
    out["trace.focus_wall_s"] = ("s", "lower")
    out["trace.traced_wall_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    out["trace.overhead_pct"] = ("%", "lower")
    return out


class Tracer:
    """Records spans around edgefit's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, work]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid][1:3] = start, end
            if counter is not None:
                spans[sid][4] = counter(args, result)
            return result
        return traced

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == "edgefit" or n.startswith("edgefit.")}
        for mod, fn, counter, _, _ in TRACED:
            original = getattr(mods[f"edgefit.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original, counter)
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    @contextmanager
    def stage(self, name: str):
        """A span for one benchmark stage, parent of the calls it makes."""
        sid = len(self.spans)
        self.spans.append([f"bench.{name}", 0.0, 0.0,
                           self._stack[-1] if self._stack else -1, 0])
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][1:3] = start, time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, f)

    def per_layer(self, config: model.ModelConfig, traced_wall_s: float,
                  untraced_wall_s: float, focus: tuple[str, ...] = ()
                  ) -> dict[str, float]:
        """Aggregate spans into the metrics named by per_layer_units().

        trace.self_share.<module> covers only spans inside the benchmark
        stages named in focus, the stages the workload repeats.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        conv_seen = [0] * len(spans)
        site_of = {}
        stages = {f"bench.{f}" for f in focus}
        in_focus = [False] * len(spans)
        for sid, (name, start, end, parent, _) in enumerate(spans):
            in_focus[sid] = name in stages or (parent >= 0 and in_focus[parent])
            if parent >= 0:
                child_time[parent] += end - start
                if (name == "kernels.conv1d_same_batch"
                        and spans[parent][0] == "model.forward_batch"):
                    idx = conv_seen[parent]
                    conv_seen[parent] += 1
                    if idx < len(CONV_SITES):
                        site_of[sid] = CONV_SITES[idx]

        macs = model.count_macs(config)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        focus_self: dict[str, float] = {}
        total_s: dict[str, float] = {}
        work: dict[str, float] = {}
        site_macs: dict[str, float] = {}

        def add(key, sid, n_work):
            name, start, end = spans[sid][:3]
            calls[key] = calls.get(key, 0) + 1
            own = (end - start) - child_time[sid]
            self_s[key] = self_s.get(key, 0.0) + own
            if in_focus[sid]:
                focus_self[key] = focus_self.get(key, 0.0) + own
            total_s[key] = total_s.get(key, 0.0) + (end - start)
            work[key] = work.get(key, 0) + n_work

        for sid, span in enumerate(spans):
            name, _, _, _, n_work = span
            add(name, sid, n_work)
            site = site_of.get(sid)
            if site is not None:
                key = f"{name}.{site}"
                add(key, sid, n_work)
                site_macs[key] = (site_macs.get(key, 0)
                                  + macs.per_layer[site] * n_work)

        # every conv call comes from forward_batch, so its site is known
        conv_macs = dict(site_macs)
        conv_macs["kernels.conv1d_same_batch"] = sum(site_macs.values())
        conv_macs["quantize.qforward_batch"] = (
            macs.total * work.get("quantize.qforward_batch", 0))

        out: dict[str, float] = {}
        for key in per_layer_units():
            if key.startswith("trace."):
                continue
            base, _, leaf = key.rpartition(".")
            if leaf == "calls":
                out[key] = calls.get(base, 0)
            elif leaf == "self_s":
                out[key] = self_s.get(base, 0.0)
            elif leaf == "mmac_per_s":
                seconds = total_s.get(base, 0.0)
                out[key] = conv_macs.get(base, 0) / seconds / 1e6 if seconds else 0.0
            else:
                out[key] = work.get(base, 0)
        focus_wall = sum(e - s for n, s, e, *_ in spans if n in stages)
        for mod in MODULES:
            share = sum(focus_self.get(f"{m}.{fn}", 0.0) for m, fn, *_ in TRACED
                        if m == mod)
            out[f"trace.self_share.{mod}"] = share / focus_wall if focus_wall else 0.0
        out["trace.focus_wall_s"] = focus_wall
        out["trace.traced_wall_s"] = traced_wall_s
        out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        out["trace.overhead_pct"] = 100.0 * (traced_wall_s / untraced_wall_s - 1.0)
        return out
