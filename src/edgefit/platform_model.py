"""Analytical performance accounting for MCU inference profiles.

Measured quantities (clock, per-inference latency, power) are inputs; the
module derives throughput, MAC/cycle, energy per inference, and energy
efficiency from them, compares platforms, and can micro-benchmark the float
and integer inference paths on the build host. It ships reference profiles
for this network measured on three milliwatt-class MCU dev boards (a GAP8
RISC-V cluster and two STM32 Cortex-M parts), each at two clock settings.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import RATE_HZ, open_csv
from .errors import CorruptFile, FewerThanTwoProfiles, InvalidConfig
from . import kernels
from . import model as model_mod
from . import quantize as quantize_mod


@dataclass(frozen=True)
class PlatformProfile:
    name: str
    clock_hz: float
    power_mw: float
    time_per_inference_ms: float
    mac_count: int

    def validate(self) -> None:
        # a chained comparison, so NaN fails it as well
        if not all(0 < v < math.inf for v in (
                self.clock_hz, self.power_mw, self.time_per_inference_ms,
                self.mac_count)):
            raise InvalidConfig(f"profile '{self.name}' has non-positive or "
                                f"non-finite fields")


@dataclass(frozen=True)
class DerivedMetrics:
    throughput_mmacs: float      # MMAC/s
    mac_per_cycle: float
    energy_mj: float             # mJ per inference
    efficiency_gmacspw: float    # GMAC/s/W


GAP8_MACS = 3_051_812
CORTEX_MACS = 3_039_408

BUILTIN_PROFILES = (
    PlatformProfile("gap8@80MHz", 80e6, 54.60, 6.8, GAP8_MACS),
    PlatformProfile("gap8@175MHz", 175e6, 129.36, 3.2, GAP8_MACS),
    PlatformProfile("cortex-m4@60MHz", 60e6, 47.16, 114.25, CORTEX_MACS),
    PlatformProfile("cortex-m4@120MHz", 120e6, 85.67, 60.36, CORTEX_MACS),
    PlatformProfile("cortex-m7@108MHz", 108e6, 185.49, 41.74, CORTEX_MACS),
    PlatformProfile("cortex-m7@216MHz", 216e6, 386.73, 20.88, CORTEX_MACS),
)


def derive_metrics(p: PlatformProfile) -> DerivedMetrics:
    """The four identities: throughput = MAC/time, MAC/cycle =
    throughput/clock, energy = power*time, efficiency = throughput/power."""
    p.validate()
    time_s = p.time_per_inference_ms / 1e3
    macs_per_s = p.mac_count / time_s
    return DerivedMetrics(
        throughput_mmacs=macs_per_s / 1e6,
        mac_per_cycle=macs_per_s / p.clock_hz,
        energy_mj=p.power_mw * p.time_per_inference_ms / 1e3,
        efficiency_gmacspw=(macs_per_s / 1e9) / (p.power_mw / 1e3),
    )


@dataclass(frozen=True)
class SpeedupRow:
    name: str
    time_ratio: float            # profile time / baseline time
    efficiency_ratio: float      # baseline efficiency / profile efficiency


@dataclass
class SpeedupReport:
    baseline: str
    rows: list[SpeedupRow]

    def as_text(self) -> str:
        lines = [f"baseline: {self.baseline}",
                 f"{'platform':<20}{'time vs baseline':>18}{'eff. of baseline':>18}"]
        for r in self.rows:
            lines.append(f"{r.name:<20}{r.time_ratio:>16.2f}x"
                         f"{r.efficiency_ratio:>16.2f}x")
        return "\n".join(lines)

    def as_kv(self) -> str:
        lines = [f"baseline={self.baseline}"]
        for r in self.rows:
            lines.append(f"time_ratio.{r.name}={r.time_ratio:.6f}")
            lines.append(f"efficiency_ratio.{r.name}={r.efficiency_ratio:.6f}")
        return "\n".join(lines)


def speedup_table(profiles: list[PlatformProfile],
                  baseline: str | None = None) -> SpeedupReport:
    """Pairwise latency and efficiency ratios against a baseline profile
    (default: the fastest one)."""
    if len(profiles) < 2:
        raise FewerThanTwoProfiles(
            f"need at least 2 profiles, got {len(profiles)}")
    if baseline is None:
        base = min(profiles, key=lambda p: p.time_per_inference_ms)
    else:
        matches = [p for p in profiles if p.name == baseline]
        if not matches:
            raise InvalidConfig(f"no profile named '{baseline}'")
        base = matches[0]
    base_eff = derive_metrics(base).efficiency_gmacspw
    rows = [SpeedupRow(
        name=p.name,
        time_ratio=p.time_per_inference_ms / base.time_per_inference_ms,
        efficiency_ratio=base_eff / derive_metrics(p).efficiency_gmacspw,
    ) for p in profiles if p is not base]
    return SpeedupReport(baseline=base.name, rows=rows)


@dataclass(frozen=True)
class RealtimeCheck:
    feasible: bool
    margin: float                # budget / inference time
    budget_ms: float


def realtime_check(time_per_inference_ms: float, window_stride_samples: int
                   ) -> RealtimeCheck:
    """Can the platform keep up with one inference per window stride of
    samples arriving at dataset.RATE_HZ, the rate windowing assumes?"""
    if min(time_per_inference_ms, window_stride_samples) <= 0:
        raise InvalidConfig("realtime_check needs positive inputs")
    budget_ms = window_stride_samples / RATE_HZ * 1e3
    return RealtimeCheck(feasible=time_per_inference_ms < budget_ms,
                         margin=budget_ms / time_per_inference_ms,
                         budget_ms=budget_ms)


@dataclass(frozen=True)
class BenchResult:
    median_ms: float             # process CPU ms per inference
    spread_ms: float             # interquartile range
    throughput_mmacs: float
    mac_count: int
    n_runs: int

    def as_kv(self) -> str:
        return (f"median_ms={self.median_ms:.4f}\n"
                f"spread_ms={self.spread_ms:.4f}\n"
                f"throughput_mmacs={self.throughput_mmacs:.2f}\n"
                f"mac_count={self.mac_count}\n"
                f"n_runs={self.n_runs}")


WARM_UP_RUNS = 10


def host_bench(m, n_runs: int = 50, seed: int = 0) -> BenchResult:
    """Median per-inference process CPU time, in ms, of the float or
    integer path on this host, after WARM_UP_RUNS untimed calls (the first
    builds the integer path's plan). CPU time leaves out the time the
    process waits while other processes run, which made wall-clock medians
    of two consecutive runs differ by more than 20 %. Host numbers
    characterize the build machine, not any MCU.

    The runs sit inside one kernels.float_checked, not one per run:
    finite weights that overflow the float32 forward raise NonFiniteInput,
    with no numpy warning."""
    if n_runs < 10:
        raise InvalidConfig(f"n_runs must be >= 10, got {n_runs}")
    if isinstance(m, quantize_mod.QuantModel):
        run = lambda x: quantize_mod.qforward(m, x)
    elif isinstance(m, model_mod.ModelParams):
        run = lambda x: model_mod.forward(m, x)
    else:
        raise InvalidConfig(f"cannot benchmark object of type {type(m)!r}")
    cfg = m.config
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((cfg.in_channels, cfg.seq_len)).astype(np.float32)
    times = []
    with kernels.float_checked("forward"):
        for _ in range(WARM_UP_RUNS):
            run(x)
        for _ in range(n_runs):
            t0 = time.process_time()
            run(x)
            times.append((time.process_time() - t0) * 1e3)
    median = statistics.median(times)
    q = statistics.quantiles(times, n=4)
    macs = model_mod.count_macs(cfg).total
    return BenchResult(median_ms=median, spread_ms=q[2] - q[0],
                       throughput_mmacs=macs / (median / 1e3) / 1e6,
                       mac_count=macs, n_runs=n_runs)


def load_profiles(path: str | Path) -> list[PlatformProfile]:
    """Read profiles from delimited text: name, clock_hz, power_mw, time_ms,
    mac_count. The first non-blank row is a header, and skipped, when its
    clock field is not a number. Names must be unique and non-empty, and
    each MAC count integral."""
    path = Path(path)
    if not path.is_file():
        raise CorruptFile(f"profile file not found: {path}")
    try:
        with open_csv(path) as reader:
            rows = [(lineno, row) for lineno, row in enumerate(reader, start=1)
                    if any(map(str.strip, row))]
    except csv.Error as e:   # e.g. a field longer than csv's limit
        raise CorruptFile(f"{path}: {e}") from None
    if rows and not _is_number([*rows[0][1], ""][1]):
        del rows[0]   # header
    profiles = []
    first_line: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) != 5:
            raise CorruptFile(f"{path}:{lineno}: expected 5 fields, "
                              f"got {len(row)}")
        name = row[0].strip()
        try:
            if not name:
                raise ValueError("empty profile name")
            if name in first_line:
                raise ValueError(f"profile {name!r} repeats line "
                                 f"{first_line[name]}")
            macs = float(row[4])
            if macs != int(macs):   # int(inf) overflows, int(nan) raises
                raise ValueError(f"mac_count {row[4].strip()} is not an "
                                 f"integer")
            profiles.append(PlatformProfile(name, *map(float, row[1:4]),
                                            int(macs)))
        except (ValueError, OverflowError) as e:
            raise CorruptFile(f"{path}:{lineno}: {e}") from None
        first_line[name] = lineno
    if not profiles:
        raise CorruptFile(f"no profiles in {path}")
    return profiles


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _counted_macs() -> int:
    """model.count_macs at the default config, the network the profiles
    measured: 2,988,960, against their own 3,051,812 (GAP8) and 3,039,408
    (Cortex-M), which count the layers differently."""
    return model_mod.count_macs(model_mod.ModelConfig()).total


def report_table(profiles: list[PlatformProfile]) -> str:
    """Aligned text table: measured rows first, derived rows below; under
    each profile's MAC count, _counted_macs."""
    mets = [derive_metrics(p) for p in profiles]
    label_w = 26
    col_w = max(12, max(len(p.name) for p in profiles) + 2)

    def row(label, values):
        cells = "".join(f"{v:>{col_w}}" for v in values)
        return f"{label:<{label_w}}{cells}"

    lines = [
        row("platform", [p.name for p in profiles]),
        row("clock [MHz]", [f"{p.clock_hz / 1e6:.0f}" for p in profiles]),
        row("MAC", [f"{p.mac_count:,}" for p in profiles]),
        row("MAC (count_macs)", [f"{_counted_macs():,}"] * len(profiles)),
        row("time/inference [ms]",
            [f"{p.time_per_inference_ms:.2f}" for p in profiles]),
        row("power [mW]", [f"{p.power_mw:.2f}" for p in profiles]),
        row("throughput [MMAC/s]", [f"{d.throughput_mmacs:.2f}" for d in mets]),
        row("MAC/cycle", [f"{d.mac_per_cycle:.3f}" for d in mets]),
        row("energy/inference [mJ]", [f"{d.energy_mj:.3f}" for d in mets]),
        row("efficiency [GMAC/s/W]",
            [f"{d.efficiency_gmacspw:.3f}" for d in mets]),
    ]
    return "\n".join(lines)


def report_kv(profiles: list[PlatformProfile]) -> str:
    """report_table's figures as key=value lines."""
    lines = [f"count_macs.total={_counted_macs()}"]
    for p in profiles:
        d = derive_metrics(p)
        lines += [
            f"{p.name}.clock_hz={p.clock_hz:.0f}",
            f"{p.name}.mac_count={p.mac_count}",
            f"{p.name}.time_ms={p.time_per_inference_ms}",
            f"{p.name}.power_mw={p.power_mw}",
            f"{p.name}.throughput_mmacs={d.throughput_mmacs:.4f}",
            f"{p.name}.mac_per_cycle={d.mac_per_cycle:.4f}",
            f"{p.name}.energy_mj={d.energy_mj:.4f}",
            f"{p.name}.efficiency_gmacspw={d.efficiency_gmacspw:.4f}",
        ]
    return "\n".join(lines)
