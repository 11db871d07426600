import numpy as np
import pytest

from conftest import make_random_windows
from edgefit import model, platform_model, quantize
from edgefit.errors import CorruptFile, FewerThanTwoProfiles, InvalidConfig
from edgefit.platform_model import (
    BUILTIN_PROFILES,
    PlatformProfile,
    derive_metrics,
    host_bench,
    load_profiles,
    realtime_check,
    report_kv,
    report_table,
    speedup_table,
)

# published derived values for the six reference measurements:
# (throughput MMAC/s, MAC/cycle, energy mJ, efficiency GMAC/s/W)
REFERENCE_DERIVED = {
    "gap8@80MHz": (448.80, 5.610, 0.37, 8.220),
    "gap8@175MHz": (953.70, 5.450, 0.41, 7.372),
    "cortex-m4@60MHz": (26.60, 0.44, 5.39, 0.564),
    "cortex-m4@120MHz": (50.35, 0.42, 5.17, 0.588),
    "cortex-m7@108MHz": (73.05, 0.68, 7.74, 0.394),
    "cortex-m7@216MHz": (145.57, 0.67, 8.07, 0.376),
}


class TestDeriveMetrics:
    def test_unit_case(self):
        p = PlatformProfile("unit", clock_hz=1e6, power_mw=1.0,
                            time_per_inference_ms=1000.0, mac_count=10 ** 6)
        d = derive_metrics(p)
        assert d.throughput_mmacs == pytest.approx(1.0)
        assert d.mac_per_cycle == pytest.approx(1.0)
        assert d.energy_mj == pytest.approx(1.0)
        assert d.efficiency_gmacspw == pytest.approx(1.0)

    @pytest.mark.parametrize("profile", BUILTIN_PROFILES,
                             ids=[p.name for p in BUILTIN_PROFILES])
    def test_reference_rows_within_one_percent(self, profile):
        d = derive_metrics(profile)
        tp, mpc, e, eff = REFERENCE_DERIVED[profile.name]
        assert d.throughput_mmacs == pytest.approx(tp, rel=0.01)
        assert d.mac_per_cycle == pytest.approx(mpc, rel=0.01)
        assert d.energy_mj == pytest.approx(e, rel=0.01)
        assert d.efficiency_gmacspw == pytest.approx(eff, rel=0.01)

    def test_scale_consistency(self):
        base = PlatformProfile("a", 100e6, 50.0, 10.0, 10 ** 6)
        doubled = PlatformProfile("b", 200e6, 50.0, 5.0, 10 ** 6)
        assert derive_metrics(base).mac_per_cycle == pytest.approx(
            derive_metrics(doubled).mac_per_cycle)

    def test_energy_identity(self):
        # energy = mac_count / (efficiency * 1e6) when units line up
        for p in BUILTIN_PROFILES:
            d = derive_metrics(p)
            assert d.energy_mj == pytest.approx(
                p.mac_count / (d.efficiency_gmacspw * 1e6), rel=1e-9)

    def test_invalid_profile(self):
        with pytest.raises(InvalidConfig):
            derive_metrics(PlatformProfile("bad", 0, 1, 1, 1))


class TestSpeedupTable:
    def test_published_speedups(self):
        rep = speedup_table(list(BUILTIN_PROFILES), baseline="gap8@175MHz")
        ratios = {r.name: r.time_ratio for r in rep.rows}
        assert ratios["cortex-m4@120MHz"] == pytest.approx(18.9, rel=0.01)
        assert ratios["cortex-m7@216MHz"] == pytest.approx(6.5, rel=0.01)

    def test_default_baseline_is_fastest(self):
        rep = speedup_table(list(BUILTIN_PROFILES))
        assert rep.baseline == "gap8@175MHz"

    def test_self_ratio_is_one(self):
        p = BUILTIN_PROFILES[0]
        q = PlatformProfile("copy", p.clock_hz, p.power_mw,
                            p.time_per_inference_ms, p.mac_count)
        rep = speedup_table([p, q], baseline=p.name)
        assert rep.rows[0].time_ratio == pytest.approx(1.0)
        assert rep.rows[0].efficiency_ratio == pytest.approx(1.0)

    def test_too_few_profiles(self):
        with pytest.raises(FewerThanTwoProfiles):
            speedup_table([BUILTIN_PROFILES[0]])

    def test_unknown_baseline(self):
        with pytest.raises(InvalidConfig):
            speedup_table(list(BUILTIN_PROFILES), baseline="esp32")


class TestRealtimeCheck:
    def test_reference_latencies_all_feasible(self):
        for time_ms in (3.2, 60.36, 20.88):
            check = realtime_check(time_ms, 20, 20.0)
            assert check.budget_ms == pytest.approx(1000.0)
            assert check.feasible

    def test_margin(self):
        assert realtime_check(3.2, 20, 20.0).margin == pytest.approx(312.5)

    def test_infeasible(self):
        check = realtime_check(1200.0, 20, 20.0)
        assert not check.feasible
        assert check.margin < 1.0

    def test_positive_inputs_required(self):
        with pytest.raises(InvalidConfig):
            realtime_check(-1.0, 20, 20.0)


class TestHostBench:
    def test_float_path(self):
        m = model.build(model.ModelConfig(width=4), seed=0)
        result = host_bench(m, n_runs=15)
        assert result.median_ms > 0
        assert result.throughput_mmacs > 0
        assert result.mac_count == model.count_macs(m.config).total

    def test_quant_path_counts_same_macs(self):
        folded = model.fold_batchnorm(model.build(model.ModelConfig(width=4),
                                                  seed=0))
        stats = quantize.calibrate(folded, make_random_windows(16, seed=0))
        qm = quantize.quantize_model(folded, stats)
        fr = host_bench(folded, n_runs=12)
        qr = host_bench(qm, n_runs=12)
        assert fr.mac_count == qr.mac_count

    def test_consecutive_runs_stable(self):
        m = model.build(model.ModelConfig(width=8), seed=0)
        a = host_bench(m, n_runs=40)
        b = host_bench(m, n_runs=40)
        assert abs(a.median_ms - b.median_ms) / max(a.median_ms, b.median_ms) < 0.2

    def test_too_few_runs(self):
        m = model.build(model.ModelConfig(width=4), seed=0)
        with pytest.raises(InvalidConfig):
            host_bench(m, n_runs=5)


class TestProfileFile:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "name,clock_hz,power_mw,time_ms,mac_count\n"
            "gap8@175MHz,175000000,129.36,3.2,3051812\n"
            "cortex-m7@216MHz,216000000,386.73,20.88,3039408\n")
        profiles = load_profiles(path)
        assert len(profiles) == 2
        assert profiles[0].name == "gap8@175MHz"
        assert profiles[0].mac_count == 3_051_812

    def test_headerless(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,1e6,1.0,1000,1000000\ny,2e6,2.0,500,1000000\n")
        assert len(load_profiles(path)) == 2

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("name,clock_hz,power_mw,time_ms,mac_count\nx,1,2\n")
        with pytest.raises(CorruptFile):
            load_profiles(path)

    def test_missing(self, tmp_path):
        with pytest.raises(CorruptFile):
            load_profiles(tmp_path / "none.csv")


def test_report_formats():
    table = report_table(list(BUILTIN_PROFILES))
    assert "throughput [MMAC/s]" in table
    assert "953.69" in table   # 3,051,812 MAC / 3.2 ms
    kv = report_kv(list(BUILTIN_PROFILES))
    assert "gap8@175MHz.mac_per_cycle=5.4497" in kv
