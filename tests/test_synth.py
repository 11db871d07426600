import math
from pathlib import Path

import numpy as np
import pytest

from edgefit import cli, synth
from edgefit.dataset import (
    CHANNEL_NAMES,
    CLASS_NAMES,
    NUM_CHANNELS,
    NUM_CLASSES,
    RATE_HZ,
    SESSION_RANGE,
    SUBJECT_RANGE,
    load_recordings,
)
from edgefit.errors import InvalidConfig


def oracle_make_synthetic_dataset(out_dir, subjects=10, sessions=5,
                                  class_seconds=12.0, null_seconds=3.0,
                                  noise=0.3, seed=0) -> list[Path]:
    """Row-by-row writer: one f-string per value, one write per row.

    This was make_synthetic_dataset before it formatted whole segments; it
    draws the same random numbers in the same order.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    freqs = 0.5 + 0.27 * np.arange(NUM_CLASSES)
    amp = rng.uniform(0.4, 1.4, size=(NUM_CLASSES, NUM_CHANNELS))
    dc = rng.uniform(-1.2, 1.2, size=(NUM_CLASSES, NUM_CHANNELS))
    amp[0] = 0.0
    dc[0] = 0.0
    gain = 1.0 + 0.08 * rng.standard_normal((subjects + 1, NUM_CHANNELS))
    offset = 0.15 * rng.standard_normal((subjects + 1, NUM_CHANNELS))

    class_len = int(round(class_seconds * RATE_HZ))
    null_len = int(round(null_seconds * RATE_HZ))

    paths = []
    for subject in range(1, subjects + 1):
        for session in range(1, sessions + 1):
            order = rng.permutation(np.arange(1, NUM_CLASSES))
            segments = [(0, null_len)]
            for cls in order:
                segments.append((int(cls), class_len))
                segments.append((0, null_len))

            rows = []
            t = 0
            for cls, length in segments:
                steps = (t + np.arange(length)) / RATE_HZ
                phase = rng.uniform(0, 2 * np.pi)
                wave = np.sin(2 * np.pi * freqs[cls] * steps + phase)
                base = dc[cls][None, :] + amp[cls][None, :] * wave[:, None]
                sig = (gain[subject][None, :] * base
                       + offset[subject][None, :]
                       + noise * rng.standard_normal((length, NUM_CHANNELS)))
                for i in range(length):
                    rows.append(((t + i) / RATE_HZ, sig[i], cls))
                t += length

            path = out_dir / f"s{subject:02d}_sess{session}.csv"
            with open(path, "w") as f:
                f.write("timestamp," + ",".join(CHANNEL_NAMES)
                        + ",label,subject,session\n")
                for ts, sig, cls in rows:
                    values = ",".join(f"{v:.6f}" for v in sig)
                    f.write(f"{ts:.3f},{values},{CLASS_NAMES[cls]},"
                            f"{subject},{session}\n")
            paths.append(path)
    return paths


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err, error_type):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert error_type in lines[0]


def files_under(root):
    return sorted(p for p in Path(root).rglob("*") if p.is_file())


PARITY_CASES = {
    "conftest_set": dict(subjects=3, sessions=2, class_seconds=4.0,
                         null_seconds=1.5, seed=9),
    "fractional_class_seconds": dict(subjects=2, sessions=2,
                                     class_seconds=4.3, seed=3),
    "zero_class_seconds": dict(subjects=2, sessions=2, class_seconds=0.0),
    "zero_noise": dict(subjects=2, sessions=2, class_seconds=2.0,
                       noise=0.0, seed=5),
    "seed_0": dict(subjects=2, sessions=3, class_seconds=3.0, seed=0),
    "seed_7": dict(subjects=2, sessions=3, class_seconds=3.0, seed=7),
}


class TestOracleParity:
    @pytest.mark.parametrize("kwargs", PARITY_CASES.values(),
                             ids=PARITY_CASES.keys())
    def test_byte_identical_files(self, tmp_path, kwargs):
        got = synth.make_synthetic_dataset(tmp_path / "new", **kwargs)
        expected = oracle_make_synthetic_dataset(tmp_path / "old", **kwargs)
        assert [p.relative_to(tmp_path / "new") for p in got] == \
            [p.relative_to(tmp_path / "old") for p in expected]
        assert got == files_under(tmp_path / "new")
        for a, b in zip(got, expected):
            assert a.read_bytes() == b.read_bytes(), a.name


class TestArgumentRanges:
    def test_range_boundary_loads(self, tmp_path):
        subjects, sessions = SUBJECT_RANGE[1], SESSION_RANGE[1]
        paths = synth.make_synthetic_dataset(
            tmp_path, subjects=subjects, sessions=sessions,
            class_seconds=0.5, null_seconds=0.25)
        assert len(paths) == subjects * sessions
        recordings = load_recordings(tmp_path)
        assert sorted({(r.subject, r.session) for r in recordings}) == [
            (s, k) for s in range(1, subjects + 1)
            for k in range(1, sessions + 1)]

    @pytest.mark.parametrize("kwargs", [
        dict(subjects=SUBJECT_RANGE[0] - 1), dict(subjects=SUBJECT_RANGE[1] + 1),
        dict(sessions=SESSION_RANGE[0] - 1), dict(sessions=SESSION_RANGE[1] + 1),
        dict(class_seconds=-1.0), dict(class_seconds=math.nan),
        dict(null_seconds=-0.5), dict(null_seconds=math.inf),
        dict(null_seconds=1e300), dict(null_seconds=3600.05),
        dict(noise=-0.1), dict(noise=math.nan),
    ], ids=repr)
    def test_rejected_before_writing(self, tmp_path, kwargs):
        out = tmp_path / "data"
        with pytest.raises(InvalidConfig):
            synth.make_synthetic_dataset(out, **kwargs)
        assert not out.exists()


class TestCli:
    @pytest.mark.parametrize("flag, value", [
        ("--subjects", "-2"), ("--subjects", "0"), ("--subjects", "11"),
        ("--sessions", "0"), ("--sessions", "6"),
        ("--class-seconds", "-1"), ("--class-seconds", "nan"),
        ("--class-seconds", "inf"), ("--class-seconds", "1e300"),
        ("--class-seconds", "3600.05"),
    ])
    def test_bad_synth_argument_is_usage_error(self, capsys, tmp_path,
                                               flag, value):
        out = tmp_path / "data"
        code, _, err = run_cli(capsys, "synth", "--out", str(out),
                               flag, value)
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert not out.exists()

    def test_help_states_ranges(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["synth", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"{SUBJECT_RANGE[0]}-{SUBJECT_RANGE[1]}" in text
        assert f"{SESSION_RANGE[0]}-{SESSION_RANGE[1]}" in text

    @pytest.mark.parametrize("command", ["synth", "prepare"])
    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under_file"])
    def test_out_is_file_is_usage_error(self, capsys, tmp_path,
                                        synth_dataset_dir, command, under):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        out = afile / "sub" if under else afile
        args = ["--out", str(out)]
        if command == "synth":
            args += ["--subjects", "2", "--sessions", "1",
                     "--class-seconds", "0.5"]
        else:
            args += ["--dataset", str(synth_dataset_dir), "--fold", "1"]
        code, _, err = run_cli(capsys, command, *args)
        assert code == cli.EXIT_USAGE
        assert_one_error_line(err, "InvalidConfig")
        assert files_under(tmp_path) == [afile]
        assert afile.read_text() == "keep\n"
