import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # channels near 1e10, beyond the grid's exact range: the %-template
    "huge_noise": dict(subjects=1, sessions=1, class_seconds=1.0,
                       noise=1e10, seed=2),
    # 1,136 s of rows: timestamps with four integer digits
    "four_digit_timestamps": dict(subjects=1, sessions=1,
                                  class_seconds=100.0),
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

    def test_huge_noise_takes_template_path(self, tmp_path, monkeypatch):
        calls = spy_template_rows(monkeypatch)
        synth.make_synthetic_dataset(tmp_path, **PARITY_CASES["huge_noise"])
        assert calls == [1]

    def test_default_set_takes_grid_path(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a block of the default set left the grid")
        monkeypatch.setattr(synth, "_template_rows", refuse)
        assert len(synth.make_synthetic_dataset(tmp_path)) == 50

    def test_blocks_mix_grid_and_template(self, tmp_path, monkeypatch):
        """Blocks of 60 rows, and a bound low enough that blocks holding a
        channel at or above 1.5 fall back: the file is still the oracle's.
        The first block is the first Null segment."""
        kwargs = dict(subjects=1, sessions=1, class_seconds=2.0,
                      null_seconds=3.0, seed=11)
        expected = oracle_make_synthetic_dataset(tmp_path / "old", **kwargs)
        monkeypatch.setattr(synth, "MAX_SEGMENT_ROWS", 60)
        monkeypatch.setattr(synth, "_EXACT_BOUND", 1.5e6)
        calls = spy_template_rows(monkeypatch)
        got = synth.make_synthetic_dataset(tmp_path / "new", **kwargs)
        blocks = -(-(11 * 40 + 12 * 60) // 60)
        assert 0 < len(calls) < blocks
        assert got[0].read_bytes() == expected[0].read_bytes()


def spy_template_rows(monkeypatch) -> list[int]:
    """Count calls of synth._template_rows, one entry per call."""
    calls = []
    template_rows = synth._template_rows

    def spy(*args):
        calls.append(1)
        return template_rows(*args)
    monkeypatch.setattr(synth, "_template_rows", spy)
    return calls


# SHA-256 over name, NUL and bytes of each file of the default set, in the
# order make_synthetic_dataset returns them; taken from the writer that
# applied one %-template per segment
DEFAULT_SET_DIGESTS = {
    0: "0e8a5d408a1e9f47ad2689278523fbc8d2ef1a6a2455d7f57dd5ef1accff24cf",
    4242: "160843e9ccf2496fa083d5781cb65244865ddb853729438efc057f009959318a",
}


@pytest.mark.parametrize("seed", DEFAULT_SET_DIGESTS)
def test_default_set_is_pinned(tmp_path, seed):
    paths = synth.make_synthetic_dataset(tmp_path, seed=seed)
    assert len(paths) == 50
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == DEFAULT_SET_DIGESTS[seed]


def grid_text(values, decimals, prefix=b""):
    words = synth._fixed_point_words(np.asarray(values, dtype=np.float64),
                                     decimals, prefix)
    text = np.moveaxis(words, 0, -1).tobytes()    # each value's words in turn
    return text.translate(None, b"\0").decode()


def percent_text(values, decimals, prefix=""):
    return "".join(prefix + "%.*f" % (decimals, v) for v in values)


def largest_exact(decimals):
    """The largest double x with x·10^decimals below the grid's bound."""
    x = synth._EXACT_BOUND / 10 ** decimals
    while x * 10.0 ** decimals >= synth._EXACT_BOUND:
        x = np.nextafter(x, 0.0)
    return float(x)


class TestFixedPointWords:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_random_doubles_match_percent(self, data):
        decimals = data.draw(st.sampled_from([3, 6]))
        bound = largest_exact(decimals)
        values = data.draw(st.lists(st.floats(-bound, bound), min_size=1,
                                    max_size=40))
        prefix = data.draw(st.sampled_from(["", ","]))
        assert grid_text(values, decimals, prefix.encode()) == \
            percent_text(values, decimals, prefix)

    @pytest.mark.parametrize("decimals, denominator", [(3, 16), (6, 128)])
    def test_ties_and_their_neighbours(self, decimals, denominator):
        # odd / denominator has one more decimal than decimals, a 5: a tie
        # that '%f' rounds half to even
        ties = (2 * np.arange(-2000, 2000) + 1) / denominator
        exact = ["%.*f" % (decimals + 1, t) for t in ties.tolist()]
        assert {text[-1] for text in exact} == {"5"}
        assert [float(text) for text in exact] == ties.tolist()
        for values in (ties, np.nextafter(ties, np.inf),
                       np.nextafter(ties, -np.inf)):
            assert grid_text(values, decimals) == \
                percent_text(values.tolist(), decimals)

    @pytest.mark.parametrize("value, decimals, text", [
        (-0.0, 6, "-0.000000"), (0.0, 6, "0.000000"),
        (-4e-7, 6, "-0.000000"), (-4e-4, 3, "-0.000"),
        (9.9999996, 6, "10.000000"), (-9.9999996, 6, "-10.000000"),
        (999.9999996, 6, "1000.000000"), (9.9996, 3, "10.000"),
        (999999.9996, 3, "1000000.000"), (1000.0, 3, "1000.000"),
        (0.0005, 3, "0.001"), (0.0025, 3, "0.003"), (2.5e-7, 6, "0.000000"),
    ])
    def test_hand_picked(self, value, decimals, text):
        assert "%.*f" % (decimals, value) == text
        assert grid_text([value], decimals) == text

    @pytest.mark.parametrize("decimals", [3, 6])
    def test_bound(self, decimals):
        below = largest_exact(decimals)
        values = [below, -below, np.nextafter(below, 0.0), below / 3]
        assert grid_text(values, decimals) == percent_text(values, decimals)
        for beyond in (np.nextafter(below, np.inf), -1e300, np.inf, np.nan):
            assert synth._fixed_point_words(np.array([1.0, beyond]),
                                            decimals) is None


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
        dict(noise=-0.1), dict(noise=math.nan), dict(noise=1e31),
        dict(noise=1e308),
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
        ("--null-seconds", "-1"), ("--null-seconds", "nan"),
        ("--null-seconds", "3600.05"),
        ("--noise", "-0.1"), ("--noise", "nan"), ("--noise", "inf"),
        ("--noise", "1e38"),
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
        assert text.count("0 to 3600") == 2
        assert f"--noise NOISE standard deviation of the white noise on " \
            f"every channel, 0 to {synth.MAX_NOISE:g}" in text

    def test_noise_and_null_seconds_reach_the_writer(self, capsys,
                                                     tmp_path):
        kwargs = dict(subjects=1, sessions=2, class_seconds=0.5,
                      null_seconds=0.25, noise=0.0, seed=3)
        code, out, _ = run_cli(
            capsys, "synth", "--out", str(tmp_path / "cli"),
            "--subjects", "1", "--sessions", "2", "--class-seconds", "0.5",
            "--null-seconds", "0.25", "--noise", "0", "--seed", "3")
        assert code == cli.EXIT_OK and "wrote 2 session files" in out
        expected = synth.make_synthetic_dataset(tmp_path / "api", **kwargs)
        got = files_under(tmp_path / "cli")
        assert [p.name for p in got] == [p.name for p in expected]
        for a, b in zip(got, expected):
            assert a.read_bytes() == b.read_bytes()

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
