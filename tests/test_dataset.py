import csv
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgefit import dataset
from edgefit.dataset import (
    NormStats,
    Recording,
    Window,
    build_fold,
    compute_norm_stats,
    fold_split,
    label_window,
    load_recordings,
    load_windows,
    resolve_columns,
    save_windows,
    segment_windows,
    window_count,
    window_weight,
)
from edgefit.errors import (
    CorruptFile,
    EmptyDataset,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    UnseenLabel,
    VersionMismatch,
)

HEADER = ("timestamp,acc_x,acc_y,acc_z,gyro_x,gyro_y,gyro_z,hbc,"
          "label,subject,session\n")


def write_csv(path, rows):
    with open(path, "w") as f:
        f.write(HEADER)
        for r in rows:
            f.write(",".join(str(v) for v in r) + "\n")


def row(ts, label=0, subject=1, session=1, value=0.5):
    return [ts] + [value] * 7 + [label, subject, session]


def make_recording(values, subject=1, session=1, labels=None):
    """Recording whose 7 channels all carry `values`."""
    n = len(values)
    data = np.tile(np.asarray(values, dtype=np.float32)[:, None], (1, 7))
    return Recording(
        subject=subject, session=session,
        timestamps=np.arange(n, dtype=np.float64) / 20.0,
        data=data,
        labels=np.asarray(labels if labels is not None else [0] * n,
                          dtype=np.int16),
    )


class TestLoadRecordings:
    def test_single_group(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [row(0.0), row(0.05), row(0.10)])
        recs = load_recordings(path)
        assert len(recs) == 1
        assert len(recs[0]) == 3
        assert recs[0].subject == 1 and recs[0].session == 1

    def test_two_subjects_two_recordings(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [row(0.0, subject=1), row(0.0, subject=2),
                         row(0.05, subject=1)])
        recs = load_recordings(path)
        assert len(recs) == 2
        assert [r.subject for r in recs] == [1, 2]
        assert [len(r) for r in recs] == [2, 1]

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [row(0.0), row(0.05, label=13)])
        with pytest.raises(MalformedRow) as exc:
            load_recordings(path)
        assert exc.value.index == 3   # line number: header is line 1

    def test_label_names(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [row(0.0, label="Squat"), row(0.05, label="Null")])
        recs = load_recordings(path)
        assert recs[0].labels.tolist() == [9, 0]

    def test_unknown_label_name(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [row(0.0, label="Yoga")])
        with pytest.raises(MalformedRow):
            load_recordings(path)

    def test_bad_float(self, tmp_path):
        path = tmp_path / "a.csv"
        with open(path, "w") as f:
            f.write(HEADER)
            f.write("0.0,x,0,0,0,0,0,0,0,1,1\n")
        with pytest.raises(MalformedRow):
            load_recordings(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "a.csv"
        with open(path, "w") as f:
            f.write("timestamp,acc_x\n0.0,1.0\n")
        with pytest.raises(MissingColumn):
            load_recordings(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "a.csv"
        with open(path, "w") as f:
            f.write(HEADER)
        with pytest.raises(EmptyDataset):
            load_recordings(path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_recordings(tmp_path / "nope")

    def test_byte_order_mark_is_skipped(self, synth_dataset_dir, tmp_path):
        """Files that start with a UTF-8 byte-order mark, as Excel's "CSV
        UTF-8" export writes them, load to the unmarked files' recordings."""
        for f in synth_dataset_dir.glob("*.csv"):
            (tmp_path / f.name).write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
        assert_same_recordings(load_recordings(tmp_path),
                               load_recordings(synth_dataset_dir))

    def test_duplicate_timestamp(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [row(0.0), row(0.0)])
        with pytest.raises(MalformedRow) as exc:
            load_recordings(path)
        assert exc.value.index == 3
        assert exc.value.path == str(path)

    def test_duplicate_timestamp_across_files(self, tmp_path):
        # merged group: a:2 (0.0), a:3 (0.05), b:3 (0.05), b:2 (0.10);
        # b.csv line 3 is the first row not after its predecessor
        write_csv(tmp_path / "a.csv", [row(0.0), row(0.05)])
        write_csv(tmp_path / "b.csv", [row(0.10), row(0.05)])
        with pytest.raises(MalformedRow) as exc:
            load_recordings(tmp_path)
        assert exc.value.index == 3
        assert exc.value.path == str(tmp_path / "b.csv")
        assert "subject 1 session 1" in exc.value.reason

    def test_row_without_label_subject_session(self, tmp_path):
        path = tmp_path / "a.csv"
        with open(path, "w") as f:
            f.write(HEADER)
            f.write("0.0,1,2,3,4,5,6,7,0,1,1\n")
            f.write("0.05,1,2,3,4,5,6,7\n")
        with pytest.raises(MalformedRow) as exc:
            load_recordings(path)
        assert exc.value.index == 3
        assert exc.value.path == str(path)

    @pytest.mark.parametrize("missing", ["subject", "session"])
    def test_row_without_subject_or_session(self, tmp_path, missing):
        path = tmp_path / "a.csv"
        fields = "0.0,1,2,3,4,5,6,7,0" + (",1" if missing == "session" else "")
        with open(path, "w") as f:
            f.write(HEADER + fields + "\n")
        with pytest.raises(MalformedRow) as exc:
            load_recordings(path)
        assert (exc.value.index, exc.value.reason) == (2, f"{missing} field "
                                                          "missing")

    @pytest.mark.parametrize("bad, reason", [
        ('0.15,1,2,3,4,5,6,7,13,1,1,"x\ny"', "label 13 outside [0, 11]"),
        ('0.0,1,2,3,4,5,6,7,0,1,1,"x\ny"', "timestamps not strictly "
                                             "increasing for subject 1 "
                                             "session 1")])
    def test_line_is_where_the_record_starts(self, tmp_path, bad, reason):
        # a quoted note on line 3 runs on to line 4, and a blank line 5 and
        # a whitespace-only record on line 6 are skipped, so the bad record
        # after them starts on physical line 7, not the file's fourth
        # record, and ends on line 8, with LF or CRLF line endings
        text = (HEADER.rstrip("\n") + ",note\n"
                "0.0,1,2,3,4,5,6,7,0,1,1,x\n"
                '0.05,1,2,3,4,5,6,7,0,1,1,"two\nlines"\n'
                "\n , ,\n" + bad + "\n")
        for name, eol in (("lf", "\n"), ("crlf", "\r\n")):
            path = tmp_path / f"{name}.csv"
            with open(path, "w", newline="") as f:
                f.write(text.replace("\n", eol))
            with pytest.raises(MalformedRow) as exc:
                load_recordings(path)
            assert (exc.value.index, exc.value.reason) == (7, reason)

    def test_stalled_line_after_empty_lines(self, tmp_path, monkeypatch):
        # only empty lines 3 and 4 lie between the first record and its
        # duplicate, so the file needs no per-record walk, and the line of
        # the duplicate comes from its ordinal among the converted records
        def no_walk(f, idx):
            raise AssertionError(f"{f} took the per-record walk")

        monkeypatch.setattr(dataset, "_walk", no_walk)
        text = HEADER + "0.0,1,2,3,4,5,6,7,0,1,1\n\n\n0.0,1,2,3,4,5,6,7,0,1,1\n"
        for name, eol in (("lf", "\n"), ("crlf", "\r\n")):
            path = tmp_path / f"{name}.csv"
            with open(path, "w", newline="") as f:
                f.write(text.replace("\n", eol))
            with pytest.raises(MalformedRow) as exc:
                load_recordings(path)
            assert (exc.value.index, exc.value.reason) == (
                5, "timestamps not strictly increasing for subject 1 "
                   "session 1")

    def test_directory_merges_files(self, tmp_path):
        write_csv(tmp_path / "a.csv", [row(0.0)])
        write_csv(tmp_path / "b.csv", [row(0.05)])
        recs = load_recordings(tmp_path)
        assert len(recs) == 1 and len(recs[0]) == 2


class TestLinesOnlyForErrors:
    """load_recordings reads a file record by record, through
    _numbered_rows, only when an error names a physical line."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        numbered_rows = dataset._numbered_rows

        def counting(f):
            calls.append(f)
            return numbered_rows(f)

        monkeypatch.setattr(dataset, "_numbered_rows", counting)
        return calls

    def test_success_reads_no_lines(self, synth_dataset_dir, calls):
        load_recordings(synth_dataset_dir)
        assert calls == []

    @pytest.mark.parametrize("bad", [row(0.10, label=13), row(0.0)])
    def test_error_reads_lines_of_one_file_once(self, tmp_path, calls, bad):
        write_csv(tmp_path / "a.csv", [row(0.0, session=2)])
        path = tmp_path / "b.csv"
        write_csv(path, [row(0.0), row(0.05), bad])
        with pytest.raises(MalformedRow) as exc:
            load_recordings(tmp_path)
        assert (exc.value.index, exc.value.path) == (4, str(path))
        assert calls == [path]


class TestNormStats:
    def test_constant_channel_floor(self):
        rec = make_recording([1.0, 1.0, 1.0])
        stats = compute_norm_stats([rec])
        np.testing.assert_allclose(stats.mean, np.ones(7))
        np.testing.assert_allclose(stats.std, np.full(7, dataset.STD_FLOOR))

    def test_population_std(self):
        # population std of [0, 2] is 1 (not the sample value sqrt(2))
        rec = make_recording([0.0, 2.0])
        stats = compute_norm_stats([rec])
        np.testing.assert_allclose(stats.mean, np.ones(7))
        np.testing.assert_allclose(stats.std, np.ones(7))

    def test_concatenation_equivalence(self, rng):
        a = make_recording(rng.standard_normal(30), session=1)
        b = make_recording(rng.standard_normal(50), session=2)
        both = make_recording(np.concatenate([a.data[:, 0], b.data[:, 0]]))
        split = compute_norm_stats([a, b])
        merged = compute_norm_stats([both])
        np.testing.assert_allclose(split.mean, merged.mean)
        np.testing.assert_allclose(split.std, merged.std)

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            compute_norm_stats([])


class TestSegmentWindows:
    def test_count_example(self, rng):
        rec = make_recording(rng.standard_normal(100))
        stats = compute_norm_stats([rec])
        data, labels = segment_windows(rec, stats, 20)
        assert data.shape == (4, 7, 40) and labels.shape == (4, 40)

    def test_too_short(self, rng):
        rec = make_recording(rng.standard_normal(39))
        stats = compute_norm_stats([rec])
        data, labels = segment_windows(rec, stats, 20)
        assert data.shape == (0, 7, 40) and labels.shape == (0, 40)

    def test_zero_stride_rejected(self, rng):
        rec = make_recording(rng.standard_normal(100))
        stats = compute_norm_stats([rec])
        with pytest.raises(InvalidConfig):
            segment_windows(rec, stats, 0)
        with pytest.raises(InvalidConfig):
            build_fold([rec, make_recording(rng.standard_normal(100),
                                            subject=2)],
                       held_out_subject=2, stride=0)

    def test_single_window_is_znormalized(self, rng):
        values = rng.standard_normal(40)
        rec = make_recording(values)
        stats = compute_norm_stats([rec])
        (data,), _ = segment_windows(rec, stats, 1)
        expected = (values - values.mean()) / values.std()
        np.testing.assert_allclose(data[0], expected.astype(np.float32),
                                   rtol=1e-5, atol=1e-6)
        assert data.shape == (7, 40)

    def test_count_law_randomized(self, rng):
        for _ in range(200):
            length = int(rng.integers(0, 400))
            stride = int(rng.integers(1, 60))
            expected = max(0, (length - 40) // stride + 1) if length >= 40 else 0
            assert window_count(length, 40, stride) == expected
            if length > 0:
                rec = make_recording(rng.standard_normal(length))
                stats = NormStats(mean=np.zeros(7), std=np.ones(7))
                data, labels = segment_windows(rec, stats, stride)
                assert len(data) == len(labels) == expected

    def test_determinism(self, rng):
        rec = make_recording(rng.standard_normal(120))
        stats = compute_norm_stats([rec])
        a, _ = segment_windows(rec, stats, 20)
        b, _ = segment_windows(rec, stats, 20)
        assert a.tobytes() == b.tobytes()


class TestLabelWindow:
    # unanimous, strict majority, tied Null, two tied classes
    CASES = ([9] * 40, [0] * 21 + [8] * 19, [8] * 20 + [0] * 20,
             [3] * 20 + [7] * 20)

    def test_unanimous(self):
        assert label_window(np.full(40, 9)) == 9

    def test_strict_majority(self):
        labels = np.array([0] * 21 + [8] * 19)
        assert label_window(labels) == 0

    def test_tie_prefers_non_null(self):
        labels = np.array([8] * 20 + [0] * 20)
        assert label_window(labels) == 8

    def test_tie_between_non_null_prefers_lower_id(self):
        labels = np.array([3] * 20 + [7] * 20)
        assert label_window(labels) == 3

    def test_matrix_equals_its_rows(self):
        matrix = np.array(self.CASES, dtype=np.int16)
        got = label_window(matrix)
        assert got.shape == (4,)
        assert got.tolist() == [label_window(r) for r in matrix] == [9, 0, 8, 3]

    def test_random_tied_rows_match_per_window_oracle(self, rng):
        # rows of k classes with 40 / k samples each always tie; rows drawn
        # from three classes often do
        rows = [rng.permutation(np.repeat(
                    rng.choice(12, size=k, replace=False), 40 // k))
                for k in rng.choice([2, 4, 5, 8], size=3000)]
        matrix = np.concatenate([rows, rng.integers(0, 3, (3000, 40))])
        got = label_window(matrix)
        assert got.tolist() == [oracle_label_window(r) for r in matrix]
        assert got.tolist() == [label_window(r) for r in matrix]
        assert label_window(matrix.reshape(2, -1, 40)).tolist() == (
            got.reshape(2, -1).tolist())


class TestWindowWeight:
    def test_uniform_frequencies(self):
        freq = np.full(12, 100)
        labels = np.array([0] * 10 + [5] * 30)
        assert window_weight(labels, freq) == pytest.approx(1.0)

    def test_pure_minority_window(self):
        # toy 2-class dataset, counts A=30 B=10: pure-B window
        # oracle: 40 / (2*10) = 2.0
        freq = np.array([30, 10])
        assert window_weight(np.full(40, 1), freq) == pytest.approx(2.0)

    def test_mixed_window(self):
        # oracle: 0.5*(40/60) + 0.5*(40/20) = 4/3
        freq = np.array([30, 10])
        labels = np.array([0] * 20 + [1] * 20)
        assert window_weight(labels, freq) == pytest.approx(4.0 / 3.0)

    def test_unseen_label(self):
        freq = np.array([40, 0])
        with pytest.raises(UnseenLabel):
            window_weight(np.array([0, 1]), freq)
        with pytest.raises(UnseenLabel):
            window_weight(np.array([[0, 0], [0, 1]]), freq)

    def test_rows_bit_identical_to_one_window_each(self, rng):
        freq = rng.integers(1, 500, 12)
        labels = rng.integers(0, 12, (9, 40))
        weights = window_weight(labels, freq)
        assert weights.shape == (9,) and weights.dtype == np.float64
        for row_labels, weight in zip(labels, weights):
            assert window_weight(row_labels, freq) == weight


def oracle_window_weight(labels, class_freq):
    """The per-window weight the vectorized window_weight replaced."""
    class_freq = np.asarray(class_freq, dtype=np.int64)
    for lbl in np.unique(labels):
        if class_freq[lbl] <= 0:
            raise UnseenLabel(int(lbl))
    inv = (int(class_freq.sum())
           / (len(class_freq) * class_freq[labels].astype(np.float64)))
    return float(inv.mean())


class TestFoldSplit:
    @staticmethod
    def windows_for(subjects, per_subject=5):
        return [Window(data=np.zeros((7, 40), np.float32), label=0, weight=1.0,
                       subject=s, session=1 + i % 5)
                for s in subjects for i in range(per_subject)]

    def test_partition_property(self):
        windows = self.windows_for([1, 2, 3])
        for s in (fold_split(windows, subject) for subject in (1, 2, 3)):
            assert len(s.train) + len(s.test) == len(windows)
            train_subjects = {w.subject for w in s.train}
            test_subjects = {w.subject for w in s.test}
            assert not (train_subjects & test_subjects)
            assert test_subjects == {s.held_out_subject}

    def test_fold_split_keeps_order_and_rejects_absent_subject(self):
        windows = self.windows_for([2, 1, 2, 3], per_subject=2)
        split = fold_split(windows, 2)
        assert split.test == [w for w in windows if w.subject == 2]
        assert split.train == [w for w in windows if w.subject != 2]
        with pytest.raises(InvalidConfig, match="no subject 4"):
            fold_split(windows, 4)


class TestBuildFold:
    def test_no_leakage_and_weights(self, synth_dataset_dir):
        recs = load_recordings(synth_dataset_dir)
        split = build_fold(recs, held_out_subject=1)
        assert {w.subject for w in split.test} == {1}
        assert 1 not in {w.subject for w in split.train}
        weights = np.array([w.weight for w in split.train])
        assert np.all(weights > 0)
        assert 0.5 <= weights.mean() <= 2.0

    def test_training_fold_normalization(self, synth_dataset_dir):
        recs = load_recordings(synth_dataset_dir)
        train_recs = [r for r in recs if r.subject != 1]
        stats = compute_norm_stats(train_recs)
        normalized = np.concatenate(
            [(r.data.astype(np.float64) - stats.mean) / stats.std
             for r in train_recs])
        mean = normalized.mean(axis=0)
        std = normalized.std(axis=0)
        assert np.all(np.abs(mean) <= 1e-4)
        assert np.all((std >= 1 - 1e-3) & (std <= 1 + 1e-3))

    def test_bit_identical_to_per_window_oracle(self, synth_dataset_dir):
        recs = load_recordings(synth_dataset_dir)
        for held_out in (1, 2, 3):
            split = build_fold(recs, held_out_subject=held_out)
            train, test = oracle_build_fold(recs, held_out)
            for got, expected in ((split.train, train), (split.test, test)):
                assert len(got) == len(expected)
                for a, b in zip(got, expected):
                    assert a.data.dtype == b.data.dtype
                    assert a.data.shape == b.data.shape
                    assert a.data.tobytes() == b.data.tobytes()
                    fields = (a.label, a.weight, a.subject, a.session)
                    assert fields == (b.label, b.weight, b.subject, b.session)
                    assert [type(v) for v in fields] == [int, float, int, int]

    def test_weights_count_every_sample(self, rng):
        # one training window of 30 Null and 10 Legcurl samples: counts
        # [30, 0, 0, 0, 10, ...], so the weight is
        # (30 * 40 / (12 * 30) + 10 * 40 / (12 * 10)) / 40 = 1 / 6
        labels = np.array([0] * 30 + [4] * 10)
        recs = [make_recording(rng.standard_normal(40), labels=labels),
                make_recording(rng.standard_normal(40), subject=2)]
        (w,) = build_fold(recs, held_out_subject=2).train
        assert (w.label, w.weight) == (0, pytest.approx(1 / 6))

    def test_short_recording_gives_no_windows(self, rng):
        recs = [make_recording(rng.standard_normal(100)),
                make_recording(rng.standard_normal(39), session=2),
                make_recording(rng.standard_normal(39), subject=2)]
        split = build_fold(recs, held_out_subject=2)
        assert [(w.subject, w.session) for w in split.train] == [(1, 1)] * 4
        assert split.test == []

    def test_uniform_labels_give_unit_weights(self, rng):
        recs = []
        for subject in (1, 2):
            labels = np.repeat(np.arange(12), 40)
            rec = make_recording(rng.standard_normal(len(labels)),
                                 subject=subject, labels=labels)
            recs.append(rec)
        split = build_fold(recs, held_out_subject=2, stride=40)
        weights = np.array([w.weight for w in split.train])
        np.testing.assert_allclose(weights, 1.0, atol=1e-6)



class TestWindowContainer:
    @staticmethod
    def sample_windows(rng, n=7):
        return [Window(data=rng.standard_normal((7, 40)).astype(np.float32),
                       label=int(rng.integers(12)),
                       weight=float(rng.uniform(0.2, 3.0)),
                       subject=int(rng.integers(1, 11)),
                       session=int(rng.integers(1, 6)))
                for _ in range(n)]

    def test_round_trip(self, tmp_path, rng):
        windows = self.sample_windows(rng)
        path = tmp_path / "w.efw"
        save_windows(path, windows)
        loaded = load_windows(path)
        assert len(loaded) == len(windows)
        for a, b in zip(windows, loaded):
            assert a.data.tobytes() == b.data.tobytes()
            assert a.label == b.label
            assert a.weight == pytest.approx(b.weight, rel=1e-7)
            assert (a.subject, a.session) == (b.subject, b.session)

    def test_save_is_deterministic(self, tmp_path, rng):
        windows = self.sample_windows(rng)
        p1, p2 = tmp_path / "a.efw", tmp_path / "b.efw"
        save_windows(p1, windows)
        save_windows(p2, windows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "w.efw"
        save_windows(path, self.sample_windows(rng))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(CorruptFile):
            load_windows(path)

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "w.efw"
        save_windows(path, self.sample_windows(rng))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_windows(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptFile):
            load_windows(tmp_path / "absent.efw")

    @pytest.mark.parametrize("fmt, value", [("<B", 12), ("<B", 200),
                                            ("<f", float("nan")),
                                            ("<f", float("inf"))])
    def test_out_of_range_label_or_weight(self, tmp_path, rng, fmt, value):
        # fmt names the field by its type: "<B" the label, "<f" the weight;
        # the file's checksum is valid, so the range check must reject it
        windows = self.sample_windows(rng)
        setattr(windows[1], "label" if fmt == "<B" else "weight", value)
        path = tmp_path / "w.efw"
        save_windows(path, windows)
        with pytest.raises(CorruptFile, match="window 1 out of range"):
            load_windows(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_data(self, tmp_path, rng, value):
        windows = self.sample_windows(rng)
        windows[3].data[5, 17] = value
        path = tmp_path / "w.efw"
        save_windows(path, windows)
        with pytest.raises(CorruptFile, match="window 3 holds NaN or Inf"):
            load_windows(path)

    @pytest.mark.parametrize("field, value", [("subject", 0), ("subject", 11),
                                              ("session", 0), ("session", 6),
                                              ("weight", 0.0),
                                              ("weight", 1e38)])
    def test_out_of_range_subject_session_or_weight(self, tmp_path, rng,
                                                    field, value):
        windows = self.sample_windows(rng)
        setattr(windows[4], field, value)
        path = tmp_path / "w.efw"
        save_windows(path, windows)
        with pytest.raises(CorruptFile, match="window 4 out of range"):
            load_windows(path)

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "w.efw"
        save_windows(path, [])
        assert load_windows(path) == []


# ---------------------------------------------------------------------------
# the per-window cutting, majority vote and class counts that build_fold's
# label matrix replaced, kept as its oracle
# ---------------------------------------------------------------------------

def oracle_label_window(labels) -> int:
    """Most frequent label; ties go to the non-Null label with lowest id."""
    counts = np.bincount(labels, minlength=dataset.NUM_CLASSES)
    best = int(counts.max())
    candidates = [c for c in range(dataset.NUM_CLASSES) if counts[c] == best]
    candidates.sort(key=lambda c: (c == dataset.NULL_CLASS, c))
    return candidates[0]


def oracle_segment_windows(rec, stats, size=40, stride=20):
    """(Window with weight 1.0, its per-sample labels) for each window."""
    normalized = ((rec.data.astype(np.float64) - stats.mean)
                  / stats.std).astype(np.float32)
    windows = []
    for i in range(window_count(len(rec), size, stride)):
        start = i * stride
        seg = normalized[start:start + size]          # (size, 7)
        labels = rec.labels[start:start + size].astype(np.int64)
        windows.append((Window(data=np.ascontiguousarray(seg.T),
                               label=oracle_label_window(labels), weight=1.0,
                               subject=rec.subject, session=rec.session),
                        labels))
    return windows


def oracle_class_counts(sample_labels) -> np.ndarray:
    """Per-class counts of the per-sample labels across all windows."""
    counts = np.zeros(dataset.NUM_CLASSES, dtype=np.int64)
    for labels in sample_labels:
        counts += np.bincount(labels, minlength=dataset.NUM_CLASSES)
    return counts


def oracle_build_fold(recordings, held_out_subject):
    """(train, test) Windows as build_fold made them one window at a time."""
    train_recs = [r for r in recordings if r.subject != held_out_subject]
    stats = compute_norm_stats(train_recs)

    def cut(recs):
        return [pair for r in sorted(recs, key=lambda r: (r.subject, r.session))
                for pair in oracle_segment_windows(r, stats)]

    train = cut(train_recs)
    test = cut(r for r in recordings if r.subject == held_out_subject)
    counts = oracle_class_counts([labels for _, labels in train])
    for w, labels in train:
        w.weight = oracle_window_weight(labels, counts)
    return [w for w, _ in train], [w for w, _ in test]


# ---------------------------------------------------------------------------
# the row-by-row loader that the column-wise load_recordings replaced, kept
# as its oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleRecord:
    """One parsed sensor row: 7 signal channels plus label/subject/session."""

    timestamp: float
    channels: tuple[float, ...]   # acc xyz, gyro xyz, hbc
    label: int
    subject: int
    session: int


def oracle_parse_row(row, idx) -> SampleRecord:
    try:
        ts = float(row[idx["timestamp"]])
        channels = tuple(float(row[idx[name]]) for name in dataset.CHANNEL_NAMES)
    except (ValueError, IndexError) as e:
        raise ValueError(f"bad numeric field ({e})")
    # channels are stored as float32, which rounds |c| >= 2^128 - 2^103
    # (its largest value plus half an ulp) to inf
    if not (all(abs(c) < 2.0 ** 128 - 2.0 ** 103 for c in channels)
            and np.isfinite(ts)):
        raise ValueError("non-finite value")
    label = dataset._parse_label(row[idx["label"]])
    try:
        subject = int(row[idx["subject"]])
        session = int(row[idx["session"]])
    except (ValueError, IndexError):
        raise ValueError("subject/session not an integer")
    if not dataset.SUBJECT_RANGE[0] <= subject <= dataset.SUBJECT_RANGE[1]:
        raise ValueError(f"subject {subject} outside {dataset.SUBJECT_RANGE}")
    if not dataset.SESSION_RANGE[0] <= session <= dataset.SESSION_RANGE[1]:
        raise ValueError(f"session {session} outside {dataset.SESSION_RANGE}")
    return SampleRecord(ts, channels, label, subject, session)


def oracle_load_recordings(path) -> list[Recording]:
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    groups = {}
    for f in files:
        with open(f, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                continue
            idx = resolve_columns(header, str(f))
            lineno = reader.line_num + 1   # where the next record starts
            for row in reader:
                start, lineno = lineno, reader.line_num + 1
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    rec = oracle_parse_row(row, idx)
                except ValueError as e:
                    raise MalformedRow(start, str(e), str(f)) from None
                groups.setdefault((rec.subject, rec.session), []).append(rec)
    if not groups:
        raise EmptyDataset(f"no data rows found under {path}")
    recordings = []
    for (subject, session), records in sorted(groups.items()):
        records.sort(key=lambda r: r.timestamp)
        ts = np.array([r.timestamp for r in records], dtype=np.float64)
        if np.any(ts[1:] <= ts[:-1]):
            dup = int(np.argmax(ts[1:] <= ts[:-1])) + 1
            raise MalformedRow(
                dup, f"timestamps not strictly increasing for subject "
                f"{subject} session {session}")
        data = np.array([r.channels for r in records], dtype=np.float32)
        labels = np.array([r.label for r in records], dtype=np.int16)
        recordings.append(Recording(subject, session, ts, data, labels))
    return recordings


def load_per_file(loader, directory) -> list[Recording]:
    return [r for f in sorted(directory.glob("*.csv")) for r in loader(f)]


def assert_same_recordings(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        # cmd_prepare JSON-dumps the fold ids, so they stay Python ints
        assert type(a.subject) is int and type(a.session) is int
        assert (a.subject, a.session) == (b.subject, b.session)
        for name in ("timestamps", "data", "labels"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


# One malformed line per case, after two good ones; the last two cases
# have two bad lines, the later one being the first the column conversion
# meets (numeric columns are converted before labels and ids).
MALFORMED = {
    "bad_float": ["0.10,1,2,x,4,5,6,7,0,1,1"],
    "nan": ["0.10,1,2,3,4,5,nan,7,0,1,1"],
    "inf_timestamp": ["inf,1,2,3,4,5,6,7,0,1,1"],
    "beyond_float32": ["0.10,1,2,3,4,5,6,1e39,0,1,1"],
    "short_numeric": ["0.10,1,2,3"],
    "label_13": ["0.10,1,2,3,4,5,6,7,13,1,1"],
    "unknown_class": ["0.10,1,2,3,4,5,6,7,Yoga,1,1"],
    "non_integer_subject": ["0.10,1,2,3,4,5,6,7,0,1.5,1"],
    "subject_11": ["0.10,1,2,3,4,5,6,7,0,11,1"],
    "session_0": ["0.10,1,2,3,4,5,6,7,0,1,0"],
    "label_then_float": ["0.10,1,2,3,4,5,6,7,-1,1,1", "",
                         "0.15,1,2,3,4,5,6,x,0,1,1"],
    "session_then_nan": ["0.10,1,2,3,4,5,6,7,0,1,6",
                         "0.15,1,2,3,nan,5,6,7,0,1,1"],
}


class TestOracleParity:
    def test_synth_recordings_per_file(self, synth_dataset_dir):
        assert_same_recordings(
            load_per_file(load_recordings, synth_dataset_dir),
            load_per_file(oracle_load_recordings, synth_dataset_dir))

    def test_synth_recordings_directory(self, synth_dataset_dir):
        assert_same_recordings(load_recordings(synth_dataset_dir),
                               oracle_load_recordings(synth_dataset_dir))

    def test_unsorted_interleaved_rows(self, tmp_path):
        # groups interleaved across two files, rows out of time order,
        # class names, blank and whitespace-only lines
        write_csv(tmp_path / "a.csv", [
            row(0.10, label="Squat", value=1.5), row(0.0, subject=2, value=2),
            row(0.0, value=3), row(0.05, session=2, value=4)])
        with open(tmp_path / "a.csv", "a") as f:
            f.write("\n , ,\n" + ",".join(map(str, row(0.15, value=5))) + "\n")
        write_csv(tmp_path / "b.csv", [row(0.05, label=3, value=6),
                                       row(0.20, subject=2, value=7)])
        recs = load_recordings(tmp_path)
        assert recs[0].timestamps.tolist() == [0.0, 0.05, 0.10, 0.15]
        assert_same_recordings(recs, oracle_load_recordings(tmp_path))

    def test_window_bytes(self, synth_dataset_dir, tmp_path):
        paths = []
        for loader in (load_recordings, oracle_load_recordings):
            split = build_fold(loader(synth_dataset_dir), held_out_subject=2)
            paths.append(tmp_path / f"{loader.__name__}.efw")
            save_windows(paths[-1], split.train + split.test)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("directory", [False, True])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_same_error(self, tmp_path, case, directory):
        # as a directory, a good file precedes the bad one; the files are
        # written once with LF and once with CRLF line endings
        for name, eol in (("lf", "\n"), ("crlf", "\r\n")):
            root = tmp_path / name
            root.mkdir()
            write_csv(root / "a.csv", [row(0.0, session=2)])
            path = root / "b.csv"
            write_csv(path, [row(0.0), row(0.05)])
            with open(path, "a") as f:
                f.write("\n".join(MALFORMED[case]) + "\n")
            for f in (root / "a.csv", path):
                f.write_bytes(f.read_bytes().replace(b"\n", eol.encode()))
            target = root if directory else path
            errors = []
            for loader in (load_recordings, oracle_load_recordings):
                with pytest.raises(MalformedRow) as exc:
                    loader(target)
                e = exc.value
                errors.append((type(e), e.index, e.reason, e.path))
            assert errors[0] == errors[1]
            assert (errors[0][1], errors[0][3]) == (4, str(path))


# ---------------------------------------------------------------------------
# load_recordings against the oracle on spellings, quoting and layouts that
# np.loadtxt reads, rejects or would read otherwise than csv
# ---------------------------------------------------------------------------

def loaded(loader, path):
    """loader's Recordings for path, or its error's type and message with
    path written as <file>."""
    try:
        return loader(path)
    except (EmptyDataset, MalformedRow, MissingColumn) as e:
        return type(e), str(e).replace(str(path), "<file>")


def assert_same_as_oracle(directory, text, eol="\n"):
    """Write text with eol line endings as a.csv, and again after a UTF-8
    byte-order mark as bom.csv (the oracle reads no mark); load_recordings
    must give the oracle's Recordings for both, or the same error."""
    plain, marked = directory / "a.csv", directory / "bom.csv"
    data = text.replace("\n", eol).encode()
    plain.write_bytes(data)
    marked.write_bytes(b"\xef\xbb\xbf" + data)
    expected = loaded(oracle_load_recordings, plain)
    for path in (plain, marked):
        got = loaded(load_recordings, path)
        if isinstance(expected, tuple) and "not strictly" in expected[1]:
            # the oracle names no file and no line for a stalled timestamp
            assert got[0] is MalformedRow
            assert got[1].split(": ", 1)[1] == expected[1].split(": ", 1)[1]
        elif isinstance(expected, tuple):
            assert got == expected
        else:
            assert not isinstance(got, tuple), got
            assert_same_recordings(got, expected)


def quoted(field):
    return '"' + field.replace('"', '""') + '"'


def record(ts, channels="1,2,3,4,5,6,7", label="0", subject="1",
           session="1"):
    return f"{ts},{channels},{label},{subject},{session}"


# Each case is the records of a file after HEADER, and whether
# load_recordings must take the per-record walk for it.
SPELLINGS = {
    "padded_and_signed": (
        record(" 0.0", "+1 , 2 ,\t3,+4.5,-0,6 ,7", " 3 ", "+1", " 01") + "\n"
        + record("+0.05", label=" sQuAt ", subject=" +2", session="05 "),
        False),
    "exponents": (
        record("0e0", "1e0,2E+0,3.0e-0,4.5E1,-6e-310,1e38,7") + "\n"
        + record("5E-2", "1e-400,2,3,4,5,6,3.4028235e38"), False),
    "inf_spellings_in_channel": (
        record(0.0) + "\n" + record(0.05, "1,2,3,Infinity,5,6,7"), True),
    "inf_timestamp": (record(0.0) + "\n" + record("-INF"), True),
    "nan_spellings": (record(0.0) + "\n" + record(0.05, "1,2,3,4,+NaN,6,7"),
                      True),
    "float32_overflow": (
        record(0.0) + "\n" + record(0.05, "1,2,3,4,5,6,3.4028236e38"), True),
    "underscores": (
        record("1_0.5", "1_0,2,3,4,5,6,7") + "\n" + record(12, label="1_1"),
        True),
    "unicode_digits": (
        record("０", "١,2,3,4,5,6,7") + "\n"
        + record(0.5, label="１", subject="٢"), True),
    "hex_float": (record(0.0) + "\n" + record(0.05, "0x10,2,3,4,5,6,7"),
                  True),
    "quoted_numbers_and_names": (
        record(quoted("0.0"), label=quoted("Squat")) + "\n"
        + record(0.05, subject=quoted(" 2 ")), False),
    "quoted_comma_in_name": (
        record(0.0) + "\n" + record(0.05, label=quoted("Squat,Null")), True),
    "quote_mid_field": (
        record(0.0) + "\n" + record(0.05, '1,2,3"",4,5,6,7'), True),
    "label_longer_than_field": (
        record(0.0, label="Squat" + " " * 16) + "\n" + record(0.05), True),
    "label_prefix_is_a_name": (
        record(0.0) + "\n" + record(0.05, label="Squat" + " " * 11 + "x"),
        True),
    "label_ends_in_nul": (record(0.0) + "\n" + record(0.05, label="Squat\0"),
                          True),
    "label_13": (record(0.0) + "\n" + record(0.05, label="13"), True),
    "subject_not_integral": (record(0.0) + "\n" + record(0.05, subject="1.0"),
                             True),
    "subject_beyond_int64": (
        record(0.0) + "\n" + record(0.05, subject="9" * 20), True),
    "whitespace_record": (record(0.0) + "\n , ,\n" + record(0.05), True),
}


class TestOracleDifferential:
    """load_recordings gives the oracle's Recordings, bit for bit, or the
    oracle's error, on a file whichever path converts it."""

    @pytest.fixture
    def walks(self, monkeypatch):
        walks = []
        walk = dataset._walk

        def counting(f, idx):
            walks.append(f)
            return walk(f, idx)

        monkeypatch.setattr(dataset, "_walk", counting)
        return walks

    @pytest.mark.parametrize("case", sorted(SPELLINGS))
    def test_spellings(self, tmp_path, walks, case):
        records, walked = SPELLINGS[case]
        text = HEADER + records + "\n"
        for eol in ("\n", "\r\n"):
            walks.clear()
            assert_same_as_oracle(tmp_path, text, eol)
            assert bool(walks) == walked

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_columns_extra_and_shuffled(self, tmp_path, walks, eol):
        # notes before and after the canonical columns hold commas,
        # doubled quotes, a line break and quotes inside a field
        names = ["note", *reversed(dataset.COLUMNS), "spare"]
        rows = [["a,b", *reversed(record(0.05, label="Squat").split(",")),
                 'x"y'],
                ['say ""hi""', *reversed(record(0.0).split(",")), "z"],
                ["two\nlines", *reversed(record(0.1, subject=2).split(",")),
                 ""]]
        text = ",".join(names) + "\n" + "".join(
            ",".join([quoted(note), *fields, spare]) + "\n"
            for note, *fields, spare in rows)
        assert_same_as_oracle(tmp_path, text, eol)
        assert walks   # the note on two lines
        walks.clear()
        assert_same_as_oracle(tmp_path, text.replace("two\nlines", "one"),
                              eol)
        assert not walks

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_random_files(self, data):
        with tempfile.TemporaryDirectory() as directory:
            assert_same_as_oracle(Path(directory), data.draw(csv_texts()),
                                  data.draw(st.sampled_from(["\n", "\r\n"])))


# Spellings that float() reads back as the value exactly; FULLWIDTH makes
# one of them in digits that only float() reads.
EXACT = (repr, "{:+}".format, "{:.17g}".format, "{:.17E}".format,
         "{:+.20e}".format)
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
# decimal text of up to 40 significant digits, inside float32's range
DECIMALS = st.builds("{}{:03d}.{}e{}".format, st.sampled_from(["", "+", "-"]),
                     st.integers(0, 10**20), st.integers(0, 10**20),
                     st.integers(-30, 15))
CHANNELS = st.one_of(st.floats(-1e30, 1e30).map(repr), DECIMALS)


def integers(low, high):
    return st.builds(lambda value, form: form.format(value),
                     st.integers(low, high),
                     st.sampled_from(["{}", "+{}", "{:03d}"]))


LABELS = st.one_of(
    integers(0, 11),
    st.builds(lambda name, mask: "".join(
        c.upper() if mask >> i & 1 else c.lower() for i, c in enumerate(name)),
        st.sampled_from(dataset.CLASS_NAMES), st.integers(0, 2**13 - 1)))
# padding and quoting of a column's non-note fields
WRAPS = st.sampled_from(["{}", "{}", "{}", " {} ", "\t{}", '"{}"',
                         '" {}\t"'])
NOTES = st.text(st.sampled_from(["a", " ", ",", '"']), max_size=6)
# a quoted note with line breaks and NULs, or an unquoted one with quotes
# inside it (a quote that starts a field would open a quoted field)
ODD_NOTES = st.one_of(
    st.text(st.sampled_from(["a", ",", '"', "\n", "\r", "\0"]),
            max_size=6).map(quoted),
    st.text(st.sampled_from(["a", " ", '"']), max_size=6).map("a{}".format))
ODD = {
    "float": st.sampled_from([
        "inf", "Infinity", "-INF", "nan", "NaN", "1e39", "3.4028236e38",
        "3.4028235e38", "1e-400", "-0", "1_0", "１２", "٣.5", "0x10", "",
        " ", "1.5j", "1 2", "1e", ".", "+"]),
    "label": st.sampled_from([
        "12", "-1", "Yoga", "", "1_1", "١", "Squat\0", "\0",
        "Squat" + " " * 16, "Squat" + " " * 11 + "x", "sQUAT "]),
    "id": st.sampled_from(["0", "11", "1.0", "", "x", "1_0", "١", "１",
                           "9" * 20, "-1", "3\0", " 2 "]),
}


@st.composite
def csv_texts(draw):
    """A file of the canonical columns in any order, with extra note
    columns, of records spelled in many ways. Some files hold one odd or
    invalid value, unquoted notes, empty lines or whitespace-only
    records."""
    extras = draw(st.sampled_from([(), ("note",), ("spare",),
                                   ("note", "spare")]))
    names = draw(st.permutations([*dataset.COLUMNS, *extras]))
    wraps = {name: draw(WRAPS) for name in dataset.COLUMNS}
    odd = draw(st.booleans())
    stamps = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=8, unique=True))
    rows = []
    for ts in stamps:
        text = draw(st.sampled_from(EXACT))(ts)
        if odd and draw(st.integers(0, 4)) == 0:
            text = text.translate(FULLWIDTH)
        rows.append({"timestamp": text,
                     **dict(zip(dataset.CHANNEL_NAMES, draw(
                         st.lists(CHANNELS, min_size=7, max_size=7)))),
                     "label": draw(LABELS),
                     "subject": draw(integers(1, 3)),
                     "session": draw(integers(1, 2)),
                     **{name: quoted(draw(NOTES)) for name in extras}})
    if odd:
        name = draw(st.sampled_from(dataset.COLUMNS + extras))
        kind = {"label": "label", "subject": "id", "session": "id"}.get(
            name, "float")
        rows[draw(st.integers(0, len(rows) - 1))][name] = draw(
            ODD_NOTES if name in extras else ODD[kind])
    lines = [",".join(names)] + [
        ",".join(row[name] if name in extras else wraps[name].format(row[name])
                 for name in names) for row in rows]
    if odd:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(1, len(lines))),
                         draw(st.sampled_from(["", " , ,", "  "])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
