"""Ingestion, normalization, windowing, weighting, and leave-one-user-out splits.

Input files are comma-separated text with one header row and the canonical
columns timestamp, acc_x, acc_y, acc_z, gyro_x, gyro_y, gyro_z, hbc, label,
subject, session, in any order. Labels may be integers 0..11 or canonical
class names.
A file's records are taken whole from the csv reader and converted one
column at a time, with no Python code per record. Physical line numbers
are found only when an error names one: a file is then read again record
by record, to parse each row on its own up to the first malformed one or
to find where a stalled timestamp's record starts.
"""

from __future__ import annotations

import csv
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import container
from .errors import (
    CorruptFile,
    EmptyDataset,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    UnseenLabel,
)

CLASS_NAMES = (
    "Null", "Adductor", "Armcurl", "Benchpress", "Legcurl", "Legpress",
    "Riding", "Ropeskipping", "Running", "Squat", "Stairsclimber", "Walking",
)
NUM_CLASSES = len(CLASS_NAMES)
NULL_CLASS = 0
NUM_CHANNELS = 7
WINDOW_SIZE = 40
RATE_HZ = 20
CHANNEL_NAMES = ("acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z", "hbc")
COLUMNS = ("timestamp", *CHANNEL_NAMES, "label", "subject", "session")

SUBJECT_RANGE = (1, 10)
SESSION_RANGE = (1, 5)

STD_FLOOR = 1e-6

WINDOW_MAGIC = b"EFW2"
# The per-window fields of an EFW2 file besides data, with their dtypes.
_WINDOW_FIELDS = (("label", "|u1"), ("weight", "<f4"), ("subject", "|u1"),
                  ("session", "|u1"))

_NAME_TO_LABEL = {name.lower(): i for i, name in enumerate(CLASS_NAMES)}


def resolve_columns(header: list[str], path: str = "") -> dict[str, int]:
    """Return canonical column name -> index in header, or raise
    MissingColumn naming the first canonical column header lacks."""
    positions = {name.strip(): i for i, name in enumerate(header)}
    try:
        return {name: positions[name] for name in COLUMNS}
    except KeyError as e:
        raise MissingColumn(e.args[0], path) from None


@dataclass
class Recording:
    """All samples of one (subject, session) pair, ordered by timestamp."""

    subject: int
    session: int
    timestamps: np.ndarray   # (N,) float64, strictly increasing
    data: np.ndarray         # (N, 7) float32
    labels: np.ndarray       # (N,) int16

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass
class NormStats:
    """Per-channel mean and standard deviation of the training-fold samples."""

    mean: np.ndarray   # (7,) float64
    std: np.ndarray    # (7,) float64, >= STD_FLOOR


@dataclass
class Window:
    """A normalized 7x40 segment with its majority label and training
    weight (see build_fold)."""

    data: np.ndarray          # (7, 40) float32
    label: int
    weight: float
    subject: int
    session: int


@dataclass
class DatasetSplit:
    train: list[Window]
    test: list[Window]
    held_out_subject: int


def _parse_label(raw: str) -> int:
    raw = raw.strip()
    try:
        value = int(raw)
    except ValueError:
        key = raw.lower()
        if key not in _NAME_TO_LABEL:
            raise ValueError(f"unknown class name '{raw}'")
        return _NAME_TO_LABEL[key]
    if not 0 <= value < NUM_CLASSES:
        raise ValueError(f"label {value} outside [0, {NUM_CLASSES - 1}]")
    return value


def _parse_row(row: list[str], idx: dict[str, int]) -> None:
    """Raise ValueError with the reason row is not a valid data row."""
    try:
        ts = float(row[idx["timestamp"]])
        channels = [float(row[idx[name]]) for name in CHANNEL_NAMES]
    except (ValueError, IndexError) as e:
        raise ValueError(f"bad numeric field ({e})")
    with np.errstate(over="ignore"):   # channels are stored as float32
        channels = np.array(channels, np.float32)
    if not np.isfinite(channels).all() or not np.isfinite(ts):
        raise ValueError("non-finite value")
    for name in ("label", "subject", "session"):
        if len(row) <= idx[name]:
            raise ValueError(f"{name} field missing")
    _parse_label(row[idx["label"]])
    try:
        subject = int(row[idx["subject"]])
        session = int(row[idx["session"]])
    except ValueError:
        raise ValueError("subject/session not an integer")
    if not SUBJECT_RANGE[0] <= subject <= SUBJECT_RANGE[1]:
        raise ValueError(f"subject {subject} outside {SUBJECT_RANGE}")
    if not SESSION_RANGE[0] <= session <= SESSION_RANGE[1]:
        raise ValueError(f"session {session} outside {SESSION_RANGE}")


@contextmanager
def open_csv(path: Path):
    """A csv.reader over path read as UTF-8. A byte that does not decode
    raises CorruptFile naming the file; csv.Error is the caller's."""
    with open(path, newline="", encoding="utf-8") as f:
        try:
            yield csv.reader(f)
        except UnicodeDecodeError as e:
            raise CorruptFile(
                f"{path}: not {e.encoding} text ({e.reason})") from None


def _numbered_rows(f: Path) -> list[tuple[int, list[str]]]:
    """f's non-blank data records, each with the physical line it starts on
    (the header is line 1; a quoted field may span lines). Only an error
    that names a line reads a file this way."""
    with open_csv(f) as reader:
        next(reader, None)
        numbered = []
        start = reader.line_num + 1
        for row in reader:
            if any(map(str.strip, row)):
                numbered.append((start, row))
            start = reader.line_num + 1
    return numbered


def _read_csv(f: Path, number: int) -> tuple | None:
    """Columns of f's data rows, or None if it has none: timestamps, (N, 7)
    float32 channels, labels, subjects and sessions (each distinct string
    parsed once), each row's ordinal among f's non-blank records and number.
    Errors as in load_recordings; a failed conversion finds the line of the
    first malformed row through _numbered_rows."""
    try:
        with open_csv(f) as reader:
            header = next(reader, None)
            idx = None if header is None else resolve_columns(header, str(f))
            rows = list(reader)
    except csv.Error as e:   # e.g. a field longer than csv's limit
        raise MalformedRow(reader.line_num, str(e), str(f)) from None
    # a record is blank when all its fields are whitespace
    rows = list(itertools.compress(rows, map(str.strip, map("".join, rows))))
    if not rows:   # also when f is empty, without a header
        return None
    n = len(rows)
    try:
        columns = list(zip(*rows))   # a short row leaves a column out
        numeric = np.array([np.fromiter(map(float, columns[idx[name]]),
                                        np.float64, n)
                            for name in ("timestamp", *CHANNEL_NAMES)])
        # stored as float32, where _parse_row checks them too
        with np.errstate(over="ignore"):
            channels = numeric[1:].T.astype(np.float32)
        if not (np.isfinite(numeric[0]).all() and np.isfinite(channels).all()):
            raise ValueError("non-finite value")
        ids = []
        for name, parse, (low, high) in (
                ("label", _parse_label, (0, NUM_CLASSES - 1)),
                ("subject", int, SUBJECT_RANGE), ("session", int, SESSION_RANGE)):
            column = columns[idx[name]]
            values = {raw: parse(raw) for raw in dict.fromkeys(column)}
            if not all(low <= v <= high for v in values.values()):
                raise ValueError(f"{name} out of range")
            ids.append(np.fromiter(map(values.__getitem__, column), np.int16, n))
    except (ValueError, IndexError):
        for lineno, row in _numbered_rows(f):
            try:
                _parse_row(row, idx)
            except ValueError as e:
                raise MalformedRow(lineno, str(e), str(f)) from None
        raise
    return (numeric[0], channels, *ids,
            np.arange(n), np.full(n, number))


def load_recordings(path: str | Path) -> list[Recording]:
    """Load every CSV under path (file or directory) into Recordings.

    One Recording per (subject, session) pair, merged across files in name
    order and stably sorted by timestamp. A file that fails conversion raises
    MalformedRow with the file, the physical line its first malformed row
    starts on (the header is line 1) and the reason _parse_row gives; a
    timestamp not after its predecessor raises MalformedRow with that row's
    file and line. Rows are tracked by their ordinal in their file, and only
    such an error reads a file again to find a physical line.
    """
    path = Path(path)
    if not path.exists():
        raise EmptyDataset(f"path does not exist: {path}")
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise EmptyDataset(f"no .csv files under {path}")
    parts = [part for part in (_read_csv(f, number)
                               for number, f in enumerate(files)) if part]
    if not parts:
        raise EmptyDataset(f"no data rows found under {path}")

    ts, data, labels, subject, session, ordinals, sources = (
        np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((ts, session, subject))   # stable: file order on ties
    ts, data, labels, subject, session = (
        column[order] for column in (ts, data, labels, subject, session))
    same = (np.diff(subject) == 0) & (np.diff(session) == 0)
    stalled = same & (np.diff(ts) <= 0)
    if stalled.any():
        i = stalled.argmax() + 1
        f = files[sources[order[i]]]
        line, _ = _numbered_rows(f)[ordinals[order[i]]]
        raise MalformedRow(
            line, f"timestamps not strictly increasing for "
            f"subject {subject[i]} session {session[i]}", str(f))
    bounds = [0, *(np.flatnonzero(~same) + 1), len(ts)]
    return [Recording(int(subject[a]), int(session[a]), ts[a:b], data[a:b],
                      labels[a:b]) for a, b in zip(bounds, bounds[1:])]


def compute_norm_stats(recordings: list[Recording]) -> NormStats:
    """Per-channel mean and population std over all samples of the input."""
    if not recordings or sum(len(r) for r in recordings) == 0:
        raise EmptyDataset("cannot compute normalization statistics of nothing")
    stacked = np.concatenate([r.data.astype(np.float64) for r in recordings], axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)   # population convention
    return NormStats(mean=mean, std=np.maximum(std, STD_FLOOR))


def window_count(length: int, size: int, stride: int) -> int:
    if length < size:
        return 0
    return (length - size) // stride + 1


def label_window(labels: np.ndarray) -> np.ndarray:
    """Majority label of each window, class ids (..., L) -> (...) int64;
    ties go to the non-Null label with the lowest id.

    Row i's labels are offset by i * NUM_CLASSES, so one bincount counts
    every row. Scores are 2 * count, less 1 for Null: a tied Null loses to
    any tied class, and the first maximal score has the lowest id.
    """
    rows = labels.reshape(-1, labels.shape[-1])
    offsets = NUM_CLASSES * np.arange(len(rows))[:, None]
    counts = np.bincount((rows + offsets).ravel(),
                         minlength=NUM_CLASSES * len(rows))
    scores = (2 * counts.reshape(*labels.shape[:-1], NUM_CLASSES)
              - (np.arange(NUM_CLASSES) == NULL_CLASS))
    return scores.argmax(axis=-1)


def window_weight(labels: np.ndarray, class_freq: np.ndarray) -> np.ndarray:
    """Mean inverse relative frequency of each window's per-sample labels,
    labels (..., L) -> (...) float64.

    weight = mean over samples of N_total / (n_classes * N_label), so a
    perfectly uniform label distribution gives every window weight 1.
    """
    class_freq = np.asarray(class_freq, dtype=np.int64)
    seen = class_freq > 0
    if not seen[labels].all():
        raise UnseenLabel(int(labels[~seen[labels]].min()))
    inv = np.zeros(len(class_freq))
    inv[seen] = int(class_freq.sum()) / (
        len(class_freq) * class_freq[seen].astype(np.float64))
    return inv[labels].mean(axis=-1)


def segment_windows(rec: Recording, stats: NormStats,
                    stride: int = RATE_HZ) -> tuple[np.ndarray, np.ndarray]:
    """Cut rec into z-normalized windows of WINDOW_SIZE samples every
    `stride`: data (n, 7, WINDOW_SIZE) float32 and each window's per-sample
    labels (n, WINDOW_SIZE), with n = window_count(len(rec), WINDOW_SIZE,
    stride). Both are views, the data of one normalized copy of rec."""
    if stride < 1:
        raise InvalidConfig(f"stride must be >= 1, got {stride}")
    if len(rec) < WINDOW_SIZE:
        return (np.empty((0, NUM_CHANNELS, WINDOW_SIZE), np.float32),
                np.empty((0, WINDOW_SIZE), rec.labels.dtype))
    normalized = ((rec.data.astype(np.float64) - stats.mean) / stats.std).astype(np.float32)
    return (sliding_window_view(normalized, WINDOW_SIZE, axis=0)[::stride],
            sliding_window_view(rec.labels, WINDOW_SIZE)[::stride])


def fold_split(windows: list[Window], held_out_subject: int) -> DatasetSplit:
    """That subject's windows test, every other window trains, both in
    input order; raises InvalidConfig when no window has that subject."""
    test = [w for w in windows if w.subject == held_out_subject]
    if not test:
        raise InvalidConfig(f"no subject {held_out_subject} in the windows")
    train = [w for w in windows if w.subject != held_out_subject]
    return DatasetSplit(train=train, test=test,
                        held_out_subject=held_out_subject)


def _cut(recordings: list[Recording], stats: NormStats, stride: int
         ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Every window of recordings in (subject, session) order: data
    (n, 7, WINDOW_SIZE), per-sample labels (n, WINDOW_SIZE) and each
    window's (subject, session)."""
    recordings = sorted(recordings, key=lambda r: (r.subject, r.session))
    cuts = [segment_windows(r, stats, stride) for r in recordings]
    data = np.concatenate([np.empty((0, NUM_CHANNELS, WINDOW_SIZE),
                                    np.float32)] + [d for d, _ in cuts])
    labels = np.concatenate([np.empty((0, WINDOW_SIZE), np.int16)]
                            + [lbl for _, lbl in cuts])
    ids = [(r.subject, r.session) for r, (d, _) in zip(recordings, cuts)
           for _ in range(len(d))]
    return data, labels, ids


def _windows(data: np.ndarray, labels: np.ndarray,
             ids: list[tuple[int, int]], weights: list[float]) -> list[Window]:
    """One Window per row of a _cut, labelled by majority vote."""
    return [Window(d, label, weight, subject, session)
            for d, label, weight, (subject, session)
            in zip(data, label_window(labels).tolist(), weights, ids)]


def build_fold(recordings: list[Recording], held_out_subject: int,
               stride: int = RATE_HZ, n_threads: int = 1) -> DatasetSplit:
    """Full per-fold pipeline with training-fold-only normalization.

    Stats and class counts come exclusively from the training subjects;
    the held-out subject's windows are normalized with those same stats and
    carry weight 1.0 (weights only matter for training). A training
    window's weight is window_weight of its per-sample labels under the
    per-sample class counts of all training windows. n_threads is ignored;
    it stays only while the benchmark's prepare stage passes it.
    """
    train_recs = [r for r in recordings if r.subject != held_out_subject]
    test_recs = [r for r in recordings if r.subject == held_out_subject]
    if not train_recs:
        raise EmptyDataset(f"no training subjects besides {held_out_subject}")
    stats = compute_norm_stats(train_recs)
    data, labels, ids = _cut(train_recs, stats, stride)
    class_freq = np.bincount(labels.ravel(), minlength=NUM_CLASSES)
    train = _windows(data, labels, ids,
                     window_weight(labels, class_freq).tolist())
    data, labels, ids = _cut(test_recs, stats, stride)
    test = _windows(data, labels, ids, [1.0] * len(data))
    return DatasetSplit(train=train, test=test, held_out_subject=held_out_subject)


def make_out_dir(path: str | Path) -> Path:
    """Create the output directory path and its parents if missing; raises
    InvalidConfig when path is a file or lies under one."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise InvalidConfig(f"output directory {path} is a file or lies "
                            f"under one") from None
    return path


def save_windows(path: str | Path, windows: list[Window]) -> None:
    """Write an EFW2 container (layout in edgefit.container): the window
    count as metadata, data (N, 7, 40) and the _WINDOW_FIELDS as tensors."""
    n = len(windows)
    data = np.array([w.data for w in windows], "<f4")
    container.write(path, WINDOW_MAGIC, {"windows": n}, {
        "data": data.reshape(n, NUM_CHANNELS, WINDOW_SIZE),
        **{name: np.array([getattr(w, name) for w in windows], dtype)
           for name, dtype in _WINDOW_FIELDS}})


def load_windows(path: str | Path) -> list[Window]:
    """Read an EFW2 file. Every window's data must be finite, every label a
    class id, every weight positive and at most WINDOW_SIZE * n /
    NUM_CLASSES for n windows (the most build_fold gives: a training
    class's inverse frequency is at most 40 * n_train / 12), and every
    subject and session within its range."""
    contents = container.read(path, WINDOW_MAGIC)
    n = contents.meta.get("windows")
    data = contents.take("data", "<f4", (n, NUM_CHANNELS, WINDOW_SIZE))
    label, weight, subject, session = (contents.take(name, dtype, (n,))
                                       for name, dtype in _WINDOW_FIELDS)
    contents.finish()
    finite = np.isfinite(data).all(axis=(1, 2))
    if not finite.all():
        raise CorruptFile(f"{contents.path}: window {int(finite.argmin())} "
                          f"holds NaN or Inf data")
    bad = ((label >= NUM_CLASSES)
           | ~((weight > 0) & (weight <= WINDOW_SIZE * n / NUM_CLASSES))
           | (subject < SUBJECT_RANGE[0]) | (subject > SUBJECT_RANGE[1])
           | (session < SESSION_RANGE[0]) | (session > SESSION_RANGE[1]))
    if bad.any():
        i = int(bad.argmax())
        raise CorruptFile(
            f"{contents.path}: window {i} out of range (label {label[i]}, "
            f"weight {weight[i]}, subject {subject[i]}, session {session[i]})")
    return [Window(d, *fields) for d, *fields in zip(
        data, label.tolist(), weight.tolist(), subject.tolist(),
        session.tolist())]
