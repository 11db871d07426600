"""Synthetic sensor data for tests and demos.

make_synthetic_dataset emits CSV files in the canonical ingestion schema:
each class gets a characteristic per-channel DC level plus a sinusoid at its
own frequency, subjects add gain/offset/noise nuisance, and Null segments
separate the exercises. The result is learnable across subjects but not
trivial, which is what the training and quantization tests need.

The writer formats a file's rows in blocks of at most MAX_SEGMENT_ROWS rows,
one block per file at the defaults. A block is one grid of 4-byte words
built in numpy: per value a sign word, then one word per three digits from
one table, NUL where a digit is a leading zero and with the decimal point
after the units digit, and per row a `,{label},{subject},{session}` suffix
from a per-class table. Dropping the NULs from the grid's bytes leaves the
text that `%.3f` gives for the timestamp and `%.6f` for each channel (see
_fixed_point_words for why), so the files are byte-identical to a
row-by-row writer's. A block holding a value the grid cannot format
exactly, |v|·10^d at or above 2^52, is formatted by a %-template instead.
The writer accepts only what `prepare` reads back: subjects and sessions
inside dataset.SUBJECT_RANGE and SESSION_RANGE, noise from 0 to MAX_NOISE,
and durations from 0 to one hour (MAX_SEGMENT_ROWS rows per segment).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .dataset import (
    CHANNEL_NAMES,
    CLASS_NAMES,
    NUM_CHANNELS,
    NUM_CLASSES,
    RATE_HZ,
    SESSION_RANGE,
    SUBJECT_RANGE,
    make_out_dir,
)
from .errors import InvalidConfig

# the longest segment, one hour: 72,000 rows at RATE_HZ = 20
MAX_SEGMENT_ROWS = 3600 * RATE_HZ
# the largest noise: values stay far inside float32's 3.4e38, so that
# prepare reads each back as a finite float32
MAX_NOISE = 1e30


def _check_synth_args(subjects: int, sessions: int, class_seconds: float,
                      null_seconds: float, noise: float) -> None:
    for name, value, (lo, hi) in (("subjects", subjects, SUBJECT_RANGE),
                                  ("sessions", sessions, SESSION_RANGE)):
        if not lo <= value <= hi:
            raise InvalidConfig(f"{name} must be in {lo}..{hi}, got {value}")
    for name, value in (("class_seconds", class_seconds),
                        ("null_seconds", null_seconds), ("noise", noise)):
        if not (math.isfinite(value) and value >= 0):
            raise InvalidConfig(f"{name} must be finite and >= 0, got {value}")
        if name == "noise" and value > MAX_NOISE:
            raise InvalidConfig(f"noise must be at most {MAX_NOISE:g}, "
                                f"got {value}")
        if name != "noise" and value * RATE_HZ > MAX_SEGMENT_ROWS:
            raise InvalidConfig(f"{name} must be at most one hour, got {value}")


# the grid's digits are exact below this |v|·10^d; see _fixed_point_words
_EXACT_BOUND = 2.0 ** 52
# offsets into _DIGITS, added to a 3-digit group g: "ddd" zero-padded,
# "ddd" with its leading zeros NUL (all NUL for g = 0), and the same two
# ending in the decimal point, where g = 0 leading is "0." (the units digit
# %f always writes)
_PADDED, _LEADING, _POINT = 0, 1000, 2000


def _words(text: bytes) -> np.ndarray:
    """text, NUL-padded to a whole number of 4-byte words, as uint32."""
    return np.frombuffer(text.ljust(-(-len(text) // 4) * 4, b"\0"), np.uint32)


_DIGITS = _words(b"".join(
    (b"%03d" % g if padded else (b"%d" % g if g or point == b"." else b"")
     ).rjust(3, b"\0") + point
    for point in (b"\0", b".") for padded in (True, False)
    for g in range(1000)))


def _fixed_point_words(v: np.ndarray, decimals: int,
                       prefix: bytes = b"") -> np.ndarray | None:
    """prefix + '%.{decimals}f' % x for each x in v, as n planes of uint32
    words, shape (n,) + v.shape: x's words, in order, are those at its index
    in each plane, and their bytes without their NULs are x's text.

    decimals is a multiple of 3 and prefix at most 3 bytes. Returns None if
    some x is not finite or has |x|·10^decimals >= _EXACT_BOUND.

    Exactness: 10^decimals is exact, so p = |x|·10^decimals as a double is
    within half an ulp, at most p·2^-53, of the exact product. Below 2^52
    rint(p) is an exact integer, and it is the integer nearest the exact
    product, the correctly rounded half-even digits that '%f' writes,
    unless a half-integer lies within p·2^-53 of p. Values within p·2^-50
    of a half-integer take their digits from f"{x:.{decimals}f}" instead.
    The sign is '-' wherever np.signbit(x), as '%f' writes -0.0 and tiny
    negatives that round to zero.
    """
    p = np.abs(v) * 10.0 ** decimals
    largest = p.max(initial=0.0)
    if not largest < _EXACT_BOUND:
        return None
    r = np.rint(p)
    err = np.abs(p - r)
    near = err >= 0.5 - largest * 2.0 ** -50    # a superset, cheap to test
    if near.any():
        near &= err >= 0.5 - p * 2.0 ** -50
    a = r.astype(np.int64)
    if near.any():
        a[near] = [int(f"{x:.{decimals}f}".replace(".", ""))
                   for x in np.abs(v[near]).tolist()]

    frac_groups = decimals // 3
    digits = len(str(a.max(initial=0) // 10 ** decimals))
    groups = frac_groups + -(-digits // 3)
    words = np.empty((1 + groups,) + v.shape, np.uint32)
    plus, dash = _words(prefix.ljust(4, b"\0") + bytes(len(prefix)) + b"-")
    np.multiply(np.signbit(v), dash, out=words[0])
    words[0] += plus
    high = a
    for k in range(groups):                 # k = 0: the last fraction group
        low, high = high, high // 1000
        g = low - high * 1000 if k + 1 < groups else low
        if k >= frac_groups:                # the integer part
            offset = _POINT if k == frac_groups else _PADDED
            g += offset + _LEADING * (high == 0)    # no digit above g
        words[groups - k] = _DIGITS[g]
    return words


def _template_rows(ts: np.ndarray, sig: np.ndarray, cls: np.ndarray,
                   suffixes: list[str]) -> bytes:
    """The rows' text by a %-template, which formats any double."""
    template = "".join("%.3f" + ",%.6f" * NUM_CHANNELS + suffixes[c]
                       for c in cls.tolist())
    values = np.column_stack([ts, sig]).ravel().tolist()
    return (template % tuple(values)).encode()


def _format_rows(ts: np.ndarray, sig: np.ndarray, cls: np.ndarray,
                 suffixes: list[str]) -> bytes:
    """CSV text of rows (ts[i], sig[i], suffixes[cls[i]]) from one grid, or
    from _template_rows where a value is beyond the grid's _EXACT_BOUND."""
    stamps = _fixed_point_words(ts, 3)
    values = _fixed_point_words(sig, 6, b",")
    if stamps is None or values is None:
        return _template_rows(ts, sig, cls, suffixes)
    width = max(len(s) for s in suffixes)
    tails = np.stack([_words(s.encode().ljust(width, b"\0"))
                      for s in suffixes])
    n_stamp, n_value = len(stamps), len(values)
    end = n_stamp + NUM_CHANNELS * n_value
    grid = np.empty((len(ts), end + tails.shape[1]), np.uint32)
    grid[:, :n_stamp] = stamps.T
    for k, plane in enumerate(values):      # word k of every channel
        grid[:, n_stamp + k:end:n_value] = plane
    grid[:, end:] = tails[cls]
    return grid.tobytes().translate(None, b"\0")


def make_synthetic_dataset(out_dir: str | Path, subjects: int = 10,
                           sessions: int = 5, class_seconds: float = 12.0,
                           null_seconds: float = 3.0, noise: float = 0.3,
                           seed: int = 0) -> list[Path]:
    """Write one CSV per (subject, session); returns the written paths.

    Each segment's phase and noise are drawn in turn, as a writer that
    formats row by row draws them; each file's signals are then computed,
    formatted and written in blocks of at most MAX_SEGMENT_ROWS rows, and
    the bytes equal that writer's. Raises InvalidConfig, before anything is
    written, for subjects outside SUBJECT_RANGE, sessions outside
    SESSION_RANGE, a negative or non-finite class_seconds, null_seconds or
    noise, a noise above MAX_NOISE, a class_seconds or null_seconds above
    one hour (MAX_SEGMENT_ROWS rows at RATE_HZ), and an out_dir that is a
    file or lies under one.
    """
    _check_synth_args(subjects, sessions, class_seconds, null_seconds, noise)
    out_dir = make_out_dir(out_dir)
    rng = np.random.default_rng(seed)

    freqs = 0.5 + 0.27 * np.arange(NUM_CLASSES)            # Hz, class 0 unused
    amp = rng.uniform(0.4, 1.4, size=(NUM_CLASSES, NUM_CHANNELS))
    dc = rng.uniform(-1.2, 1.2, size=(NUM_CLASSES, NUM_CHANNELS))
    amp[0] = 0.0
    dc[0] = 0.0
    gain = 1.0 + 0.08 * rng.standard_normal((subjects + 1, NUM_CHANNELS))
    offset = 0.15 * rng.standard_normal((subjects + 1, NUM_CHANNELS))

    class_len = int(round(class_seconds * RATE_HZ))
    null_len = int(round(null_seconds * RATE_HZ))
    header = ("timestamp," + ",".join(CHANNEL_NAMES)
              + ",label,subject,session\n").encode()

    paths = []
    for subject in range(1, subjects + 1):
        for session in range(1, sessions + 1):
            order = rng.permutation(np.arange(1, NUM_CLASSES))
            classes = np.zeros(2 * len(order) + 1, np.intp)
            classes[1::2] = order                  # Null around each exercise
            lengths = np.where(classes > 0, class_len, null_len)
            cls = np.repeat(classes, lengths)
            phases = np.empty(len(classes))
            draws = np.empty((len(cls), NUM_CHANNELS))
            lo = 0
            for i, length in enumerate(lengths.tolist()):
                phases[i] = rng.uniform(0, 2 * np.pi)
                rng.standard_normal(out=draws[lo:lo + length])
                lo += length
            phase = np.repeat(phases, lengths)
            ts = np.arange(len(cls)) / RATE_HZ
            suffixes = [f",{name},{subject},{session}\n"
                        for name in CLASS_NAMES]

            path = out_dir / f"s{subject:02d}_sess{session}.csv"
            with open(path, "wb") as f:
                f.write(header)
                for lo in range(0, len(cls), MAX_SEGMENT_ROWS):
                    rows = slice(lo, lo + MAX_SEGMENT_ROWS)
                    c = cls[rows]
                    wave = np.sin(2 * np.pi * freqs[c] * ts[rows]
                                  + phase[rows])
                    sig = (gain[subject] * (dc[c] + amp[c] * wave[:, None])
                           + offset[subject] + noise * draws[rows])
                    f.write(_format_rows(ts[rows], sig, c, suffixes))
            paths.append(path)
    return paths
