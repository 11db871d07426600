"""Synthetic sensor data for tests and demos.

make_synthetic_dataset emits CSV files in the canonical ingestion schema:
each class gets a characteristic per-channel DC level plus a sinusoid at its
own frequency, subjects add gain/offset/noise nuisance, and Null segments
separate the exercises. The result is learnable across subjects but not
trivial, which is what the training and quantization tests need.

The writer formats one block per segment: a one-row %-template repeated
over the segment's rows and applied once to its timestamps and channels.
`%.6f` formats a float exactly as `f"{v:.6f}"` does, so the files are
byte-identical to a row-by-row writer's. It accepts only what `prepare`
reads back: subjects and sessions inside dataset.SUBJECT_RANGE and
SESSION_RANGE, and finite, non-negative durations and noise.
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


def make_synthetic_dataset(out_dir: str | Path, subjects: int = 10,
                           sessions: int = 5, class_seconds: float = 12.0,
                           null_seconds: float = 3.0, noise: float = 0.3,
                           seed: int = 0) -> list[Path]:
    """Write one CSV per (subject, session); returns the written paths.

    Each segment is formatted as one block and each file written once; the
    bytes equal those of a writer that formats row by row. Raises
    InvalidConfig, before anything is written, for subjects outside
    SUBJECT_RANGE, sessions outside SESSION_RANGE, a negative or non-finite
    class_seconds, null_seconds or noise, and an out_dir that is a file or
    lies under one.
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
              + ",label,subject,session\n")

    paths = []
    for subject in range(1, subjects + 1):
        for session in range(1, sessions + 1):
            order = rng.permutation(np.arange(1, NUM_CLASSES))
            segments = [(0, null_len)]
            for cls in order:
                segments.append((int(cls), class_len))
                segments.append((0, null_len))

            blocks = [header]
            t = 0
            for cls, length in segments:
                steps = (t + np.arange(length)) / RATE_HZ
                phase = rng.uniform(0, 2 * np.pi)
                wave = np.sin(2 * np.pi * freqs[cls] * steps + phase)
                base = dc[cls][None, :] + amp[cls][None, :] * wave[:, None]
                sig = (gain[subject][None, :] * base
                       + offset[subject][None, :]
                       + noise * rng.standard_normal((length, NUM_CHANNELS)))
                row = ("%.3f" + ",%.6f" * NUM_CHANNELS
                       + f",{CLASS_NAMES[cls]},{subject},{session}\n")
                values = np.column_stack([steps, sig]).ravel().tolist()
                blocks.append((row * length) % tuple(values))
                t += length

            path = out_dir / f"s{subject:02d}_sess{session}.csv"
            with open(path, "w") as f:
                f.write("".join(blocks))
            paths.append(path)
    return paths
