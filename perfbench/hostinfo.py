"""Host, build and model metadata recorded with every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np

from edgefit import model, platform_model


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of a checkout that has a .git directory; None otherwise."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = root / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    """sha256 over src/edgefit/*.py, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "edgefit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path, workload: str, seed: int, seconds: float,
            config: model.ModelConfig) -> dict:
    pinned = {k: v for k, v in sorted(os.environ.items())
              if k.endswith("_NUM_THREADS") or k in
              ("EDGEFIT_THREADS", "VECLIB_MAXIMUM_THREADS")}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": pinned,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "macs": {
            "count_macs_total": model.count_macs(config).total,
            "paper_gap8_profile": platform_model.GAP8_MACS,
            "paper_cortex_profile": platform_model.CORTEX_MACS,
        },
    }
