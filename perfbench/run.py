"""Run one workload of the edgefit benchmark and print its metrics.

    python3 perfbench/run.py --workload train --seed 0 --seconds 10 --trace 0

Run it from anywhere inside a checkout of the repository; it imports edgefit
from the checkout's src/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the workload runs once
untraced and once traced, and the metrics are the per-layer ones. Scratch
files, the full result with its host metadata, and the spans of a traced
run go under .perfbench/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

THREADS = 1       # BLAS and edgefit threads; steadier than 2 on a shared host
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "EDGEFIT_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "pipeline", "stream"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "edgefit" / "__init__.py").is_file():
        print(f"error: no edgefit sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:       # before numpy loads its BLAS
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(src))

    import hostinfo
    import workloads

    out_dir = ROOT / ".perfbench"
    result, details = workloads.execute(
        args.workload, args.seed, args.seconds, bool(args.trace),
        str(out_dir), THREADS)
    meta = hostinfo.collect(ROOT, args.workload, args.seed, args.seconds,
                            workloads.model.ModelConfig(width=workloads.FULL.width))
    with open(out_dir / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w") as f:
        json.dump({"meta": meta, "result": result, "details": details}, f,
                  indent=1)
    print(json.dumps({"meta": meta}))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"ops attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
