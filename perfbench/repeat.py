"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads train pipeline stream \
        --seeds 1-10 --out .perfbench/summary.json

Each run is a fresh, untraced `run.py` process of BENCHMARK.json's
run_seconds, one after another. For every end-to-end metric the summary
gives the median, the quartiles (statistics.quantiles, n=4) and the spread:
the distance between the quartiles as a share of the median, next to the
bound BENCHMARK.json allows; and the same for the metrics before the canary
rescaling (details.unscaled of each result file).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run; returns its result file: meta, result and details."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = ROOT / ".perfbench" / f"result-{workload}-seed{seed}-trace0.json"
    full = json.loads(path.read_text())
    if full["result"] != result:
        raise SystemExit(f"{workload} seed {seed}: {path} is not this run's")
    return full


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=["train", "pipeline", "stream"])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        failed = 0
        for seed in seeds_from(args.seeds):
            full = run_once(workload, seed, seconds)
            result = full["result"]
            failed += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in full["details"]["unscaled"].items():
                unscaled.setdefault(name, []).append(v)
            print(f"{workload} seed {seed}: failed {result['failed']}",
                  file=sys.stderr, flush=True)
        summary[workload] = {
            "failed": failed,
            "meta": full["meta"],
            "metrics": {name: summarise(v) for name, v in values.items()},
            "unscaled": {name: summarise(v) for name, v in unscaled.items()}}
        print(f"\n{workload} (failed {failed})")
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"bound {bound:.2f} {'ok' if s['spread'] < bound / 3 else 'WIDE'}")
            print(f"  {name:32s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}"
                  f"  q3 {s['q3']:12.5g}  spread {s['spread']:.3f}"
                  f"  unscaled {summary[workload]['unscaled'][name]['spread']:.3f}"
                  f"  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
