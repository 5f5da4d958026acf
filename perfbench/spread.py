"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--seconds 20] [--trace 0] [--out FILE]

For every metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.  With --out it writes the same
summary, with nproc, the Python version and the commit, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import git_commit  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "commit": git_commit(ROOT), "seconds": seconds,
               "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        values, failed = {}, []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False}
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
            failed.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        rows = {name: summarise(v) for name, v in values.items()}
        summary["workloads"][workload] = {"metrics": rows,
                                          "error_rate": statistics.median(failed)}
        for name, row in rows.items():
            bound = bounds.get(name)
            print(f"  {workload:<12} {name:<32} median {row['median']:<11.5g} "
                  f"spread {row['spread']:.3f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
