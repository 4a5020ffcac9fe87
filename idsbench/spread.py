#!/usr/bin/env python3
"""Runs idsbench once per seed and reports each metric's median and spread.

From the root of a checkout:

    python3 idsbench/spread.py --workload scorecard --seeds 1 2 3 4 5 \\
        [--seconds S] [--trace 0|1]

The spread is the distance between the first and third quartile as a share
of the median (statistics.quantiles(values, n=4)). --seconds defaults to
run_seconds from BENCHMARK.json, and each metric is compared with a third
of its bound there.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import benchstats  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    config = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    values = {}
    for seed in args.seeds:
        cmd = ["python3", str(BENCH_DIR / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "failed": result["failed"], "metrics": row}),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    for name, series in values.items():
        spread = benchstats.spread(series)
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "ok" if spread < bound / 3 else "ABOVE bound/3")
        print(f"{name:28s} median {benchstats.median(series):.6g}  "
              f"spread {spread:.4f}  bound {bound}  {verdict}")


if __name__ == "__main__":
    main()
