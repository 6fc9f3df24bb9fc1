"""Run-to-run spread of the benchmark over seeds.

    python3 bench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]

Runs bench/run.py once per seed, one run at a time, and prints for each
metric its values, median and (Q3 - Q1) / median, with the quartiles that
statistics.quantiles(values, n=4) gives. Compare the spread with the
metric's bound in BENCHMARK.json before trusting a difference between two
commits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - started
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            continue
        result = json.loads(last)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        median = statistics.median(series)
        if len(series) < 2 or median == 0:
            print(f"{name:<28} median {median:.6g} n={len(series)}")
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        print(f"{name:<28} median {median:.6g} iqr/median {(q3 - q1) / median:.4f} "
              f"n={len(series)} values {[round(v, 4) for v in series]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
