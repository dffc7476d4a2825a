#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over distinct seeds.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \\
        --seeds 1-10 [--seconds S] [--out FILE.json]

Runs ``run.py --trace 0`` once per seed and workload, one run after
another, and prints for every end-to-end metric the median, the first
and third quartile (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``, next to the metric's bound from
``BENCHMARK.json``. ``--out`` also writes the values and summaries as
JSON. ``--seconds`` defaults to the benchmark's ``run_seconds``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

import run
from record_digests import parse_seeds


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = run.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload:
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            print(proc.stdout.splitlines()[-2], flush=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        report[workload] = {"attempted": attempted, "failed": failed, "seeds": args.seeds,
                            "values": values}
        for name, vals in values.items():
            s = summary(vals)
            report[workload][name] = s
            print(f"{workload} {name}: median {s['median']:.4f} q1 {s['q1']:.4f} "
                  f"q3 {s['q3']:.4f} spread {s['spread']:.4f} (bound {bounds[name]})",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
