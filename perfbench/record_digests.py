#!/usr/bin/env python3
"""Record the reference output digests the benchmark checks against.

    python3 perfbench/record_digests.py --workload NAME [--workload NAME ...] --seeds 0-15

Runs ``leocp all`` once per seed on this checkout's sources and rewrites
those seeds in ``reference_digests.json``. Files whose digest is the
same for every recorded seed of a workload go under ``common``; the
rest go under ``by_seed``, so record at least two seeds per workload.
Record only from a commit whose outputs are known to be right: later
commits are checked against these digests.
"""
import argparse
import json
import os
import sys

import run
from workloads import WORKLOADS


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def split(per_seed):
    """{seed: {file: sha}} -> {"common": {...}, "by_seed": {seed: {...}}}."""
    first = next(iter(per_seed.values()))
    common = {
        name: sha for name, sha in first.items()
        if all(d.get(name) == sha for d in per_seed.values())
    }
    by_seed = {
        seed: {n: sha for n, sha in d.items() if n not in common}
        for seed, d in sorted(per_seed.items(), key=lambda kv: int(kv[0]))
    }
    return {"common": common, "by_seed": by_seed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-15 or 1,4,9")
    args = parser.parse_args(argv)

    refs = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            refs = json.load(fh)
    work = os.path.join(run.WORK, "record")
    os.makedirs(work, exist_ok=True)
    config_path = os.path.join(work, "config.json")
    for workload in args.workload:
        old = refs.get(workload, {"common": {}, "by_seed": {}})
        per_seed = {s: {**old["common"], **d} for s, d in old["by_seed"].items()}
        for seed in parse_seeds(args.seeds):
            with open(config_path, "w") as fh:
                json.dump(WORKLOADS[workload](run.ROOT, seed), fh)
            result, got = run.invoke(config_path, os.path.join(work, "out"))
            if got is None:
                sys.exit(f"{workload} seed {seed}: leocp all failed")
            per_seed[str(seed)] = got
            print(f"{workload} seed {seed}: {len(got)} files in {result['seconds']:.2f} s",
                  flush=True)
        refs[workload] = split(per_seed)
    with open(run.REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
