#!/usr/bin/env python3
"""Pipeline benchmark for ``leocp all``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: invocations of ``leocp all`` run one
after another, each in a fresh interpreter (``invoke.py``) as a CLI call
would, on the config ``workloads.py`` makes from the seed. No new
invocation starts once it would end after ``--seconds``; at least one
always runs. Each invocation's output files are hashed and checked
against ``reference_digests.json``.

``--trace 0`` prints the end-to-end metrics, each a median:
``pipeline_s`` (wall time of ``run_pipeline``), ``peak_rss_mb`` (peak
resident memory of the invocation's process) and ``setup_s`` (a fresh
interpreter importing numpy, scipy and ``leocp.cli`` and parsing the
config, timed from outside). ``--trace 1`` alternates untraced and
traced invocations and prints the per-layer metrics, medians over the
traced ones; the spans go to ``perfbench/.work/<run>/spans-<i>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An invocation
fails if it exits non-zero, ``run_pipeline`` returns non-zero, or a file
it writes has a sha256 other than the reference; ``failed / attempted``
is the failed fraction. The metric names and units come from
``BENCHMARK.json``.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference_digests.json")
SETUP_REPEATS = 7
INVOKE_TIMEOUT_S = 150
UNDIGESTED = {"effective_config.json"}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy
import scipy.sparse.csgraph
import leocp.cli
leocp.cli.load_config(sys.argv[2])
"""


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure_setup(config_path):
    """Wall time of one fresh interpreter importing leocp and parsing the config."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, config_path],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=INVOKE_TIMEOUT_S,
    )
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up interpreter exited {proc.returncode}: {proc.stderr.strip()}")
    return dt


def digests(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name in UNDIGESTED:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def invoke(config_path, out_dir, spans_path=None):
    """One invocation: (invoke.py's result, output digests); digests None on failure."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "invoke.py"), config_path, out_dir]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=INVOKE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: invocation timed out after {INVOKE_TIMEOUT_S} s", file=sys.stderr)
        return None, None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"perfbench: invocation exited {proc.returncode}", file=sys.stderr)
        return None, None
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["rc"] != 0:
        print(f"perfbench: run_pipeline returned {result['rc']}", file=sys.stderr)
        return result, None
    return result, digests(out_dir)


class DigestCheck:
    """Compares each invocation's digests with the recorded reference.

    Files whose digest is the same for every recorded seed are checked
    for any seed. The seed-dependent ones are checked against the
    seed's own record; for a seed without one, they must at least agree
    between the invocations of this run.
    """

    def __init__(self, workload, seed):
        with open(REFERENCE) as fh:
            ref = json.load(fh)[workload]
        self.common = ref["common"]
        self.varying = sorted({n for d in ref["by_seed"].values() for n in d})
        self.expected = dict(self.common)
        recorded = ref["by_seed"].get(str(seed))
        if recorded is None:
            print(f"perfbench: seed {seed} has no recorded digests; "
                  f"{len(self.varying)} seed-dependent files are checked for "
                  "repeatability only", file=sys.stderr)
        else:
            self.expected.update(recorded)

    def ok(self, got):
        if got is None:
            return False
        bad = []
        for name in sorted(set(got) | set(self.common) | set(self.varying)):
            if name not in self.common and name not in self.varying:
                bad.append(name)  # a file the reference does not have
            elif self.expected.setdefault(name, got.get(name)) != got.get(name):
                bad.append(name)
        for name in bad:
            print(f"perfbench: output {name} differs from the reference", file=sys.stderr)
        return not bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "leocp", "cli.py")):
        fail(f"no leocp sources under {SRC}")
    spec = load_spec()
    check = DigestCheck(args.workload, args.seed)

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(WORKLOADS[args.workload](ROOT, args.seed), fh, indent=2)
    out_dir = os.path.join(run_dir, "out")

    setup_s = statistics.median(measure_setup(config_path) for _ in range(SETUP_REPEATS))

    plain, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        modes = [None, os.path.join(run_dir, f"spans-{len(traced)}.json")][: args.trace + 1]
        for spans_path in modes:
            result, got = invoke(config_path, out_dir, spans_path)
            attempted += 1
            failed += not check.ok(got)
            if result is not None:
                (traced if spans_path else plain).append(result)
        last = time.perf_counter() - t_iter
        if time.perf_counter() - start + last > args.seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    if not plain or (args.trace and not traced):
        fail(f"no invocation completed ({failed} of {attempted} failed)")

    metrics = {
        "pipeline_s": statistics.median(r["seconds"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": setup_s,
    }
    if args.trace:
        # median_low: the middle invocation's own value, so counts stay whole
        for name in traced[0]["metrics"]:
            metrics[name] = statistics.median_low(r["metrics"][name] for r in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(r["seconds"] for r in traced) - metrics["pipeline_s"]
        )
    print(f"{args.workload} seed={args.seed}: {attempted} invocations, "
          f"failed_frac={failed / attempted:.3f}, pipeline_s "
          f"{', '.join(format(r['seconds'], '.3f') for r in plain)}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
