#!/usr/bin/env python3
"""One ``leocp all`` invocation in a fresh interpreter, as the CLI makes it.

    python3 perfbench/invoke.py CONFIG OUT_DIR [--spans SPANS_JSON]

Imports leocp from this checkout's ``src/``, parses CONFIG and times
``leocp.cli.run_pipeline(cfg, "all", OUT_DIR)``. Prints one JSON line:
the pipeline's wall seconds, its return code and the process's peak
resident memory. With ``--spans`` the invocation is traced: the line
also carries the per-layer metrics, and the spans go to SPANS_JSON.
"""
import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import scipy.sparse.csgraph  # noqa: F401  (leocp loads it lazily; keep it out of the timing)
    import leocp.cli
    import leocp.config

    if os.path.dirname(os.path.abspath(leocp.__file__)) != os.path.join(SRC, "leocp"):
        sys.exit(f"imported leocp from {leocp.__file__}, not from {SRC}")
    with open(args.config) as fh:
        raw = json.load(fh)

    tracer = contextlib.nullcontext()
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
    with tracer:
        cfg = leocp.config.parse_config(raw)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = leocp.cli.run_pipeline(cfg, "all", args.out)
            seconds = time.perf_counter() - t0

    result = {
        "seconds": seconds,
        "rc": rc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.spans:
        trace = tracer.to_dict()
        result["metrics"] = trace["metrics"]
        with open(args.spans, "w") as fh:
            json.dump(trace, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
