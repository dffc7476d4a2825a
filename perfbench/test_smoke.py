"""Smoke test of the benchmark itself on the tiny 4x4 shell.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SRC)
from tracer import Tracer  # noqa: E402

# Self times are differences of clock readings; allow float rounding.
EPS = 1e-9


def bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "0",
           "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_prints_with_its_unit(trace, kind):
    proc = bench("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in run.load_spec()[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if name.endswith(".self_s"):
            assert m["value"] >= -EPS, name


def test_spans_nest_and_self_times_are_not_negative():
    proc = bench("--trace", "1")
    assert proc.returncode == 0, proc.stderr
    run_dir = os.path.join(run.WORK, "tiny-seed0-trace1")
    paths = [os.path.join(run_dir, n) for n in os.listdir(run_dir) if n.startswith("spans-")]
    assert paths
    for path in paths:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        assert {s["name"] for s in spans} >= {"cli.run_pipeline", "protocol.run"}
        for s in spans:
            assert s["start"] <= s["end"]
            assert s["self_s"] >= -EPS, s
            if s["parent"] is not None:
                p = spans[s["parent"]]
                assert p["start"] <= s["start"] and s["end"] <= p["end"], (p, s)


def test_tracer_restores_the_originals():
    import leocp.cli
    import leocp.protocol

    before = (leocp.cli.build_fields, leocp.cli.run_pipeline,
              vars(leocp.protocol.Simulation)["schedule"])
    with Tracer() as tracer:
        assert leocp.cli.build_fields is not before[0]
    after = (leocp.cli.build_fields, leocp.cli.run_pipeline,
             vars(leocp.protocol.Simulation)["schedule"])
    assert after == before
    assert not tracer._patches


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
