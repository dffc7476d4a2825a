"""Golden output digests of ``leocp all`` on the desk config.

Each fixture holds the sha256 of every file the pipeline writes, except
``effective_config.json`` (an echo of the input). ``desk_all`` runs
``configs/desk.json`` as it is; ``desk_network_all`` runs it with
``assignment.metric: "network"``, which reads the distance fields
through the nearest-snapshot lookup in both the sampler and the
simulation's latency model; ``desk_legacy_all`` runs it with
``protocol.type: "legacy"``, whose reports queue while a node rejoins
and complete when it does. The two ``*_trace`` fixtures add
``--trace``, so ``trace.jsonl`` pins every handover step and the order
in which time ties fire: ``desk_legacy_pods3_trace`` runs the legacy
protocol with three pods per satellite (the eviction loop and the pod
resync that runs beside the rejoin); ``desk_legacy_zero_delay_trace``
runs it with two pods, a 0 ms constant latency and every delay 0, so
all steps of a handover share one time and only the queue order
separates them. A refactor that must keep outputs
byte-identical proves it against these digests, not only run to run.
When an output is meant to change, record the new digests from the run
below and say why in the commit.
"""
import hashlib
import json
import os

from leocp.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
UNDIGESTED = {"effective_config.json"}


def output_digests(out_dir):
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name in UNDIGESTED:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_golden(tmp_path, fixture, overrides, extra_args=()):
    with open(os.path.join(ROOT, "configs", "desk.json")) as fh:
        raw = json.load(fh)
    for section, values in overrides.items():
        raw[section].update(values)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["all", "--config", str(config), "--out", str(out), *extra_args]) == 0
    with open(os.path.join(FIXTURES, fixture)) as fh:
        expected = json.load(fh)
    got = output_digests(out)
    assert sorted(got) == sorted(expected)
    mismatched = [name for name in expected if got[name] != expected[name]]
    assert not mismatched, f"outputs differ from the golden digests: {mismatched}"


def test_desk_all_outputs_match_golden_digests(tmp_path):
    check_golden(tmp_path, "desk_all_digests.json", {})


def test_desk_network_all_outputs_match_golden_digests(tmp_path):
    check_golden(tmp_path, "desk_network_all_digests.json", {"assignment": {"metric": "network"}})


def test_desk_legacy_all_outputs_match_golden_digests(tmp_path):
    check_golden(tmp_path, "desk_legacy_all_digests.json", {"protocol": {"type": "legacy"}})


def test_desk_legacy_pods3_trace_matches_golden_digests(tmp_path):
    check_golden(
        tmp_path,
        "desk_legacy_pods3_trace_digests.json",
        {"protocol": {"type": "legacy", "pods_per_sat": 3}},
        ["--trace"],
    )


ZERO_DELAYS = {
    "controller_process": 0.0,
    "persist": 0.0,
    "client_init": 0.0,
    "status_report_process": 0.0,
    "pod_stop": 0.0,
    "pod_start": 0.0,
    "drain_per_pod": 0.0,
    "register": 0.0,
    "legacy_cleanup": 0.0,
}


def test_desk_legacy_zero_delay_trace_matches_golden_digests(tmp_path):
    check_golden(
        tmp_path,
        "desk_legacy_zero_delay_trace_digests.json",
        {
            "protocol": {
                "type": "legacy",
                "pods_per_sat": 2,
                "constant_latency_ms": 0,
                "delays": ZERO_DELAYS,
            }
        },
        ["--trace"],
    )
