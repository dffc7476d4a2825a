"""Golden output digests of ``leocp all`` on the desk config.

Each fixture holds the sha256 of every file the pipeline writes, except
``effective_config.json`` (an echo of the input). ``desk_all`` runs
``configs/desk.json`` as it is; ``desk_network_all`` runs it with
``assignment.metric: "network"``, which reads the distance fields
through the nearest-snapshot lookup in both the sampler and the
simulation's latency model; ``desk_legacy_all`` runs it with
``protocol.type: "legacy"``, whose reports queue while a node rejoins
and complete when it does. The four ``*_trace`` fixtures add
``--trace``, so ``trace.jsonl`` pins every handover step and the order
in which time ties fire: ``desk_seamless_trace`` runs the desk config as
it is; ``desk_seamless_zero_delay_trace`` runs it with a 0 ms constant
latency and every delay 0, so each seamless handover's steps and its
two off-path acks share one time; ``desk_legacy_pods3_trace`` runs the
legacy protocol with three pods per satellite (the eviction loop and the
pod resync that runs beside the rejoin); ``desk_legacy_zero_delay_trace``
runs it with two pods, a 0 ms constant latency and every delay 0, so
all steps of a handover share one time and only the queue order
separates them. The ``desk_twins_gsl1*_snapshot`` fixtures pin the three
files of ``leocp snapshot`` with each station doubled 3 deg N / 2 deg E
and ``topology.gsl_limit: 1``, with the fixed grid and with
``isl_mode: "nearest"``: the one desk variant found where the cap binds
(1,953 -> 1,028 GSL links over the series, 27 % of the satellite-station
pairs unreachable), so the cap, the per-snapshot ISL pairs and the
unreachable entries of the grouped build all reach the writers. A
refactor that must keep outputs
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


def check_golden(tmp_path, fixture, overrides, extra_args=(), command="all"):
    """``overrides`` maps a config section to the values to update it with,
    or to a function returning its replacement."""
    with open(os.path.join(ROOT, "configs", "desk.json")) as fh:
        raw = json.load(fh)
    for section, values in overrides.items():
        if callable(values):
            raw[section] = values(raw[section])
        else:
            raw[section].update(values)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), *extra_args]) == 0
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


def test_desk_seamless_trace_matches_golden_digests(tmp_path):
    check_golden(tmp_path, "desk_seamless_trace_digests.json", {}, ["--trace"])


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


def test_desk_seamless_zero_delay_trace_matches_golden_digests(tmp_path):
    check_golden(
        tmp_path,
        "desk_seamless_zero_delay_trace_digests.json",
        {"protocol": {"constant_latency_ms": 0, "delays": ZERO_DELAYS}},
        ["--trace"],
    )


def with_twins(stations):
    """Each station, then a twin of each 3 deg north and 2 deg east of it."""
    return stations + [
        dict(s, name=f"{s['name']}-twin", latitude_deg=s["latitude_deg"] + 3.0,
             longitude_deg=s["longitude_deg"] + 2.0)
        for s in stations
    ]


def test_desk_twins_gsl1_snapshot_matches_golden_digests(tmp_path):
    check_golden(
        tmp_path,
        "desk_twins_gsl1_snapshot_digests.json",
        {"stations": with_twins, "topology": {"gsl_limit": 1}},
        command="snapshot",
    )


def test_desk_twins_gsl1_nearest_snapshot_matches_golden_digests(tmp_path):
    check_golden(
        tmp_path,
        "desk_twins_gsl1_nearest_snapshot_digests.json",
        {"stations": with_twins, "topology": {"gsl_limit": 1, "isl_mode": "nearest"}},
        command="snapshot",
    )
