"""Full-scale daily-overhead reproduction. Long-running; excluded from
the default run. Invoke with:

    pytest tests/test_fullscale.py -m slow -s

Expected wall time is about 30 seconds on a 2-core machine: every
handover is replayed in bulk, and the status reports are derived in bulk
afterwards. The full-day schedule digests (``-k schedule``) take about
2 seconds: the geometric Starlink one about 1.0, nearly all of it in the
block-wise lockstep prediction, and the network-metric one about 1.1. The
distance-field digests (``-k fields``) take about 3 seconds; the report,
records and constellation digests (``-k report``), one full ``leocp all``
run, about 5 seconds; the Kuiper and OneWeb
``leocp all`` digests (``-k "kuiper or oneweb"``) about 4 and 2 seconds;
the seamless and three-pod legacy variants of the Starlink day, on
snapshot latencies (``-k protocol``), about 6 seconds each.
"""
import hashlib
import json
import os
import statistics
import time
from dataclasses import replace

import pytest

from leocp.assignment import AssignmentParams
from leocp.cli import main
from leocp.config import load_config, parse_config
from leocp.orbits import GroundStation, WalkerShell, generate_constellation
from leocp.protocol import ConstantLatency, Protocol
from leocp.scenario import ScenarioSpec, build_fields, predict_schedules, run_scenario
from leocp.topology import write_fields_csv, write_fields_json

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.mark.slow
def test_starlink_daily_schedule_digest():
    # the full-day Starlink prediction, pinned byte for byte: the digest is
    # of ``schedule.json`` as ``leocp assign`` writes it. The geometric
    # metric needs the elements only, not the distance fields.
    spec = load_config(os.path.join(CONFIGS, "starlink_fullscale.json"))
    spec = replace(spec, controllers=[0, 1])
    schedules = predict_schedules(spec, generate_constellation(spec.shell), None)
    data = json.dumps(
        {str(sat): {"initial": s.initial, "events": s.events} for sat, s in schedules.items()},
        sort_keys=True,
    )
    assert sum(s.count for s in schedules.values()) == 44_586
    assert hashlib.sha256((data + "\n").encode()).hexdigest() == (
        "e64c44271f4d9b53668d050f6599953276d8bfabe96db2bd4c4f369028f1ba7c"
    )


@pytest.mark.slow
def test_walker_network_daily_schedule_digest():
    # a full-day prediction on the network metric, pinned byte for byte as
    # ``leocp assign`` writes ``schedule.json``: three controllers, delta
    # 0.9, and the shortest-path distances of the 36 x 36 shell's snapshots
    # every 5 minutes, where the other full-day digests are geometric with
    # two controllers and delta 1.0
    with open(os.path.join(CONFIGS, "kuiper_fullscale.json")) as fh:
        raw = json.load(fh)
    raw["stations"] = [
        {"name": "quito", "latitude_deg": -0.2, "longitude_deg": -78.5},
        {"name": "nairobi", "latitude_deg": -1.3, "longitude_deg": 36.8},
        {"name": "singapore", "latitude_deg": 1.35, "longitude_deg": 103.8},
    ]
    raw["assignment"].update(metric="network", delta=0.9)
    spec = replace(parse_config(raw), controllers=[0, 1, 2])
    assert spec.snapshot_dt_s == 300.0 and spec.duration_s == 86400.0
    elements, _, fields = build_fields(spec)
    schedules = predict_schedules(spec, elements, fields)
    data = json.dumps(
        {str(sat): {"initial": s.initial, "events": s.events} for sat, s in schedules.items()},
        sort_keys=True,
    )
    assert sum(s.count for s in schedules.values()) == 39_949
    assert hashlib.sha256((data + "\n").encode()).hexdigest() == (
        "33a60d2f0502b0f5606258a7c1a03836ca450eb1b3c879116a5004af9ff24bf6"
    )


@pytest.mark.slow
def test_starlink_daily_fields_digest(tmp_path):
    # the full-day Starlink distance fields, pinned byte for byte as
    # ``leocp snapshot`` writes ``fields.json`` and ``distances.csv``
    spec = load_config(os.path.join(CONFIGS, "starlink_fullscale.json"))
    fields = build_fields(spec)[2]
    assert fields.d.shape == (289, 1584, 2)
    write_fields_json(fields, tmp_path / "fields.json")
    write_fields_csv(fields, tmp_path / "distances.csv")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("fields.json", "distances.csv")
    }
    assert digests == {
        "fields.json": "1f32787d93b6d3609da943338037ecae60c8cc2d7544c863c789da3129ddf1c8",
        "distances.csv": "fae2c18dbf49f5e25f41000d3181562d77920e9f179859cdebbfd912b4f7d960",
    }


@pytest.mark.slow
def test_starlink_daily_report_records_and_constellation_digests(tmp_path):
    # ``leocp all`` on the full-day Starlink config: the files whose writers
    # bypass ``json.dump`` (report.json, constellation.json) or are derived
    # from the simulation (records.csv), the snapshot-stage files that
    # either the forked writer or the parent writes (fields.json,
    # distances.csv, the digests ``test_starlink_daily_fields_digest``
    # pins, and snapshots.json), and the CDF files (the latency CDF's
    # fractions go down to 1/2,282,544), pinned byte for byte
    out = tmp_path / "out"
    assert main(["all", "--config", os.path.join(CONFIGS, "starlink_fullscale.json"),
                 "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.json", "records.csv", "constellation.json", "fields.json",
                     "distances.csv", "snapshots.json", "cdf_report_latency_ms.csv",
                     "cdf_handover_duration_s.csv")
    }
    assert digests == {
        "report.json": "5c7d6a6c2dddd85a48143809d21e767851d744d649838a2cff49e63700773d0f",
        "records.csv": "8770a374783a7bc1c003bc9fbdfdbd64f134fdc8df04fb38717e1f985dfbf95b",
        "constellation.json": "f348bb56a95f9ae25b732280e26b62be4c7dafe8f8b4e4c40f5a049c1a5f8e6f",
        "fields.json": "1f32787d93b6d3609da943338037ecae60c8cc2d7544c863c789da3129ddf1c8",
        "distances.csv": "fae2c18dbf49f5e25f41000d3181562d77920e9f179859cdebbfd912b4f7d960",
        "snapshots.json": "ef039d649883b025ef1f0f69388fa3ede507e599c64225bf667bab798c60a9ab",
        "cdf_report_latency_ms.csv":
            "c132f00f55992e6d6ccc6b61cf0bd7c7b11ed0d3814bf87dc07091e18020c8f1",
        "cdf_handover_duration_s.csv":
            "b5f2872b92d69acc43e49f3c60ab6a31452c7efdb72b6226cbf512a41ba05d60",
    }


# ``leocp all`` outputs of the full-day Kuiper (36 x 36 delta shell) and
# OneWeb (87.9 degree star pattern, 180 degree RAAN span) configs, which
# cover grid shapes and a seam the Starlink config does not; their
# ``fields.json`` and ``distances.csv`` pin the day's Dijkstra fields on
# two more graph sizes, so on two more snapshot group sizes
DAILY_ALL_DIGESTS = {
    "kuiper": {
        "constellation.json": "ffc537ab946b43df1859a6e5dc619e3ec421fc2904a6c75b36ab25464978dbe5",
        "fields.json": "ea144c79863459acc6bbf849ecf871163ae65c7bd4b5bbda06866252a3cefca6",
        "distances.csv": "3284a8a4b7914cdd2067802443dc56ced4e099f6a1cc2cf7e2dc0204aef5e330",
        "snapshots.json": "895e830bac755e9b8931c3aa3569592afdc6b6304ee1c73d10500bf997a1d650",
        "schedule.json": "d049699b2907bcec96012d02d73a56cbf2de05e697a22324835e719b83908e0e",
        "records.csv": "22a24d4acd0b87e4acc817ca9259ee3d2eec6d180f5cadf0032e325936ae7c7d",
        "report.json": "ac777017a08d62d19edf537bc380c0274c8339523957863177c677d4f8338697",
    },
    "oneweb": {
        "constellation.json": "ddbac86603f5cd4064b3cdf614a3864ae4a5ba9a762769bfb733896dc9bcc1e3",
        "fields.json": "6eca106b0dd389b84c57cb43cac9f3cb8e1544a8d2f357ce525c509c4e989d19",
        "distances.csv": "1c1810ac0b676fe6985082433db308471ce4e44f7efd2e968dff1866ff4ce8c2",
        "snapshots.json": "3a7158bdd90d486eded846a54deca7e86a5ffb960afe8afa1677e42b0ca9d63f",
        "schedule.json": "16fc0d6239b84290bb70c08feafddba8724817f03867f44187d274be5c73ef7c",
        "records.csv": "603550e096e607b9e54ae3709bb1bf99bea86dfd61d3039ccfe916e17ef96f5a",
        "report.json": "22371bd78391aaab7fa5df37935262f7b8dc359bfeceb779bdc91d41a7b01f2b",
    },
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(DAILY_ALL_DIGESTS))
def test_daily_all_digests(name, tmp_path):
    out = tmp_path / "out"
    config = os.path.join(CONFIGS, f"{name}_fullscale.json")
    assert main(["all", "--config", config, "--out", str(out)]) == 0
    expected = DAILY_ALL_DIGESTS[name]
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in expected} == expected


# ``leocp all`` on the full-day Starlink config with its ``protocol`` block
# replaced: no constant latency, so every leg reads the snapshot fields
DAILY_PROTOCOL_DIGESTS = {
    "seamless": (
        {"type": "seamless", "report_interval_s": 60.0},
        {
            "records.csv": "480882915c20f30954102d4c86e2ef0d1e63439dbd4ba83fc55f0af0c8e987b0",
            "report.json": "eda5ffd0177519e305708292ab3e00decaa6ac49ec35159e9343185f6d5d056c",
        },
    ),
    "legacy-3-pods": (
        {"type": "legacy", "report_interval_s": 60.0, "pods_per_sat": 3},
        {
            "records.csv": "e401b48ee8e4717e06a218c92b8aa283524a95829fd4dff8de0671342303695c",
            "report.json": "6465a59452719069b610035e149455063e290aa6b28b88b5718b357982d81f6f",
        },
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(DAILY_PROTOCOL_DIGESTS))
def test_starlink_daily_protocol_digests(name, tmp_path):
    protocol, expected = DAILY_PROTOCOL_DIGESTS[name]
    with open(os.path.join(CONFIGS, "starlink_fullscale.json")) as fh:
        raw = json.load(fh)
    raw["protocol"] = protocol
    config = tmp_path / "starlink.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in expected} == expected


@pytest.mark.slow
def test_starlink_daily_handover_overhead():
    t0 = time.time()
    shell = WalkerShell(72, 22, 53.0, 550.0, phasing_factor=1)
    stations = [
        GroundStation(0, "equator-0", 0.0, 0.0),
        GroundStation(1, "equator-180", 0.0, 180.0),
    ]
    spec = ScenarioSpec(
        shell=shell,
        stations=stations,
        controllers=[0, 1],
        duration_s=86400.0,
        snapshot_dt_s=300.0,
        assignment=AssignmentParams(
            horizon_s=86400.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0
        ),
        metric="geometric",
        protocol=Protocol.LEGACY,
        latency_model=ConstantLatency(25.0),
        report_interval_s=60.0,
    )
    result = run_scenario(spec)
    n_sats = shell.total_sats
    per_sat = len(result.records) / n_sats
    mean_duration = statistics.mean(r.duration for r in result.records)
    total_invis_h = sum(r.invisibility for r in result.records) / 3600.0
    total_unavail_h = sum(r.pod_unavailability for r in result.records) / 3600.0
    print(
        f"\nfull-scale: {len(result.records)} handovers "
        f"({per_sat:.1f}/sat/day), mean duration {mean_duration:.2f}s, "
        f"invisibility {total_invis_h:.1f}h, pod unavailability {total_unavail_h:.1f}h, "
        f"wall {time.time() - t0:.0f}s"
    )
    # ~28 handovers per satellite per day, +-20%
    assert per_sat == pytest.approx(28.0, rel=0.20)
    # total count lands in the tens of thousands, same order as the
    # published daily total of 44,287
    assert 10_000 <= len(result.records) <= 100_000
