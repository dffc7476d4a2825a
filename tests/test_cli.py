import ast
import json
import math
import os
import subprocess
import sys
import time

import pytest

from leocp.cli import main
from leocp.config import ConfigError, load_config, parse_config, stage_seed
from leocp.protocol import DelayProfile

MINI_CONFIG = {
    "seed": 5,
    "shell": {
        "planes": 3,
        "sats_per_plane": 4,
        "inclination_deg": 45.0,
        "altitude_km": 1200.0,
        "phasing_factor": 1,
    },
    "stations": [
        {"name": "a", "latitude_deg": 0.0, "longitude_deg": 0.0},
        {"name": "b", "latitude_deg": 10.0, "longitude_deg": 120.0},
        {"name": "c", "latitude_deg": -20.0, "longitude_deg": -60.0},
    ],
    "topology": {"snapshot_dt_s": 120.0, "min_elevation_deg": 5.0},
    "placement": {"k": 2, "clusters": 3, "method": "cnpa"},
    "assignment": {"sample_dt_s": 120.0, "decide_dt_s": 1.0, "delta": 1.0},
    "protocol": {"type": "seamless", "constant_latency_ms": 5.0},
    "sim": {"duration_s": 3600.0},
}


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINI_CONFIG))
    return str(path)


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_place_writes_solution_with_k_selected(mini_config, tmp_path):
    out = tmp_path / "out"
    assert main(["place", "--config", mini_config, "--out", str(out)]) == 0
    with open(out / "placement.json") as fh:
        sol = json.load(fh)
    assert len(sol["selected_ids"]) == 2
    assert sol["method"] == "cnpa"
    assert sol["objective_km"] > 0
    assert (out / "placement_compare.csv").exists()


def test_all_twice_byte_identical(mini_config, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["all", "--config", mini_config, "--out", str(out1)]) == 0
    assert main(["all", "--config", mini_config, "--out", str(out2)]) == 0
    t1, t2 = read_tree(out1), read_tree(out2)
    assert t1.keys() == t2.keys()
    for name in t1:
        assert t1[name] == t2[name], name


def test_all_builds_fields_and_predicts_schedules_once(mini_config, tmp_path, monkeypatch):
    import leocp.cli
    import leocp.scenario

    calls = {"build_fields": 0, "predict_schedules": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (leocp.cli, leocp.scenario):
        for name in calls:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["all", "--config", mini_config, "--out", str(tmp_path / "once")]) == 0
    assert calls == {"build_fields": 1, "predict_schedules": 1}


def test_flag_overrides_take_precedence(mini_config, tmp_path):
    out = tmp_path / "o"
    assert main(
        ["place", "--config", mini_config, "--out", str(out), "--k", "1",
         "--method", "single", "--seed", "99"]
    ) == 0
    with open(out / "effective_config.json") as fh:
        eff = json.load(fh)
    assert eff["placement"]["k"] == 1
    assert eff["placement"]["method"] == "single"
    assert eff["seed"] == 99
    with open(out / "placement.json") as fh:
        assert len(json.load(fh)["selected_ids"]) == 1


def test_flag_replaces_an_invalid_file_value(tmp_path, capsys):
    path = tmp_path / "bad_k.json"
    path.write_text(json.dumps({**MINI_CONFIG, "placement": {**MINI_CONFIG["placement"], "k": 9}}))
    out = tmp_path / "o"
    assert main(["place", "--config", str(path), "--out", str(out)]) == 2
    assert "placement.k" in capsys.readouterr().err
    assert main(["place", "--config", str(path), "--out", str(out), "--k", "2"]) == 0
    with open(out / "effective_config.json") as fh:
        assert json.load(fh)["placement"]["k"] == 2


@pytest.mark.parametrize(
    "raw,message",
    [({**MINI_CONFIG, "placement": 5}, "placement has wrong type"), ([], "missing required key")],
)
def test_flag_into_a_malformed_config_is_a_config_error(tmp_path, capsys, raw, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["place", "--config", str(path), "--out", str(tmp_path / "o"), "--k", "2"]) == 2
    assert message in capsys.readouterr().err


def test_simulate_writes_records(mini_config, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", mini_config, "--out", str(out), "--trace"]) == 0
    lines = (out / "records.csv").read_text().splitlines()
    assert lines[0].startswith("sat_id,")
    assert (out / "trace.jsonl").exists()


def test_entrypoint_runs_as_module(mini_config, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "leocp.cli", "gen", "--config", mini_config,
         "--out", str(tmp_path / "m")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[gen] 12 satellites" in proc.stdout


def test_stations_from_file(tmp_path):
    stations_path = tmp_path / "stations.json"
    stations_path.write_text(json.dumps(MINI_CONFIG["stations"]))
    cfg_raw = json.loads(json.dumps(MINI_CONFIG))
    cfg_raw["stations"] = {"file": "stations.json"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_raw))
    cfg = load_config(str(cfg_path))
    assert [s.name for s in cfg.stations] == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# config validation


def test_unknown_top_level_key_rejected():
    raw = json.loads(json.dumps(MINI_CONFIG))
    raw["shel"] = raw.pop("shell")
    with pytest.raises(ConfigError, match="shel"):
        parse_config(raw)


def test_unknown_nested_key_rejected():
    raw = json.loads(json.dumps(MINI_CONFIG))
    raw["placement"]["kk"] = 3
    with pytest.raises(ConfigError, match="kk"):
        parse_config(raw)


def test_wrong_type_rejected():
    raw = json.loads(json.dumps(MINI_CONFIG))
    raw["shell"]["planes"] = "six"
    with pytest.raises(ConfigError, match="planes"):
        parse_config(raw)


def test_missing_required_rejected():
    raw = json.loads(json.dumps(MINI_CONFIG))
    del raw["sim"]
    with pytest.raises(ConfigError, match="sim"):
        parse_config(raw)


def test_out_of_range_k_rejected():
    raw = json.loads(json.dumps(MINI_CONFIG))
    raw["placement"]["k"] = 99
    with pytest.raises(ConfigError, match="placement.k"):
        parse_config(raw)


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("protocol", "report_interval_s", 0),  # a report would re-fire at the same t forever
        ("assignment", "decide_dt_s", 0),  # the decision grid would divide by zero
        ("assignment", "decide_dt_s", -1),
        ("protocol", "pods_per_sat", -1),
        ("protocol", "grace_s", -1.0),
        ("placement", "clusters", 0),
        # JSON's NaN and Infinity, each named by its field before it can
        # crash a stage or run on as a nonsense value
        ("sim", "duration_s", math.inf),
        ("protocol", "report_interval_s", math.nan),
        ("protocol.delays", "persist", math.nan),
        ("protocol.delays", "persist", math.inf),
        ("protocol", "grace_s", math.nan),
        ("stations.0", "latitude_deg", math.nan),
        ("protocol", "constant_latency_ms", -5),  # negative message legs
        ("topology", "terrestrial_factor", -1),
        ("topology", "gsl_limit", 0),  # would keep one link, as gsl_limit 1 does
        ("topology", "gsl_limit", -1),
    ],
)
def test_out_of_range_value_rejected(section, key, value):
    raw = json.loads(json.dumps(MINI_CONFIG))
    node = raw
    for part in section.split("."):  # "stations.0" is the first station
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[key] = value
    with pytest.raises(ConfigError, match=key):
        parse_config(raw)


def test_invalid_method_rejected():
    raw = json.loads(json.dumps(MINI_CONFIG))
    raw["placement"]["method"] = "magic"
    with pytest.raises(ConfigError, match="method"):
        parse_config(raw)


def test_bad_delay_override_rejected():
    raw = json.loads(json.dumps(MINI_CONFIG))
    raw["protocol"]["delays"] = {"pod_stop": -1.0}
    with pytest.raises(ConfigError, match="delays"):
        parse_config(raw)


def test_non_finite_delay_rejected_by_delay_profile():
    with pytest.raises(ValueError, match="finite"):
        DelayProfile(persist=math.nan)


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["gen", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_stage_seed_stable():
    assert stage_seed(5, "place") == stage_seed(5, "place")
    assert stage_seed(5, "place") != stage_seed(5, "assign")
    assert stage_seed(5, "place") != stage_seed(6, "place")


def test_delta_flag_flows_into_assignment(mini_config, tmp_path):
    out = tmp_path / "d"
    assert main(
        ["assign", "--config", mini_config, "--out", str(out), "--delta", "0.8"]
    ) == 0
    with open(out / "effective_config.json") as fh:
        assert json.load(fh)["assignment"]["delta"] == 0.8


def test_simulate_legacy_fixture_hits_calibration(tmp_path):
    import csv
    import statistics

    config = os.path.join(
        os.path.dirname(__file__), os.pardir, "configs", "legacy_calibration.json"
    )
    out = tmp_path / "leg"
    assert main(
        ["simulate", "--config", config, "--out", str(out), "--protocol", "legacy"]
    ) == 0
    with open(out / "records.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 2
    mean_d = statistics.mean(float(r["duration_s"]) for r in rows)
    assert mean_d == pytest.approx(8.35, rel=0.10)


def test_overlapping_legacy_handover_names_concurrent_error(tmp_path, capsys):
    # On desk, node 28's network-metric schedule switches at t=779 s and back
    # at t=784 s, while its legacy handover takes about 8 s.
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "desk.json")
    with open(config) as fh:
        raw = json.load(fh)
    raw["assignment"]["metric"] = "network"
    raw["protocol"]["type"] = "legacy"
    path = tmp_path / "desk_network_legacy.json"
    path.write_text(json.dumps(raw))
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "already in flight for node 28" in capsys.readouterr().err


def test_report_budget_stops_tiny_interval_at_once(tmp_path, capsys):
    # 48 sats x 2 h at 1 ms would be 345,600,048 reports
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "desk.json")
    with open(config) as fh:
        raw = json.load(fh)
    raw["protocol"]["report_interval_s"] = 1e-3
    path = tmp_path / "desk_1ms.json"
    path.write_text(json.dumps(raw))
    t0 = time.perf_counter()
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "[simulate] FAILED" in err and "protocol.report_interval_s" in err


def test_json_dump_only_for_indented_files():
    """``json.dump`` encodes in pure Python; a file without ``indent`` is
    written with ``json.dumps`` (the C encoder) or ``write_json_array``."""
    import leocp

    src = os.path.dirname(leocp.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dump"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and not any(kw.arg == "indent" for kw in node.keywords)
            ):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []
