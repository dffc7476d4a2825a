import ast
import json
import math
import os
import subprocess
import sys
import time

import pytest

from leocp.cli import STAGES, main
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


SNAPSHOT_FILES = ("snapshots.json", "fields.json", "distances.csv")
DESK_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "desk.json")


def test_all_hands_every_placement_solve_the_one_distance_array(tmp_path, monkeypatch):
    import leocp.cli
    import leocp.placement

    built, seen = [], {}

    def spy(name, fn, fields_of):
        def wrapper(*args, **kwargs):
            seen.setdefault(name, []).append(fields_of(args))
            return fn(*args, **kwargs)

        return wrapper

    def recorded_build(cfg):
        built.append(build(cfg))
        return built[-1]

    build = leocp.cli.build_fields
    monkeypatch.setattr(leocp.cli, "build_fields", recorded_build)
    monkeypatch.setattr(leocp.placement, "cnpa", spy("cnpa", leocp.placement.cnpa,
                                                     lambda args: args[0].fields))
    for name in ("random_select", "best_single", "exhaustive_optimal"):
        fn = getattr(leocp.placement, name)
        monkeypatch.setattr(leocp.placement, name, spy(name, fn, lambda args: args[0]))
    assert main(["all", "--config", DESK_CONFIG, "--out", str(tmp_path / "all")]) == 0
    assert len(built) == 1
    assert seen.keys() == {"cnpa", "random_select", "best_single", "exhaustive_optimal"}
    assert all(d is built[0][2].d for calls in seen.values() for d in calls)


def test_all_forks_one_snapshot_writer(tmp_path, capfd, monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    assert main(["all", "--config", DESK_CONFIG, "--out", str(tmp_path / "all")]) == 0
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # the child ran no later stage: each stage reported once
    out = capfd.readouterr().out
    assert [line.split("]")[0] + "]" for line in out.splitlines()] == [
        f"[{name}]" for name in STAGES
    ]
    monkeypatch.setattr(os, "fork", fork)
    assert main(["snapshot", "--config", DESK_CONFIG, "--out", str(tmp_path / "one")]) == 0
    for name in SNAPSHOT_FILES:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize(
    "stages,flags",
    [(STAGES, []), (["simulate"], ["--protocol", "legacy", "--trace"])],
    ids=["every-stage", "legacy-traced-simulate"],
)
def test_each_stage_alone_writes_the_bytes_all_writes(tmp_path, stages, flags):
    # a stage recomputes its prerequisites instead of reading earlier files
    args = ["--config", DESK_CONFIG, *flags]
    assert main(["all", *args, "--out", str(tmp_path / "all")]) == 0
    everything = read_tree(tmp_path / "all")
    for stage in stages:
        assert main([stage, *args, "--out", str(tmp_path / stage)]) == 0
        alone = read_tree(tmp_path / stage)
        assert len(alone) > 1, stage  # more than effective_config.json
        for name, data in alone.items():
            assert data == everything[name], (stage, name)
    if flags:
        assert "trace.jsonl" in alone


def test_snapshot_alone_writes_in_process(mini_config, tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a single stage forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["snapshot", "--config", mini_config, "--out", str(tmp_path / "s")]) == 0
    assert all((tmp_path / "s" / name).stat().st_size > 0 for name in SNAPSHOT_FILES)


def test_failed_snapshot_writer_fails_the_run(mini_config, tmp_path, capfd):
    out = tmp_path / "out"
    (out / "snapshots.json").mkdir(parents=True)
    assert main(["all", "--config", mini_config, "--out", str(out)]) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    err = capfd.readouterr().err
    assert "[snapshot] FAILED" in err and "exited with status 1" in err
    assert "IsADirectoryError" in err
    assert (out / "report.json").exists()  # the later stages ran on


def test_writer_reaped_when_a_later_stage_raises(mini_config, tmp_path, monkeypatch):
    import leocp.cli

    def broken(*args, **kwargs):
        raise RuntimeError("assign broke")

    monkeypatch.setattr(leocp.cli, "predict_schedules", broken)
    with pytest.raises(RuntimeError, match="assign broke"):
        main(["all", "--config", mini_config, "--out", str(tmp_path / "out")])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert all((tmp_path / "out" / name).stat().st_size > 0 for name in SNAPSHOT_FILES)


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


def _with_stations(stations):
    return json.dumps({**MINI_CONFIG, "stations": stations})


_STATIONS_FILE = _with_stations({"file": "stations.json"})


@pytest.mark.parametrize(
    "files,message",
    [  # file name -> text, bytes, or None for a directory; gen reads cfg.json
        ({"cfg.json": _with_stations([5])}, "stations[0] must be an object"),
        ({"cfg.json": _STATIONS_FILE, "stations.json": "[1, 2]"}, "stations[0] must be an object"),
        ({"cfg.json": _STATIONS_FILE, "stations.json": "{not json"}, "stations.file"),
        ({"cfg.json": _STATIONS_FILE, "stations.json": None}, "stations.file"),
        ({"cfg.json": None}, "cfg.json is not readable"),
        ({"cfg.json": b'{"seed": "\xff\xfe"}'}, "cfg.json is not readable"),
        ({"cfg.json": json.dumps(MINI_CONFIG), "out": "a regular file"}, "cannot write to"),
    ],
    ids=["station-entry-int", "stations-file-of-ints", "stations-file-not-json",
         "stations-file-directory", "config-directory", "config-not-utf8", "out-is-a-file"],
)
def test_unusable_input_or_output_is_one_named_line(tmp_path, capsys, files, message):
    for name, content in files.items():
        if content is None:
            (tmp_path / name).mkdir()
        elif isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    assert main(["gen", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err


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
    # the snapshot writer the aborted run forked was reaped, and finished
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert main(["snapshot", "--config", str(path), "--out", str(tmp_path / "serial")]) == 0
    for name in SNAPSHOT_FILES:
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


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
