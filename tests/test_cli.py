import ast
import gc
import json
import math
import os
import signal
import subprocess
import sys
import time
import weakref

import pytest

from leocp.cli import STAGES, main
from leocp.config import ConfigError, load_config, parse_config, stage_seed
from leocp.errors import BudgetExceeded
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


@pytest.fixture(autouse=True)
def deadline():
    """Fail, instead of hang, a test whose ``leocp all`` waits on a forked
    writer stuck on a pipe end left open.

    After the first alarm it fires again each second, so that a reap
    which then blocks on the stuck child is cut short too.
    """
    seconds = 30

    def expired(signum, frame):
        signal.alarm(1)
        raise TimeoutError(f"test still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


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
    assert gc.get_freeze_count() == 0  # unfrozen on the way out, too
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert all((tmp_path / "out" / name).stat().st_size > 0 for name in SNAPSHOT_FILES)


@pytest.fixture
def held_back_child(monkeypatch):
    """Hold the forked writer back until the parent starts to reap it.

    The child writes ``snapshots.json`` only once the parent calls
    ``os.waitpid``, that is once the parent has taken every file it
    will take. Yields the names of the files the parent wrote.
    """
    import leocp.cli

    parent = os.getpid()
    gate, release = os.pipe()
    taken, released = [], []
    write_snapshots = leocp.cli.write_snapshots_json
    waitpid = os.waitpid

    def held_back(snapshots, path):
        os.close(release)
        os.read(gate, 1)  # EOF once the parent closed its end too
        write_snapshots(snapshots, path)

    def release_child():
        if not released:
            released.append(True)
            os.close(release)

    def reaped(pid, options):
        release_child()
        return waitpid(pid, options)

    def parent_side(name, write):
        def spy(fields, path):
            if os.getpid() == parent:
                taken.append(name)
            write(fields, path)

        return spy

    monkeypatch.setattr(leocp.cli, "write_snapshots_json", held_back)
    monkeypatch.setattr(os, "waitpid", reaped)
    for name, attr in (("fields.json", "write_fields_json"), ("distances.csv", "write_fields_csv")):
        monkeypatch.setattr(leocp.cli, attr, parent_side(name, getattr(leocp.cli, attr)))
    try:
        yield taken
    finally:
        release_child()
        os.close(gate)


def test_parent_writes_the_files_a_held_back_child_has_not_started(
    mini_config, tmp_path, monkeypatch, held_back_child
):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    assert main(["all", "--config", mini_config, "--out", str(tmp_path / "all")]) == 0
    assert held_back_child == ["fields.json", "distances.csv"]
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.undo()
    assert main(["snapshot", "--config", mini_config, "--out", str(tmp_path / "one")]) == 0
    for name in SNAPSHOT_FILES:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize(
    "error,rc", [(BudgetExceeded, 1), (RuntimeError, None)], ids=["failing", "raising"]
)
def test_parent_takes_no_file_after_a_failed_stage(
    mini_config, tmp_path, monkeypatch, held_back_child, error, rc
):
    import leocp.cli

    def broken(*args, **kwargs):
        raise error("assign broke")

    monkeypatch.setattr(leocp.cli, "predict_schedules", broken)
    if rc is None:
        with pytest.raises(error, match="assign broke"):
            main(["all", "--config", mini_config, "--out", str(tmp_path / "out")])
    else:
        assert main(["all", "--config", mini_config, "--out", str(tmp_path / "out")]) == rc
    # the parent took nothing; the child wrote all three once released
    assert held_back_child == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert all((tmp_path / "out" / name).stat().st_size > 0 for name in SNAPSHOT_FILES)


def test_parent_side_write_error_fails_the_run(mini_config, tmp_path, capfd, held_back_child):
    out = tmp_path / "out"
    (out / "fields.json").mkdir(parents=True)
    assert main(["all", "--config", mini_config, "--out", str(out)]) == 1
    # the parent stopped at fields.json; the child, released, wrote the rest
    assert held_back_child == ["fields.json"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    err = capfd.readouterr().err
    assert "[snapshot] FAILED: IsADirectoryError" in err and "exited with status" not in err
    assert (out / "report.json").exists()
    assert all((out / name).stat().st_size > 0 for name in ("snapshots.json", "distances.csv"))


def test_all_drops_the_snapshots_after_the_fork(mini_config, tmp_path, monkeypatch):
    import leocp.cli
    import leocp.placement

    snapshots, alive_at_place = [], []

    def recorded_build(cfg):
        built = build(cfg)
        snapshots.extend(weakref.ref(s) for s in built[1])
        return built

    def spied_cnpa(*args, **kwargs):
        alive_at_place.append(sum(ref() is not None for ref in snapshots))
        return cnpa(*args, **kwargs)

    build, cnpa = leocp.cli.build_fields, leocp.placement.cnpa
    monkeypatch.setattr(leocp.cli, "build_fields", recorded_build)
    monkeypatch.setattr(leocp.placement, "cnpa", spied_cnpa)
    assert main(["all", "--config", mini_config, "--out", str(tmp_path / "out")]) == 0
    assert len(snapshots) > 1 and alive_at_place == [0]
    assert (tmp_path / "out" / "snapshots.json").stat().st_size > 0


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


def test_every_override_flag_reaches_the_effective_config(mini_config, tmp_path):
    # each value differs from the mini config's
    flags = {"seed": 7, "protocol": "legacy", "method": "random", "delta": 0.75, "k": 1, "clusters": 2}
    out = tmp_path / "o"
    argv = [arg for flag, value in flags.items() for arg in (f"--{flag}", str(value))]
    assert main(["gen", "--config", mini_config, "--out", str(out)] + argv) == 0
    with open(out / "effective_config.json") as fh:
        eff = json.load(fh)
    assert {
        "seed": eff["seed"],
        "protocol": eff["protocol"]["type"],
        "method": eff["placement"]["method"],
        "delta": eff["assignment"]["delta"],
        "k": eff["placement"]["k"],
        "clusters": eff["placement"]["clusters"],
    } == flags


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
        # an integer no float holds, named before a stage's float() overflows
        pytest.param("sim", "duration_s", 10**400, id="sim-duration_s-10e400"),
        pytest.param("shell", "altitude_km", 10**400, id="shell-altitude_km-10e400"),
        pytest.param("topology", "snapshot_dt_s", 10**400, id="topology-snapshot_dt_s-10e400"),
        pytest.param("protocol", "report_interval_s", -(10**400), id="protocol-report_interval_s-minus-10e400"),
        pytest.param("protocol", "constant_latency_ms", 10**400, id="protocol-constant_latency_ms-10e400"),
        pytest.param("assignment", "delta", 10**400, id="assignment-delta-10e400"),
        pytest.param("stations.0", "latitude_deg", 10**400, id="stations.0-latitude_deg-10e400"),
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


def test_step_budget_stops_endless_auth_round_trips_at_once(tmp_path, capsys):
    # desk's 96 legacy handovers x 200,019 steps each: refused before the
    # first step, where the engine ran 18.8 s into an overlap error
    with open(DESK_CONFIG) as fh:
        raw = json.load(fh)
    raw["protocol"]["type"] = "legacy"
    raw["protocol"]["delays"] = {"auth_roundtrips": 200_000}
    path = tmp_path / "desk_auth.json"
    path.write_text(json.dumps(raw))
    t0 = time.perf_counter()
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "[simulate] FAILED: 96 handovers x 200019 steps = 19,201,824 handover steps" in err
    assert "over the budget of 10,000,000" in err and "protocol.delays.auth_roundtrips" in err


@pytest.mark.parametrize(
    "section,key,stage",
    [("topology", "snapshot_dt_s", "snapshot"), ("assignment", "decide_dt_s", "assign")],
)
def test_degenerate_tick_grid_is_a_named_budget_error(tmp_path, capsys, section, key, stage):
    # 7200 s every 1e-300 s is about 7e303 ticks: refused before any allocation
    with open(DESK_CONFIG) as fh:
        raw = json.load(fh)
    raw[section][key] = 1e-300
    path = tmp_path / "desk_tiny_dt.json"
    path.write_text(json.dumps(raw))
    assert main([stage, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"[{stage}] FAILED: a grid every 1e-300 s over a 7200.0 s horizon" in err
    assert "over the budget of 10,000,000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        # (6371 + 1e200) ** 3 overflows a float in the mean motion
        ("shell", "altitude_km", 1e200, "config error: shell: altitude_km"),
        # a radius of 6371 - 7000 km would mirror the station through the centre
        ("stations.0", "altitude_m", -7e6, "config error: stations[0]: altitude_m"),
        # the planes' RAANs must fit in one turn: 720 would put planes 0 and
        # 3 of desk's six on one RAAN, 0 all of them, -10 run them backwards
        ("shell", "raan_span_deg", 720.0, "config error: shell: raan_span_deg"),
        ("shell", "raan_span_deg", 0.0, "config error: shell: raan_span_deg"),
        ("shell", "raan_span_deg", -10.0, "config error: shell: raan_span_deg"),
        # visibility compares sines: 170 and -190 would act as 10
        ("topology", "min_elevation_deg", 170.0, "config error: topology.min_elevation_deg"),
        ("topology", "min_elevation_deg", -190.0, "config error: topology.min_elevation_deg"),
        ("topology", "min_elevation_deg", 90.5, "config error: topology.min_elevation_deg"),
        ("topology", "min_elevation_deg", -90.5, "config error: topology.min_elevation_deg"),
    ],
)
def test_geometry_out_of_range_is_a_config_error(tmp_path, capsys, section, key, value, message):
    with open(DESK_CONFIG) as fh:
        raw = json.load(fh)
    node = raw
    for part in section.split("."):  # "stations.0" is the first station
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[key] = value
    path = tmp_path / "desk_bad_geometry.json"
    path.write_text(json.dumps(raw))
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(message), err
    assert not (tmp_path / "out" / "constellation.json").exists()


def test_huge_integer_is_a_config_error(tmp_path, capsys):
    with open(DESK_CONFIG) as fh:
        raw = json.load(fh)
    raw["sim"]["duration_s"] = 10**400
    path = tmp_path / "desk_huge.json"
    path.write_text(json.dumps(raw))
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: sim.duration_s is too large for a float\n"


def _gc_state():
    return gc.get_freeze_count(), gc.isenabled()


def _run_all(tmp_path, config):
    return main(["all", "--config", config, "--out", str(tmp_path / "out")])


def _run_all_failing_in_simulate(tmp_path, config):
    with open(DESK_CONFIG) as fh:
        raw = json.load(fh)
    raw["protocol"]["report_interval_s"] = 1e-3  # BudgetExceeded
    path = tmp_path / "desk_1ms.json"
    path.write_text(json.dumps(raw))
    return _run_all(tmp_path, str(path))


def _run_all_with_failing_writer(tmp_path, config):
    (tmp_path / "out" / "snapshots.json").mkdir(parents=True)
    return _run_all(tmp_path, config)


PIPELINE_RUNS = pytest.mark.parametrize(
    "run,rc",
    [
        (_run_all, 0),
        (_run_all_failing_in_simulate, 1),
        (_run_all_with_failing_writer, 1),
    ],
    ids=["ok", "failing-stage", "failing-writer"],
)


@PIPELINE_RUNS
def test_pipeline_leaves_the_gc_state_as_it_found_it(mini_config, tmp_path, monkeypatch, run, rc):
    frozen_at_fork = []
    fork = os.fork

    def spied_fork():
        frozen_at_fork.append(gc.get_freeze_count())
        return fork()

    monkeypatch.setattr(os, "fork", spied_fork)
    before = _gc_state()
    assert before[0] == 0
    assert run(tmp_path, mini_config) == rc
    assert _gc_state() == before
    # the start-up heap was frozen when the writer forked
    assert len(frozen_at_fork) == 1 and frozen_at_fork[0] > 0


@PIPELINE_RUNS
def test_pipeline_leaks_no_file_descriptor(mini_config, tmp_path, run, rc):
    before = sorted(os.listdir("/proc/self/fd"))
    assert run(tmp_path, mini_config) == rc
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_pipeline_keeps_a_callers_frozen_heap_and_disabled_gc(mini_config, tmp_path):
    sentinel = [[]]
    gc.freeze()
    gc.disable()
    try:
        frozen, enabled = _gc_state()
        assert frozen > 0 and not enabled
        assert main(["all", "--config", mini_config, "--out", str(tmp_path)]) == 0
        # still frozen (a frozen object is in no generation), and nothing more
        # was; the count drops by whatever frozen objects the run freed
        assert not any(obj is sentinel for obj in gc.get_objects())
        assert 0 < gc.get_freeze_count() <= frozen
        assert not gc.isenabled()
    finally:
        gc.enable()
        gc.unfreeze()


def test_json_dump_only_for_indented_files():
    """``json.dump`` encodes in pure Python; a file without ``indent`` is
    written with ``json.dumps`` (the C encoder) or ``leocp.numtext``."""
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
