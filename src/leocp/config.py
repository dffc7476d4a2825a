"""Scenario configuration: strict JSON schema with named-field errors.

Unknown keys are rejected everywhere; a silent typo in a scientific
config is worse than a loud failure. Flag overrides are folded into the
file's raw JSON before it is parsed, so a flag replaces a file value,
valid or not, and the effective config is echoed next to the outputs so
any run can be reproduced exactly.
"""
import json
import math
import os

from .assignment import AssignmentParams
from .errors import ConfigError
from .orbits import GroundStation, WalkerShell
from .protocol import ConstantLatency, DelayProfile, Protocol
from .scenario import ScenarioSpec

_NUM = (int, float)

_SHELL_KEYS = {
    "planes": int,
    "sats_per_plane": int,
    "inclination_deg": _NUM,
    "altitude_km": _NUM,
    "phasing_factor": int,
    "raan_span_deg": _NUM,
}
_STATION_KEYS = {"name": str, "latitude_deg": _NUM, "longitude_deg": _NUM, "altitude_m": _NUM}
_TOPOLOGY_KEYS = {
    "snapshot_dt_s": _NUM,
    "min_elevation_deg": _NUM,
    "isl_mode": str,
    "gsl_limit": (int, type(None)),
    "terrestrial_factor": _NUM,
}
_PLACEMENT_KEYS = {"k": int, "clusters": int, "method": str, "eval_on_full": bool}
_ASSIGNMENT_KEYS = {"sample_dt_s": _NUM, "decide_dt_s": _NUM, "delta": _NUM, "metric": str}
_DELAY_KEYS = {
    "controller_process": _NUM,
    "persist": _NUM,
    "client_init": _NUM,
    "status_report_process": _NUM,
    "pod_stop": _NUM,
    "pod_start": _NUM,
    "drain_per_pod": _NUM,
    "register": _NUM,
    "legacy_cleanup": _NUM,
    "auth_roundtrips": int,
}
_OPT_NUM = _NUM + (type(None),)
_PROTOCOL_KEYS = {
    "type": str,
    "report_interval_s": _NUM,
    "grace_s": _OPT_NUM,
    "pods_per_sat": int,
    "delays": dict,
    "constant_latency_ms": _OPT_NUM,
}
_SIM_KEYS = {"duration_s": _NUM}
_TOP_KEYS = {
    "seed": int,
    "shell": dict,
    "stations": (list, dict),
    "topology": dict,
    "placement": dict,
    "assignment": dict,
    "protocol": dict,
    "sim": dict,
}

_METHODS = {"cnpa", "exhaustive", "random", "single"}


def _check_keys(section: dict, allowed: dict, where: str, required=()):
    if not isinstance(section, dict):
        missing = f"; missing required key {required[0]!r}" if required else ""
        raise ConfigError(f"{where} must be an object, got {type(section).__name__}{missing}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
        expected = allowed[key]
        kinds = expected if isinstance(expected, tuple) else (expected,)
        if isinstance(section[key], bool) and bool not in kinds:
            raise ConfigError(f"{where}.{key} must not be a bool")
        if not isinstance(section[key], expected):
            raise ConfigError(f"{where}.{key} has wrong type {type(section[key]).__name__}")
        if isinstance(section[key], float) and not math.isfinite(section[key]):
            raise ConfigError(f"{where}.{key} must be finite, got {section[key]}")
        # a numeric field is read as a float, which an int past ~1.8e308 overflows
        if float in kinds and isinstance(section[key], int) and not isinstance(section[key], bool):
            try:
                float(section[key])
            except OverflowError:
                raise ConfigError(f"{where}.{key} is too large for a float") from None
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required key {key!r} in {where}")


def _load_stations(raw, base_dir):
    if isinstance(raw, dict):
        _check_keys(raw, {"file": str}, "stations", required=("file",))
        path = raw["file"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise ConfigError(f"stations.file does not exist: {path}")
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"stations.file {path} is not readable JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ConfigError("stations must be a non-empty list")
    stations = []
    for i, st in enumerate(raw):
        _check_keys(st, _STATION_KEYS, f"stations[{i}]",
                    required=("name", "latitude_deg", "longitude_deg"))
        try:
            stations.append(
                GroundStation(
                    gs_id=i,
                    name=st["name"],
                    latitude_deg=float(st["latitude_deg"]),
                    longitude_deg=float(st["longitude_deg"]),
                    altitude_m=float(st.get("altitude_m", 0.0)),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"stations[{i}]: {exc}") from exc
    return stations


def _given(section: dict, keys, convert=lambda v: v) -> dict:
    """The ``keys`` present in ``section``, converted; absent keys keep
    the ScenarioSpec default."""
    return {key: convert(section[key]) for key in keys if key in section}


def parse_config(raw: dict, base_dir: str = ".") -> ScenarioSpec:
    """Validate a raw config dict and build its ScenarioSpec, with no
    controllers selected yet (placement picks them)."""
    _check_keys(raw, _TOP_KEYS, "config", required=("shell", "stations", "sim"))

    shell_raw = raw["shell"]
    _check_keys(shell_raw, _SHELL_KEYS, "shell",
                required=("planes", "sats_per_plane", "inclination_deg", "altitude_km"))
    try:
        shell = WalkerShell(
            planes=shell_raw["planes"],
            sats_per_plane=shell_raw["sats_per_plane"],
            inclination_deg=float(shell_raw["inclination_deg"]),
            altitude_km=float(shell_raw["altitude_km"]),
            phasing_factor=shell_raw.get("phasing_factor", 0),
            raan_span_deg=float(shell_raw.get("raan_span_deg", 360.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"shell: {exc}") from exc

    stations = _load_stations(raw["stations"], base_dir)
    topo = raw.get("topology", {})
    _check_keys(topo, _TOPOLOGY_KEYS, "topology")
    plc = raw.get("placement", {})
    _check_keys(plc, _PLACEMENT_KEYS, "placement")
    asg = raw.get("assignment", {})
    _check_keys(asg, _ASSIGNMENT_KEYS, "assignment")
    proto = raw.get("protocol", {})
    _check_keys(proto, _PROTOCOL_KEYS, "protocol")
    delays_raw = proto.get("delays", {})
    _check_keys(delays_raw, _DELAY_KEYS, "protocol.delays")
    sim_raw = raw["sim"]
    _check_keys(sim_raw, _SIM_KEYS, "sim", required=("duration_s",))

    duration = float(sim_raw["duration_s"])
    if duration <= 0:
        raise ConfigError("sim.duration_s must be positive")
    try:
        sampling = _given(asg, ("sample_dt_s", "decide_dt_s", "delta"), float)
        sampling["sample_dt_s"] = min(
            sampling.get("sample_dt_s", AssignmentParams.sample_dt_s), duration
        )
        assignment = AssignmentParams(horizon_s=duration, **sampling)
    except ValueError as exc:
        raise ConfigError(f"assignment: {exc}") from exc
    try:
        delays = DelayProfile(**delays_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"protocol.delays: {exc}") from exc
    renamed = {}  # config keys whose ScenarioSpec field has another name or type
    if "type" in proto:
        if proto["type"] not in ("seamless", "legacy"):
            raise ConfigError(f"protocol.type must be seamless or legacy, got {proto['type']!r}")
        renamed["protocol"] = Protocol(proto["type"])
    if proto.get("constant_latency_ms") is not None:
        renamed["latency_model"] = ConstantLatency(proto["constant_latency_ms"])

    spec = ScenarioSpec(
        shell=shell,
        stations=stations,
        controllers=[],
        duration_s=duration,
        **_given(raw, ("seed",)),
        **_given(topo, ("snapshot_dt_s", "min_elevation_deg", "terrestrial_factor"), float),
        **_given(topo, ("isl_mode", "gsl_limit")),
        **_given(plc, _PLACEMENT_KEYS),
        assignment=assignment,
        **_given(asg, ("metric",)),
        delays=delays,
        **_given(proto, ("report_interval_s",), float),
        **_given(proto, ("grace_s", "pods_per_sat")),
        **renamed,
        raw=raw,
    )
    _validate(spec)
    return spec


def _validate(spec: ScenarioSpec):
    """Range checks on the parsed values, each naming its config field."""
    if spec.isl_mode not in ("fixed_grid", "nearest"):
        raise ConfigError(
            f"topology.isl_mode must be fixed_grid or nearest, got {spec.isl_mode!r}"
        )
    if not 0 < spec.snapshot_dt_s <= spec.duration_s:
        raise ConfigError("topology.snapshot_dt_s must be in (0, sim.duration_s]")
    if not -90.0 <= spec.min_elevation_deg <= 90.0:
        raise ConfigError("topology.min_elevation_deg must be in [-90, 90]")
    if spec.gsl_limit is not None and spec.gsl_limit < 1:
        raise ConfigError("topology.gsl_limit must be at least 1")
    if spec.terrestrial_factor <= 0:
        raise ConfigError("topology.terrestrial_factor must be positive")
    if spec.method not in _METHODS:
        raise ConfigError(
            f"placement.method must be one of {sorted(_METHODS)}, got {spec.method!r}"
        )
    if not 1 <= spec.k <= len(spec.stations):
        raise ConfigError(f"placement.k must be in [1, {len(spec.stations)}]")
    if spec.clusters < 1:
        raise ConfigError("placement.clusters must be at least 1")
    if spec.metric not in ("geometric", "network"):
        raise ConfigError(
            f"assignment.metric must be geometric or network, got {spec.metric!r}"
        )
    if spec.report_interval_s <= 0:
        raise ConfigError("protocol.report_interval_s must be positive")
    if spec.grace_s is not None and spec.grace_s < 0:
        raise ConfigError("protocol.grace_s must be non-negative")
    if spec.pods_per_sat < 0:
        raise ConfigError("protocol.pods_per_sat must be non-negative")
    if isinstance(spec.latency_model, ConstantLatency) and spec.latency_model.one_way_ms < 0:
        raise ConfigError("protocol.constant_latency_ms must be non-negative")


def read_config(path: str):
    """The raw JSON of a config file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config {path} is not readable: {exc}") from exc


def load_config(path: str) -> ScenarioSpec:
    return parse_config(read_config(path), base_dir=os.path.dirname(os.path.abspath(path)))


# CLI flag -> (config section, key); section None is the top level
_FLAG_KEYS = {
    "seed": (None, "seed"),
    "protocol": ("protocol", "type"),
    "method": ("placement", "method"),
    "k": ("placement", "k"),
    "clusters": ("placement", "clusters"),
    "delta": ("assignment", "delta"),
}


def apply_overrides(raw, overrides: dict):
    """Fold non-None CLI flags into a deep copy of the raw config. A
    config or section that is not an object is left for ``parse_config``
    to reject."""
    out = json.loads(json.dumps(raw))  # deep copy
    if not isinstance(out, dict):
        return out
    for flag, value in overrides.items():
        if value is None:
            continue
        section, key = _FLAG_KEYS[flag]
        target = out if section is None else out.setdefault(section, {})
        if isinstance(target, dict):
            target[key] = value
    return out


def stage_seed(seed: int, stage: str) -> int:
    """Deterministic per-stage seed derived from the top-level seed."""
    import hashlib

    digest = hashlib.sha256(f"{seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
