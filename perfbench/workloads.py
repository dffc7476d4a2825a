"""Scenario configs for the benchmark workloads.

Each workload is a function of the checkout root and the workload seed
that returns a raw leocp config dict. The seed goes into the config's
``seed`` field only; the program sees nothing but the generated config.
"""
import json
import os

# Eight candidate stations from the equator to mid-latitudes.
WALKER_STATIONS = [
    ("quito", -0.2, -78.5),
    ("nairobi", -1.3, 36.8),
    ("singapore", 1.35, 103.8),
    ("honolulu", 21.3, -157.9),
    ("dakar", 14.7, -17.4),
    ("mumbai", 19.1, 72.9),
    ("sydney", -33.9, 151.2),
    ("madrid", 40.4, -3.7),
]


def _load(root, name):
    with open(os.path.join(root, "configs", name)) as fh:
        return json.load(fh)


def starlink_legacy_15m(root, seed):
    raw = _load(root, "starlink_fullscale.json")
    raw["sim"]["duration_s"] = 900.0
    raw["seed"] = seed
    return raw


def walker_network_seamless(root, seed):
    return {
        "seed": seed,
        "shell": {
            "planes": 36,
            "sats_per_plane": 36,
            "inclination_deg": 51.9,
            "altitude_km": 630.0,
            "phasing_factor": 1,
            "raan_span_deg": 360.0,
        },
        "stations": [
            {"name": n, "latitude_deg": lat, "longitude_deg": lon}
            for n, lat, lon in WALKER_STATIONS
        ],
        "topology": {"snapshot_dt_s": 60.0, "min_elevation_deg": 25.0},
        "placement": {"k": 3, "clusters": 8, "method": "cnpa"},
        "assignment": {"sample_dt_s": 60.0, "decide_dt_s": 1.0, "delta": 0.9, "metric": "network"},
        "protocol": {"type": "seamless", "report_interval_s": 60.0},
        "sim": {"duration_s": 600.0},
    }


def desk_all(root, seed):
    raw = _load(root, "desk.json")
    raw["seed"] = seed
    return raw


def tiny(root, seed):
    """A 4x4 shell over ten minutes: the benchmark's own smoke test."""
    raw = _load(root, "desk.json")
    raw["seed"] = seed
    raw["shell"].update(planes=4, sats_per_plane=4)
    raw["sim"]["duration_s"] = 600.0
    return raw


WORKLOADS = {
    "starlink-legacy-15m": starlink_legacy_15m,
    "walker-network-seamless": walker_network_seamless,
    "desk-all": desk_all,
    "tiny": tiny,
}
