"""Walker constellation generation and Earth-fixed position computation.

Satellites follow circular two-body orbits; the Earth is a rotating
sphere of radius 6371 km. Positions come out in the Earth-centered
Earth-fixed (ECEF) frame as float64 arrays in kilometers, so ground
stations are time-independent and satellite-ground geometry is a plain
Euclidean computation. A shell's satellites are one ``Constellation`` of
column arrays; ``propagate`` is the one propagator: it takes a
``Constellation`` (or one satellite of it) and broadcasts over times.
"""
import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numtext
from .constants import EARTH_RADIUS_KM, EARTH_ROTATION_RAD_S, MU_EARTH

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WalkerShell:
    """Walker-style constellation shell.

    ``raan_span_deg`` is 360 for a delta pattern and 180 for a star
    pattern; ``phasing_factor`` is the integer inter-plane phase offset
    numerator (0 <= F < planes).
    """

    planes: int
    sats_per_plane: int
    inclination_deg: float
    altitude_km: float
    phasing_factor: int = 0
    raan_span_deg: float = 360.0

    def __post_init__(self):
        if self.planes < 1 or self.sats_per_plane < 1:
            raise ValueError("planes and sats_per_plane must be >= 1")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError("inclination must be in [0, 180] degrees")
        if self.altitude_km <= 0.0:
            raise ValueError("altitude must be positive")
        if not 0 <= self.phasing_factor < self.planes:
            raise ValueError("phasing_factor must satisfy 0 <= F < planes")
        if not 0.0 < self.raan_span_deg <= 360.0:  # NaN fails too
            raise ValueError(
                f"raan_span_deg {self.raan_span_deg!r} is outside (0, 360] degrees"
            )
        try:
            self.mean_motion
        except OverflowError:
            raise ValueError(
                f"altitude_km {self.altitude_km!r} is too large: the mean motion overflows"
            ) from None

    @property
    def total_sats(self) -> int:
        return self.planes * self.sats_per_plane

    @property
    def semi_major_axis_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @functools.cached_property
    def mean_motion(self) -> float:
        """Angular rate of the circular orbit, rad/s."""
        return math.sqrt(MU_EARTH / self.semi_major_axis_km**3)

    @property
    def period_s(self) -> float:
        return TWO_PI / self.mean_motion


@dataclass(frozen=True)
class Constellation:
    """A shell's satellites in flat index order (``plane * sats_per_plane +
    slot``): each one's RAAN and initial phase, and the circular orbit the
    whole shell shares. Angles in radians.

    Indexing with an int, a slice or an index array selects satellites; an
    int gives scalar ``raan`` and ``initial_phase``.
    """

    raan: np.ndarray
    initial_phase: np.ndarray
    semi_major_axis_km: float
    inclination: float
    mean_motion: float

    def __len__(self) -> int:
        return len(self.raan)

    def __getitem__(self, rows) -> "Constellation":
        return replace(self, raan=self.raan[rows], initial_phase=self.initial_phase[rows])


@dataclass(frozen=True)
class GroundStation:
    gs_id: int
    name: str
    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self):
        if abs(self.latitude_deg) > 90.0:
            raise ValueError("latitude out of range")
        if abs(self.longitude_deg) > 180.0:
            raise ValueError("longitude out of range")
        if self.altitude_m <= -1000.0 * EARTH_RADIUS_KM:
            raise ValueError("altitude_m must be above the Earth's centre")


def generate_constellation(shell: WalkerShell) -> Constellation:
    """Expand a shell into its planes x sats_per_plane satellites.

    RAANs are evenly spaced over the shell's RAAN span; in-plane phases
    are evenly spaced over 360 degrees with an inter-plane offset of
    ``phasing_factor * 360 / (planes * sats_per_plane)`` degrees.
    """
    raan_step = math.radians(shell.raan_span_deg) / shell.planes
    slot_step = TWO_PI / shell.sats_per_plane
    phase_offset = shell.phasing_factor * TWO_PI / shell.total_sats
    plane, slot = np.divmod(np.arange(shell.total_sats), shell.sats_per_plane)
    raan = plane * raan_step
    initial_phase = (slot * slot_step + plane * phase_offset) % TWO_PI
    raan.setflags(write=False)
    initial_phase.setflags(write=False)
    return Constellation(
        raan=raan,
        initial_phase=initial_phase,
        semi_major_axis_km=shell.semi_major_axis_km,
        inclination=math.radians(shell.inclination_deg),
        mean_motion=shell.mean_motion,
    )


def write_constellation_json(c: Constellation, sats_per_plane: int, path):
    """``constellation.json``: the bytes of ``json.dumps`` of one dict per
    satellite, in flat index order, with its plane, slot, RAAN, phase,
    semi-major axis and inclination, and a newline.

    The RAAN and phase columns go through ``numtext``'s exact ``repr``
    encoder, and every row through one ``%`` template.
    """
    n = len(c)
    angles = np.column_stack([c.raan, c.initial_phase])
    text = b"".join(numtext.csv_blocks([(angles, "r")])).decode()
    tokens = text.replace("\r\n", ",").split(",")  # raan, phase, ..., ""
    values = [None] * (4 * n)
    values[0::4], values[1::4] = (x.tolist() for x in np.divmod(np.arange(n), sats_per_plane))
    values[2::4], values[3::4] = tokens[:-1:2], tokens[1::2]
    row = (
        '{"plane": %d, "slot": %d, "raan_rad": %s, "phase_rad": %s, "semi_major_axis_km": '
        f'{json.dumps(c.semi_major_axis_km)}, "inclination_rad": {json.dumps(c.inclination)}}}'
    )
    with open(path, "w") as fh:
        fh.write("[%s]\n" % (", ".join([row] * n) % tuple(values)))


def propagate(elem: Constellation, t) -> np.ndarray:
    """ECEF position(s) at time(s) ``t`` seconds.

    Satellites and times broadcast: one satellite (``elem[i]``) at one time
    gives ``(3,)``, ``n`` satellites at one time ``(n, 3)``, one satellite
    over an array of times ``(T, 3)``. Each entry equals the
    one-satellite, one-time result.
    """
    u = elem.initial_phase + elem.mean_motion * t
    a = elem.semi_major_axis_km
    x_orb = a * np.cos(u)
    y_orb = a * np.sin(u)
    # orbital plane -> inertial: rotate by inclination about x, then RAAN about z
    y_inc = y_orb * np.cos(elem.inclination)
    z = y_orb * np.sin(elem.inclination)
    cos_o, sin_o = np.cos(elem.raan), np.sin(elem.raan)
    x_eci = x_orb * cos_o - y_inc * sin_o
    y_eci = x_orb * sin_o + y_inc * cos_o
    # inertial -> ECEF: rotate by -(Earth rotation) about z
    theta = EARTH_ROTATION_RAD_S * t
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    return np.stack([x_eci * cos_t + y_eci * sin_t, -x_eci * sin_t + y_eci * cos_t, z], axis=-1)


def station_position(gs: GroundStation) -> np.ndarray:
    """Geodetic -> ECEF on the spherical Earth; constant over time."""
    r = EARTH_RADIUS_KM + gs.altitude_m / 1000.0
    lat = math.radians(gs.latitude_deg)
    lon = math.radians(gs.longitude_deg)
    return np.array(
        [r * math.cos(lat) * math.cos(lon), r * math.cos(lat) * math.sin(lon), r * math.sin(lat)]
    )


def station_positions(stations: list[GroundStation]) -> np.ndarray:
    return np.array([station_position(g) for g in stations]).reshape(len(stations), 3)
