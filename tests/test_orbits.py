import math

import numpy as np
import pytest

from leocp.constants import EARTH_ROTATION_RAD_S
from leocp.orbits import (
    GroundStation,
    WalkerShell,
    generate_constellation,
    pack_elements,
    propagate,
    station_position,
)

MU = 398600.4418  # km^3/s^2, restated here so the oracle stays independent


def test_starlink_shell_element_count():
    shell = WalkerShell(72, 22, 53.0, 550.0, phasing_factor=1)
    elements = generate_constellation(shell)
    assert len(elements) == 1584
    assert len({e.sat_id for e in elements}) == 1584


def test_single_satellite_shell():
    elements = generate_constellation(WalkerShell(1, 1, 30.0, 550.0))
    assert len(elements) == 1
    assert elements[0].raan == 0.0
    assert elements[0].initial_phase == 0.0


def test_raan_even_spacing():
    elements = generate_constellation(WalkerShell(3, 8, 53.0, 550.0))
    raans = sorted({e.raan for e in elements})
    assert raans == pytest.approx([0.0, math.radians(120.0), math.radians(240.0)])


def test_interplane_phase_offset():
    shell = WalkerShell(4, 5, 53.0, 550.0, phasing_factor=2)
    elements = generate_constellation(shell)
    by_id = {e.sat_id: e for e in elements}
    expected = 2 * 2 * math.pi / 20
    assert by_id[(1, 0)].initial_phase - by_id[(0, 0)].initial_phase == pytest.approx(expected)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(planes=0, sats_per_plane=4, inclination_deg=53.0, altitude_km=550.0),
        dict(planes=3, sats_per_plane=4, inclination_deg=181.0, altitude_km=550.0),
        dict(planes=3, sats_per_plane=4, inclination_deg=53.0, altitude_km=-1.0),
        dict(planes=3, sats_per_plane=4, inclination_deg=53.0, altitude_km=550.0, phasing_factor=3),
    ],
)
def test_shell_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        WalkerShell(**kwargs)


def test_circular_radius_preserved():
    elements = generate_constellation(WalkerShell(2, 3, 53.0, 550.0))
    for elem in elements:
        for t in [0.0, 137.0, 5000.0, 86400.0]:
            assert np.linalg.norm(propagate(elem, t)) == pytest.approx(
                elem.semi_major_axis_km, abs=1e-6
            )


def test_orbital_period_oracle():
    # independent evaluation of 2*pi*sqrt(a^3/mu) for a = 6921 km
    a = 6371.0 + 550.0
    oracle = 2.0 * math.pi * math.sqrt(a**3 / MU)
    assert oracle == pytest.approx(5730.1, abs=0.5)
    elem = generate_constellation(WalkerShell(1, 1, 0.0, 550.0))[0]
    assert elem.period_s == pytest.approx(oracle, rel=1e-12)


def test_periodicity_in_inertial_frame():
    elem = generate_constellation(WalkerShell(1, 1, 47.0, 550.0))[0]
    T = elem.period_s
    p0 = propagate(elem, 0.0)
    pT = propagate(elem, T)
    # after one period the ECI position repeats, so the ECEF position is
    # the t=0 position rotated by -omega_E * T about z
    theta = EARTH_ROTATION_RAD_S * T
    rot = np.array(
        [
            [math.cos(theta), math.sin(theta), 0.0],
            [-math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert rot @ p0 == pytest.approx(pT, abs=1e-6)


def test_same_plane_constant_separation():
    elements = generate_constellation(WalkerShell(1, 6, 53.0, 550.0))
    a, b = elements[0], elements[2]
    dphi = b.initial_phase - a.initial_phase
    for t in [0.0, 321.0, 4000.0, 20000.0]:
        pa, pb = propagate(a, t), propagate(b, t)
        cosang = np.dot(pa, pb) / (np.linalg.norm(pa) * np.linalg.norm(pb))
        assert math.acos(np.clip(cosang, -1, 1)) == pytest.approx(abs(dphi), abs=1e-9)


def test_propagate_broadcasts_exactly():
    elements = generate_constellation(WalkerShell(3, 4, 53.0, 550.0, phasing_factor=1))
    packed = pack_elements(elements)
    ts = np.array([0.0, 777.7, 5400.25])
    for t in ts:
        batch = propagate(packed, t)
        assert batch.shape == (len(elements), 3)
        for i, elem in enumerate(elements):
            assert np.array_equal(batch[i], propagate(elem, t))
    for elem in elements:
        series = propagate(elem, ts)
        assert series.shape == (len(ts), 3)
        assert np.array_equal(series, np.stack([propagate(elem, t) for t in ts]))
    assert propagate(elements[0], 1.0).shape == (3,)


@pytest.mark.parametrize(
    "lat,lon,expected",
    [
        (0.0, 0.0, [6371.0, 0.0, 0.0]),
        (90.0, 12.0, [0.0, 0.0, 6371.0]),
        (0.0, 180.0, [-6371.0, 0.0, 0.0]),
    ],
)
def test_station_position_fixed_points(lat, lon, expected):
    gs = GroundStation(0, "x", lat, lon, 0.0)
    assert station_position(gs) == pytest.approx(expected, abs=1e-9)


def test_station_altitude_extends_radius():
    gs = GroundStation(0, "x", 0.0, 0.0, 2000.0)
    assert np.linalg.norm(station_position(gs)) == pytest.approx(6373.0)


def test_station_invariants_rejected():
    with pytest.raises(ValueError):
        GroundStation(0, "x", 91.0, 0.0)
    with pytest.raises(ValueError):
        GroundStation(0, "x", 0.0, -181.0)
