import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leocp import numtext
from leocp.constants import EARTH_ROTATION_RAD_S
from leocp.orbits import (
    GroundStation,
    WalkerShell,
    generate_constellation,
    propagate,
    station_position,
    write_constellation_json,
)
from oracles import constellation_json

MU = 398600.4418  # km^3/s^2, restated here so the oracle stays independent


def test_starlink_shell_element_count():
    shell = WalkerShell(72, 22, 53.0, 550.0, phasing_factor=1)
    c = generate_constellation(shell)
    assert len(c) == 1584
    assert c.raan.shape == c.initial_phase.shape == (1584,)
    assert len(set(zip(c.raan.tolist(), c.initial_phase.tolist()))) == 1584


@pytest.mark.parametrize(
    "shell",
    [
        WalkerShell(1, 1, 30.0, 550.0),
        WalkerShell(5, 7, 97.6, 1200.0, phasing_factor=0),
        WalkerShell(12, 49, 87.9, 1200.0, phasing_factor=3, raan_span_deg=180.0),
        WalkerShell(72, 40, 53.0, 550.0, phasing_factor=71),
    ],
)
def test_constellation_json_matches_json_dumps(shell, tmp_path):
    c = generate_constellation(shell)
    if shell.planes == 72:  # rows past one encoder block
        assert 2 * len(c) > numtext.BLOCK
    path = tmp_path / "constellation.json"
    write_constellation_json(c, shell.sats_per_plane, path)
    assert path.read_text() == constellation_json(c, shell.sats_per_plane)


def test_single_satellite_shell():
    c = generate_constellation(WalkerShell(1, 1, 30.0, 550.0))
    assert len(c) == 1
    assert c[0].raan == 0.0
    assert c[0].initial_phase == 0.0


def test_raan_even_spacing():
    c = generate_constellation(WalkerShell(3, 8, 53.0, 550.0))
    raans = sorted(set(c.raan.tolist()))
    assert raans == pytest.approx([0.0, math.radians(120.0), math.radians(240.0)])


def test_interplane_phase_offset():
    shell = WalkerShell(4, 5, 53.0, 550.0, phasing_factor=2)
    c = generate_constellation(shell)
    expected = 2 * 2 * math.pi / 20
    # flat index plane * 5 + slot: (1, 0) is 5, (0, 0) is 0
    assert c[5].initial_phase - c[0].initial_phase == pytest.approx(expected)


def per_satellite_constellation(shell):
    """The shell expanded one satellite at a time, as ``(raan,
    initial_phase)`` float pairs in flat index order: the loop
    ``generate_constellation`` replaced, kept as its oracle."""
    raan_step = math.radians(shell.raan_span_deg) / shell.planes
    slot_step = 2.0 * math.pi / shell.sats_per_plane
    phase_offset = shell.phasing_factor * 2.0 * math.pi / shell.total_sats
    return [
        (p * raan_step, (s * slot_step + p * phase_offset) % (2.0 * math.pi))
        for p in range(shell.planes)
        for s in range(shell.sats_per_plane)
    ]


@st.composite
def shells(draw):
    planes = draw(st.integers(1, 80))
    span = draw(
        st.one_of(
            st.sampled_from([180.0, 360.0]),
            st.floats(0.0, 360.0, exclude_min=True),
        )
    )
    return WalkerShell(
        planes=planes,
        sats_per_plane=draw(st.integers(1, 60)),
        inclination_deg=draw(st.floats(0.0, 180.0)),
        altitude_km=draw(st.floats(160.0, 40000.0)),
        phasing_factor=draw(st.integers(0, planes - 1)),
        raan_span_deg=span,
    )


@settings(max_examples=200, deadline=None)
@given(shells())
@example(WalkerShell(72, 22, 53.0, 550.0, phasing_factor=1))  # Starlink
@example(WalkerShell(36, 36, 51.9, 630.0, phasing_factor=1))  # Kuiper
@example(WalkerShell(18, 36, 87.9, 1200.0, raan_span_deg=180.0))  # OneWeb star
def test_constellation_matches_per_satellite_loop(shell):
    c = generate_constellation(shell)
    oracle = per_satellite_constellation(shell)
    assert list(zip(c.raan.tolist(), c.initial_phase.tolist())) == oracle
    assert c.raan.dtype == c.initial_phase.dtype == np.float64
    assert c.semi_major_axis_km == 6371.0 + shell.altitude_km
    assert c.inclination == math.radians(shell.inclination_deg)
    assert c.mean_motion == math.sqrt(MU / (6371.0 + shell.altitude_km) ** 3)
    assert not c.raan.flags.writeable and not c.initial_phase.flags.writeable


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


@pytest.mark.parametrize("span", [720.0, 360.0 + 1e-9, 0.0, -10.0, math.nan, math.inf])
def test_raan_span_outside_one_turn_rejected(span):
    with pytest.raises(ValueError, match="raan_span_deg"):
        WalkerShell(3, 4, 53.0, 550.0, raan_span_deg=span)
    assert WalkerShell(3, 4, 53.0, 550.0, raan_span_deg=360.0).raan_span_deg == 360.0


def test_circular_radius_preserved():
    c = generate_constellation(WalkerShell(2, 3, 53.0, 550.0))
    for i in range(len(c)):
        for t in [0.0, 137.0, 5000.0, 86400.0]:
            assert np.linalg.norm(propagate(c[i], t)) == pytest.approx(
                c.semi_major_axis_km, abs=1e-6
            )


def test_orbital_period_oracle():
    # independent evaluation of 2*pi*sqrt(a^3/mu) for a = 6921 km
    a = 6371.0 + 550.0
    oracle = 2.0 * math.pi * math.sqrt(a**3 / MU)
    assert oracle == pytest.approx(5730.1, abs=0.5)
    assert WalkerShell(1, 1, 0.0, 550.0).period_s == pytest.approx(oracle, rel=1e-12)


def test_periodicity_in_inertial_frame():
    shell = WalkerShell(1, 1, 47.0, 550.0)
    elem = generate_constellation(shell)[0]
    T = shell.period_s
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
    c = generate_constellation(WalkerShell(1, 6, 53.0, 550.0))
    a, b = c[0], c[2]
    dphi = b.initial_phase - a.initial_phase
    for t in [0.0, 321.0, 4000.0, 20000.0]:
        pa, pb = propagate(a, t), propagate(b, t)
        cosang = np.dot(pa, pb) / (np.linalg.norm(pa) * np.linalg.norm(pb))
        assert math.acos(np.clip(cosang, -1, 1)) == pytest.approx(abs(dphi), abs=1e-9)


def test_propagate_broadcasts_exactly():
    c = generate_constellation(WalkerShell(3, 4, 53.0, 550.0, phasing_factor=1))
    ts = np.array([0.0, 777.7, 5400.25])
    for t in ts:
        batch = propagate(c, t)
        assert batch.shape == (len(c), 3)
        for i in range(len(c)):
            assert np.array_equal(batch[i], propagate(c[i], t))
        for rows in (7, slice(2, 9, 3), np.array([10, 3, 3, 0, 11, 5])):
            assert np.array_equal(propagate(c[rows], t), batch[rows])
    for i in range(len(c)):
        series = propagate(c[i], ts)
        assert series.shape == (len(ts), 3)
        assert np.array_equal(series, np.stack([propagate(c[i], t) for t in ts]))
    rows = np.array([11, 0, 4])
    assert np.array_equal(propagate(c[rows], ts[:, None]), propagate(c, ts[:, None])[:, rows])
    assert propagate(c[0], 1.0).shape == (3,)


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
