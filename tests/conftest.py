import numpy as np
import pytest
from hypothesis import settings

from leocp.orbits import GroundStation, WalkerShell

# CI runs with ``--hypothesis-profile=ci``: the same examples on every run
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def desk_shell():
    """48-satellite shell that keeps all four desk stations connected."""
    return WalkerShell(
        planes=6, sats_per_plane=8, inclination_deg=53.0, altitude_km=1200.0, phasing_factor=1
    )


@pytest.fixture
def desk_stations():
    return [
        GroundStation(0, "quito", -0.2, -78.5),
        GroundStation(1, "nairobi", -1.3, 36.8),
        GroundStation(2, "singapore", 1.35, 103.8),
        GroundStation(3, "honolulu", 21.3, -157.9),
    ]


def random_distance_fields(rng, n_fields, n_sats, n_stations, lo=1.0, hi=1000.0):
    """Synthetic ``(n_fields, n_sats, n_stations)`` distances, as
    ``DistanceFields.d``, with integer-valued km entries; one draw per
    snapshot."""
    return np.stack(
        [
            rng.integers(int(lo), int(hi), size=(n_sats, n_stations)).astype(float)
            for _ in range(n_fields)
        ]
    )
