"""Full-scale daily-overhead reproduction. Long-running; excluded from
the default run. Invoke with:

    pytest tests/test_fullscale.py -m slow -s

Expected wall time is about a minute and a half on a 2-core machine, most
of it in the event engine; handover prediction takes a few seconds.
"""
import statistics
import time

import pytest

from leocp.assignment import AssignmentParams
from leocp.orbits import GroundStation, WalkerShell
from leocp.protocol import ConstantLatency, Protocol
from leocp.scenario import ScenarioSpec, run_scenario


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
