import csv
import statistics

import numpy as np
import pytest

from leocp.errors import EmptyInput
from leocp.protocol import HandoverRecord, Protocol
from leocp.reporting import MetricsReport, aggregate, cdf, write_records_csv, write_report


def record(sat, duration, invis=0.0, unavail=0.0, t0=0.0, protocol=Protocol.LEGACY):
    return HandoverRecord(
        sat_id=sat,
        source_gs=0,
        target_gs=1,
        t_start=t0,
        t_end=t0 + duration,
        duration=duration,
        invisibility=invis,
        pod_unavailability=unavail,
        protocol=protocol,
    )


def test_aggregate_empty_is_zeroed():
    rep = aggregate([])
    assert rep.aggregate["total_handovers"] == 0
    assert rep.aggregate["mean_duration_s"] == 0.0
    assert rep.aggregate["total_invisibility_h"] == 0.0
    assert rep.per_satellite == {}
    assert rep.cdf_points == {}


def test_aggregate_two_records_mean():
    rep = aggregate([record(0, 4.0), record(0, 6.0)])
    assert rep.aggregate["mean_duration_s"] == 5.0
    assert rep.per_satellite[0]["mean_handover_duration_s"] == 5.0


def test_aggregate_totals_in_hours():
    recs = [record(0, 10.0, invis=3600.0, unavail=7200.0)]
    rep = aggregate(recs)
    assert rep.aggregate["total_invisibility_h"] == 1.0
    assert rep.aggregate["total_pod_unavail_h"] == 2.0


def test_fleet_totals_equal_csv_resummation(tmp_path):
    rng = np.random.default_rng(3)
    recs = [
        record(int(rng.integers(0, 5)), float(rng.uniform(1, 10)),
               invis=float(rng.uniform(0, 5)), unavail=float(rng.uniform(0, 12)),
               t0=float(i * 100))
        for i in range(40)
    ]
    rep = aggregate(recs)
    path = tmp_path / "records.csv"
    write_records_csv(recs, path)
    # independent resummation straight off the CSV
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    invis_h = sum(float(r["invisibility_s"]) for r in rows) / 3600.0
    unavail_h = sum(float(r["pod_unavail_s"]) for r in rows) / 3600.0
    mean_d = statistics.mean(float(r["duration_s"]) for r in rows)
    assert rep.aggregate["total_invisibility_h"] == pytest.approx(invis_h, abs=1e-9)
    assert rep.aggregate["total_pod_unavail_h"] == pytest.approx(unavail_h, abs=1e-9)
    assert rep.aggregate["mean_duration_s"] == pytest.approx(mean_d, abs=1e-6)
    # per-satellite sums roll up to the aggregate exactly
    assert sum(v["handover_count"] for v in rep.per_satellite.values()) == 40
    assert sum(v["total_invisibility_s"] for v in rep.per_satellite.values()) == pytest.approx(
        invis_h * 3600.0
    )


def test_aggregate_is_linear_in_concatenation():
    rng = np.random.default_rng(7)
    a = [record(0, float(rng.uniform(1, 5)), invis=1.0) for _ in range(5)]
    b = [record(1, float(rng.uniform(1, 5)), invis=2.0) for _ in range(7)]
    whole = aggregate(a + b).aggregate
    pa, pb = aggregate(a).aggregate, aggregate(b).aggregate
    assert whole["total_handovers"] == pa["total_handovers"] + pb["total_handovers"]
    assert whole["total_invisibility_h"] == pytest.approx(
        pa["total_invisibility_h"] + pb["total_invisibility_h"]
    )


def test_report_latencies_flow_through():
    rep = aggregate([record(0, 1.0)], {0: [10.0, 20.0], 1: [5.0]})
    assert rep.per_satellite[0]["mean_report_latency_ms"] == 15.0
    assert rep.per_satellite[1]["mean_report_latency_ms"] == 5.0
    assert rep.per_satellite[1]["handover_count"] == 0


def test_cdf_single_value():
    assert cdf([5.0]).tolist() == [[5.0, 1.0]]


def test_cdf_four_values():
    points = cdf([4.0, 1.0, 3.0, 2.0])
    assert points.tolist() == [[1.0, 0.25], [2.0, 0.5], [3.0, 0.75], [4.0, 1.0]]


def test_cdf_matches_python_sort_and_division():
    rng = np.random.default_rng(19)
    values = np.round(rng.uniform(0, 50, size=2001), 1)  # many exact repeats
    n = len(values)
    expected = [[v, (i + 1) / n] for i, v in enumerate(sorted(values.tolist()))]
    assert cdf(values).tolist() == expected
    assert cdf(values.tolist()).tolist() == expected


def test_mean_report_latency_is_the_sequential_sum():
    # pairwise summation (np.sum) differs from Python's left-to-right sum here
    values = np.random.default_rng(23).uniform(0, 100, size=34608)
    assert float(np.sum(values)) != sum(values.tolist())
    rep = aggregate([], {0: values, 1: values.tolist()})
    expected = sum(values.tolist()) / len(values)
    assert rep.per_satellite[0]["mean_report_latency_ms"] == expected
    assert rep.per_satellite[1]["mean_report_latency_ms"] == expected


def test_cdf_empty_raises():
    with pytest.raises(EmptyInput):
        cdf([])


def test_cdf_median_matches_oracle():
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 100, size=1000).tolist()
    points = cdf(values)
    at_half = [v for v, frac in points if frac >= 0.5][0]
    # independent median: sort and index directly
    median = sorted(values)[499]
    assert at_half == median


def test_cdf_valid_distribution():
    rng = np.random.default_rng(13)
    points = cdf(rng.uniform(0, 10, size=257).tolist())
    fractions = [f for _, f in points]
    values = [v for v, _ in points]
    assert values == sorted(values)
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == 1.0


def test_write_report_outputs(tmp_path):
    recs = [record(0, 4.0, invis=1.0), record(1, 6.0, invis=2.0)]
    rep = aggregate(recs, {0: [10.0], 1: [20.0]})
    write_report(rep, tmp_path)
    table = (tmp_path / "report_table.csv").read_text().splitlines()
    assert table[0].startswith("scenario,total_handovers")
    assert table[1].split(",")[0] == "scenario"
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "cdf_handover_duration_s.csv").exists()
    assert (tmp_path / "cdf_report_latency_ms.csv").exists()


def _filter_per_satellite(records, report_latencies):
    """The per-satellite metrics by filtering all records for each satellite."""
    sats = sorted({r.sat_id for r in records} | set(report_latencies))
    per_sat = {}
    for s in sats:
        recs = [r for r in records if r.sat_id == s]
        lats = report_latencies.get(s, [])
        per_sat[s] = {
            "handover_count": len(recs),
            "mean_handover_duration_s": (
                sum(r.duration for r in recs) / len(recs) if recs else 0.0
            ),
            "total_invisibility_s": sum(r.invisibility for r in recs),
            "total_pod_unavail_s": sum(r.pod_unavailability for r in recs),
            "mean_report_latency_ms": sum(lats) / len(lats) if lats else 0.0,
        }
    return per_sat


def test_per_satellite_matches_filter_oracle_exactly():
    rng = np.random.default_rng(17)
    n = 3000
    sats = rng.integers(0, 150, size=n)  # interleaved, many records per satellite
    recs = sorted(
        (
            record(int(sats[i]), float(rng.uniform(0.5, 12.0)), invis=float(rng.uniform(0, 3)),
                   unavail=float(rng.uniform(0, 9)), t0=float(rng.uniform(0, 86400)))
            for i in range(n)
        ),
        key=lambda r: (r.t_start, r.sat_id),
    )
    lats = {s: rng.uniform(1, 80, size=int(rng.integers(1, 6))).tolist() for s in range(140, 160)}
    rep = aggregate(recs, lats)
    assert rep.per_satellite == _filter_per_satellite(recs, lats)
    assert list(rep.per_satellite) == sorted(rep.per_satellite)


# ---------------------------------------------------------------------------
# writers: byte-identical to csv.writer


def _reference_records_csv(records, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["sat_id", "t_start_s", "duration_s", "invisibility_s", "pod_unavail_s",
             "protocol", "source", "target"]
        )
        for r in records:
            w.writerow(
                [r.sat_id, f"{r.t_start:.6f}", f"{r.duration:.6f}", f"{r.invisibility:.6f}",
                 f"{r.pod_unavailability:.6f}", r.protocol.value, r.source_gs, r.target_gs]
            )


def _reference_cdf_csv(points, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value", "fraction"])
        for value, fraction in points:
            w.writerow([f"{value:.6f}", f"{fraction:.6f}"])


@pytest.mark.parametrize("n", [0, 1, 57])
def test_records_csv_matches_csv_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    recs = [
        record(int(rng.integers(0, 9)), float(rng.uniform(0, 20)), invis=float(rng.uniform(0, 2)),
               unavail=1.0 / 3.0, t0=float(rng.uniform(0, 1e5)),
               protocol=Protocol.SEAMLESS if i % 2 else Protocol.LEGACY)
        for i in range(n)
    ]
    write_records_csv(recs, tmp_path / "new.csv")
    _reference_records_csv(recs, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "cdf_points",
    [
        {},
        {"empty": []},
        {"handover_duration_s": cdf([4.0, 1.0 / 3.0, 2.5]), "report_latency_ms": cdf([7.125])},
    ],
)
def test_cdf_csvs_match_csv_writer(tmp_path, cdf_points):
    rep = MetricsReport(per_satellite={}, aggregate=aggregate([]).aggregate, cdf_points=cdf_points)
    write_report(rep, tmp_path)
    written = sorted(p.name for p in tmp_path.glob("cdf_*.csv"))
    assert written == sorted(f"cdf_{name}.csv" for name in cdf_points)
    for name, points in cdf_points.items():
        _reference_cdf_csv(points, tmp_path / "ref.csv")
        assert (tmp_path / f"cdf_{name}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    if "empty" in cdf_points:
        assert (tmp_path / "cdf_empty.csv").read_bytes() == b"value,fraction\r\n"


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_chunked_cdf_csv_matches_csv_writer(tmp_path, n):
    # around the 4,096-row chunks: -0.0 and 0.0, exact .6f rounding ties
    # (odd multiples of 1/128 end in a 5 at the seventh decimal), and values
    # of every size
    rng = np.random.default_rng(n)
    values = rng.uniform(-1e4, 1e4, size=n) * 10.0 ** rng.integers(-9, 3, size=n)
    values[:10] = [-0.0, 0.0, 1 / 128, 3 / 128, -5 / 128, 1 + 7 / 128, 2.5e-7, -4e-7, 1 / 3, 1e16]
    values[-3:] = [-0.0, 2**-20, 9 / 128]
    points = cdf(values)
    rep = MetricsReport(per_satellite={}, aggregate=aggregate([]).aggregate,
                        cdf_points={"report_latency_ms": points})
    write_report(rep, tmp_path)
    _reference_cdf_csv(points, tmp_path / "ref.csv")
    text = (tmp_path / "cdf_report_latency_ms.csv").read_bytes()
    assert text == (tmp_path / "ref.csv").read_bytes()
    assert text.count(b"\r\n") == n + 1
    assert b"\r\n-0.000000," in text and b"\r\n0.007812," in text  # 1/128 rounds to even
