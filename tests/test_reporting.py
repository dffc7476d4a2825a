import csv
import functools
import json
import operator
import statistics
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _left_sum(values):
    """Python's ``sum`` as it adds floats before 3.12: from the int 0, left
    to right (3.12 compensates the rounding)."""
    return functools.reduce(operator.add, values, 0)


def _mean(values):
    """The reference mean: one left-to-right ``np.cumsum``, 0.0 when empty."""
    if not len(values):
        return 0.0
    return np.cumsum(values, dtype=float)[-1].item() / len(values)


# finite, as simulated latencies are, but of every size and sign
LATENCY = st.floats(-1e12, 1e12) | st.sampled_from([0.0, -0.0, 1 / 3, 5e-324])


@st.composite
def ragged_latencies(draw):
    """Per-satellite latencies, each an array or a list, some empty, plus
    records on satellites with and without latencies."""
    sats = draw(st.lists(st.integers(0, 30), unique=True, max_size=8))
    lats = {}
    for sat in sats:
        values = draw(st.lists(LATENCY, max_size=40))
        lats[sat] = np.array(values, dtype=float) if draw(st.booleans()) else values
    recorded = draw(st.lists(st.integers(0, 30), max_size=6))
    return lats, [record(sat, 1.0) for sat in recorded]


@settings(max_examples=200, deadline=None)
@given(ragged_latencies())
def test_report_latency_means_are_bit_identical_to_per_satellite_cumsum(case):
    lats, recs = case
    rep = aggregate(recs, lats)
    assert set(rep.per_satellite) == set(lats) | {r.sat_id for r in recs}
    for sat, row in rep.per_satellite.items():
        mean = row["mean_report_latency_ms"]
        assert type(mean) is float
        assert mean.hex() == _mean(lats.get(sat, ())).hex(), sat


def test_mean_report_latency_is_the_sequential_sum():
    # pairwise summation (np.sum) differs from Python's left-to-right sum here
    values = np.random.default_rng(23).uniform(0, 100, size=34608)
    assert float(np.sum(values)) != _left_sum(values.tolist())
    rep = aggregate([], {0: values, 1: values.tolist()})
    expected = _left_sum(values.tolist()) / len(values)
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
                _left_sum(r.duration for r in recs) / len(recs) if recs else 0.0
            ),
            "total_invisibility_s": _left_sum(r.invisibility for r in recs),
            "total_pod_unavail_s": _left_sum(r.pod_unavailability for r in recs),
            "mean_report_latency_ms": _left_sum(lats) / len(lats) if lats else 0.0,
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


def test_per_satellite_sums_keep_the_sum_types_and_zero_signs():
    # records of -0.0 sum to 0.0; a satellite without records totals the int 0
    recs = [record(3, -0.0, invis=-0.0, unavail=-0.0), record(3, -0.0, invis=-0.0)]
    recs += [record(5, 2.0, invis=-0.0, unavail=1 / 3)]
    lats = {4: [1.0], 3: [2.0]}
    rep = aggregate(recs, lats)
    assert repr(rep.per_satellite) == repr(_filter_per_satellite(recs, lats))
    assert "-0.0" not in repr(rep.per_satellite)


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


# ---------------------------------------------------------------------------
# report.json: byte-identical to json.dump with indent=2


def _reference_report_json(report):
    per_sat = {str(k): v for k, v in sorted(report.per_satellite.items())}
    text = json.dumps({"per_satellite": per_sat, "aggregate": report.aggregate},
                      indent=2, sort_keys=True)
    return (text + "\n").encode()


def _written_report_json(report):
    with tempfile.TemporaryDirectory() as out:
        write_report(report, out)
        return (Path(out) / "report.json").read_bytes()


NUMBER = (
    st.sampled_from([0, 0.0, -0.0, 1, 1e16, 1 / 3, float("inf"), -float("inf"), float("nan")])
    | st.integers(-10**20, 10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
)
ROW_KEYS = ("handover_count", "mean_handover_duration_s", "total_invisibility_s",
            "total_pod_unavail_s", "mean_report_latency_ms")


@settings(max_examples=60, deadline=None)
@given(
    # 0, 1, and around the 256-row chunks
    n=st.sampled_from([0, 1, 2, 255, 256, 257, 700]) | st.integers(0, 40),
    values=st.lists(NUMBER, min_size=1, max_size=30),
    aggregate_values=st.lists(NUMBER, min_size=8, max_size=8),
    rng=st.randoms(use_true_random=False),
)
def test_report_json_matches_indented_json_dump(n, values, aggregate_values, rng):
    # sat ids drawn sparse, so "10" sorts before "2"
    sats = rng.sample(range(3 * n + 12), n)
    per_sat = {
        sat: {key: values[(5 * i + j) % len(values)] for j, key in enumerate(ROW_KEYS)}
        for i, sat in enumerate(sats)
    }
    agg = dict(zip(["total_handovers", "mean_duration_s", "total_invisibility_h",
                    "total_pod_unavail_h", "total_handover_time_h"], aggregate_values))
    agg["report_latency_percentiles_ms"] = dict(zip(["p50", "p90", "p99"], aggregate_values[5:]))
    report = MetricsReport(per_satellite=per_sat, aggregate=agg, cdf_points={})
    assert _written_report_json(report) == _reference_report_json(report)


def test_report_json_of_aggregate_matches_indented_json_dump():
    # satellites with records only (integer 0 sums beside floats), with
    # latencies only, with both; ids whose string order is not numeric
    recs = [record(2, 4.0, invis=1.5), record(10, 6.0), record(2, 1.0 / 3.0, unavail=2.0)]
    lats = {10: [12.5, 7.0], 11: np.array([1.0, 2.0, 4.0]), 3: []}
    report = aggregate(recs, lats)
    assert report.per_satellite[11]["total_invisibility_s"] == 0
    assert type(report.per_satellite[11]["total_invisibility_s"]) is int
    text = _written_report_json(report)
    assert text == _reference_report_json(report)
    assert list(json.loads(text)["per_satellite"]) == ["10", "11", "2", "3"]
    empty = aggregate([])
    assert _written_report_json(empty) == _reference_report_json(empty)
    # rows with keys of their own, none, or a "%" in a key
    mixed = MetricsReport(per_satellite={2: {"b": 1, "a": 0.5}, 10: {}, 7: {"a%s": 2.0}},
                          aggregate=empty.aggregate, cdf_points={})
    assert _written_report_json(mixed) == _reference_report_json(mixed)
