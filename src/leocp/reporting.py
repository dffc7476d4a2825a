"""Metric aggregation over handover records and report latencies.

Report latencies stay float64 arrays from the simulation to the CDF
file: sorted with ``np.sort``, summed per satellite with a sequential
``np.cumsum`` (the order of Python's ``sum``), and written through
``tolist`` so every value prints as the same float.

The records and CDF writers stream their rows with the bytes of
``csv.writer`` (CRLF line ends, numbers unquoted), so no whole file is
held as one string: the records writer one generated line at a time,
the CDF writer ``_CDF_WRITE_ROWS`` rows at a time, each chunk formatted
by one ``%`` over a repeated row template.
"""
import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput

# CDF rows formatted and written at a time
_CDF_WRITE_ROWS = 4096


@dataclass(frozen=True)
class MetricsReport:
    per_satellite: dict  # sat -> metrics dict
    aggregate: dict
    cdf_points: dict  # metric name -> rows of (value, fraction)


def cdf(values):
    """Empirical CDF: fraction k/n at the k-th smallest value (1-based),
    as an (n, 2) float64 array of (value, fraction) rows."""
    n = len(values)
    if not n:
        raise EmptyInput("cdf of no values")
    points = np.empty((n, 2))
    points[:, 0] = values
    points[:, 0].sort()
    points[:, 1] = np.arange(1, n + 1) / n
    return points


def aggregate(records, report_latencies=None) -> MetricsReport:
    """Exact sums and means per satellite plus fleet totals.

    ``report_latencies`` maps sat -> per-report latencies (ms), an
    array or a list. Fleet totals are reported in hours to match
    daily-overhead tables.
    """
    report_latencies = report_latencies or {}
    by_sat = {}  # sat -> its records, in the order of ``records``
    for r in records:
        by_sat.setdefault(r.sat_id, []).append(r)
    sats = sorted(set(by_sat) | set(report_latencies))
    per_sat = {}
    for s in sats:
        recs = by_sat.get(s, [])
        lats = report_latencies.get(s, ())
        per_sat[s] = {
            "handover_count": len(recs),
            "mean_handover_duration_s": (
                sum(r.duration for r in recs) / len(recs) if recs else 0.0
            ),
            "total_invisibility_s": sum(r.invisibility for r in recs),
            "total_pod_unavail_s": sum(r.pod_unavailability for r in recs),
            "mean_report_latency_ms": _mean(lats),
        }

    durations = [r.duration for r in records]
    all_lats = np.concatenate(
        [np.empty(0)] + [np.asarray(report_latencies.get(s, ()), dtype=float) for s in sats]
    )
    agg = {
        "total_handovers": len(records),
        "mean_duration_s": sum(durations) / len(durations) if durations else 0.0,
        "total_invisibility_h": sum(r.invisibility for r in records) / 3600.0,
        "total_pod_unavail_h": sum(r.pod_unavailability for r in records) / 3600.0,
        "total_handover_time_h": sum(durations) / 3600.0,
        "report_latency_percentiles_ms": _percentiles(all_lats),
    }
    cdfs = {}
    if durations:
        cdfs["handover_duration_s"] = cdf(durations)
    if all_lats.size:
        cdfs["report_latency_ms"] = cdf(all_lats)
    return MetricsReport(per_satellite=per_sat, aggregate=agg, cdf_points=cdfs)


def _mean(values):
    """Mean with the left-to-right sum of Python's ``sum``; ``np.sum``
    adds pairwise and can differ in the last bit."""
    if not len(values):
        return 0.0
    return np.cumsum(values, dtype=float)[-1].item() / len(values)


def _percentiles(values):
    if not values.size:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0}
    p50, p90, p99 = np.percentile(values, [50.0, 90.0, 99.0])
    return {"p50": float(p50), "p90": float(p90), "p99": float(p99)}


# ---------------------------------------------------------------------------
# writers


def write_records_csv(records, path):
    with open(path, "w", newline="") as fh:
        fh.write(
            "sat_id,t_start_s,duration_s,invisibility_s,pod_unavail_s,protocol,source,target\r\n"
        )
        fh.writelines(
            f"{r.sat_id},{r.t_start:.6f},{r.duration:.6f},{r.invisibility:.6f},"
            f"{r.pod_unavailability:.6f},{r.protocol.value},{r.source_gs},{r.target_gs}\r\n"
            for r in records
        )


def write_report(report: MetricsReport, out_dir):
    """report.json, a daily-overhead style table, and CDF CSVs."""
    import os

    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(
            {
                "per_satellite": {str(k): v for k, v in sorted(report.per_satellite.items())},
                "aggregate": report.aggregate,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    with open(os.path.join(out_dir, "report_table.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["scenario", "total_handovers", "avg_duration_s",
             "total_invisibility_h", "total_pod_unavail_h"]
        )
        agg = report.aggregate
        w.writerow(
            ["scenario", agg["total_handovers"], f"{agg['mean_duration_s']:.2f}",
             f"{agg['total_invisibility_h']:.2f}", f"{agg['total_pod_unavail_h']:.2f}"]
        )
    for name, points in sorted(report.cdf_points.items()):
        with open(os.path.join(out_dir, f"cdf_{name}.csv"), "w", newline="") as fh:
            fh.write("value,fraction\r\n")
            for lo in range(0, len(points), _CDF_WRITE_ROWS):
                rows = points[lo : lo + _CDF_WRITE_ROWS]
                fh.write("%.6f,%.6f\r\n" * len(rows) % tuple(rows.ravel().tolist()))
