"""Metric aggregation over handover records and report latencies.

Report latencies stay float64 arrays from the simulation to the CDF
file: sorted with ``np.sort``, summed for every satellite at once by one
sequential ``np.cumsum`` along the rows of a zero-padded matrix (left
to right, as Python's ``sum`` added floats before 3.12), and written
through ``tolist`` so every value prints as the same float. Each
satellite's record fields are summed the same way.

The records and CDF writers stream their rows with the bytes of
``csv.writer`` (CRLF line ends, numbers unquoted), so no whole file is
held as one string: the records writer one generated line at a time,
the CDF writer a block of ``numtext.BLOCK`` numbers at a time, each
``"%.6f"`` formatted by ``numtext``'s exact numpy encoder.
``report.json`` has the bytes of ``json.dump(..., indent=2,
sort_keys=True)``, which has no C path: its per-satellite rows go
``_REPORT_WRITE_ROWS`` at a time through one C-encoder ``json.dumps``
and indented row templates.
"""
import csv
import functools
import json
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import numtext
from .errors import EmptyInput

# per-satellite report.json rows encoded and written at a time
_REPORT_WRITE_ROWS = 256


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
    rec_sats = [r.sat_id for r in records]
    sats = sorted(set(rec_sats) | set(report_latencies))
    lats = [np.asarray(report_latencies.get(s, ()), dtype=float) for s in sats]
    all_lats = np.concatenate([np.empty(0)] + lats)
    lat_means = _row_means(lats, all_lats)
    # each satellite's records in the order of ``records``, summed per field
    pos = np.searchsorted(sats, rec_sats)
    counts = np.bincount(pos, minlength=len(sats))
    fields = np.array([(r.duration, r.invisibility, r.pod_unavailability) for r in records])
    # + 0.0: Python's sum starts from int 0, which turns a sum of -0.0 into 0.0
    sums = _row_sums(counts, fields.reshape(-1, 3)[np.argsort(pos, kind="stable")]) + 0.0
    means = sums[:, 0] / np.maximum(counts, 1)
    per_sat = {}
    rows = zip(sats, counts.tolist(), means.tolist(), sums.tolist(), lat_means)
    for s, n, mean, (_, invisibility, unavailable), lat_mean in rows:
        per_sat[s] = {
            "handover_count": n,
            "mean_handover_duration_s": mean,
            # ``sum`` of no records is the int 0
            "total_invisibility_s": invisibility if n else 0,
            "total_pod_unavail_s": unavailable if n else 0,
            "mean_report_latency_ms": lat_mean,
        }

    durations = [r.duration for r in records]
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


def _row_means(rows, flat):
    """The mean of each 1-D array in ``rows`` (0.0 for an empty one), as a
    list of floats; ``flat`` is their concatenation, summed by ``_row_sums``."""
    counts = np.array([row.size for row in rows], dtype=np.intp)
    return (_row_sums(counts, flat) / np.maximum(counts, 1)).tolist()


def _row_sums(counts, flat):
    """The sum of each run of ``flat`` (``counts`` entries each, in order;
    an entry may be a row of several fields), 0.0 for an empty run.

    Each sum is left to right, as Python's ``sum`` added floats before
    3.12 (``np.sum`` adds pairwise and can differ in the last bit): one sequential ``np.cumsum``
    along the rows of a zero-padded matrix, read at each run's last entry.
    The padding comes after that entry, so it changes no sum read.
    """
    padded = np.zeros((counts.size, max(counts.max(initial=0), 1)) + flat.shape[1:])
    # a boolean mask assigns in row-major order: each run's entries, left-aligned
    padded[np.arange(padded.shape[1]) < counts[:, None]] = flat
    np.cumsum(padded, axis=1, out=padded)
    return padded[np.arange(counts.size), np.maximum(counts - 1, 0)]


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


def _write_report_json(report: MetricsReport, fh):
    """The text of ``json.dump({"aggregate": ..., "per_satellite": ...},
    fh, indent=2, sort_keys=True)`` plus a newline.

    ``json.dump`` with ``indent`` encodes in pure Python. Only the small
    aggregate takes that path; the per-satellite rows, sorted by their
    string keys, are encoded ``_REPORT_WRITE_ROWS`` at a time by one
    C-encoder ``json.dumps`` of their keys and values, split on its
    ``", "`` separator and set into indented row templates. So a row's
    key must be a number and its values numbers, as ``aggregate`` makes
    them.
    """
    agg = json.dumps(report.aggregate, indent=2, sort_keys=True).replace("\n", "\n  ")
    fh.write('{\n  "aggregate": %s,\n  "per_satellite": {' % agg)
    rows = sorted(((str(k), v) for k, v in report.per_satellite.items()), key=itemgetter(0))
    sep = ""
    for lo in range(0, len(rows), _REPORT_WRITE_ROWS):
        templates, scalars = [], []
        for key, row in rows[lo : lo + _REPORT_WRITE_ROWS]:
            names = tuple(sorted(row))
            templates.append(_row_template(names))
            scalars.append(key)
            scalars.extend(map(row.__getitem__, names))
        fh.write(sep)
        fh.write(",".join(templates) % tuple(json.dumps(scalars)[1:-1].split(", ")))
        sep = ","
    fh.write("\n  }\n}\n" if rows else "}\n}\n")


@functools.lru_cache(maxsize=16)
def _row_template(names):
    """One per-satellite row of ``report.json`` at its indent, with ``%s``
    for the encoded key and for each value in ``names`` order."""
    if not names:
        return "\n    %s: {}"
    fields = ",".join(
        "\n      %s: %%s" % json.dumps(name).replace("%", "%%") for name in names
    )
    return "\n    %s: {" + fields + "\n    }"


def write_report(report: MetricsReport, out_dir):
    """report.json, a daily-overhead style table, and CDF CSVs."""
    import os

    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        _write_report_json(report, fh)
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
        with open(os.path.join(out_dir, f"cdf_{name}.csv"), "wb") as fh:
            fh.write(b"value,fraction\r\n")
            points = np.asarray(points, dtype=float).reshape(-1, 2)
            fh.writelines(numtext.csv_blocks([(points, "f")]))
