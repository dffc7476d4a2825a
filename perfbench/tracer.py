"""Spans and counters around the leocp functions each pipeline layer exposes.

The tracer replaces a function under the name its caller looks it up by
(modules import functions by name, so ``leocp.cli.build_fields`` and
``leocp.scenario.build_fields`` are patched separately) and restores
the originals on exit. Nothing inside ``leocp`` is edited.

Three kinds of wrapper:

* ``span``: one span per call, with name, start, end and parent.
* ``hot``: calls and total time only, for functions called hundreds of
  thousands of times. Their time is charged to the enclosing span, so
  self times stay exact without one span per call.
* ``count``: calls only.

A span's self time is its duration minus the time covered by its child
spans and by hot calls made directly inside it.
"""
import os
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import leocp.assignment
import leocp.cli
import leocp.config
import leocp.kernels
import leocp.placement
import leocp.scenario
from leocp.protocol import ConstantLatency, Simulation, SnapshotLatency


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    hot_s: float = 0.0  # time of hot calls made directly inside this span

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.kinds = {}
        self.hot_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def patch(self, owner, attr, name, kind="span", on_result=None):
        fn = vars(owner)[attr]
        self._patches.append((owner, attr, fn))
        self.calls[name] += 0  # report uncalled functions as 0 calls
        self.kinds[name] = kind
        if kind == "span":
            wrapper = self._span_wrapper(fn, name, on_result)
        elif kind == "hot":
            wrapper = self._hot_wrapper(fn, name)
        else:
            wrapper = self._count_wrapper(fn, name, on_result)
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name, on_result):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            calls[name] += 1
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def _hot_wrapper(self, fn, name):
        spans, stack, calls, hot_s = self.spans, self._stack, self.calls, self.hot_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                hot_s[name] += dt
                if stack:
                    spans[stack[-1]].hot_s += dt

        return wrapper

    def _count_wrapper(self, fn, name, on_result):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        return False

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        covered = [s.hot_s for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def entry_s(self, name):
        """Time in spans called ``name`` entered from another layer.

        A call from inside the same layer (``exhaustive_optimal`` under
        ``best_single``) is already inside an entry span of that layer.
        """
        total = 0.0
        for s in self.spans:
            if s.name != name:
                continue
            if s.parent is None or self.spans[s.parent].layer != s.layer:
                total += s.end - s.start
        return total

    def metrics(self):
        """Per-layer metrics: calls and entry time of every wrapped name,
        the counters, each layer's self time, and a few derived ratios."""
        m = {}
        for name, calls in self.calls.items():
            m[f"{name}.calls"] = calls
            if self.kinds[name] == "hot":
                m[f"{name}.s"] = self.hot_s[name]
            elif self.kinds[name] == "span":
                m[f"{name}.s"] = self.entry_s(name)
        m.update(self.counts)
        selfs = self.self_times()
        for span, self_s in zip(self.spans, selfs):
            key = f"{span.layer}.self_s"
            m[key] = m.get(key, 0.0) + self_s
        for name, s in self.hot_s.items():
            key = f"{name.split('.', 1)[0]}.self_s"
            m[key] = m.get(key, 0.0) + s
        m["scenario.run_scenario.self_s"] = sum(
            x for span, x in zip(self.spans, selfs) if span.name == "scenario.run_scenario"
        )
        m["placement.baselines.s"] = m["placement.random_select.s"] + m["placement.best_single.s"]
        m["protocol.events"] = m["protocol.schedule.calls"]
        m["protocol.events_per_s"] = m["protocol.events"] / m["protocol.run.s"]
        m["protocol.executed_ratio"] = (
            m["protocol.handovers_executed"] / m["protocol.handovers_scheduled"]
        )
        return m

    def to_dict(self):
        """Every span with its self time, plus the metrics."""
        selfs = self.self_times()
        return {
            "spans": [dict(asdict(s), self_s=x) for s, x in zip(self.spans, selfs)],
            "metrics": self.metrics(),
        }


# -- what gets wrapped ------------------------------------------------------


def _writer(counter, path_of):
    def on_result(tracer, args, result):
        tracer.counts[counter] += os.path.getsize(path_of(args))

    return on_result


def _report_bytes(tracer, args, result):
    out_dir = args[1]
    names = ["report.json", "report_table.csv"]
    names += [f"cdf_{name}.csv" for name in args[0].cdf_points]
    tracer.counts["reporting.bytes_written"] += sum(
        os.path.getsize(os.path.join(out_dir, n)) for n in names
    )


def _predicted(tracer, args, result):
    params = args[1]
    tracer.counts["assignment.decision_ticks"] += int(params.horizon_s // params.decide_dt_s) + 1
    tracer.counts["assignment.handovers_predicted"] += result.count


def _dijkstra(tracer, args, result):
    tracer.counts["topology.dijkstra_sources"] += len(args[4])


def _simulated(tracer, args, result):
    tracer.counts["protocol.handovers_executed"] += len(result.records)
    tracer.counts["protocol.reports"] += sum(len(v) for v in result.report_latencies.values())
    tracer.counts["protocol.handovers_scheduled"] += sum(
        s.count for s in result.schedules.values()
    )


COUNTERS = (
    "topology.dijkstra_sources",
    "topology.bytes_written",
    "assignment.decision_ticks",
    "assignment.handovers_predicted",
    "protocol.handovers_executed",
    "protocol.handovers_scheduled",
    "protocol.reports",
    "reporting.bytes_written",
)


def install(tracer):
    cli, scn, plc = leocp.cli, leocp.scenario, leocp.placement
    tracer.counts.update(dict.fromkeys(COUNTERS, 0))
    p = tracer.patch
    p(leocp.config, "parse_config", "config.parse_config")
    p(cli, "run_pipeline", "cli.run_pipeline")
    p(leocp.assignment, "propagate", "orbits.propagate", kind="hot")
    p(scn, "build_snapshot", "topology.build_snapshot")
    p(scn, "shortest_distances", "topology.shortest_distances")
    p(leocp.kernels, "dijkstra_from_sources", "topology.dijkstra", kind="count", on_result=_dijkstra)
    p(cli, "write_snapshots_json", "topology.write_snapshots_json",
      on_result=_writer("topology.bytes_written", lambda a: a[1]))
    p(cli, "write_fields_csv", "topology.write_fields_csv",
      on_result=_writer("topology.bytes_written", lambda a: a[1]))
    for fn in ("cnpa", "exhaustive_optimal", "random_select", "best_single"):
        p(plc, fn, f"placement.{fn}")
    p(scn, "sample_distances", "assignment.sample_distances")
    p(scn, "predict_handovers", "assignment.predict_handovers", on_result=_predicted)
    for owner in (cli, scn):
        p(owner, "build_fields", "scenario.build_fields")
        p(owner, "predict_schedules", "scenario.predict_schedules")
    p(cli, "run_scenario", "scenario.run_scenario", on_result=_simulated)
    p(Simulation, "run", "protocol.run")
    p(Simulation, "schedule", "protocol.schedule", kind="count")
    p(ConstantLatency, "__call__", "protocol.latency", kind="hot")
    p(SnapshotLatency, "__call__", "protocol.latency", kind="hot")
    p(cli, "aggregate", "reporting.aggregate")
    p(cli, "write_report", "reporting.write_report", on_result=_report_bytes)
    p(cli, "write_records_csv", "reporting.write_records_csv",
      on_result=_writer("reporting.bytes_written", lambda a: a[1]))
