"""Command-line pipeline: gen | snapshot | place | assign | simulate | report | all.

Each stage is a pure function of the effective config, so stages can
run independently; later stages recompute their (cheap, deterministic)
prerequisites instead of reading intermediate files. Within one
invocation each prerequisite (fields, placement, schedules) is computed
once and shared by the stages that need it. Every invocation echoes the
effective config next to its outputs.

No later stage reads the snapshot stage's files (``snapshots.json``,
``fields.json``, ``distances.csv``). So in ``all`` one forked child
process writes them while the parent places, assigns, simulates and
reports. The child writes ``snapshots.json``, then takes the other two
one at a time from a pipe that holds one token per file. Once every
stage has returned, the parent takes from the same pipe, so a file the
child has not started is written by whichever process is free. Then
``run_pipeline`` waits for the child; a child that fails, or a file the
parent cannot write, fails the run. After a failed stage the parent
takes nothing and the child writes every file left. After the fork the
parent drops the snapshots, which only ``snapshots.json`` reads. A stage
command such as ``snapshot`` writes all three in-process.

``run_pipeline`` freezes the start-up heap (``gc.freeze``) before any
stage, and so before the fork: a full collection would walk it, free
nothing, and make the parent copy every page it touched after the fork.
It unfreezes on the way out, unless the caller had frozen objects itself.
"""
import argparse
import csv
import gc
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import placement as plc
from .config import _FLAG_KEYS, _METHODS, apply_overrides, parse_config, read_config, stage_seed
# ``load_config`` is not called here; ``perfbench/run.py`` times it on this module.
from .config import load_config  # noqa: F401
from .errors import BudgetExceeded, ConfigError, InfeasibleInstance, LeocpError, StageError
from .orbits import generate_constellation, write_constellation_json
from .protocol import Protocol
from .reporting import aggregate, write_records_csv, write_report
from .scenario import ScenarioSpec, build_fields, predict_schedules, run_scenario
from .topology import write_fields_csv, write_fields_json, write_snapshots_json

STAGES = ["gen", "snapshot", "place", "assign", "simulate", "report"]


def _solve_placement(cfg: ScenarioSpec, fields, method):
    candidates = list(range(len(cfg.stations)))
    seed = stage_seed(cfg.seed, "place")
    if method == "cnpa":
        clusters = min(cfg.clusters, len(fields))
        problem = plc.PlacementProblem(
            fields=fields, candidates=candidates, k=cfg.k, clusters=clusters, seed=seed
        )
        return plc.cnpa(problem, eval_on_full=cfg.eval_on_full)
    if method == "exhaustive":
        return plc.exhaustive_optimal(fields, candidates, cfg.k)
    if method == "random":
        return plc.random_select(fields, candidates, cfg.k, seed=seed)
    if method == "single":
        return plc.best_single(fields, candidates)
    raise StageError(f"place: unknown method {method!r}")


def _solution_dict(sol):
    finite = math.isfinite(sol.objective_km)
    return {
        "selected_ids": list(sol.selected),
        "objective_km": sol.objective_km if finite else None,
        "objective_ms": sol.objective_ms if finite else None,
        "method": sol.method,
        "seed": sol.seed,
    }


def run_pipeline(cfg: ScenarioSpec, stage: str, out_dir: str, trace: bool = False) -> int:
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "effective_config.json"), "w") as fh:
            json.dump(cfg.raw, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"output error: cannot write to {out_dir}: {exc.strerror}", file=sys.stderr)
        return 2

    stages = STAGES if stage == "all" else [stage]
    # stages after ``snapshot`` do not read its files: ``all`` forks their writer
    state = {"fork_writer": stage == "all"}
    rc = 0
    # frozen before the writer fork (see the module docstring); a caller's
    # own freeze is left as it was
    froze = gc.get_freeze_count() == 0
    if froze:
        gc.freeze()
    try:
        for name in stages:
            try:
                _run_stage(name, cfg, out_dir, state, trace)
            except LeocpError as exc:
                print(f"[{name}] FAILED: {exc}", file=sys.stderr)
                rc = 1
                break
        if rc == 0 and "writer" in state:
            # every stage returned: write the files the child has not started
            try:
                _take_snapshot_files(state["writer"][1], state["built"], out_dir)
            except OSError as exc:
                print(f"[snapshot] FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)
                rc = 1
    finally:
        # reaped on every path, a raised exception included
        if "writer" in state:
            pid, tokens = state.pop("writer")
            os.close(tokens)
            try:
                _reap_writer(pid)
            except StageError as exc:
                print(f"[snapshot] FAILED: {exc}", file=sys.stderr)
                rc = 1
        if froze:
            gc.unfreeze()
    return rc


# (file name, writer) of the snapshot stage's files, in the order one
# process writes them all. A writer takes the ``_require_built`` triple and
# a path, and looks its encoder up on this module when it is called.
SNAPSHOT_WRITERS = (
    ("snapshots.json", lambda built, path: write_snapshots_json(built[1], path)),
    ("fields.json", lambda built, path: write_fields_json(built[2], path)),
    ("distances.csv", lambda built, path: write_fields_csv(built[2], path)),
)


def _write_snapshot_file(index, built, out_dir):
    name, write = SNAPSHOT_WRITERS[index]
    write(built, os.path.join(out_dir, name))


def _take_snapshot_files(tokens, built, out_dir):
    """Write the file of each token read from the pipe ``tokens``, until EOF."""
    while token := os.read(tokens, 1):
        _write_snapshot_file(token[0], built, out_dir)


def _fork_writer(built, out_dir):
    """Start the one child that writes the snapshot stage's files; its pid
    and the read end of their token pipe.

    The pipe holds one byte per file after ``snapshots.json``, its index
    in ``SNAPSHOT_WRITERS``. Both processes close the write end right
    after the fork, so a read returns a token or, once the pipe is empty,
    EOF, and never blocks. The child writes ``snapshots.json`` and then
    the file of each token it reads.

    The child leaves through ``os._exit``: it never flushes the stdio
    buffers it inherited and never returns into a later stage. It calls
    no BLAS routine, whose threads the fork does not copy.
    """
    tokens, w = os.pipe()
    try:
        os.write(w, bytes(range(1, len(SNAPSHOT_WRITERS))))
        pid = os.fork()
    except BaseException:
        os.close(tokens)
        raise
    finally:
        os.close(w)
    if pid == 0:
        # a collection would walk, and so copy, the whole inherited heap;
        # the writers make no reference cycles, so refcounts free their garbage
        gc.disable()
        code = 1
        try:
            _write_snapshot_file(0, built, out_dir)
            _take_snapshot_files(tokens, built, out_dir)
            code = 0
        except Exception as exc:
            os.write(2, f"[snapshot] writer: {type(exc).__name__}: {exc}\n".encode())
        finally:
            os._exit(code)
    return pid, tokens


def _reap_writer(pid):
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise StageError(
            f"the forked writer of the snapshot files (pid {pid}) exited with status {code}"
        )


def _require_built(cfg, state):
    """The (``Constellation``, snapshots, ``DistanceFields``) series, built once
    per run; in ``all`` the snapshots are ``None`` once the writer has forked."""
    if "built" not in state:
        state["built"] = build_fields(cfg)
    return state["built"]


def _require_placement(cfg, state):
    if "solution" not in state:
        state["solution"] = _solve_placement(cfg, _require_built(cfg, state)[2].d, cfg.method)
    return state["solution"]


def _controlled(cfg, state, record_trace=False):
    """The scenario with the placed controllers as its control nodes."""
    selected = list(_require_placement(cfg, state).selected)
    return replace(cfg, controllers=selected, record_trace=record_trace)


def _require_result(cfg, state, record_trace=False):
    if "result" not in state:
        spec = _controlled(cfg, state, record_trace=record_trace)
        state["result"] = run_scenario(spec, _require_built(cfg, state), state.get("schedules"))
    return state["result"]


def _run_stage(name, cfg: ScenarioSpec, out_dir, state, trace):
    if name == "gen":
        c = generate_constellation(cfg.shell)
        path = os.path.join(out_dir, "constellation.json")
        write_constellation_json(c, cfg.shell.sats_per_plane, path)
        print(f"[gen] {len(c)} satellites -> {path}")

    elif name == "snapshot":
        built = _require_built(cfg, state)
        fields = built[2]
        if state["fork_writer"]:
            state["writer"] = _fork_writer(built, out_dir)
            # only the child writes snapshots.json, the snapshots' one reader
            state["built"] = (built[0], None, fields)
        else:
            for index in range(len(SNAPSHOT_WRITERS)):
                _write_snapshot_file(index, built, out_dir)
        snap_path = os.path.join(out_dir, "snapshots.json")
        csv_path = os.path.join(out_dir, "distances.csv")
        print(f"[snapshot] {len(fields.times)} snapshots -> {snap_path}, {csv_path}")

    elif name == "place":
        fields = _require_built(cfg, state)[2].d
        solution = _require_placement(cfg, state)
        path = os.path.join(out_dir, "placement.json")
        with open(path, "w") as fh:
            json.dump(_solution_dict(solution), fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_compare(cfg, fields, solution, os.path.join(out_dir, "placement_compare.csv"))
        print(
            f"[place] method={solution.method} selected={list(solution.selected)} "
            f"objective={solution.objective_km:.1f} km -> {path}"
        )

    elif name == "assign":
        elements, _, fields = _require_built(cfg, state)
        schedules = predict_schedules(_controlled(cfg, state), elements, fields)
        state["schedules"] = schedules
        events = list(zip(schedules.t.tolist(), schedules.target.tolist()))
        initial, bounds = schedules.initial.tolist(), schedules.bounds.tolist()
        doc = {str(sat): {"initial": initial[sat], "events": events[a:b]}
               for sat, (a, b) in enumerate(zip(bounds, bounds[1:]))}
        with open(os.path.join(out_dir, "schedule.json"), "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True))
            fh.write("\n")
        # schedule.csv: each switch with the controller it leaves (initial, or the previous target)
        source = np.roll(schedules.target, 1)
        first = np.diff(schedules.sat, prepend=-1) != 0
        source[first] = schedules.initial[schedules.sat[first]]
        rows = zip(*(c.tolist() for c in (schedules.sat, schedules.t, source, schedules.target)))
        csv_path = os.path.join(out_dir, "schedule.csv")
        with open(csv_path, "w", newline="") as fh:
            fh.write("sat_id,t_s,source_gs,target_gs\r\n")
            fh.writelines("%d,%.3f,%d,%d\r\n" % row for row in rows)
        print(f"[assign] {schedules.count} predicted handovers -> {csv_path}")

    elif name == "simulate":
        result = _require_result(cfg, state, record_trace=trace)
        path = os.path.join(out_dir, "records.csv")
        write_records_csv(result.records, path)
        if trace and result.sim.trace is not None:
            trace_path = os.path.join(out_dir, "trace.jsonl")
            with open(trace_path, "w") as fh:
                for ev in result.sim.trace:
                    fh.write(json.dumps(ev, sort_keys=True))
                    fh.write("\n")
        print(
            f"[simulate] protocol={cfg.protocol.value} handovers={len(result.records)} -> {path}"
        )

    elif name == "report":
        result = _require_result(cfg, state)
        report = aggregate(result.records, result.report_latencies)
        write_report(report, out_dir)
        agg = report.aggregate
        print(
            f"[report] handovers={agg['total_handovers']} "
            f"mean_duration={agg['mean_duration_s']:.2f}s "
            f"invisibility={agg['total_invisibility_h']:.2f}h -> {out_dir}/report.json"
        )

    else:
        raise StageError(f"unknown stage {name!r}")


def _write_compare(cfg, fields, solution, path):
    """One row per placement method, the configured one first; a method
    that cannot solve this instance gets no row."""
    rows = [solution]
    for method in ("cnpa", "random", "single", "exhaustive"):
        if method == solution.method:
            continue
        try:
            rows.append(_solve_placement(cfg, fields, method))
        except (InfeasibleInstance, BudgetExceeded):
            pass
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "selected", "objective_km", "objective_ms", "seed"])
        for sol in rows:
            obj_km = f"{sol.objective_km:.6f}" if math.isfinite(sol.objective_km) else "inf"
            obj_ms = f"{sol.objective_ms:.6f}" if math.isfinite(sol.objective_ms) else "inf"
            w.writerow(
                [sol.method, " ".join(map(str, sol.selected)), obj_km, obj_ms,
                 sol.seed if sol.seed is not None else ""]
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="leocp",
        description="Constellation control-plane toolkit: placement, handover "
        "prediction, and handover-protocol simulation.",
    )
    parser.add_argument("stage", choices=STAGES + ["all"], help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="scenario config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--protocol", choices=[p.value for p in Protocol], default=None)
    parser.add_argument("--method", choices=sorted(_METHODS), default=None)
    parser.add_argument("--delta", type=float, default=None, help="handover threshold ratio")
    parser.add_argument("--k", type=int, default=None, help="number of control nodes")
    parser.add_argument("--clusters", type=int, default=None, help="snapshot cluster count")
    parser.add_argument("--trace", action="store_true", help="dump the event trace (simulate)")
    args = parser.parse_args(argv)

    try:
        overrides = {flag: getattr(args, flag) for flag in _FLAG_KEYS}
        raw = apply_overrides(read_config(args.config), overrides)
        cfg = parse_config(raw, base_dir=os.path.dirname(os.path.abspath(args.config)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    return run_pipeline(cfg, args.stage, args.out, trace=args.trace)


if __name__ == "__main__":
    sys.exit(main())
