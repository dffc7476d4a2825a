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
reports; ``run_pipeline`` waits for that child before it returns, and a
child that fails fails the run. A stage command such as ``snapshot``
writes them in-process.
"""
import argparse
import csv
import gc
import json
import math
import os
import sys
from dataclasses import replace

from . import placement as plc
from .config import apply_overrides, parse_config, read_config, stage_seed
# ``load_config`` is not called here; ``perfbench/run.py`` times it on this module.
from .config import load_config  # noqa: F401
from .errors import BudgetExceeded, ConfigError, InfeasibleInstance, LeocpError, StageError
from .orbits import generate_constellation
from .reporting import aggregate, write_records_csv, write_report
from .scenario import ScenarioSpec, build_fields, predict_schedules, run_scenario
from .topology import write_fields_csv, write_fields_json, write_json_array, write_snapshots_json

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
    try:
        for name in stages:
            try:
                _run_stage(name, cfg, out_dir, state, trace)
            except LeocpError as exc:
                print(f"[{name}] FAILED: {exc}", file=sys.stderr)
                rc = 1
                break
    finally:
        # reaped on every path, a raised exception included
        if "writer" in state:
            try:
                _reap_writer(state.pop("writer"))
            except StageError as exc:
                print(f"[snapshot] FAILED: {exc}", file=sys.stderr)
                rc = 1
    return rc


def _write_snapshot_files(snapshots, fields, out_dir):
    write_snapshots_json(snapshots, os.path.join(out_dir, "snapshots.json"))
    write_fields_json(fields, os.path.join(out_dir, "fields.json"))
    write_fields_csv(fields, os.path.join(out_dir, "distances.csv"))


def _fork_writer(snapshots, fields, out_dir):
    """Start the one child that runs ``_write_snapshot_files``; its pid.

    The child leaves through ``os._exit``: it never flushes the stdio
    buffers it inherited and never returns into a later stage. It calls
    no BLAS routine, whose threads the fork does not copy.
    """
    pid = os.fork()
    if pid == 0:
        # a collection would walk, and so copy, the whole inherited heap;
        # the writers make no reference cycles, so refcounts free their garbage
        gc.disable()
        code = 1
        try:
            _write_snapshot_files(snapshots, fields, out_dir)
            code = 0
        except Exception as exc:
            os.write(2, f"[snapshot] writer: {type(exc).__name__}: {exc}\n".encode())
        finally:
            os._exit(code)
    return pid


def _reap_writer(pid):
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise StageError(
            f"the writer of snapshots.json, fields.json and distances.csv (pid {pid}) "
            f"exited with status {code}"
        )


def _require_built(cfg, state):
    """The (elements, snapshots, ``DistanceFields``) series, built once per run."""
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
        elements = generate_constellation(cfg.shell)
        path = os.path.join(out_dir, "constellation.json")
        write_json_array(
            (
                {
                    "plane": e.sat_id[0],
                    "slot": e.sat_id[1],
                    "raan_rad": e.raan,
                    "phase_rad": e.initial_phase,
                    "semi_major_axis_km": e.semi_major_axis_km,
                    "inclination_rad": e.inclination,
                }
                for e in elements
            ),
            path,
        )
        print(f"[gen] {len(elements)} satellites -> {path}")

    elif name == "snapshot":
        _, snapshots, fields = _require_built(cfg, state)
        if state["fork_writer"]:
            state["writer"] = _fork_writer(snapshots, fields, out_dir)
        else:
            _write_snapshot_files(snapshots, fields, out_dir)
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
        json_path = os.path.join(out_dir, "schedule.json")
        with open(json_path, "w") as fh:
            fh.write(
                json.dumps(
                    {
                        str(sat): {"initial": sch.initial, "events": sch.events}
                        for sat, sch in schedules.items()
                    },
                    sort_keys=True,
                )
            )
            fh.write("\n")
        csv_path = os.path.join(out_dir, "schedule.csv")
        with open(csv_path, "w", newline="") as fh:
            fh.write("sat_id,t_s,source_gs,target_gs\r\n")
            for sat in sorted(schedules):
                sch = schedules[sat]
                current = sch.initial
                for t, target in sch.events:
                    fh.write(f"{sat},{t:.3f},{current},{target}\r\n")
                    current = target
        total = sum(s.count for s in schedules.values())
        print(f"[assign] {total} predicted handovers -> {csv_path}")

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
    parser.add_argument("--protocol", choices=["seamless", "legacy"], default=None)
    parser.add_argument(
        "--method", choices=["cnpa", "exhaustive", "random", "single"], default=None
    )
    parser.add_argument("--delta", type=float, default=None, help="handover threshold ratio")
    parser.add_argument("--k", type=int, default=None, help="number of control nodes")
    parser.add_argument("--clusters", type=int, default=None, help="snapshot cluster count")
    parser.add_argument("--trace", action="store_true", help="dump the event trace (simulate)")
    args = parser.parse_args(argv)

    try:
        raw = apply_overrides(
            read_config(args.config),
            {
                "seed": args.seed,
                "protocol": args.protocol,
                "method": args.method,
                "delta": args.delta,
                "k": args.k,
                "clusters": args.clusters,
            },
        )
        cfg = parse_config(raw, base_dir=os.path.dirname(os.path.abspath(args.config)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    return run_pipeline(cfg, args.stage, args.out, trace=args.trace)


if __name__ == "__main__":
    sys.exit(main())
