"""Command-line front end: run scenarios, check coordination, sweep grids.

    liecoord run <scenario.ini> [--seed S] [--h H] [--t-end T] [--out DIR]
    liecoord check <run-dir> --mode lic|ric|tc [--tol X] [--window W]
    liecoord sweep <scenario.ini> --grid "h=1e-2,1e-3;seed=0,1" [--seeds a..b] [--out DIR]

Output directory defaults to $LIECOORD_OUT or the current directory.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, simulator
from .controllers import ControllerError
from .graphs import GraphError
from .groups import GroupError
from .scenario import FIELDS, parse_scenario, read_fields
from .simulator import ConfigError, Trajectory

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _out_dir(arg):
    base = arg or os.environ.get("LIECOORD_OUT") or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_overrides(cfg, args):
    given = {key: getattr(args, key) for key in ("seed", "h", "t_end")}
    return replace(cfg, **{key: v for key, v in given.items() if v is not None})


def _write_run(traj, out):
    out.mkdir(parents=True, exist_ok=True)
    simulator.write_trajectory_csv(traj, out / "trajectory.csv")
    simulator.write_metrics_csv(traj, out / "metrics.csv")
    simulator.write_manifest(traj, out / "manifest.txt")


def cmd_run(args):
    cfg = _apply_overrides(parse_scenario(args.scenario), args)
    traj = simulator.run(cfg)
    out = _out_dir(args.out)
    _write_run(traj, out)
    print(f"run: {cfg.group} {cfg.controller} N={cfg.n_agents} "
          f"t_end={cfg.t_end:g} seed={cfg.seed} -> {out}")
    if len(traj.times):     # a run that blows up at t = 0 records no sample
        final = {k: traj.metrics[k][-1] for k in simulator.METRIC_NAMES}
        vk = float(np.max(traj.metrics["V_k"][-1]))
        print("terminal: " + " ".join(f"{k}={v:.6e}" for k, v in final.items())
              + f" V_k_max={vk:.6e}")
    if not traj.completed:
        print("run aborted early; see manifest events", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def load_run(run_dir):
    """Rebuild a Trajectory, with its events but without config, from an output directory."""
    run_dir = Path(run_dir)
    manifest = simulator.read_manifest(run_dir / "manifest.txt")
    times, g, xi, aux = simulator.read_trajectory_csv(
        run_dir / "trajectory.csv", manifest["group"]
    )
    return Trajectory(
        group_name=manifest["group"],
        times=times, g=g, xi=xi, aux=aux, metrics={},
        events=[simulator.Event(**e) for e in manifest["events"]],
        completed=manifest["status"] == "completed",
    ), manifest


def cmd_check(args):
    traj, _ = load_run(args.run_dir)
    report = analysis.check_coordination(traj, args.mode, window=args.window, tol=args.tol)
    out = Path(args.run_dir) / f"check_{args.mode}.txt"
    out.write_text(report.format() + "\n")
    print(report.format())
    return EXIT_OK if report.achieved else EXIT_FAILURE


def _parse_grid(spec):
    """Grid spec 'h=1e-2,1e-3;seed=0,1' -> list of override dicts; keys and
    values are read as [scenario] keys (scenario.FIELDS)."""
    if not spec or not spec.strip():
        return []
    axes = {}
    for part in spec.split(";"):
        key, _, vals = part.partition("=")
        key = key.strip()
        if key not in FIELDS["scenario"]:
            raise ConfigError(
                f"grid: unknown field {key!r}; choose from {sorted(FIELDS['scenario'])}"
            )
        if key in axes:
            raise ConfigError(f"grid: {key} is given twice")
        axes[key] = [read_fields({key: v.strip()}, "scenario")[key]
                     for v in vals.split(",") if v.strip()]
        if not axes[key]:
            raise ConfigError(f"grid: {key} has no values")
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def _seed(text):
    return read_fields({"seed": text}, "scenario")["seed"]


def _parse_seeds(spec):
    if spec is None:
        return [None]
    a, _, b = spec.partition("..")
    seeds = list(range(_seed(a), _seed(b) + 1)) if b else [_seed(s) for s in spec.split(",")]
    if not seeds:
        raise ConfigError(f"seeds: {spec!r} holds no seed")
    return seeds


def _sweep_one(task):
    scenario_path, overrides, seed = task
    cfg = parse_scenario(scenario_path)
    cfg = replace(cfg, **overrides)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    traj = simulator.run(cfg)
    try:
        tc = analysis.check_coordination(traj, "tc", window=min(1.0, cfg.t_end / 2), tol=1e-3)
        tc_flag = int(tc.achieved)
    except analysis.AnalysisError:
        tc_flag = -1
    row = {name: traj.metrics[name][-1] for name in simulator.METRIC_NAMES}
    row["V_k_max"] = float(np.max(traj.metrics["V_k"][-1]))
    row["tc"] = tc_flag
    row["completed"] = int(traj.completed)
    return overrides, cfg.seed, row


def cmd_sweep(args):
    grid = _parse_grid(args.grid)
    if not grid and args.seeds is not None:
        grid = [{}]
    seeds = _parse_seeds(args.seeds)
    tasks = [(args.scenario, g, s) for g in grid for s in seeds]
    out = _out_dir(args.out)
    results = []
    if tasks:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_sweep_one, tasks))
        else:
            results = [_sweep_one(t) for t in tasks]
    keys = sorted({k for g in grid for k in g})
    metric_cols = list(simulator.METRIC_NAMES) + ["V_k_max", "tc", "completed"]
    header = keys + ["seed"] + metric_cols
    lines = [",".join(header)]
    for overrides, seed, row in results:
        cells = [format(overrides.get(k, ""), "") for k in keys] + [str(seed)]
        cells += [format(float(row[c]), ".17g") if c not in ("tc", "completed") else str(row[c])
                  for c in metric_cols]
        lines.append(",".join(str(c) for c in cells))
    table = "\n".join(lines) + "\n"
    (out / "sweep.csv").write_text(table)
    print(table, end="")
    if results:
        done = [r for _, _, r in results if r["tc"] >= 0]
        if done:
            frac = sum(r["tc"] for r in done) / len(done)
            print(f"# tc fraction: {frac:.3f} over {len(done)} runs")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="liecoord", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--h", type=float, default=None)
    run_p.add_argument("--t-end", dest="t_end", type=float, default=None)
    run_p.add_argument("--out", default=None)
    run_p.set_defaults(fn=cmd_run)

    check_p = sub.add_parser("check", help="coordination check on a run directory")
    check_p.add_argument("run_dir")
    check_p.add_argument("--mode", required=True, choices=["lic", "ric", "tc"])
    check_p.add_argument("--tol", type=float, default=1e-3)
    check_p.add_argument("--window", type=float, default=1.0)
    check_p.set_defaults(fn=cmd_check)

    sweep_p = sub.add_parser("sweep", help="run a scenario over a parameter grid")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--grid", default="")
    sweep_p.add_argument("--seeds", default=None, help="a..b or comma list")
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--out", default=None)
    sweep_p.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ControllerError, GraphError, GroupError,
            analysis.AnalysisError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
