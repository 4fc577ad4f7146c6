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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, simulator
from .controllers import ControllerError
from .graphs import GraphError
from .groups import GroupError
from .scenario import FIELDS, parse_scenario, read_fields
from .simulator import ConfigError, load_run

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


def cmd_run(args):
    cfg = _apply_overrides(parse_scenario(args.scenario), args)
    traj = simulator.run(cfg)
    out = _out_dir(args.out)
    simulator.write_run(traj, out)
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
    """--seeds 'a..b' or 'a,b,..' -> list of seed override dicts; [{}] without it."""
    if spec is None:
        return [{}]
    a, _, b = spec.partition("..")
    seeds = list(range(_seed(a), _seed(b) + 1)) if b else [_seed(s) for s in spec.split(",")]
    if not seeds:
        raise ConfigError(f"seeds: {spec!r} holds no seed")
    return [{"seed": s} for s in seeds]


def _sweep_one(cfg):
    traj = simulator.run(cfg)
    try:
        tc = analysis.check_coordination(traj, "tc", window=min(1.0, cfg.t_end / 2), tol=1e-3)
        tc_flag = int(tc.achieved)
    except analysis.AnalysisError:
        tc_flag = -1
    if len(traj.times):
        row = {name: traj.metrics[name][-1] for name in simulator.METRIC_NAMES}
        row["V_k_max"] = float(np.max(traj.metrics["V_k"][-1]))
    else:                           # blew up at t = 0: no terminal metrics
        row = dict.fromkeys([*simulator.METRIC_NAMES, "V_k_max"], np.nan)
    row["tc"] = tc_flag
    row["completed"] = int(traj.completed)
    return row


def cmd_sweep(args):
    if args.jobs < 1:
        raise ConfigError("jobs: must be >= 1")
    base = parse_scenario(args.scenario)
    grid = _parse_grid(args.grid)
    if not grid and args.seeds is not None:
        grid = [{}]
    seeds = _parse_seeds(args.seeds)
    cfgs = [replace(base, **{**g, **s}) for g in grid for s in seeds]
    out = _out_dir(args.out)
    jobs = min(args.jobs, len(cfgs))
    if jobs > 1:
        # imported here only: about 20 ms that every other use of the module would pay
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, cfgs))
    else:
        rows = [_sweep_one(cfg) for cfg in cfgs]
    keys = sorted({k for g in grid for k in g})
    metric_cols = list(simulator.METRIC_NAMES) + ["V_k_max", "tc", "completed"]
    header = keys + ["seed"] + metric_cols
    lines = [",".join(header)]
    for cfg, row in zip(cfgs, rows):
        cells = [format(getattr(cfg, k), "") for k in keys] + [str(cfg.seed)]
        cells += [format(float(row[c]), ".17g") if c not in ("tc", "completed") else str(row[c])
                  for c in metric_cols]
        lines.append(",".join(str(c) for c in cells))
    table = "\n".join(lines) + "\n"
    (out / "sweep.csv").write_text(table)
    print(table, end="")
    done = [row for row in rows if row["tc"] >= 0]
    if done:
        frac = sum(row["tc"] for row in done) / len(done)
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


_FLOAT_OPTIONS = ("--h", "--t-end", "--tol", "--window")


def _join_negative_floats(argv):
    """argv with each float option (or a prefix that argparse takes for one)
    and the negative number after it joined into one word, '--tol -1e-3' into
    '--tol=-1e-3': before Python 3.13, argparse takes a word that starts with
    '-' for an option unless it looks like -1 or -.5, and so never passes
    -1e-3 to the command's own check."""
    out = []
    for word in argv:
        if (out and len(out[-1]) > 2 and any(o.startswith(out[-1]) for o in _FLOAT_OPTIONS)
                and word.startswith("-")):
            try:
                float(word)
            except ValueError:
                pass
            else:
                out[-1] += "=" + word
                continue
        out.append(word)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_floats(argv))
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
