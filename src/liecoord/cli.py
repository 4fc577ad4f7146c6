"""Command-line front end: run scenarios, check coordination, sweep grids.

    liecoord run <scenario.ini> [--seed S] [--h H] [--t-end T] [--out DIR]
    liecoord check <run-dir> --mode lic|ric|tc [--tol X] [--window W]
    liecoord sweep <scenario.ini> --grid "h=1e-2,1e-3;t_end=5,10" [--seeds a..b] [--out DIR]

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


def _terminal(traj):
    """Terminal V_* and largest V_k of a run; NaN if it blew up at t = 0, with no sample."""
    if not len(traj.times):
        return dict.fromkeys([*simulator.METRIC_NAMES, "V_k_max"], np.nan)
    row = {name: traj.metrics[name][-1] for name in simulator.METRIC_NAMES}
    row["V_k_max"] = float(np.max(traj.metrics["V_k"][-1]))
    return row


def cmd_run(args):
    cfg = _apply_overrides(parse_scenario(args.scenario), args)
    traj = simulator.run(cfg)
    out = _out_dir(args.out)
    simulator.write_run(traj, out)
    print(f"run: {cfg.group} {cfg.controller} N={cfg.n_agents} "
          f"t_end={cfg.t_end:g} seed={cfg.seed} -> {out}")
    if len(traj.times):     # a run that blows up at t = 0 records no sample
        print("terminal: " + " ".join(f"{k}={v:.6e}" for k, v in _terminal(traj).items()))
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


def _read(key, text):
    return read_fields({key: text}, "scenario")[key]


def _axes(grid, seeds):
    """The sweep's axes {key: values}, in the order of their product: the
    --grid keys as given ('h=1e-2,1e-3;seed=0,1'), then --seeds ('a..b' or
    'a,b,..') as the seed axis.  Keys and values are read as [scenario] keys
    (scenario.FIELDS)."""
    axes = {}
    for part in grid.split(";") if grid.strip() else []:
        key, _, vals = part.partition("=")
        key = key.strip()
        if key not in FIELDS["scenario"]:
            raise ConfigError(
                f"grid: unknown field {key!r}; choose from {sorted(FIELDS['scenario'])}"
            )
        if key in axes:
            raise ConfigError(f"grid: {key} is given twice")
        axes[key] = [_read(key, v.strip()) for v in vals.split(",") if v.strip()]
    if seeds is not None:
        if "seed" in axes:
            raise ConfigError("seed: give it in --grid or in --seeds, not in both")
        a, _, b = seeds.partition("..")
        axes["seed"] = (range(_read("seed", a), _read("seed", b) + 1) if b
                        else [_read("seed", s) for s in seeds.split(",")])
    for key, vals in axes.items():
        if not vals:
            raise ConfigError(f"{key}: the sweep gives it no value")
    return axes


def _sweep_one(cfg):
    traj = simulator.run(cfg)
    try:
        tc = analysis.check_coordination(traj, "tc", window=min(1.0, cfg.t_end / 2), tol=1e-3)
        tc_flag = int(tc.achieved)
    except analysis.AnalysisError:
        tc_flag = -1
    return {**_terminal(traj), "tc": tc_flag, "completed": int(traj.completed)}


def cmd_sweep(args):
    if args.jobs < 1:
        raise ConfigError("jobs: must be >= 1")
    base = parse_scenario(args.scenario)
    axes = _axes(args.grid, args.seeds)
    cfgs = [replace(base, **dict(zip(axes, combo)))
            for combo in itertools.product(*axes.values())] if axes else []
    for cfg in cfgs:
        cfg.validate()
    out = _out_dir(args.out)
    jobs = min(args.jobs, len(cfgs))
    if jobs > 1:
        # imported here only: about 20 ms that every other use of the module would pay
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, cfgs))
    else:
        rows = [_sweep_one(cfg) for cfg in cfgs]
    keys = sorted(axes.keys() - {"seed"}) + ["seed"]
    metric_cols = list(simulator.METRIC_NAMES) + ["V_k_max", "tc", "completed"]
    lines = [",".join(keys + metric_cols)]
    for cfg, row in zip(cfgs, rows):
        cells = [format(getattr(cfg, k), "") for k in keys]
        cells += [format(float(row[c]), ".17g") if c not in ("tc", "completed") else str(row[c])
                  for c in metric_cols]
        lines.append(",".join(cells))
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
