"""liecoord benchmark launcher.

    python3 perfbench/run.py --workload steer-se3|ring-swarm|so3-basin \
        --seed N --seconds S --trace 0|1

Runs rounds of one workload, each in a fresh single-threaded process
(``workloads.py``), one after another until the next round would end after
S seconds (at least one round).  With ``--trace 0`` it reports the
end-to-end metrics over the rounds; with ``--trace 1`` it alternates
untraced and traced rounds, reports the per-layer metrics of the traced ones
and the tracing overhead, then measures the group micro-table.  The last line
of output is one JSON object: correct, attempted, failed, metrics.  Metric
names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steer-se3", "ring-swarm", "so3-basin")
# numpy's OpenBLAS would otherwise start a thread per core.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HARD_LIMIT_S = 165.0          # the whole run must end within 180 s


class RoundError(RuntimeError):
    pass


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_child(kind, seed, traced, tmp, timeout):
    cmd = [sys.executable, str(HERE / "workloads.py"), kind, str(seed),
           "1" if traced else "0", str(tmp)]
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as e:
        raise RoundError(f"{kind} round exceeded {timeout:.0f} s") from e
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{kind} round exited with {proc.returncode}")
    return json.loads(lines[-1])


def rounds(workload, seed, seconds, trace, tmp):
    """Round records, alternating untraced/traced when tracing."""
    start = time.perf_counter()
    records, durations = [], []
    while True:
        traced = trace and len(records) % 2 == 1
        t = time.perf_counter()
        records.append(run_child(workload, seed, traced, tmp,
                                 HARD_LIMIT_S - (t - start)))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        typical = statistics.median(durations)
        both = not trace or len(records) >= 2
        if both and elapsed + typical > min(seconds, HARD_LIMIT_S - 15.0):
            return records


def median(values):
    return float(statistics.median(values))


def per_step_us(records, key):
    """Seconds of ``key`` summed over rounds, per simulated step, in us."""
    return 1e6 * sum(r[key] for r in records) / sum(r["steps"] for r in records)


def end_to_end(untraced):
    return {
        "setup_s": median(r["setup_s"] for r in untraced),
        "wall_per_step_us": per_step_us(untraced, "wall_s"),
        "step_us": per_step_us(untraced, "run_s"),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(name, traced, untraced, micro):
    """Value of one per-layer metric: medians over rounds of per-round sums."""
    if name in micro:
        return micro[name]
    if name == "trace.overhead_pct":
        return 100.0 * (per_step_us(traced, "wall_s") / per_step_us(untraced, "wall_s") - 1.0)
    if name in ("export_s", "check_s"):
        return median(r[name] for r in untraced)
    key, _, field = name.rpartition(".")
    if field in ("calls", "self_s"):
        col = 0 if field == "calls" else 1
        return median(r["layers"].get(key, [0, 0.0])[col] for r in traced)
    return median(r["counts"].get(name, 0) for r in traced)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "liecoord" / "__init__.py").is_file():
        print(f"error: no liecoord sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics_spec = spec()
    tmp = ROOT / ".perfbench_out" / f"tmp-{os.getpid()}"
    if args.trace:
        for old in (ROOT / ".perfbench_out" / "spans").glob(f"{args.workload}-*.npz"):
            old.unlink()
    start = time.perf_counter()
    try:
        records = rounds(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        micro = {}
        if args.trace:
            micro = run_child("micro", args.seed, False, tmp,
                              HARD_LIMIT_S - (time.perf_counter() - start))["micro"]
    except RoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if not all(r["steps"] for r in records):
        print("error: a round executed no simulation steps; see the failures above",
              file=sys.stderr)
        return 1
    print("versions: " + json.dumps(records[0]["versions"], sort_keys=True))
    for r in records:
        print("round: " + json.dumps({k: v for k, v in r.items()
                                      if k not in ("versions", "layers", "failures")}))
    if args.trace:
        values = {m["name"]: per_layer(m["name"], traced, untraced, micro)
                  for m in metrics_spec["per_layer"]}
        listed = metrics_spec["per_layer"]
    else:
        values = end_to_end(untraced)
        listed = metrics_spec["end_to_end"]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
