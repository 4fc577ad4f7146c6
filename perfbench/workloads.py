"""One round of a benchmark workload, in a process of its own.

    python3 perfbench/workloads.py <workload> <seed> <traced 0|1> <out-dir>
    python3 perfbench/workloads.py micro <seed> 0 <out-dir>

The last line of standard output is one JSON record with the round's
timings, its operation counts and, for a traced round, the per-layer table.
``run.py`` starts these processes one after another and aggregates them.
"""

import time

T0 = time.perf_counter()      # the workload starts here, before liecoord is imported

import json
import os
import resource
import sys
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import liecoord
from liecoord import analysis, cli, scenario, simulator
from liecoord.graphs import CommGraph
from liecoord.simulator import ScenarioConfig

import gate
import tracer as tracing
from run import WORKLOADS

# steer-se3: both steering scenario files, cut to STEER_T_END seconds
# (3000 steps each) so that one round takes a few seconds.
STEER_FILES = ("se3_steering_linear", "se3_steering_helical")
STEER_T_END = 3.0
STEER_CHECK = {"mode": "lic", "window": 1.0, "tol": 1e-3}

# ring-swarm: SE(3) lic_consensus on a 256-agent ring, a sample every 10 steps.
RING_N = 256
RING_T_END = 2.0
RING_CHECK = {"mode": "lic", "window": 0.2, "tol": 1e-3}

# so3-basin: the paper's empirical basin probe with its default settings.
BASIN_ARGS = {"graph_kind": "complete", "n_agents": 3}

clock = time.perf_counter


# ---------------------------------------------------------------------------
# inputs (all derived from the workload seed)
# ---------------------------------------------------------------------------

def steer_configs(seed):
    """(label, config) for both steering files; the seed overrides the linear
    file's seed."""
    out = []
    for name in STEER_FILES:
        cfg = scenario.parse_scenario(str(ROOT / "scenarios" / f"{name}.ini"))
        cfg = replace(cfg, t_end=STEER_T_END)
        if name == "se3_steering_linear":
            cfg = replace(cfg, seed=gate.input_index(seed))
        out.append((name, cfg))
    return out


def ring_config(seed):
    return ScenarioConfig(group="se3", n_agents=RING_N, controller="lic_consensus",
                          graph=CommGraph.ring(RING_N), t_end=RING_T_END, h=1e-3,
                          seed=gate.input_index(seed), record_every=10)


# ---------------------------------------------------------------------------
# records compared with the references
# ---------------------------------------------------------------------------

def steps_of(traj):
    return round(float(traj.times[-1]) / traj.config.h) if len(traj.times) else 0


def run_record(traj):
    """Final state and terminal metrics of a run."""
    group = traj.group
    final = traj.final
    return gate.as_record({
        "completed": traj.completed,
        "samples": len(traj.times),
        "final_g": group.to_payload(final.g),
        "final_xi": traj.xi[-1],
        "final_aux": final.aux,
        "terminal": {k: v[-1] for k, v in traj.metrics.items()},
    })


def trajectory_record(traj):
    """Everything the CSV round trip must preserve (arrays kept as arrays)."""
    return {
        "group": traj.group_name,
        "completed": bool(traj.completed),
        "times": traj.times,
        "g": traj.group.to_payload(traj.g),
        "xi": traj.xi,
        "aux": traj.aux,
    }


def check_record(report):
    return gate.as_record({
        "achieved": report.achieved,
        "lambda_drift": report.lambda_drift,
        "rho_drift": report.rho_drift,
        "xi_r_disagreement": report.xi_r_disagreement,
        "xi_l_disagreement": report.xi_l_disagreement,
    })


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

class Round:
    """Timings and operation counts of one round.

    An operation is a run, an export round trip or a check.  It fails on an
    exception or on any deviation from its reference.  With ``recording``
    set, outputs are stored there as the new references instead.
    """

    def __init__(self, ref, recording=None):
        self.ref = ref or {}
        self.recording = recording
        self.first_run = None
        self.run_s = 0.0
        self.steps = 0
        self.export_s = 0.0
        self.check_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, what, detail, n=1):
        self.attempted += n
        self.failed += n
        self.failures.append(f"{what}: {detail}")

    def compare(self, what, got, ref):
        if ref is None:
            self.fail(what, "no reference recorded")
            return
        self.attempted += 1
        bad = gate.deviations(got, ref)
        if bad:
            self.failed += 1
            self.failures.append(f"{what}: " + "; ".join(bad[:3]))

    def expect(self, path, got):
        """Compare an output with its reference, or record it."""
        if self.recording is not None:
            node = self.recording
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = got
            return
        ref = self.ref
        for key in path:
            ref = ref.get(key) if isinstance(ref, dict) else None
        self.compare(".".join(path), got, ref)

    def timed_run(self, run, cfg):
        t = clock()
        if self.first_run is None:
            self.first_run = t
        traj = run(cfg)
        self.run_s += clock() - t
        self.steps += steps_of(traj)
        return traj

    def pipeline(self, label, cfg, out_dir, check):
        """run -> CSV export -> load_run -> check_coordination."""
        try:
            traj = self.timed_run(simulator.run, cfg)
            record = run_record(traj)
        except Exception:
            self.fail(f"{label}.run", traceback.format_exc(), n=3)
            return
        self.expect((label, "run"), record)

        try:
            t = clock()
            run_dir = out_dir / label
            run_dir.mkdir(parents=True, exist_ok=True)
            simulator.write_trajectory_csv(traj, run_dir / "trajectory.csv")
            simulator.write_metrics_csv(traj, run_dir / "metrics.csv")
            simulator.write_manifest(traj, run_dir / "manifest.txt")
            loaded, _ = cli.load_run(run_dir)
            self.export_s += clock() - t
            record = trajectory_record(loaded)
        except Exception:
            self.fail(f"{label}.export", traceback.format_exc(), n=2)
            return
        self.compare(f"{label}.export", record, trajectory_record(traj))

        try:
            t = clock()
            report = analysis.check_coordination(loaded, **check)
            self.check_s += clock() - t
            record = check_record(report)
        except Exception:
            self.fail(f"{label}.check", traceback.format_exc())
            return
        self.expect((label, "check"), record)

    def basin(self, seed):
        """tc_basin_probe with every trial run timed; one operation per trial
        plus one for the reached count."""
        want = self.ref.get("terminal_vtl", [])
        original = analysis.run
        analysis.run = lambda cfg: self.timed_run(original, cfg)
        try:
            result = analysis.tc_basin_probe(seed=gate.input_index(seed), **BASIN_ARGS)
        except Exception:
            self.fail("basin", traceback.format_exc(), n=len(want) + 1)
            return
        finally:
            analysis.run = original
        got = result.terminal_vtl.tolist()
        if self.recording is not None:
            self.recording.update(terminal_vtl=got, reached=result.reached)
            return
        if len(got) != len(want):
            self.fail("basin", f"{len(got)} trials, reference has {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            self.compare(f"basin.trial{i}.V_tl", g, w)
        self.expect(("reached",), result.reached)


def run_round(workload, seed, out_dir, tr=None, references=None, recording=None):
    """One round of a workload; pass ``recording={}`` to collect references."""
    if references is None and recording is None:
        references = gate.load_references()
    ref = (references or {}).get(workload, {}).get(str(gate.input_index(seed)))
    rnd = Round(ref, recording)
    if workload == "steer-se3":
        for label, cfg in steer_configs(seed):
            if tr is not None:
                tr.set_workload(f"{workload}/{label}")
            rnd.pipeline(label, cfg, out_dir, STEER_CHECK)
    elif workload == "ring-swarm":
        rnd.pipeline("ring", ring_config(seed), out_dir, RING_CHECK)
    else:
        rnd.basin(seed)
    return rnd


# ---------------------------------------------------------------------------
# group micro-table
# ---------------------------------------------------------------------------

def per_call_us(fn, repeats=5, min_s=0.02):
    """Median over repeats of the time per call, each repeat at least min_s."""
    n = 1
    while True:
        t = clock()
        for _ in range(n):
            fn()
        dt = clock() - t
        if dt >= min_s:
            break
        n *= 4 if dt < min_s / 8 else 2
    times = [dt / n]
    for _ in range(repeats - 1):
        t = clock()
        for _ in range(n):
            fn()
        times.append((clock() - t) / n)
    return float(np.median(times)) * 1e6


def micro_table(seed):
    """groups.{so3,se2,se3}.{exp,compose,adjoint}.{b1_us,b1000_us}"""
    rng = np.random.default_rng(seed)
    out = {}
    for group in (liecoord.SO3, liecoord.SE2, liecoord.SE3):
        for b in (1, 1000):
            n = None if b == 1 else b
            g, h = group.random(rng, n), group.random(rng, n)
            xi = group.random_algebra(rng, () if n is None else n)
            cases = {"exp": lambda: group.exp(xi),
                     "compose": lambda: group.compose(g, h),
                     "adjoint": lambda: group.adjoint(g, xi)}
            for op, fn in cases.items():
                out[f"groups.{group.name}.{op}.b{b}_us"] = per_call_us(fn)
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def versions():
    """Library and toolchain versions; the OpenBLAS ones as loaded at run time."""
    import ctypes
    import platform

    info = {"liecoord": liecoord.__version__, "numpy": np.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info.update(blas_threads=threads(), openblas=config().decode())
                return info
    return info


def main(argv):
    workload, seed, traced, out_dir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    if liecoord.__file__ is None or not Path(liecoord.__file__).resolve().is_relative_to(ROOT):
        raise SystemExit(f"liecoord imported from {liecoord.__file__}, not from {ROOT / 'src'}")
    if workload == "micro":
        tracing.assert_untraced()
        print(json.dumps({"micro": micro_table(seed)}))
        return 0
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")

    tr = None
    if traced:
        tr = tracing.Tracer()
        tr.set_workload(workload)
        tr.install()
    else:
        tracing.assert_untraced()
    try:
        rnd = run_round(workload, seed, out_dir, tr)
        t_end = clock()
    finally:
        if tr is not None:
            tr.uninstall()
    tracing.assert_untraced()

    record = {
        "traced": traced,
        "setup_s": (rnd.first_run if rnd.first_run is not None else t_end) - T0,
        "wall_s": t_end - T0,
        "run_s": rnd.run_s,
        "steps": rnd.steps,
        "export_s": rnd.export_s,
        "check_s": rnd.check_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "failures": rnd.failures,
        "versions": versions(),
    }
    if tr is not None:
        record["layers"] = {k: list(v) for k, v in tr.layer_table().items()}
        record["counts"] = tr.counts
        spans = ROOT / ".perfbench_out" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tr.save(spans / f"{workload}-seed{seed}-pid{os.getpid()}.npz")
    for line in rnd.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
