"""Per-layer tracing from outside the library.

The tracer wraps the public entry points of each liecoord module, records one
span per call (name, start, end, parent span, workload id) in flat in-memory
columns, and restores every original attribute on ``uninstall``.  Nothing
under ``src/`` knows about it.  Self time is a span's duration minus the time
its direct child spans cover; the library is single-threaded, so child spans
never overlap.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

from liecoord import analysis, cli, groups, scenario, simulator
from liecoord.graphs import CommGraph

GROUP_METHODS = ("exp", "compose", "inverse", "adjoint", "adjoint_matrix",
                 "bracket", "pairing", "reproject", "manifold_defect")
CONTROLLER_METHODS = ("output", "eta_for_metrics")

# (span name, owner, attribute) for every module-level or class-level entry
# point.  Group singletons and built controllers are patched per instance.
MODULE_POINTS = (
    ("graphs.in_terms", CommGraph, "in_terms"),
    ("graphs.in_matrix", CommGraph, "in_matrix"),
    ("simulator.run", simulator, "run"),
    ("simulator.run", analysis, "run"),
    ("simulator.metric_traces", simulator, "metric_traces"),
    ("simulator.write_csv", simulator, "write_trajectory_csv"),
    ("simulator.write_csv", simulator, "write_metrics_csv"),
    ("simulator.write_csv", simulator, "write_manifest"),
    ("simulator.read_csv", simulator, "read_trajectory_csv"),
    ("simulator.read_csv", simulator, "read_manifest"),
    ("analysis.check_coordination", analysis, "check_coordination"),
    ("analysis.tc_basin_probe", analysis, "tc_basin_probe"),
    ("scenario.parse_scenario", scenario, "parse_scenario"),
    ("cli.load_run", cli, "load_run"),
)
GROUP_SINGLETONS = (groups.SO3, groups.SE2, groups.SE3)
MARK = "_perfbench_wrapper"


def self_times(start, end, parent):
    """Duration of each span minus the durations of its direct children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root span.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def traced_points():
    """Every patched attribute that currently holds a tracing wrapper."""
    found = []
    for name, owner, attr in MODULE_POINTS:
        if getattr(getattr(owner, attr), MARK, False):
            found.append(f"{name} ({attr})")
    if getattr(simulator.build_controller, MARK, False):
        found.append("simulator.build_controller")
    for group in GROUP_SINGLETONS:
        found += [f"groups.{m} ({group.name})" for m in GROUP_METHODS if m in vars(group)]
    return found


def assert_untraced():
    """Raise if any tracing wrapper is still installed."""
    found = traced_points()
    if found:
        raise RuntimeError(f"tracing wrappers still installed: {found}")


class Tracer:
    """Span recorder with install/uninstall of the module wrappers."""

    def __init__(self):
        self.names = []               # span name per name id
        self._name_ids = {}
        self.workloads = []           # workload id -> label
        self.workload = 0
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.wid = array("H")
        self.counts = {}
        self._stack = [-1]
        self._restore = []

    # -- recording ----------------------------------------------------------

    def set_workload(self, label):
        if label not in self.workloads:
            self.workloads.append(label)
        self.workload = self.workloads.index(label)

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(result, args)``
        updates counters from the call's result."""
        nid = self._nid(name)
        layer = name.split(".")[0]
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.wid.append(self.workload)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(f"{layer}.errors")
                raise
            finally:
                self.end[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the layer boundaries ---------------------------------

    def _after_run(self, traj, args):
        cfg = args[0]
        if len(traj.times):
            self.count("simulator.steps", round(float(traj.times[-1]) / cfg.h))
        self.count("simulator.samples", len(traj.times))
        self.count("simulator.aborts", int(not traj.completed))
        self.count("simulator.early_stops",
                   sum(1 for e in traj.events if e.kind == "early_stop"))

    def _after_output(self, out, args):
        self.count("controllers.events", len(out.events))

    def _after_write(self, _, args):
        self.count("simulator.csv_bytes", os.path.getsize(args[1]))

    # -- install / uninstall ----------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        after = {"simulator.run": self._after_run, "simulator.write_csv": self._after_write}
        for name, owner, attr in MODULE_POINTS:
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, after.get(name)))
        for group in GROUP_SINGLETONS:
            for m in GROUP_METHODS:
                self._restore.append((group, m, None))
                setattr(group, m, self.span(f"groups.{m}", getattr(group, m)))

        build = simulator.build_controller

        def build_traced(*args, **kwargs):
            ctrl = build(*args, **kwargs)
            ctrl.output = self.span("controllers.output", ctrl.output, self._after_output)
            ctrl.eta_for_metrics = self.span("controllers.eta_for_metrics",
                                             ctrl.eta_for_metrics)
            return ctrl

        setattr(build_traced, MARK, True)
        self._restore.append((simulator, "build_controller", build))
        simulator.build_controller = build_traced

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)       # instance attribute shadowing the class method
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------------

    def layer_table(self):
        """{span name: (calls, summed self seconds)} over every recorded span."""
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        own = self_times(self.start, self.end, self.parent)
        calls = np.bincount(ids, minlength=len(self.names))
        busy = np.bincount(ids, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(busy[i])) for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), workloads=np.array(self.workloads),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 workload=np.frombuffer(self.wid, dtype=np.uint16))
