"""Self-tests of the benchmark: span arithmetic, wrapper removal, the
correctness gate and the metric list.

    python3 -m pytest perfbench -q
"""

import copy
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from liecoord import CommGraph, ScenarioConfig, simulator  # noqa: E402


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_table_from_a_fake_clock(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    tr = tracing.Tracer()
    inner = tr.span("b.inner", lambda x: x)
    outer = tr.span("a.outer", lambda: inner(1) + inner(2))
    assert outer() == 3
    # outer [0, 5] covers inner [1, 2] and [3, 4]
    assert tr.layer_table() == {"b.inner": (2, 2.0), "a.outer": (1, 3.0)}
    assert list(tr.parent) == [-1, 0, 0]


def test_failed_call_counts_an_error_and_closes_its_span():
    tr = tracing.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tr.span("groups.exp", boom)()
    assert tr.counts == {"groups.errors": 1}
    assert tr.end[0] >= tr.start[0] and tr._stack == [-1]


def _small_config():
    return ScenarioConfig(group="se3", n_agents=3, controller="lic_consensus",
                          graph=CommGraph.ring(3), t_end=0.05, seed=1, record_every=10)


def test_wrappers_are_gone_after_uninstall():
    before = {(id(owner), attr): owner.__dict__[attr]
              for _, owner, attr in tracing.MODULE_POINTS}
    build = simulator.build_controller
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tracing.traced_points()
        with pytest.raises(RuntimeError):
            tracing.assert_untraced()
    finally:
        tr.uninstall()
    tracing.assert_untraced()
    for _, owner, attr in tracing.MODULE_POINTS:
        assert owner.__dict__[attr] is before[(id(owner), attr)]
    assert simulator.build_controller is build
    for group in tracing.GROUP_SINGLETONS:
        assert not set(tracing.GROUP_METHODS) & set(vars(group))


def test_traced_run_is_bit_identical_and_counted():
    plain = simulator.run(_small_config())
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = simulator.run(_small_config())
    finally:
        tr.uninstall()
    assert np.array_equal(plain.g, traced.g) and np.array_equal(plain.xi, traced.xi)
    table = tr.layer_table()
    assert table["simulator.run"][0] == 1
    assert table["controllers.output"][0] == 51          # 50 steps + the final sample
    assert table["simulator.metric_traces"][0] == len(plain.times)
    assert tr.counts["simulator.steps"] == 50
    assert tr.counts["simulator.samples"] == len(plain.times)
    total = tracing.self_times(tr.start, tr.end, tr.parent).sum()
    root = [i for i, p in enumerate(tr.parent) if p == -1]
    assert total == pytest.approx(sum(tr.end[i] - tr.start[i] for i in root))


def test_gate_deviations():
    ref = {"ok": True, "n": 3, "x": 2.0, "v": [1.0, -5.0e3]}
    assert gate.deviations(copy.deepcopy(ref), ref) == []
    assert gate.deviations({**ref, "x": 2.0 + 1e-13}, ref) == []
    assert gate.deviations({**ref, "x": 2.0 + 1e-11}, ref)
    assert gate.deviations({**ref, "v": [1.0, -5.0e3 * (1 + 1e-11)]}, ref)
    assert gate.deviations({**ref, "v": [1.0, float("nan")]}, ref)
    assert gate.deviations({**ref, "v": [1.0]}, ref)
    assert gate.deviations({**ref, "ok": False}, ref)
    assert gate.deviations({**ref, "n": 4}, ref)
    assert gate.deviations({k: v for k, v in ref.items() if k != "n"}, ref)


def test_perturbed_reference_trips_the_gate(tmp_path):
    refs = gate.load_references()
    clean = workloads.run_round("steer-se3", 0, tmp_path, references=refs)
    assert clean.failed == 0 and clean.attempted == 6

    bad = copy.deepcopy(refs)
    linear = bad["steer-se3"]["0"]["se3_steering_linear"]
    linear["run"]["final_g"][2][0] += 1e-9
    linear["check"]["achieved"] = not linear["check"]["achieved"]
    tripped = workloads.run_round("steer-se3", 0, tmp_path, references=bad)
    assert tripped.attempted == 6 and tripped.failed == 2
    assert any("final_g" in f for f in tripped.failures)


def _record(traced):
    layers = {name.rpartition(".")[0]: [1, 0.5] for name in
              (m["name"] for m in run.spec()["per_layer"]) if name.endswith((".calls", ".self_s"))}
    return {"traced": traced, "setup_s": 0.2, "wall_s": 2.0 if traced else 1.6,
            "run_s": 1.0, "steps": 1000, "export_s": 0.1, "check_s": 0.05,
            "peak_rss_mb": 40.0, "layers": layers, "counts": {"simulator.steps": 1000}}


def test_every_listed_metric_is_produced():
    spec = run.spec()
    values = run.end_to_end([_record(False)])
    assert [m["name"] for m in spec["end_to_end"]] == list(values)
    micro = {m["name"]: 1.0 for m in spec["per_layer"] if m["name"].endswith("_us")}
    assert len(micro) == 18
    for m in spec["per_layer"]:
        run.per_layer(m["name"], [_record(True)], [_record(False)], micro)
    assert run.per_layer("trace.overhead_pct", [_record(True)], [_record(False)], {}) \
        == pytest.approx(25.0)


def test_benchmark_json_follows_its_contract():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
