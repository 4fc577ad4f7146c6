"""Integration loop: stepping, runs, metrics, determinism, export round trips."""

import gc
import json
import sys
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from liecoord import simulator
from liecoord.controllers import ControlSetting, build_controller
from liecoord.graphs import CommGraph
from liecoord.groups import SE2, SE3, SO3, so3_exp
from liecoord.scenario import parse_scenario
from liecoord.simulator import (
    CSV_BLOCK_ROWS,
    METRIC_NAMES,
    ConfigError,
    InitSpec,
    ScenarioConfig,
    SwarmState,
    Trajectory,
    aux_columns,
    metric_traces,
    read_manifest,
    read_trajectory_csv,
    run,
    write_manifest,
    write_metrics_csv,
    write_trajectory_csv,
)

E1, E2, E3 = np.eye(3)


def _cfg(**kw):
    base = dict(
        group="se2",
        n_agents=3,
        controller="ric_consensus",
        graph=CommGraph.ring(3),
        t_end=1.0,
        h=1e-3,
        seed=1,
    )
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# single steps, through run
# ---------------------------------------------------------------------------

def _one_step(group, controller, g0, graph, h, params=None):
    """A one-step run from the explicit positions g0."""
    cfg = ScenarioConfig(group=group.name, n_agents=len(g0), controller=controller,
                         controller_params=params or {}, graph=graph, t_end=h, h=h,
                         record_every=1, init=InitSpec(kind="explicit", g0=g0))
    return run(cfg)


def test_step_zero_velocity_is_identity():
    rng = np.random.default_rng(0)
    g = SE3.random(rng, 3)
    traj = _one_step(SE3, "zero", g, CommGraph.complete(3), h=0.1)
    assert np.array_equal(traj.g[1], g)
    assert np.all(traj.xi == 0.0)


def test_step_se2_unit_forward():
    theta = 0.7
    g = SE2.make(np.array([[1.0, 2.0]]), np.array([theta]))
    traj = _one_step(SE2, "constant", g, CommGraph.empty(1), h=1.0,
                     params={"xi": np.array([1.0, 0.0, 0.0])})
    expect = g[0, :2] + np.array([np.cos(theta), np.sin(theta)])
    assert np.allclose(traj.g[1, 0, :2], expect)
    assert traj.g[1, 0, 2] == pytest.approx(theta)


def test_step_so3_body_axis_rotation():
    rng = np.random.default_rng(1)
    Q = SO3.random(rng, 1)
    traj = _one_step(SO3, "constant", Q, CommGraph.empty(1), h=1.0,
                     params={"xi": np.array([0.0, 0.0, np.pi / 2])})
    assert np.allclose(traj.g[1, 0], Q[0] @ so3_exp(np.pi / 2 * E3), atol=1e-14)


def test_step_rejects_nonfinite_velocity():
    traj = _one_step(SE2, "constant", SE2.identity_like(2), CommGraph.empty(2), h=0.1,
                     params={"xi": np.array([np.nan, 0.0, 0.0])})
    assert not traj.completed and len(traj.times) == 0
    [event] = traj.events
    assert event.kind == "blowup" and event.t == 0.0
    assert "agent(s) [0, 1]" in event.detail


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_metrics_end_the_run_in_a_blowup():
    # finite poses and velocities whose disagreement costs overflow at t = 0
    xi = np.array([[1e200, 0.0, 0.0], [-1e200, 0.0, 0.0], [1e200, 0.0, 0.0]])
    traj = run(_cfg(controller="constant", controller_params={"xi": xi}, record_every=1))
    assert not traj.completed and list(traj.times) == [0.0]
    assert [(e.t, e.kind, e.detail) for e in traj.events] == [
        (0.0, "blowup", "non-finite metrics; run aborted")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("group, t_abort, detail", [
    ("so3", 325.0, "non-finite position"),
    ("se2", 646.0, "non-finite velocity for agent(s)"),
    ("se3", 324.0, "non-finite position"),
])
def test_diverging_run_ends_in_a_recorded_blowup(group, t_abort, detail):
    # consensus at h = 1 on complete(4) multiplies the disagreement by -3 per
    # step until it overflows; only the sample at t = 0 is recorded.  A
    # position is checked at every step, so the abort comes at the first step
    # with a non-finite position, the same as with reprojection at every step
    cfg = _cfg(group=group, n_agents=4, graph=CommGraph.complete(4), h=1.0,
               t_end=1000.0, record_every=100000)
    traj = run(cfg)
    assert not traj.completed
    assert traj.times.tolist() == [0.0]
    assert np.all(np.isfinite(traj.g)) and np.all(np.isfinite(traj.xi))
    [event] = traj.events
    assert (event.kind, event.t) == ("blowup", t_abort)
    assert event.detail.startswith(detail) and " for agent(s) [" in event.detail
    assert run(replace(cfg, reproject_every=1)).events == traj.events


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_zero_when_synchronized():
    rng = np.random.default_rng(2)
    g0 = SE3.random(rng)
    g = np.broadcast_to(g0, (3, 4, 4)).copy()
    xi = np.tile(SE3.random_algebra(rng), (3, 1))
    m = metric_traces(SE3, g, xi, None, CommGraph.complete(3), 0.0)
    for name in ("V_r", "V_l", "V_tr", "V_tl"):
        assert m[name] == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(m["V_k"], 0.0)


def test_metrics_so3_two_agent_value():
    g = np.stack([np.eye(3), np.eye(3)])
    eta = np.stack([E1, E2])
    m = metric_traces(SO3, g, eta, eta, CommGraph.complete(2), 0.0)
    # both directed edges count: V_tl = 0.5 * 2 * ||e1 - e2||^2 = 2
    assert m["V_tl"] == pytest.approx(2.0)
    assert m["V_tr"] == pytest.approx(2.0)
    assert m["V_r"] == pytest.approx(4.0)


def test_metrics_vk_zero_on_feasible_set():
    cs = ControlSetting.se3_steering()
    rng = np.random.default_rng(3)
    eta = cs.a + rng.standard_normal((2, 3)) @ cs.B.T
    g = SE3.identity_like(2)
    m = metric_traces(SE3, g, eta, eta, CommGraph.complete(2), 0.0, cs=cs)
    assert np.allclose(m["V_k"], 0.0)
    off = eta.copy()
    off[0, 1] += 0.3
    m2 = metric_traces(SE3, g, off, off, CommGraph.complete(2), 0.0, cs=cs)
    assert m2["V_k"][0] == pytest.approx(0.5 * 0.3**2)


def _dense_metrics(group, g, xi, eta, graph, t):
    """Reference disagreement costs: N x N x n differences masked by a dense
    in-matrix built from the edge set itself."""
    A = np.zeros((graph.n, graph.n))
    for j, k in graph.edges_at(t):
        A[k, j] = 1.0

    def cost(x):
        d = x[:, None, :] - x[None, :, :]
        return float(np.einsum("kj,kji->", A, d * d))

    eta = xi if eta is None else eta
    return {"V_r": cost(xi), "V_l": cost(group.adjoint(g, xi)),
            "V_tr": 0.5 * cost(eta), "V_tl": 0.5 * cost(group.adjoint(g, eta))}


def _random_edges(rng, n, p):
    return {(j, k) for j in range(n) for k in range(n) if j != k and rng.random() < p}


def _metric_cases():
    rng = np.random.default_rng(21)
    cases = [pytest.param(CommGraph.static(9, _random_edges(rng, 9, 0.3)), 0.0, id=f"random{i}")
             for i in range(3)]
    # agent 0 hears nobody
    cases.append(pytest.param(CommGraph.static(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)]), 0.0,
                              id="in_degree_0"))
    cases.append(pytest.param(CommGraph.empty(4), 0.0, id="empty"))
    cases.append(pytest.param(CommGraph.empty(1), 0.0, id="single"))
    sched = CommGraph(6, [(0.0, _random_edges(rng, 6, 0.5)), (0.5, _random_edges(rng, 6, 0.5)),
                          (1.2, CommGraph.ring(6).edges_at(0.0))], period=2.0)
    for t in (0.5 - 1e-9, 0.5, 1.2 - 1e-9, 1.2, 2.0 - 1e-9, 2.0, 2.5 - 1e-9, 2.5):
        cases.append(pytest.param(sched, t, id=f"schedule@{t!r}"))
    return cases


@pytest.mark.parametrize("group", [SO3, SE2, SE3], ids=lambda G: G.name)
@pytest.mark.parametrize("graph, t", _metric_cases())
def test_edge_metrics_match_dense_reference(group, graph, t):
    rng = np.random.default_rng(graph.n)
    n = graph.n
    g = group.random(rng, n)
    xi = rng.standard_normal((n, group.dim))
    eta = rng.standard_normal((n, group.dim))
    for aux in (eta, None):
        got = metric_traces(group, g, xi, aux, graph, t)
        want = _dense_metrics(group, g, xi, aux, graph, t)
        for name, ref in want.items():
            assert abs(got[name] - ref) <= 1e-12 * max(1.0, abs(ref)), (name, got[name], ref)
        if not graph.edges_at(t):
            assert all(got[name] == 0.0 for name in want)
    # without an auxiliary velocity the halved costs are exactly half of xi's
    got = metric_traces(group, g, xi, None, graph, t)
    assert got["V_tr"] == 0.5 * got["V_r"] and got["V_tl"] == 0.5 * got["V_l"]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_run_zero_controller_preserves_state_exactly():
    cfg = _cfg(controller="zero", t_end=0.5)
    traj = run(cfg)
    assert np.array_equal(traj.g[0], traj.g[-1])
    assert traj.completed
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(0.5)


def test_run_deterministic_bit_identical():
    cfg = _cfg(controller="lic_consensus", t_end=0.8, seed=42)
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.xi, b.xi)
    for k in a.aux:
        assert np.array_equal(a.aux[k], b.aux[k])
    for k in a.metrics:
        assert np.array_equal(a.metrics[k], b.metrics[k])


def test_run_different_seeds_differ():
    a = run(_cfg(seed=1, t_end=0.2))
    b = run(_cfg(seed=2, t_end=0.2))
    assert not np.array_equal(a.g[0], b.g[0])


def test_run_validates_config():
    with pytest.raises(ConfigError, match="agents"):
        _cfg(n_agents=0).validate()
    with pytest.raises(ConfigError, match="h"):
        _cfg(h=0.0).validate()
    with pytest.raises(ConfigError, match="graph"):
        _cfg(graph=CommGraph.ring(4)).validate()
    with pytest.raises(ConfigError, match="aux_integrator"):
        _cfg(aux_integrator="heun").validate()


def test_validate_rejects_t_end_off_the_step_grid():
    for t_end in (0.0105, 1e-5, 0.5 + 1e-7):
        with pytest.raises(ConfigError, match="t_end"):
            _cfg(t_end=t_end, h=1e-3).validate()
    # t_end / h within a relative 1e-9 of an integer is a whole number of steps
    assert 0.3 / 0.1 != 3
    _cfg(t_end=30.0, h=2e-3).validate()
    assert run(_cfg(t_end=0.3, h=0.1)).times[-1] == pytest.approx(0.3)


def test_run_explicit_initial_state():
    g0 = SE2.make(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, np.pi / 2]))
    xi0 = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]])
    cfg = _cfg(
        n_agents=2,
        graph=CommGraph.complete(2),
        init=InitSpec(kind="explicit", g0=g0, aux0={"xi": xi0}),
        t_end=0.1,
    )
    traj = run(cfg)
    assert np.allclose(traj.g[0], g0)
    assert np.allclose(traj.aux["xi"][0], xi0)


def test_run_blowup_aborts_with_partial_trajectory():
    cfg = _cfg(
        controller="constant",
        controller_params={"xi": np.array([1e11, 0.0, 0.0])},
        h=1.0,
        t_end=100.0,
        record_every=1,
    )
    traj = run(cfg)
    assert not traj.completed
    assert any(e.kind == "blowup" for e in traj.events)
    assert traj.times[-1] < 100.0


def test_run_early_stop_on_metric():
    cfg = _cfg(
        controller="ric_consensus",
        t_end=30.0,
        stop_metric="V_r",
        stop_below=1e-12,
        record_every=50,
    )
    traj = run(cfg)
    assert traj.completed
    assert traj.times[-1] < 30.0
    assert any(e.kind == "early_stop" for e in traj.events)
    assert traj.metrics["V_r"][-1] < 1e-12


def test_run_keeps_manifold_tight():
    cfg = ScenarioConfig(
        group="so3", n_agents=4, controller="tc_left_cascade",
        graph=CommGraph.complete(4), t_end=5.0, h=1e-3, seed=3,
    )
    traj = run(cfg)
    assert float(np.max(SO3.manifold_defect(traj.g[-1]))) < 1e-9
    # and without reprojection the defect still stays near rounding level
    traj2 = run(ScenarioConfig(
        group="so3", n_agents=4, controller="tc_left_cascade",
        graph=CommGraph.complete(4), t_end=5.0, h=1e-3, seed=3, reproject_every=0,
    ))
    assert float(np.max(SO3.manifold_defect(traj2.g[-1]))) < 5000 * 1e-13


def test_run_velocity_relation_along_trajectory():
    from helpers import fd_right_velocity

    cfg = ScenarioConfig(
        group="se3", n_agents=2, controller="lic_consensus",
        graph=CommGraph.complete(2), t_end=0.5, h=1e-3, seed=5, record_every=1,
    )
    traj = run(cfg)
    h = cfg.h
    for s in range(1, len(traj.times) - 1, 37):
        for k in range(2):
            fd = fd_right_velocity(SE3, traj.g[s - 1, k], traj.g[s + 1, k], 2 * h)
            expect = SE3.adjoint(traj.g[s, k], traj.xi[s, k])
            assert np.max(np.abs(fd - expect)) < 100 * h


def test_rk4_aux_beats_euler_on_linear_consensus():
    graph = CommGraph.ring(4)
    L = graph.laplacian()
    rng = np.random.default_rng(6)
    xi0 = rng.standard_normal((4, 3))
    t_end, h = 2.0, 2e-2
    vals, vecs = np.linalg.eigh(L)
    exact = vecs @ np.diag(np.exp(-vals * t_end)) @ vecs.T @ xi0

    outs = {}
    for method in ("euler", "rk4"):
        cfg = ScenarioConfig(
            group="so3", n_agents=4, controller="ric_consensus", graph=graph,
            t_end=t_end, h=h, seed=7, aux_integrator=method,
            init=InitSpec(kind="explicit", g0=SO3.identity_like(4), aux0={"xi": xi0}),
        )
        outs[method] = run(cfg).aux["xi"][-1]
    err_euler = np.max(np.abs(outs["euler"] - exact))
    err_rk4 = np.max(np.abs(outs["rk4"] - exact))
    assert err_rk4 < err_euler / 1e4


def test_left_invariance_of_closed_loop():
    rng = np.random.default_rng(8)
    g0 = SE3.random(rng, 3)
    eta0 = SE3.random_algebra(rng, 3)
    base = ScenarioConfig(
        group="se3", n_agents=3, controller="tc_right_cascade",
        graph=CommGraph.ring(3), t_end=1.0, h=1e-3, seed=9,
        init=InitSpec(kind="explicit", g0=g0, aux0={"eta": eta0}),
    )
    h0 = SE3.random(rng)
    from liecoord.simulator import left_translated

    t1 = run(base)
    t2 = run(left_translated(base, h0))
    moved = SE3.compose(h0, t1.g[-1])
    assert np.max(np.abs(SE3.embed(moved) - SE3.embed(t2.g[-1]))) < 1e-9


def test_first_order_convergence_of_lie_euler():
    graph = CommGraph.complete(3)
    rng = np.random.default_rng(10)
    g0 = SE2.random(rng, 3)
    xi0 = SE2.random_algebra(rng, 3)

    def terminal(h):
        cfg = ScenarioConfig(
            group="se2", n_agents=3, controller="lic_consensus", graph=graph,
            t_end=2.0, h=h, seed=11,
            init=InitSpec(kind="explicit", g0=g0, aux0={"xi": xi0}),
        )
        return SE2.embed(run(cfg).g[-1])

    ref = terminal(1e-4)
    e1 = np.max(np.abs(terminal(2e-2) - ref))
    e2 = np.max(np.abs(terminal(1e-2) - ref))
    assert e1 / e2 == pytest.approx(2.0, rel=0.25)


# ---------------------------------------------------------------------------
# calls per step
# ---------------------------------------------------------------------------

_NUMPY_DIR = str(Path(np.__file__).parent)


def _calls_per_step(cfg, steps=(100, 300)):
    """Python calls, C calls, require_element/require_algebra calls and
    Python calls into numpy's own modules per step of run, from two runs that
    differ only in length, so that the set-up cancels.  The run before them
    does the first-call work."""
    run(replace(cfg, t_end=steps[0] * cfg.h))
    counts = []
    for n in steps:
        c = Counter()

        def count(frame, event, arg):
            c[event] += 1
            if event == "call":
                code = frame.f_code
                if code.co_name in ("require_element", "require_algebra"):
                    c["require"] += 1
                if code.co_filename.startswith(_NUMPY_DIR):
                    c["numpy"] += 1

        # no collection inside the count: it would call whatever gc.callbacks
        # other libraries hold (hypothesis keeps one), at allocation-dependent steps
        gc.disable()
        sys.setprofile(count)
        try:
            run(replace(cfg, t_end=n * cfg.h))
        finally:
            sys.setprofile(None)
            gc.enable()
        counts.append(c)
    return tuple((counts[1][k] - counts[0][k]) / (steps[1] - steps[0])
                 for k in ("call", "c_call", "require", "numpy"))


def _scenario_file(name):
    return parse_scenario(str(Path(__file__).parents[1] / "scenarios" / f"{name}.ini"))


@pytest.mark.parametrize("make_cfg, python_calls, c_calls, numpy_calls", [
    pytest.param(lambda: _scenario_file("se3_steering_linear"), 34.6, 26.1, 0.98,
                 id="se3_steering_linear-4"),
    pytest.param(lambda: _scenario_file("se3_steering_helical"), 41.7, 26.15, 0.98,
                 id="se3_steering_helical-4"),
    pytest.param(lambda: _cfg(group="so3", controller="tc_left_cascade",
                              graph=CommGraph.complete(3), h=2e-3, record_every=100),
                 30.81, 12.59, 0.48, id="so3-tc_left_cascade-complete3"),
    pytest.param(lambda: _cfg(group="se3", n_agents=16, controller="lic_consensus",
                              graph=CommGraph.ring(16)), 34.65, 21.65, 3.28,
                 id="se3-lic_consensus-ring16"),
])
def test_calls_per_step_are_pinned(make_cfg, python_calls, c_calls, numpy_calls):
    """At a few agents a step costs what its calls cost.  A change that raises
    a count must update it here; the loop calls the unchecked group kernels,
    and numpy at C level, so that a Python-level numpy wrapper that comes back
    into the step raises numpy_calls."""
    calls, c, require, in_numpy = _calls_per_step(make_cfg())
    assert require == 0
    assert (calls, c, in_numpy) == (python_calls, c_calls, numpy_calls)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group, controller, shared", [
    ("se3", "lic_consensus", True),
    ("se2", "ric_consensus", True),
    ("so3", "experimental_vt_gradient", True),
    ("so3", "tc_left_cascade", False),
    ("se3", "se3_steering_linear", False),
    ("se3", "se3_steering_helical", False),
])
def test_velocity_law_records_its_velocity_once(group, controller, shared):
    cfg = _cfg(group=group, controller=controller, t_end=0.05, h=1e-2, record_every=1)
    traj = run(cfg)
    assert len(traj.times) == 6
    if shared:
        assert traj.aux["xi"] is traj.xi
    else:
        assert not any(np.shares_memory(v, traj.xi) for v in traj.aux.values())
    # each recorded velocity is the one the law commands at that sample
    law = build_controller(controller, traj.group, cs=cfg.control)
    for i in range(len(traj.times)):
        assert law.output(traj.state(i), cfg.graph).xi.tobytes() == traj.xi[i].tobytes()


def test_csv_round_trip_exact(tmp_path):
    cfg = ScenarioConfig(
        group="se3", n_agents=2, controller="se3_steering_linear",
        graph=CommGraph.complete(2), t_end=0.2, h=1e-2, seed=12,
        init=InitSpec(kind="random", rot_scale=0.1),
    )
    traj = run(cfg)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    times, g, xi, aux = read_trajectory_csv(path, "se3")
    assert np.array_equal(times, traj.times)
    assert np.array_equal(xi, traj.xi)
    assert np.array_equal(aux["eta_v"], traj.aux["eta_v"])
    assert np.max(np.abs(SE3.embed(g) - SE3.embed(traj.g))) == 0.0

    header = path.read_text().splitlines()[0]
    assert header.startswith("t,agent,x,y,z,Q00")
    assert header.endswith("xi0,xi1,xi2,xi3,xi4,xi5,aux.eta_v0,aux.eta_v1,aux.eta_v2")


def test_header_only_trajectory_csv_is_a_config_error(tmp_path):
    cfg = _cfg(t_end=0.02)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(run(cfg), path)
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with pytest.raises(ConfigError, match="no rows"):
        read_trajectory_csv(path, "se2")


@pytest.mark.parametrize("n_agents", [0, -1, "3", True, 2.0])
def test_header_only_trajectory_csv_needs_a_whole_agent_count(tmp_path, n_agents):
    # the count comes from a manifest, which is outside input
    cfg = _cfg(t_end=0.02)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(run(cfg), path)
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with pytest.raises(ConfigError, match="no rows"):
        read_trajectory_csv(path, "se2", n_agents)
    times, g, xi, _ = read_trajectory_csv(path, "se2", 2)
    assert times.shape == (0,) and g.shape == (0, 2, 3) and xi.shape == (0, 2, 3)


def _truncate_second_row(lines):
    lines[2] = lines[2].split(",")[0]


def _letter_in_second_row(lines):
    lines[2] = "a" + lines[2][lines[2].index(","):]


def _drop_last_column(lines):
    lines[1:] = [line.rsplit(",", 1)[0] for line in lines[1:]]


def _comment_line(lines):
    lines.insert(2, "# note")


def _hash_in_a_cell(lines):
    lines[1] = lines[1].rsplit(",", 1)[0] + ",7#9"


@pytest.mark.parametrize("damage, message", [
    (_truncate_second_row, "row"),
    (_letter_in_second_row, "row"),
    (_drop_last_column, "columns"),
    # "#" starts no comment: a note line is not skipped, and 7#9 is not 7
    (_comment_line, "malformed trajectory row"),
    (_hash_in_a_cell, "malformed trajectory row"),
])
def test_malformed_trajectory_csv_is_a_config_error(tmp_path, damage, message):
    cfg = _cfg(n_agents=2, graph=CommGraph.complete(2), t_end=0.02)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(run(cfg), path)
    lines = path.read_text().splitlines()
    damage(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        read_trajectory_csv(path, "se2")


def _read_without_the_last_row(tmp_path):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(run(_cfg(n_agents=2, graph=CommGraph.complete(2), t_end=0.02)), path)
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    return read_trajectory_csv(path, "se2")


@pytest.mark.parametrize("call, message", [
    (lambda tmp: _cfg(stop_metric="V_r").validate(), "stop_metric and stop_below go together"),
    (lambda tmp: run(_cfg(init=InitSpec(kind="explicit"))), "explicit initial state needs g0"),
    (lambda tmp: run(_cfg(init=InitSpec(kind="grid"))), "unknown kind 'grid'"),
    # kind defaults to "random", which would draw poses in place of g0
    (lambda tmp: run(_cfg(init=InitSpec(g0=SE2.identity_like(3)))), "g0 needs kind = explicit"),
    (lambda tmp: run(_cfg(init=InitSpec(kind="explicit", g0=SE2.identity_like(2)))),
     "g0 does not match the agent count"),
    (lambda tmp: run(_cfg(init=InitSpec(aux0={"eta": np.zeros((3, 3))}))),
     "no auxiliary state 'eta'"),
    (lambda tmp: simulator.left_translated(_cfg(), SE2.identity()), "explicit initial state"),
    (_read_without_the_last_row, "not a whole number of snapshots"),
], ids=["stop-pair", "explicit-without-g0", "unknown-kind", "random-with-g0", "g0-count",
        "unknown-aux", "translate-random", "partial-snapshot"])
def test_simulator_input_errors_are_typed(tmp_path, call, message):
    with pytest.raises(ConfigError, match=message):
        call(tmp_path)


def test_undecodable_trajectory_csv_is_a_config_error(tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_bytes(b"t,agent,x,y,theta,xi0,xi1,xi2\n0,0,\xff,0,0,0,0,0\n")
    with pytest.raises(ConfigError, match="malformed trajectory"):
        read_trajectory_csv(path, "se2")


def _handle_fed_read_csv(path, what):
    """The reader that gave numpy the open text handle, which it iterates line
    by line: the reference for the path-fed simulator._read_csv."""
    with open(path) as f, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            header = f.readline().rstrip("\n").split(",")
            return header, np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
        except ValueError as e:
            raise ConfigError(f"malformed {what} row: {e}") from e


def _outcome(read, *args):
    """What a reader gives: the header cells and each array's shape and bits,
    or "ConfigError"."""
    try:
        out = read(*args)
    except ConfigError:
        return "ConfigError"
    flat = list(out[:-1]) + list(out[-1].values()) if isinstance(out[-1], dict) else list(out)
    return [x if isinstance(x, list) else (x.shape, x.tobytes()) for x in flat]


def _row2(f):
    """Damage the text of the second data row with f."""
    def damage(text):
        lines = text.split(b"\n")
        lines[2] = f(lines[2])
        return b"\n".join(lines)
    return damage


@pytest.mark.parametrize("damage", [
    lambda text: text.replace(b"\n", b"\r\n"),
    lambda text: text.replace(b"\n", b"\r"),
    lambda text: text[:-1],
    _row2(lambda row: b"\n" + row),
    _row2(lambda row: b"  \t \n" + row),
    _row2(lambda row: b"\f\n" + row),
    _row2(lambda row: b"\f" + row),
    _row2(lambda row: row[:3] + b"\0" + row[3:]),
    _row2(lambda row: b"\xef\xbb\xbf" + row),
    _row2(lambda row: b"1_0" + row[row.index(b","):]),
    _row2(lambda row: row[:3] + b"\xc3\xa9" + row[3:]),
    _row2(lambda row: row[:3] + b"\x80" + row[3:]),
    _row2(lambda row: row.replace(b",", b",\xc2\xa0", 1)),     # read as a space in UTF-8 only
], ids=["crlf", "lone_cr", "no_final_newline", "blank_line", "whitespace_line",
        "form_feed_line", "form_feed_in_row", "nul", "bom", "underscore", "non_ascii_char",
        "non_ascii_byte", "no_break_space"])
def test_path_fed_reader_matches_the_handle_fed_parse(tmp_path, monkeypatch, damage):
    cfg = _cfg(n_agents=2, graph=CommGraph.complete(2), t_end=0.02)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(run(cfg), path)
    path.write_bytes(damage(path.read_bytes()))
    got = (_outcome(simulator._read_csv, path, "trajectory"),
           _outcome(read_trajectory_csv, path, "se2"))
    monkeypatch.setattr(simulator, "_read_csv", _handle_fed_read_csv)
    assert got == (_outcome(_handle_fed_read_csv, path, "trajectory"),
                   _outcome(read_trajectory_csv, path, "se2"))


def _swap_first_snapshot_ids(lines):
    for i, agent in ((1, "1"), (2, "0")):
        t, _, rest = lines[i].split(",", 2)
        lines[i] = ",".join((t, agent, rest))


def _second_row_later_time(lines):
    t, rest = lines[2].split(",", 1)
    lines[2] = f"{float(t) + 1.0!r},{rest}"


@pytest.mark.parametrize("damage, message", [
    (_swap_first_snapshot_ids, "agent ids"),
    (_second_row_later_time, "times differ"),
])
def test_trajectory_csv_rows_must_follow_agent_order(tmp_path, damage, message):
    cfg = _cfg(n_agents=2, graph=CommGraph.complete(2), t_end=0.02)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(run(cfg), path)
    lines = path.read_text().splitlines()
    damage(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        read_trajectory_csv(path, "se2")


# The per-value writers the block writers replaced: one format() call per
# value and one join per row.  They are the byte-for-byte reference.

def _ref_fmt(x):
    return format(float(x), ".17g")


def _ref_write_trajectory_csv(traj, path):
    group = traj.group
    header = (["t", "agent"] + list(group.payload_columns)
              + [f"xi{i}" for i in range(group.dim)] + aux_columns(traj.aux))
    payload = group.to_payload(traj.g)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for s in range(len(traj.times)):
            for k in range(traj.n_agents):
                row = [_ref_fmt(traj.times[s]), str(k)]
                row += [_ref_fmt(v) for v in payload[s, k]]
                row += [_ref_fmt(v) for v in traj.xi[s, k]]
                for arr in traj.aux.values():
                    row += [_ref_fmt(v) for v in arr[s, k]]
                f.write(",".join(row) + "\n")


def _ref_write_metrics_csv(traj, path):
    header = ["t"] + list(METRIC_NAMES) + [f"V_k_{k}" for k in range(traj.n_agents)]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for s in range(len(traj.times)):
            row = [_ref_fmt(traj.times[s])]
            row += [_ref_fmt(traj.metrics[name][s]) for name in METRIC_NAMES]
            row += [_ref_fmt(v) for v in traj.metrics["V_k"][s]]
            f.write(",".join(row) + "\n")


_AWKWARD = [-0.0, 5e-324, 1e16, 1e17, np.inf, np.nan]


def _synthetic_trajectory(group, n, samples, seed):
    rng = np.random.default_rng(seed)
    g = group.random(rng, samples * n).reshape((samples, n) + group.element_shape)
    xi = rng.standard_normal((samples, n, group.dim)) * 10.0 ** rng.integers(-8, 9, (samples, n, 1))
    flat = xi.reshape(-1)
    aux = {"alpha": rng.standard_normal((samples, n, 2)),
           "eta": rng.standard_normal((samples, n, group.dim))}
    metrics = {name: rng.standard_normal(samples) for name in METRIC_NAMES}
    metrics["V_k"] = rng.standard_normal((samples, n)) ** 2
    if samples:
        flat[:len(_AWKWARD)] = _AWKWARD
        flat[-len(_AWKWARD):] = _AWKWARD
        metrics["V_k"][0, :min(n, len(_AWKWARD))] = _AWKWARD[:n]
    times = np.arange(samples) * 1e-2
    return Trajectory(group.name, times, g, xi, aux, metrics, [], True)


def _writer_case(group, n, samples, aux_xi=None):
    return pytest.param(group, n, samples, aux_xi,
                        id="-".join([group.name, str(n), str(samples)] + [aux_xi] * bool(aux_xi)))


@pytest.mark.parametrize("group, n, samples, aux_xi", [
    _writer_case(SO3, 3, 4),
    _writer_case(SE2, 5, CSV_BLOCK_ROWS // 5 + 3),     # more than one block, ragged last block
    _writer_case(SE3, 7, 2 * CSV_BLOCK_ROWS // 7 + 1),
    _writer_case(SE3, 1, CSV_BLOCK_ROWS),              # exactly one block
    _writer_case(SE2, 3, 5, "aux_is_xi"),              # a velocity law's aux xi
    _writer_case(SO3, 2, 4, "aux_is_xi_but_negative_zero"),   # equal as floats, not as bits
    _writer_case(SE3, CSV_BLOCK_ROWS + 44, 3),         # a snapshot wider than a block
    _writer_case(SE3, 256, 3, "aux_is_xi"),            # the reload keeps aux xi as xi at N=256
    _writer_case(SE2, 4, 70, "xi_first_of_two_aux"),    # two aux fields, one of them xi
    _writer_case(SO3, 3, 0),                           # no samples: the header alone
    _writer_case(SE2, 1, 3 * CSV_BLOCK_ROWS + 5),      # one agent over several blocks
])
def test_block_writers_match_per_value_writers_byte_for_byte(tmp_path, group, n, samples,
                                                              aux_xi):
    traj = _synthetic_trajectory(group, n, samples, seed=n)
    if aux_xi is not None:
        traj.xi.reshape(-1)[1] = 0.0
        traj.aux["xi"] = traj.xi
        if aux_xi == "aux_is_xi_but_negative_zero":
            traj.aux["xi"] = traj.xi.copy()
            traj.aux["xi"].reshape(-1)[1] = -0.0
        if aux_xi == "xi_first_of_two_aux":
            traj.aux = {"xi": traj.xi, "eta": traj.aux["eta"]}
    for name, write, ref in (("trajectory", write_trajectory_csv, _ref_write_trajectory_csv),
                             ("metrics", write_metrics_csv, _ref_write_metrics_csv)):
        write(traj, tmp_path / f"{name}.csv")
        ref(traj, tmp_path / f"{name}_ref.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()
    text = (tmp_path / "trajectory.csv").read_text()
    for token in (",-0,", ",4.9406564584124654e-324,", ",10000000000000000,", ",1e+17,",
                  ",inf,", ",nan,"):
        assert token in text or samples == 0
    if aux_xi is not None:
        _, _, xi, aux = read_trajectory_csv(tmp_path / "trajectory.csv", group.name)
        assert (aux["xi"] is xi) == (aux_xi != "aux_is_xi_but_negative_zero")
        assert aux["xi"].tobytes() == traj.aux["xi"].tobytes()


def test_metrics_csv_header_and_manifest(tmp_path):
    cfg = _cfg(t_end=0.1)
    traj = run(cfg)
    mpath = tmp_path / "metrics.csv"
    write_metrics_csv(traj, mpath)
    header = mpath.read_text().splitlines()[0]
    assert header == "t,V_r,V_l,V_tr,V_tl,V_k_0,V_k_1,V_k_2"

    man = tmp_path / "manifest.txt"
    write_manifest(traj, man)
    parsed = read_manifest(man)
    assert parsed["schema"] == 2
    assert parsed["group"] == "se2"
    assert parsed["agents"] == 3
    assert parsed["status"] == "completed"
    assert parsed["config_hash"] == cfg.config_hash()
    assert read_manifest(man)["config"]["seed"] == 1
    assert parsed["config"] == cfg.record()
    assert parsed["events"] == []


def test_config_record_is_plain_data_of_every_field():
    g0 = SE2.make(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0.5, -0.5]))
    cfg = _cfg(n_agents=2, graph=CommGraph(2, [(0.0, {(0, 1)}), (0.5, {(1, 0)})], period=1.0),
               controller="underactuated_lic", control=ControlSetting.se2_steering(),
               controller_params={"monitor_tol": 1e-6, "label": "x"},
               init=InitSpec(kind="explicit", g0=g0, aux0={"eta": np.ones((2, 3))}),
               stop_metric="V_tl", stop_below=1e-9)
    rec = cfg.record()
    assert json.loads(json.dumps(rec)) == rec
    assert rec["graph"] == {"n": 2, "breakpoints": [0.0, 0.5], "period": 1.0,
                            "edge_sets": [[[0, 1]], [[1, 0]]]}
    assert rec["control"] == {"a": [1.0, 0.0, 0.0], "B": [[0.0], [0.0], [1.0]]}
    assert rec["init"]["g0"] == g0.tolist() and rec["init"]["aux0"] == {"eta": [[1.0] * 3] * 2}
    assert rec["controller_params"] == {"monitor_tol": 1e-6, "label": "x"}
    assert (rec["n_agents"], rec["stop_metric"], rec["stop_below"]) == (2, "V_tl", 1e-9)
    assert set(rec) == {f.name for f in fields(ScenarioConfig)}
    for changed in (replace(cfg, graph=CommGraph(2, [(0.0, {(0, 1)}), (0.5, {(1, 0)})])),
                    replace(cfg, control=None),
                    replace(cfg, init=replace(cfg.init, aux0={"eta": np.zeros((2, 3))})),
                    replace(cfg, stop_below=1e-8), replace(cfg, aux_integrator="rk4")):
        assert changed.config_hash() != cfg.config_hash()


def test_config_hash_tracks_content():
    assert _cfg(seed=1).config_hash() != _cfg(seed=2).config_hash()
    assert _cfg(seed=1).config_hash() == _cfg(seed=1).config_hash()


def test_run_merges_controller_events():
    # the crafted sign-condition violation surfaces in the trajectory events
    b = np.zeros((6, 1))
    b[1, 0] = b[5, 0] = 1.0 / np.sqrt(2.0)
    cs = ControlSetting(np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]), b)
    cfg = ScenarioConfig(
        group="se3", n_agents=3, controller="underactuated_lic", control=cs,
        graph=CommGraph.complete(3), t_end=0.5, h=1e-3, seed=17,
        init=InitSpec(kind="random", aux_scale=2.0),
    )
    traj = run(cfg)
    kinds = {e.kind for e in traj.events}
    assert "assumption_violation" in kinds
    viol = [e for e in traj.events if e.kind == "assumption_violation"]
    assert all(e.count >= 1 and e.agent is not None for e in viol)


def test_config_hash_accepts_string_params():
    a = _cfg(controller_params={"xi": np.zeros(3), "label": "trial"})
    b = _cfg(controller_params={"xi": np.zeros(3), "label": "other"})
    assert a.config_hash() != b.config_hash()
