"""Analysis tooling: coordination checks, isotropy sets, generated
configurations, geometric oracles, probes."""

import tracemalloc
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liecoord import analysis
from liecoord.analysis import (
    PAIR_CHUNK,
    AnalysisError,
    check_coordination,
    cm_algebra_basis,
    cm_algebra_dimension,
    compatible_velocities,
    generate_tc_configuration,
    tc_basin_probe,
    random_cm_element,
    se2_circle_center,
    se3_screw_axis,
    so3_anti_aligned_state,
    so3_saddle_escape,
)
from liecoord.controllers import ControlSetting
from liecoord.graphs import CommGraph
from liecoord.groups import SE2, SE3, SO3, matvec, rot2, so3_exp, wrap_angle
from liecoord.simulator import InitSpec, ScenarioConfig, Trajectory, metric_traces, run

from helpers import right_relative

E1, E2, E3 = np.eye(3)


def _open_loop_cfg(group_name, g0, xi, t_end=5.0, h=1e-3, record_every=10):
    n = g0.shape[0]
    return ScenarioConfig(
        group=group_name, n_agents=n, controller="constant",
        controller_params={"xi": xi}, graph=CommGraph.complete(n) if n > 1 else CommGraph.empty(1),
        t_end=t_end, h=h, record_every=record_every,
        init=InitSpec(kind="explicit", g0=g0),
    )


# ---------------------------------------------------------------------------
# coordination detection
# ---------------------------------------------------------------------------

def test_frozen_swarm_is_totally_coordinated():
    rng = np.random.default_rng(0)
    g0 = SE2.random(rng, 3)
    traj = run(_open_loop_cfg("se2", g0, np.zeros(3), t_end=2.0))
    rep = check_coordination(traj, "tc", window=1.0, tol=1e-3)
    assert rep.achieved
    assert rep.lambda_drift == 0.0
    assert rep.rho_drift == 0.0


def test_equal_body_velocity_gives_ric_not_lic():
    # same body velocity, different headings: spatial velocities disagree
    rng = np.random.default_rng(1)
    g0 = SE2.make(rng.standard_normal((2, 2)), np.array([0.0, 2.0]))
    traj = run(_open_loop_cfg("se2", g0, np.array([1.0, 0.0, 0.0]), t_end=3.0))
    ric = check_coordination(traj, "ric", window=1.0, tol=1e-3)
    lic = check_coordination(traj, "lic", window=1.0, tol=1e-3)
    assert ric.achieved and not lic.achieved
    assert lic.xi_r_disagreement > 1e-1
    # both criteria agree in each mode
    assert ric.ric_by_velocity == ric.ric_by_position
    assert lic.lic_by_position == lic.lic_by_velocity


def test_coordination_window_too_short():
    rng = np.random.default_rng(2)
    traj = run(_open_loop_cfg("se2", SE2.random(rng, 2), np.zeros(3), t_end=1.0))
    with pytest.raises(AnalysisError, match="window"):
        check_coordination(traj, "lic", window=1e-4)


@pytest.mark.parametrize("tol", [np.nan, -1e-3, 0.0, np.inf])
def test_check_rejects_a_tol_that_decides_nothing(tol):
    # NaN or negative would read as never achieved, inf as always
    rng = np.random.default_rng(2)
    traj = run(_open_loop_cfg("se2", SE2.random(rng, 2), np.zeros(3), t_end=1.0))
    with pytest.raises(AnalysisError, match="tol: must be finite and > 0"):
        check_coordination(traj, "lic", tol=tol)


def test_check_names_a_nan_window_and_takes_an_infinite_one():
    rng = np.random.default_rng(2)
    traj = run(_open_loop_cfg("se2", SE2.random(rng, 2), np.zeros(3), t_end=1.0))
    with pytest.raises(AnalysisError, match="window: must be a number"):
        check_coordination(traj, "lic", window=np.nan)
    whole = check_coordination(traj, "lic", window=np.inf)
    assert whole.achieved and whole.lambda_drift == 0.0


def test_coordination_criteria_agree_on_random_runs():
    # drift criterion vs velocity criterion over a battery of runs
    for seed in range(6):
        cfg = ScenarioConfig(
            group="so3", n_agents=3, controller="lic_consensus",
            graph=CommGraph.ring(3), t_end=12.0, h=1e-3, seed=seed,
        )
        traj = run(cfg)
        rep = check_coordination(traj, "lic", window=1.0, tol=1e-3)
        assert rep.lic_by_position == rep.lic_by_velocity


def _recorded(group, g, xi, times):
    return Trajectory(group.name, np.asarray(times, dtype=float), g, xi, {}, {}, [], True)


def _random_recorded(group, n, samples, seed):
    rng = np.random.default_rng(seed)
    g = group.random(rng, samples * n).reshape((samples, n) + group.element_shape)
    xi = rng.standard_normal((samples, n, group.dim))
    return _recorded(group, g, xi, np.linspace(0.0, 0.1 * (samples - 1), samples))


def _wins(v, best):
    """v replaces the running maximum best: it is larger, or the first NaN."""
    return v > best or (np.isnan(v) and not np.isnan(best))


def _reference_check(traj):
    """Per-pair loop over every agent pair: (lambda, pair, time), rho and the
    two velocity gaps.  The largest value wins, then the earliest pair, then
    the earliest sample; a NaN wins; a maximum of 0 names no pair."""
    group, g, xi, t = traj.group, traj.g, traj.xi, traj.times
    xi_r = group.adjoint(g, xi)

    def drift(relative, j, k):
        emb = group.embed(relative(g[:, k], g[:, j]))
        return np.linalg.norm((emb[2:] - emb[:-2]) / (t[2:] - t[:-2])[:, None], axis=-1)

    lam, lam_at, rho, gap_r, gap_l = 0.0, (None, None), 0.0, 0.0, 0.0
    for j in range(traj.n_agents):
        for k in range(j + 1, traj.n_agents):
            rate = drift(group.left_relative, j, k)
            i = int(np.argmax(rate))        # the first NaN, else the first maximum
            if _wins(rate[i], lam):
                lam, lam_at = float(rate[i]), ((j, k), float(t[i + 1]))
            values = (np.max(drift(partial(right_relative, group), j, k)),
                      np.max(np.linalg.norm(xi_r[:, k] - xi_r[:, j], axis=-1)),
                      np.max(np.linalg.norm(xi[:, k] - xi[:, j], axis=-1)))
            rho, gap_r, gap_l = (float(v) if _wins(v, m) else m
                                 for v, m in zip(values, (rho, gap_r, gap_l)))
    return lam, lam_at, rho, gap_r, gap_l


@pytest.mark.parametrize("group, n", [(SE3, 70), (SO3, 70), (SE2, 1), (SE3, 2), (SO3, 2)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_chunked_check_matches_per_pair_loop(group, n):
    if n == 70:
        assert n * (n - 1) // 2 > PAIR_CHUNK
    traj = _random_recorded(group, n, samples=6, seed=n)
    rep = check_coordination(traj, "lic", window=1.0)
    lam, (pair, t), rho, gap_r, gap_l = _reference_check(traj)
    assert rep.lambda_drift == lam and rep.rho_drift == rho
    assert rep.xi_r_disagreement == gap_r and rep.xi_l_disagreement == gap_l
    assert rep.lambda_pair == pair and rep.lambda_time == t


@pytest.mark.parametrize("group", [SO3, SE2, SE3], ids=lambda g: g.name)
def test_check_inverts_each_agent_once(monkeypatch, group):
    n = 70
    assert n * (n - 1) // 2 > PAIR_CHUNK
    traj = _random_recorded(group, n, samples=6, seed=1)
    calls = []
    inverse = group.inverse

    def counting(g):
        calls.append(np.shape(g))
        return inverse(g)

    monkeypatch.setattr(group, "inverse", counting)
    check_coordination(traj, "lic", window=1.0)
    assert calls == [traj.g.shape]


# kinds of recorded swarms for the property test below
SWARM_KINDS = {
    "moving": "each agent at its own constant body velocity",
    "coordinated": "one common velocity, applied on the left or on the right",
    "nearly": "static, translations perturbed by a few ulps (about 1e-15) at every sample",
    "static": "a random half of the agents at rest",
    "frozen": "every agent at rest, every velocity zero",
    "nan": "moving, with one NaN entry of one agent at one sample",
    "off": "moving, 1e-3 off the manifold",
    "pi": "SE(2) headings near pi, turning across it",
    "reversed": "moving, at decreasing sample times",
}


def _swarm(group, kind, n, seed, samples=7):
    """A recorded swarm of the given kind (SWARM_KINDS) at uneven sample times."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.05, 0.15, samples)) * (-1 if kind == "reversed" else 1)
    g0 = group.random(rng, n, pos_scale=3.0)
    xi = group.random_algebra(rng, (n,))
    if kind == "pi":
        g0[:, 2] = wrap_angle(np.pi + rng.uniform(-0.2, 0.2, n))
        xi[:, 2] = rng.choice([-1.0, 1.0], n)
    if kind in ("coordinated", "nearly"):
        xi[:] = xi[0]
    move = xi.copy()
    if kind == "static":
        move[rng.random(n) < 0.5] = 0.0
    if kind in ("nearly", "frozen"):
        move[:] = 0.0
    if kind == "frozen":
        xi[:] = 0.0
    step = group.exp(t[:, None, None] * move)
    left = kind == "coordinated" and rng.random() < 0.5
    g = group.compose(step, g0) if left else group.compose(g0, step)
    if kind == "static":
        xi = move
    xi = np.broadcast_to(xi, (samples,) + xi.shape).copy()
    if kind == "nearly":
        # a few ulps of the translations (of SO(3) rotations): the rounding of
        # compose is then as large as the motion
        block = {"se2": (Ellipsis, slice(0, 2)), "se3": (Ellipsis, slice(0, 3), 3)}.get(
            group.name, Ellipsis)
        g[block] += np.spacing(g[block]) * rng.integers(-3, 4, g[block].shape)
        xi += 1e-15 * rng.standard_normal(xi.shape)
    if kind == "off":
        # SE(3) rotation blocks, or at random the whole matrix, bottom row included
        block = (Ellipsis, slice(0, 3), slice(0, 3)) if rng.random() < 0.5 else Ellipsis
        g[block] += 1e-3 * rng.standard_normal(g[block].shape)
    if kind == "nan":
        s, a = rng.integers(samples), rng.integers(n)
        target = g if rng.random() < 0.5 else xi
        target[s, a].flat[rng.integers(target[s, a].size)] = np.nan
    return _recorded(group, g, xi, t)


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


PROPERTY_CASES = [(group, kind) for group in (SO3, SE2, SE3) for kind in SWARM_KINDS
                  if not (kind == "pi" and group is not SE2) and not (kind == "off" and group is SE2)]


@pytest.mark.usefixtures("hypothesis_without_local_constants")
@pytest.mark.parametrize("group, kind", PROPERTY_CASES,
                         ids=[f"{g.name}-{k}" for g, k in PROPERTY_CASES])
@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(n=st.sampled_from([2, 3, 70]), seed=st.integers(0, 2**32 - 1))
@example(n=70, seed=0)
def test_pruned_check_equals_the_per_pair_loop(group, kind, n, seed):
    traj = _swarm(group, kind, n, seed)
    lam, (pair, t), rho, gap_r, gap_l = _reference_check(traj)
    # small chunks stop near the first bound below the maximum
    for chunk in (PAIR_CHUNK, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "PAIR_CHUNK", chunk)
            rep = check_coordination(traj, "lic", window=1.0)
        assert _same(rep.lambda_drift, lam) and _same(rep.rho_drift, rho)
        assert _same(rep.xi_r_disagreement, gap_r) and _same(rep.xi_l_disagreement, gap_l)
        assert rep.lambda_pair == pair and rep.lambda_time == t


def _select_case(kind):
    """bound, the (samples, pairs) values below it, and the expected
    (maximum, pair, sample): the first NaN, else the first maximum."""
    rng = np.random.default_rng(7)
    n_pairs = 3 * PAIR_CHUNK + 7
    bound = rng.uniform(1.0, 2.0, n_pairs)
    table = 0.5 * bound * rng.uniform(0.0, 1.0, (4, n_pairs))
    top = int(np.argmax(bound))
    if kind == "tie":       # pair 5, of a low bound, ties the top pair and comes first
        bound[5] = 1.2
        table[1, 5] = table[3, top] = 1.2
        return bound, table, (1.2, 5, 1)
    if kind == "nan":       # a NaN among the pairs of largest bound makes all candidates
        table[2, top] = np.nan
        return bound, table, (np.nan, top, 2)
    p = int(np.argmax(np.max(table, axis=0)))
    return bound, table, (float(np.max(table)), p, int(np.argmax(table[:, p])))


@pytest.mark.parametrize("kind", ["distinct", "tie", "nan"])
def test_select_evaluates_each_pair_once(kind):
    bound, table, (best, pair, sample) = _select_case(kind)
    seen = []

    def values(pairs):
        seen.extend(pairs.tolist())
        return table[:, pairs]

    got = analysis._select(bound, values)
    assert len(seen) == len(set(seen)) and len(seen) >= PAIR_CHUNK
    assert got[1:] == (pair, sample)
    assert got[0] == best or np.isnan(got[0]) and np.isnan(best)


def test_check_ties_go_to_the_earliest_pair():
    # SE(3) agents 2i at rest, agents 2i + 1 moving along x; every mixed pair
    # drifts at exactly 2.  Rotation blocks diag(1, 1, 1 + k 2^-20) raise the
    # bound of a pair with its second agent k, not its drift, so (0, 1) has
    # the lowest bound of the 2,500 tied pairs and is evaluated in a later
    # chunk than the first tie.
    n, times = 100, np.arange(5) / 16.0
    assert (n // 2) ** 2 > PAIR_CHUNK
    Q = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    Q[:, 2, 2] += np.arange(n) * 2.0**-20
    r = np.zeros((5, n, 3))
    r[:, :, 1] = np.arange(n)
    r[:, 1::2, 0] = 2.0 * times[:, None]
    g = SE3.make(r, np.broadcast_to(Q, (5, n, 3, 3)))
    rep = check_coordination(_recorded(SE3, g, np.zeros((5, n, 6)), times), "lic", window=1.0)
    assert rep.lambda_drift == 2.0
    assert rep.lambda_pair == (0, 1) and rep.lambda_time == times[1]


def test_check_evaluates_few_pairs_of_a_ring(monkeypatch):
    # SE(3) lic_consensus on a 256-agent ring: the bounds leave fewer than 40%
    # of the pairs for exact evaluation, lambda and rho drifts together
    cfg = ScenarioConfig(group="se3", n_agents=256, controller="lic_consensus",
                         graph=CommGraph.ring(256), t_end=2.0, h=1e-3, seed=3,
                         record_every=10)
    traj = run(cfg)
    evaluated = []
    compose = SE3.compose

    def counting(g, h):
        evaluated.append(np.shape(g)[1])
        return compose(g, h)

    monkeypatch.setattr(SE3, "compose", counting)
    check_coordination(traj, "lic", window=0.2)
    assert 0 < sum(evaluated) < 0.4 * 256 * 255 // 2


def test_check_names_the_worst_pair_and_time():
    # SE(2) translations: agent 1 moves at unit speed, agent 2 at speed 2t
    times = np.linspace(0.0, 1.0, 11)
    x = np.stack([np.zeros_like(times), times, times**2], axis=1)
    g = SE2.make(np.stack([x, np.zeros_like(x)], axis=-1), np.zeros_like(x))
    rep = check_coordination(_recorded(SE2, g, np.zeros((11, 3, 3)), times), "lic", window=1.0)
    assert rep.lambda_drift == pytest.approx(1.8)
    assert rep.lambda_pair == (0, 2)
    assert rep.lambda_time == pytest.approx(0.9)
    assert "lambda_worst_pair=0,2 lambda_worst_t=0.900000" in rep.format()


@pytest.mark.parametrize("mode", ["lic", "ric", "tc"])
def test_check_of_an_empty_trajectory_is_a_typed_error(mode):
    # a run that blows up at t = 0 records no sample
    empty = _recorded(SE2, np.zeros((0, 3, 3)), np.zeros((0, 3, 3)), [])
    with pytest.raises(AnalysisError, match="no recorded samples"):
        check_coordination(empty, mode, window=1.0)


def test_check_never_passes_a_non_finite_trajectory():
    times = np.linspace(0.0, 1.0, 5)
    g = SO3.identity_like(15).reshape(5, 3, 3, 3)
    g[2, 2, 0, 0] = np.nan
    rep = check_coordination(_recorded(SO3, g, np.zeros((5, 3, 3)), times), "lic", window=1.0)
    assert np.isnan(rep.lambda_drift)
    assert not rep.achieved


def test_check_of_se3_with_bottom_rows_off_equals_the_per_pair_loop():
    # bottom rows off (0, 0, 0, 1) leave no pair bound: every pair is a candidate
    traj = _random_recorded(SE3, 70, samples=6, seed=4)
    traj.g[..., 3, :] += 1e-3 * np.random.default_rng(4).standard_normal(traj.g[..., 3, :].shape)
    lam, (pair, t), rho, gap_r, gap_l = _reference_check(traj)
    for chunk in (PAIR_CHUNK, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "PAIR_CHUNK", chunk)
            rep = check_coordination(traj, "lic", window=1.0)
        assert (rep.lambda_drift, rep.rho_drift) == (lam, rho)
        assert (rep.xi_r_disagreement, rep.xi_l_disagreement) == (gap_r, gap_l)
        assert rep.lambda_pair == pair and rep.lambda_time == t


@pytest.mark.parametrize("call, message", [
    (lambda: check_coordination(_random_recorded(SE2, 2, 3, 0), "xyz"), "unknown coordination mode"),
    (lambda: generate_tc_configuration(SO3, E3, 0, np.random.default_rng(0)), "n: must be >= 1, not 0"),
    (lambda: tc_basin_probe(graph_kind="star", trials=1), "unknown graph kind 'star'"),
    (lambda: so3_anti_aligned_state(3), "even agent count"),
    (lambda: tc_basin_probe(trials=-1), "trials: must be >= 0"),
    (lambda: generate_tc_configuration(SE3, np.arange(1.0, 7.0), 3, np.random.default_rng(0),
                                       tree_edges=[(0, 5)]), r"tree edge \(0, 5\)"),
    (lambda: so3_anti_aligned_state(0), "n: must be >= 2, not 0"),
    (lambda: tc_basin_probe(trials=1.5), "trials: must be an integer, not 1.5"),
    (lambda: tc_basin_probe(trials=1, n_agents=2.5), "n_agents: must be an integer, not 2.5"),
    (lambda: tc_basin_probe(trials=1, seed=1.5), "seed: must be an integer, not 1.5"),
    (lambda: so3_anti_aligned_state(2.0), "n: must be an integer, not 2.0"),
    (lambda: generate_tc_configuration(SO3, E3, 2.5, np.random.default_rng(0)),
     "n: must be an integer, not 2.5"),
    (lambda: so3_saddle_escape(seed=1.5), "seed: must be an integer, not 1.5"),
    (lambda: tc_basin_probe(seed=-1, trials=1), "seed: must be >= 0, not -1"),
    (lambda: so3_saddle_escape(seed=-1), "seed: must be >= 0, not -1"),
    (lambda: tc_basin_probe(n_agents=0, trials=1), "n_agents: must be >= 1, not 0"),
    (lambda: check_coordination(_random_recorded(SE2, 2, 3, 0), 3), "unknown coordination mode 3"),
    (lambda: check_coordination(_random_recorded(SE2, 2, 3, 0), "lic", window="1"),
     "window: must be a number of time units, not '1'"),
    (lambda: check_coordination(_random_recorded(SE2, 2, 3, 0), "lic", tol=None),
     "tol: must be finite and > 0, not None"),
], ids=["mode", "no-agents", "graph-kind", "odd-count", "negative-trials", "edge-off-the-agents",
        "no-agent-pairs", "fractional-trials", "fractional-agents", "fractional-seed",
        "fractional-pair-count", "fractional-tree-size", "fractional-escape-seed",
        "negative-seed", "negative-escape-seed", "no-probe-agents", "mode-not-a-name",
        "text-window", "no-tol"])
def test_analysis_input_errors_are_typed(call, message):
    with pytest.raises(AnalysisError, match=message):
        call()


def test_check_memory_is_bounded_at_256_agents():
    traj = _random_recorded(SE3, 256, samples=21, seed=3)
    tracemalloc.start()
    try:
        check_coordination(traj, "lic", window=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# isotropy sets
# ---------------------------------------------------------------------------

def cm_membership(group, g, xi, tol=1e-9):
    """True iff Ad_g xi = xi within tol (g fixes the velocity xi)."""
    err = np.linalg.norm(group.adjoint(g, xi) - np.asarray(xi, dtype=float), axis=-1)
    return np.max(err) <= tol if err.ndim else bool(err <= tol)


def cm_group_dimension_estimate(group, xi, eps=1e-7, rel_tol=1e-6):
    """Isotropy-subgroup dimension from the linearization of g -> Ad_g xi - xi
    at the identity (finite differences along the algebra basis)."""
    xi = np.asarray(xi, dtype=float)
    cols = []
    for i in range(group.dim):
        eta = np.zeros(group.dim)
        eta[i] = eps
        plus = group.adjoint(group.exp(eta), xi)
        minus = group.adjoint(group.exp(-eta), xi)
        cols.append((plus - minus) / (2.0 * eps))
    J = np.stack(cols, axis=-1)
    s = np.linalg.svd(J, compute_uv=False)
    scale = max(s[0], float(np.linalg.norm(xi)), 1e-30)
    rank = int(np.sum(s > rel_tol * scale))
    return group.dim - rank


def test_cm_membership_basics():
    rng = np.random.default_rng(3)
    xi = SO3.random_algebra(rng)
    assert cm_membership(SO3, SO3.identity(), xi)
    # rotations around the velocity axis fix it, orthogonal ones do not
    w = np.array([0.0, 0.0, 1.3])
    assert cm_membership(SO3, so3_exp(0.8 * E3), w)
    assert not cm_membership(SO3, so3_exp(0.8 * E1), w)


def test_cm_membership_closed_under_product_and_inverse():
    rng = np.random.default_rng(4)
    for group, xi in ((SO3, np.array([0.2, -0.5, 0.9])),
                      (SE2, np.array([1.0, 0.3, 0.7])),
                      (SE3, np.array([1.0, 0.0, 0.2, 0.1, 0.0, 0.6]))):
        g1 = random_cm_element(group, xi, rng)
        g2 = random_cm_element(group, xi, rng)
        assert cm_membership(group, g1, xi, tol=1e-8)
        assert cm_membership(group, group.inverse(g1), xi, tol=1e-8)
        assert cm_membership(group, group.compose(g1, g2), xi, tol=1e-8)


def test_cm_algebra_dimension_table():
    rng = np.random.default_rng(5)
    v2 = rng.standard_normal(2)
    v3 = rng.standard_normal(3)
    w3 = rng.standard_normal(3)
    assert cm_algebra_dimension(SO3, w3) == 1
    assert cm_algebra_dimension(SO3, np.zeros(3)) == 3
    assert cm_algebra_dimension(SE2, np.zeros(3)) == 3
    assert cm_algebra_dimension(SE2, np.array([*v2, 0.0])) == 2
    assert cm_algebra_dimension(SE2, np.array([*v2, 1.7])) == 1
    assert cm_algebra_dimension(SE3, np.zeros(6)) == 6
    assert cm_algebra_dimension(SE3, np.array([*v3, 0, 0, 0])) == 4
    assert cm_algebra_dimension(SE3, np.array([*v3, *w3])) == 2
    assert cm_algebra_dimension(SE3, np.array([0, 0, 0, *w3])) == 2


def test_cm_basis_elements_commute():
    rng = np.random.default_rng(6)
    for group in (SO3, SE2, SE3):
        xi = group.random_algebra(rng)
        basis = cm_algebra_basis(group, xi)
        for row in basis:
            assert np.max(np.abs(group.bracket(xi, row))) < 1e-9


def test_cm_group_dimension_matches_algebra_dimension():
    rng = np.random.default_rng(7)
    cases = [
        (SO3, rng.standard_normal(3)),
        (SE2, np.array([0.4, -1.0, 0.9])),
        (SE2, np.array([0.4, -1.0, 0.0])),
        (SE3, rng.standard_normal(6)),
        (SE3, np.array([1.0, 0.2, 0.0, 0.0, 0.0, 0.0])),
    ]
    for group, xi in cases:
        assert cm_group_dimension_estimate(group, xi) == cm_algebra_dimension(group, xi)


# ---------------------------------------------------------------------------
# generated coordinated configurations
# ---------------------------------------------------------------------------

def test_generate_single_agent():
    rng = np.random.default_rng(8)
    g = generate_tc_configuration(SE3, np.array([1, 0, 0, 0, 0, 1.0]), 1, rng)
    assert g.shape == (1, 4, 4)


def test_generate_zero_velocity_any_configuration():
    rng = np.random.default_rng(9)
    g = generate_tc_configuration(SE2, np.zeros(3), 4, rng)
    assert g.shape == (4, 3)


def test_generate_tree_relative_positions_fix_velocity():
    rng = np.random.default_rng(10)
    xi = np.array([0.8, -0.1, 0.3, 0.2, 0.5, -0.4])
    tree = [(0, 1), (0, 2), (2, 3)]
    g = generate_tc_configuration(SE3, xi, 4, rng, tree_edges=tree)
    for a, b in tree:
        lam = SE3.left_relative(g[a], g[b])
        assert cm_membership(SE3, lam, xi, tol=1e-8)
    # all pairs follow from the subgroup property
    for j in range(4):
        for k in range(4):
            assert cm_membership(SE3, SE3.left_relative(g[k], g[j]), xi, tol=1e-7)


def test_generate_rejects_non_spanning_tree():
    rng = np.random.default_rng(11)
    with pytest.raises(AnalysisError, match="span"):
        generate_tc_configuration(SO3, E3, 4, rng, tree_edges=[(0, 1)])


def test_generated_configuration_flies_coordinated():
    rng = np.random.default_rng(12)
    xi = np.array([0.5, 0.2, 0.9])
    g0 = generate_tc_configuration(SO3, xi, 4, rng)
    traj = run(_open_loop_cfg("so3", g0, xi, t_end=6.0))
    rep = check_coordination(traj, "tc", window=2.0, tol=1e-6)
    assert rep.achieved
    assert rep.lambda_drift < 1e-8 and rep.rho_drift < 1e-8


def test_generated_configuration_two_sided_kernels():
    # the common body velocity lies in every ker(Ad_lambda - I), and its
    # spatial image in every ker(Ad_rho - I)
    rng = np.random.default_rng(13)
    xi = np.array([1.0, 0.0, 0.4, 0.0, 0.0, 0.8])
    g = generate_tc_configuration(SE3, xi, 4, rng)
    xi_r = SE3.adjoint(g[0], xi)
    for j in range(4):
        for k in range(4):
            lam = SE3.left_relative(g[k], g[j])
            rho = right_relative(SE3, g[k], g[j])
            assert np.max(np.abs(SE3.adjoint(lam, xi) - xi)) < 1e-7
            assert np.max(np.abs(SE3.adjoint(rho, xi_r) - xi_r)) < 1e-7


def test_compatible_velocities_explorer():
    rng = np.random.default_rng(14)
    xi = np.array([1.0, 0.0, 0.5, 0.0, 0.0, 1.2])
    lambdas = [random_cm_element(SE3, xi, rng) for _ in range(3)]
    basis = compatible_velocities(SE3, lambdas)
    # xi itself must lie in the span of the returned basis
    resid = xi - basis.T @ (basis @ xi)
    assert np.linalg.norm(resid) < 1e-7
    # with generic relative positions added the set collapses
    lambdas += [SE3.random(rng) for _ in range(3)]
    assert compatible_velocities(SE3, lambdas).shape[0] == 0


@pytest.mark.parametrize("group", [SO3, SE2, SE3], ids=lambda G: G.name)
def test_no_relative_positions_fix_no_velocity(group):
    assert np.array_equal(compatible_velocities(group, []), np.eye(group.dim))


# ---------------------------------------------------------------------------
# closed-form geometry oracles
# ---------------------------------------------------------------------------

def test_se2_generated_agents_share_circle():
    rng = np.random.default_rng(15)
    v = np.array([0.9, -0.3])
    w0 = 0.8
    xi = np.array([*v, w0])
    g0 = generate_tc_configuration(SE2, xi, 5, rng)
    centers = se2_circle_center(g0, xi)
    assert np.max(np.abs(centers - centers[0])) < 1e-8
    radius = np.linalg.norm(v) / abs(w0)
    traj = run(_open_loop_cfg("se2", g0, xi, t_end=10.0, h=1e-2))
    for s in range(len(traj.times)):
        d = np.linalg.norm(traj.g[s][:, :2] - centers[0], axis=-1)
        assert np.max(np.abs(d - radius)) < 1e-8


def test_se3_generated_agents_share_helix_cylinder():
    rng = np.random.default_rng(16)
    v = np.array([1.0, 0.2, 0.3])
    w = np.array([0.1, -0.2, 0.9])
    xi = np.concatenate([v, w])
    g0 = generate_tc_configuration(SE3, xi, 4, rng)
    point, direction, pitch_rate = se3_screw_axis(g0, xi)
    # common screw axis across agents
    assert np.max(np.abs(direction - direction[0])) < 1e-8
    online = np.cross(point - point[0], direction[0])
    assert np.max(np.abs(online)) < 1e-7
    # the pitch invariant w.v equals advance along the axis times |w|
    assert np.max(np.abs(pitch_rate * np.linalg.norm(w) - v @ w)) < 1e-9

    traj = run(_open_loop_cfg("se3", g0, xi, t_end=8.0, h=1e-2))
    radius0 = None
    for s in range(len(traj.times)):
        r = SE3.position(traj.g[s])
        off = r - point[0]
        radial = off - (off @ direction[0])[:, None] * direction[0]
        dist = np.linalg.norm(radial, axis=-1)
        if radius0 is None:
            radius0 = dist
        assert np.max(np.abs(dist - radius0)) < 1e-8
    # measured advance along the axis matches the pitch
    r_first = SE3.position(traj.g[0]) @ direction[0]
    r_last = SE3.position(traj.g[-1]) @ direction[0]
    measured = (r_last - r_first) / (traj.times[-1] - traj.times[0]) * np.linalg.norm(w)
    assert np.max(np.abs(measured - v @ w)) < 1e-8


# ---------------------------------------------------------------------------
# steering equivalence on SE(2) vs SE(3)
# ---------------------------------------------------------------------------

@dataclass
class Se2EquivalenceReport:
    perp_max: float       # max |alpha(g, u) . B u| over samples
    formula_max: float    # max gap to alpha(g, u) = (R(t) e1 - u J r, 0)
    lic_achieved: bool
    ric_achieved: bool
    equivalent: bool      # LIC implies RIC on this trajectory


def check_se2_lic_tc_equivalence(traj, window=1.0, tol=1e-3):
    """On an SE(2) steering trajectory, verify the orthogonal splitting
    Ad_g (a + B u) = alpha(g, u) + B u and that reaching LIC also gives RIC."""
    if traj.group_name != "se2":
        raise AnalysisError("equivalence check applies to SE(2) trajectories")
    g = traj.g.reshape(-1, 3)
    xi = traj.xi.reshape(-1, 3)
    if len(xi) and np.max(np.abs(xi[:, :2] - np.array([1.0, 0.0]))) > 1e-9:
        raise AnalysisError("not a steering trajectory: body linear velocity is not e1")
    u = xi[:, 2]
    xi_r = SE2.adjoint(g, xi)
    bu = np.zeros_like(xi_r)
    bu[:, 2] = u
    alpha = xi_r - bu
    perp = float(np.max(np.abs(np.einsum("ki,ki->k", alpha, bu)))) if len(alpha) else 0.0
    expect_v = matvec(rot2(SE2.angle(g)), np.array([1.0, 0.0])) - u[:, None] * np.stack(
        [-SE2.position(g)[:, 1], SE2.position(g)[:, 0]], axis=-1
    )
    formula = np.concatenate([expect_v, np.zeros((len(alpha), 1))], axis=-1)
    formula_max = float(np.max(np.abs(alpha - formula))) if len(alpha) else 0.0

    rep = check_coordination(traj, "lic", window=window, tol=tol)
    return Se2EquivalenceReport(
        perp_max=perp,
        formula_max=formula_max,
        lic_achieved=rep.lic_by_position,
        ric_achieved=rep.ric_by_velocity,
        equivalent=(not rep.lic_by_position) or rep.ric_by_velocity,
    )


def _se2_steering_traj(seed, perturb=0.05, t_end=40.0):
    rng = np.random.default_rng(seed)
    w0 = 0.7
    xi = np.array([1.0, 0.0, w0])
    g0 = generate_tc_configuration(SE2, xi, 3, rng)
    g0 = SE2.compose(g0, SE2.exp(perturb * rng.standard_normal((3, 3))))
    cfg = ScenarioConfig(
        group="se2", n_agents=3, controller="underactuated_lic",
        control=ControlSetting.se2_steering(), graph=CommGraph.complete(3),
        t_end=t_end, h=1e-3, seed=seed,
        init=InitSpec(kind="explicit", g0=g0, aux0={"eta": np.tile(xi, (3, 1))}),
    )
    return run(cfg)


def test_se2_steering_equivalence_check():
    traj = _se2_steering_traj(17)
    rep = check_se2_lic_tc_equivalence(traj, window=2.0, tol=1e-3)
    assert rep.perp_max < 1e-12
    assert rep.formula_max < 1e-9
    assert rep.lic_achieved and rep.ric_achieved and rep.equivalent


def test_se3_steering_splitting_fails_generically():
    # on SE(3) the spatial image of a steering velocity is not orthogonal to
    # the control range whenever the turn rate has a forward component
    rng = np.random.default_rng(18)
    cs = ControlSetting.se3_steering()
    g = SE3.random(rng)
    u = np.array([0.9, 0.1, -0.4])  # u . e1 != 0
    xi_r = SE3.adjoint(g, cs.a + cs.B @ u)
    bu = np.concatenate([np.zeros(3), u])
    alpha = xi_r - bu
    assert abs(alpha @ bu) > 1e-3


# ---------------------------------------------------------------------------
# basin probe and saddle escape
# ---------------------------------------------------------------------------

def test_tc_basin_probe_reports_fraction():
    res = tc_basin_probe("complete", trials=6, n_agents=3, seed=19, t_end=20.0, h=5e-3)
    assert res.trials == 6
    assert 0.0 <= res.fraction <= 1.0
    assert np.all(np.isfinite(res.terminal_vtl))
    assert "fraction" in res.format()


def test_anti_aligned_state_is_stationary_saddle():
    g, eta = so3_anti_aligned_state(4)
    m = metric_traces(SO3, g, eta, eta, CommGraph.complete(4), 0.0)
    assert m["V_tl"] == pytest.approx(16.0)
    from liecoord.controllers import tc_left_cascade_rhs

    xi, deta = tc_left_cascade_rhs(SO3, g, eta, CommGraph.complete(4))
    assert np.max(np.abs(xi - eta)) < 1e-14  # q vanishes at the critical point
    assert np.max(np.abs(deta)) < 1e-14


def test_saddle_escape_under_perturbation():
    traj = so3_saddle_escape(eps=1e-3, seed=20, t_end=40.0)
    assert traj.metrics["V_tl"][0] > 10.0
    assert traj.metrics["V_tl"][-1] < 1e-6


def test_coordinated_start_stays_coordinated():
    rng = np.random.default_rng(21)
    xi = np.array([0.3, -0.6, 0.7])
    g0 = generate_tc_configuration(SO3, xi, 4, rng)
    cfg = ScenarioConfig(
        group="so3", n_agents=4, controller="tc_left_cascade",
        graph=CommGraph.complete(4), t_end=5.0, h=1e-3, seed=21,
        init=InitSpec(kind="explicit", g0=g0, aux0={"eta": np.tile(xi, (4, 1))}),
    )
    traj = run(cfg)
    assert np.max(traj.metrics["V_tl"]) < 1e-12
    assert check_coordination(traj, "tc", window=2.0, tol=1e-6).achieved


def test_underactuated_tc_cascade_converges_empirically():
    # no general proof covers the projected cascade; the claim is exercised
    # numerically from a perturbed coordinated start
    rng = np.random.default_rng(22)
    cs = ControlSetting.so3_two_axis(drift=True)
    xi = np.array([1.0, 0.0, 0.0])
    g0 = generate_tc_configuration(SO3, xi, 4, rng)
    g0 = SO3.compose(g0, so3_exp(0.05 * rng.standard_normal((4, 3))))
    eta0 = cs.a + 0.05 * rng.standard_normal((4, 1)) @ cs.B.T
    cfg = ScenarioConfig(
        group="so3", n_agents=4, controller="tc_left_cascade", control=cs,
        graph=CommGraph.complete(4), t_end=30.0, h=1e-3, seed=0,
        init=InitSpec(kind="explicit", g0=g0, aux0={"eta": eta0}),
    )
    traj = run(cfg)
    assert traj.metrics["V_tl"][-1] < 1e-6
    assert check_coordination(traj, "tc", window=2.0, tol=1e-3).achieved


def test_straight_steering_aligns_forward_axes():
    # coordinated straight motion under steering control means the body
    # forward axes agree: the same alignment task as spinning rotations about
    # a shared first axis
    graph = CommGraph(4, [(0.0, {(0, 1), (2, 3)}), (0.5, {(1, 2), (3, 0)})], period=1.0)
    rng = np.random.default_rng(23)
    base = SO3.random(rng)
    Q0 = SO3.compose(base, so3_exp(0.05 * rng.standard_normal((4, 3))))
    g0 = SE3.make(rng.uniform(-2, 2, (4, 3)), Q0)
    cfg = ScenarioConfig(
        group="se3", n_agents=4, controller="se3_steering_linear",
        control=ControlSetting.se3_steering(), graph=graph, t_end=30.0, h=1e-3,
        seed=0, init=InitSpec(kind="explicit", g0=g0),
    )
    traj = run(cfg)
    forward = SE3.rotation(traj.g[-1])[:, :, 0]
    spread = max(np.linalg.norm(forward[j] - forward[k])
                 for j in range(4) for k in range(4))
    assert spread < 1e-6
    assert check_coordination(traj, "lic", window=2.0, tol=1e-3).achieved
