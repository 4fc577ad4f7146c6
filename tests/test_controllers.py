"""Control laws: consensus RHS, cascades, projections, steering, compatibility."""

import numpy as np
import pytest

from liecoord import controllers
from liecoord.controllers import (
    CONTROLLERS,
    ControlSetting,
    ControllerError,
    build_controller,
    check_sign_condition,
    compatibility_check,
    double_bracket_field,
    helical_body_velocity,
    lic_consensus_rhs,
    lyapunov_gradient_vector,
    ric_consensus_rhs,
    se3_steering_consensus_helical_rhs,
    se3_steering_consensus_linear_rhs,
    se3_steering_control,
    tc_left_cascade_rhs,
    tc_right_cascade_rhs,
    underactuated_lic_rhs,
)
from liecoord.analysis import generate_tc_configuration
from liecoord import graphs
from liecoord.graphs import CommGraph
from liecoord.groups import GROUPS, SE2, SE3, SO3, cross3, matvec, so3_exp
from liecoord.simulator import (
    ScenarioConfig, SwarmState, metric_traces, run, write_trajectory_csv,
)

from helpers import same_bits

E1, E2, E3 = np.eye(3)


def _pair_cost(A, x, half=False):
    d = x[:, None, :] - x[None, :, :]
    val = float(np.einsum("kj,kji->", A, d * d))
    return 0.5 * val if half else val


# ---------------------------------------------------------------------------
# control settings and projection
# ---------------------------------------------------------------------------

def test_control_setting_validates_orthonormal_columns():
    with pytest.raises(ControllerError):
        ControlSetting(np.zeros(3), np.array([[1.0], [1.0], [0.0]]))
    with pytest.raises(ControllerError):
        ControlSetting(np.zeros(2), np.eye(3))


def test_project_idempotent_on_feasible_set():
    cs = ControlSetting.se3_steering()
    rng = np.random.default_rng(0)
    u = rng.standard_normal(3)
    eta = cs.a + cs.B @ u
    assert np.allclose(cs.project(eta), eta)
    assert cs.contains(eta)


def test_project_se3_steering_form():
    cs = ControlSetting.se3_steering()
    eta = np.array([0.3, -0.2, 0.8, 0.1, 0.5, -0.7])
    out = cs.project(eta)
    assert np.allclose(out, np.concatenate([E1, eta[3:]]))


def test_project_fully_actuated_is_identity():
    cs = ControlSetting.fully(6)
    rng = np.random.default_rng(1)
    eta = rng.standard_normal((4, 6))
    assert np.allclose(cs.project(eta), eta)


def test_project_minimizes_distance():
    cs = ControlSetting.se2_steering()
    rng = np.random.default_rng(2)
    eta = rng.standard_normal(3)
    best = np.linalg.norm(eta - cs.project(eta))
    for _ in range(200):
        other = cs.a + cs.B @ rng.standard_normal(1)
        assert np.linalg.norm(eta - other) >= best - 1e-12


# ---------------------------------------------------------------------------
# plain consensus
# ---------------------------------------------------------------------------

def test_ric_consensus_fixed_point_and_example():
    graph = CommGraph.complete(2)
    xi = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = ric_consensus_rhs(xi, graph)
    assert np.allclose(out, [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    same = np.tile(np.array([0.2, -0.1, 0.4]), (5, 1))
    assert np.allclose(ric_consensus_rhs(same, CommGraph.ring(5)), 0.0)


def test_ric_consensus_preserves_average_on_undirected():
    rng = np.random.default_rng(3)
    xi = rng.standard_normal((6, 3))
    out = ric_consensus_rhs(xi, CommGraph.ring(6))
    assert np.allclose(out.sum(axis=0), 0.0, atol=1e-12)


def test_lic_consensus_reduces_to_ric_at_common_position():
    rng = np.random.default_rng(4)
    graph = CommGraph.complete(4)
    xi = SE3.random_algebra(rng, 4)
    g = np.broadcast_to(SE3.random(rng), (4, 4, 4)).copy()
    lic = lic_consensus_rhs(SE3, g, xi, graph)
    ric = ric_consensus_rhs(xi, graph)
    assert np.max(np.abs(lic - ric)) < 1e-12


def test_lic_consensus_vanishes_at_equal_spatial_velocity():
    rng = np.random.default_rng(5)
    graph = CommGraph.complete(3)
    g = SE2.random(rng, 3)
    xi_r_common = SE2.random_algebra(rng)
    xi = SE2.adjoint(SE2.inverse(g), np.broadcast_to(xi_r_common, (3, 3)))
    out = lic_consensus_rhs(SE2, g, xi, graph)
    assert np.max(np.abs(out)) < 1e-12


def test_lic_consensus_matches_spatial_route():
    # integrating the body form vs integrating spatial consensus directly
    rng = np.random.default_rng(6)
    graph = CommGraph.ring(3)
    h, steps = 1e-3, 2000
    g_a = SO3.random(rng, 3)
    xi_a = SO3.random_algebra(rng, 3)
    g_b, xi_r_b = g_a.copy(), SO3.adjoint(g_a, xi_a)
    for _ in range(steps):
        dxi = lic_consensus_rhs(SO3, g_a, xi_a, graph)
        g_a = SO3.compose(g_a, SO3.exp(h * xi_a))
        xi_a = xi_a + h * dxi
        xi_l_b = SO3.adjoint(SO3.inverse(g_b), xi_r_b)
        g_b = SO3.compose(g_b, SO3.exp(h * xi_l_b))
        xi_r_b = xi_r_b + h * ric_consensus_rhs(xi_r_b, graph)
    gap_g = np.max(np.abs(SO3.embed(g_a) - SO3.embed(g_b)))
    gap_xi = np.max(np.abs(SO3.adjoint(g_a, xi_a) - xi_r_b))
    assert gap_g < 50 * h
    assert gap_xi < 50 * h


# ---------------------------------------------------------------------------
# total-coordination cascades
# ---------------------------------------------------------------------------

def test_tc_right_cascade_fixed_point():
    # coordinated configuration with a common auxiliary velocity: no motion of
    # the auxiliary state and pure open-loop flight
    from liecoord.analysis import generate_tc_configuration

    rng = np.random.default_rng(7)
    xi = np.array([0.4, -0.2, 0.9])
    g = generate_tc_configuration(SO3, xi, 4, rng)
    eta = np.tile(xi, (4, 1))
    out_xi, deta = tc_right_cascade_rhs(SO3, g, eta, CommGraph.path(4))
    assert np.max(np.abs(out_xi - eta)) < 1e-9
    assert np.max(np.abs(deta)) < 1e-9


def test_tc_right_cascade_so3_example():
    graph = CommGraph.complete(2)
    g = np.stack([np.eye(3), np.eye(3)])
    eta = np.stack([E1, E2])
    xi, _ = tc_right_cascade_rhs(SO3, g, eta, graph)
    # q_1 = eta_1 x (eta_1 - eta_2) = e1 x (e1 - e2) = -e3
    assert np.allclose(xi[0] - eta[0], -E3)
    assert np.allclose(xi[1] - eta[1], E3)


@pytest.mark.parametrize("group", [SO3, SE2, SE3], ids=lambda g: g.name)
def test_tc_right_frozen_reference_keeps_vtr_descending(group):
    rng = np.random.default_rng(8)
    graph = CommGraph.ring(4)
    A = graph.in_matrix()
    xi_r = group.random_algebra(rng)
    g = group.random(rng, 4)
    h, steps = 1e-3, 3000
    ctrl = build_controller("tc_right_frozen", group, params={"xi_r": xi_r})
    vals = []
    state = SwarmState(0.0, g, {})
    for _ in range(steps):
        out = ctrl.output(state, graph)
        eta = ctrl.eta(state)
        vals.append(_pair_cost(A, eta, half=True))
        state = SwarmState(state.t + h, group.compose(state.g, group.exp(h * out.xi)), {})
    vals = np.array(vals)
    assert np.max(np.diff(vals)) <= 10 * h * h
    assert vals[-1] < 1e-2 * vals[0]


def test_tc_right_cascade_with_zero_position_control_preserves_vtr():
    # dropping q freezes the distance-from-coordination cost
    rng = np.random.default_rng(9)
    graph = CommGraph.ring(3)
    A = graph.in_matrix()
    xi_r = np.array([0.3, -0.8, 0.5])
    g = SO3.random(rng, 3)
    h, steps = 1e-3, 2000
    vals = []
    for _ in range(steps):
        eta = SO3.adjoint(SO3.inverse(g), np.broadcast_to(xi_r, (3, 3)))
        vals.append(_pair_cost(A, eta, half=True))
        g = SO3.compose(g, SO3.exp(h * eta))  # xi = eta, q = 0
    vals = np.array(vals)
    assert np.max(np.abs(vals - vals[0])) < 1e-9


def test_tc_right_cascade_consensus_equivalence_invariant():
    # the auxiliary update in body coordinates tracks plain consensus of the
    # spatial auxiliaries within integrator accuracy
    rng = np.random.default_rng(10)
    graph = CommGraph.ring(4)
    g = SO3.random(rng, 4)
    eta = SO3.random_algebra(rng, 4)
    eta_r_direct = SO3.adjoint(g, eta)
    h, steps = 1e-3, 3000
    for _ in range(steps):
        xi, deta = tc_right_cascade_rhs(SO3, g, eta, graph)
        g = SO3.compose(g, SO3.exp(h * xi))
        eta = eta + h * deta
        eta_r_direct = eta_r_direct + h * ric_consensus_rhs(eta_r_direct, graph)
    gap = np.max(np.abs(SO3.adjoint(g, eta) - eta_r_direct))
    assert gap < 100 * h


def test_tc_left_cascade_matches_so3_closed_form():
    rng = np.random.default_rng(11)
    graph = CommGraph.complete(2)
    g = np.stack([np.eye(3), so3_exp(np.pi / 2 * E3)])
    eta = np.stack([E1, E1])
    xi, deta = tc_left_cascade_rhs(SO3, g, eta, graph)
    # closed form: xi_k = eta_k + eta_k x (sum_j Q_k^T Q_j eta_j)
    for k in range(2):
        acc = np.zeros(3)
        for j in range(2):
            if j != k:
                acc += g[k].T @ g[j] @ eta[j]
        assert np.allclose(xi[k], eta[k] + np.cross(eta[k], acc), atol=1e-14)
    # auxiliary consensus is the plain vector-space one
    assert np.allclose(deta, ric_consensus_rhs(eta, graph))
    # random states too
    g = SO3.random(rng, 5)
    eta = SO3.random_algebra(rng, 5)
    graph5 = CommGraph.ring(5)
    xi, _ = tc_left_cascade_rhs(SO3, g, eta, graph5)
    A = graph5.in_matrix()
    for k in range(5):
        acc = sum(A[k, j] * (g[k].T @ g[j] @ eta[j]) for j in range(5))
        assert np.allclose(xi[k], eta[k] + np.cross(eta[k], acc), atol=1e-12)


def test_tc_left_cascade_average_preserved():
    rng = np.random.default_rng(12)
    eta = SO3.random_algebra(rng, 6)
    _, deta = tc_left_cascade_rhs(SO3, SO3.random(rng, 6), eta, CommGraph.ring(6))
    assert np.allclose(deta.sum(axis=0), 0.0, atol=1e-12)


def test_tc_left_cascade_underactuated_stays_feasible():
    rng = np.random.default_rng(13)
    cs = ControlSetting.so3_two_axis(drift=True)
    graph = CommGraph.complete(3)
    g = SO3.random(rng, 3)
    eta = cs.a + rng.standard_normal((3, 1)) @ cs.B.T
    xi, deta = tc_left_cascade_rhs(SO3, g, eta, graph, cs=cs)
    assert np.max(np.linalg.norm(xi - cs.project(xi), axis=-1)) < 1e-12
    # the auxiliary derivative stays tangent to C
    assert np.max(np.abs(deta - deta @ cs.B @ cs.B.T)) < 1e-12


@pytest.mark.parametrize("name, group, cs, params, bad", [
    ("tc_right_frozen", SO3, None, {"xi_rr": np.zeros(3)}, "xi_rr"),
    ("underactuated_lic", SE2, ControlSetting.se2_steering(), {"monitor_tol": 1e-3},
     "monitor_tol"),
    ("underactuated_lic", SE2, ControlSetting.se2_steering(), {"freeze_aux": 1.0}, "freeze_aux"),
    ("tc_left_cascade", SO3, None, {"freeze_aux": 1.0}, "freeze_aux"),
    ("zero", SE3, None, {"xi": np.zeros(6)}, "xi"),
])
def test_build_controller_rejects_unknown_params(name, group, cs, params, bad):
    with pytest.raises(ControllerError, match=bad) as err:
        build_controller(name, group, cs=cs, params=params)
    if name == "tc_right_frozen":
        assert "allowed: ['xi_r']" in str(err.value)      # the allowed keys are listed


@pytest.mark.parametrize("name, group, cs, params, bad", [
    ("constant", SE2, None, {"xi": np.array([1.0, 0.0])}, "xi"),
    ("constant", SO3, None, {"xi": "fast"}, "xi"),
    ("tc_right_frozen", SE3, None, {"xi_r": 1.0}, "xi_r"),
    ("tc_right_frozen", SO3, None, {"xi_r": "fast"}, "xi_r"),
    ("constant", SE3, None, {"xi": {}}, "xi"),
])
def test_build_controller_rejects_bad_param_values(name, group, cs, params, bad):
    with pytest.raises(ControllerError, match=f"parameter {bad} must be an algebra vector "
                                              f"of length {group.dim}, got"):
        build_controller(name, group, cs=cs, params=params)


@pytest.mark.parametrize("name, group, cs", [
    ("tc_left_cascade", SO3, ControlSetting.se3_steering()),
    ("underactuated_lic", SE3, ControlSetting.so3_two_axis()),
    ("constant", SE2, ControlSetting.fully(6)),
    ("zero", SE3, ControlSetting.se2_steering()),
])
def test_build_controller_rejects_a_control_setting_of_the_wrong_size(name, group, cs):
    with pytest.raises(ControllerError) as err:
        build_controller(name, group, cs=cs)
    msg = str(err.value)
    assert msg.startswith(name) and f"dimension {cs.n}," in msg
    assert f"{group.name} has algebra dimension {group.dim}" in msg


def test_tc_left_controller_rejects_infeasible_initial_aux():
    cs = ControlSetting.so3_two_axis(drift=True)
    ctrl = build_controller("tc_left_cascade", SO3, cs=cs)
    g0 = np.stack([np.eye(3)] * 2)
    with pytest.raises(ControllerError):
        ctrl.validate_initial(g0, {"eta": np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])})


def test_tc_left_cascade_frozen_aux_descends_vtl():
    rng = np.random.default_rng(14)
    graph = CommGraph.ring(4)
    A = graph.in_matrix()
    g = SO3.random(rng, 4)
    eta = SO3.random_algebra(rng, 4)
    h, steps = 1e-3, 3000
    vals = []
    for _ in range(steps):
        xi, _ = tc_left_cascade_rhs(SO3, g, eta, graph)
        vals.append(_pair_cost(A, SO3.adjoint(g, eta), half=True))
        g = SO3.compose(g, SO3.exp(h * xi))
    vals = np.array(vals)
    assert np.max(np.diff(vals)) <= 10 * h * h
    # the limit is not zero in general (the frozen eta_k keep distinct norms),
    # but the cost must come down
    assert vals[-1] < 0.5 * vals[0]


# ---------------------------------------------------------------------------
# double-bracket flow
# ---------------------------------------------------------------------------

def test_double_bracket_zero_at_agreement():
    eta = np.tile(np.array([0.3, 0.1, -0.2]), (4, 1))
    out = double_bracket_field(SO3, eta, CommGraph.complete(4))
    assert np.allclose(out, 0.0)


def test_double_bracket_so3_example():
    out = double_bracket_field(SO3, np.stack([E1, E2]), CommGraph.complete(2))
    # [e1, [e1, e1 - e2]] = [e1, -e3] = e2 and [e2, [e2, e2 - e1]] = [e2, e3] = e1
    assert np.allclose(out, np.stack([E2, E1]))


def test_double_bracket_orthogonal_to_state():
    rng = np.random.default_rng(15)
    graph = CommGraph.ring(5)
    eta = SO3.random_algebra(rng, 5)
    out = double_bracket_field(SO3, eta, graph)
    assert np.max(np.abs(np.einsum("ki,ki->k", out, eta))) < 1e-12


def test_double_bracket_matches_frozen_right_cascade():
    # with the spatial auxiliary pinned, the induced body-auxiliary velocity
    # is exactly the double-bracket field
    rng = np.random.default_rng(16)
    graph = CommGraph.complete(3)
    xi_r = np.array([0.6, -0.1, 0.8])
    g = SO3.random(rng, 3)
    ctrl = build_controller("tc_right_frozen", SO3, params={"xi_r": xi_r})
    h = 1e-3
    state = SwarmState(0.0, g, {})
    for _ in range(200):
        out = ctrl.output(state, graph)
        eta = ctrl.eta(state)
        induced = -SO3.bracket(out.xi, eta)
        flow = double_bracket_field(SO3, eta, graph)
        assert np.max(np.abs(induced - flow)) < 1e-10
        state = SwarmState(state.t + h, SO3.compose(state.g, SO3.exp(h * out.xi)), {})


def test_double_bracket_flow_conserves_norms():
    rng = np.random.default_rng(17)
    graph = CommGraph.ring(4)
    eta = SO3.random_algebra(rng, 4)
    norms0 = np.linalg.norm(eta, axis=-1)
    h = 1e-3
    for _ in range(5000):
        k1 = double_bracket_field(SO3, eta, graph)
        k2 = double_bracket_field(SO3, eta + 0.5 * h * k1, graph)
        k3 = double_bracket_field(SO3, eta + 0.5 * h * k2, graph)
        k4 = double_bracket_field(SO3, eta + h * k3, graph)
        eta = eta + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(np.linalg.norm(eta, axis=-1) - norms0)) < 1e-6


# ---------------------------------------------------------------------------
# underactuated coordination
# ---------------------------------------------------------------------------

def test_underactuated_vanishes_on_feasible_aux():
    rng = np.random.default_rng(18)
    cs = ControlSetting.se3_steering()
    graph = CommGraph.complete(3)
    g = SE3.random(rng, 3)
    eta = cs.a + rng.standard_normal((3, 3)) @ cs.B.T
    xi, _, s = underactuated_lic_rhs(SE3, g, eta, graph, cs=cs)
    assert np.max(np.abs(lyapunov_gradient_vector(SE3, eta, cs))) < 1e-12
    assert np.max(np.abs(xi - eta)) < 1e-12
    assert np.max(np.abs(s)) < 1e-12


def test_underactuated_se3_steering_gradient_formula():
    cs = ControlSetting.se3_steering()
    rng = np.random.default_rng(19)
    eta = rng.standard_normal((5, 6))
    f = lyapunov_gradient_vector(SE3, eta, cs)
    assert np.allclose(f, np.cross(eta[:, :3], np.tile(E1, (5, 1))), atol=1e-14)
    # u = eta_w + e1 x eta_v; spot value for eta_v = e2
    eta1 = np.concatenate([E2, np.array([0.4, -0.3, 0.2])])
    xi, _, _ = underactuated_lic_rhs(
        SE3, SE3.identity_like(1), eta1[None], CommGraph.empty(1), cs=cs
    )
    assert np.allclose(xi[0, 3:], eta1[3:] + E3)
    assert np.allclose(xi[0, :3], E1)
    assert np.allclose(se3_steering_control(eta1[None, :3], eta1[None, 3:]),
                       (eta1[3:] + E3)[None])


def test_underactuated_output_always_feasible():
    rng = np.random.default_rng(20)
    cs = ControlSetting.se3_steering()
    graph = CommGraph.ring(4)
    g = SE3.random(rng, 4)
    eta = SE3.random_algebra(rng, 4, scale=2.0)
    xi, _, _ = underactuated_lic_rhs(SE3, g, eta, graph, cs=cs)
    assert np.max(np.linalg.norm(xi - cs.project(xi), axis=-1)) < 1e-12


def test_underactuated_gradient_matches_lyapunov_finite_difference():
    # f(eta) . q equals the directional derivative of V along g exp(eps B q)
    rng = np.random.default_rng(21)
    cs = ControlSetting.se3_steering()
    xi_r = SE3.random_algebra(rng)
    for _ in range(20):
        g = SE3.random(rng)
        q = rng.standard_normal(3)
        eps = 1e-6

        def vk(gg):
            eta = SE3.adjoint(SE3.inverse(gg), xi_r)
            r = eta - cs.project(eta)
            return 0.5 * float(r @ r)

        move = SE3.exp(eps * (cs.B @ q))
        fd = (vk(SE3.compose(g, move)) - vk(SE3.compose(g, SE3.inverse(move)))) / (2 * eps)
        eta0 = SE3.adjoint(SE3.inverse(g), xi_r)
        f = lyapunov_gradient_vector(SE3, eta0, cs)
        assert abs(fd - float(f @ q)) < 1e-6


def test_underactuated_vk_decreases_like_gradient_norm():
    # fixed spatial reference: finite-differenced V_k tracks -||f||^2
    rng = np.random.default_rng(22)
    cs = ControlSetting.se3_steering()
    xi_r = np.array([0.9, 0.2, -0.3, 0.0, 0.0, 0.0])
    g = SE3.random(rng, 1)
    h, steps = 1e-3, 400
    vals, grads = [], []
    for _ in range(steps):
        eta = SE3.adjoint(SE3.inverse(g), np.broadcast_to(xi_r, (1, 6)))
        f = lyapunov_gradient_vector(SE3, eta, cs)
        resid = eta - cs.project(eta)
        vals.append(0.5 * float(np.einsum("ki,ki->", resid, resid)))
        grads.append(float(np.einsum("ki,ki->", f, f)))
        xi = cs.project(eta) - f @ cs.B.T
        g = SE3.compose(g, SE3.exp(h * xi))
    fd = np.diff(vals) / h
    assert np.max(np.abs(fd + np.array(grads[:-1]))) < 50 * h


def test_sign_condition_always_equality_on_so3():
    # the bracket output is orthogonal to both arguments on rotations, so the
    # monitored quantity vanishes for every actuation there
    rng = np.random.default_rng(23)
    for cs in (ControlSetting.so3_two_axis(), ControlSetting.so3_two_axis(drift=True),
               ControlSetting(np.array([1.0, 0.0, 0.0]), np.array([[0.0], [1.0], [0.0]]))):
        check = check_sign_condition(SO3, cs, samples=500, rng=rng)
        assert check.verdict == "equality"


def test_assumption_monitor_fires_on_crafted_violation():
    # mixing a linear and an angular direction in one control column under a
    # double drift breaks the sign condition
    b = np.zeros((6, 1))
    b[1, 0] = b[5, 0] = 1.0 / np.sqrt(2.0)
    cs = ControlSetting(np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]), b)
    check = check_sign_condition(SE3, cs, samples=2000, rng=np.random.default_rng(23))
    assert check.verdict == "violated"
    assert check.witness is not None
    # recompute the witness value
    eta = check.witness
    pi = cs.project(eta)
    val = float((eta - pi) @ SE3.bracket(eta, pi))
    assert val > 0

    ctrl = build_controller("underactuated_lic", SE3, cs=cs)
    state = SwarmState(0.0, SE3.random(np.random.default_rng(24), 3),
                       {"eta": np.tile(eta, (3, 1))})
    out = ctrl.output(state, CommGraph.complete(3))
    assert any(kind == "assumption_violation" for kind, _, _ in out.events)


def test_sign_condition_equality_cases():
    rng = np.random.default_rng(25)
    se3 = check_sign_condition(SE3, ControlSetting.se3_steering(), samples=3000, rng=rng)
    assert se3.verdict == "equality"
    full = check_sign_condition(SO3, ControlSetting.fully(3), samples=500, rng=rng)
    assert full.verdict == "equality"


def test_sign_condition_diagnostic_on_double_drift():
    # drift in both the linear and angular slots: no ground truth, just make
    # sure the diagnostic runs and classifies consistently
    a = np.zeros(6)
    a[0] = 1.0
    a[3] = 1.0
    B = np.zeros((6, 3))
    B[3:, :] = np.eye(3)
    check = check_sign_condition(SE3, ControlSetting(a, B), samples=2000,
                                 rng=np.random.default_rng(26))
    assert check.verdict in ("equality", "holds", "violated")
    if check.verdict == "violated":
        assert check.witness is not None


def _sign_quantity(group, cs, eta):
    pi = cs.project(eta)
    return np.einsum("kn,kn->k", eta - pi, group.bracket(eta, pi))


def _random_setting(rng, n, m, drift=True):
    B = np.linalg.qr(rng.standard_normal((n, m)))[0]
    return ControlSetting(rng.standard_normal(n) if drift else np.zeros(n), B)


def test_sign_condition_on_so3_is_a_triple_product_of_coplanar_vectors():
    rng = np.random.default_rng(29)
    for m in (1, 2, 3):
        cs = _random_setting(rng, 3, m)
        eta = 3.0 * rng.standard_normal((200, 3))
        pi = cs.project(eta)
        s = _sign_quantity(SO3, cs, eta)
        assert np.allclose(s, np.linalg.det(np.stack([eta, pi, eta - pi], axis=-2)),
                           rtol=0.0, atol=1e-12)
        assert np.max(np.abs(s)) <= controllers.SIGN_TOL
        assert check_sign_condition(SO3, cs, samples=500, rng=rng).verdict == "equality"


@pytest.mark.parametrize("group", [SO3, SE2, SE3], ids=lambda g: g.name)
def test_sign_condition_without_drift_is_odd_so_it_never_holds(group):
    rng = np.random.default_rng(30)
    for m in range(1, group.dim + 1):
        cs = _random_setting(rng, group.dim, m, drift=False)
        eta = group.adjoint(group.random(rng, 200), rng.standard_normal((200, m)) @ cs.B.T)
        assert np.array_equal(_sign_quantity(group, cs, -eta), -_sign_quantity(group, cs, eta))
        verdict = check_sign_condition(group, cs, samples=2000, rng=rng).verdict
        assert verdict != "holds"
        if group is SO3 or m == group.dim:      # fully actuated: P(eta) = eta
            assert verdict == "equality"


def test_sign_condition_without_drift_on_se3_is_violated_both_ways():
    B = np.zeros((6, 2))
    B[0, 0] = B[3, 1] = 1.0                         # (e1, e4): a forward and a roll axis
    check = check_sign_condition(SE3, ControlSetting(np.zeros(6), B), samples=10_000)
    assert check.verdict == "violated"
    assert check.max_value > 1.0 and check.min_value < -1.0


def test_the_monitor_and_the_check_share_the_sign_threshold(monkeypatch):
    # the crafted violation of test_assumption_monitor_fires_on_crafted_violation,
    # below a threshold raised to twice its largest sampled value
    b = np.zeros((6, 1))
    b[1, 0] = b[5, 0] = 1.0 / np.sqrt(2.0)
    cs = ControlSetting(np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]), b)
    check = check_sign_condition(SE3, cs, samples=2000, rng=np.random.default_rng(23))
    ctrl = build_controller("underactuated_lic", SE3, cs=cs)
    state = SwarmState(0.0, SE3.random(np.random.default_rng(24), 3),
                       {"eta": np.tile(check.witness, (3, 1))})
    monkeypatch.setattr(controllers, "SIGN_TOL", 2.0 * check.max_value)
    assert ctrl.output(state, CommGraph.complete(3)).events == []
    again = check_sign_condition(SE3, cs, samples=2000, rng=np.random.default_rng(23))
    assert again.verdict != "violated" and again.max_value == check.max_value


# ---------------------------------------------------------------------------
# steering consensus variants
# ---------------------------------------------------------------------------

def test_steering_linear_single_agent_turn():
    g = SE3.identity_like(1)
    out = se3_steering_consensus_linear_rhs(
        g, E1[None], CommGraph.empty(1), u=E3[None]
    )
    assert np.allclose(out, -E2[None])


def test_steering_linear_fixed_point():
    rng = np.random.default_rng(27)
    Q = SO3.random(rng)
    g = SE3.make(np.zeros((3, 3)), np.broadcast_to(Q, (3, 3, 3)).copy())
    eta_v = np.tile([0.2, -0.5, 0.1], (3, 1))
    out = se3_steering_consensus_linear_rhs(g, eta_v, CommGraph.complete(3), u=np.zeros((3, 3)))
    assert np.max(np.abs(out)) < 1e-12


def test_steering_linear_spatial_images_run_plain_consensus():
    # Q_k eta_k picks up exactly the consensus field, whatever u does
    rng = np.random.default_rng(28)
    graph = CommGraph.ring(4)
    g = SE3.random(rng, 4)
    eta_v = rng.standard_normal((4, 3))
    u = rng.standard_normal((4, 3))
    Q = SE3.rotation(g)
    deta = se3_steering_consensus_linear_rhs(g, eta_v, graph, u=u)
    # d/dt (Q_k eta_k) = Q_k (u_k x eta_k) + Q_k deta_k
    spatial_rate = np.einsum("kij,kj->ki", Q, np.cross(u, eta_v) + deta)
    expect = ric_consensus_rhs(np.einsum("kij,kj->ki", Q, eta_v), graph)
    assert np.max(np.abs(spatial_rate - expect)) < 1e-12


def _framed_consensus(A, deg, x, M, M_inv):
    """sum_j A[k, j] (M_k^-1 M_j x_j - x_k) with explicit matrix frames M, M_inv."""
    return matvec(M_inv, A @ matvec(M, x)) - deg[:, None] * x


_PINNED_CASES = [
    pytest.param(CommGraph.complete(3), (), id="complete3"),
    pytest.param(CommGraph.ring(5), (), id="ring5"),
    pytest.param(CommGraph.ring(4), (2,), id="ring4-b2"),
]


@pytest.mark.parametrize("graph, batch", _PINNED_CASES)
@pytest.mark.parametrize("cs", [None, ControlSetting.so3_two_axis(drift=True)],
                         ids=["full", "two-axis"])
def test_so3_tc_left_cascade_equals_the_framed_form_bitwise(graph, batch, cs):
    # pins the so3-basin trajectories: SO(3) transports by the rotation matrix itself
    rng = np.random.default_rng(31)
    n = graph.n
    g = so3_exp(rng.standard_normal(batch + (n, 3)))
    eta = rng.standard_normal(batch + (n, 3))
    if cs is not None:
        eta = cs.project(eta)
    A, deg = graph.in_terms(0.0)
    own = deg[:, None] * eta
    transported = matvec(np.swapaxes(g, -1, -2), A @ matvec(g, eta))
    q = SO3.pairing(eta, own - transported)
    if cs is not None:
        q = cs.project_range(q)
    xi, deta = tc_left_cascade_rhs(SO3, g, eta, graph, cs=cs)
    assert same_bits(xi, eta + q)
    assert same_bits(deta, A @ eta - own)


@pytest.mark.parametrize("graph, batch", _PINNED_CASES)
def test_se3_steering_rhs_equal_the_framed_form_bitwise(graph, batch):
    # pins the steer-se3 trajectories: the steering laws transport by the rotation block
    rng = np.random.default_rng(32)
    n = graph.n
    g = SE3.exp(rng.standard_normal(batch + (n, 6)))
    alpha, beta, gamma, u = rng.standard_normal((4,) + batch + (n, 3))
    A, deg = graph.in_terms(0.0)
    Q, r = g[..., :3, :3], g[..., :3, 3]
    frames = (Q, np.swapaxes(Q, -1, -2))
    linear = se3_steering_consensus_linear_rhs(g, alpha, graph, u=u)
    assert same_bits(linear, _framed_consensus(A, deg, alpha, *frames) - cross3(u, alpha))
    da, db, dg = se3_steering_consensus_helical_rhs(g, alpha, beta, gamma, graph, u=u)
    assert same_bits(da, _framed_consensus(A, deg, alpha, *frames) - cross3(u, alpha))
    assert same_bits(db, _framed_consensus(A, deg, beta, *frames)
                     + matvec(frames[1], A @ r - deg[:, None] * r) - E1 - cross3(u, beta))
    assert same_bits(dg, _framed_consensus(A, deg, gamma, *frames) - cross3(u, gamma))


def _helical_three_sums_reference(g, alpha, beta, gamma, graph, u):
    """The helical law as three separate transported sums and cross products,
    one per component, as it was written before the stacked form."""
    A, deg = graph.in_terms(0.0)
    Q, r = SE3.rotation(g), SE3.position(g)
    dalpha = _framed_consensus(A, deg, alpha, Q, SO3.inverse(Q)) - cross3(u, alpha)
    dbeta = (_framed_consensus(A, deg, beta, Q, SO3.inverse(Q))
             + SO3.adjoint_inv(Q, A @ r - deg[:, None] * r) - E1 - cross3(u, beta))
    dgamma = _framed_consensus(A, deg, gamma, Q, SO3.inverse(Q)) - cross3(u, gamma)
    return dalpha, dbeta, dgamma


@pytest.mark.parametrize("n, batch", [(4, ()), (4, (3,)), (64, ())])
def test_stacked_helical_sum_equals_three_separate_sums(n, batch):
    # bytes at the 4 agents of every steering scenario; 1e-12 at 64 agents on a
    # random directed graph, where the matmul may block its columns otherwise
    rng = np.random.default_rng(33)
    edges = [(j, k) for j in range(n) for k in range(n) if j != k and rng.random() < 0.3]
    graph = CommGraph.static(n, edges)
    g = SE3.exp(rng.standard_normal(batch + (n, 6)))
    alpha, beta, gamma, u = rng.standard_normal((4,) + batch + (n, 3))
    got = se3_steering_consensus_helical_rhs(g, alpha, beta, gamma, graph, u=u)
    want = _helical_three_sums_reference(g, alpha, beta, gamma, graph, u)
    for a, b in zip(got, want):
        if n <= 4:
            assert same_bits(a, b)
        else:
            assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _synchronized_helical_state(rng, n, v_bar=None, w_bar=None):
    g = SE3.random(rng, n)
    Q, r = SE3.rotation(g), SE3.position(g)
    v_bar = rng.standard_normal(3) if v_bar is None else v_bar
    w_bar = rng.standard_normal(3) if w_bar is None else w_bar
    Qt = np.swapaxes(Q, -1, -2)
    alpha = np.einsum("kij,j->ki", Qt, w_bar)
    beta = -np.einsum("kij,kj->ki", Qt, r)
    gamma = np.einsum("kij,j->ki", Qt, v_bar)
    return g, alpha, beta, gamma, v_bar, w_bar


def test_steering_helical_single_agent_example():
    g = SE3.identity_like(1)
    da, db, dg = se3_steering_consensus_helical_rhs(
        g, E3[None], np.zeros((1, 3)), E1[None], CommGraph.empty(1), u=np.zeros((1, 3))
    )
    assert np.allclose(da, 0.0)
    assert np.allclose(db, -E1[None])
    assert np.allclose(dg, 0.0)


def test_steering_helical_synchronized_state_is_stationary():
    # at a synchronized state the spatial auxiliaries stop moving
    rng = np.random.default_rng(29)
    graph = CommGraph.complete(4)
    g, alpha, beta, gamma, v_bar, w_bar = _synchronized_helical_state(rng, 4)
    eta = helical_body_velocity(alpha, beta, gamma)
    eta_r = SE3.adjoint(g, eta)
    assert np.max(np.abs(eta_r - np.concatenate([v_bar, w_bar]))) < 1e-12

    u = se3_steering_control(eta[:, :3], eta[:, 3:])
    da, db, dg = se3_steering_consensus_helical_rhs(g, alpha, beta, gamma, graph, u=u)
    deta = np.concatenate(
        [dg + np.cross(db, alpha) + np.cross(beta, da), da], axis=-1
    )
    xi = np.concatenate([np.tile(E1, (4, 1)), u], axis=-1)
    # d/dt eta^r = Ad_g (deta + [xi, eta]) must vanish
    rate = SE3.adjoint(g, deta + SE3.bracket(xi, eta))
    assert np.max(np.abs(rate)) < 1e-11


def test_steering_helical_rhs_left_invariant():
    rng = np.random.default_rng(30)
    graph = CommGraph.ring(3)
    g = SE3.random(rng, 3)
    alpha, beta, gamma = (rng.standard_normal((3, 3)) for _ in range(3))
    u = rng.standard_normal((3, 3))
    base = se3_steering_consensus_helical_rhs(g, alpha, beta, gamma, graph, u=u)
    h0 = SE3.random(rng)
    shifted = se3_steering_consensus_helical_rhs(
        SE3.compose(h0, g), alpha, beta, gamma, graph, u=u
    )
    for b, s in zip(base, shifted):
        assert np.max(np.abs(b - s)) < 1e-9


# ---------------------------------------------------------------------------
# compatibility checks
# ---------------------------------------------------------------------------

def test_compatibility_trivial_at_common_position():
    rng = np.random.default_rng(31)
    g0 = SE3.random(rng)
    g = np.broadcast_to(g0, (3, 4, 4)).copy()
    cs = ControlSetting.se3_steering()
    assert compatibility_check(SE3, g, cs, mode="lic").all()
    assert compatibility_check(SE3, g, cs, mode="tc").all()


def test_compatibility_se2_translation_sector_is_abelian():
    # equal headings, translation-only controls: adjoint acts trivially on C
    rng = np.random.default_rng(32)
    cs = ControlSetting(np.zeros(3), np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    r = rng.standard_normal((4, 2))
    g = SE2.make(r, np.full(4, 0.7))
    assert compatibility_check(SE2, g, cs, mode="lic").all()
    assert compatibility_check(SE2, g, cs, mode="tc").all()


def test_compatibility_se2_steering_circle():
    # two agents on the common circle of the turning velocity are compatible;
    # pushing one radially off the circle breaks it
    rng = np.random.default_rng(33)
    cs = ControlSetting.se2_steering()
    w0 = 0.8
    xi = np.array([1.0, 0.0, w0])
    for _ in range(10):
        s = rng.uniform(0.5, 2.5)
        g_k = SE2.random(rng)
        m = SE2.exp(s * xi)
        g_j = SE2.compose(g_k, m)
        g = np.stack([g_j, g_k])
        assert compatibility_check(SE2, g, cs, mode="lic").all()
        assert compatibility_check(SE2, g, cs, mode="tc").all()
        # radial perturbation of the relative position
        center = np.array([0.0, 1.0 / w0])
        radial = (m[:2] - center) / np.linalg.norm(m[:2] - center)
        m_off = SE2.make(m[:2] + 1e-2 * radial, m[2])
        g_off = np.stack([SE2.compose(g_k, m_off), g_k])
        assert not compatibility_check(SE2, g_off, cs, mode="lic")[0, 1]
        assert not compatibility_check(SE2, g_off, cs, mode="tc")[0, 1]



def _compatibility_by_pair_loop(group, g, cs, mode, tol=1e-8):
    """The former form of compatibility_check: one lstsq per ordered pair."""
    n = g.shape[0]
    out = np.eye(n, dtype=bool)
    for k in range(n):
        for j in range(n):
            if j == k:
                continue
            M = group.adjoint_matrix(group.left_relative(g[k], g[j]))
            rhs = M @ cs.a - cs.a
            X = np.hstack([cs.B, -M @ cs.B]) if mode == "lic" else cs.B - M @ cs.B
            sol, *_ = np.linalg.lstsq(X, rhs, rcond=None)
            out[j, k] = np.linalg.norm(X @ sol - rhs) <= tol
    return out


# every group and control setting the tests use
COMPATIBILITY_SETTINGS = [
    ("so3-fully", SO3, ControlSetting.fully(3)),
    ("so3-two-axis", SO3, ControlSetting.so3_two_axis()),
    ("so3-two-axis-drift", SO3, ControlSetting.so3_two_axis(drift=True)),
    ("se2-fully", SE2, ControlSetting.fully(3)),
    ("se2-steering", SE2, ControlSetting.se2_steering()),
    ("se2-translation", SE2, ControlSetting(np.zeros(3), np.eye(3)[:, :2])),
    ("se3-fully", SE3, ControlSetting.fully(6)),
    ("se3-steering", SE3, ControlSetting.se3_steering()),
]


@pytest.mark.parametrize("mode", ["lic", "tc"])
@pytest.mark.parametrize("name, group, cs", COMPATIBILITY_SETTINGS,
                         ids=[c[0] for c in COMPATIBILITY_SETTINGS])
def test_stacked_compatibility_matches_the_pair_loop(name, group, cs, mode):
    rng = np.random.default_rng(34)
    xi = cs.a + cs.B @ rng.standard_normal(cs.m)
    coordinated = generate_tc_configuration(group, xi, 6, rng)
    mixed = coordinated.copy()
    mixed[2] = group.random(rng)
    assert compatibility_check(group, coordinated, cs, mode).all()
    for g in (group.random(rng, 6), coordinated, mixed, coordinated[:1]):
        want = _compatibility_by_pair_loop(group, g, cs, mode)
        np.testing.assert_array_equal(compatibility_check(group, g, cs, mode), want)

# ---------------------------------------------------------------------------
# the controller table
# ---------------------------------------------------------------------------

_UNDERACTUATED = {
    "so3": ControlSetting.so3_two_axis(drift=True),
    "se2": ControlSetting.se2_steering(),
    "se3": ControlSetting.se3_steering(),
}


def _run_args(name, group):
    """Control setting and parameters a spec needs; the others run bare."""
    if name == "constant":
        return None, {"xi": np.linspace(0.1, 0.5, group.dim)}
    if name == "tc_right_frozen":
        return None, {"xi_r": np.linspace(-0.3, 0.7, group.dim)}
    if name in ("underactuated_lic", "tc_left_cascade"):
        return _UNDERACTUATED[group.name], {}
    return None, {}


_SPEC_CASES = [
    (name, group_name)
    for name, spec in CONTROLLERS.items()
    for group_name in spec.groups
]


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("name, group_name", _SPEC_CASES)
def test_every_spec_runs_with_its_declared_aux_shapes(name, group_name, integrator):
    group = GROUPS[group_name]
    cs, params = _run_args(name, group)
    cfg = ScenarioConfig(group=group_name, n_agents=3, controller=name, control=cs,
                         controller_params=params, graph=CommGraph.ring(3),
                         t_end=0.02, h=1e-3, seed=4, record_every=5,
                         aux_integrator=integrator)
    traj = run(cfg)
    assert traj.completed and len(traj.times) == 5
    assert traj.xi.shape == (5, 3, group.dim)
    spec = CONTROLLERS[name]
    assert {f: v.shape for f, v in traj.aux.items()} == {
        f: (5, 3, group.dim if dim is None else dim) for f, dim, _ in spec.aux
    }
    for v in (traj.g, traj.xi, *traj.aux.values()):
        assert np.all(np.isfinite(v))


@pytest.mark.parametrize("name, group_name", _SPEC_CASES)
def test_every_spec_runs_on_a_stacked_batch(name, group_name):
    group = GROUPS[group_name]
    cs, params = _run_args(name, group)
    _check_stacked_batch(build_controller(name, group, cs=cs, params=params), group)


@pytest.mark.parametrize("name, group_name", _SPEC_CASES)
def test_every_spec_exports_unique_column_names(tmp_path, name, group_name):
    cs, params = _run_args(name, GROUPS[group_name])
    cfg = ScenarioConfig(group=group_name, n_agents=3, controller=name, control=cs,
                         controller_params=params, graph=CommGraph.ring(3),
                         t_end=0.02, h=1e-2, seed=4)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(run(cfg), path)
    header = path.read_text().splitlines()[0].split(",")
    assert len(set(header)) == len(header), header


def test_stacked_underactuated_lic_reports_member_events():
    # the crafted sign-condition violation of
    # test_assumption_monitor_fires_on_crafted_violation fires in a member
    b = np.zeros((6, 1))
    b[1, 0] = b[5, 0] = 1.0 / np.sqrt(2.0)
    cs = ControlSetting(np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]), b)
    events = _check_stacked_batch(build_controller("underactuated_lic", SE3, cs=cs), SE3)
    assert events and all(kind == "assumption_violation" for kind, _, _ in events)


def _check_stacked_batch(ctrl, group):
    """A (2, N, ...) state gives each member's (N, ...) output, and the
    members' events in member order; returns the batch events."""
    rng = np.random.default_rng(35)
    n = 4
    graph = CommGraph(n, [(0.0, [(0, 1), (1, 2), (2, 0), (3, 0), (1, 3)]),
                          (0.5, [(0, 3), (3, 2)])], period=1.0)
    g = group.random(rng, 2 * n).reshape((2, n) + group.element_shape)
    aux0 = ctrl.default_aux(g, rng)
    ctrl.validate_initial(g, aux0)
    assert all(v.shape == (2, n, ctrl.aux_dims[f]) for f, v in aux0.items())
    aux = {f: rng.standard_normal(v.shape) for f, v in aux0.items()}

    def close(batch, ref):
        assert batch.shape == ref.shape
        assert np.all(np.abs(batch - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    all_events = []
    for t in (0.2, 0.7):
        state = SwarmState(t, g, aux)
        out = ctrl.output(state, graph)
        eta = ctrl.eta_for_metrics(state)
        events = []
        for b in range(2):
            member = SwarmState(t, g[b], {f: v[b] for f, v in aux.items()})
            ref = ctrl.output(member, graph)
            events += ref.events
            close(out.xi[b], ref.xi)
            assert out.aux_dot.keys() == ref.aux_dot.keys()
            for f in ref.aux_dot:
                close(out.aux_dot[f][b], ref.aux_dot[f])
            ref_eta = ctrl.eta_for_metrics(member)
            assert (eta is None) == (ref_eta is None)
            if ref_eta is not None:
                close(eta[b], ref_eta)
        assert out.events == events
        all_events += events
    return all_events


# ---------------------------------------------------------------------------
# the two forms of the in-matrix: the laws on an EdgeSum and on the dense matrix
# ---------------------------------------------------------------------------

def _random_directed(n, p, seed):
    rng = np.random.default_rng(seed)
    return [(j, k) for j in range(n) for k in range(n) if j != k and rng.random() < p]


_FORM_GRAPHS = {
    # in-degree 2 everywhere: the forms agree bit for bit
    "ring300": lambda: CommGraph.ring(300),
    # in-degrees 0 to 6, and an empty segment
    "directed12-scheduled": lambda: CommGraph(
        12, [(0.0, _random_directed(12, 0.3, 37)), (0.5, [(0, 3), (3, 2)]), (0.8, [])],
        period=1.0),
}


def _in_form(monkeypatch, make, edges):
    """The graph that make builds, with every segment summed in the edge form
    or in the dense form."""
    monkeypatch.setattr(graphs, "EDGE_MIN_AGENTS", 1 if edges else 1 << 30)
    monkeypatch.setattr(graphs, "EDGE_FILL", 1)
    return make()


def _same_or_close(got, want, bitwise):
    assert got.shape == want.shape
    if bitwise:
        assert same_bits(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("batch", [(), (2,)], ids=["single", "batch2"])
@pytest.mark.parametrize("graph_name", sorted(_FORM_GRAPHS))
@pytest.mark.parametrize("name, group_name", _SPEC_CASES)
def test_every_law_on_edge_sums_equals_the_dense_form(monkeypatch, name, group_name,
                                                      graph_name, batch):
    group = GROUPS[group_name]
    cs, params = _run_args(name, group)
    ctrl = build_controller(name, group, cs=cs, params=params)
    make = _FORM_GRAPHS[graph_name]
    rng = np.random.default_rng(36)
    n = make().n
    g = group.random(rng, int(np.prod(batch, dtype=int)) * n).reshape(
        batch + (n,) + group.element_shape)
    aux = {f: rng.standard_normal(v.shape) for f, v in ctrl.default_aux(g, rng).items()}
    forms = {}
    for edges in (True, False):
        graph = _in_form(monkeypatch, make, edges)
        assert isinstance(graph.in_terms(0.0)[0], graphs.EdgeSum) == edges
        forms[edges] = []
        for t in (0.2, 0.6, 0.9):
            state = SwarmState(t, g, aux)
            out = ctrl.output(state, graph)
            eta = ctrl.eta_for_metrics(state)
            metrics = {} if batch else metric_traces(group, g, out.xi, eta, graph, t, cs=ctrl.cs)
            forms[edges].append((out, metrics, max(graph.in_terms(t)[1], default=0.0)))
    for (got, got_metrics, top), (want, want_metrics, _) in zip(forms[True], forms[False]):
        bitwise = top <= 2
        _same_or_close(got.xi, want.xi, bitwise)
        assert got.aux_dot.keys() == want.aux_dot.keys() and got.events == want.events
        for f in want.aux_dot:
            _same_or_close(got.aux_dot[f], want.aux_dot[f], bitwise)
        assert got_metrics.keys() == want_metrics.keys()
        for key in want_metrics:
            _same_or_close(np.asarray(got_metrics[key]), np.asarray(want_metrics[key]), bitwise)


@pytest.mark.parametrize("group_name, name, graph_name", [
    ("se3", "lic_consensus", "ring300"),
    ("so3", "tc_left_cascade", "directed12-scheduled"),
])
def test_a_run_on_edge_sums_equals_the_dense_run(monkeypatch, group_name, name, graph_name):
    trajs = []
    for edges in (True, False):
        graph = _in_form(monkeypatch, _FORM_GRAPHS[graph_name], edges)
        trajs.append(run(ScenarioConfig(group=group_name, n_agents=graph.n, controller=name,
                                        graph=graph, t_end=2e-2, h=1e-3, seed=6,
                                        record_every=5)))
    got, want = trajs
    bitwise = graph_name == "ring300"
    for a, b in ((got.g, want.g), (got.xi, want.xi), *zip(got.aux.values(), want.aux.values())):
        _same_or_close(a, b, bitwise)
    for key in want.metrics:
        _same_or_close(got.metrics[key], want.metrics[key], bitwise)


# ---------------------------------------------------------------------------
# typed input errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: ControlSetting(np.array([np.nan, 0.0, 0.0]), np.eye(3)), "must be finite"),
    (lambda: compatibility_check(SO3, SO3.identity_like(2), ControlSetting.fully(3),
                                 mode="ric"),
     "unknown mode 'ric'"),
    (lambda: build_controller("ric_consensus", SE2).validate_initial(SE2.identity_like(3), {}),
     "missing auxiliary state 'xi'"),
    (lambda: build_controller("ric_consensus", SE2).validate_initial(
        SE2.identity_like(3), {"xi": np.zeros((2, 3))}), "has shape"),
    (lambda: build_controller("tc_right_cascade", SO3,
                              cs=ControlSetting(np.zeros(3), np.eye(3)[:, :2])),
     "needs fully actuated agents"),
    (lambda: build_controller("underactuated_lic", SO3), "needs a control setting"),
    (lambda: build_controller("tc_right_frozen", SO3), "needs parameter xi_r"),
    (lambda: build_controller("no_such_law", SO3), "unknown controller 'no_such_law'"),
    (lambda: check_sign_condition(SE2, ControlSetting.se2_steering(), samples=0),
     "samples: must be >= 1"),
    (lambda: check_sign_condition(SE2, ControlSetting.se2_steering(), samples=1.5),
     "samples: must be an integer, not 1.5"),
], ids=["non-finite-setting", "compatibility-mode", "missing-aux", "misshaped-aux",
        "underactuated", "no-control-setting", "no-xi_r", "unknown-name", "no-samples",
        "fractional-samples"])
def test_controller_input_errors_are_typed(call, message):
    with pytest.raises(ControllerError, match=message):
        call()
