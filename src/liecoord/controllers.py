"""Control laws mapping swarm state and graph to per-agent body velocities.

Every law is a pure right-hand-side function: it returns the commanded
left-invariant velocities xi (N, n) and the time derivatives of any auxiliary
variables, without integrating anything.  Neighbour sums are dense products
with the in-matrix and in-degrees from CommGraph.in_terms: at every swarm size
benchmarked (4 to 256 agents) the matmul costs less than a scatter-add
(np.add.at) over the edge list, and its fixed summation order keeps results
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lie import matvec
from .groups import SE3


class ControllerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# control setting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlSetting:
    """Affine actuation xi = a + B u with orthonormal columns of B.

    The feasible set C = {a + B u : u in R^m}; fully actuated means m = n.
    """

    a: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or a.shape != (B.shape[0],):
            raise ControllerError(f"shape mismatch: a {a.shape}, B {B.shape}")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(B)):
            raise ControllerError("control setting must be finite")
        if np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) > 1e-12:
            raise ControllerError("columns of B must be orthonormal")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "B", B)

    @property
    def n(self):
        return self.B.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def fully_actuated(self):
        return self.m == self.n

    def project(self, eta):
        """Orthogonal projection of eta onto the affine set C."""
        eta = np.asarray(eta, dtype=float)
        return self.a + np.einsum("im,...m->...i", self.B, np.einsum("jm,...j->...m", self.B, eta - self.a))

    def controls_of(self, xi):
        """Recover u from xi = a + B u (least squares if xi is off C)."""
        return np.einsum("jm,...j->...m", self.B, np.asarray(xi, dtype=float) - self.a)

    def contains(self, eta, tol=1e-9):
        eta = np.asarray(eta, dtype=float)
        return bool(np.max(np.linalg.norm(eta - self.project(eta), axis=-1)) <= tol)

    # -- common settings --------------------------------------------------------

    @classmethod
    def fully(cls, dim):
        return cls(np.zeros(dim), np.eye(dim))

    @classmethod
    def se2_steering(cls):
        """Unit forward speed, steered turn rate: xi = (e1, u)."""
        return cls(np.array([1.0, 0.0, 0.0]), np.array([[0.0], [0.0], [1.0]]))

    @classmethod
    def se3_steering(cls):
        """Unit body-frame forward speed, full angular control: xi = (e1, u)."""
        B = np.zeros((6, 3))
        B[3:, :] = np.eye(3)
        return cls(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), B)

    @classmethod
    def so3_two_axis(cls, drift=False):
        """Rotations about body axes e1, e2 only; optionally e1 at a fixed rate."""
        if drift:
            return cls(np.array([1.0, 0.0, 0.0]), np.array([[0.0], [1.0], [0.0]]))
        return cls(np.zeros(3), np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))


def project_to_C(eta, cs):
    """Projection onto the feasible set of a control setting."""
    return cs.project(eta)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def ric_consensus_rhs(xi, graph, t=0.0):
    """Vector-space consensus on the body velocities: dxi_k = sum_j (xi_j - xi_k)."""
    xi = np.asarray(xi, dtype=float)
    A, deg = graph.in_terms(t)
    return A @ xi - deg[:, None] * xi


def lic_consensus_rhs(group, g, xi, graph, t=0.0):
    """Consensus on the spatial velocities, written in body coordinates.

    dxi_k = sum_j (Ad_{g_k^-1 g_j} xi_j - xi_k); the induced spatial
    velocities Ad_{g_k} xi_k then satisfy plain consensus.
    """
    xi = np.asarray(xi, dtype=float)
    A, deg = graph.in_terms(t)
    xi_r = group.adjoint(g, xi)
    pulled = group.adjoint(group.inverse(g), A @ xi_r)
    return pulled - deg[:, None] * xi


def _transported_sum(group, g, eta, A):
    """sum_j A[k, j] Ad_{g_k^-1 g_j} eta_j for every agent k."""
    eta_r = group.adjoint(g, eta)
    return group.adjoint(group.inverse(g), A @ eta_r)


def tc_right_cascade_rhs(group, g, eta, graph, t=0.0):
    """Cascade tracking a consensual spatial reference velocity.

    Position control q_k = -<eta_k, sum_j (eta_k - eta_j)> shrinks the
    disagreement of the eta_k; the auxiliary consensus runs on the spatial
    counterparts, which in body coordinates needs the bracket correction
    deta_k = sum_j (Ad_{g_k^-1 g_j} eta_j - eta_k) - [xi_k, eta_k].
    Fully actuated agents only.  Returns (xi, deta).
    """
    eta = np.asarray(eta, dtype=float)
    A, deg = graph.in_terms(t)
    disagree = deg[:, None] * eta - A @ eta
    q = -group.pairing(eta, disagree)
    xi = eta + q
    deta = _transported_sum(group, g, eta, A) - deg[:, None] * eta - group.bracket(xi, eta)
    return xi, deta


def tc_left_cascade_rhs(group, g, eta, graph, t=0.0, cs=None):
    """Cascade agreeing on a body reference velocity, meant for groups with a
    norm-preserving adjoint.

    Auxiliary consensus deta_k = sum_j (eta_j - eta_k); position control
    q_k = <eta_k, sum_j (eta_k - Ad_{g_k^-1 g_j} eta_j)>.  With a control
    setting, q is replaced by its projection onto the range of B and every
    eta_k must start inside C.  Returns (xi, deta).
    """
    eta = np.asarray(eta, dtype=float)
    A, deg = graph.in_terms(t)
    disagree = deg[:, None] * eta - _transported_sum(group, g, eta, A)
    q = group.pairing(eta, disagree)
    if cs is not None and not cs.fully_actuated:
        q = np.einsum("im,...m->...i", cs.B, np.einsum("jm,...j->...m", cs.B, q))
    xi = eta + q
    deta = A @ eta - deg[:, None] * eta
    return xi, deta


def double_bracket_rhs(group, eta_k, eta_neighbors):
    """deta_k = [eta_k, [eta_k, sum_j (eta_k - eta_j)]] for one agent."""
    eta_k = np.asarray(eta_k, dtype=float)
    nbrs = np.asarray(eta_neighbors, dtype=float).reshape(-1, eta_k.shape[-1])
    s = len(nbrs) * eta_k - nbrs.sum(axis=0)
    return group.bracket(eta_k, group.bracket(eta_k, s))


def double_bracket_field(group, eta, graph, t=0.0):
    """Double-bracket flow of all agents at once."""
    eta = np.asarray(eta, dtype=float)
    A, deg = graph.in_terms(t)
    s = deg[:, None] * eta - A @ eta
    return group.bracket(eta, group.bracket(eta, s))


def lyapunov_gradient_vector(group, eta, cs):
    """f with f(eta) . q = (eta - P(eta)) . [eta, B q] for all q, columnwise."""
    eta = np.asarray(eta, dtype=float)
    resid = eta - cs.project(eta)
    cols = group.bracket(eta[..., None, :], cs.B.T)  # [..., i, :] = [eta, b_i]
    return np.einsum("...mn,...n->...m", cols, resid)


def underactuated_lic_rhs(group, g, eta, graph, t=0.0, cs=None):
    """Feasible-velocity coordination of underactuated agents.

    xi_k = P_C(eta_k) + B q_k with q_k = -f(eta_k); the auxiliary variables
    follow the spatial consensus in body coordinates.  Returns
    (xi, deta, s) where s[k] = (eta_k - P(eta_k)) . [eta_k, P(eta_k)] is the
    monitored sign condition (must stay <= 0 for the Lyapunov argument).
    """
    if cs is None:
        raise ControllerError("underactuated coordination needs a control setting")
    eta = np.asarray(eta, dtype=float)
    A, deg = graph.in_terms(t)
    pi = cs.project(eta)
    resid = eta - pi
    q = -lyapunov_gradient_vector(group, eta, cs)
    xi = pi + np.einsum("im,...m->...i", cs.B, q)
    deta = _transported_sum(group, g, eta, A) - deg[:, None] * eta - group.bracket(xi, eta)
    s = np.einsum("...n,...n->...", resid, group.bracket(eta, pi))
    return xi, deta, s


@dataclass(frozen=True)
class SignConditionCheck:
    verdict: str  # "equality", "holds" or "violated"
    max_value: float
    min_value: float
    witness: np.ndarray | None = None


def check_sign_condition(group, cs, samples=10_000, rng=None, tol=1e-9, pos_scale=2.0,
                         control_scale=1.0):
    """Monte-Carlo classification of (eta - P(eta)) . [eta, P(eta)] over the
    orbit O_C = {Ad_g (a + B u)}.

    Returns "equality" when the quantity vanishes on all samples, "holds"
    when it is nonpositive, and "violated" with a witness otherwise.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    g = group.random(rng, samples, pos_scale=pos_scale)
    u = control_scale * rng.standard_normal((samples, cs.m))
    eta = group.adjoint(g, cs.a + u @ cs.B.T)
    pi = cs.project(eta)
    s = np.einsum("kn,kn->k", eta - pi, group.bracket(eta, pi))
    hi, lo = float(np.max(s)), float(np.min(s))
    if max(abs(hi), abs(lo)) <= tol:
        return SignConditionCheck("equality", hi, lo)
    if hi <= tol:
        return SignConditionCheck("holds", hi, lo)
    return SignConditionCheck("violated", hi, lo, witness=eta[int(np.argmax(s))])


# ---------------------------------------------------------------------------
# steering control on SE(3)
# ---------------------------------------------------------------------------

_E1 = np.array([1.0, 0.0, 0.0])


def se3_steering_control(eta_v, eta_w):
    """Turn-rate command u_k = eta_w + e1 x eta_v of the steering law."""
    return eta_w + np.cross(_E1, eta_v)


def se3_steering_consensus_linear_rhs(g, eta_v, graph, t=0.0, u=None):
    """Straight-motion consensus for steering control (angular part held zero):

    deta_v,k = sum_j (Q_k^T Q_j eta_v,j - eta_v,k) - u_k x eta_v,k
    so the spatial images Q_k eta_v,k run plain consensus.
    """
    eta_v = np.asarray(eta_v, dtype=float)
    A, deg = graph.in_terms(t)
    Q = SE3.rotation(g)
    spatial = matvec(Q, eta_v)
    pulled = matvec(np.swapaxes(Q, -1, -2), A @ spatial)
    out = pulled - deg[:, None] * eta_v
    if u is not None:
        out = out - np.cross(np.asarray(u, dtype=float), eta_v)
    return out


def se3_steering_consensus_helical_rhs(g, alpha, beta, gamma, graph, t=0.0, u=None):
    """Helical-motion consensus on the three embedding components.

    dalpha_k = sum_j (Q_k^T Q_j alpha_j - alpha_k) - u_k x alpha_k
    dbeta_k  = sum_j (Q_k^T Q_j beta_j - beta_k + Q_k^T (r_j - r_k)) - u_k x beta_k - e1
    dgamma_k = sum_j (Q_k^T Q_j gamma_j - gamma_k) - u_k x gamma_k

    The body velocity is reconstructed as eta = (gamma + beta x alpha, alpha).
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    A, deg = graph.in_terms(t)
    Q = SE3.rotation(g)
    Qt = np.swapaxes(Q, -1, -2)
    r = SE3.position(g)

    def transported(x):
        return matvec(Qt, A @ matvec(Q, x)) - deg[:, None] * x

    dalpha = transported(alpha)
    dbeta = transported(beta) + matvec(Qt, A @ r - deg[:, None] * r) - _E1
    dgamma = transported(gamma)
    if u is not None:
        u = np.asarray(u, dtype=float)
        dalpha = dalpha - np.cross(u, alpha)
        dbeta = dbeta - np.cross(u, beta)
        dgamma = dgamma - np.cross(u, gamma)
    return dalpha, dbeta, dgamma


def helical_body_velocity(alpha, beta, gamma):
    """eta = (gamma + beta x alpha, alpha) from the helical components."""
    return np.concatenate([gamma + np.cross(beta, alpha), alpha], axis=-1)


# ---------------------------------------------------------------------------
# compatibility of relative positions with the actuation (equilibrium checks)
# ---------------------------------------------------------------------------

def compatibility_check(group, g, cs, mode="lic", tol=1e-8):
    """Pairwise feasibility of coordinated equilibria.

    mode "lic": for each pair (j, k), do controls u_j, u_k exist with
    Ad_{lambda_jk} (a + B u_j) = a + B u_k?  mode "tc": same with a single
    common control u.  Returns a boolean (N, N) matrix (diagonal True).
    """
    if mode not in ("lic", "tc"):
        raise ControllerError(f"unknown mode {mode!r}")
    g = group.require_element(g)
    n_agents = g.shape[0]
    out = np.eye(n_agents, dtype=bool)
    for k in range(n_agents):
        for j in range(n_agents):
            if j == k:
                continue
            lam = group.left_relative(g[k], g[j])
            M = group.adjoint_matrix(lam)
            rhs = M @ cs.a - cs.a
            if mode == "lic":
                X = np.hstack([cs.B, -M @ cs.B])
            else:
                X = cs.B - M @ cs.B
            sol, *_ = np.linalg.lstsq(X, rhs, rcond=None)
            out[j, k] = np.linalg.norm(X @ sol - rhs) <= tol
    return out


# ---------------------------------------------------------------------------
# controller objects for the simulator
# ---------------------------------------------------------------------------

@dataclass
class ControllerOutput:
    xi: np.ndarray
    aux_dot: dict[str, np.ndarray] = field(default_factory=dict)
    events: list[tuple[str, int, str]] = field(default_factory=list)  # (kind, agent, detail)


class Controller:
    """Base controller: stateless; auxiliary variables live in the swarm state."""

    name = "abstract"
    aux_fields = ()  # names of auxiliary per-agent vectors

    def __init__(self, group, cs=None, params=None):
        self.group = group
        self.cs = cs
        self.params = dict(params or {})

    def aux_dim(self, name):
        return self.group.dim

    def default_aux(self, g0, rng, scale=1.0):
        """Initial auxiliary variables when the scenario gives none."""
        n_agents = g0.shape[0]
        return {name: self.group.random_algebra(rng, n_agents, scale)
                for name in self.aux_fields}

    def validate_initial(self, g0, aux0):
        for name in self.aux_fields:
            if name not in aux0:
                raise ControllerError(f"{self.name}: missing auxiliary state {name!r}")
            want = (g0.shape[0], self.aux_dim(name))
            if aux0[name].shape != want:
                raise ControllerError(
                    f"{self.name}: auxiliary {name!r} has shape {aux0[name].shape}, expected {want}"
                )

    def eta_for_metrics(self, state):
        """Auxiliary velocity used by the coordination cost traces (or None)."""
        return state.aux.get("eta")

    def output(self, state, graph):
        raise NotImplementedError


class ZeroController(Controller):
    name = "zero"

    def output(self, state, graph):
        n_agents = state.g.shape[0]
        return ControllerOutput(np.zeros((n_agents, self.group.dim)))


class ConstantController(Controller):
    """Open-loop flight at a fixed body velocity (shared or per-agent)."""

    name = "constant"

    def __init__(self, group, cs=None, params=None):
        super().__init__(group, cs, params)
        xi = np.asarray(self.params.get("xi", np.zeros(group.dim)), dtype=float)
        self.xi = xi

    def output(self, state, graph):
        n_agents = state.g.shape[0]
        return ControllerOutput(np.broadcast_to(self.xi, (n_agents, self.group.dim)).copy())


class RicConsensusController(Controller):
    name = "ric_consensus"
    aux_fields = ("xi",)

    def eta_for_metrics(self, state):
        return None

    def output(self, state, graph):
        xi = state.aux["xi"]
        return ControllerOutput(xi.copy(), {"xi": ric_consensus_rhs(xi, graph, state.t)})


class LicConsensusController(Controller):
    name = "lic_consensus"
    aux_fields = ("xi",)

    def eta_for_metrics(self, state):
        return None

    def output(self, state, graph):
        xi = state.aux["xi"]
        dxi = lic_consensus_rhs(self.group, state.g, xi, graph, state.t)
        return ControllerOutput(xi.copy(), {"xi": dxi})


class TcRightCascadeController(Controller):
    name = "tc_right_cascade"
    aux_fields = ("eta",)

    def __init__(self, group, cs=None, params=None):
        super().__init__(group, cs, params)
        if cs is not None and not cs.fully_actuated:
            raise ControllerError("tc_right_cascade needs fully actuated agents")
        self.freeze_aux = bool(self.params.get("freeze_aux", False))

    def output(self, state, graph):
        xi, deta = tc_right_cascade_rhs(self.group, state.g, state.aux["eta"], graph, state.t)
        if self.freeze_aux:
            deta = np.zeros_like(deta)
        return ControllerOutput(xi, {"eta": deta})


class TcRightFrozenReferenceController(Controller):
    """Position-control stage alone: the spatial reference velocity is pinned.

    eta_k is not integrated; it is recomputed as Ad_{g_k}^-1 xi_r at every
    call, so the auxiliary consensus is replaced by its exact limit.
    """

    name = "tc_right_frozen"

    def __init__(self, group, cs=None, params=None):
        super().__init__(group, cs, params)
        if "xi_r" not in self.params:
            raise ControllerError("tc_right_frozen needs parameter xi_r")
        self.xi_r = np.asarray(self.params["xi_r"], dtype=float)

    def eta(self, state):
        return self.group.adjoint(self.group.inverse(state.g), self.xi_r)

    def eta_for_metrics(self, state):
        return self.eta(state)

    def output(self, state, graph):
        eta = self.eta(state)
        A, deg = graph.in_terms(state.t)
        disagree = deg[:, None] * eta - A @ eta
        q = -self.group.pairing(eta, disagree)
        return ControllerOutput(eta + q)


class TcLeftCascadeController(Controller):
    name = "tc_left_cascade"
    aux_fields = ("eta",)

    def __init__(self, group, cs=None, params=None):
        super().__init__(group, cs, params)
        self.freeze_aux = bool(self.params.get("freeze_aux", False))

    def default_aux(self, g0, rng, scale=1.0):
        eta = self.group.random_algebra(rng, g0.shape[0], scale)
        if self.cs is not None and not self.cs.fully_actuated:
            eta = self.cs.project(eta)
        return {"eta": eta}

    def validate_initial(self, g0, aux0):
        super().validate_initial(g0, aux0)
        if self.cs is not None and not self.cs.fully_actuated:
            if not self.cs.contains(aux0["eta"], tol=1e-9):
                raise ControllerError(
                    "underactuated tc_left_cascade requires eta(0) inside the feasible set"
                )

    def output(self, state, graph):
        xi, deta = tc_left_cascade_rhs(
            self.group, state.g, state.aux["eta"], graph, state.t, cs=self.cs
        )
        if self.freeze_aux:
            deta = np.zeros_like(deta)
        return ControllerOutput(xi, {"eta": deta})


class UnderactuatedLicController(Controller):
    name = "underactuated_lic"
    aux_fields = ("eta",)

    def __init__(self, group, cs=None, params=None):
        super().__init__(group, cs, params)
        if cs is None:
            raise ControllerError("underactuated_lic needs a control setting")
        self.monitor_tol = float(self.params.get("monitor_tol", 1e-9))

    def default_aux(self, g0, rng, scale=1.0):
        u = scale * rng.standard_normal((g0.shape[0], self.cs.m))
        return {"eta": self.cs.a + u @ self.cs.B.T}

    def output(self, state, graph):
        xi, deta, s = underactuated_lic_rhs(
            self.group, state.g, state.aux["eta"], graph, state.t, cs=self.cs
        )
        events = [
            ("assumption_violation", int(k), f"(eta-P(eta)).[eta,P(eta)] = {s[k]:.3e} > 0")
            for k in np.nonzero(s > self.monitor_tol)[0]
        ]
        return ControllerOutput(xi, {"eta": deta}, events)


class Se3SteeringLinearController(Controller):
    """Steering control with the angular auxiliary part held at zero."""

    name = "se3_steering_linear"
    aux_fields = ("eta_v",)

    def __init__(self, group, cs=None, params=None):
        super().__init__(group, cs or ControlSetting.se3_steering(), params)
        if group is not SE3:
            raise ControllerError("se3_steering_linear runs on SE(3) only")

    def aux_dim(self, name):
        return 3

    def default_aux(self, g0, rng, scale=1.0):
        return {"eta_v": np.broadcast_to(_E1, (g0.shape[0], 3)).copy()}

    def eta_for_metrics(self, state):
        eta_v = state.aux["eta_v"]
        return np.concatenate([eta_v, np.zeros_like(eta_v)], axis=-1)

    def output(self, state, graph):
        eta_v = state.aux["eta_v"]
        u = se3_steering_control(eta_v, np.zeros_like(eta_v))
        xi = np.concatenate([np.broadcast_to(_E1, eta_v.shape), u], axis=-1)
        deta = se3_steering_consensus_linear_rhs(state.g, eta_v, graph, state.t, u=u)
        return ControllerOutput(xi, {"eta_v": deta})


class Se3SteeringHelicalController(Controller):
    """Steering control with the three-component helical consensus."""

    name = "se3_steering_helical"
    aux_fields = ("alpha", "beta", "gamma")

    def __init__(self, group, cs=None, params=None):
        super().__init__(group, cs or ControlSetting.se3_steering(), params)
        if group is not SE3:
            raise ControllerError("se3_steering_helical runs on SE(3) only")

    def aux_dim(self, name):
        return 3

    def default_aux(self, g0, rng, scale=1.0):
        n_agents = g0.shape[0]
        return {
            "alpha": np.zeros((n_agents, 3)),
            "beta": np.zeros((n_agents, 3)),
            "gamma": np.broadcast_to(_E1, (n_agents, 3)).copy(),
        }

    def eta_for_metrics(self, state):
        return helical_body_velocity(state.aux["alpha"], state.aux["beta"], state.aux["gamma"])

    def output(self, state, graph):
        alpha, beta, gamma = state.aux["alpha"], state.aux["beta"], state.aux["gamma"]
        eta = helical_body_velocity(alpha, beta, gamma)
        u = se3_steering_control(eta[:, :3], eta[:, 3:])
        xi = np.concatenate([np.broadcast_to(_E1, (alpha.shape[0], 3)), u], axis=-1)
        da, db, dg = se3_steering_consensus_helical_rhs(
            state.g, alpha, beta, gamma, graph, state.t, u=u
        )
        return ControllerOutput(xi, {"alpha": da, "beta": db, "gamma": dg})


class VtGradientExperimentalController(Controller):
    """Combined velocity-disagreement gradient; experimental only.

    Descends the sum of the body- and spatial-velocity disagreement costs;
    observed to collapse to xi = 0, shipped for exploration with no
    convergence claim.
    """

    name = "experimental_vt_gradient"
    aux_fields = ("xi",)

    def eta_for_metrics(self, state):
        return None

    def output(self, state, graph):
        xi = state.aux["xi"]
        A, deg = graph.in_terms(state.t)
        plain = A @ xi - deg[:, None] * xi
        pulled = _transported_sum(self.group, state.g, xi, A) - deg[:, None] * xi
        return ControllerOutput(xi.copy(), {"xi": plain + pulled})


CONTROLLERS = {
    c.name: c
    for c in (
        ZeroController,
        ConstantController,
        RicConsensusController,
        LicConsensusController,
        TcRightCascadeController,
        TcRightFrozenReferenceController,
        TcLeftCascadeController,
        UnderactuatedLicController,
        Se3SteeringLinearController,
        Se3SteeringHelicalController,
        VtGradientExperimentalController,
    )
}


def build_controller(name, group, cs=None, params=None):
    try:
        cls = CONTROLLERS[name]
    except KeyError:
        raise ControllerError(
            f"unknown controller {name!r}; choose from {sorted(CONTROLLERS)}"
        ) from None
    return cls(group, cs=cs, params=params)
