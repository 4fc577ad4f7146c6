"""Control laws mapping swarm state and graph to per-agent body velocities.

Every law is a pure right-hand-side function: it returns the commanded
left-invariant velocities xi (N, n) and the time derivatives of any auxiliary
variables, without integrating anything.  All of them are built on one
neighbour sum over group actions, _neighbor_sum: the transported sum
sum_j A[k, j] Ad_{g_k^-1 g_j} x_j, computed as Ad_{g_k}^-1 sum_j A[k, j] Ad_{g_j} x_j
with the group's adjoint and adjoint_inv, or the plain sum sum_j A[k, j] x_j.
The group laws transport by their own group; the steering laws on SE(3) by
SO(3) acting through the rotation block Q of each pose.  The sum is A @ x
with the in-matrix A from CommGraph.in_terms: a sum over the sorted edges on
large sparse graphs, and a dense product on the others, where it is faster
(see graphs).  The two give the same bits where no agent has more than two
in-edges, as on rings, and agree to rounding otherwise.  Cross products
go through groups.cross3 rather than np.cross: the results are the same bit for
bit, and at a few agents np.cross costs several times more in call overhead
than the products themselves.

The right-hand sides take float arrays of the shapes the simulator builds and
check nothing: they call the group kernels (groups._adjoint, ...), and the
shapes are checked once, when a run is set up.  The helical steering law
stacks its three components along a new leading axis, so that one transported
sum and one cross product serve all three.  Each component is still summed
on its own (a matmul loops over the stack, and reduceat sums along the agent
axis alone), so the result is the same bit for bit; the stack is faster at
the 4 agents of the steering scenarios, slower at hundreds.

The simulator runs the laws through CONTROLLERS, one ControllerSpec per law,
which build_controller binds to a group, a control setting and parameters.
All shapes come from trailing axes, so a controller runs on (N, ...) state
and on stacked (B, N, ...) state alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .groups import GROUPS, SO3, c_einsum, cross3


class ControllerError(ValueError):
    pass


SIGN_TOL = 1e-9     # a sign-condition value (eta - P(eta)) . [eta, P(eta)] above it is > 0


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

    def project_range(self, v):
        """Orthogonal projection B B^T v of v onto the range of B."""
        return c_einsum("im,...m->...i", self.B, c_einsum("jm,...j->...m", self.B, v))

    def project(self, eta):
        """Orthogonal projection of eta onto the affine set C."""
        eta = np.asarray(eta, dtype=float)
        return self.a + self.project_range(eta - self.a)

    def contains(self, eta):
        eta = np.asarray(eta, dtype=float)
        return bool(np.max(np.linalg.norm(eta - self.project(eta), axis=-1)) <= 1e-9)

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


def _underactuated(cs):
    return cs is not None and not cs.fully_actuated


# ---------------------------------------------------------------------------
# neighbour sums
# ---------------------------------------------------------------------------

def _neighbor_sum(A, x, group=None, g=None):
    """sum_j A[k, j] x_j for every agent k; with a group and its elements g the
    transported sum sum_j A[k, j] Ad_{g_k^-1 g_j} x_j."""
    if group is None:
        return A @ x
    return group._adjoint_inv(g, A @ group._adjoint(g, x))


def _consensus(A, deg, x, group=None, g=None):
    """sum_j A[k, j] (x_j - x_k), transported by the group when given."""
    return _neighbor_sum(A, x, group, g) - deg[:, None] * x


def _disagreement(A, deg, x):
    """sum_j A[k, j] (x_k - x_j).

    Not written as -_consensus: where the two terms cancel exactly, the
    difference is +0.0 in either order, and negating it would give -0.0.
    """
    return deg[:, None] * x - _neighbor_sum(A, x)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def ric_consensus_rhs(xi, graph, t=0.0):
    """Vector-space consensus on the body velocities: dxi_k = sum_j (xi_j - xi_k)."""
    A, deg = graph.in_terms(t)
    return _consensus(A, deg, xi)


def lic_consensus_rhs(group, g, xi, graph, t=0.0):
    """Consensus on the spatial velocities, written in body coordinates.

    dxi_k = sum_j (Ad_{g_k^-1 g_j} xi_j - xi_k); the induced spatial
    velocities Ad_{g_k} xi_k then satisfy plain consensus.
    """
    A, deg = graph.in_terms(t)
    return _consensus(A, deg, xi, group, g)


def _tc_right_velocity(group, eta, A, deg):
    """xi = eta + q with the position control q_k = -<eta_k, sum_j (eta_k - eta_j)>."""
    q = -group._pairing(eta, _disagreement(A, deg, eta))
    return eta + q


def tc_right_cascade_rhs(group, g, eta, graph, t=0.0):
    """Cascade tracking a consensual spatial reference velocity.

    Position control q_k = -<eta_k, sum_j (eta_k - eta_j)> shrinks the
    disagreement of the eta_k; the auxiliary consensus runs on the spatial
    counterparts, which in body coordinates needs the bracket correction
    deta_k = sum_j (Ad_{g_k^-1 g_j} eta_j - eta_k) - [xi_k, eta_k].
    Fully actuated agents only.  Returns (xi, deta).
    """
    A, deg = graph.in_terms(t)
    xi = _tc_right_velocity(group, eta, A, deg)
    deta = _consensus(A, deg, eta, group, g) - group._bracket(xi, eta)
    return xi, deta


def tc_left_cascade_rhs(group, g, eta, graph, t=0.0, cs=None):
    """Cascade agreeing on a body reference velocity, meant for groups with a
    norm-preserving adjoint.

    Auxiliary consensus deta_k = sum_j (eta_j - eta_k); position control
    q_k = <eta_k, sum_j (eta_k - Ad_{g_k^-1 g_j} eta_j)>.  With a control
    setting, q is replaced by its projection onto the range of B and every
    eta_k must start inside C.  Returns (xi, deta).
    """
    A, deg = graph.in_terms(t)
    own = deg[:, None] * eta        # the deg-weighted term of both sums, computed once
    q = group._pairing(eta, own - _neighbor_sum(A, eta, group, g))
    if _underactuated(cs):
        q = cs.project_range(q)
    return eta + q, _neighbor_sum(A, eta) - own


def double_bracket_field(group, eta, graph, t=0.0):
    """Double-bracket flow deta_k = [eta_k, [eta_k, sum_j (eta_k - eta_j)]]."""
    A, deg = graph.in_terms(t)
    return group._bracket(eta, group._bracket(eta, _disagreement(A, deg, eta)))


def lyapunov_gradient_vector(group, eta, cs):
    """f with f(eta) . q = (eta - P(eta)) . [eta, B q] for all q, columnwise."""
    resid = eta - cs.project(eta)
    cols = group._bracket(eta[..., None, :], cs.B.T)  # [..., i, :] = [eta, b_i]
    return c_einsum("...mn,...n->...m", cols, resid)


def underactuated_lic_rhs(group, g, eta, graph, t=0.0, *, cs):
    """Feasible-velocity coordination of underactuated agents.

    xi_k = P_C(eta_k) + B q_k with q_k = -f(eta_k); the auxiliary variables
    follow the spatial consensus in body coordinates.  Returns
    (xi, deta, s) where s[k] = (eta_k - P(eta_k)) . [eta_k, P(eta_k)] is the
    monitored sign condition (must stay <= 0 for the Lyapunov argument).
    """
    A, deg = graph.in_terms(t)
    pi = cs.project(eta)
    resid = eta - pi
    q = -lyapunov_gradient_vector(group, eta, cs)
    xi = pi + c_einsum("im,...m->...i", cs.B, q)
    deta = _consensus(A, deg, eta, group, g) - group._bracket(xi, eta)
    s = c_einsum("...n,...n->...", resid, group._bracket(eta, pi))
    return xi, deta, s


@dataclass(frozen=True)
class SignConditionCheck:
    verdict: str  # "equality", "holds" or "violated"
    max_value: float
    min_value: float
    witness: np.ndarray | None = None


def check_sign_condition(group, cs, samples=10_000, rng=None):
    """Monte-Carlo classification of (eta - P(eta)) . [eta, P(eta)] over the
    orbit O_C = {Ad_g (a + B u)}.

    Returns "equality" when the quantity is within SIGN_TOL of 0 on all
    samples, "holds" when it is at most SIGN_TOL, and "violated" with a
    witness otherwise.

    On SO(3) the quantity is the triple product of the coplanar eta, P(eta)
    and eta - P(eta), so always "equality".  With a = 0 it is odd on the
    orbit, which holds -eta with eta: s(-eta) = -s(eta), so "holds" cannot
    occur on any group.  SE(2) and SE(3) with a != 0 are open.
    """
    if not isinstance(samples, (int, np.integer)):
        raise ControllerError(f"samples: must be an integer, not {samples!r}")
    if samples < 1:
        raise ControllerError(f"samples: must be >= 1, not {samples!r}")
    rng = np.random.default_rng(0) if rng is None else rng
    g = group.random(rng, samples, pos_scale=2.0)
    u = rng.standard_normal((samples, cs.m))
    eta = group.adjoint(g, cs.a + u @ cs.B.T)
    pi = cs.project(eta)
    s = np.einsum("kn,kn->k", eta - pi, group.bracket(eta, pi))
    hi, lo = float(np.max(s)), float(np.min(s))
    if max(abs(hi), abs(lo)) <= SIGN_TOL:
        return SignConditionCheck("equality", hi, lo)
    if hi <= SIGN_TOL:
        return SignConditionCheck("holds", hi, lo)
    return SignConditionCheck("violated", hi, lo, witness=eta[int(np.argmax(s))])


# ---------------------------------------------------------------------------
# steering control on SE(3)
# ---------------------------------------------------------------------------

_E1 = np.array([1.0, 0.0, 0.0])


def se3_steering_control(eta_v, eta_w):
    """Turn-rate command u_k = eta_w + e1 x eta_v of the steering law."""
    return eta_w + cross3(_E1, eta_v)


def se3_steering_consensus_linear_rhs(g, eta_v, graph, t=0.0, *, u):
    """Straight-motion consensus for steering control (angular part held zero):

    deta_v,k = sum_j (Q_k^T Q_j eta_v,j - eta_v,k) - u_k x eta_v,k
    so the spatial images Q_k eta_v,k run plain consensus.
    """
    A, deg = graph.in_terms(t)
    return _consensus(A, deg, eta_v, SO3, g[..., :3, :3]) - cross3(u, eta_v)


def se3_steering_consensus_helical_rhs(g, alpha, beta, gamma, graph, t=0.0, *, u):
    """Helical-motion consensus on the three embedding components.

    dalpha_k = sum_j (Q_k^T Q_j alpha_j - alpha_k) - u_k x alpha_k
    dbeta_k  = sum_j (Q_k^T Q_j beta_j - beta_k + Q_k^T (r_j - r_k)) - u_k x beta_k - e1
    dgamma_k = sum_j (Q_k^T Q_j gamma_j - gamma_k) - u_k x gamma_k

    The body velocity is reconstructed as eta = (gamma + beta x alpha, alpha).
    The three transported sums and cross products are taken once, on the
    components stacked along a new leading axis.
    """
    A, deg = graph.in_terms(t)
    Q = g[..., :3, :3]
    x = np.array([alpha, beta, gamma])     # np.stack's copy, without its Python-level checks
    d = _consensus(A, deg, x, SO3, Q)
    d[1] += SO3._adjoint_inv(Q, _consensus(A, deg, g[..., :3, 3]))
    d[1] -= _E1
    d -= cross3(u, x)
    return d[0], d[1], d[2]


def helical_body_velocity(alpha, beta, gamma):
    """eta = (gamma + beta x alpha, alpha) from the helical components."""
    return np.concatenate([gamma + cross3(beta, alpha), alpha], axis=-1)


# ---------------------------------------------------------------------------
# compatibility of relative positions with the actuation (equilibrium checks)
# ---------------------------------------------------------------------------

def compatibility_check(group, g, cs, mode="lic"):
    """Pairwise feasibility of coordinated equilibria.

    mode "lic": for each pair (j, k), do controls u_j, u_k exist with
    Ad_{lambda_jk} (a + B u_j) = a + B u_k?  mode "tc": same with a single
    common control u.  Returns a boolean (N, N) matrix (diagonal True).
    All ordered pairs are solved at once, in least squares through one
    stacked pseudo-inverse, with the singular-value cutoff of np.linalg.lstsq.
    """
    if mode not in ("lic", "tc"):
        raise ControllerError(f"unknown mode {mode!r}")
    g = group.require_element(g)
    n_agents = g.shape[0]
    j, k = np.nonzero(~np.eye(n_agents, dtype=bool))
    M = group.adjoint_matrix(group.left_relative(g[k], g[j]))
    rhs = M @ cs.a - cs.a
    MB = M @ cs.B
    if mode == "lic":
        X = np.concatenate([np.broadcast_to(cs.B, MB.shape), -MB], axis=-1)
    else:
        X = cs.B - MB
    sol = np.linalg.pinv(X, rcond=np.finfo(float).eps * max(X.shape[-2:])) @ rhs[..., None]
    out = np.eye(n_agents, dtype=bool)
    out[j, k] = np.linalg.norm((X @ sol)[..., 0] - rhs, axis=-1) <= 1e-8
    return out


# ---------------------------------------------------------------------------
# controllers for the simulator: one spec per law
# ---------------------------------------------------------------------------

@dataclass
class ControllerOutput:
    xi: np.ndarray
    aux_dot: dict[str, np.ndarray] = field(default_factory=dict)
    events: list[tuple[str, int, str]] = field(default_factory=list)  # (kind, agent, detail)


def _aux_eta(c, state):
    return state.aux.get("eta")


@dataclass(frozen=True)
class ControllerSpec:
    """One control law as data; the callables take the built Controller c first."""

    rhs: Callable                  # (c, state, graph) -> ControllerOutput
    aux: tuple = ()                # (field, dim, start); dim None is the algebra dimension,
                                   # start None a Gaussian draw, else a constant vector
    params: tuple = ()             # names of the parameters, each an algebra vector,
                                   # shared or one per agent
    groups: tuple = tuple(GROUPS)  # names of the groups the law runs on
    cs: Callable | None = None     # control setting used when none is given
    check: Callable | None = None  # (c) -> None; raises ControllerError
    default_aux: Callable | None = None  # (c, agents, rng, scale) -> aux, overriding start
    validate: Callable | None = None     # (c, aux0) -> None, after the shape checks
    eta: Callable = _aux_eta       # (c, state) -> auxiliary velocity for the metrics, or None
    xi_aux: str | None = None      # the aux field that is the commanded velocity xi


class Controller:
    """A ControllerSpec bound to a group, a control setting and parameters.

    Stateless: the auxiliary variables live in the swarm state.
    """

    def __init__(self, name, spec, group, cs=None, params=None):
        self.params = dict(params or {})
        unknown = sorted(set(self.params) - set(spec.params))
        if unknown:
            raise ControllerError(f"{name}: unknown parameter(s) {unknown}; "
                                  f"allowed: {list(spec.params)}")
        if group.name not in spec.groups:
            labels = ", ".join(f"{g[:2].upper()}({g[2:]})" for g in spec.groups)
            raise ControllerError(f"{name} runs on {labels} only")
        for key, value in self.params.items():
            try:
                self.params[key] = group.require_algebra(value)
            except (TypeError, ValueError):
                raise ControllerError(f"{name}: parameter {key} must be an algebra vector "
                                      f"of length {group.dim}, got {value!r}") from None
        self.name = name
        self.spec = spec
        self.group = group
        self.cs = spec.cs() if cs is None and spec.cs is not None else cs
        if self.cs is not None and self.cs.n != group.dim:
            raise ControllerError(
                f"{name}: control setting of dimension {self.cs.n}, but {group.name} "
                f"has algebra dimension {group.dim}"
            )
        self.aux_dims = {f: group.dim if dim is None else dim for f, dim, _ in spec.aux}
        if spec.check is not None:
            spec.check(self)

    def agents(self, g):
        """Leading (agent and batch) axes of an element stack."""
        return g.shape[:g.ndim - len(self.group.element_shape)]

    def default_aux(self, g0, rng, scale=1.0):
        """Initial auxiliary variables when the scenario gives none."""
        agents = self.agents(g0)
        if self.spec.default_aux is not None:
            return self.spec.default_aux(self, agents, rng, scale)
        return {
            f: scale * rng.standard_normal(agents + (self.aux_dims[f],)) if start is None
            else np.broadcast_to(start, agents + (self.aux_dims[f],)).copy()
            for f, _, start in self.spec.aux
        }

    def validate_initial(self, g0, aux0):
        for f, dim in self.aux_dims.items():
            if f not in aux0:
                raise ControllerError(f"{self.name}: missing auxiliary state {f!r}")
            want = self.agents(g0) + (dim,)
            if aux0[f].shape != want:
                raise ControllerError(
                    f"{self.name}: auxiliary {f!r} has shape {aux0[f].shape}, expected {want}"
                )
        if self.spec.validate is not None:
            self.spec.validate(self, aux0)

    def output(self, state, graph):
        return self.spec.rhs(self, state, graph)

    def eta_for_metrics(self, state):
        """Auxiliary velocity used by the coordination cost traces (or None)."""
        return self.spec.eta(self, state)

    eta = eta_for_metrics


def _fully_actuated(c):
    if _underactuated(c.cs):
        raise ControllerError(f"{c.name} needs fully actuated agents")


def _needs_control_setting(c):
    if c.cs is None:
        raise ControllerError(f"{c.name} needs a control setting")


def _needs_xi_r(c):
    if "xi_r" not in c.params:
        raise ControllerError(f"{c.name} needs parameter xi_r")


def _constant(c, state, graph):
    """Open-loop flight at a fixed body velocity (shared or per-agent); rest
    without the parameter xi."""
    xi = c.params.get("xi", np.zeros(c.group.dim))
    return ControllerOutput(np.broadcast_to(xi, c.agents(state.g) + (c.group.dim,)).copy())


def _velocity_law(rhs):
    """Spec of a law whose auxiliary state is the commanded velocity xi."""
    def output(c, state, graph):
        xi = state.aux["xi"]
        return ControllerOutput(xi.copy(), {"xi": rhs(c.group, state.g, xi, graph, state.t)})
    return ControllerSpec(output, (("xi", None, None),), xi_aux="xi")


def _vt_gradient_rhs(group, g, xi, graph, t):
    """Descent on the sum of the body- and spatial-velocity disagreement costs."""
    return ric_consensus_rhs(xi, graph, t) + lic_consensus_rhs(group, g, xi, graph, t)


def _tc_right_cascade(c, state, graph):
    xi, deta = tc_right_cascade_rhs(c.group, state.g, state.aux["eta"], graph, state.t)
    return ControllerOutput(xi, {"eta": deta})


def _frozen_eta(c, state):
    """eta_k = Ad_{g_k}^-1 xi_r: the auxiliary consensus at its exact limit."""
    return c.group._adjoint_inv(state.g, c.params["xi_r"])


def _tc_right_frozen(c, state, graph):
    A, deg = graph.in_terms(state.t)
    return ControllerOutput(_tc_right_velocity(c.group, _frozen_eta(c, state), A, deg))


def _tc_left_cascade(c, state, graph):
    xi, deta = tc_left_cascade_rhs(c.group, state.g, state.aux["eta"], graph, state.t, cs=c.cs)
    return ControllerOutput(xi, {"eta": deta})


def _tc_left_default_aux(c, agents, rng, scale):
    eta = c.group.random_algebra(rng, agents, scale)
    return {"eta": c.cs.project(eta) if _underactuated(c.cs) else eta}


def _tc_left_validate(c, aux0):
    if _underactuated(c.cs) and not c.cs.contains(aux0["eta"]):
        raise ControllerError(
            "underactuated tc_left_cascade requires eta(0) inside the feasible set"
        )


def _underactuated_lic(c, state, graph):
    xi, deta, s = underactuated_lic_rhs(
        c.group, state.g, state.aux["eta"], graph, state.t, cs=c.cs
    )
    hit = np.nonzero(s > SIGN_TOL)      # the agent index is the last axis, also when batched
    events = [
        ("assumption_violation", int(k), f"(eta-P(eta)).[eta,P(eta)] = {v:.3e} > 0")
        for k, v in zip(hit[-1], s[hit])
    ]
    return ControllerOutput(xi, {"eta": deta}, events)


def _feasible_default_aux(c, agents, rng, scale):
    u = scale * rng.standard_normal(agents + (c.cs.m,))
    return {"eta": c.cs.a + u @ c.cs.B.T}


def _steering_velocity(u):
    """xi = (e1, u): unit forward speed and the commanded turn rate."""
    xi = np.empty(u.shape[:-1] + (6,))
    xi[..., :3] = _E1
    xi[..., 3:] = u
    return xi


def _se3_steering_linear(c, state, graph):
    """Steering control with the angular auxiliary part held at zero."""
    eta_v = state.aux["eta_v"]
    u = se3_steering_control(eta_v, np.zeros(eta_v.shape))
    deta = se3_steering_consensus_linear_rhs(state.g, eta_v, graph, state.t, u=u)
    return ControllerOutput(_steering_velocity(u), {"eta_v": deta})


def _linear_eta(c, state):
    eta_v = state.aux["eta_v"]
    return np.concatenate([eta_v, np.zeros(eta_v.shape)], axis=-1)


def _se3_steering_helical(c, state, graph):
    """Steering control with the three-component helical consensus."""
    alpha, beta, gamma = state.aux["alpha"], state.aux["beta"], state.aux["gamma"]
    u = se3_steering_control(gamma + cross3(beta, alpha), alpha)
    da, db, dg = se3_steering_consensus_helical_rhs(
        state.g, alpha, beta, gamma, graph, state.t, u=u
    )
    return ControllerOutput(_steering_velocity(u), {"alpha": da, "beta": db, "gamma": dg})


def _helical_eta(c, state):
    return helical_body_velocity(state.aux["alpha"], state.aux["beta"], state.aux["gamma"])


_ETA = (("eta", None, None),)

CONTROLLERS = {
    "zero": ControllerSpec(_constant),
    "constant": ControllerSpec(_constant, params=("xi",)),
    "ric_consensus": _velocity_law(
        lambda group, g, xi, graph, t: ric_consensus_rhs(xi, graph, t)),
    "lic_consensus": _velocity_law(lic_consensus_rhs),
    "tc_right_cascade": ControllerSpec(_tc_right_cascade, _ETA, check=_fully_actuated),
    # the position-control stage alone against a pinned spatial reference
    "tc_right_frozen": ControllerSpec(
        _tc_right_frozen, params=("xi_r",), check=_needs_xi_r, eta=_frozen_eta
    ),
    "tc_left_cascade": ControllerSpec(
        _tc_left_cascade, _ETA, default_aux=_tc_left_default_aux, validate=_tc_left_validate
    ),
    "underactuated_lic": ControllerSpec(
        _underactuated_lic, _ETA, check=_needs_control_setting,
        default_aux=_feasible_default_aux,
    ),
    "se3_steering_linear": ControllerSpec(
        _se3_steering_linear, (("eta_v", 3, _E1),), groups=("se3",),
        cs=ControlSetting.se3_steering, eta=_linear_eta,
    ),
    "se3_steering_helical": ControllerSpec(
        _se3_steering_helical, (("alpha", 3, 0.0), ("beta", 3, 0.0), ("gamma", 3, _E1)),
        groups=("se3",), cs=ControlSetting.se3_steering, eta=_helical_eta,
    ),
    # experimental: observed to collapse to xi = 0; no convergence claim
    "experimental_vt_gradient": _velocity_law(_vt_gradient_rhs),
}


def build_controller(name, group, cs=None, params=None):
    try:
        spec = CONTROLLERS[name]
    except KeyError:
        raise ControllerError(
            f"unknown controller {name!r}; choose from {sorted(CONTROLLERS)}"
        ) from None
    return Controller(name, spec, group, cs=cs, params=params)
