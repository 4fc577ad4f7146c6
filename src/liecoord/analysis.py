"""Verification tooling: coordination detection, isotropy sets, coordinated
configuration generation, and scenario probes.

Coordination is checked two ways on recorded trajectories: through the drift
of relative positions (central finite differences of their embedding
coordinates) and through velocity disagreement; the two criteria agree for
converged runs.  All four maxima come from one pass over every unordered
agent pair, taken as index arrays from np.triu_indices in chunks of
PAIR_CHUNK pairs, so the check holds O(PAIR_CHUNK x samples) temporaries at
any swarm size.  Each agent's inverse is computed once per check.  Each
relative position, g_k^-1 g_j and g_j g_k^-1, gathers its own operands and
is embedded at once: holding one gather for both kept two more chunk-sized
element arrays alive, which raised the peak memory of a 256-agent check by
about 11 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import SE2, SE3, cross3, get_group, matvec, rot2, so3_exp
from .graphs import CommGraph
from .simulator import InitSpec, ScenarioConfig, run

RANK_REL_TOL = 1e-9
PAIR_CHUNK = 2048


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# coordination detection
# ---------------------------------------------------------------------------

@dataclass
class CoordinationReport:
    mode: str
    achieved: bool
    lambda_drift: float        # max |d/dt embed(g_k^-1 g_j)| over pairs, window
    rho_drift: float           # max |d/dt embed(g_j g_k^-1)|
    xi_r_disagreement: float   # max pairwise spatial-velocity gap in the window
    xi_l_disagreement: float   # max pairwise body-velocity gap
    tol: float
    window: float
    lambda_pair: tuple[int, int] | None = None   # agents (j, k), j < k, of the max drift
    lambda_time: float | None = None             # sample time of the max drift

    @property
    def lic_by_position(self):
        return self.lambda_drift < self.tol

    @property
    def lic_by_velocity(self):
        return self.xi_r_disagreement < self.tol

    @property
    def ric_by_velocity(self):
        return self.xi_l_disagreement < self.tol

    @property
    def ric_by_position(self):
        return self.rho_drift < self.tol

    def format(self):
        pair = "-" if self.lambda_pair is None else "%d,%d" % self.lambda_pair
        at = "-" if self.lambda_time is None else f"{self.lambda_time:.6f}"
        return (
            f"mode={self.mode} achieved={self.achieved} tol={self.tol:g} window={self.window:g}\n"
            f"lambda_drift={self.lambda_drift:.6e} rho_drift={self.rho_drift:.6e}\n"
            f"xi_r_disagreement={self.xi_r_disagreement:.6e} "
            f"xi_l_disagreement={self.xi_l_disagreement:.6e}\n"
            f"lambda_worst_pair={pair} lambda_worst_t={at}"
        )


class _PairMax:
    """Running maximum of per-pair values over chunks of agent pairs j < k,
    with the pair and the sample index where it occurs.  A NaN wins, so a
    trajectory with non-finite values never reads as coordinated."""

    def __init__(self):
        self.value, self.pair, self.sample = -np.inf, None, None

    def update(self, r, j, k):
        """r: (S, P) non-negative values of the pairs (j[p], k[p]) of one chunk."""
        if r.size == 0:
            return
        s, p = np.unravel_index(int(np.argmax(r)), r.shape)
        v = float(r[s, p])
        if v > self.value or (np.isnan(v) and not np.isnan(self.value)):
            self.value, self.pair, self.sample = v, (int(j[p]), int(k[p])), int(s)

    def result(self):
        """(value, (j, k), sample index), or (0.0, None, None) without a pair."""
        return (0.0, None, None) if self.pair is None else (self.value, self.pair, self.sample)


def _drift(emb, dt):
    """Central-difference rates |d/dt emb| of (S, P, d) embedded relative positions."""
    return np.linalg.norm((emb[2:] - emb[:-2]) / dt, axis=-1)


def check_coordination(traj, mode, window=1.0, tol=1e-3):
    """Decide whether the final stretch of a trajectory is coordinated.

    mode "lic": relative positions g_k^-1 g_j frozen (drift criterion), which
    matches equal spatial velocities.  mode "ric": equal body velocities,
    which matches frozen g_j g_k^-1.  mode "tc": both at once.
    """
    mode = mode.lower()
    if mode not in ("lic", "ric", "tc"):
        raise AnalysisError(f"unknown coordination mode {mode!r}")
    group = traj.group
    times = traj.times
    if not len(times):
        raise AnalysisError("trajectory has no recorded samples")
    sel = times >= times[-1] - window - 1e-12
    if int(np.sum(sel)) < 3:
        raise AnalysisError("window too short: need at least 3 recorded samples")
    g = traj.g[sel]
    xi = traj.xi[sel]
    t_win = times[sel]

    g_inv = group.inverse(g)
    xi_r = group.adjoint(g, xi)
    dt = (t_win[2:] - t_win[:-2])[:, None, None]
    lam, rho, gap_r, gap_l = (_PairMax() for _ in range(4))
    j_all, k_all = np.triu_indices(g.shape[1], 1)
    for lo in range(0, len(j_all), PAIR_CHUNK):
        j, k = j_all[lo:lo + PAIR_CHUNK], k_all[lo:lo + PAIR_CHUNK]
        lam.update(_drift(group.embed(group.compose(g_inv[:, k], g[:, j])), dt), j, k)  # g_k^-1 g_j
        rho.update(_drift(group.embed(group.compose(g[:, j], g_inv[:, k])), dt), j, k)  # g_j g_k^-1
        gap_r.update(np.linalg.norm(xi_r[:, k] - xi_r[:, j], axis=-1), j, k)
        gap_l.update(np.linalg.norm(xi[:, k] - xi[:, j], axis=-1), j, k)
    lam, lam_pair, i = lam.result()
    lam_t = None if i is None else float(t_win[i + 1])
    rho, xi_r_gap, xi_l_gap = (m.result()[0] for m in (rho, gap_r, gap_l))

    achieved = {
        "lic": lam < tol,
        "ric": xi_l_gap < tol,
        "tc": (lam < tol) and (xi_l_gap < tol),
    }[mode]
    return CoordinationReport(mode, achieved, lam, rho, xi_r_gap, xi_l_gap, tol, window,
                              lam_pair, lam_t)


# ---------------------------------------------------------------------------
# isotropy sets
# ---------------------------------------------------------------------------

def _null_space(M, dim, rel_tol):
    """Orthonormal basis (rows) of the null space of M, singular values up to
    rel_tol times the largest counting as zero; all of R^dim when M = 0."""
    _, s, Vt = np.linalg.svd(M)
    if s[0] == 0.0:
        return np.eye(dim)
    return Vt[s <= rel_tol * s[0]]


def cm_membership(group, g, xi, tol=1e-9):
    """True iff Ad_g xi = xi within tol (g fixes the velocity xi)."""
    err = np.linalg.norm(group.adjoint(g, xi) - np.asarray(xi, dtype=float), axis=-1)
    return np.max(err) <= tol if err.ndim else bool(err <= tol)


def cm_algebra_basis(group, xi, rel_tol=RANK_REL_TOL):
    """Orthonormal basis (rows) of the commutant {eta : [xi, eta] = 0}."""
    return _null_space(group.ad_matrix(xi), group.dim, rel_tol)


def cm_algebra_dimension(group, xi, rel_tol=RANK_REL_TOL):
    """Dimension of the isotropy algebra: dim ker [xi, .]."""
    return cm_algebra_basis(group, xi, rel_tol).shape[0]


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


def random_cm_element(group, xi, rng, scale=1.0, depth=3):
    """Random product of exponentials of commutant directions; stays in the
    isotropy subgroup of xi."""
    basis = cm_algebra_basis(group, xi)
    if basis.shape[0] == 0:
        return group.identity()
    out = group.identity()
    for _ in range(depth):
        z = scale * rng.standard_normal(basis.shape[0])
        out = group.compose(out, group.exp(z @ basis))
    return out


def generate_tc_configuration(group, xi, n, rng, tree_edges=None, base=None,
                              scale=1.0, depth=3):
    """Agent positions whose tree-edge relative positions fix the velocity xi.

    Flying all agents open loop at the common body velocity xi from these
    positions keeps every relative position frozen.  With xi = 0 any
    configuration qualifies and a random one is returned.
    """
    xi = np.asarray(xi, dtype=float)
    if n < 1:
        raise AnalysisError("need at least one agent")
    if np.linalg.norm(xi) == 0.0:
        return group.random(rng, n, pos_scale=scale)
    if tree_edges is None:
        tree_edges = [(k, k + 1) for k in range(n - 1)]
    adj = {k: [] for k in range(n)}
    for a, b in tree_edges:
        adj[int(a)].append(int(b))
        adj[int(b)].append(int(a))
    g = group.identity_like(n)
    g[0] = group.random(rng) if base is None else group.require_element(base)
    seen = {0}
    stack = [0]
    while stack:
        p = stack.pop()
        for c in adj[p]:
            if c in seen:
                continue
            seen.add(c)
            stack.append(c)
            g[c] = group.compose(g[p], random_cm_element(group, xi, rng, scale, depth))
    if len(seen) != n:
        raise AnalysisError("tree_edges do not span all agents")
    return g


def compatible_velocities(group, lambdas, rel_tol=RANK_REL_TOL):
    """Exploratory solver: body velocities xi fixed by every given relative
    position, i.e. the intersection of ker(Ad_lambda - Id).

    Returns an orthonormal basis (rows); generically empty for non-Abelian
    groups once enough relative positions are given.
    """
    rows = [group.adjoint_matrix(lam) - np.eye(group.dim) for lam in lambdas]
    if not rows:
        return np.eye(group.dim)
    return _null_space(np.concatenate(rows, axis=0), group.dim, rel_tol)


# ---------------------------------------------------------------------------
# closed-form geometry of coordinated motion (test oracles)
# ---------------------------------------------------------------------------

def se2_circle_center(g, xi):
    """Center of the circle drawn by an SE(2) agent flying at constant body
    velocity xi = (v, w), w != 0."""
    g = SE2.require_element(g)
    xi = np.asarray(xi, dtype=float)
    v, w = xi[..., :2], xi[..., 2]
    turned = matvec(rot2(SE2.angle(g) - np.pi / 2.0), v)
    return SE2.position(g) - turned / w[..., None]


def se3_screw_axis(g, xi):
    """Axis (point, unit direction) and pitch rate of the screw traced by an
    SE(3) agent flying at constant body velocity xi = (v, w), w != 0.

    The advance along the axis per unit time equals pitch_rate; the scaled
    pitch w . v equals pitch_rate * ||w||.
    """
    xi_r = SE3.adjoint(g, xi)
    v_r, w_r = xi_r[..., :3], xi_r[..., 3:]
    wn2 = np.einsum("...i,...i->...", w_r, w_r)
    point = cross3(w_r, v_r) / wn2[..., None]
    direction = w_r / np.sqrt(wn2)[..., None]
    pitch_rate = np.einsum("...i,...i->...", v_r, direction)
    return point, direction, pitch_rate


# ---------------------------------------------------------------------------
# steering-control structure on SE(2) vs SE(3)
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


# ---------------------------------------------------------------------------
# basin probe for the body-reference cascade on SO(3)
# ---------------------------------------------------------------------------

@dataclass
class BasinProbeResult:
    graph: str
    trials: int
    reached: int
    terminal_vtl: np.ndarray

    @property
    def fraction(self):
        return self.reached / self.trials if self.trials else 0.0

    def format(self):
        return (f"graph={self.graph} trials={self.trials} reached={self.reached} "
                f"fraction={self.fraction:.3f}")


def _so3_tc_config(n, graph, seed, t_end, h, init, stop_tol):
    return ScenarioConfig(
        group="so3",
        n_agents=n,
        controller="tc_left_cascade",
        graph=graph,
        t_end=t_end,
        h=h,
        seed=seed,
        init=init,
        record_every=100,
        stop_metric="V_tl",
        stop_below=stop_tol,
    )


def tc_basin_probe(graph_kind="complete", trials=20, n_agents=3, seed=0,
                      t_end=30.0, h=2e-3, tol=1e-6, aux_scale=1.0):
    """Fraction of random starts of the body-reference cascade that reach
    total coordination (terminal V_tl below tol).  Reported, not asserted:
    the result is an empirical basin estimate."""
    if graph_kind == "complete":
        graph = CommGraph.complete(n_agents)
    elif graph_kind == "tree":
        graph = CommGraph.path(n_agents)
    else:
        raise AnalysisError(f"unknown graph kind {graph_kind!r}")
    root = np.random.default_rng(seed)
    seeds = root.integers(0, 2**31 - 1, size=trials)
    terminal = np.zeros(trials)
    for i, s in enumerate(seeds):
        cfg = _so3_tc_config(
            n_agents, graph, int(s), t_end, h,
            InitSpec(kind="random", aux_scale=aux_scale), stop_tol=tol * 1e-2,
        )
        traj = run(cfg)
        terminal[i] = traj.metrics["V_tl"][-1]
    reached = int(np.sum(terminal < tol))
    return BasinProbeResult(graph_kind, trials, reached, terminal)


def so3_anti_aligned_state(n=4, axis=None):
    """Rotation stack split into two groups whose spatial images of the common
    spin axis cancel: a stationary saddle of the position controller."""
    if n % 2:
        raise AnalysisError("anti-aligned construction needs an even agent count")
    axis = np.array([0.0, 0.0, 1.0]) if axis is None else np.asarray(axis, dtype=float)
    flip = so3_exp(np.pi * np.array([1.0, 0.0, 0.0]))
    g = np.stack([np.eye(3)] * (n // 2) + [flip] * (n // 2))
    eta = np.broadcast_to(axis, (n, 3)).copy()
    return g, eta


def so3_saddle_escape(eps=1e-3, seed=0, n=4, t_end=40.0, h=1e-3):
    """Perturb the anti-aligned saddle and run the cascade; returns the
    trajectory (terminal V_tl near zero demonstrates the escape)."""
    rng = np.random.default_rng(seed)
    g, eta = so3_anti_aligned_state(n)
    g = get_group("so3").compose(g, so3_exp(eps * rng.standard_normal((n, 3))))
    eta = eta + eps * rng.standard_normal((n, 3))
    cfg = _so3_tc_config(
        n, CommGraph.complete(n), seed, t_end, h,
        InitSpec(kind="explicit", g0=g, aux0={"eta": eta}), stop_tol=1e-9,
    )
    return run(cfg)
