"""Verification tooling: coordination detection, isotropy sets, coordinated
configuration generation, and scenario probes.

Coordination is checked two ways on recorded trajectories: through the drift
of relative positions (central finite differences of their embedding
coordinates) and through velocity disagreement; the two criteria agree for
converged runs.  Each of the four maxima over agent pairs is found by bound
and select.  Per-agent quantities of the window (rotation-block and
translation rates, the size of each block, each velocity's distance from the
sample centroid) give every pair an O(1) upper bound, rounding included.
The largest value of the PAIR_CHUNK pairs of largest bound is a floor, and
the other pairs whose bound is not below it are evaluated exactly, in chunks
of PAIR_CHUNK in pair order, so that no pair is evaluated twice; a window
with a non-finite value, or a NaN floor, makes every pair a candidate.  A
value is computed as by a loop over all pairs (the same gathers, compose,
embed and norms), in that loop's order, so the report equals that loop's
field for field, its worst pair and time included.  Each agent's inverse is computed once per check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import SE2, SE3, cross3, get_group, matvec, rot2, so3_exp
from .graphs import CommGraph
from .simulator import InitSpec, ScenarioConfig, run

RANK_REL_TOL = 1e-9
PAIR_CHUNK = 512
# rounding allowances of the pair bounds: relative, and absolute in ulps of the
# composed magnitudes per shortest step (drifts) or at underflow (velocity gaps)
BOUND_REL = 64 * np.finfo(float).eps
BOUND_ABS = 1024 * np.finfo(float).eps
GAP_ABS = np.sqrt(np.finfo(float).tiny)


class AnalysisError(ValueError):
    pass


def _require_int(name, value):
    """AnalysisError unless value is an integer, as ScenarioConfig.validate checks."""
    if not isinstance(value, (int, np.integer)):
        raise AnalysisError(f"{name}: must be an integer, not {value!r}")


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


def _peak(pairs, values):
    """(pair, value, sample) of the largest of values(pairs): of its first NaN,
    else of its first maximum, in the order of pairs."""
    r = values(pairs)
    peak = np.max(r, axis=0)
    p = np.argmax(peak)
    return int(pairs[p]), float(peak[p]), int(np.argmax(r[:, p]))


def _select(bound, values):
    """Maximum of values(pairs) over every pair, with the pair (its index in
    np.triu_indices order) and the sample where it occurs.  The PAIR_CHUNK
    pairs of largest bound (every pair, if there are no more) are evaluated
    first, and their largest value is a floor; then the other pairs whose
    bound is not below it, in pair order.  So each pair is evaluated at most
    once, and the first largest value in pair order wins, or the first NaN,
    as in a loop over all pairs.  A maximum of 0 names no pair."""
    if not len(bound):
        return 0.0, None, None
    top = np.arange(len(bound))
    if len(bound) > PAIR_CHUNK:
        top = np.sort(np.argpartition(bound, -PAIR_CHUNK)[-PAIR_CHUNK:])
    found = [_peak(top, values)]
    rest = np.setdiff1d(np.flatnonzero(~(bound < found[0][1])), top, assume_unique=True)
    found += [_peak(rest[lo:lo + PAIR_CHUNK], values) for lo in range(0, len(rest), PAIR_CHUNK)]
    best, pair, sample = 0.0, None, None
    for p, value, s in sorted(found):       # in pair order
        if value > best or (np.isnan(value) and not np.isnan(best)):
            best, pair, sample = value, p, s
    return best, pair, sample


def _blocks(group, g):
    """Rotation block R and translation r of each element.  Every entry of
    embed(g_k^-1 g_j) and embed(g_j g_k^-1) is an entry, or for SE(2) the
    cosine or sine, of R_k^T R_j, R_k^T (r_j - r_k), R_j R_k^T or
    r_j - R_j R_k^T r_k.  None if an SE(3) bottom row is not (0, 0, 0, 1):
    compose would mix it into the other entries."""
    if group.name == "se2":
        return rot2(g[..., 2]), g[..., :2]
    if group.name == "se3":
        if np.any(g[..., 3, :] != (0.0, 0.0, 0.0, 1.0)):
            return None
        return g[..., :3, :3], g[..., :3, 3]
    return g, np.zeros(g.shape[:-2] + (0,))


def _rate(x, dt):
    """(N,) largest central-difference rate |x(s+1) - x(s-1)| / dt of each agent."""
    d = (x[2:] - x[:-2]).reshape(len(dt), x.shape[1], -1)
    return np.max(np.linalg.norm(d, axis=-1) / dt[:, None], axis=0)


def _radius(x):
    """(N,) largest distance of each agent's vector from the sample centroid."""
    return np.max(np.linalg.norm(x - np.mean(x, axis=1, keepdims=True), axis=-1), axis=0)


def _pair_bounds(R, r, xi_r, xi, dt, j, k):
    """Upper bounds of the computed lambda drift, rho drift, xi_r gap and
    xi_l gap of every pair (j, k) over the window, rounding included; yields
    the four bound arrays in turn, so that one is held at a time.

    Per agent: rotation-block rate a, translation rate b, M >= ||R||_2 (off
    the manifold too), largest |r| and how far r moves from the middle
    sample.  A central difference of R_k^T R_j is at most a_k M_j + M_k a_j
    per unit time, one of R_k^T (r_j - r_k) at most a_k D_jk + M_k (b_j + b_k)
    with D_jk >= |r_j - r_k|, and likewise for g_j g_k^-1.  A velocity gap is
    at most the two agents' radii about the sample centroid.
    """
    dt = np.abs(dt)     # a drift is a norm over dt, whichever way time runs
    a, b = _rate(R, dt), _rate(r, dt)
    n = R.shape[-1]
    M = np.sqrt(1.0 + n * np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(n)), axis=(0, 2, 3)))
    size = np.max(np.linalg.norm(r, axis=-1), axis=0)
    mid = r[len(r) // 2]
    move = np.max(np.linalg.norm(r - mid, axis=-1), axis=0)
    # the rounding of compose and embed scales with the magnitudes of the blocks
    c = (1.0 + M) * (1.0 + size) * np.sqrt(BOUND_ABS / np.min(dt))

    def allow(u, slack):
        u *= 1.0 + BOUND_REL
        u += slack
        u[np.isnan(u)] = np.inf     # an overflow bounds nothing
        return u

    rot = a[k] * M[j] + M[k] * a[j]
    dist = np.sqrt(sum((x[j] - x[k]) ** 2 for x in mid.T)) + move[j] + move[k]
    yield allow(np.hypot(rot, a[k] * dist + M[k] * (b[j] + b[k])), c[j] * c[k])
    del dist
    yield allow(np.hypot(rot, b[j] + rot * size[k] + M[j] * M[k] * b[k]), c[j] * c[k])
    del rot
    for x in (xi_r, xi):
        rad = _radius(x)
        yield allow(rad[j] + rad[k], GAP_ABS)


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
    if not (np.isfinite(tol) and tol > 0):
        raise AnalysisError(f"tol: must be finite and > 0, not {tol!r}")
    if np.isnan(window):
        raise AnalysisError("window: must be a number of time units, not nan")
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
    dt = t_win[2:] - t_win[:-2]
    j, k = np.triu_indices(g.shape[1], 1)
    blocks = _blocks(group, g)
    if blocks is None or not (np.isfinite(g).all() and np.isfinite(xi).all()):
        bounds = [np.full(len(j), np.inf)] * 4      # every pair is a candidate
    else:
        bounds = _pair_bounds(*blocks, xi_r, xi, dt, j, k)
    dt = dt[:, None, None]

    def gap(x):
        return lambda p: np.linalg.norm(x[:, k[p]] - x[:, j[p]], axis=-1)

    (lam, worst, at), (rho, _, _), (xi_r_gap, _, _), (xi_l_gap, _, _) = (
        _select(u, f) for u, f in zip(bounds, (
            lambda p: _drift(group.embed(group.compose(g_inv[:, k[p]], g[:, j[p]])), dt),  # g_k^-1 g_j
            lambda p: _drift(group.embed(group.compose(g[:, j[p]], g_inv[:, k[p]])), dt),  # g_j g_k^-1
            gap(xi_r), gap(xi))))
    lam_pair = None if worst is None else (int(j[worst]), int(k[worst]))
    lam_t = None if worst is None else float(t_win[at + 1])

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

def _null_space(M, dim):
    """Orthonormal basis (rows) of the null space of M, singular values up to
    RANK_REL_TOL times the largest counting as zero; all of R^dim when M = 0."""
    _, s, Vt = np.linalg.svd(M)
    if s[0] == 0.0:
        return np.eye(dim)
    return Vt[s <= RANK_REL_TOL * s[0]]


def cm_algebra_basis(group, xi):
    """Orthonormal basis (rows) of the commutant {eta : [xi, eta] = 0}."""
    return _null_space(group.ad_matrix(xi), group.dim)


def cm_algebra_dimension(group, xi):
    """Dimension of the isotropy algebra: dim ker [xi, .]."""
    return cm_algebra_basis(group, xi).shape[0]


def random_cm_element(group, xi, rng, scale=1.0):
    """Random product of three exponentials of commutant directions; stays in
    the isotropy subgroup of xi.  The commutant is never empty: it holds xi."""
    basis = cm_algebra_basis(group, xi)
    out = group.identity()
    for _ in range(3):
        z = scale * rng.standard_normal(basis.shape[0])
        out = group.compose(out, group.exp(z @ basis))
    return out


def generate_tc_configuration(group, xi, n, rng, tree_edges=None, scale=1.0):
    """Agent positions whose tree-edge relative positions fix the velocity xi.

    Flying all agents open loop at the common body velocity xi from these
    positions keeps every relative position frozen.  With xi = 0 any
    configuration qualifies and a random one is returned.
    """
    xi = np.asarray(xi, dtype=float)
    _require_int("n", n)
    if n < 1:
        raise AnalysisError("need at least one agent")
    if np.linalg.norm(xi) == 0.0:
        return group.random(rng, n, pos_scale=scale)
    if tree_edges is None:
        tree_edges = [(k, k + 1) for k in range(n - 1)]
    adj = {k: [] for k in range(n)}
    for a, b in tree_edges:
        if not (0 <= int(a) < n and 0 <= int(b) < n):
            raise AnalysisError(f"tree edge ({a}, {b}) names an agent outside 0..{n - 1}")
        adj[int(a)].append(int(b))
        adj[int(b)].append(int(a))
    g = group.identity_like(n)
    g[0] = group.random(rng)
    seen = {0}
    stack = [0]
    while stack:
        p = stack.pop()
        for c in adj[p]:
            if c in seen:
                continue
            seen.add(c)
            stack.append(c)
            g[c] = group.compose(g[p], random_cm_element(group, xi, rng, scale))
    if len(seen) != n:
        raise AnalysisError("tree_edges do not span all agents")
    return g


def compatible_velocities(group, lambdas):
    """Exploratory solver: body velocities xi fixed by every given relative
    position, i.e. the intersection of ker(Ad_lambda - Id).

    Returns an orthonormal basis (rows); generically empty for non-Abelian
    groups once enough relative positions are given.
    """
    rows = [group.adjoint_matrix(lam) - np.eye(group.dim) for lam in lambdas]
    if not rows:
        return np.eye(group.dim)
    return _null_space(np.concatenate(rows, axis=0), group.dim)


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
                      t_end=30.0, h=2e-3, tol=1e-6):
    """Fraction of random starts of the body-reference cascade that reach
    total coordination (terminal V_tl below tol).  Reported, not asserted:
    the result is an empirical basin estimate."""
    for name, value in (("trials", trials), ("n_agents", n_agents), ("seed", seed)):
        _require_int(name, value)
    if graph_kind == "complete":
        graph = CommGraph.complete(n_agents)
    elif graph_kind == "tree":
        graph = CommGraph.path(n_agents)
    else:
        raise AnalysisError(f"unknown graph kind {graph_kind!r}")
    if trials < 0:
        raise AnalysisError(f"trials: must be >= 0, not {trials!r}")
    root = np.random.default_rng(seed)
    seeds = root.integers(0, 2**31 - 1, size=trials)
    terminal = np.zeros(trials)
    for i, s in enumerate(seeds):
        cfg = _so3_tc_config(
            n_agents, graph, int(s), t_end, h,
            InitSpec(kind="random"), stop_tol=tol * 1e-2,
        )
        traj = run(cfg)
        terminal[i] = traj.metrics["V_tl"][-1]
    reached = int(np.sum(terminal < tol))
    return BasinProbeResult(graph_kind, trials, reached, terminal)


def so3_anti_aligned_state(n=4):
    """Rotation stack split into two groups whose spatial images of the common
    spin axis e3 cancel: a stationary saddle of the position controller."""
    _require_int("n", n)
    if n < 2 or n % 2:
        raise AnalysisError(f"anti-aligned construction needs an even agent count >= 2, not {n}")
    flip = so3_exp(np.pi * np.array([1.0, 0.0, 0.0]))
    g = np.stack([np.eye(3)] * (n // 2) + [flip] * (n // 2))
    eta = np.broadcast_to([0.0, 0.0, 1.0], (n, 3)).copy()
    return g, eta


def so3_saddle_escape(eps=1e-3, seed=0, t_end=40.0, h=1e-3):
    """Perturb the anti-aligned saddle of four agents and run the cascade;
    returns the trajectory (terminal V_tl near zero demonstrates the escape)."""
    _require_int("seed", seed)
    rng = np.random.default_rng(seed)
    g, eta = so3_anti_aligned_state()
    n = len(g)
    g = get_group("so3").compose(g, so3_exp(eps * rng.standard_normal((n, 3))))
    eta = eta + eps * rng.standard_normal((n, 3))
    cfg = _so3_tc_config(
        n, CommGraph.complete(n), seed, t_end, h,
        InitSpec(kind="explicit", g0=g, aux0={"eta": eta}), stop_tol=1e-9,
    )
    return run(cfg)
