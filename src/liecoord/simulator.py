"""Closed-loop time integration on the group manifold.

run is the one stepping path.  Group positions advance by Lie-Euler steps
g <- g * exp(h xi), which keeps every iterate on the manifold up to rounding;
auxiliary variables live in a vector space and advance by explicit Euler (or
classical RK4 against a frozen position).  A run is sequential and
deterministic given its config and seed.
"""

from __future__ import annotations

import hashlib
import math
import re
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .groups import TAU_MANIFOLD, get_group
from .controllers import ControlSetting, build_controller
from .graphs import CommGraph

BLOWUP_NORM = 1e12
CSV_BLOCK_ROWS = 256           # rows per format call in the CSV writers

METRIC_NAMES = ("V_r", "V_l", "V_tr", "V_tl")


class ConfigError(ValueError):
    pass


@dataclass
class SwarmState:
    t: float
    g: np.ndarray                 # (N, *element_shape)
    aux: dict[str, np.ndarray]    # per-agent auxiliary vectors


@dataclass
class Event:
    t: float
    kind: str
    agent: int | None = None
    detail: str = ""
    count: int = 1

    def format(self):
        agent = "-" if self.agent is None else str(self.agent)
        return f"t={self.t:.6f} kind={self.kind} agent={agent} count={self.count} detail={self.detail}"


@dataclass
class InitSpec:
    kind: str = "random"          # "random" or "explicit"
    pos_scale: float = 2.0
    rot_scale: float | None = None
    aux_scale: float = 1.0
    g0: np.ndarray | None = None
    aux0: dict[str, np.ndarray] | None = None


@dataclass
class ScenarioConfig:
    group: str
    n_agents: int
    controller: str
    graph: CommGraph
    t_end: float
    h: float = 1e-3
    seed: int = 0
    controller_params: dict = field(default_factory=dict)
    control: ControlSetting | None = None
    reproject_every: int = 100
    record_every: int = 10
    aux_integrator: str = "euler"
    init: InitSpec = field(default_factory=InitSpec)
    stop_metric: str | None = None
    stop_below: float | None = None

    def validate(self):
        if self.n_agents < 1:
            raise ConfigError("agents: must be >= 1")
        if not (self.h > 0.0):
            raise ConfigError("h: must be > 0")
        if not (self.t_end > 0.0):
            raise ConfigError("t_end: must be > 0")
        steps = self.t_end / self.h
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(f"t_end: {self.t_end!r} is not a whole number of steps h={self.h!r}")
        if self.graph.n != self.n_agents:
            raise ConfigError("graph: agent count differs from the scenario")
        if self.record_every < 1:
            raise ConfigError("record_every: must be >= 1")
        if self.reproject_every < 0:
            raise ConfigError("reproject_every: must be >= 0 (0 disables)")
        if self.aux_integrator not in ("euler", "rk4"):
            raise ConfigError("aux_integrator: must be 'euler' or 'rk4'")
        if (self.stop_metric is None) != (self.stop_below is None):
            raise ConfigError("stop_metric and stop_below go together")
        if self.stop_metric not in (None, "V_k") + METRIC_NAMES:
            raise ConfigError(f"stop_metric: choose from {list(METRIC_NAMES) + ['V_k']}")
        get_group(self.group)

    def canonical_text(self):
        parts = [
            f"group={self.group}",
            f"agents={self.n_agents}",
            f"controller={self.controller}",
            f"params={sorted((k, _canon(v)) for k, v in self.controller_params.items())}",
            f"control={None if self.control is None else (_canon(self.control.a), _canon(self.control.B))}",
            f"graph=({self.graph.n},{list(self.graph.breakpoints)},"
            f"{[sorted(es) for es in self.graph.edge_sets]},{self.graph.period})",
            f"h={self.h!r}", f"t_end={self.t_end!r}", f"seed={self.seed}",
            f"reproject_every={self.reproject_every}",
            f"record_every={self.record_every}",
            f"aux={self.aux_integrator}",
            f"init=({self.init.kind},{self.init.pos_scale!r},{self.init.rot_scale!r},"
            f"{self.init.aux_scale!r},{_canon(self.init.g0)},"
            f"{sorted((k, _canon(v)) for k, v in (self.init.aux0 or {}).items())})",
            f"stop=({self.stop_metric},{self.stop_below!r})",
        ]
        return "\n".join(parts)

    def config_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _canon(x):
    if x is None or isinstance(x, str):
        return x
    return np.asarray(x, dtype=float).tolist()


@dataclass
class Trajectory:
    group_name: str
    times: np.ndarray                  # (S,)
    g: np.ndarray                      # (S, N, *element_shape)
    xi: np.ndarray                     # (S, N, n)
    aux: dict[str, np.ndarray]         # name -> (S, N, d)
    metrics: dict[str, np.ndarray]     # V_* -> (S,), V_k -> (S, N)
    events: list[Event]
    completed: bool
    config: ScenarioConfig | None = None

    @property
    def group(self):
        return get_group(self.group_name)

    @property
    def n_agents(self):
        return self.g.shape[1]

    def state(self, i):
        return SwarmState(
            float(self.times[i]), self.g[i], {k: v[i] for k, v in self.aux.items()}
        )

    @property
    def final(self):
        return self.state(len(self.times) - 1)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _edge_disagreement(src, dst, x):
    """sum over edges j->k of ||x_k - x_j||^2 for per-agent vectors x."""
    d = x[dst] - x[src]
    return float(np.einsum("ei,ei->", d, d))


def metric_traces(group, g, xi, eta, graph, t, cs=None):
    """Disagreement costs of the current state.

    V_r: body-velocity disagreement; V_l: spatial-velocity disagreement;
    V_tr / V_tl: the same halved costs on the auxiliary velocity eta (xi is
    used when the controller has no auxiliary velocity); V_k: per-agent
    squared distance of eta_k from the feasible set, halved.  Each cost is a
    sum over the edges j->k active at time t, in O(E n).
    """
    src, dst = graph.edge_arrays(t)
    xi_r = group.adjoint(g, xi)
    out = {
        "V_r": _edge_disagreement(src, dst, xi),
        "V_l": _edge_disagreement(src, dst, xi_r),
    }
    if eta is None:
        eta = xi
        out["V_tr"], out["V_tl"] = 0.5 * out["V_r"], 0.5 * out["V_l"]
    else:
        eta = np.asarray(eta, dtype=float)
        out["V_tr"] = 0.5 * _edge_disagreement(src, dst, eta)
        out["V_tl"] = 0.5 * _edge_disagreement(src, dst, group.adjoint(g, eta))
    if cs is None:
        out["V_k"] = np.zeros(g.shape[0])
    else:
        resid = eta - cs.project(eta)
        out["V_k"] = 0.5 * np.einsum("ki,ki->k", resid, resid)
    return out


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _advance(group, state, out, h, controller, graph, aux_integrator):
    g_new = group.compose(state.g, group.exp(h * out.xi))
    if aux_integrator == "euler" or not out.aux_dot:
        aux_new = {k: state.aux[k] + h * dk for k, dk in out.aux_dot.items()}
    else:
        # classical RK4 on the auxiliary variables with the position frozen
        def rates(aux, dt):
            probe = SwarmState(state.t + dt, state.g, aux)
            return controller.output(probe, graph).aux_dot

        k1 = out.aux_dot
        k2 = rates({k: state.aux[k] + 0.5 * h * k1[k] for k in k1}, 0.5 * h)
        k3 = rates({k: state.aux[k] + 0.5 * h * k2[k] for k in k1}, 0.5 * h)
        k4 = rates({k: state.aux[k] + h * k3[k] for k in k1}, h)
        aux_new = {
            k: state.aux[k] + (h / 6.0) * (k1[k] + 2.0 * k2[k] + 2.0 * k3[k] + k4[k])
            for k in k1
        }
    return SwarmState(state.t + h, g_new, aux_new)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def _initial_state(cfg, group, controller, rng):
    init = cfg.init
    if init.kind == "explicit":
        if init.g0 is None:
            raise ConfigError("init: explicit initial state needs g0")
        g0 = group.require_element(np.asarray(init.g0, dtype=float))
    elif init.kind == "random":
        g0 = group.random(rng, cfg.n_agents, pos_scale=init.pos_scale, rot_scale=init.rot_scale)
    else:
        raise ConfigError(f"init: unknown kind {init.kind!r}")
    if g0.shape[0] != cfg.n_agents:
        raise ConfigError("init: g0 does not match the agent count")
    group.check(g0)
    aux0 = controller.default_aux(g0, rng, scale=init.aux_scale)
    if init.aux0:
        for k, v in init.aux0.items():
            if k not in aux0 and k not in controller.aux_fields:
                raise ConfigError(f"init: controller has no auxiliary state {k!r}")
            aux0[k] = np.asarray(v, dtype=float)
    controller.validate_initial(g0, aux0)
    return SwarmState(0.0, g0, {k: v.copy() for k, v in aux0.items()})


class _EventLog:
    """Deduplicates events by (kind, agent): first time wins, count grows."""

    def __init__(self):
        self._events = {}

    def add(self, t, kind, agent=None, detail=""):
        key = (kind, agent)
        if key in self._events:
            self._events[key].count += 1
        else:
            self._events[key] = Event(t, kind, agent, detail)

    def as_list(self):
        return sorted(self._events.values(), key=lambda e: (e.t, e.kind, e.agent or 0))


def run(cfg):
    """Integrate a scenario and return its recorded trajectory."""
    cfg.validate()
    group = get_group(cfg.group)
    controller = build_controller(cfg.controller, group, cs=cfg.control,
                                  params=cfg.controller_params)
    rng = np.random.default_rng(cfg.seed)
    state = _initial_state(cfg, group, controller, rng)

    n_steps = round(cfg.t_end / cfg.h)
    rec_idx = list(range(0, n_steps, cfg.record_every))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    s_max = len(rec_idx)

    times = np.zeros(s_max)
    g_rec = np.zeros((s_max, cfg.n_agents) + group.element_shape)
    xi_rec = np.zeros((s_max, cfg.n_agents, group.dim))
    aux_rec = {
        k: np.zeros((s_max,) + v.shape) for k, v in state.aux.items()
    }
    metric_rec = {name: np.zeros(s_max) for name in METRIC_NAMES}
    metric_rec["V_k"] = np.zeros((s_max, cfg.n_agents))

    log = _EventLog()
    s = 0
    next_rec = set(rec_idx)

    for i in range(n_steps + 1):
        out = controller.output(state, graph=cfg.graph)
        bad = ~np.all(np.isfinite(out.xi), axis=-1)
        if np.any(bad):
            ids = np.nonzero(bad)[0].tolist()
            log.add(state.t, "blowup",
                    detail=f"non-finite velocity for agent(s) {ids}; run aborted")
            break
        for kind, agent, detail in out.events:
            log.add(state.t, kind, agent, detail)
        stop = False
        if i in next_rec:
            if float(np.max(np.abs(group.embed(state.g)))) > BLOWUP_NORM:
                log.add(state.t, "blowup", detail="state norm exceeded 1e12; run aborted")
                stop = True
            times[s] = state.t
            g_rec[s] = state.g
            xi_rec[s] = out.xi
            for k in aux_rec:
                aux_rec[k][s] = state.aux[k]
            m = metric_traces(group, state.g, out.xi, controller.eta_for_metrics(state),
                              cfg.graph, state.t, cs=cfg.control)
            for name in METRIC_NAMES:
                metric_rec[name][s] = m[name]
            metric_rec["V_k"][s] = m["V_k"]
            if not all(np.all(np.isfinite(v[s] if np.ndim(v[s]) else [v[s]]))
                       for v in metric_rec.values()):
                log.add(state.t, "blowup", detail="non-finite metrics; run aborted")
                stop = True
            s += 1
            if not stop and cfg.stop_metric is not None:
                val = metric_rec[cfg.stop_metric][s - 1]
                val = float(np.max(val))
                if val < cfg.stop_below:
                    log.add(state.t, "early_stop",
                            detail=f"{cfg.stop_metric}={val:.3e} < {cfg.stop_below:g}")
                    stop = True
        if stop or i == n_steps:
            break
        state = _advance(group, state, out, cfg.h, controller, cfg.graph, cfg.aux_integrator)
        if cfg.reproject_every and (i + 1) % cfg.reproject_every == 0:
            defect = float(np.max(group.manifold_defect(state.g)))
            if not math.isfinite(defect):
                log.add(state.t, "blowup", detail="non-finite position; run aborted")
                break
            if defect > TAU_MANIFOLD:
                log.add(state.t, "reproject", detail=f"manifold defect {defect:.3e} corrected")
            state = SwarmState(state.t, group.reproject(state.g), state.aux)

    events = log.as_list()
    return Trajectory(
        group_name=cfg.group,
        times=times[:s],
        g=g_rec[:s],
        xi=xi_rec[:s],
        aux={k: v[:s] for k, v in aux_rec.items()},
        metrics={k: v[:s] for k, v in metric_rec.items()},
        events=events,
        completed=all(e.kind != "blowup" for e in events),
        config=cfg,
    )


def left_translated(cfg, h0):
    """Copy of an explicit-init config with every initial position left
    translated by h0 (auxiliary variables unchanged)."""
    group = get_group(cfg.group)
    if cfg.init.kind != "explicit":
        raise ConfigError("left_translated needs an explicit initial state")
    g0 = group.compose(group.require_element(h0), cfg.init.g0)
    return replace(cfg, init=replace(cfg.init, g0=g0))


# ---------------------------------------------------------------------------
# trajectory export / import
# ---------------------------------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def aux_columns(aux):
    cols = []
    for name, arr in aux.items():
        cols.extend(f"{name}{i}" for i in range(arr.shape[-1]))
    return cols


def _write_csv(path, header, rows, int_col=None):
    """Write a header line and the rows of a 2-D array: "%.17g" per value,
    "%d" in column int_col, CSV_BLOCK_ROWS rows per format call."""
    fmt = ["%.17g"] * len(header)
    if int_col is not None:
        fmt[int_col] = "%d"
    line = ",".join(fmt) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[lo:lo + CSV_BLOCK_ROWS]
            f.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_trajectory_csv(traj, path):
    """One row per agent and snapshot, snapshot by snapshot with agent ids
    0..N-1 in order: t, agent, pose payload, xi, aux.

    The rows are formatted CSV_BLOCK_ROWS at a time, one %-format call per
    block.  Blocks bound the memory: besides the (S*N, columns) float array,
    only one block's Python floats and text (a few hundred kB) exist at a
    time, not the whole file (26 MB of text and 1.3M floats for 256 agents
    and 201 samples).  Larger blocks format no faster and hold more memory.
    """
    group = traj.group
    s, n = len(traj.times), traj.n_agents
    header = (["t", "agent"] + list(group.payload_columns)
              + [f"xi{i}" for i in range(group.dim)] + aux_columns(traj.aux))
    rows = np.concatenate(
        [np.broadcast_to(traj.times[:, None, None], (s, n, 1)),
         np.broadcast_to(np.arange(n, dtype=float)[None, :, None], (s, n, 1)),
         group.to_payload(traj.g), traj.xi, *traj.aux.values()],
        axis=-1, dtype=float,
    )
    _write_csv(path, header, rows.reshape(s * n, len(header)), int_col=1)


def write_metrics_csv(traj, path):
    header = ["t"] + list(METRIC_NAMES) + [f"V_k_{k}" for k in range(traj.n_agents)]
    rows = np.column_stack([traj.times] + [traj.metrics[name] for name in METRIC_NAMES]
                           + [traj.metrics["V_k"]])
    _write_csv(path, header, rows)


def write_manifest(traj, path):
    cfg = traj.config
    lines = [
        "schema: 1",
        f"config_hash: {cfg.config_hash() if cfg else 'unknown'}",
        f"group: {traj.group_name}",
        f"agents: {traj.n_agents}",
        f"controller: {cfg.controller if cfg else 'unknown'}",
        f"seed: {cfg.seed if cfg else 'unknown'}",
        f"h: {_fmt(cfg.h) if cfg else 'unknown'}",
        f"t_end: {_fmt(cfg.t_end) if cfg else 'unknown'}",
        f"status: {'completed' if traj.completed else 'aborted'}",
        "events:",
    ]
    lines += [f"- {e.format()}" for e in traj.events]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_manifest(path):
    out = {"events": []}
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("- "):
                out["events"].append(line[2:])
            elif ": " in line:
                key, val = line.split(": ", 1)
                out[key] = val
    return out


_TRAILING_INT = re.compile(r"^(.*?)(\d+)$")


def read_trajectory_csv(path, group_name):
    """Rebuild (times, g, xi, aux) from an exported trajectory file."""
    group = get_group(group_name)
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        with warnings.catch_warnings():
            # a file without rows is reported below as a ConfigError
            warnings.simplefilter("ignore", UserWarning)
            try:
                data = np.loadtxt(f, delimiter=",", ndmin=2)
            except ValueError as e:
                # a truncated row or a value that is not a number
                raise ConfigError(f"malformed trajectory row: {e}") from e
    n_payload = len(group.payload_columns)
    want = ["t", "agent"] + list(group.payload_columns) + [f"xi{i}" for i in range(group.dim)]
    if header[: len(want)] != want:
        raise ConfigError(f"unexpected trajectory header for group {group_name}")
    aux_names = []
    for col in header[len(want):]:
        m = _TRAILING_INT.match(col)
        if m is None:
            raise ConfigError(f"unexpected trajectory column {col!r}")
        if not aux_names or aux_names[-1][0] != m.group(1):
            aux_names.append((m.group(1), 0))
        aux_names[-1] = (m.group(1), aux_names[-1][1] + 1)
    if len(data) == 0:
        raise ConfigError("trajectory has no rows")
    if data.shape[1] != len(header):
        raise ConfigError(
            f"trajectory rows have {data.shape[1]} columns, its header {len(header)}"
        )

    # rows go snapshot by snapshot, agent ids 0..N-1 in order, one time each
    s = int(np.count_nonzero(data[:, 1] == 0))
    if s == 0 or len(data) % s:
        raise ConfigError("trajectory rows are not a whole number of snapshots")
    n = len(data) // s
    data = data.reshape(s, n, -1)
    bad = np.any(data[:, :, 1] != np.arange(n), axis=1)
    if np.any(bad):
        raise ConfigError(f"agent ids of snapshot {int(np.argmax(bad))} are not 0..{n - 1} in order")
    times = data[:, 0, 0]
    bad = np.any(data[:, :, 0] != times[:, None], axis=1)
    if np.any(bad):
        raise ConfigError(f"times differ within snapshot {int(np.argmax(bad))}")
    payload = data[:, :, 2:2 + n_payload]
    xi = data[:, :, 2 + n_payload:2 + n_payload + group.dim]
    aux = {}
    ofs = 2 + n_payload + group.dim
    for name, dim in aux_names:
        aux[name] = data[:, :, ofs:ofs + dim]
        ofs += dim
    return times, group.from_payload(payload), xi, aux
