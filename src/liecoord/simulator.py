"""Closed-loop time integration on the group manifold.

run is the one stepping path.  Group positions advance by Lie-Euler steps
g <- g * exp(h xi), which keeps every iterate on the manifold up to rounding;
auxiliary variables live in a vector space and advance by explicit Euler (or
classical RK4 against a frozen position).  A run is sequential and
deterministic given its config and seed.  Arguments are checked once, when
the run is set up (build_controller, _initial_state, group.check); the loop
calls the group kernels, which check nothing.

Every step checks that the positions and the commanded velocities are
finite, each with one whole-array reduction (_all_finite).  Only when that
fails are the offending agents listed, and the run ends in a blowup event at
that step, before the step is recorded; positions come first.  So a position
that overflows is caught at the next step, not at the next reprojection.

A run is exported as trajectory.csv (aux columns named aux.<field><i>),
metrics.csv and a manifest: one JSON object holding the config as plain data
(ScenarioConfig.record, which config_hash also hashes), the status and the
events, so that a reloaded run keeps them and its metrics.  In the CSV files
"#" starts no comment: a line or cell holding one is a malformed row.

Each recorded array is held once.  An aux field whose samples are the
recorded velocity bit for bit (the aux xi of a velocity law, which commands
its own state) is the Trajectory's xi array itself, in a run and in a reload;
a reload holds arrays of its own, not views of the parsed text.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .groups import TAU_MANIFOLD, c_einsum, count_nonzero, get_group
from .controllers import ControlSetting, build_controller
from .graphs import CommGraph

BLOWUP_NORM = 1e12
CSV_BLOCK_ROWS = 256           # rows per format call in the CSV writers
MANIFEST_SCHEMA = 2

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


_EVENT_KEYS = {f.name for f in fields(Event)}


@dataclass
class InitSpec:
    kind: str = "random"          # "random" or "explicit"
    pos_scale: float = 2.0
    rot_scale: float | None = None
    aux_scale: float = 1.0
    g0: np.ndarray | None = None  # with kind "explicit" only
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
        if not math.isfinite(steps) or round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(f"t_end: {self.t_end!r} is not a positive whole number of steps "
                              f"h={self.h!r}")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
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

    def record(self):
        """The whole config as plain data, as JSON reads it back: the
        manifest's "config", and what config_hash hashes."""
        g = self.graph
        rec = asdict(replace(self, graph=None))     # a CommGraph is not a dataclass
        rec["graph"] = {"n": g.n, "breakpoints": g.breakpoints, "period": g.period,
                        "edge_sets": [sorted(es) for es in g.edge_sets]}
        return json.loads(json.dumps(rec, default=lambda x: np.asarray(x).tolist()))

    def config_hash(self):
        return hashlib.sha256(json.dumps(self.record(), sort_keys=True).encode()).hexdigest()


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
    return float(c_einsum("ei,ei->", d, d))


def metric_traces(group, g, xi, eta, graph, t, cs=None):
    """Disagreement costs of the current state.

    V_r: body-velocity disagreement; V_l: spatial-velocity disagreement;
    V_tr / V_tl: the same halved costs on the auxiliary velocity eta (xi is
    used when the controller has no auxiliary velocity); V_k: per-agent
    squared distance of eta_k from the feasible set, halved.  Each cost is a
    sum over the edges j->k active at time t, in O(E n).  Like the control
    laws, it takes float arrays of the shapes run builds and checks nothing.
    """
    src, dst = graph.edge_arrays(t)
    xi_r = group._adjoint(g, xi)
    out = {
        "V_r": _edge_disagreement(src, dst, xi),
        "V_l": _edge_disagreement(src, dst, xi_r),
    }
    if eta is None:
        eta = xi
        out["V_tr"], out["V_tl"] = 0.5 * out["V_r"], 0.5 * out["V_l"]
    else:
        out["V_tr"] = 0.5 * _edge_disagreement(src, dst, eta)
        out["V_tl"] = 0.5 * _edge_disagreement(src, dst, group._adjoint(g, eta))
    if cs is None:
        out["V_k"] = np.zeros(g.shape[0])
    else:
        resid = eta - cs.project(eta)
        out["V_k"] = 0.5 * c_einsum("ki,ki->k", resid, resid)
    return out


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _advance(group, state, out, h, controller, graph, aux_integrator):
    g_new = group._compose(state.g, group._exp(h * out.xi))
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
        if init.g0 is not None:
            raise ConfigError("init: g0 needs kind = explicit")
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


def _all_finite(x):
    """np.isfinite(x).all() as two C-level calls: the C count_nonzero that
    groups imports skips the Python wrappers of .all() and np.count_nonzero."""
    return count_nonzero(np.isfinite(x)) == x.size


def _same_bits(a, b):
    """Whether two float arrays have one shape and the same bits, so that
    -0.0 differs from 0.0 and a NaN payload counts.  Bytes, not int64 views:
    the first use of numpy's integer comparison maps about 0.3 MB more of its
    library into the process."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _nonfinite_detail(group, g, xi):
    """Blowup detail naming the agents whose position, or else velocity, is
    not finite."""
    k = len(group.element_shape)
    bad = ~np.all(np.isfinite(g), axis=tuple(range(-k, 0)))
    what = "position"
    if not bad.any():
        bad = ~np.all(np.isfinite(xi), axis=-1)
        what = "velocity"
    return f"non-finite {what} for agent(s) {np.nonzero(bad)[0].tolist()}; run aborted"


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
    s_max = math.ceil(n_steps / cfg.record_every) + 1
    try:
        times = np.zeros(s_max)
        g_rec = np.zeros((s_max, cfg.n_agents) + group.element_shape)
        xi_rec = np.zeros((s_max, cfg.n_agents, group.dim))
        aux_rec = {
            k: np.zeros((s_max,) + v.shape) for k, v in state.aux.items()
        }
        metric_rec = {name: np.zeros(s_max) for name in METRIC_NAMES}
        metric_rec["V_k"] = np.zeros((s_max, cfg.n_agents))
    except (ValueError, MemoryError):     # numpy refuses before allocating
        raise ConfigError(f"record_every: {s_max:.6g} samples cannot be allocated") from None

    log = _EventLog()
    s = 0

    for i in range(n_steps + 1):
        out = controller.output(state, graph=cfg.graph)
        if not (_all_finite(state.g) and _all_finite(out.xi)):
            log.add(state.t, "blowup", detail=_nonfinite_detail(group, state.g, out.xi))
            break
        for kind, agent, detail in out.events:
            log.add(state.t, kind, agent, detail)
        stop = False
        if i % cfg.record_every == 0 or i == n_steps:
            if float(np.max(np.abs(group._embed(state.g)))) > BLOWUP_NORM:
                log.add(state.t, "blowup", detail="state norm exceeded 1e12; run aborted")
                stop = True
            times[s] = state.t
            g_rec[s] = state.g
            xi_rec[s] = out.xi
            for k in aux_rec:
                aux_rec[k][s] = state.aux[k]
            m = metric_traces(group, state.g, out.xi, controller.eta_for_metrics(state),
                              cfg.graph, state.t, cs=cfg.control)
            for name, value in m.items():
                metric_rec[name][s] = value
            if not all(_all_finite(v[s]) for v in metric_rec.values()):
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
            defect = float(np.max(group._manifold_defect(state.g)))
            if math.isfinite(defect):   # else the next step's check ends the run
                if defect > TAU_MANIFOLD:
                    log.add(state.t, "reproject",
                            detail=f"manifold defect {defect:.3e} corrected")
                state = SwarmState(state.t, group._reproject(state.g), state.aux)

    events = log.as_list()
    xi = xi_rec[:s]
    return Trajectory(
        group_name=cfg.group,
        times=times[:s],
        g=g_rec[:s],
        xi=xi,
        aux={k: xi if _same_bits(v[:s], xi) else v[:s] for k, v in aux_rec.items()},
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

def aux_columns(aux):
    """Column names of the aux fields: "aux." before each, so that none can
    repeat a pose or velocity column (an aux field may be named xi)."""
    cols = []
    for name, arr in aux.items():
        cols.extend(f"aux.{name}{i}" for i in range(arr.shape[-1]))
    return cols


def _write_rows(path, header, cells, tails, pasted=None):
    """Write a header line and snapshots of len(tails) rows, whole snapshots
    and about CSV_BLOCK_ROWS rows per %-format call, which bounds the Python
    floats and text alive at a time.  Row s of cells is snapshot s: its time,
    formatted once and copied to each of its rows, then its rows' values.
    tails[j] is the text of row j after the time, with "%.17g" per value.
    Each row of pasted (None, or an (S, len(tails), m) array) is formatted once
    more, by one call per block, and goes in for each "\\x01" of its tail."""
    per = max(1, CSV_BLOCK_ROWS // len(tails))
    # "\0" starts a snapshot, and "\x02" stands for its time in its later rows
    parts = [t.split("\x01") for t in ["\0%.17g" + tails[0], *("\x02" + t for t in tails[1:])]]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(cells), per):
            block = cells[lo:lo + per]
            texts = itertools.repeat("", len(block) * len(tails))
            if pasted is not None:
                rows = pasted[lo:lo + per].reshape(-1, pasted.shape[-1])
                line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
                texts = (line * len(rows) % tuple(rows.ravel().tolist())).split("\n")[:-1]
            template = "".join(map(str.join, texts, itertools.cycle(parts)))
            for snapshot in (template % tuple(block.ravel().tolist())).split("\0")[1:]:
                f.write(snapshot.replace("\x02", snapshot[:snapshot.index(",")]))


def write_trajectory_csv(traj, path):
    """One row per agent and snapshot, snapshot by snapshot with agent ids
    0..N-1 in order: t, agent, pose payload, xi, aux; "%.17g" per value.  t is
    formatted once per snapshot, the ids once per file, and an aux field that
    is traj.xi (a velocity law's aux xi) takes xi's text: a 256-agent SE(3)
    lic_consensus row formats 18 values, not 24."""
    group = traj.group
    s, n = len(traj.times), traj.n_agents
    header = (["t", "agent"] + list(group.payload_columns)
              + [f"xi{i}" for i in range(group.dim)] + aux_columns(traj.aux))
    fields = (group.to_payload(traj.g), traj.xi, *traj.aux.values())
    pasted = traj.xi if any(v is traj.xi for v in traj.aux.values()) else None
    tail = "".join(",\x01" if v is pasted else ",%.17g" * v.shape[-1] for v in fields)
    body = np.concatenate([v for v in fields if v is not pasted], axis=-1, dtype=float)
    cells = np.column_stack([traj.times, body.reshape(s, n * body.shape[-1])])
    _write_rows(path, header, cells, [f",{k}{tail}\n" for k in range(n)], pasted)


def _metrics_header(n_agents):
    return ["t", *METRIC_NAMES, *(f"V_k_{k}" for k in range(n_agents))]


def write_metrics_csv(traj, path):
    header = _metrics_header(traj.n_agents)
    cells = np.column_stack([traj.times, *map(traj.metrics.get, METRIC_NAMES), traj.metrics["V_k"]])
    _write_rows(path, header, cells, [",%.17g" * (len(header) - 1) + "\n"])


def write_manifest(traj, path):
    """Write the run as one JSON object: schema, group, agents, config_hash,
    config (ScenarioConfig.record), status and events."""
    cfg = traj.config
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "group": traj.group_name,
        "agents": traj.n_agents,
        "config_hash": None if cfg is None else cfg.config_hash(),
        "config": None if cfg is None else cfg.record(),
        "status": "completed" if traj.completed else "aborted",
        "events": [asdict(e) for e in traj.events],
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=1)


def read_manifest(path):
    """Load a manifest that write_manifest wrote; anything else is a ConfigError."""
    try:
        with open(path) as f:
            man = json.load(f)
    except ValueError as e:     # also a UnicodeDecodeError: the file is not text
        raise ConfigError(f"manifest is not JSON: {e}") from None
    if not (isinstance(man, dict) and man.get("schema") == MANIFEST_SCHEMA
            and isinstance(man.get("group"), str) and "status" in man
            and isinstance(man.get("events"), list)
            and all(isinstance(e, dict) and e.keys() == _EVENT_KEYS for e in man["events"])):
        raise ConfigError(f"not a schema {MANIFEST_SCHEMA} manifest with group, status and events")
    return man


_AUX_COLUMN = re.compile(r"^aux\.(.*?)\d+$")


def _read_csv(path, what):
    """The header cells and the rows (a 2-D float array) of a CSV file; "#"
    starts no comment, so a line or cell holding one is a malformed row.
    numpy gets the path, which it reads in blocks at C level, and skips the
    header line: an open handle it would iterate line by line in Python."""
    with warnings.catch_warnings():
        # a file without rows is reported by the callers
        warnings.simplefilter("ignore", UserWarning)
        try:
            with open(path) as f:
                header = f.readline().rstrip("\n").split(",")
            return header, np.loadtxt(path, delimiter=",", ndmin=2, comments=None, skiprows=1)
        except ValueError as e:
            # a truncated row, a value that is not a number, or bytes that are not text
            raise ConfigError(f"malformed {what} row: {e}") from e


def read_trajectory_csv(path, group_name, n_agents=None):
    """Rebuild (times, g, xi, aux) from an exported trajectory file.

    A file without rows (a run that ended before its first sample) is read as
    no samples of n_agents agents, and is a ConfigError without n_agents.
    Every array returned owns its memory, except that an aux field equal to
    xi bit for bit is the xi array.
    """
    group = get_group(group_name)
    header, data = _read_csv(path, "trajectory")
    n_payload = len(group.payload_columns)
    want = ["t", "agent"] + list(group.payload_columns) + [f"xi{i}" for i in range(group.dim)]
    if header[: len(want)] != want:
        raise ConfigError(f"unexpected trajectory header for group {group_name}")
    first, end = {}, {}     # per aux field, the range of its columns
    for i, col in enumerate(header[len(want):], len(want)):
        m = _AUX_COLUMN.match(col)
        if m is None:
            raise ConfigError(f"unexpected trajectory column {col!r}")
        first.setdefault(m.group(1), i)
        end[m.group(1)] = i + 1
    if len(data) == 0:
        if not (type(n_agents) is int and n_agents >= 1):
            raise ConfigError(f"trajectory has no rows and {n_agents!r} agents")
        data = np.zeros((0, n_agents, len(header)))
    elif data.shape[1] != len(header):
        raise ConfigError(
            f"trajectory rows have {data.shape[1]} columns, its header {len(header)}"
        )
    else:
        # rows go snapshot by snapshot, agent ids 0..N-1 in order, one time each
        s = int(np.count_nonzero(data[:, 1] == 0))
        if s == 0 or len(data) % s:
            raise ConfigError("trajectory rows are not a whole number of snapshots")
        data = data.reshape(s, len(data) // s, -1)
    n = data.shape[1]
    bad = np.any(data[:, :, 1] != np.arange(n), axis=1)
    if np.any(bad):
        raise ConfigError(f"agent ids of snapshot {int(np.argmax(bad))} are not 0..{n - 1} in order")
    times = data[:, 0, 0]
    bad = np.any(data[:, :, 0] != times[:, None], axis=1)
    if np.any(bad):
        raise ConfigError(f"times differ within snapshot {int(np.argmax(bad))}")
    # copies, so that the parsed rows are freed on return
    xi = data[:, :, 2 + n_payload:len(want)].copy()
    aux = {}
    for name in first:
        block = data[:, :, first[name]:end[name]]
        aux[name] = xi if _same_bits(block, xi) else block.copy()
    return times.copy(), group.from_payload(data[:, :, 2:2 + n_payload]), xi, aux


def read_metrics_csv(path, n_agents):
    """Rebuild (times, metrics) from the file write_metrics_csv wrote for a run
    of n_agents agents: metrics maps V_* to (S,) and V_k to (S, N) arrays of
    their own.  Any other file is a ConfigError."""
    header, data = _read_csv(path, "metrics")
    if not (type(n_agents) is int and n_agents >= 1):
        raise ConfigError(f"metrics of {n_agents!r} agents")
    # the length first: the agent count comes from the manifest
    if len(header) != 1 + len(METRIC_NAMES) + n_agents or header != _metrics_header(n_agents):
        raise ConfigError(f"unexpected metrics header for {n_agents} agents")
    if len(data) == 0:
        data = np.zeros((0, len(header)))
    elif data.shape[1] != len(header):
        raise ConfigError(f"metrics rows have {data.shape[1]} columns, its header {len(header)}")
    metrics = {name: data[:, i].copy() for i, name in enumerate(METRIC_NAMES, 1)}
    metrics["V_k"] = data[:, 1 + len(METRIC_NAMES):].copy()
    return data[:, 0].copy(), metrics
