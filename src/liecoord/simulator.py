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

A run directory holds trajectory.csv (aux columns named aux.<field><i>),
metrics.csv and manifest.txt, one JSON object holding the run's shape (its
agents and samples, which fix each table's rows), the config as plain data
(ScenarioConfig.record, which config_hash also hashes), the status and the
events.  write_run writes them, and load_run reloads all of them.  In the
CSV files "#" starts no comment: a line or cell holding one is malformed.

Each recorded value is held and written once.  The aux field that a law's
spec names as its commanded velocity (the aux xi of a velocity law) has no
record of its own: it is the Trajectory's xi array itself, it has no
columns, the manifest names it in "aux_is_xi", and a reload sets it to the
reloaded xi.  Any other aux field keeps its columns, also where its values
equal xi.

Export and reload go CSV_BLOCK_ROWS rows at a time: the writer formats a
block built from slices of the recorded arrays, and _read_rows parses a
block of either table into arrays sized by the manifest's row count.
Neither holds a whole table as text or as one float matrix.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .groups import TAU_MANIFOLD, c_einsum, count_nonzero, get_group, require_count
from .controllers import ControlSetting, build_controller
from .graphs import CommGraph

BLOWUP_NORM = 1e12
CSV_BLOCK_ROWS = 256           # rows per format call in the writers and per parse in the reader
MANIFEST_SCHEMA = 4

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
        for name, least in (("n_agents", 1), ("seed", 0), ("record_every", 1),
                            ("reproject_every", 0)):
            require_count(name, getattr(self, name), least, ConfigError)
        for name, kind, what in (("group", str, "a group name"), ("graph", CommGraph, "a CommGraph"),
                                 ("h", numbers.Real, "a number"), ("t_end", numbers.Real, "a number"),
                                 ("stop_below", (numbers.Real, type(None)), "a number or None")):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name}: must be {what}, not {getattr(self, name)!r}")
        if not (self.h > 0.0):
            raise ConfigError("h: must be > 0")
        if not (self.t_end > 0.0):
            raise ConfigError("t_end: must be > 0")
        steps = self.t_end / self.h
        if not math.isfinite(steps) or round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(f"t_end: {self.t_end!r} is not a positive whole number of steps "
                              f"h={self.h!r}")
        if self.graph.n != self.n_agents:
            raise ConfigError("graph: agent count differs from the scenario")
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

    @classmethod
    def from_record(cls, rec):
        """The config whose record() is rec: the graph, the control setting,
        the init arrays and the list-valued controller parameters are built
        again.  A record that builds no config is a ConfigError."""
        def arrays(d):
            return {k: np.asarray(v) if isinstance(v, list) else v for k, v in d.items()}

        try:
            g, init = rec["graph"], arrays(rec["init"])
            return cls(**{
                **rec,
                "graph": CommGraph(g["n"], list(zip(g["breakpoints"], g["edge_sets"])),
                                   period=g["period"]),
                "control": None if rec["control"] is None else ControlSetting(**rec["control"]),
                "controller_params": arrays(rec["controller_params"]),
                "init": InitSpec(**{**init, "aux0": None if init["aux0"] is None
                                    else arrays(init["aux0"])}),
            })
        except (TypeError, KeyError, ValueError, AttributeError) as e:
            raise ConfigError(f"config record does not build a config: {e!r}") from None


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
        if not len(self.times):
            raise ConfigError("trajectory has no recorded samples")
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
            if k not in aux0:
                raise ConfigError(f"init: controller has no auxiliary state {k!r}")
            aux0[k] = np.asarray(v, dtype=float)
    controller.validate_initial(g0, aux0)
    return SwarmState(0.0, g0, {k: v.copy() for k, v in aux0.items()})


def _all_finite(x):
    """np.isfinite(x).all() as two C-level calls: the C count_nonzero that
    groups imports skips the Python wrappers of .all() and np.count_nonzero."""
    return count_nonzero(np.isfinite(x)) == x.size


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
    xi_aux = controller.spec.xi_aux     # recorded once, as xi

    n_steps = round(cfg.t_end / cfg.h)
    s_max = math.ceil(n_steps / cfg.record_every) + 1
    try:
        times = np.zeros(s_max)
        g_rec = np.zeros((s_max, cfg.n_agents) + group.element_shape)
        xi_rec = np.zeros((s_max, cfg.n_agents, group.dim))
        aux_rec = {
            k: np.zeros((s_max,) + v.shape) for k, v in state.aux.items() if k != xi_aux
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
                              cfg.graph, state.t, cs=controller.cs)
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
        aux={k: xi if k == xi_aux else aux_rec[k][:s] for k in state.aux},
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

def _trajectory_columns(group):
    """The columns every trajectory file starts with: t, agent, pose, xi."""
    return ["t", "agent", *group.payload_columns, *(f"xi{i}" for i in range(group.dim))]


def aux_columns(aux):
    """Column names of the aux fields: "aux." before each, so that none can
    repeat a pose or velocity column (an aux field may be named xi)."""
    cols = []
    for name, arr in aux.items():
        cols.extend(f"aux.{name}{i}" for i in range(arr.shape[-1]))
    return cols


def _write_rows(path, header, samples, tails, cells):
    """Write a header line and samples snapshots of len(tails) rows, whole
    snapshots and about CSV_BLOCK_ROWS rows per %-format call, which bounds the
    arrays, Python floats and text alive at a time.  cells(sl) builds the
    snapshots sl as rows of cells: row s is a snapshot, its time, formatted
    once and copied to each of its rows, then its rows' values.  tails[j] is
    the text of row j after the time, with "%.17g" per value."""
    per = max(1, CSV_BLOCK_ROWS // len(tails))
    # "\0" starts a snapshot, and "\x02" stands for its time in its later rows
    template = "\0%.17g" + tails[0] + "".join("\x02" + t for t in tails[1:])
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, samples, per):
            block = cells(slice(lo, lo + per))
            for snapshot in (template * len(block) % tuple(block.ravel().tolist())).split("\0")[1:]:
                f.write(snapshot.replace("\x02", snapshot[:snapshot.index(",")]))


def write_trajectory_csv(traj, path):
    """One row per agent and snapshot, snapshot by snapshot with agent ids
    0..N-1 in order: t, agent, pose payload, xi, aux; "%.17g" per value.  t is
    formatted once per snapshot and the ids once per file.  A block of
    snapshots is built from slices of the recorded arrays at a time, so the
    whole table is never held.  An aux field that is traj.xi (a velocity law's
    aux xi) has no columns, and the manifest names it: a 256-agent SE(3)
    lic_consensus row holds 20 columns, not 26."""
    group = traj.group
    aux = {k: v for k, v in traj.aux.items() if v is not traj.xi}
    header = _trajectory_columns(group) + aux_columns(aux)

    def cells(sl):
        body = np.concatenate([group.to_payload(traj.g[sl]), traj.xi[sl],
                               *(v[sl] for v in aux.values())], axis=-1, dtype=float)
        return np.column_stack([traj.times[sl], body.reshape(len(body), -1)])

    tail = ",%.17g" * (len(header) - 2) + "\n"
    _write_rows(path, header, len(traj.times), [f",{k}{tail}" for k in range(traj.n_agents)],
                cells)


def _metrics_header(n_agents):
    return ["t", *METRIC_NAMES, *(f"V_k_{k}" for k in range(n_agents))]


def write_metrics_csv(traj, path):
    header = _metrics_header(traj.n_agents)
    m = traj.metrics
    _write_rows(path, header, len(traj.times), [",%.17g" * (len(header) - 1) + "\n"],
                lambda sl: np.column_stack([traj.times[sl], *(m[k][sl] for k in METRIC_NAMES),
                                            m["V_k"][sl]]))


def write_manifest(traj, path):
    """Write the run as one JSON object: schema, group, agents, samples,
    config_hash, config (ScenarioConfig.record), status, events and aux_is_xi."""
    cfg = traj.config
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "group": traj.group_name,
        "agents": traj.n_agents,
        "samples": len(traj.times),
        "config_hash": None if cfg is None else cfg.config_hash(),
        "config": None if cfg is None else cfg.record(),
        "status": "completed" if traj.completed else "aborted",
        "events": [asdict(e) for e in traj.events],
        "aux_is_xi": [name for name, v in traj.aux.items() if v is traj.xi],
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=1)


def read_manifest(path):
    """Load a manifest that write_manifest wrote, the one check of a run's
    shape; any other, also of another schema, is a ConfigError."""
    try:
        with open(path) as f:
            man = json.load(f)
    except ValueError as e:     # also a UnicodeDecodeError: the file is not text
        raise ConfigError(f"manifest is not JSON: {e}") from None
    if not isinstance(man, dict):
        raise ConfigError("manifest is not a JSON object")
    if man.get("schema") != MANIFEST_SCHEMA:
        raise ConfigError(f"manifest has schema {man.get('schema')!r}, not {MANIFEST_SCHEMA}")
    for key, least in (("agents", 1), ("samples", 0)):
        # type() and not isinstance: JSON true is no count
        if not (type(man.get(key)) is int and man[key] >= least):
            raise ConfigError(f"manifest {key}: must be an integer >= {least}, not {man.get(key)!r}")
    names = man.get("aux_is_xi")
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)
            and isinstance(man.get("group"), str) and "status" in man
            and isinstance(man.get("events"), list)
            and all(isinstance(e, dict) and e.keys() == _EVENT_KEYS for e in man["events"])):
        raise ConfigError("manifest without group, status, events and aux_is_xi field names")
    return man


def _aux_layout(header, start):
    """{field: (first, end)} of the aux columns header[start:]: each field's
    columns are aux.<field>0 .. aux.<field>{d-1}, together and in order, and
    no field comes twice.  Any other column is a ConfigError."""
    layout, i = {}, start
    while i < len(header):
        name = header[i][4:-1]
        if not (header[i] == f"aux.{name}0" and name) or name in layout:
            raise ConfigError(f"unexpected trajectory column {header[i]!r}")
        end = i + 1
        while end < len(header) and header[end] == f"aux.{name}{end - i}":
            end += 1
        layout[name], i = (i, end), end
    return layout


def _read_rows(path, what, rows, spans_of):
    """Exactly rows rows of a CSV table that a writer here wrote, as arrays of
    their own: spans_of(header) checks the header cells and returns {name:
    (first, end, shape, convert)}, and array name holds cells first:end of
    each row as convert(cells), or reshaped to shape where convert is None.

    "#" starts no comment, and a row that numpy does not parse, or of other
    than the header's cell count, is a ConfigError; so is a table of other
    than rows rows, and, before anything is allocated, a count that a file of
    S bytes cannot hold (a line of C cells holds C characters, C - 1 commas
    and a line end: rows <= S // 2C).  numpy parses CSV_BLOCK_ROWS rows at a
    time into the arrays from one open handle, and then one row more."""
    with open(path) as f:
        try:
            header = f.readline().rstrip("\n").split(",")
        except ValueError as e:     # bytes that are not text
            raise ConfigError(f"malformed {what} row: {e}") from e
        spans = spans_of(header)
        if rows > (most := os.fstat(f.fileno()).st_size // (2 * len(header))):
            raise ConfigError(f"{what} has at most {most} rows, not {rows}")
        try:
            out = {name: np.empty((rows,) + shape) for name, (_, _, shape, _) in spans.items()}
        except (ValueError, MemoryError):
            raise ConfigError(f"{what}: {rows} rows cannot be allocated") from None

        def parse(r, ask):       # rows r .. r + ask - 1, or fewer where the file ends
            try:
                block = np.loadtxt(f, delimiter=",", ndmin=2, comments=None, max_rows=ask)
            except ValueError as e:
                raise ConfigError(f"malformed {what} row: {e} "
                                  f"(numpy counts rows from data row {r})") from e
            if len(block) and block.shape[1] != len(header):
                raise ConfigError(f"{what} rows have {block.shape[1]} columns, "
                                  f"its header {len(header)}")
            return block

        with warnings.catch_warnings():
            # numpy warns of a block without rows, which ends the file
            warnings.simplefilter("ignore", UserWarning)
            for r in range(0, rows, CSV_BLOCK_ROWS):
                ask = min(CSV_BLOCK_ROWS, rows - r)
                block = parse(r, ask)
                if len(block) < ask:
                    raise ConfigError(f"{what} has {r + len(block)} rows, not {rows}")
                for name, (first, end, shape, convert) in spans.items():
                    cells = block[:, first:end]
                    out[name][r:r + len(block)] = (cells.reshape((-1,) + shape)
                                                   if convert is None else convert(cells))
            if len(parse(rows, 1)):
                raise ConfigError(f"{what} has {rows + 1} or more rows, not {rows}")
    return out


def read_trajectory_csv(path, group_name, samples, n_agents):
    """Rebuild (times, g, xi, aux) from an exported trajectory file of samples
    snapshots of n_agents rows: rows as _read_rows reads them, snapshot by
    snapshot, agent ids 0..n_agents-1 in order, one time each; any other file
    is a ConfigError.  aux holds the aux fields that have columns, each an
    array that owns its memory."""
    group = get_group(group_name)
    want = _trajectory_columns(group)
    pose = len(want) - group.dim        # the pose payload is columns 2 .. pose - 1

    def spans(header):
        if header[: len(want)] != want:
            raise ConfigError(f"unexpected trajectory header for group {group_name}")
        return {"lead": (0, 2, (2,), None),     # t and agent id of each row, for the checks
                "g": (2, pose, group.element_shape, group.from_payload),
                "xi": (pose, len(want), (group.dim,), None),
                **{"aux." + name: (first, end, (end - first,), None)
                   for name, (first, end) in _aux_layout(header, len(want)).items()}}

    cols = _read_rows(path, "trajectory", samples * n_agents, spans)
    lead = cols.pop("lead").reshape(samples, n_agents, 2)
    times = lead[:, 0, 0].copy()
    for wrong, what in (
            (lead[:, :, 1] != np.arange(n_agents), f"agent ids are not 0..{n_agents - 1}"),
            (lead[:, :, 0] != times[:, None], "times differ")):
        bad = np.any(wrong, axis=1)
        if np.any(bad):
            raise ConfigError(f"snapshot {int(np.argmax(bad))}: {what}")
    # in place: split the rows by snapshot
    for arr in cols.values():
        arr.resize((samples, n_agents) + arr.shape[1:], refcheck=False)
    g, xi = cols.pop("g"), cols.pop("xi")
    return times, g, xi, {name[4:]: arr for name, arr in cols.items()}


def read_metrics_csv(path, samples, n_agents):
    """Rebuild (times, metrics) from the file write_metrics_csv wrote for a run
    of samples snapshots of n_agents agents: metrics maps V_* to (S,) and V_k
    to (S, N) arrays of their own.  Any other file is a ConfigError."""
    def spans(header):
        # the length first: the agent count comes from the manifest
        if len(header) != 1 + len(METRIC_NAMES) + n_agents or header != _metrics_header(n_agents):
            raise ConfigError(f"unexpected metrics header for {n_agents} agents")
        return {**{name: (i, i + 1, (), None) for i, name in enumerate(("t", *METRIC_NAMES))},
                "V_k": (1 + len(METRIC_NAMES), len(header), (n_agents,), None)}

    metrics = _read_rows(path, "metrics", samples, spans)
    return metrics.pop("t"), metrics


def write_run(traj, out):
    """Write a run directory: trajectory.csv, metrics.csv and manifest.txt."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_metrics_csv(traj, out / "metrics.csv")
    write_manifest(traj, out / "manifest.txt")


def load_run(run_dir):
    """Rebuild a Trajectory, with its events, metrics and config, and return it
    with its manifest, from the three files that write_run wrote: both tables
    hold the manifest's samples (none if the run ended before its first) of
    its agents, and the aux fields named in aux_is_xi are the reloaded xi."""
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir / "manifest.txt")
    shape = manifest["samples"], manifest["agents"]
    metric_times, metrics = read_metrics_csv(run_dir / "metrics.csv", *shape)
    times, g, xi, aux = read_trajectory_csv(run_dir / "trajectory.csv", manifest["group"], *shape)
    if metric_times.tobytes() != times.tobytes():
        raise ConfigError("metrics times differ from the trajectory's")
    for name in manifest["aux_is_xi"]:
        if name in aux:
            raise ConfigError(f"aux field {name!r} is named as xi and has columns of its own")
        aux[name] = xi
    config = manifest.get("config")
    if config is not None:
        config = ScenarioConfig.from_record(config)
        if config.config_hash() != manifest.get("config_hash"):
            raise ConfigError("config_hash is not the hash of the manifest's config")
    return Trajectory(
        group_name=manifest["group"],
        times=times, g=g, xi=xi, aux=aux, metrics=metrics,
        events=[Event(**e) for e in manifest["events"]],
        completed=manifest["status"] == "completed",
        config=config,
    ), manifest
