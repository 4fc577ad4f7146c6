"""Scenario files: INI-style key/value sections describing a run.

Format (schema 1):

    [scenario]
    schema = 1
    group = se3                 ; so3 | se2 | se3
    agents = 4
    controller = se3_steering_linear
    h = 1e-3
    t_end = 30.0
    seed = 7
    reproject_every = 100       ; optional, 0 disables
    record_every = 10           ; optional
    aux_integrator = euler      ; optional, euler | rk4
    stop_metric = V_tl          ; optional, with stop_below
    stop_below = 1e-9

    [controller.params]         ; optional, controller-specific
    xi = 0 0 0.5                ; e.g. for the constant controller

    [control]                   ; optional; default fully actuated
    preset = se3_steering       ; fully_actuated | se2_steering | se3_steering
                                ; | so3_two_axis | so3_two_axis_drift
    ; or explicit rows:
    ; a = 1 0 0 0 0 0
    ; b_col_0 = 0 0 0 1 0 0     ; orthonormal columns

    [graph]
    kind = complete             ; complete | ring | path | empty | edges | schedule
    edges = 0>1 1>2 2-0         ; kind=edges: j>k directed, j-k both ways
    period = 2.0                ; kind=schedule only (optional)
    segment_0 = 0.0 : 0>1
    segment_1 = 1.0 : 1>2

    [init]
    kind = random               ; random | explicit
    pos_scale = 2.0
    rot_scale = 0.05            ; optional; omit for uniform rotations
    aux_scale = 1.0
    ; explicit poses, one per agent, group payload order:
    ; pose_0 = x y z Q00 Q01 ... Q22
    ; explicit aux rows per controller field:
    ; eta_0 = ...

Unknown sections or keys are rejected, and a file or value that does not
parse is a ConfigError; controller parameters the controller does not declare,
or of the wrong kind, are rejected when the controller is built
(simulator.run).  t_end must be a whole number of steps h.
"""

from __future__ import annotations

import configparser

import numpy as np

from .controllers import CONTROLLERS, ControlSetting
from .graphs import CommGraph, GraphError
from .groups import GROUPS, get_group
from .simulator import ConfigError, InitSpec, ScenarioConfig

SCHEMA = 1

CONTROL_PRESETS = {
    "fully_actuated": lambda dim: ControlSetting.fully(dim),
    "se2_steering": lambda dim: ControlSetting.se2_steering(),
    "se3_steering": lambda dim: ControlSetting.se3_steering(),
    "so3_two_axis": lambda dim: ControlSetting.so3_two_axis(),
    "so3_two_axis_drift": lambda dim: ControlSetting.so3_two_axis(drift=True),
}

_SCENARIO_KEYS = {
    "schema", "group", "agents", "controller", "h", "t_end", "seed",
    "reproject_every", "record_every", "aux_integrator", "stop_metric", "stop_below",
}
_GRAPH_KEYS = {"kind", "edges", "period"}
_INIT_KEYS = {"kind", "pos_scale", "rot_scale", "aux_scale"}
_CONTROL_KEYS = {"preset", "a"}


def _vector(text):
    try:
        return np.array([float(x) for x in text.split()])
    except ValueError as e:
        raise ConfigError(f"bad numeric list {text!r}: {e}") from None


def _scalar(text, key, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _num(section, key, default=None, kind=float):
    if key not in section:
        return default
    return _scalar(section[key], key, kind)


def _stack(rows, what, axis=0):
    if len({len(r) for r in rows}) > 1:
        raise ConfigError(f"{what}: rows of different lengths")
    return np.stack(rows, axis=axis)


def _edges(text):
    out = []
    for tok in text.split():
        sep = ">" if ">" in tok else "-"
        try:
            j, k = (int(x) for x in tok.split(sep))
        except ValueError:
            raise ConfigError(f"graph: bad edge token {tok!r} (use j>k or j-k)") from None
        out.append((j, k))
        if sep == "-":
            out.append((k, j))
    return out


def _parse_graph(section, n):
    keys = set(section.keys())
    segs = {k for k in keys if k.startswith("segment_")}
    unknown = keys - _GRAPH_KEYS - segs
    if unknown:
        raise ConfigError(f"graph: unknown keys {sorted(unknown)}")
    kind = section.get("kind", "complete")
    try:
        if kind == "complete":
            return CommGraph.complete(n)
        if kind == "ring":
            return CommGraph.ring(n)
        if kind == "path":
            return CommGraph.path(n)
        if kind == "empty":
            return CommGraph.empty(n)
        if kind == "edges":
            return CommGraph.static(n, _edges(section.get("edges", "")))
        if kind == "schedule":
            segments = []
            for i in range(len(segs)):
                key = f"segment_{i}"
                if key not in section:
                    raise ConfigError(f"graph: missing {key} (segments must be contiguous)")
                t_str, _, edge_str = section[key].partition(":")
                segments.append((_scalar(t_str, key), _edges(edge_str)))
            period = _num(section, "period")
            return CommGraph(n, segments, period=period)
    except GraphError as e:
        raise ConfigError(f"graph: {e}") from None
    raise ConfigError(
        f"graph: unknown kind {kind!r}; choose from complete, ring, path, empty, edges, schedule"
    )


def _parse_control(section, group):
    keys = set(section.keys())
    cols = {k for k in keys if k.startswith("b_col_")}
    unknown = keys - _CONTROL_KEYS - cols
    if unknown:
        raise ConfigError(f"control: unknown keys {sorted(unknown)}")
    if "preset" in section:
        if cols or "a" in section:
            raise ConfigError("control: give either a preset or explicit a/b columns")
        name = section["preset"]
        if name not in CONTROL_PRESETS:
            raise ConfigError(
                f"control: unknown preset {name!r}; choose from {sorted(CONTROL_PRESETS)}"
            )
        return CONTROL_PRESETS[name](group.dim)
    if not cols or cols != {f"b_col_{i}" for i in range(len(cols))}:
        raise ConfigError("control: give a preset or columns b_col_0, b_col_1, ... without gaps")
    a = _vector(section.get("a", " ".join(["0"] * group.dim)))
    B = _stack([_vector(section[f"b_col_{i}"]) for i in range(len(cols))], "control", axis=1)
    return ControlSetting(a, B)


def _parse_init(section, group, n):
    keys = set(section.keys())
    poses = {k for k in keys if k.startswith("pose_")}
    aux_rows = keys - _INIT_KEYS - poses
    kind = section.get("kind", "random")
    init = InitSpec(
        kind=kind,
        pos_scale=_num(section, "pos_scale", 2.0),
        rot_scale=_num(section, "rot_scale"),
        aux_scale=_num(section, "aux_scale", 1.0),
    )
    if kind == "explicit":
        if poses != {f"pose_{k}" for k in range(n)}:
            raise ConfigError(f"init: explicit state needs pose_0..pose_{n - 1}")
        payload = _stack([_vector(section[f"pose_{k}"]) for k in range(n)], "init")
        if payload.shape[1] != len(group.payload_columns):
            raise ConfigError(
                f"init: pose rows need {len(group.payload_columns)} numbers "
                f"({' '.join(group.payload_columns)})"
            )
        init.g0 = group.from_payload(payload)
    elif poses:
        raise ConfigError("init: pose rows are only allowed with kind = explicit")
    aux0 = {}
    for key in sorted(aux_rows):
        name, _, idx = key.rpartition("_")
        if not name or not idx.isdecimal():
            raise ConfigError(f"init: unknown key {key!r}")
        aux0.setdefault(name, {})[int(idx)] = _vector(section[key])
    if aux0:
        built = {}
        for name, rows in aux0.items():
            if sorted(rows) != list(range(n)):
                raise ConfigError(f"init: aux rows {name}_0..{name}_{n - 1} must all be present")
            built[name] = _stack([rows[k] for k in range(n)], "init")
        init.aux0 = built
    return init


def parse_scenario(path):
    """Read a scenario file into a ScenarioConfig (strict: unknown keys fail)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed scenario file: {e}") from None
    if not read:
        raise ConfigError(f"cannot read scenario file {path!r}")
    known_sections = {"scenario", "controller.params", "control", "graph", "init"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    if "scenario" not in parser:
        raise ConfigError("missing [scenario] section")
    sc = parser["scenario"]
    unknown = set(sc.keys()) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"scenario: unknown keys {sorted(unknown)}")
    if _scalar(sc.get("schema", "-1"), "schema", int) != SCHEMA:
        raise ConfigError(f"schema: expected {SCHEMA}")
    for req in ("group", "agents", "controller", "t_end"):
        if req not in sc:
            raise ConfigError(f"{req}: required key missing")
    group_name = sc["group"].lower()
    if group_name not in GROUPS:
        raise ConfigError(f"group: unknown {group_name!r}; choose from {sorted(GROUPS)}")
    group = get_group(group_name)
    controller = sc["controller"]
    if controller not in CONTROLLERS:
        raise ConfigError(
            f"controller: unknown {controller!r}; choose from {sorted(CONTROLLERS)}"
        )
    n = _num(sc, "agents", kind=int)
    if n < 1:
        raise ConfigError("agents: must be >= 1")

    params = {}
    if "controller.params" in parser:
        for key, val in parser["controller.params"].items():
            if " " in val.strip():
                params[key] = _vector(val)
            elif _is_number(val):
                params[key] = float(val)
            else:
                params[key] = val

    control = None
    if "control" in parser:
        control = _parse_control(parser["control"], group)

    graph = _parse_graph(parser["graph"] if "graph" in parser else {}, n)
    init = _parse_init(parser["init"] if "init" in parser else {}, group, n)

    cfg = ScenarioConfig(
        group=group_name,
        n_agents=n,
        controller=controller,
        graph=graph,
        t_end=_num(sc, "t_end"),
        h=_num(sc, "h", 1e-3),
        seed=_num(sc, "seed", 0, kind=int),
        controller_params=params,
        control=control,
        reproject_every=_num(sc, "reproject_every", 100, kind=int),
        record_every=_num(sc, "record_every", 10, kind=int),
        aux_integrator=sc.get("aux_integrator", "euler"),
        init=init,
        stop_metric=sc.get("stop_metric"),
        stop_below=_num(sc, "stop_below"),
    )
    cfg.validate()
    return cfg


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False
