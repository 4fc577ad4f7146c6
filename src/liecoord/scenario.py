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
    xi = 0 0 0.5                ; an algebra vector, e.g. for the constant controller

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

A key that is left out takes the default of its ScenarioConfig or InitSpec
field (FIELDS maps each such key to its field and type).  Rows of one family
(segment_i, b_col_i, pose_k, <aux>_k) are numbered from 0 without gaps.
Unknown sections or keys are rejected, and a file or value that does not
parse is a ConfigError.  Every controller parameter is read as a numeric list;
one the controller does not declare, or that is not an algebra vector of the
group, is rejected when the controller is built (simulator.run).  t_end must
be a whole number of steps h, at least one.
"""

from __future__ import annotations

import configparser

import numpy as np

from .controllers import CONTROLLERS, ControlSetting
from .graphs import CommGraph, GraphError
from .groups import GROUPS, get_group, require_count
from .simulator import ConfigError, InitSpec, ScenarioConfig

SCHEMA = 1

CONTROL_PRESETS = {
    "fully_actuated": lambda dim: ControlSetting.fully(dim),
    "se2_steering": lambda dim: ControlSetting.se2_steering(),
    "se3_steering": lambda dim: ControlSetting.se3_steering(),
    "so3_two_axis": lambda dim: ControlSetting.so3_two_axis(),
    "so3_two_axis_drift": lambda dim: ControlSetting.so3_two_axis(drift=True),
}

# graph kinds built from the agent count alone; edges and schedule read more keys
GRAPH_KINDS = {kind: getattr(CommGraph, kind) for kind in ("complete", "ring", "path", "empty")}

# The [scenario] and [init] keys that set the ScenarioConfig or InitSpec field
# of the same name, with the field's type.  A key left out keeps the field's
# default; sweep --grid sets the [scenario] ones.
FIELDS = {
    "scenario": {"t_end": float, "h": float, "seed": int, "reproject_every": int,
                 "record_every": int, "aux_integrator": str, "stop_metric": str,
                 "stop_below": float},
    "init": {"kind": str, "pos_scale": float, "rot_scale": float, "aux_scale": float},
}


def _vector(section, where, key):
    """The numeric list of section[key]; a ConfigError names where and key."""
    text = section[key]
    try:
        return np.array([float(x) for x in text.split()])
    except ValueError as e:
        raise ConfigError(f"{where}: {key}: bad numeric list {text!r}: {e}") from None


def _scalar(text, key, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {'an integer' if kind is int else 'a number'}, "
                          f"got {text!r}") from None


def read_fields(section, name):
    """The FIELDS[name] keys that a section (any mapping) sets, each read by
    its type: {field: value}."""
    return {key: _scalar(section[key], key, kind)
            for key, kind in FIELDS[name].items() if key in section}


def _family(section, name):
    """The keys name_<index> of a section."""
    return {k for k in section if k.rpartition("_")[0] == name}


def _rows(section, where, name, n=None):
    """The keys of the rows name_0, name_1, ... of a section in index order:
    n of them, or else all, and at least one.  A ConfigError names the first
    row that is missing, or one beyond the n."""
    have = _family(section, name)
    want = [f"{name}_{i}" for i in range(max(len(have), 1) if n is None else n)]
    for key in want:
        if key not in have:
            raise ConfigError(f"{where}: missing {key} (rows {name}_0, {name}_1, ... without gaps)")
    extra = sorted(have.difference(want))
    if extra:
        raise ConfigError(f"{where}: {extra[0]} is beyond {want[-1]}, one row per agent")
    return want


def _stack(section, where, name, n=None, axis=0):
    """The numeric lists of the rows name_0, name_1, ... (as _rows), stacked on axis."""
    rows = [_vector(section, where, key) for key in _rows(section, where, name, n)]
    if len({len(r) for r in rows}) > 1:
        raise ConfigError(f"{where}: rows of different lengths")
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
    unknown = set(section) - {"kind", "edges", "period"} - _family(section, "segment")
    if unknown:
        raise ConfigError(f"graph: unknown keys {sorted(unknown)}")
    kind = section.get("kind", "complete")
    try:
        if kind in GRAPH_KINDS:
            return GRAPH_KINDS[kind](n)
        if kind == "edges":
            return CommGraph.static(n, _edges(section.get("edges", "")))
        if kind == "schedule":
            segments = []
            for key in _rows(section, "graph", "segment"):
                t_str, _, edge_str = section[key].partition(":")
                segments.append((_scalar(t_str, key), _edges(edge_str)))
            period = _scalar(section["period"], "period") if "period" in section else None
            return CommGraph(n, segments, period=period)
    except GraphError as e:
        raise ConfigError(f"graph: {e}") from None
    raise ConfigError(
        f"graph: unknown kind {kind!r}; choose from {', '.join(GRAPH_KINDS)}, edges, schedule"
    )


def _parse_control(section, group):
    unknown = set(section) - {"preset", "a"} - _family(section, "b_col")
    if unknown:
        raise ConfigError(f"control: unknown keys {sorted(unknown)}")
    if "preset" in section:
        if set(section) != {"preset"}:
            raise ConfigError("control: give either a preset or explicit a/b columns")
        name = section["preset"]
        if name not in CONTROL_PRESETS:
            raise ConfigError(
                f"control: unknown preset {name!r}; choose from {sorted(CONTROL_PRESETS)}"
            )
        return CONTROL_PRESETS[name](group.dim)
    B = _stack(section, "control", "b_col", axis=1)
    a = _vector(section, "control", "a") if "a" in section else np.zeros(group.dim)
    return ControlSetting(a, B)


def _parse_init(section, group, n):
    init = InitSpec(**read_fields(section, "init"))
    poses = _family(section, "pose")
    if init.kind == "explicit":
        payload = _stack(section, "init", "pose", n)
        if payload.shape[1] != len(group.payload_columns):
            raise ConfigError(
                f"init: pose rows need {len(group.payload_columns)} numbers "
                f"({' '.join(group.payload_columns)})"
            )
        init.g0 = group.from_payload(payload)
    elif poses:
        raise ConfigError("init: pose rows are only allowed with kind = explicit")
    aux = {}        # auxiliary rows <name>_k, the fields in the order of their keys
    for key in sorted(set(section) - set(FIELDS["init"]) - poses):
        name, _, idx = key.rpartition("_")
        if not name or not idx.isdecimal():
            raise ConfigError(f"init: unknown key {key!r}")
        if name not in aux:
            aux[name] = _stack(section, "init", name, n)
    if aux:
        init.aux0 = aux
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
    unknown = set(sc) - {"schema", "group", "agents", "controller"} - set(FIELDS["scenario"])
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
    n = _scalar(sc["agents"], "agents", int)
    require_count("agents", n, 1, ConfigError)

    params = parser["controller.params"] if "controller.params" in parser else {}
    cfg = ScenarioConfig(
        group=group_name,
        n_agents=n,
        controller=controller,
        controller_params={key: _vector(params, "controller.params", key) for key in params},
        control=_parse_control(parser["control"], group) if "control" in parser else None,
        graph=_parse_graph(parser["graph"] if "graph" in parser else {}, n),
        init=_parse_init(parser["init"] if "init" in parser else {}, group, n),
        **read_fields(sc, "scenario"),
    )
    cfg.validate()
    return cfg
