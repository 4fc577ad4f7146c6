"""Property-based fuzzing of the file readers: bad input raises a typed error.

Scenario files are a valid base file with some scenario lines dropped and
key = value lines added to its sections and to others; keys are each
section's own (and a few unknown ones), values come from a pool of valid and
malformed tokens, and free-text lines are mixed in.  The pool holds no agent
count above 3, so no draw builds a large graph.  Trajectory files are the
header of an export, whole or cut, with aux columns appended (in and out of
their layout), followed by rows of numbers or of any cells, read as the
snapshots of an agent count that their rows fill or as any other small
shape, in blocks of the default size and of one row.  Metrics files are built the same way, their rows
starting with the trajectory's times or with others, and read through
cli.load_run next to a valid trajectory file and manifest.  Manifests are a
valid one with keys dropped and keys set to values from a pool, as JSON text,
cut or whole, or free text; they are read through cli.load_run next to
valid trajectory and metrics files.  All runs are derandomized, so they are the same on
every run.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from liecoord import cli, simulator
from liecoord.controllers import ControllerError
from liecoord.graphs import GraphError
from liecoord.groups import GROUPS, GroupError
from liecoord.scenario import parse_scenario
from liecoord.simulator import (
    CSV_BLOCK_ROWS,
    METRIC_NAMES,
    ConfigError,
    Event,
    read_trajectory_csv,
)

pytestmark = pytest.mark.usefixtures("hypothesis_without_local_constants")
TYPED = (ConfigError, ControllerError, GraphError, GroupError)
FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_KEYS = {
    "scenario": ["schema", "group", "agents", "controller", "h", "t_end", "seed",
                 "reproject_every", "record_every", "aux_integrator", "stop_metric",
                 "stop_below"],
    "controller.params": ["xi", "xi_r", "monitor_tol", "turbo"],
    "control": ["preset", "a", "b_col_0", "b_col_1", "b_col_x"],
    "graph": ["kind", "edges", "period", "segment_0", "segment_1", "segment_x"],
    "init": ["kind", "pos_scale", "rot_scale", "aux_scale", "pose_0", "pose_1", "pose_x",
             "eta_0", "eta_1", "xi_0", "xi_1", "eta_\u00b2"],
}
_VALUES = [
    "1", "2", "3", "0", "-1", "1e-2", "0.5", "1.0", "nan", "inf", "-inf", "abc", "", "%",
    "1 0", "1 0 0", "0 0 1", "0 0 0 1 0 0", "1 0 0 0 0 0", "nan 0 0",
    "0>1", "0-1 1>2", "0>a", "0>1>2", "1-", "5>0", "0>0",
    "0.0 : 0>1", "0.5 : 1>0", "x : 0>1", "0.0 0.1 : 0>1", ": 0>1",
    "so3", "se2", "se3", "SE2", "zero", "constant", "ric_consensus", "lic_consensus",
    "tc_left_cascade", "underactuated_lic", "se3_steering_linear",
    "complete", "ring", "path", "empty", "edges", "schedule", "random", "explicit",
    "euler", "rk4", "V_tl", "V_k", "V_x", "fully_actuated", "se2_steering", "so3_two_axis",
]
_BASE = {"scenario": {"schema": "1", "group": "se2", "agents": "2", "controller": "zero",
                      "h": "1e-2", "t_end": "1.0"},
         "graph": {"kind": "complete"}}

_entry = st.sampled_from(sorted(_KEYS)).flatmap(lambda sec: st.tuples(
    st.just(sec), st.sampled_from(_KEYS[sec]), st.sampled_from(_VALUES)))
_free_line = st.text(alphabet=st.sampled_from(list("[]=:;#%>- 01ax\t")), max_size=12)


@FUZZ
@given(st.lists(_entry, max_size=10), st.sets(st.sampled_from(sorted(_BASE["scenario"])),
                                               max_size=1),
       st.lists(st.tuples(st.integers(0, 30), _free_line), max_size=1))
def test_parse_scenario_raises_typed_errors_only(tmp_path, entries, dropped, free):
    sections = {sec: {k: v for k, v in body.items() if k not in dropped}
                for sec, body in _BASE.items()}
    for sec, key, value in entries:
        sections.setdefault(sec, {})[key] = value
    lines = [x for sec, body in sections.items()
             for x in [f"[{sec}]", *(f"{k} = {v}" for k, v in body.items())]]
    for pos, line in free:
        lines.insert(min(pos, len(lines)), line)
    path = tmp_path / "fuzz.ini"
    path.write_text("\n".join(lines) + "\n")
    try:
        parse_scenario(str(path))
    except TYPED:
        pass


_NUMBERS = ["0", "1", "2", "-0", "0.5", "1e308", "nan", "inf"]
_CELLS = _NUMBERS + ["", " ", "a", "1,", "0x1", "#", "1#2"]


@FUZZ
@given(st.sampled_from(sorted(GROUPS)), st.data())
def test_read_trajectory_csv_raises_typed_errors_only(tmp_path, monkeypatch, group_name, data):
    group = GROUPS[group_name]
    header = ["t", "agent", *group.payload_columns, *(f"xi{i}" for i in range(group.dim))]
    cut = data.draw(st.integers(0, len(header)))
    extra = data.draw(st.lists(st.sampled_from(["xi0", "eta", "eta0", "eta1", "x", "7",
                                                "aux.eta0", "aux.eta1", "aux.xi0", "aux.",
                                                "aux.beta0", "aux.eta7", "aux.0"]),
                               max_size=3))
    header = header[:cut] + extra if data.draw(st.booleans()) else header + extra
    n_cols = data.draw(st.integers(1, len(header) + 1))
    rows = data.draw(st.lists(
        st.one_of(
            st.lists(st.sampled_from(_NUMBERS), min_size=n_cols, max_size=n_cols),
            st.lists(st.sampled_from(_CELLS), max_size=len(header) + 2),
        ),
        max_size=6,
    ))
    n_agents = data.draw(st.integers(1, 3))
    samples = data.draw(st.one_of(st.just(len(rows) // n_agents), st.integers(0, 4)))
    path = tmp_path / "fuzz.csv"
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")
    outcomes = []
    for block_rows in (CSV_BLOCK_ROWS, 1):      # in blocks of the default size, and of one row
        monkeypatch.setattr(simulator, "CSV_BLOCK_ROWS", block_rows)
        try:
            times, g, xi, aux = read_trajectory_csv(path, group_name, samples, n_agents)
        except TYPED as e:
            outcomes.append(type(e))
            continue
        assert times.shape == (samples,) and g.shape[:2] == xi.shape[:2] == (samples, n_agents)
        outcomes.append([a.tobytes() for a in (times, g, xi, *aux.values())])
    assert outcomes[0] == outcomes[1]


_EVENT = {"t": 0.5, "kind": "blowup", "agent": None, "detail": "d", "count": 1}
_MANIFEST_VALUES = st.one_of(
    st.sampled_from([None, True, 0, 1, 2, 2.0, 3, 4, -1, float("nan"), "", "se2", "so3", "SE2",
                     "x", "xi", "completed", "aborted", [], {}, [1], [_EVENT], [[]],
                     ["xi"], ["eta"], ["xi", "eta"], ["xi", "xi"], ["xi", 1]]),
    st.lists(st.dictionaries(st.sampled_from(sorted(_EVENT) + ["x"]),
                             st.sampled_from([None, 0, 1.5, "blowup", [], {}]), max_size=6),
             max_size=2),
)
_MANIFEST_BASE = {"schema": 4, "group": "se2", "agents": 1, "samples": 3, "config_hash": None,
                  "config": None, "status": "completed", "events": [_EVENT],
                  "aux_is_xi": ["xi"]}
_SE2_TRAJECTORY = "t,agent,x,y,theta,xi0,xi1,xi2\n" + "".join(
    f"{t},0,0,0,0,0,0,0\n" for t in (0.0, 0.5, 1.0))
_SE2_METRICS = "t,V_r,V_l,V_tr,V_tl,V_k_0\n" + "".join(f"{t},0,0,0,0,0\n" for t in (0.0, 0.5, 1.0))


@FUZZ
@given(st.sampled_from([1, 1, 2, 0, None, True, "1"]), st.data())
def test_load_run_metrics_raise_typed_errors_only(tmp_path, agents, data):
    # rows start with the times of _SE2_TRAJECTORY, or other times, or any cells
    header = ["t", *METRIC_NAMES, "V_k_0"]
    cut = data.draw(st.integers(0, len(header)))
    extra = data.draw(st.lists(st.sampled_from(["V_k_0", "V_k_1", "V_r", "t", "x", ""]),
                               max_size=2))
    header = data.draw(st.sampled_from([header, header + extra, header[:cut] + extra]))
    n_cols = data.draw(st.one_of(st.just(max(len(header), 1)), st.integers(1, len(header) + 1)))
    times = data.draw(st.one_of(st.just(["0", "0.5", "1"]),
                                st.lists(st.sampled_from(["0", "-0", "0.5", "1", "nan"]),
                                         max_size=4)))
    rows = [[t] + data.draw(st.lists(st.sampled_from(_NUMBERS), min_size=n_cols - 1,
                                     max_size=n_cols - 1)) for t in times]
    rows += data.draw(st.lists(st.lists(st.sampled_from(_CELLS), max_size=len(header) + 2),
                               max_size=1))
    (tmp_path / "metrics.csv").write_text(
        "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")
    (tmp_path / "manifest.txt").write_text(json.dumps(dict(_MANIFEST_BASE, agents=agents)))
    (tmp_path / "trajectory.csv").write_text(_SE2_TRAJECTORY)
    try:
        traj, _ = cli.load_run(tmp_path)
    except TYPED:
        return
    assert all(traj.metrics[name].shape == (3,) for name in METRIC_NAMES)
    assert traj.metrics["V_k"].shape == (3, 1)


@FUZZ
@given(st.sets(st.sampled_from(sorted(_MANIFEST_BASE)), max_size=2),
       st.dictionaries(st.sampled_from(sorted(_MANIFEST_BASE) + ["x"]), _MANIFEST_VALUES,
                       max_size=3),
       st.one_of(st.none(), st.integers(0, 200)), st.one_of(st.none(), _free_line))
def test_load_run_manifest_raises_typed_errors_only(tmp_path, dropped, entries, cut, free):
    man = {k: v for k, v in _MANIFEST_BASE.items() if k not in dropped}
    man.update(entries)
    text = json.dumps(man)[:cut] if free is None else free
    (tmp_path / "manifest.txt").write_text(text)
    (tmp_path / "trajectory.csv").write_text(_SE2_TRAJECTORY)
    (tmp_path / "metrics.csv").write_text(_SE2_METRICS)
    try:
        traj, _ = cli.load_run(tmp_path)
    except TYPED:
        return
    assert all(isinstance(e, Event) for e in traj.events)
    assert traj.completed == (man["status"] == "completed")
