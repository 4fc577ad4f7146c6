"""Property-based fuzzing of the two file readers: bad input raises a typed error.

Scenario files are a valid base file with some scenario lines dropped and
key = value lines added to its sections and to others; keys are each
section's own (and a few unknown ones), values come from a pool of valid and
malformed tokens, and free-text lines are mixed in.  The pool holds no agent
count above 3, so no draw builds a large graph.  Trajectory files are the
header of an export, whole or cut, with aux columns appended, followed by rows
of numbers or of any cells.  Both runs are derandomized, so they are the same
on every run.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from liecoord.controllers import ControllerError
from liecoord.graphs import GraphError
from liecoord.groups import GROUPS, GroupError
from liecoord.scenario import parse_scenario
from liecoord.simulator import ConfigError, read_trajectory_csv

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
_CELLS = _NUMBERS + ["", " ", "a", "1,", "0x1"]


@FUZZ
@given(st.sampled_from(sorted(GROUPS)), st.data())
def test_read_trajectory_csv_raises_typed_errors_only(tmp_path, group_name, data):
    group = GROUPS[group_name]
    header = ["t", "agent", *group.payload_columns, *(f"xi{i}" for i in range(group.dim))]
    cut = data.draw(st.integers(0, len(header)))
    extra = data.draw(st.lists(st.sampled_from(["xi0", "eta", "eta0", "eta1", "x", "7"]),
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
    path = tmp_path / "fuzz.csv"
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")
    try:
        times, g, xi, aux = read_trajectory_csv(path, group_name)
    except TYPED:
        return
    assert np.shape(times) == (g.shape[0],) and xi.shape[:2] == g.shape[:2]
