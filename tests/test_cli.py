"""Scenario parsing and the command-line front end."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from liecoord import analysis, cli, simulator
from liecoord.controllers import CONTROLLERS, ControllerError, build_controller
from liecoord.graphs import CommGraph, GraphError
from liecoord.groups import GROUPS, GroupError
from liecoord.scenario import parse_scenario
from liecoord.simulator import ConfigError, ScenarioConfig

from helpers import edges_at, traced_peak

MINIMAL = """
[scenario]
schema = 1
group = se2
agents = 1
controller = zero
h = 1e-2
t_end = 1.0
seed = 0

[graph]
kind = empty
"""

RIC_SE2 = """
[scenario]
schema = 1
group = se2
agents = 3
controller = ric_consensus
h = 1e-3
t_end = {t_end}
seed = 5
record_every = 10

[graph]
kind = ring
"""

TC_OPEN_LOOP = """
[scenario]
schema = 1
group = se2
agents = 3
controller = constant
h = 1e-2
t_end = 6.0
seed = 2

[controller.params]
xi = 1.0 0.0 0.7

[graph]
kind = complete

[init]
kind = explicit
pose_0 = 0 0 0
pose_1 = {p1}
pose_2 = {p2}
"""


def _write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _tc_open_loop_text():
    # two extra agents on the circle of xi = (e1, 0.7): group elements
    # exp(s * xi) relative to agent 0
    from liecoord.groups import SE2

    xi = np.array([1.0, 0.0, 0.7])
    rows = []
    for s in (0.9, 1.7):
        g = SE2.exp(s * xi)
        rows.append(" ".join(format(v, ".17g") for v in g))
    return TC_OPEN_LOOP.format(p1=rows[0], p2=rows[1])


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def test_parse_minimal(tmp_path):
    cfg = parse_scenario(_write(tmp_path, MINIMAL))
    assert cfg.group == "se2" and cfg.n_agents == 1 and cfg.controller == "zero"
    assert cfg.h == 1e-2 and cfg.t_end == 1.0
    # every key left out takes the default of its dataclass field
    bare = "[scenario]\nschema = 1\ngroup = se2\nagents = 2\ncontroller = zero\nt_end = 1.0\n"
    want = ScenarioConfig(group="se2", n_agents=2, controller="zero",
                          graph=CommGraph.complete(2), t_end=1.0)
    assert parse_scenario(_write(tmp_path, bare, "bare.ini")).record() == want.record()


def test_parse_rejects_unknown_key(tmp_path):
    bad = MINIMAL.replace("seed = 0", "seed = 0\nturbo = yes")
    with pytest.raises(ConfigError, match="turbo"):
        parse_scenario(_write(tmp_path, bad))


def test_parse_rejects_unknown_section(tmp_path):
    with pytest.raises(ConfigError, match="sections"):
        parse_scenario(_write(tmp_path, MINIMAL + "\n[plotting]\ncolor = red\n"))


def test_parse_rejects_unknown_controller(tmp_path):
    bad = MINIMAL.replace("controller = zero", "controller = warp_drive")
    with pytest.raises(ConfigError, match="zero"):
        # the message lists the valid controllers
        parse_scenario(_write(tmp_path, bad))


def test_parse_rejects_bad_agents(tmp_path):
    bad = MINIMAL.replace("agents = 1", "agents = 0")
    with pytest.raises(ConfigError, match="agents"):
        parse_scenario(_write(tmp_path, bad))


def test_parse_rejects_wrong_schema(tmp_path):
    bad = MINIMAL.replace("schema = 1", "schema = 9")
    with pytest.raises(ConfigError, match="schema"):
        parse_scenario(_write(tmp_path, bad))


def test_parse_schedule_graph_and_control(tmp_path):
    text = """
[scenario]
schema = 1
group = se3
agents = 3
controller = se3_steering_linear
t_end = 1.0

[control]
preset = se3_steering

[graph]
kind = schedule
period = 2.0
segment_0 = 0.0 : 0>1
segment_1 = 1.0 : 1>2 2-0
"""
    cfg = parse_scenario(_write(tmp_path, text))
    assert cfg.graph.period == 2.0
    assert edges_at(cfg.graph, 0.5) == frozenset({(0, 1)})
    assert edges_at(cfg.graph, 1.5) == frozenset({(1, 2), (2, 0), (0, 2)})
    assert cfg.control.m == 3


def test_parse_explicit_init_and_aux(tmp_path):
    cfg = parse_scenario(_write(tmp_path, _tc_open_loop_text()))
    assert cfg.init.kind == "explicit"
    assert cfg.init.g0.shape == (3, 3)
    assert np.allclose(cfg.controller_params["xi"], [1.0, 0.0, 0.7])


EXPLICIT_POSES = MINIMAL + "\n[init]\nkind = explicit\n"


@pytest.mark.parametrize("text, message", [
    (EXPLICIT_POSES + "pose_0 = 0 0 0\npose_1 = 0 0 0\n", "pose_1 is beyond pose_0"),
    (MINIMAL + "colour = red\n", "graph: unknown keys"),
    (MINIMAL.replace("kind = empty", "kind = edges\nedges = 0>7"), "graph: edge 0->7 out of range"),
    (MINIMAL + "\n[control]\nfoo = 1\n", "control: unknown keys"),
    (EXPLICIT_POSES + "pose_0 = 0 0\n", "pose rows need 3 numbers"),
    ("[graph]\nkind = empty\n", r"missing \[scenario\] section"),
    (None, "cannot read scenario file"),
], ids=["pose-beyond-n", "graph-key", "graph-error", "control-key", "pose-width",
        "no-scenario-section", "no-file"])
def test_scenario_errors_are_typed(tmp_path, text, message):
    path = str(tmp_path / "absent.ini") if text is None else _write(tmp_path, text)
    with pytest.raises(ConfigError, match=message):
        parse_scenario(path)


def test_parse_bundled_scenarios():
    for name in ("se2_single_rest", "so3_tc_cascade",
                 "se3_steering_linear", "se3_steering_helical"):
        cfg = parse_scenario(f"scenarios/{name}.ini")
        cfg.validate()


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def test_cmd_run_minimal_constant_trajectory(tmp_path, capsys):
    scen = _write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert cli.main(["run", scen, "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,agent,x,y,theta,xi0,xi1,xi2"
    first = rows[1].split(",")[2:5]
    last = rows[-1].split(",")[2:5]
    assert first == last
    assert (out / "metrics.csv").exists() and (out / "manifest.txt").exists()


def test_cmd_run_overrides(tmp_path):
    scen = _write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert cli.main(["run", scen, "--seed", "9", "--h", "0.02", "--t-end", "0.5",
                     "--out", str(out)]) == 0
    man = simulator.read_manifest(out / "manifest.txt")
    assert man["config"]["seed"] == 9
    assert man["config"]["h"] == 0.02
    assert man["config"]["t_end"] == 0.5


def test_cmd_run_malformed_scenario_exits_with_usage(tmp_path, capsys):
    bad = MINIMAL.replace("agents = 1", "agents = 0")
    code = cli.main(["run", _write(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    assert "agents" in capsys.readouterr().err


def test_cmd_run_unknown_controller_lists_choices(tmp_path, capsys):
    bad = MINIMAL.replace("controller = zero", "controller = nope")
    code = cli.main(["run", _write(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "ric_consensus" in err and "zero" in err


def test_cmd_run_env_var_out_dir(tmp_path, monkeypatch):
    scen = _write(tmp_path, MINIMAL)
    target = tmp_path / "envout"
    monkeypatch.setenv("LIECOORD_OUT", str(target))
    assert cli.main(["run", scen]) == 0
    assert (target / "trajectory.csv").exists()


def test_cmd_run_steering_demo_drives_vk_down(tmp_path):
    out = tmp_path / "steer"
    assert cli.main(["run", "scenarios/se3_steering_linear.ini",
                     "--t-end", "8.0", "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    head = rows[0].split(",")
    vk_cols = [i for i, c in enumerate(head) if c.startswith("V_k_")]
    trace = [max(float(row.split(",")[i]) for i in vk_cols) for row in rows[1:]]
    # V_k starts at zero (feasible auxiliaries), peaks during the transient
    # and settles back down
    assert trace[-1] < 1e-2 * max(trace)
    assert trace[-1] < 1e-6


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------

def test_cmd_check_round_trip_matches_in_process(tmp_path, capsys):
    scen = _write(tmp_path, _tc_open_loop_text())
    cfg = parse_scenario(scen)
    traj = simulator.run(cfg)
    in_proc = analysis.check_coordination(traj, "tc", window=1.0, tol=1e-3)

    out = tmp_path / "run"
    assert cli.main(["run", scen, "--out", str(out)]) == 0
    assert cli.main(["check", str(out), "--mode", "tc", "--window", "1.0"]) == 0
    loaded, _ = cli.load_run(out)
    assert (loaded.events, loaded.completed) == (traj.events, traj.completed)
    re_rep = analysis.check_coordination(loaded, "tc", window=1.0, tol=1e-3)
    # full-precision agreement after the CSV round trip
    assert re_rep.lambda_drift == in_proc.lambda_drift
    assert re_rep.rho_drift == in_proc.rho_drift
    assert re_rep.xi_r_disagreement == in_proc.xi_r_disagreement
    assert re_rep.xi_l_disagreement == in_proc.xi_l_disagreement
    assert (re_rep.lambda_pair, re_rep.lambda_time) == (in_proc.lambda_pair, in_proc.lambda_time)
    assert in_proc.lambda_pair is not None
    worst = in_proc.format().splitlines()[-1]
    assert worst.startswith("lambda_worst_pair=") and worst in capsys.readouterr().out
    assert (out / "check_tc.txt").exists()


# the shape of the run below; SAMPLES stands for its sample count
_SHAPE = '"schema": 4, "agents": 1, "samples": SAMPLES'


@pytest.mark.parametrize("text", [
    "garbage",
    "[1, 2]",
    '{"schema": 1, "group": "se2", "agents": 1, "samples": SAMPLES, "status": "completed", '
    '"events": [], "aux_is_xi": []}',
    "schema: 4\ngroup: se2\nagents: 1\nsamples: SAMPLES\nstatus: completed\nevents:\n",
    '{' + _SHAPE + ', "status": "completed", "events": [], "aux_is_xi": []}',
    '{' + _SHAPE + ', "group": "se2", "events": [], "aux_is_xi": []}',
    '{' + _SHAPE + ', "group": "se2", "status": "completed", "aux_is_xi": []}',
    '{' + _SHAPE + ', "group": 3, "status": "completed", "events": [], "aux_is_xi": []}',
    '{' + _SHAPE + ', "group": "se2", "status": "completed", "events": [{"t": 0}], '
    '"aux_is_xi": []}',
    '{' + _SHAPE + ', "group": "se2", "status": "completed", "events": []}',
    '{' + _SHAPE + ', "group": "se2", "status": "completed", "events": [], "aux_is_xi": ["xi"]}',
], ids=["not-json", "not-an-object", "schema-1", "text-manifest", "no-group", "no-status",
        "no-events", "group-not-a-name", "event-without-its-keys", "no-aux-is-xi",
        "xi-named-with-columns"])
def test_cmd_check_malformed_manifest_exits_with_usage(tmp_path, capsys, text):
    out = tmp_path / "run"
    assert cli.main(["run", "scenarios/se2_single_rest.ini", "--t-end", "0.5",
                     "--out", str(out)]) == 0
    samples = str(simulator.read_manifest(out / "manifest.txt")["samples"])
    _with_aux_xi_columns(out / "trajectory.csv")    # columns for an aux field xi
    # the manifest that each text damages reloads
    good = '{' + _SHAPE + ', "group": "se2", "status": "completed", "events": [], "aux_is_xi": []}'
    (out / "manifest.txt").write_text(good.replace("SAMPLES", samples))
    assert cli.load_run(out)[0].aux["xi"].shape == (int(samples), 1, 3)
    (out / "manifest.txt").write_text(text.replace("SAMPLES", samples))
    capsys.readouterr()
    assert cli.main(["check", str(out), "--mode", "lic"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_cmd_check_modes_and_exit_codes(tmp_path):
    # RIC-only run: shared constant body velocity from scattered poses
    text = MINIMAL.replace("agents = 1", "agents = 3").replace(
        "controller = zero",
        "controller = constant",
    ).replace("[graph]\nkind = empty", "[graph]\nkind = ring") + """
[controller.params]
xi = 1.0 0.0 0.0
"""
    scen = _write(tmp_path, text.replace("t_end = 1.0", "t_end = 4.0"))
    out = tmp_path / "ric_only"
    assert cli.main(["run", scen, "--out", str(out)]) == 0
    assert cli.main(["check", str(out), "--mode", "ric"]) == 0
    assert cli.main(["check", str(out), "--mode", "lic"]) == cli.EXIT_FAILURE

    # frozen swarm: everything coordinated
    frozen = _write(tmp_path, MINIMAL.replace("agents = 1", "agents = 2").replace(
        "kind = empty", "kind = complete"), name="frozen.ini")
    out2 = tmp_path / "frozen"
    assert cli.main(["run", frozen, "--out", str(out2)]) == 0
    assert cli.main(["check", str(out2), "--mode", "ric"]) == 0
    assert cli.main(["check", str(out2), "--mode", "tc"]) == 0


@pytest.mark.parametrize("arg", ["--tol=nan", "--tol=inf", "--tol=-1e-3", "--window=nan"])
def test_cmd_check_without_an_answerable_question_exits_with_usage(tmp_path, capsys, arg):
    out = tmp_path / "run"
    assert cli.main(["run", "scenarios/se2_single_rest.ini", "--t-end", "0.5",
                     "--out", str(out)]) == 0
    assert cli.main(["check", str(out), "--mode", "lic", arg]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: " + arg[2:].partition("=")[0])


@pytest.mark.parametrize("command, args, message", [
    ("check", ["--tol", "-1e-3"], "tol: must be finite and > 0"),
    ("check", ["--window", "-1E-3"], "window too short"),
    ("check", ["--wind", "-1e-3"], "window too short"),      # argparse's prefix of --window
    ("run", ["--h", "-1e-3"], "h: must be > 0"),
    ("run", ["--t-end", "-2.5e+1"], "t_end: must be > 0"),
])
def test_negative_exponent_values_reach_the_commands_own_error(tmp_path, capsys, command,
                                                                 args, message):
    # argparse takes "-1e-3" after an option for an option of its own
    out = tmp_path / "run"
    assert cli.main(["run", "scenarios/se2_single_rest.ini", "--t-end", "0.5",
                     "--out", str(out)]) == 0
    where = [str(out), "--mode", "lic"] if command == "check" else [
        "scenarios/se2_single_rest.ini", "--out", str(tmp_path / "again")]
    capsys.readouterr()
    assert cli.main([command, *where, *args]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: " + message)


def test_cmd_check_missing_files(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "nowhere"), "--mode", "tc"]) == cli.EXIT_FAILURE


def test_cmd_check_truncated_trajectory_is_a_usage_error(tmp_path, capsys):
    scen = _write(tmp_path, MINIMAL.replace("agents = 1", "agents = 2").replace(
        "kind = empty", "kind = complete"))
    out = tmp_path / "run"
    assert cli.main(["run", scen, "--out", str(out)]) == 0
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].split(",")[0]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["check", str(out), "--mode", "tc"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def test_cmd_sweep_grid_rows(tmp_path, capsys):
    scen = _write(tmp_path, MINIMAL)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", scen, "--grid", "h=1e-2,1e-3", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("h,seed,V_r")
    assert len(rows) == 3


def test_cmd_sweep_empty_grid(tmp_path):
    scen = _write(tmp_path, MINIMAL)
    out = tmp_path / "sweep0"
    assert cli.main(["sweep", scen, "--grid", "", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1  # header only


def test_cmd_sweep_seed_range(tmp_path):
    scen = _write(tmp_path, RIC_SE2.format(t_end=2.0))
    out = tmp_path / "sweepseeds"
    assert cli.main(["sweep", scen, "--seeds", "1..4", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 5
    seeds = [row.split(",")[0] for row in rows[1:]]
    assert seeds == ["1", "2", "3", "4"]


def test_cmd_sweep_rejects_unknown_grid_field(tmp_path, capsys):
    scen = _write(tmp_path, MINIMAL)
    code = cli.main(["sweep", scen, "--grid", "warp=1,2", "--out", str(tmp_path / "s")])
    assert code == cli.EXIT_USAGE
    assert "h" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--grid", "h=abc"],
    ["--seeds", "3..x"],
    ["--grid", "h"],
    ["--grid", "h=1e-2;h=5e-2"],
    ["--seeds", "5..3"],
], ids=["grid-value", "seed-range-end", "grid-without-values", "grid-repeated-key",
        "empty-seed-range"])
def test_cmd_sweep_bad_input_exits_with_usage(tmp_path, capsys, args):
    code = cli.main(["sweep", "scenarios/se2_single_rest.ini", *args,
                     "--out", str(tmp_path / "s")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def _count_runs(monkeypatch):
    """The seeds of the runs that simulator.run starts from now on."""
    seeds, real = [], simulator.run
    monkeypatch.setattr(simulator, "run", lambda cfg: seeds.append(cfg.seed) or real(cfg))
    return seeds


def test_cmd_sweep_seed_in_the_grid_is_one_column(tmp_path, monkeypatch):
    runs = _count_runs(monkeypatch)
    out = tmp_path / "s"
    assert cli.main(["sweep", _write(tmp_path, MINIMAL), "--grid", "seed=1,2;h=1e-2,5e-2",
                     "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].split(",")[:3] == ["h", "seed", "V_r"]
    assert rows[0].split(",").count("seed") == 1
    assert [r.split(",")[:2] for r in rows[1:]] == [["0.01", "1"], ["0.05", "1"],
                                                    ["0.01", "2"], ["0.05", "2"]]
    assert runs == [1, 1, 2, 2]


@pytest.mark.parametrize("args, error", [
    (["--grid", "seed=1,2", "--seeds", "3..4"], "error: seed:"),
    (["--grid", "t_end=4.0,1e-9"], "error: t_end:"),
], ids=["seed-in-grid-and-seeds", "config-that-does-not-validate"])
def test_cmd_sweep_bad_batch_starts_no_run(tmp_path, monkeypatch, capsys, args, error):
    runs = _count_runs(monkeypatch)
    out = tmp_path / "s"
    code = cli.main(["sweep", _write(tmp_path, MINIMAL), *args, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(error)
    assert runs == [] and not (out / "sweep.csv").exists()


def test_cmd_sweep_grid_sets_any_scenario_field(tmp_path):
    scen = _write(tmp_path, RIC_SE2.format(t_end=0.1))
    out = tmp_path / "s"
    assert cli.main(["sweep", scen, "--grid", "aux_integrator=euler,rk4;record_every=50",
                     "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("aux_integrator,record_every,seed,")
    assert [r.split(",")[:3] for r in rows[1:]] == [["euler", "50", "5"], ["rk4", "50", "5"]]


def test_cmd_sweep_tc_fraction_line(tmp_path, capsys):
    out = tmp_path / "frac"
    code = cli.main(["sweep", "scenarios/so3_tc_cascade.ini",
                     "--grid", "t_end=6.0;h=5e-3", "--seeds", "1..3",
                     "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "# tc fraction:" in text
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 4


def test_cmd_sweep_run_without_samples_writes_a_nan_row(tmp_path, capsys):
    # the run blows up at t = 0, so it records no sample and has no terminal metrics
    text = TC_OPEN_LOOP.format(p1="0 1 0", p2="1 0 0").replace("xi = 1.0 0.0 0.7",
                                                               "xi = nan 0 0")
    out = tmp_path / "s"
    assert cli.main(["sweep", _write(tmp_path, text), "--seeds", "1", "--out", str(out)]) == 0
    header, row = (out / "sweep.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["seed"] == "1"
    assert cells["tc"] == "-1" and cells["completed"] == "0"
    assert {cells[c] for c in [*simulator.METRIC_NAMES, "V_k_max"]} == {"nan"}
    assert "tc fraction" not in capsys.readouterr().out


def test_import_defers_the_process_pool():
    # only sweep --jobs > 1 needs it; every load_run would pay its import otherwise
    code = "import sys, liecoord.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), check=True)
    assert proc.stdout.strip() == "False"


def test_cmd_sweep_parallel_matches_serial(tmp_path):
    scen = _write(tmp_path, RIC_SE2.format(t_end=2.0))
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert cli.main(["sweep", scen, "--seeds", "1,2,3", "--out", str(out1)]) == 0
    assert cli.main(["sweep", scen, "--seeds", "1,2,3", "--jobs", "2",
                     "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()


def test_cmd_sweep_of_a_missing_scenario_exits_with_usage(tmp_path, capsys):
    # without --grid and --seeds there is no run, and the file was never read
    out = tmp_path / "s"
    assert cli.main(["sweep", str(tmp_path / "none.ini"), "--out", str(out)]) == cli.EXIT_USAGE
    assert "cannot read scenario file" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cmd_sweep_jobs_below_one_exits_with_usage(tmp_path, capsys, jobs):
    code = cli.main(["sweep", "scenarios/se2_single_rest.ini", "--seeds", "1", "--jobs", jobs,
                     "--out", str(tmp_path / "s")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: jobs: must be >= 1\n"


def test_cmd_sweep_starts_no_more_workers_than_runs(tmp_path, monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        """Records its worker count and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    scen = _write(tmp_path, RIC_SE2.format(t_end=0.1))
    assert cli.main(["sweep", scen, "--seeds", "1,2", "--jobs", "64",
                     "--out", str(tmp_path / "s")]) == 0
    assert started == [2]
    assert cli.main(["sweep", scen, "--seeds", "1", "--jobs", "64",
                     "--out", str(tmp_path / "s")]) == 0
    assert started == [2]       # one run goes in series


def test_parse_bad_numeric_names_field(tmp_path):
    bad = MINIMAL.replace("h = 1e-2", "h = fast")
    with pytest.raises(ConfigError, match="h"):
        parse_scenario(_write(tmp_path, bad))
    bad2 = MINIMAL + "\n[init]\nkind = random\nrot_scale = wide\n"
    with pytest.raises(ConfigError, match="rot_scale"):
        parse_scenario(_write(tmp_path, bad2))


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seed"):
        parse_scenario(_write(tmp_path, MINIMAL.replace("seed = 0", "seed = -1")))
    code = cli.main(["run", _write(tmp_path, MINIMAL, "ok.ini"), "--seed", "-5",
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: seed")


@pytest.mark.parametrize("args, message", [
    (["--h", "inf"], "positive whole number"),
    (["--h", "1e300", "--t-end", "1e-300"], "positive whole number"),
    (["--h", "1e-300"], "1e[+]299 samples cannot be allocated"),   # raised before any buffer is allocated
], ids=["h-inf", "t-end-underflow", "sample-count"])
def test_step_count_out_of_range_is_a_usage_error(tmp_path, capsys, args, message):
    with pytest.raises(ConfigError, match="positive whole number"):
        parse_scenario(_write(tmp_path, MINIMAL.replace("h = 1e-2", "h = inf")))
    code = cli.main(["run", _write(tmp_path, MINIMAL, "ok.ini"), *args,
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(message, err)


_NUMERIC_KEYS = {"agents": "2", "h": "1e-2", "t_end": "1", "seed": "0", "reproject_every": "100",
                 "record_every": "10", "stop_below": "0"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", ["-1", "0", "0.5", "1", "3", "1e-300", "1e300", "inf", "nan"])
@pytest.mark.parametrize("key", sorted(_NUMERIC_KEYS))
def test_numeric_scenario_keys_end_in_a_typed_error_or_a_run(tmp_path, key, value):
    # no value here makes a valid run longer than 300 steps
    keys = {**_NUMERIC_KEYS, key: value}
    text = ("[scenario]\nschema = 1\ngroup = se2\ncontroller = ric_consensus\n"
            "stop_metric = V_r\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    try:
        traj = simulator.run(parse_scenario(_write(tmp_path, text)))
    except (ConfigError, ControllerError, GraphError, GroupError):
        return
    assert isinstance(traj, simulator.Trajectory)


PARAMS = """
[scenario]
schema = 1
group = {group}
agents = 3
controller = {name}
h = 1e-2
t_end = 0.1
seed = 4

[controller.params]
{key} = {text}

[graph]
kind = complete
"""

# every parameter a controller declares, with every group the controller runs on
DECLARED = [(name, key, group) for name, spec in CONTROLLERS.items()
            for key in spec.params for group in spec.groups]


@pytest.mark.parametrize("name, key, group", DECLARED)
def test_every_declared_param_is_read_as_its_api_array(tmp_path, name, key, group):
    values = [0.5, -1.0, 0.25, 2.0, 0.0, 1.5][:GROUPS[group].dim]
    path = _write(tmp_path, PARAMS.format(group=group, name=name, key=key,
                                          text=" ".join(map(str, values))))
    out = tmp_path / "o"
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_OK
    cfg = parse_scenario(path)
    api = replace(cfg, controller_params={key: np.array(values)})
    got = build_controller(name, GROUPS[group], params=cfg.controller_params).params[key]
    want = build_controller(name, GROUPS[group], params=api.controller_params).params[key]
    assert got.dtype == want.dtype == float and np.array_equal(got, want)
    assert np.array_equal(simulator.run(cfg).xi, simulator.run(api).xi)
    traj, manifest = cli.load_run(out)
    assert traj.config.config_hash() == manifest["config_hash"] == api.config_hash()


@pytest.mark.parametrize("text, message", [
    ("0.5", "parameter {key} must be an algebra vector of length 3"),
    ("fast", "bad numeric list 'fast'"),
    ("1 0", "parameter {key} must be an algebra vector of length 3"),
], ids=["scalar", "word", "wrong-length"])
@pytest.mark.parametrize("name, key", sorted({(name, key) for name, key, _ in DECLARED}))
def test_a_param_that_is_no_algebra_vector_is_a_usage_error(tmp_path, capsys, name, key, text,
                                                            message):
    path = _write(tmp_path, PARAMS.format(group="so3", name=name, key=key, text=text))
    assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message.format(key=key) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, message", [
    ("[controller.params]\nxi = 1 0 x\n", "controller.params: xi: bad numeric list '1 0 x'"),
    ("[control]\na = 1 x 0\nb_col_0 = 0 0 1\n", "control: a: bad numeric list '1 x 0'"),
    ("[control]\nb_col_0 = 0 0 x\n", "control: b_col_0: bad numeric list '0 0 x'"),
    ("[init]\nkind = explicit\npose_0 = 0 x 0\n", "init: pose_0: bad numeric list '0 x 0'"),
    ("[init]\neta_0 = 1 x 0\n", "init: eta_0: bad numeric list '1 x 0'"),
], ids=["param", "control-a", "control-column", "pose-row", "aux-row"])
def test_a_bad_numeric_list_names_its_section_and_key(tmp_path, section, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        parse_scenario(_write(tmp_path, MINIMAL + "\n" + section))


def test_cmd_run_unknown_controller_param_is_a_usage_error(tmp_path, capsys):
    text = PARAMS.format(group="so3", name="tc_right_frozen", key="xi_rr", text="1 0 0")
    code = cli.main(["run", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "xi_rr" in err and "allowed: ['xi_r']" in err
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_cmd_run_group_controller_mismatch(tmp_path, capsys):
    bad = MINIMAL.replace("controller = zero", "controller = se3_steering_linear")
    code = cli.main(["run", _write(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    assert "SE(3)" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cmd_run_diverging_scenario_writes_its_files_and_exits_1(tmp_path, capsys):
    text = RIC_SE2.format(t_end=1000.0).replace("h = 1e-3", "h = 1").replace(
        "agents = 3", "agents = 4").replace("record_every = 10", "record_every = 100000").replace(
        "kind = ring", "kind = complete")
    out = tmp_path / "o"
    code = cli.main(["run", _write(tmp_path, text), "--out", str(out)])
    assert code == cli.EXIT_FAILURE
    assert "aborted" in capsys.readouterr().err
    manifest = simulator.read_manifest(out / "manifest.txt")
    assert manifest["status"] == "aborted"
    assert any(e["kind"] == "blowup" for e in manifest["events"])
    traj, _ = cli.load_run(out)
    assert traj.times.tolist() == [0.0]
    assert (out / "metrics.csv").read_text().count("\n") == 2
    # the reloaded run keeps the events and the status of the in-memory one
    in_proc = simulator.run(parse_scenario(str(tmp_path / "scenario.ini")))
    assert traj.events == in_proc.events and traj.events[-1].kind == "blowup"
    assert traj.completed is in_proc.completed is False


def test_cmd_run_blowup_at_t0_writes_header_only_files(tmp_path, capsys):
    text = TC_OPEN_LOOP.format(p1="0 1 0", p2="1 0 0").replace("xi = 1.0 0.0 0.7",
                                                               "xi = nan 0 0")
    out = tmp_path / "o"
    assert cli.main(["run", _write(tmp_path, text), "--out", str(out)]) == cli.EXIT_FAILURE
    assert "terminal:" not in capsys.readouterr().out
    assert (out / "trajectory.csv").read_text().count("\n") == 1
    assert (out / "metrics.csv").read_text().count("\n") == 1
    manifest = simulator.read_manifest(out / "manifest.txt")
    assert manifest["status"] == "aborted"
    assert manifest["events"][0]["kind"] == "blowup"
    assert "agent(s) [0, 1, 2]" in manifest["events"][0]["detail"]
    # the non-finite parameter is written and read back
    xi = manifest["config"]["controller_params"]["xi"]
    assert np.isnan(xi[0]) and xi[1:] == [0.0, 0.0]


def test_run_that_blew_up_at_t0_reloads_without_samples(tmp_path, capsys):
    text = TC_OPEN_LOOP.format(p1="0 1 0", p2="1 0 0").replace("xi = 1.0 0.0 0.7",
                                                               "xi = nan 0 0")
    out = tmp_path / "o"
    assert cli.main(["run", _write(tmp_path, text), "--out", str(out)]) == cli.EXIT_FAILURE
    traj, manifest = cli.load_run(out)
    assert traj.times.shape == (0,) and traj.n_agents == manifest["agents"] == 3
    assert traj.g.shape == (0, 3, 3) and traj.xi.shape == (0, 3, 3)
    assert all(traj.metrics[name].shape == (0,) for name in simulator.METRIC_NAMES)
    assert traj.metrics["V_k"].shape == (0, 3)
    simulator.write_metrics_csv(traj, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (out / "metrics.csv").read_bytes()
    assert traj.events[0].kind == "blowup" and traj.completed is False
    capsys.readouterr()
    assert cli.main(["check", str(out), "--mode", "lic"]) == cli.EXIT_USAGE
    assert "no recorded samples" in capsys.readouterr().err


@pytest.mark.parametrize("controller, params, bad", [
    ("constant", "xi = 1 0", "xi"),
    ("tc_right_frozen", "xi_r = 1 0 0 0", "xi_r"),
])
def test_cmd_run_bad_controller_param_value_is_a_usage_error(tmp_path, capsys, controller,
                                                              params, bad):
    text = MINIMAL.replace("controller = zero", f"controller = {controller}") + f"""
[control]
preset = se2_steering

[controller.params]
{params}
"""
    code = cli.main(["run", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"parameter {bad} must be" in err


def test_cmd_run_control_setting_of_the_wrong_size_is_a_usage_error(tmp_path, capsys):
    text = MINIMAL.replace("group = se2", "group = so3").replace(
        "controller = zero", "controller = tc_left_cascade") + "\n[control]\npreset = se3_steering\n"
    code = cli.main(["run", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dimension 6, but so3 has algebra dimension 3" in err


_EDGES = MINIMAL.replace("agents = 1", "agents = 3").replace("kind = empty", "kind = edges\nedges = {}")
_SCHEDULE = MINIMAL.replace("kind = empty", "kind = schedule\nsegment_0 = {}")


@pytest.mark.parametrize("text, match", [
    (_EDGES.format("0>a"), "edge token '0>a'"),
    (_EDGES.format("0>1>2"), "edge token '0>1>2'"),
    (_EDGES.format("0-"), "edge token '0-'"),
    (_SCHEDULE.format("x : 0>1"), "segment_0"),
    (MINIMAL.replace("schema = 1", "schema = abc"), "schema"),
    (MINIMAL + "\n[control]\nb_col_1 = 0 0 1\n", "b_col_0"),
    (MINIMAL + "\n[control]\na = 1 0 0\n", "b_col_0"),
    (MINIMAL + "\n[control]\nb_col_0 = 0 0 1\nb_col_1 = 1 0\n", "different lengths"),
    (MINIMAL + "\n[init]\nkind = explicit\npose_a = 0 0 0\n", "pose_0"),
    (MINIMAL.replace("agents = 1", "agents = 2").replace("kind = empty", "kind = complete")
     + "\n[init]\nxi_0 = 1 0 0\nxi_1 = 1\n", "different lengths"),
    (MINIMAL + "\n[init]\nxi_² = 1 0 0\n", "xi_"),
    (MINIMAL + "kind = ring\n", "malformed"),
    (MINIMAL.replace("h = 1e-2", "h = 1e-2%"), "h: expected a number"),
    ("t_end = 1\n" + MINIMAL, "malformed"),
    (MINIMAL.replace("seed = 0", "seed = 0\nstop_metric = V_x\nstop_below = 1"), "stop_metric"),
], ids=["edge-letter", "edge-chain", "edge-half", "segment-time", "schema", "b-col-gap",
        "b-col-none", "b-col-ragged", "pose-name", "aux-ragged", "aux-index", "duplicate-key",
        "percent", "key-before-section", "stop-metric"])
def test_parse_malformed_values_are_config_errors(tmp_path, text, match):
    with pytest.raises(ConfigError, match=match):
        parse_scenario(_write(tmp_path, text))


@pytest.mark.parametrize("schedule", [
    "segment_0 = 0.0 : 0>1\nsegment_1 = nan : 1>0",
    "segment_0 = 0.0 : 0>1\nsegment_1 = inf : 1>0",
    "segment_0 = 0.0 : 0>1\nsegment_1 = 0.5 : 1>0\nperiod = nan",
], ids=["nan-breakpoint", "inf-breakpoint", "nan-period"])
def test_non_finite_schedule_time_exits_with_usage(tmp_path, capsys, schedule):
    # a NaN breakpoint made edge 1>0 active from t = 0
    text = MINIMAL.replace("agents = 1", "agents = 2").replace("kind = empty",
                                                                f"kind = schedule\n{schedule}")
    code = cli.main(["run", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: graph: schedule breakpoints and period")


# ---------------------------------------------------------------------------
# reloaded runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group, controller", [
    ("so3", "lic_consensus"),
    ("se2", "ric_consensus"),
    ("se2", "tc_left_cascade"),
    ("se3", "lic_consensus"),
    ("se3", "se3_steering_helical"),
])
def test_reloaded_arrays_own_their_memory(tmp_path, group, controller):
    cfg = ScenarioConfig(group=group, n_agents=3, controller=controller,
                         graph=CommGraph.complete(3), t_end=0.05, h=1e-2, seed=2,
                         record_every=1)
    traj = simulator.run(cfg)
    simulator.write_run(traj, tmp_path)
    loaded, _ = cli.load_run(tmp_path)
    arrays = {"times": loaded.times, "g": loaded.g, "xi": loaded.xi}
    arrays.update({f"aux.{k}": v for k, v in loaded.aux.items() if v is not loaded.xi})
    arrays.update({f"metrics.{k}": v for k, v in loaded.metrics.items()})
    assert (loaded.aux.get("xi") is loaded.xi) == ("xi" in traj.aux)
    for name, a in arrays.items():
        assert a.base is None, name
        for other, b in arrays.items():
            assert other == name or not np.shares_memory(a, b), (name, other)


def test_cli_load_run_is_the_simulator_load_run():
    # the run directory's format lives in one module; cli keeps the name
    assert cli.load_run is simulator.load_run


def test_load_run_allocates_no_dense_graph_matrix(tmp_path):
    n = 1024
    cfg = ScenarioConfig(group="so3", n_agents=n, controller="lic_consensus",
                         graph=CommGraph.ring(n), t_end=2e-2, h=1e-2, seed=2)
    simulator.write_run(simulator.run(cfg), tmp_path)
    (loaded, _), peak = traced_peak(lambda: cli.load_run(tmp_path))
    assert loaded.config.config_hash() == cfg.config_hash()
    assert peak < n * n * 8


def test_a_large_ring_runs_exports_and_reloads_without_a_dense_graph_matrix(tmp_path):
    # a run on a large sparse graph sums over its edges: no N x N in-matrix
    n = 4096
    cfg = ScenarioConfig(group="se3", n_agents=n, controller="lic_consensus",
                         graph=CommGraph.ring(n), t_end=3e-3, h=1e-3, seed=2, record_every=1)

    def round_trip():
        simulator.write_run(simulator.run(cfg), tmp_path)
        return cli.load_run(tmp_path)

    (loaded, _), peak = traced_peak(round_trip)
    assert loaded.g.shape == (4, n, 4, 4) and loaded.completed
    assert peak < n * n * 8


def _run_dir(tmp_path, text):
    out = tmp_path / "o"
    cli.main(["run", _write(tmp_path, text), "--out", str(out)])
    return out


def test_reload_keeps_the_recorded_metrics(tmp_path, capsys):
    out = _run_dir(tmp_path, RIC_SE2.format(t_end=0.5))
    traj = simulator.run(parse_scenario(str(tmp_path / "scenario.ini")))
    loaded, _ = cli.load_run(out)
    assert loaded.metrics.keys() == traj.metrics.keys()
    for name, values in traj.metrics.items():
        assert loaded.metrics[name].tobytes() == values.tobytes()
    simulator.write_metrics_csv(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (out / "metrics.csv").read_bytes()


def test_reload_without_a_metrics_file_is_an_error(tmp_path, capsys):
    # a run directory is the three files that write_run writes
    out = _run_dir(tmp_path, RIC_SE2.format(t_end=0.1))
    (out / "metrics.csv").unlink()
    with pytest.raises(FileNotFoundError):
        cli.load_run(out)
    capsys.readouterr()
    assert cli.main(["check", str(out), "--mode", "ric"]) == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "metrics.csv" in err and "Traceback" not in err


def _metrics_rows(lines):
    lines.insert(2, lines[2])


def _metrics_time(lines):
    t, rest = lines[2].split(",", 1)
    lines[2] = f"{float(t) + 1.0!r},{rest}"


def _metrics_agents(lines):
    lines[:] = [line.rsplit(",", 1)[0] for line in lines]


def _metrics_comment(lines):
    lines.insert(2, "# note")


def _metrics_renamed_column(lines):
    lines[0] = lines[0].replace("V_l", "V_x")


@pytest.mark.parametrize("damage, message", [
    (_metrics_rows, "metrics has 12 or more rows, not 11"),
    (_metrics_time, "metrics times"),
    (_metrics_agents, "metrics header"),
    (_metrics_comment, "malformed metrics row"),
    (_metrics_renamed_column, "metrics header"),
])
def test_malformed_metrics_csv_is_a_config_error(tmp_path, capsys, damage, message):
    out = _run_dir(tmp_path, RIC_SE2.format(t_end=0.1))
    lines = (out / "metrics.csv").read_text().splitlines()
    damage(lines)
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        cli.load_run(out)
    assert cli.main(["check", str(out), "--mode", "ric"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("agents", [1, 2, 4])
def test_metrics_need_the_manifest_agent_count(tmp_path, capsys, agents):
    out = _run_dir(tmp_path, RIC_SE2.format(t_end=0.1))
    manifest = simulator.read_manifest(out / "manifest.txt")
    manifest["agents"] = agents
    (out / "manifest.txt").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=f"unexpected metrics header for {agents} agents"):
        cli.load_run(out)


@pytest.mark.parametrize("samples, agents, message", [
    (11, 2, "trajectory has 23 or more rows, not 22"),
    (11, 4, "trajectory has 33 rows, not 44"),
    # as many rows, cut into snapshots of another agent count
    (33, 1, "snapshot 1: agent ids are not 0..0"),
])
def test_trajectory_reader_checks_the_manifest_shape(tmp_path, capsys, samples, agents, message):
    # a shape that the metrics header does not contradict, as in a file of another run
    out = _run_dir(tmp_path, RIC_SE2.format(t_end=0.1).replace("ric_consensus", "lic_consensus"))
    assert simulator.read_manifest(out / "manifest.txt")["samples"] == 11
    with pytest.raises(ConfigError, match=message):
        simulator.read_trajectory_csv(out / "trajectory.csv", "se2", samples, agents)


_ABSENT = object()


@pytest.mark.parametrize("value", [-1, 2.0, True, "3", None, _ABSENT],
                         ids=["negative", "float", "true", "text", "null", "missing"])
@pytest.mark.parametrize("key", ["agents", "samples"])
def test_manifest_counts_are_whole_numbers(tmp_path, capsys, key, value):
    out = _run_dir(tmp_path, RIC_SE2.format(t_end=0.1))
    manifest = simulator.read_manifest(out / "manifest.txt")
    if value is _ABSENT:
        del manifest[key]
    else:
        manifest[key] = value
    (out / "manifest.txt").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=f"manifest {key}: must be an integer"):
        cli.load_run(out)
    assert cli.main(["check", str(out), "--mode", "ric"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("delta", [-1, 1], ids=["one-below", "one-above"])
def test_manifest_samples_must_count_the_tables_rows(tmp_path, capsys, delta):
    out = _run_dir(tmp_path, RIC_SE2.format(t_end=0.1))
    manifest = simulator.read_manifest(out / "manifest.txt")
    (out / "manifest.txt").write_text(json.dumps(dict(manifest, samples=11 + delta)))
    with pytest.raises(ConfigError, match=f"metrics has .*rows, not {11 + delta}"):
        cli.load_run(out)
    capsys.readouterr()
    assert cli.main(["check", str(out), "--mode", "ric"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_manifest_samples_beyond_the_files_bytes_allocate_nothing(tmp_path, capsys):
    out = _run_dir(tmp_path, RIC_SE2.format(t_end=0.1))
    manifest = simulator.read_manifest(out / "manifest.txt")
    (out / "manifest.txt").write_text(json.dumps(dict(manifest, samples=10**9)))

    def reload():
        with pytest.raises(ConfigError, match=r"metrics has at most \d+ rows, not 1000000000"):
            cli.load_run(out)

    _, peak = traced_peak(reload)
    assert peak < 1e6


@pytest.mark.parametrize("schema", [2, 3])
def test_manifest_of_another_schema_is_a_config_error(tmp_path, capsys, schema):
    # as a run directory of schema 3 is written: no samples key, and schema 2
    # had no aux_is_xi either
    out = _run_dir(tmp_path, RIC_SE2.format(t_end=0.1))
    manifest = simulator.read_manifest(out / "manifest.txt")
    del manifest["samples"]
    if schema == 2:
        del manifest["aux_is_xi"]
        _with_aux_xi_columns(out / "trajectory.csv")
    (out / "manifest.txt").write_text(json.dumps(dict(manifest, schema=schema)))
    with pytest.raises(ConfigError, match=f"manifest has schema {schema}, not 4"):
        cli.load_run(out)
    capsys.readouterr()
    assert cli.main(["check", str(out), "--mode", "ric"]) == cli.EXIT_USAGE
    assert f"schema {schema}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["se2_single_rest", "so3_tc_cascade", "se3_steering_linear",
                                  "se3_steering_helical"])
def test_load_run_returns_the_config_of_each_scenario_file(tmp_path, name):
    out = tmp_path / "run"
    assert cli.main(["run", f"scenarios/{name}.ini", "--t-end", "0.1", "--out", str(out)]) == 0
    loaded, manifest = cli.load_run(out)
    assert loaded.config.config_hash() == manifest["config_hash"]
    assert loaded.config.record() == manifest["config"]
    simulator.write_manifest(loaded, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_text() == (out / "manifest.txt").read_text()
    # the rebuilt config runs the same trajectory again
    rerun = simulator.run(loaded.config)
    assert rerun.times.tobytes() == loaded.times.tobytes()
    assert rerun.xi.tobytes() == loaded.xi.tobytes()
    assert rerun.group.to_payload(rerun.g).tobytes() == loaded.group.to_payload(loaded.g).tobytes()


def _with_aux_xi_columns(path):
    """Give an SE(2) trajectory file aux.xi columns that repeat its xi text."""
    head, *rows = path.read_text().splitlines()
    assert head.endswith(",xi0,xi1,xi2")
    path.write_text("\n".join([head + ",aux.xi0,aux.xi1,aux.xi2"]
                              + [row + "," + row.split(",", 5)[5] for row in rows]) + "\n")


@pytest.mark.parametrize("change, columns, message", [
    ({"schema": 2}, False, "schema"),                 # schema 2 names no field
    ({"aux_is_xi": "xi"}, False, "aux_is_xi"),
    ({"aux_is_xi": [1]}, False, "aux_is_xi"),
    ({"aux_is_xi": ["xi"]}, True, "'xi' is named as xi"),
], ids=["schema-2-with-the-key", "not-a-list", "not-names", "named-field-with-columns"])
def test_aux_is_xi_must_name_fields_without_columns(tmp_path, capsys, change, columns, message):
    out = _run_dir(tmp_path, RIC_SE2.format(t_end=0.1))
    if columns:
        _with_aux_xi_columns(out / "trajectory.csv")
    manifest = simulator.read_manifest(out / "manifest.txt")
    (out / "manifest.txt").write_text(json.dumps(dict(manifest, **change)))
    with pytest.raises(ConfigError, match=message):
        cli.load_run(out)
    assert cli.main(["check", str(out), "--mode", "ric"]) == cli.EXIT_USAGE
