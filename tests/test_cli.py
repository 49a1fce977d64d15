import contextlib
import csv
import errno
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import dualchain
from dualchain import chainsim, cli, dynamics, ingest, replicas
from dualchain.cli import dispatch
from dualchain.core import DualchainError, MiningState, Schedule, Zone, config_from_json
from dualchain.equilibrium import zone_of
from dualchain.payoff import payoff_triple


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "k": 0.05, "n_in": 2016, "n_de": 2016, "c_stick": 0.0, "powers": [1.0],
    }))
    return str(path)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_equilibria_subcommand(config_path, capsys):
    code, out, _ = run_cli(capsys, "equilibria", "--config", config_path, "--quiet")
    assert code == 0
    payload = json.loads(out)
    assert payload["case_tag"] == 1
    assert payload["lack_points"]["start_r_f"] == pytest.approx(0.05)
    assert payload["coexist_point"]["r_b"] == pytest.approx(0.05 / 1.05)


def test_threshold_subcommand(config_path, capsys):
    code, out, _ = run_cli(capsys, "threshold", "--config", config_path, "--quiet")
    assert code == 0
    assert json.loads(out) == {"automatic_threshold": 0.05}


def test_zones_grid_rows_and_labels(config_path, capsys):
    code, out, _ = run_cli(capsys, "zones", "--config", config_path, "--grid", "10",
                           "--quiet")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 100
    labels = {"1", "2", "3", "boundary13", "boundary23", "coexist"}
    assert all(r["zone"] in labels for r in rows)


def test_zones_formats_encode_same_data(config_path, capsys):
    code, out_csv, _ = run_cli(capsys, "zones", "--config", config_path, "--grid", "5",
                               "--quiet", "--format", "csv")
    assert code == 0
    code, out_json, _ = run_cli(capsys, "zones", "--config", config_path, "--grid", "5",
                                "--quiet", "--format", "json")
    assert code == 0
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    json_rows = json.loads(out_json)
    assert len(csv_rows) == len(json_rows)
    for a, b in zip(csv_rows, json_rows):
        assert float(a["r_f"]) == pytest.approx(b["r_f"])
        assert a["zone"] == b["zone"]


def test_payoff_subcommand(config_path, capsys):
    code, out, _ = run_cli(capsys, "payoff", "--config", config_path,
                           "--state", "0.0,0.047619047619047616", "--quiet")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"r_f", "r_b", "u_f", "u_a", "u_b"}
    assert payload["u_f"] == pytest.approx(1.05, abs=1e-9)


def test_config_echo_on_stderr_unless_quiet(config_path, capsys):
    _, out, err = run_cli(capsys, "threshold", "--config", config_path)
    assert "# config:" in err
    assert "# config:" not in out
    _, _, err = run_cli(capsys, "threshold", "--config", config_path, "--quiet")
    assert "# config:" not in err


def test_simulate_writes_trajectory_csv(config_path, tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "simulate", "--config", config_path,
                         "--initial", "0.01,0.01", "--out", str(out_file), "--quiet")
    assert code == 0
    with out_file.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert list(rows[0]) == ["step", "r_f", "r_b", "zone", "k", "c_stick"]


def test_simulate_csv_reports_its_outcome_on_stderr_only(config_path, capsys):
    argv = ["simulate", "--config", config_path, "--initial", "0.01,0.01", "--max-steps", "40"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--quiet")
    assert code == 0
    summary = json.loads(out)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("step,r_f,r_b,zone,k,c_stick\r\n") and "#" not in out
    echo, outcome = err.splitlines()
    assert echo.startswith("# config: ")
    assert outcome == f"# outcome: {summary['outcome']} steps_used: {summary['steps_used']}"
    code, _, err = run_cli(capsys, *argv, "--quiet")
    assert (code, err) == (0, "")


def test_validation_error_json_and_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 1.2, "n_in": 10, "n_de": 10, "powers": [1.0]}))
    code, _, err = run_cli(capsys, "equilibria", "--config", str(bad), "--quiet")
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["code"] == "k_above_one"
    assert "message" in payload
    assert payload["field"] == "k"


# Each JSON input, as the argv of a command that reads it from {bad}; the
# other files it names hold valid inputs.
JSON_INPUTS = {
    "game": ["equilibria", "--config", "{bad}"],
    "world": ["chain-sim", "--config", "{bad}", "--agents", "{agents}", "--duration", "10"],
    "agents": ["chain-sim", "--config", "{world}", "--agents", "{bad}", "--duration", "10"],
    "assignment": ["best-response", "--config", "{game}", "--assignment", "{bad}"],
    "k_schedule": ["simulate", "--config", "{game}", "--initial", "0.3,0.2",
                   "--k-schedule", "{bad}"],
}
UNREADABLE = [
    (None, "FileNotFoundError: [Errno 2] No such file or directory: '{path}'"),
    ('{"k": 0.3,', "JSONDecodeError: Expecting property name enclosed in double quotes: "
                   "line 1 column 11 (char 10)"),
]


# The game config's cases keep the bare "content-message" ids.
@pytest.mark.parametrize("argv,content,message", [
    pytest.param(argv, content, message,
                 id=f"{content}-{message}" + ("" if name == "game" else f"-{name}"))
    for name, argv in JSON_INPUTS.items() for content, message in UNREADABLE
])
def test_unreadable_config_exits_2_as_invalid_input(tmp_path, capsys, argv, content, message):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    files = {"bad": path, "game": tmp_path / "game.json", "world": tmp_path / "world.json",
             "agents": tmp_path / "agents.json"}
    files["game"].write_text(json.dumps({"k": 0.3, "n_in": 10, "n_de": 10, "powers": [1.0]}))
    files["world"].write_text(json.dumps({"k": 0.3, "difficulty_b": 0.1}))
    files["agents"].write_text(json.dumps([{"id": "a", "power": 1.0, "policy": "a_only"}]))
    code, out, err = run_cli(capsys, *(arg.format(**files) for arg in argv), "--quiet")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "invalid_input", "message": message.format(path=path)}


def test_unknown_flag_exit_code(config_path, capsys):
    code, _, err = run_cli(capsys, "equilibria", "--config", config_path, "--bogus")
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["code"] == "usage"


def test_chain_sim_pipeline_and_reproducibility(tmp_path, capsys):
    world = tmp_path / "world.json"
    world.write_text(json.dumps({
        "k": 0.3, "difficulty_a": 0.88, "difficulty_b": 0.1,
    }))
    agents = tmp_path / "agents.json"
    agents.write_text(json.dumps([
        {"id": "f", "power": 0.3, "policy": "fickle"},
        {"id": "b", "power": 0.1, "policy": "b_only"},
        {"id": "a", "power": 0.6, "policy": "a_only"},
    ]))
    events = tmp_path / "events.csv"
    series = tmp_path / "series.csv"
    args = ["chain-sim", "--config", str(world), "--agents", str(agents),
            "--regime-a", "epoch:1000000000", "--regime-b", "epoch:36",
            "--duration", "9500", "--seed", "5", "--quiet",
            "--events", str(events), "--series", str(series)]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out1)
    assert report["blocks"]["b"] > 0
    assert report["policy_density"] is not None
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2

    with events.open() as fh:
        header = fh.readline().strip().split(",")
    assert header == ["time", "chain", "event_type", "difficulty_a", "difficulty_b",
                      "r_f_active", "r_b_active"]

    # analyze consumes the emitted series.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 0.3, "n_in": 36, "n_de": 36, "powers": [1.0]}))
    out_periods = tmp_path / "periods.json"
    out_estimates = tmp_path / "estimates.csv"
    out_zones = tmp_path / "zones.csv"
    code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg),
                           "--input", str(series), "--quiet",
                           "--out-periods", str(out_periods),
                           "--out-estimates", str(out_estimates),
                           "--out-zones", str(out_zones))
    assert code == 0
    summary = json.loads(out)
    assert summary["periods"] >= 1
    periods = json.loads(out_periods.read_text())
    assert all(abs(p["r_f_estimate"] - 0.3) < 0.05 for p in periods)
    with out_estimates.open() as fh:
        est_rows = list(csv.DictReader(fh))
    assert list(est_rows[0]) == ["timestamp", "basis", "share", "r_f_est", "r_b_est"]
    with out_zones.open() as fh:
        zone_rows = list(csv.DictReader(fh))
    assert list(zone_rows[0]) == ["timestamp", "zone", "k"]
    assert len(zone_rows) == len(est_rows)


def test_chain_sim_replicas_merge(tmp_path, capsys):
    world = tmp_path / "world.json"
    world.write_text(json.dumps({"k": 0.4, "difficulty_a": 1.0, "difficulty_b": 0.4}))
    agents = tmp_path / "agents.json"
    agents.write_text(json.dumps([
        {"id": "a", "power": 0.6, "policy": "a_only"},
        {"id": "b", "power": 0.4, "policy": "b_only"},
    ]))
    code, out, _ = run_cli(capsys, "chain-sim", "--config", str(world),
                           "--agents", str(agents), "--duration", "500",
                           "--regime-a", "epoch:100", "--regime-b", "epoch:100",
                           "--seed", "3", "--replicas", "3", "--quiet")
    assert code == 0
    merged = json.loads(out)
    assert len(merged["replicas"]) == 3
    assert "mean_policy_density" in merged


def test_payoff_csv_format(config_path, capsys):
    code, out, _ = run_cli(capsys, "payoff", "--config", config_path,
                           "--state", "0.3,0.1", "--format", "csv", "--quiet")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["u_a"]) > 0


@pytest.mark.parametrize("command,argv", [
    ("equilibria", []),
    ("threshold", []),
    ("best-response", ["--assignment", "assign.json"]),
    ("chain-sim", ["--agents", "agents.json", "--duration", "10"]),
    ("analyze", ["--input", "series.csv"]),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_format_is_refused_where_it_does_nothing(config_path, capsys, command, argv, fmt):
    # These commands write JSON only; --format used to be accepted and ignored.
    code, out, err = run_cli(capsys, command, "--config", config_path, *argv,
                             "--format", fmt, "--quiet")
    assert code == 2
    assert out == ""
    error = json.loads(err.strip().splitlines()[-1])
    assert error["code"] == "usage" and "--format" in error["message"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_payoff_underflow_next_to_corner_exits_2(config_path, capsys, fmt):
    # r_b**2 and s**2 underflow to 0 here; this used to exit 1 with a
    # ZeroDivisionError.
    code, out, err = run_cli(capsys, "payoff", "--config", config_path,
                             "--state", "0,1e-200", "--format", fmt, "--quiet")
    assert code == 2
    assert out == ""
    error = json.loads(err.strip().splitlines()[-1])
    assert error == {"code": "divergent_state", "message": "payoffs diverge at (0.0, 1e-200)"}


def test_simulate_json_format(config_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--config", config_path,
                           "--initial", "0.01,0.01", "--format", "json", "--quiet")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "coexistence"
    assert payload["trajectory"][0]["step"] == 0


# An unknown kind, or more numbers than the regime has fields (these were
# dropped, and the run went on without them).
@pytest.mark.parametrize("spec", ["wavelet:9", "epoch:144:1", "perblock:144:7",
                                  "eda:144:6:12:0.8:5"])
def test_bad_regime_spec_exits_2(tmp_path, capsys, spec):
    world = tmp_path / "w.json"
    world.write_text(json.dumps({"k": 0.3, "difficulty_a": 1.0, "difficulty_b": 0.3}))
    agents = tmp_path / "a.json"
    agents.write_text(json.dumps([{"id": "a", "power": 1.0, "policy": "a_only"}]))
    code, out, err = run_cli(capsys, "chain-sim", "--config", str(world),
                             "--agents", str(agents), "--duration", "10",
                             "--regime-b", spec, "--quiet")
    assert (code, out) == (2, "")
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["code"] == "usage" and repr(spec) in payload["message"]


def test_a_bug_in_a_handler_exits_1_as_internal(config_path, capsys, monkeypatch):
    def bug(path):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "config_from_json", bug)
    code, out, err = run_cli(capsys, "threshold", "--config", config_path, "--quiet")
    assert (code, out) == (1, "")
    assert json.loads(err.strip().splitlines()[-1]) == {"code": "internal",
                                                        "message": "RuntimeError: bug"}


def test_main_exits_with_the_dispatch_status(config_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["dualchain", "threshold", "--config", config_path,
                                      "--quiet"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 0
    assert json.loads(capsys.readouterr().out) == {"automatic_threshold": 0.05}


def test_best_response_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "k": 0.3, "n_in": 2016, "n_de": 2016, "c_stick": 0.94,
        "powers": [0.02, 0.02, 0.02],
    }))
    assignment = tmp_path / "assign.json"
    assignment.write_text(json.dumps(["fickle", "b_only", "a_only"]))
    code, out, _ = run_cli(capsys, "best-response", "--config", str(cfg),
                           "--assignment", str(assignment), "--steps", "200",
                           "--seed", "9", "--quiet")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["r_b"] == pytest.approx(0.94)


@pytest.mark.parametrize("names,message", [
    (["fickle"], "assignment length 1 != player count 2"),
    # Used to read as a bare ValueError with no field.
    (["fickle", "automatic"], "assignments use FICKLE / A_ONLY / B_ONLY only"),
])
def test_best_response_refuses_a_bad_assignment_by_its_field(tmp_path, capsys, names, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 0.3, "n_in": 2016, "n_de": 2016, "c_stick": 0.0,
                               "powers": [0.5, 0.5]}))
    assignment = tmp_path / "assign.json"
    assignment.write_text(json.dumps(names))
    code, out, err = run_cli(capsys, "best-response", "--config", str(cfg),
                             "--assignment", str(assignment), "--quiet")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "invalid_input", "message": message,
                               "field": "assignment"}


@pytest.fixture
def sim_inputs(tmp_path):
    world = tmp_path / "world.json"
    world.write_text(json.dumps({"k": 0.4, "difficulty_a": 1.0, "difficulty_b": 0.4}))
    agents = tmp_path / "agents.json"
    agents.write_text(json.dumps([
        {"id": "a", "power": 0.6, "policy": "a_only"},
        {"id": "b", "power": 0.4, "policy": "b_only"},
    ]))
    return ["chain-sim", "--config", str(world), "--agents", str(agents),
            "--regime-a", "epoch:100", "--regime-b", "epoch:100", "--quiet"]


# schedule -> (code, field) of its refusal.  A scheduled k keeps the rule of
# the config's k.
BAD_K_SCHEDULES = {
    "[[0, NaN]]": ("invalid_input", "schedule"),
    "[[0, 0.3], [5, 2.0]]": ("k_above_one", "k"),
    "[[0, 0.0]]": ("non_positive_k", "k"),
    "[[NaN, 0.3]]": ("invalid_input", "schedule"),
    "at,value\n0,0.3\ninf,0.4\n": ("invalid_input", "schedule"),
    # A row with one cell used to exit 1 with IndexError, then 2 with no field.
    "at,value\n0\n": ("invalid_input", "schedule"),
}


@pytest.mark.parametrize("name,pairs", [
    ("k.json", "[[0, NaN]]"),
    ("k.json", "[[0, 0.3], [5, 2.0]]"),
    ("k.json", "[[0, 0.0]]"),
    ("k.json", "[[NaN, 0.3]]"),
    ("k.csv", "at,value\n0,0.3\ninf,0.4\n"),
    ("k.csv", "at,value\n0\n"),
])
@pytest.mark.parametrize("command", ["simulate-csv", "simulate-json", "chain-sim"])
def test_bad_k_schedule_exits_2_before_running(tmp_path, capsys, config_path, sim_inputs,
                                               name, pairs, command):
    # A NaN k used to run all 1,000,001 flow steps and print k=nan rows.
    schedule = tmp_path / name
    schedule.write_text(pairs)
    if command == "chain-sim":
        argv = [*sim_inputs, "--duration", "10"]
    else:
        argv = ["simulate", "--config", config_path, "--initial", "0.3,0.2", "--quiet",
                "--format", command.split("-")[1]]
    code, out, err = run_cli(capsys, *argv, "--k-schedule", str(schedule))
    assert code == 2
    assert out == ""
    error = json.loads(err.strip().splitlines()[-1])
    code_name, field = BAD_K_SCHEDULES[pairs]
    assert error["code"] == code_name and "schedule" in error["message"]
    assert error.get("field") == field


@pytest.mark.parametrize("pairs", ["[[0, 1.0]]", "[[0, -0.1]]", "[[3, NaN]]"])
def test_bad_c_stick_schedule_exits_2(tmp_path, capsys, config_path, pairs):
    schedule = tmp_path / "c.json"
    schedule.write_text(pairs)
    code, out, _ = run_cli(capsys, "simulate", "--config", config_path, "--initial", "0.3,0.2",
                           "--quiet", "--c-stick-schedule", str(schedule))
    assert code == 2
    assert out == ""


# Each command's JSON input files, well formed; one case swaps one file's content.
SHAPE_GAME = {"k": 0.3, "n_in": 2016, "n_de": 2016, "c_stick": 0.94,
              "powers": [0.02, 0.02, 0.02]}
SHAPE_AGENT = {"id": "a", "power": 1.0, "policy": "a_only"}
SHAPE_FILES = {"game.json": SHAPE_GAME, "assignment.json": ["fickle", "b_only", "a_only"],
               "world.json": {"k": 0.4}, "agents.json": [SHAPE_AGENT],
               "k.json": [[0, 0.3]]}
SHAPE_ARGVS = {
    "best-response": ["best-response", "--config", "game.json",
                      "--assignment", "assignment.json"],
    "chain-sim": ["chain-sim", "--config", "world.json", "--agents", "agents.json",
                  "--duration", "10"],
    "equilibria": ["equilibria", "--config", "game.json"],
    "simulate": ["simulate", "--config", "game.json", "--initial", "0.3,0.2",
                 "--k-schedule", "k.json"],
}


@pytest.mark.parametrize("command,name,content,code_name", [
    # Each of these exited 1 as an internal error.
    ("best-response", "assignment.json", 5, "invalid_input"),
    ("best-response", "assignment.json", [["fickle"]], "invalid_input"),
    ("chain-sim", "agents.json", 5, "invalid_input"),
    ("chain-sim", "agents.json", [5], "invalid_input"),
    ("chain-sim", "agents.json", [{**SHAPE_AGENT, "power": [1]}], "invalid_input"),
    ("chain-sim", "agents.json", [{**SHAPE_AGENT, "power": None}], "invalid_input"),
    ("chain-sim", "agents.json", [{**SHAPE_AGENT, "policy": ["a_only"]}], "invalid_input"),
    ("chain-sim", "world.json", [1, 2], "invalid_input"),
    ("chain-sim", "world.json", {"k": [0.3]}, "invalid_input"),
    ("equilibria", "game.json", {**SHAPE_GAME, "k": [0.3]}, "invalid_input"),
    ("equilibria", "game.json", {**SHAPE_GAME, "powers": 5}, "invalid_input"),
    ("equilibria", "game.json", {**SHAPE_GAME, "powers": [[1]]}, "invalid_input"),
    ("simulate", "k.json", 5, "invalid_input"),
    ("simulate", "k.json", [5], "invalid_input"),
    ("simulate", "k.json", [[0, [1]]], "invalid_input"),
    ("simulate", "k.json", [[None, 0.2]], "invalid_input"),
    # This one exited 2, but as power_sum_mismatch.
    ("equilibria", "game.json", [1], "invalid_input"),
    # JSON true/false used to pass as the numbers 1 and 0.  Each gets the
    # code a string in the same place gets.
    ("equilibria", "game.json", {**SHAPE_GAME, "k": True}, "invalid_input"),
    ("equilibria", "game.json", {**SHAPE_GAME, "c_stick": False}, "invalid_input"),
    ("equilibria", "game.json", {**SHAPE_GAME, "powers": [True, 0.02, 0.02]},
     "invalid_input"),
    ("equilibria", "game.json", {**SHAPE_GAME, "n_in": True}, "zero_block_count"),
    ("equilibria", "game.json", {**SHAPE_GAME, "n_in": "2016"}, "zero_block_count"),
    ("chain-sim", "world.json", {"k": True}, "invalid_input"),
    ("chain-sim", "world.json", {"k": "x"}, "invalid_input"),
    ("chain-sim", "world.json", {"k": 0.4, "difficulty_a": False}, "invalid_input"),
    ("chain-sim", "agents.json", [{**SHAPE_AGENT, "power": True}], "invalid_input"),
    ("chain-sim", "agents.json", [{**SHAPE_AGENT, "power": "x"}], "invalid_input"),
    ("simulate", "k.json", [[0, True]], "invalid_input"),
    ("simulate", "k.json", [[0, "x"]], "invalid_input"),
])
def test_wrongly_shaped_json_input_exits_2(tmp_path, capsys, command, name, content,
                                           code_name):
    for file, value in {**SHAPE_FILES, name: content}.items():
        (tmp_path / file).write_text(json.dumps(value))
    argv = [str(tmp_path / a) if a in SHAPE_FILES else a for a in SHAPE_ARGVS[command]]
    code, out, err = run_cli(capsys, *argv, "--quiet")
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["code"] == code_name


ASSIGNMENT_SHAPE = "--assignment must be a JSON list of strategy names"


@pytest.mark.parametrize("content,message", [
    (5, ASSIGNMENT_SHAPE),
    (["fickle", 7], ASSIGNMENT_SHAPE),
    (["fickle", "greedy", "a_only"], "unknown strategy 'greedy'"),
])
def test_best_response_refusals_name_the_assignment(tmp_path, capsys, content, message):
    # These were usage errors with no field.
    for file, value in {**SHAPE_FILES, "assignment.json": content}.items():
        (tmp_path / file).write_text(json.dumps(value))
    argv = [str(tmp_path / a) if a in SHAPE_FILES else a for a in SHAPE_ARGVS["best-response"]]
    code, out, err = run_cli(capsys, *argv, "--quiet")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "invalid_input", "message": message,
                               "field": "assignment"}


AGENTS_SHAPE = "agents file must contain a JSON list of objects"


@pytest.mark.parametrize("name,content,payload", [
    ("world.json", {"difficulty_b": 0.2},
     {"code": "invalid_input", "message": "k must be a number, got None", "field": "k"}),
    ("world.json", {"difficulty_a": 0.5},
     {"code": "invalid_input", "message": "k must be a number, got None", "field": "k"}),
    ("world.json", [1, 2], {"code": "invalid_input", "field": "config",
                            "message": "config file must contain a JSON object"}),
    ("agents.json", 5, {"code": "invalid_input", "message": AGENTS_SHAPE, "field": "agents"}),
    ("agents.json", [5], {"code": "invalid_input", "message": AGENTS_SHAPE, "field": "agents"}),
    ("agents.json", [{"id": "a", "policy": "a_only"}],
     {"code": "invalid_input", "message": "agent 'a': power must be a number, got None",
      "field": "power"}),
    ("agents.json", [{"power": 1.0, "policy": "a_only"}],
     {"code": "invalid_input", "message": "an agent has no id", "field": "id"}),
    ("agents.json", [{**SHAPE_AGENT, "power": 0.5}, {**SHAPE_AGENT, "power": 0.5}],
     {"code": "invalid_input", "message": "duplicate agent id 'a'", "field": "id"}),
    # A null id ran as an agent named "None", a number as its text.
    ("agents.json", [{**SHAPE_AGENT, "id": None, "power": 0.5}, {**SHAPE_AGENT, "id": "None",
                                                                 "power": 0.5}],
     {"code": "invalid_input", "message": "agent id must be a string, got None", "field": "id"}),
    ("agents.json", [{**SHAPE_AGENT, "id": 7}],
     {"code": "invalid_input", "message": "agent id must be a string, got 7", "field": "id"}),
    # These two were usage errors with no field.
    ("agents.json", [{**SHAPE_AGENT, "policy": "greedy"}],
     {"code": "invalid_input", "message": "agent 'a': unknown policy 'greedy'",
      "field": "policy"}),
    ("agents.json", [{**SHAPE_AGENT, "policy": ["a_only"]}],
     {"code": "invalid_input", "message": "agent 'a': unknown policy ['a_only']",
      "field": "policy"}),
])
def test_chain_sim_refusals_name_their_field(tmp_path, capsys, name, content, payload):
    # Each of these exited 2 with a KeyError or ValueError message and no
    # field, or as a usage error.
    for file, value in {**SHAPE_FILES, name: content}.items():
        (tmp_path / file).write_text(json.dumps(value))
    argv = [str(tmp_path / a) if a in SHAPE_FILES else a for a in SHAPE_ARGVS["chain-sim"]]
    code, out, err = run_cli(capsys, *argv, "--quiet")
    assert (code, out) == (2, "")
    assert json.loads(err) == payload


def help_text(only):
    parser = cli.build_parser(only)
    if only is not None:
        parser = parser._subparsers._group_actions[0].choices[only]
    return parser.format_help()


HELP_ARGVS = [["-h"], ["--help"], ["zones", "-h"], ["chain-sim", "--help"]]


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_returns_0_in_process(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == help_text(argv[0] if argv[0] in cli._COMMANDS else None)


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_exits_0_from_main(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dualchain.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "dualchain.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == help_text(argv[0] if argv[0] in cli._COMMANDS else None)


@pytest.mark.parametrize("duration", ["nan", "inf"])
def test_chain_sim_non_finite_duration_exits_2(sim_inputs, duration):
    # These horizons used to loop forever; run them in a child process so a
    # regression fails on the timeout instead of hanging the suite.
    src = os.path.dirname(os.path.dirname(os.path.abspath(dualchain.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "dualchain.cli", *sim_inputs, "--duration", duration],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr.strip().splitlines()[-1])["code"] == "invalid_input"


@pytest.mark.parametrize("extra", [
    ["--replicas", "0"],
    ["--replicas", "-3"],
    ["--replicas", "2", "--events", "events.csv"],
    ["--replicas", "2", "--series", "series.csv"],
])
def test_chain_sim_rejects_unusable_replica_flags(sim_inputs, tmp_path, capsys, extra):
    # A replica count below 1 is a refused number; a second replica with a
    # single-run output is a usage error.
    code_name = "invalid_input" if int(extra[1]) < 1 else "usage"
    extra = [str(tmp_path / a) if a.endswith(".csv") else a for a in extra]
    code, out, err = run_cli(capsys, *sim_inputs, "--duration", "50", *extra)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["code"] == code_name
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("with_events", [False, True])
def test_chain_sim_records_events_only_when_written(sim_inputs, tmp_path, capsys,
                                                    monkeypatch, with_events):
    seen = []
    real_run = chainsim.run

    def spy(*args, **kwargs):
        report = real_run(*args, **kwargs)
        seen.append(kwargs.get("on_block") is not None)
        assert (kwargs.get("on_event") is not None) == seen[-1]
        return report

    monkeypatch.setattr(chainsim, "run", spy)
    extra = ["--events", str(tmp_path / "events.csv")] if with_events else []
    code, _, _ = run_cli(capsys, *sim_inputs, "--duration", "50", *extra)
    assert code == 0
    assert seen == [with_events]


# ---------------------------------------------------------------------------
# --replicas over forked workers: the same bytes, errors and exit codes as a
# plain loop, and no child left behind.


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds, message):
    """Fail with `message` instead of hanging past `seconds`."""
    def expire(*_):
        pytest.fail(message)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def replicas_outcome(capsys, monkeypatch, argv, cpus):
    monkeypatch.setattr(replicas, "cpus", lambda: cpus)
    with deadline(60, "the --replicas dispatch did not finish"):
        outcome = run_cli(capsys, *argv)
    assert_no_child_left()
    return outcome


@pytest.fixture
def replica_argv(sim_inputs, tmp_path):
    return [*sim_inputs, "--duration", "500", "--seed", "3", "--replicas", "5",
            "--out", str(tmp_path / "merged.json")]


# A fork that fails (the process limit) leaves the rest to this process.
@pytest.mark.parametrize("cpus,fork_fails", [(2, False), (3, False), (3, True)])
def test_replica_workers_write_the_loop_bytes(capsys, monkeypatch, tmp_path, replica_argv,
                                              cpus, fork_fails):
    out = tmp_path / "merged.json"
    assert replicas_outcome(capsys, monkeypatch, replica_argv, 1) == (0, "", "")
    serial = out.read_bytes()
    out.unlink()
    if fork_fails:
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
    assert replicas_outcome(capsys, monkeypatch, replica_argv, cpus) == (0, "", "")
    assert out.read_bytes() == serial
    assert [r["seed"] for r in json.loads(serial)["replicas"]] == [3, 4, 5, 6, 7]


def test_replica_worker_that_dies_before_writing_is_run_here(capsys, monkeypatch, tmp_path,
                                                            replica_argv):
    # A worker that leaves without a word: its seeds run again in this process.
    out = tmp_path / "merged.json"
    assert replicas_outcome(capsys, monkeypatch, replica_argv, 1) == (0, "", "")
    serial = out.read_bytes()
    out.unlink()
    parent, real_timed = os.getpid(), replicas._timed

    def dying(job, seed):
        if os.getpid() != parent:
            os._exit(0)
        return real_timed(job, seed)

    monkeypatch.setattr(replicas, "_timed", dying)
    assert replicas_outcome(capsys, monkeypatch, replica_argv, 2) == (0, "", "")
    assert out.read_bytes() == serial


class _Boom(DualchainError):
    code = "boom"


# Seeds 3..7 over two processes: this one runs 3, 5, 7 and the worker 4, 6.
@pytest.mark.parametrize("failing", [{6}, {4, 5}, {5, 6}, {4, 6}])
def test_replica_failure_exits_like_the_loop(capsys, monkeypatch, replica_argv, failing):
    real_run = chainsim.run

    def spy(world, agents, regime_a, regime_b, duration, seed, **kwargs):
        if seed in failing:
            raise _Boom(f"seed {seed} failed")
        return real_run(world, agents, regime_a, regime_b, duration, seed, **kwargs)

    monkeypatch.setattr(chainsim, "run", spy)
    serial = replicas_outcome(capsys, monkeypatch, replica_argv, 1)
    assert serial == (2, "", json.dumps({"code": "boom",
                                         "message": f"seed {min(failing)} failed"}) + "\n")
    assert replicas_outcome(capsys, monkeypatch, replica_argv, 2) == serial


@pytest.mark.parametrize("count,cpus,forks", [
    (5, 2, 1), (5, 3, 2), (3, 8, 2), (2, 1, 0), (1, 4, 0),
])
def test_replicas_fork_one_worker_per_spare_cpu(capsys, monkeypatch, sim_inputs, count,
                                                cpus, forks):
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    argv = [*sim_inputs, "--duration", "50", "--replicas", str(count)]
    code, out, _ = replicas_outcome(capsys, monkeypatch, argv, cpus)
    assert code == 0
    reports = json.loads(out)["replicas"] if count > 1 else [json.loads(out)]
    assert [r["seed"] for r in reports] == list(range(count))
    assert len(calls) == forks


# A worker blocked on its full pipe: each report outgrows a pipe's buffer.
# Even without the kill it must exit, since it holds no read end of its own
# pipe and its write fails once the parent closes the last one.  A busy
# worker, in a run that would take minutes, needs the kill.
@pytest.mark.parametrize("worker,kill", [("blocked", True), ("blocked", False),
                                         ("busy", True)])
def test_replica_interrupt_leaves_no_worker_behind(capsys, monkeypatch, replica_argv,
                                                   worker, kill):
    # The interrupt comes while the worker runs; the parent must not wait on it.
    parent = os.getpid()
    real_report_dict, real_run, real_fork, real_kill = (cli._report_dict, chainsim.run,
                                                        os.fork, os.kill)
    forked = []

    def recording_fork():
        pid = real_fork()
        forked.append(pid)
        return pid

    def bulky(report):
        return {**real_report_dict(report), "padding": "x" * 200_000}

    def interrupted(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        if worker == "busy":
            time.sleep(300)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "_report_dict", bulky)
    monkeypatch.setattr(chainsim, "run", interrupted)
    monkeypatch.setattr(replicas, "cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", recording_fork)
    if not kill:
        monkeypatch.setattr(os, "kill", lambda pid, sig: None)
    try:
        with deadline(30, "the parent waited on its worker"), \
                pytest.raises(KeyboardInterrupt):
            dispatch(replica_argv)
        assert_no_child_left()
    finally:
        # On a failure, end any worker still running, so it cannot hold the
        # suite's output open.  An unreaped child's pid is never reused.
        for pid in forked:
            with contextlib.suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    real_kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def test_cpus_counts_all_cpus_without_an_affinity_call(monkeypatch):
    # Not every platform has os.sched_getaffinity.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert replicas.cpus() == (os.cpu_count() or 1)


def test_only_replica_runs_load_the_fork_machinery(sim_inputs):
    # A fresh interpreter: which modules a dispatch loads sets its peak RSS.
    src = os.path.dirname(os.path.dirname(os.path.abspath(dualchain.__file__)))
    probe = ("import sys\n"
             "from dualchain.cli import dispatch\n"
             "assert dispatch(sys.argv[1:]) == 0\n"
             "print(sorted({'dualchain.replicas', 'pickle', 'multiprocessing'}"
             " & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    loaded = []
    for extra in ([], ["--replicas", "2"]):
        proc = subprocess.run([sys.executable, "-c", probe, *sim_inputs, "--duration", "50",
                               "--out", os.devnull, *extra],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        loaded.append(proc.stdout.strip())
    assert loaded == ["[]", "['dualchain.replicas']"]


def test_merge_replicas_gives_mean_and_sample_stdev():
    densities = [{"fickle": 1.0, "a_only": 0.5}, None, {"fickle": 1.5, "a_only": 0.25},
                 {"fickle": 2.5, "a_only": 0.25}]
    reports = [{"seed": i, "policy_density": d} for i, d in enumerate(densities)]
    merged = cli._merge_replicas(reports)
    assert list(merged) == ["replicas", "mean_policy_density", "stdev_policy_density"]
    assert merged["replicas"] is reports
    assert merged["mean_policy_density"] == {"fickle": 5.0 / 3, "a_only": 1.0 / 3}
    for policy, stdev in merged["stdev_policy_density"].items():
        want = statistics.stdev(d[policy] for d in densities if d)
        assert stdev == pytest.approx(want, rel=1e-15)
    # Fewer than two densities: no spread to report.
    assert cli._merge_replicas(reports[:2])["stdev_policy_density"] is None
    assert cli._merge_replicas(reports[1:2]) == {"replicas": reports[1:2],
                                                 "stdev_policy_density": None}


def test_merge_replicas_non_finite_density_exits_2_at_the_emit():
    reports = [{"policy_density": {"fickle": d}} for d in (math.inf, 1.0)]
    with pytest.raises(cli._NonFiniteOutput) as refused:
        cli._json(cli._merge_replicas(reports))
    # The first top-level key holding one: the replica reports themselves.
    assert refused.value.field == "replicas"


def test_chain_sim_replicas_report_density_stdev(capsys, monkeypatch, replica_argv,
                                                 tmp_path):
    assert replicas_outcome(capsys, monkeypatch, replica_argv, 2)[0] == 0
    merged = json.loads((tmp_path / "merged.json").read_text())
    densities = [r["policy_density"] for r in merged["replicas"] if r["policy_density"]]
    assert len(densities) > 1
    for policy, stdev in merged["stdev_policy_density"].items():
        assert stdev == pytest.approx(statistics.stdev(d[policy] for d in densities),
                                      rel=1e-12)


def chain_sim_debug_lines(err):
    prefix = "DEBUG dualchain: "
    return [json.loads(line[len(prefix):]) for line in err.splitlines()
            if line.startswith(prefix)]


def test_chain_sim_debug_line_reports_runs_and_stage_seconds(capsys, monkeypatch,
                                                             replica_argv, tmp_path):
    _, _, err = replicas_outcome(capsys, monkeypatch, replica_argv, 2)
    assert chain_sim_debug_lines(err) == []
    monkeypatch.setenv("DUALCHAIN_LOG", "debug")
    code, _, err = replicas_outcome(capsys, monkeypatch, replica_argv, 2)
    assert code == 0
    [line] = chain_sim_debug_lines(err)
    merged = json.loads((tmp_path / "merged.json").read_text())
    assert (line["command"], line["replicas"], line["workers"], line["refused"]) == (
        "chain-sim", 5, 2, None)
    assert [(r["seed"], r["blocks"]) for r in line["runs"]] == [
        (r["seed"], r["blocks"]) for r in merged["replicas"]]
    # Forked runs deliver their counters too.
    assert [r["stats"]["blocks"] for r in line["runs"]] == [r["blocks"] for r in line["runs"]]
    assert all(r["seconds"] > 0.0 for r in line["runs"])
    assert set(line["seconds"]) == {"run", "emit"}

    code, out, err = run_cli(capsys, *replica_argv[:-4])
    assert code == 0
    [line] = chain_sim_debug_lines(err)
    assert (line["replicas"], line["workers"]) == (1, 1)
    assert [(r["seed"], r["blocks"]) for r in line["runs"]] == [
        (3, json.loads(out)["blocks"])]


def test_chain_sim_debug_line_names_the_refusal(capsys, monkeypatch, stuck_fickle_inputs):
    monkeypatch.setenv("DUALCHAIN_LOG", "debug")
    argv = [*stuck_fickle_inputs, "--duration", "50", "--replicas", "3"]
    code, _, err = replicas_outcome(capsys, monkeypatch, argv, 2)
    assert code == 2
    [line] = chain_sim_debug_lines(err)
    assert (line["refused"], line["runs"], line["workers"]) == ("zero_power_chain", [], 2)
    assert "emit" not in line["seconds"]


# ---------------------------------------------------------------------------
# CSV tables: the streamed lines must be the bytes csv.DictWriter wrote.


def dictwriter_text(fields, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cli_table(capsys, tmp_path, to_file, *argv):
    """Run a table subcommand; return what it wrote to --out or to stdout."""
    if to_file:
        out = tmp_path / "table.csv"
        code, stdout, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0 and stdout == ""
        return out.read_bytes().decode()
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    return stdout


CELLS = st.one_of(
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(""),
    st.sampled_from([*Zone, *ingest.Basis]).map(lambda m: m.value),
)


@given(st.integers(2, 6).flatmap(
    lambda width: st.lists(st.tuples(*[CELLS] * width), max_size=12).map(
        lambda rows: (width, rows))))
def test_write_csv_matches_csv_writer(table):
    width, rows = table
    fields = tuple(f"c{i}" for i in range(width))
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(fields)
    writer.writerows(rows)
    # The lines as the callers with row tuples build them: "%s" per cell.
    line = ",".join(["%s"] * width) + "\r\n"
    got = io.StringIO()
    with contextlib.redirect_stdout(got):
        cli._emit_csv(fields, map(line.__mod__, rows), None)
    assert got.getvalue() == expected.getvalue()


JSON_CELLS = st.one_of(
    st.integers(-10**30, 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([*Zone, *ingest.Basis]).map(lambda m: m.value),
)


@given(st.integers(1, 6).flatmap(
    lambda width: st.lists(st.tuples(*[JSON_CELLS] * width), max_size=600).map(
        lambda rows: (width, rows))))
def test_write_json_rows_matches_json_dumps(table):
    # Up to 600 rows, so that more than one chunk is joined.
    width, rows = table
    fields = tuple(f"c{i}" for i in range(width))
    got = io.StringIO()
    with contextlib.redirect_stdout(got):
        cli._emit_json_rows("", fields, (tuple(json.dumps(c) if isinstance(c, str) else c
                                               for c in row) for row in rows), "", None)
    assert got.getvalue() == json.dumps([dict(zip(fields, row)) for row in rows],
                                        allow_nan=False) + "\n"


@pytest.mark.parametrize("member", [*Zone, *ingest.Basis])
def test_enum_labels_need_no_csv_quoting(member):
    assert not set(member.value) & set(',"\r\n')


@pytest.mark.parametrize("to_file", [False, True])
def test_zones_csv_bytes_match_dictwriter(config_path, tmp_path, capsys, to_file):
    config, n = config_from_json(config_path), 9
    rows = []
    for i in range(n):
        r_f = (i + 0.5) / n
        for j in range(n):
            r_b = (j + 0.5) / n * (1.0 - r_f)
            rows.append({"r_f": r_f, "r_b": r_b,
                         "zone": zone_of(MiningState(r_f, r_b), config).value})
    expected = dictwriter_text(("r_f", "r_b", "zone"), rows)
    assert cli_table(capsys, tmp_path, to_file, "zones", "--config", config_path,
                     "--grid", str(n), "--quiet") == expected


@pytest.mark.parametrize("to_file", [False, True])
def test_simulate_csv_bytes_match_dictwriter(config_path, tmp_path, capsys, to_file):
    traj = dynamics.simulate_flow(MiningState(0.01, 0.01), dynamics.FlowConfig(0.01),
                                  config_from_json(config_path))
    rows = [
        {"step": i, "r_f": r_f, "r_b": r_b, "zone": z.value, "k": k, "c_stick": c}
        for i, (r_f, r_b, z, k, c) in enumerate(zip(traj.r_f, traj.r_b, traj.zones, traj.ks,
                                                     traj.c_sticks))
    ]
    expected = dictwriter_text(("step", "r_f", "r_b", "zone", "k", "c_stick"), rows)
    assert cli_table(capsys, tmp_path, to_file, "simulate", "--config", config_path,
                     "--initial", "0.01,0.01", "--rate", "0.01", "--format", "csv",
                     "--quiet") == expected


@pytest.mark.parametrize("to_file", [False, True])
def test_payoff_csv_bytes_match_dictwriter(config_path, tmp_path, capsys, to_file):
    triple = payoff_triple(MiningState(0.0, 0.0), config_from_json(config_path))
    assert any(triple.divergent)
    values = (triple.u_f, triple.u_a, triple.u_b)
    row = {"r_f": 0.0, "r_b": 0.0, **{
        name: None if div else v
        for name, v, div in zip(("u_f", "u_a", "u_b"), values, triple.divergent)
    }}
    expected = dictwriter_text(("r_f", "r_b", "u_f", "u_a", "u_b"), [row])
    assert ",," in expected or ",\r\n" in expected
    assert cli_table(capsys, tmp_path, to_file, "payoff", "--config", config_path,
                     "--state", "0,0", "--format", "csv", "--quiet") == expected


def cli_json(argv, to_file):
    """dispatch(argv) in a fresh directory; (exit code, stdout, --out text or None)."""
    with tempfile.TemporaryDirectory() as root:
        out = os.path.join(root, "out.json")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = dispatch([*argv, "--quiet", *(["--out", out] if to_file else [])])
        text = None
        if os.path.exists(out):
            with open(out) as fh:
                text = fh.read()
    return code, stdout.getvalue(), text


def game_file(root, k, n_in, n_de, c_stick):
    path = os.path.join(root, "game.json")
    with open(path, "w") as fh:
        json.dump({"k": k, "n_in": n_in, "n_de": n_de, "c_stick": c_stick,
                   "powers": [1.0 - c_stick]}, fh)
    return path


JSON_GAME = st.tuples(st.floats(0.01, 1.0), st.sampled_from([6, 144, 2016]),
                      st.sampled_from([6, 144, 2016]), st.sampled_from([0.0, 0.05, 0.2]))


@settings(max_examples=40, deadline=None)
@given(JSON_GAME, st.floats(0.01, 0.5), st.floats(0.01, 0.5), st.floats(1e-3, 0.05),
       st.integers(1, 400), st.none() | st.lists(st.tuples(st.integers(0, 400),
                                                          st.floats(0.05, 1.0)),
                                                min_size=1, max_size=4),
       st.booleans())
# A zone-1 step lands on the (0, 0) corner; this used to exit 2 as divergent_state.
@example((0.015625, 6, 6, 0.0), 0.015625, 0.015625, 0.03125, 2, None, False)
@example((0.015625, 6, 6, 0.0), 0.015625, 0.015625, 0.03125, 1, None, True)
def test_simulate_json_bytes_match_json_dumps(game, r_f, r_b, rate, max_steps, k_pairs,
                                              to_file):
    with tempfile.TemporaryDirectory() as root:
        config_path = game_file(root, *game)
        argv = ["simulate", "--config", config_path, "--initial", f"{r_f!r},{r_b!r}",
                "--rate", repr(rate), "--max-steps", str(max_steps), "--format", "json"]
        flow = dynamics.FlowConfig(rate, max_steps)
        if k_pairs:
            k_path = os.path.join(root, "k.json")
            with open(k_path, "w") as fh:
                json.dump(k_pairs, fh)
            argv += ["--k-schedule", k_path]
            flow = dynamics.FlowConfig(rate, max_steps,
                                       k_schedule=Schedule.from_pairs(k_pairs))
        code, stdout, text = cli_json(argv, to_file)
        # No flow from these states refuses: one that reaches the (0, 0)
        # corner stays there in zone 1.
        traj = dynamics.simulate_flow(MiningState(r_f, r_b), flow,
                                      config_from_json(config_path))
    expected = json.dumps({
        "outcome": traj.outcome.value, "steps_used": traj.steps_used,
        "trajectory": [
            {"step": i, "r_f": f, "r_b": b, "zone": z.value, "k": k, "c_stick": c}
            for i, (f, b, z, k, c) in enumerate(zip(traj.r_f, traj.r_b, traj.zones, traj.ks,
                                                    traj.c_sticks))
        ],
    }, allow_nan=False) + "\n"
    assert code == 0
    assert (text, stdout) == ((expected, "") if to_file else (None, expected))


@settings(max_examples=30, deadline=None)
@given(JSON_GAME, st.integers(1, 40), st.sampled_from([0.0, 1e-10, 1e-3]), st.booleans())
def test_zones_json_bytes_match_json_dumps(game, n, tol, to_file):
    with tempfile.TemporaryDirectory() as root:
        config_path = game_file(root, *game)
        config = config_from_json(config_path)
        code, stdout, text = cli_json(["zones", "--config", config_path, "--grid", str(n),
                                       "--tol", repr(tol), "--format", "json"], to_file)
    cells = []
    for i in range(n):
        r_f = (i + 0.5) / n
        for j in range(n):
            r_b = (j + 0.5) / n * (1.0 - r_f)
            cells.append({"r_f": r_f, "r_b": r_b,
                          "zone": zone_of(MiningState(r_f, r_b), config, tol).value})
    expected = json.dumps(cells, allow_nan=False) + "\n"
    assert code == 0
    assert (text, stdout) == ((expected, "") if to_file else (None, expected))


@pytest.mark.parametrize("column", ["r_f", "r_b", "ks", "c_sticks"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("to_file", [False, True])
def test_simulate_json_refuses_a_non_finite_cell_before_writing(config_path, tmp_path, capsys,
                                                                 monkeypatch, column, value,
                                                                 to_file):
    flow = dynamics.simulate_flow

    def spoilt(*args, **kwargs):
        traj = flow(*args, **kwargs)
        getattr(traj, column)[-2] = value
        return traj

    monkeypatch.setattr(dynamics, "simulate_flow", spoilt)
    out = tmp_path / "flow.json"
    code, stdout, err = run_cli(capsys, "simulate", "--config", config_path,
                                "--initial", "0.3,0.2", "--max-steps", "50", "--format", "json",
                                "--quiet", *(["--out", str(out)] if to_file else []))
    assert (code, stdout) == (2, "")
    field = {"ks": "k", "c_sticks": "c_stick"}.get(column, column)
    assert json.loads(err) == {"code": "non_finite_output", "field": field,
                               "message": f"{field} is not finite: JSON cannot carry it"}
    assert not out.exists()


@pytest.mark.parametrize("key,payload", [
    ("k", {"code": "invalid_input", "message": "k must be a number, got None", "field": "k"}),
    ("n_in", {"code": "zero_block_count", "field": "n_in",
              "message": "n_in must be an int in [1, 1.79769e+308], got None"}),
    # This one exited 2 as "KeyError: 'n_de'", with no field.
    ("n_de", {"code": "zero_block_count", "field": "n_de",
              "message": "n_de must be an int in [1, 1.79769e+308], got None"}),
])
def test_game_config_without_a_key_names_it(tmp_path, capsys, key, payload):
    path = tmp_path / "game.json"
    game = {"k": 0.3, "n_in": 2016, "n_de": 2016, "powers": [1.0]}
    del game[key]
    path.write_text(json.dumps(game))
    code, out, err = run_cli(capsys, "equilibria", "--config", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert json.loads(err) == payload


# csv refuses a cell over its field size limit (131072 characters by default).
BIG_CELL = "1" * 200_000


def test_analyze_oversized_csv_cell_is_a_parse_error(config_path, tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text(",".join(ingest.SERIES_COLUMNS) + "\n"
                      + ",".join(map(str, series_row(0, 0.1, 0.5, 0.05))) + "\n"
                      + ",".join([BIG_CELL, "0.9", "0.1", "1.0", "0.5", "0.05"]) + "\n")
    code, out, err = run_cli(capsys, "analyze", "--config", config_path, "--input", str(series),
                             "--quiet")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "parse_error", "field": "input",
                               "message": "line 3: field larger than field limit (131072)"}


@pytest.mark.parametrize("command", ["simulate", "chain-sim"])
def test_oversized_csv_cell_in_a_k_schedule_is_refused_by_its_field(config_path, sim_inputs,
                                                                    tmp_path, capsys, command):
    schedule = tmp_path / "big.csv"
    schedule.write_text(f"at,value\n0,0.05\n10,{BIG_CELL}\n")
    argv = (["simulate", "--config", config_path, "--initial", "0.3,0.2"]
            if command == "simulate" else [*sim_inputs, "--duration", "10"])
    code, out, err = run_cli(capsys, *argv, "--k-schedule", str(schedule), "--quiet")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "invalid_input", "field": "schedule",
                               "message": "schedule row 3: field larger than field limit "
                                          "(131072)"}


@pytest.mark.parametrize("content", [[0.3], "k"])
def test_config_that_is_no_object_is_refused_by_its_field(tmp_path, capsys, content):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, "equilibria", "--config", str(path), "--quiet")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "invalid_input", "field": "config",
                               "message": "config file must contain a JSON object"}


@pytest.mark.parametrize("content,detail", [
    ([None], "cannot unpack non-iterable NoneType object"),
    ([5], "cannot unpack non-iterable int object"),
    ([[0]], "not enough values to unpack (expected 2, got 1)"),
    ([[0, 0.3, 1]], "too many values to unpack (expected 2)"),
])
@pytest.mark.parametrize("flag", ["--k-schedule", "--c-stick-schedule"])
def test_schedule_that_holds_no_pairs_is_refused_by_its_field(config_path, tmp_path, capsys,
                                                               content, detail, flag):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, "simulate", "--config", config_path, "--initial", "0.3,0.2",
                             flag, str(path), "--quiet")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "invalid_input", "field": "schedule", "message":
                               f"schedule must hold [at, value] number pairs: {detail}"}


@pytest.mark.parametrize("content", [{"a": 1}, {"01": 5}, {}, "12", 5])
@pytest.mark.parametrize("command,flag", [("simulate", "--k-schedule"),
                                          ("simulate", "--c-stick-schedule"),
                                          ("chain-sim", "--k-schedule")])
def test_json_schedule_that_is_not_a_list_is_refused_by_its_field(config_path, sim_inputs,
                                                                  tmp_path, capsys, content,
                                                                  command, flag):
    # An object used to be read as its keys and a string as its characters,
    # and {} as an empty schedule.
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(content))
    argv = [*sim_inputs, "--duration", "10"] if command == "chain-sim" else \
        ["simulate", "--config", config_path, "--initial", "0.3,0.2", "--quiet"]
    code, out, err = run_cli(capsys, *argv, flag, str(path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "invalid_input", "field": "schedule",
                               "message": "schedule must hold [at, value] number pairs"}


def test_empty_json_schedule_list_is_no_schedule(config_path, tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text("[]")
    argv = ["simulate", "--config", config_path, "--initial", "0.3,0.2", "--quiet"]
    assert run_cli(capsys, *argv, "--k-schedule", str(path)) == run_cli(capsys, *argv)


def write_series(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(ingest.SERIES_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return str(path)


def series_row(ts, share, d_b_over_d_a, k):
    return (ts, 1.0 - share, share, 1.0, d_b_over_d_a, k)


@pytest.fixture
def analyze_inputs(tmp_path):
    config = tmp_path / "game.json"
    config.write_text(json.dumps({"k": 0.1, "n_in": 2016, "n_de": 6, "powers": [1.0]}))
    # A fickle period first pins r_f; the price then steps up.
    rows = [series_row(i * 600, 0.355, 0.05, 0.1) for i in range(10)]
    rows += [series_row(i * 600, 0.055, 0.5, 0.1 if i < 25 else 0.9) for i in range(10, 40)]
    return str(config), write_series(tmp_path / "series.csv", rows)


def expected_analyze_tables(config_path, series_path):
    loaded = ingest.load_series(series_path)
    periods = ingest.detect_fickle_periods(loaded)
    estimates, _ = ingest.estimate_state_path(loaded, periods)
    ts, share, r_f, k = estimates.columns.values()
    # A record with an r_f is gray, with r_b the share less r_f floored at 0;
    # elsewhere r_b is the share.
    est_text = dictwriter_text(("timestamp", "basis", "share", "r_f_est", "r_b_est"), [{
        "timestamp": t, "basis": (ingest.Basis.NON_GRAY if f is None
                                  else ingest.Basis.GRAY_PERIOD).value, "share": s,
        "r_f_est": "" if f is None else f,
        "r_b_est": s if f is None else max(0.0, s - f),
    } for t, s, f in zip(ts, share, r_f)])
    try:
        zones, _ = ingest.zone_path(estimates, config_from_json(config_path))
    except ingest.UnresolvableState:
        return est_text, None
    zone_text = dictwriter_text(("timestamp", "zone", "k"), [
        {"timestamp": t, "zone": z.value, "k": k_t}
        for t, z, k_t in zip(ts, zones, k)
    ])
    return est_text, zone_text


def test_analyze_csv_bytes_match_dictwriter(analyze_inputs, tmp_path, capsys):
    config_path, series_path = analyze_inputs
    est_out, zone_out = tmp_path / "est.csv", tmp_path / "zones.csv"
    code, out, _ = run_cli(capsys, "analyze", "--config", config_path, "--input", series_path,
                           "--out-estimates", str(est_out), "--out-zones", str(zone_out),
                           "--quiet")
    assert code == 0
    assert json.loads(out)["periods"] >= 1
    est_text, zone_text = expected_analyze_tables(config_path, series_path)
    assert ",," in est_text
    assert est_out.read_bytes().decode() == est_text
    assert zone_out.read_bytes().decode() == zone_text


def test_analyze_refusal_writes_estimates_but_no_zones(tmp_path, capsys):
    config = tmp_path / "game.json"
    config.write_text(json.dumps({"k": 0.3, "n_in": 2016, "n_de": 2016, "powers": [1.0]}))
    # coin_B mining and no fickle period: no r_f estimate to carry.
    series = write_series(tmp_path / "series.csv",
                          [series_row(i * 600, 0.25, 0.5, 0.3) for i in range(10)])
    est_out, zone_out = tmp_path / "est.csv", tmp_path / "zones.csv"
    code, out, err = run_cli(capsys, "analyze", "--config", str(config), "--input", series,
                             "--out-estimates", str(est_out), "--out-zones", str(zone_out),
                             "--quiet")
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert (payload["code"], payload["field"]) == ("unresolvable_state", "input")
    est_text, zone_text = expected_analyze_tables(str(config), series)
    assert zone_text is None
    assert est_out.read_bytes().decode() == est_text
    assert not zone_out.exists()


def test_analyze_debug_line_reports_counts_and_stage_seconds(analyze_inputs, tmp_path,
                                                             capsys, monkeypatch):
    config_path, series_path = analyze_inputs
    argv = ["analyze", "--config", config_path, "--input", series_path,
            "--out-estimates", str(tmp_path / "est.csv"), "--out-zones", str(tmp_path / "z.csv"),
            "--quiet"]

    def debug_lines(err):
        prefix = "DEBUG dualchain: "
        return [json.loads(line[len(prefix):]) for line in err.splitlines()
                if line.startswith(prefix)]

    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and debug_lines(err) == []
    monkeypatch.setenv("DUALCHAIN_LOG", "debug")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    [line] = debug_lines(err)
    summary = json.loads(out)
    assert line["command"] == "analyze"
    assert (line["rows"], line["out_of_order"], line["periods"], line["refused"]) == (
        summary["records"], summary["out_of_order"], summary["periods"], None)
    assert set(line["seconds"]) == {"load", "detect", "estimate", "zones", "emit"}
    assert all(s >= 0.0 for s in line["seconds"].values())

    refusal = write_series(tmp_path / "refusal.csv",
                           [series_row(i * 600, 0.25, 0.5, 0.3) for i in range(10)])
    code, _, err = run_cli(capsys, *argv[:4], refusal, *argv[5:])
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert (payload["code"], payload["field"]) == ("unresolvable_state", "input")
    [line] = debug_lines(err)
    assert (line["rows"], line["periods"], line["refused"]) == (10, 0, "unresolvable_state")
    assert "zones" not in line["seconds"]


def test_analyze_warns_of_out_of_order_records_at_the_default_level(analyze_inputs, tmp_path,
                                                                    capsys, monkeypatch):
    monkeypatch.delenv("DUALCHAIN_LOG", raising=False)
    config_path, _ = analyze_inputs
    rows = [series_row(i * 600, 0.055, 0.5, 0.1) for i in range(6)]
    rows[1], rows[4] = rows[4], rows[1]
    series = write_series(tmp_path / "shuffled.csv", rows)
    code, out, err = run_cli(capsys, "analyze", "--config", config_path, "--input", series,
                             "--quiet")
    assert code == 0
    assert json.loads(out)["out_of_order"] == 2
    assert err.splitlines() == ["WARNING dualchain: sorted 2 out-of-order records"]


def test_log_lines_go_to_stderr_as_each_dispatch_finds_it(analyze_inputs, tmp_path,
                                                         monkeypatch):
    # One handler serves every dispatch; it writes to whatever sys.stderr is.
    monkeypatch.delenv("DUALCHAIN_LOG", raising=False)
    config_path, _ = analyze_inputs
    rows = [series_row(i * 600, 0.055, 0.5, 0.1) for i in range(6)]
    rows[1], rows[4] = rows[4], rows[1]
    series = write_series(tmp_path / "shuffled.csv", rows)
    argv = ["analyze", "--config", config_path, "--input", series, "--quiet"]
    errs, handlers = [], []
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert dispatch(argv) == 0
        errs.append(err.getvalue())
        handlers.append(list(cli.log.handlers))
    assert errs == ["WARNING dualchain: sorted 2 out-of-order records\n"] * 2
    assert len(handlers[0]) == 1 and handlers[0] == handlers[1]


# ---------------------------------------------------------------------------
# Non-finite input exits 2 with nothing on stdout.


def assert_exit_2(capsys, argv, code_name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["code"] == code_name


@pytest.mark.parametrize("column,value,code_name", [
    (1, "nan", "invariant_violation"),
    (2, "inf", "invariant_violation"),
    (3, "-inf", "invariant_violation"),
    (4, "nan", "invariant_violation"),
    (0, "inf", "parse_error"),
    (0, "nan", "parse_error"),
])
def test_analyze_non_finite_series_exits_2(analyze_inputs, tmp_path, capsys,
                                          column, value, code_name):
    config_path, _ = analyze_inputs
    bad = list(series_row(600, 0.1, 0.5, 0.3))
    bad[column] = value
    series = write_series(tmp_path / "bad.csv", [series_row(0, 0.1, 0.5, 0.3), bad])
    assert_exit_2(capsys, ["analyze", "--config", config_path, "--input", series,
                           "--out-estimates", str(tmp_path / "est.csv"), "--quiet"],
                  code_name)
    assert not (tmp_path / "est.csv").exists()


def test_analyze_overflowing_hashrate_sum_exits_2(analyze_inputs, tmp_path, capsys):
    # The sum is inf, so the B share read 0.0 and the run exited 0 in zone 1.
    config_path, _ = analyze_inputs
    series = write_series(tmp_path / "big.csv", [series_row(0, 0.1, 0.5, 0.3),
                                                 (600, 1e308, 1e308, 1.0, 0.5, 0.3)])
    assert_exit_2(capsys, ["analyze", "--config", config_path, "--input", series,
                           "--out-zones", str(tmp_path / "zones.csv"), "--quiet"],
                  "invariant_violation")
    assert not (tmp_path / "zones.csv").exists()


def test_analyze_difficulties_whose_sum_overflows_exit_0(analyze_inputs, tmp_path, capsys):
    # Near the float maximum any sum of difficulties overflows; their ratio does not.
    config_path, _ = analyze_inputs
    series = write_series(tmp_path / "big.csv", [(0, 0.9, 0.1, 1e308, 5e307, 0.3),
                                                 (600, 0.9, 0.1, 1e308, 5e307, 0.3),
                                                 (1200, 0.9, 0.1, 1e308, 1e307, 0.3),
                                                 (1800, 0.9, 0.1, 1e308, 5e307, 0.3)])
    periods = tmp_path / "periods.json"
    code, out, err = run_cli(capsys, "analyze", "--config", config_path, "--input", series,
                             "--out-periods", str(periods), "--quiet")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"records": 4, "periods": 1, "out_of_order": 0}
    [period] = json.loads(periods.read_text())
    assert (period["start_index"], period["end_index"]) == (2, 3)
    assert period["trigger_ratio"] == 1e307 / 1e308


def test_analyze_scaled_difficulty_that_underflows_exits_0(analyze_inputs, tmp_path, capsys):
    # Rows 330 orders of magnitude apart: each row's ratio is still exact.
    config_path, _ = analyze_inputs
    series = write_series(tmp_path / "tiny.csv", [(0, 0.9, 0.1, 1e300, 1e300, 0.3),
                                                  (600, 0.9, 0.1, 1e-30, 1e-31, 0.3),
                                                  (1200, 0.9, 0.1, 1e-30, 1e-30, 0.3)])
    periods = tmp_path / "periods.json"
    code, out, err = run_cli(capsys, "analyze", "--config", config_path, "--input", series,
                             "--out-periods", str(periods), "--quiet")
    assert (code, err) == (0, "")
    [period] = json.loads(periods.read_text())
    assert (period["start_index"], period["end_index"]) == (1, 2)
    assert period["trigger_ratio"] == 1e-31 / 1e-30


def test_analyze_scaled_difficulties_that_overflow_keep_their_ratio(analyze_inputs, tmp_path,
                                                                    capsys):
    # Rows 310 orders of magnitude apart: the period the ratio 0.1 opens at
    # row 1 is found.
    config_path, _ = analyze_inputs
    series = write_series(tmp_path / "huge.csv", [(0, 0.9, 0.1, 1e-300, 1e-300, 0.3),
                                                  (600, 0.9, 0.1, 1e10, 1e9, 0.3),
                                                  (1200, 0.9, 0.1, 1e10, 2e10, 0.3)])
    periods = tmp_path / "periods.json"
    code, out, err = run_cli(capsys, "analyze", "--config", config_path, "--input", series,
                             "--out-periods", str(periods), "--quiet")
    assert (code, err) == (0, "")
    [period] = json.loads(periods.read_text())
    assert (period["start_index"], period["end_index"]) == (1, 2)
    assert period["trigger_ratio"] == 1e9 / 1e10


def test_analyze_fractional_timestamp_exits_2_naming_its_line(analyze_inputs, tmp_path,
                                                             capsys):
    config_path, _ = analyze_inputs
    series = write_series(tmp_path / "frac.csv", [series_row(0.4, 0.1, 0.5, 0.3),
                                                  series_row(0.6, 0.1, 0.5, 0.3)])
    assert_exit_2(capsys, ["analyze", "--config", config_path, "--input", series, "--quiet"],
                  "parse_error")


@pytest.mark.parametrize("state", ["nan,0.1", "0.1,nan", "inf,0", "0,-inf"])
def test_payoff_non_finite_state_exits_2(config_path, capsys, state):
    assert_exit_2(capsys, ["payoff", "--config", config_path, "--state", state, "--quiet"],
                  "invalid_input")


@pytest.mark.parametrize("c_stick,code_name", [
    ("NaN", "negative_power"), ("Infinity", "power_sum_mismatch"),
])
def test_non_finite_c_stick_exits_2(tmp_path, capsys, c_stick, code_name):
    config = tmp_path / "game.json"
    config.write_text('{"k": 0.3, "n_in": 10, "n_de": 10, "c_stick": %s, "powers": [1.0]}'
                      % c_stick)
    assert_exit_2(capsys, ["payoff", "--config", str(config), "--state", "0.3,0.1",
                           "--quiet"], code_name)


@pytest.mark.parametrize("field,value", [
    ("difficulty_a", "NaN"), ("difficulty_b", "Infinity"), ("difficulty_a", "-Infinity"),
])
def test_chain_sim_non_finite_difficulty_exits_2(tmp_path, capsys, field, value):
    world = {"k": 0.4, "difficulty_a": 1.0, "difficulty_b": 0.4}
    world_path = tmp_path / "world.json"
    world_path.write_text(json.dumps(world).replace(f'"{field}": {world[field]}',
                                                     f'"{field}": {value}'))
    assert value in world_path.read_text()
    agents = tmp_path / "agents.json"
    agents.write_text(json.dumps([{"id": "a", "power": 1.0, "policy": "a_only"}]))
    assert_exit_2(capsys, ["chain-sim", "--config", str(world_path), "--agents", str(agents),
                           "--duration", "10", "--quiet"], "invalid_input")


def test_json_emit_refuses_non_finite(config_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "automatic_threshold", lambda config: math.nan)
    code, out, err = run_cli(capsys, "threshold", "--config", config_path, "--quiet")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "non_finite_output", "field": "automatic_threshold",
                               "message": "automatic_threshold is not finite: "
                                          "JSON cannot carry it"}


def test_json_names_the_first_top_level_key_holding_a_non_finite_value():
    with pytest.raises(cli._NonFiniteOutput) as refused:
        cli._json({"a": 1.0, "b": {"c": [0.5, -math.inf]}, "d": math.nan})
    assert refused.value.field == "b"


# ---------------------------------------------------------------------------
# dispatch builds only the named command's subparser; it must behave exactly
# as the full parser does.

VALID_ARGV = {
    "payoff": ["--config", "c.json", "--state", "0.1,0.2"],
    "zones": ["--config", "c.json", "--grid", "3", "--tol", "1e-9", "--format", "json"],
    "equilibria": ["--config", "c.json", "--quiet"],
    "threshold": ["--config", "c.json", "--out", "t.json"],
    "simulate": ["--config", "c.json", "--initial", "0.1,0.1", "--max-steps", "5",
                 "--k-schedule", "k.csv"],
    "best-response": ["--config", "c.json", "--assignment", "a.json", "--seed", "3"],
    "chain-sim": ["--config", "c.json", "--agents", "a.json", "--duration", "10",
                  "--mode", "deterministic", "--regime-b", "perblock:144"],
    "analyze": ["--config", "c.json", "--input", "s.csv", "--hysteresis", "0.1"],
}


def test_valid_argvs_cover_every_command():
    assert set(VALID_ARGV) == set(cli._COMMANDS)


def parse_outcome(parser, argv):
    try:
        return "args", vars(parser.parse_args(argv))
    except cli._UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code


def dispatch_outcome(capsys, argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSER_ARGVS = [[], ["-h"], ["bogus"], ["bogus", "--config", "c.json"]] + [
    argv
    for name, valid in VALID_ARGV.items()
    for argv in ([name, "-h"], [name], [name] + valid[2:], [name] + valid + ["--bogus"],
                 [name, "--config"], [name] + valid + ["extra"])
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_filtered_parser_matches_full_parser(monkeypatch, capsys, argv):
    built = []
    full = cli.build_parser

    def spy(only=None):
        built.append(only)
        return full(only)

    monkeypatch.setattr(cli, "build_parser", spy)
    filtered = dispatch_outcome(capsys, argv)
    expected_only = argv[0] if argv and argv[0] in cli._COMMANDS else None
    assert built == [expected_only]
    monkeypatch.setattr(cli, "build_parser", lambda only=None: full())
    assert dispatch_outcome(capsys, argv) == filtered
    # -h prints the help on stdout and returns 0; every other argv here is refused.
    assert filtered[0] == (0 if "-h" in argv else 2)
    assert (filtered[1] != "") == ("-h" in argv)


@pytest.mark.parametrize("name", sorted(VALID_ARGV))
def test_filtered_parser_parses_valid_argv_like_full_parser(name):
    argv = [name] + VALID_ARGV[name]
    kind, parsed = parse_outcome(cli.build_parser(name), argv)
    assert kind == "args"
    assert parsed["func"] is cli._COMMANDS[name][2]
    assert parse_outcome(cli.build_parser(), argv) == (kind, parsed)


def test_filtered_parser_holds_only_its_command():
    subs = cli.build_parser("zones")._subparsers._group_actions[0]
    assert list(subs.choices) == ["zones"]
    full = cli.build_parser()._subparsers._group_actions[0]
    assert list(full.choices) == list(cli._COMMANDS)


# Each parser is built once per process: a cached parser must run any
# sequence of argvs as a freshly built one runs each.


def test_build_parser_builds_each_parser_once():
    for only in [*cli._COMMANDS, None]:
        assert cli.build_parser(only) is cli.build_parser(only)
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("name", sorted(VALID_ARGV))
def test_cached_parser_runs_a_sequence_like_fresh_parsers(tmp_path, monkeypatch, capsys,
                                                          name):
    # The files VALID_ARGV names, in the working directory.  c.json serves
    # as the world config too: coin_B's difficulty defaults to k.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"k": 0.1, "n_in": 2016, "n_de": 6,
                                                 "powers": [1.0]}))
    (tmp_path / "a.json").write_text(json.dumps(
        ["a_only"] if name == "best-response"
        else [{"id": "a", "power": 1.0, "policy": "a_only"}]))
    (tmp_path / "k.csv").write_text("at,value\n0,0.1\n")
    write_series(tmp_path / "s.csv",
                 [series_row(i * 600, 0.355 if i < 10 else 0.055, 0.05 if i < 10 else 0.5, 0.1)
                  for i in range(40)])
    valid = [name, *VALID_ARGV[name]]
    errors = [argv for argv in PARSER_ARGVS if argv[:1] == [name] and "-h" not in argv]
    sequence = [valid, *errors, [name, "-h"], valid + ["--out", "other.txt", "--quiet"]]

    def outcome(argv):
        """(exit, stdout, stderr, --out other.txt's text or None)."""
        result = dispatch_outcome(capsys, argv)
        other = tmp_path / "other.txt"
        text = other.read_text() if other.exists() else None
        other.unlink(missing_ok=True)
        return (*result, text)

    cli.build_parser.cache_clear()
    cached = [outcome(argv) for argv in sequence]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert cached == fresh
    assert [code for code, *_ in cached] == [0] + [2] * len(errors) + [0, 0]
    assert cached[-2][1] != "" and cached[-1][3]


def test_cached_parser_help_follows_columns(monkeypatch, capsys):
    argv = ["chain-sim", "-h"]
    cli.build_parser("chain-sim")  # built before COLUMNS changes
    helps = {}
    for columns in ("40", "160"):
        monkeypatch.setenv("COLUMNS", columns)
        helps[columns] = dispatch_outcome(capsys, argv)
    assert helps["40"] != helps["160"]
    assert max(map(len, helps["160"][1].splitlines())) > 80
    for columns, cached in helps.items():
        monkeypatch.setenv("COLUMNS", columns)
        cli.build_parser.cache_clear()
        assert dispatch_outcome(capsys, argv) == cached


# ---------------------------------------------------------------------------
# Non-finite tuning knobs exit 2 with nothing on stdout.


def square_wave_inputs(tmp_path):
    config = tmp_path / "game.json"
    config.write_text(json.dumps({"k": 0.3, "n_in": 2016, "n_de": 2016, "powers": [1.0]}))
    rows = [series_row(i * 600, 0.4 if (i // 10) % 2 else 0.1,
                       0.1 if (i // 10) % 2 else 0.5, 0.3) for i in range(40)]
    return str(config), write_series(tmp_path / "square.csv", rows)


def test_analyze_default_hysteresis_finds_square_wave_periods(tmp_path, capsys):
    config, series = square_wave_inputs(tmp_path)
    code, out, _ = run_cli(capsys, "analyze", "--config", config, "--input", series, "--quiet")
    assert code == 0
    assert json.loads(out)["periods"] == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1"])
def test_analyze_bad_hysteresis_exits_2(tmp_path, capsys, value):
    config, series = square_wave_inputs(tmp_path)
    periods = tmp_path / "periods.json"
    assert_exit_2(capsys, ["analyze", "--config", config, "--input", series,
                           f"--hysteresis={value}", "--out-periods", str(periods), "--quiet"],
                  "invalid_input")
    assert not periods.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_simulate_bad_eps_exits_2(config_path, capsys, value):
    assert_exit_2(capsys, ["simulate", "--config", config_path, "--initial", "0.01,0.01",
                           f"--eps={value}", "--quiet"], "invalid_input")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-10"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zones_bad_tol_exits_2(config_path, capsys, value, fmt):
    assert_exit_2(capsys, ["zones", "--config", config_path, "--grid", "4", f"--tol={value}",
                           "--format", fmt, "--quiet"], "invalid_input")


def test_zones_zero_tol_is_accepted(config_path, capsys):
    code, out, _ = run_cli(capsys, "zones", "--config", config_path, "--grid", "4",
                           "--tol", "0", "--quiet")
    assert code == 0
    assert len(out.splitlines()) == 17


# ---------------------------------------------------------------------------
# chain-sim's streamed event log and series.


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "1e-4"])
def test_chain_sim_bad_series_step_exits_2(sim_inputs, tmp_path, capsys, value):
    events, series = tmp_path / "events.csv", tmp_path / "series.csv"
    assert_exit_2(capsys, [*sim_inputs, "--duration", "50", "--events", str(events),
                           "--series", str(series), f"--series-step={value}"],
                  "invalid_input")
    assert not events.exists() and not series.exists()


def test_chain_sim_series_step_needs_series(sim_inputs, tmp_path, capsys):
    events = tmp_path / "events.csv"
    assert_exit_2(capsys, [*sim_inputs, "--duration", "50", "--events", str(events),
                           "--series-step", "2"], "usage")
    assert not events.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0"])
def test_chain_sim_non_finite_eda_threshold_exits_2(sim_inputs, capsys, threshold):
    # A NaN or infinite threshold used to switch the emergency rule off silently.
    assert_exit_2(capsys, [*sim_inputs, "--duration", "50",
                           "--regime-b", f"eda:144:6:{threshold}:0.8"], "invalid_input")


@pytest.fixture
def stuck_fickle_inputs(tmp_path):
    """A roster whose fickle power waits on a coin_B nobody mines."""
    world = tmp_path / "stuck_world.json"
    world.write_text(json.dumps({"k": 0.05, "difficulty_a": 1.0, "difficulty_b": 0.9}))
    agents = tmp_path / "stuck_agents.json"
    agents.write_text(json.dumps([
        {"id": "f", "power": 0.5, "policy": "fickle"},
        {"id": "a", "power": 0.5, "policy": "a_only"},
    ]))
    return ["chain-sim", "--config", str(world), "--agents", str(agents),
            "--regime-a", "epoch:100", "--regime-b", "epoch:100", "--quiet"]


@pytest.mark.parametrize("case", ["zero_power_chain", "nan_duration"])
def test_failed_chain_sim_leaves_no_events_file(sim_inputs, stuck_fickle_inputs, tmp_path,
                                                capsys, case):
    events, series = tmp_path / "events.csv", tmp_path / "series.csv"
    if case == "zero_power_chain":
        argv, code_name = [*stuck_fickle_inputs, "--duration", "50"], "zero_power_chain"
    else:
        argv, code_name = [*sim_inputs, "--duration", "nan"], "invalid_input"
    assert_exit_2(capsys, [*argv, "--events", str(events), "--series", str(series)],
                  code_name)
    assert not events.exists() and not series.exists()


def test_a_run_refused_midway_leaves_no_partial_series(tmp_path, capsys, monkeypatch):
    # The event log and the series stream to their files as the run goes, so
    # a run that stops at a retarget has begun both; it must remove both.
    world, agents = tmp_path / "world.json", tmp_path / "agents.json"
    world.write_text(json.dumps({"k": 0.866, "difficulty_a": 1.08, "difficulty_b": 0.866}))
    agents.write_text(json.dumps([{"id": "b", "power": 1.0, "policy": "b_only"}]))
    events, series = tmp_path / "events.csv", tmp_path / "series.csv"
    begun = []
    real_run = chainsim.run

    def spy(*args, **kwargs):
        try:
            return real_run(*args, **kwargs)
        finally:
            begun.append((events.exists(), series.exists()))

    monkeypatch.setattr(chainsim, "run", spy)
    with deadline(60, "the refused chain-sim did not finish"):
        assert_exit_2(capsys, ["chain-sim", "--config", str(world), "--agents", str(agents),
                               "--regime-b", "eda:9:16:0.1:0.06564761225295633",
                               "--mode", "deterministic", "--duration", "24", "--quiet",
                               "--events", str(events), "--series", str(series)],
                      "difficulty_collapse")
    assert begun == [(True, True)]
    assert not events.exists() and not series.exists()


def test_failed_chain_sim_keeps_events_symlink(stuck_fickle_inputs, tmp_path, capsys):
    # Only a regular file the command wrote is removed, never what a link names.
    target = tmp_path / "target.csv"
    target.write_text("")
    link = tmp_path / "events.csv"
    link.symlink_to(target)
    assert_exit_2(capsys, [*stuck_fickle_inputs, "--duration", "50", "--events", str(link)],
                  "zero_power_chain")
    assert link.is_symlink() and target.exists()


def _chain_sim_peak_bytes(tmp_path, duration):
    world = tmp_path / "world.json"
    world.write_text(json.dumps({"k": 0.378, "difficulty_a": 0.76, "difficulty_b": 0.2}))
    agents = tmp_path / "agents.json"
    agents.write_text(json.dumps([
        {"id": "f", "power": 0.3, "policy": "fickle"},
        {"id": "b", "power": 0.2, "policy": "b_only"},
        {"id": "a", "power": 0.5, "policy": "a_only"},
    ]))
    argv = ["chain-sim", "--config", str(world), "--agents", str(agents),
            "--regime-a", "epoch:1000000000", "--regime-b", "epoch:144",
            "--mode", "deterministic", "--duration", str(duration),
            "--events", str(tmp_path / "events.csv"), "--series", str(tmp_path / "series.csv"),
            "--out", str(tmp_path / "report.json"), "--quiet"]
    tracemalloc.start()
    try:
        assert dispatch(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_sim_event_log_and_series_memory_is_flat_in_the_horizon(tmp_path):
    # Events and series rows stream to their files as the run makes them,
    # so an 8x longer run needs no more memory.
    _chain_sim_peak_bytes(tmp_path, 100)
    short = _chain_sim_peak_bytes(tmp_path, 1000)
    long = _chain_sim_peak_bytes(tmp_path, 8000)
    events = (tmp_path / "events.csv").read_text().count("\n")
    assert events > 10_000
    assert long < 1.5 * short, (short, long)


def _simulate_writer_peak_bytes(tmp_path, monkeypatch, max_steps):
    """tracemalloc's peak while `simulate --format json --out` writes a flow
    that never settles, above what it held once the flow was integrated."""
    config = tmp_path / "game.json"
    config.write_text(json.dumps({"k": 0.1, "n_in": 2016, "n_de": 2016, "powers": [1.0]}))
    # A price that flips every 40 steps keeps the state undecided.
    schedule = tmp_path / "k.json"
    schedule.write_text(json.dumps([[i * 40, 0.9 if i % 2 else 0.1] for i in range(1000)]))
    out = tmp_path / "flow.json"
    flow, held = dynamics.simulate_flow, []

    def integrated(*args, **kwargs):
        traj = flow(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return traj

    monkeypatch.setattr(dynamics, "simulate_flow", integrated)
    tracemalloc.start()
    try:
        assert dispatch(["simulate", "--config", str(config), "--initial", "0.3,0.2",
                         "--rate", "0.001", "--eps", "1e-6", "--max-steps", str(max_steps),
                         "--k-schedule", str(schedule), "--format", "json", "--out", str(out),
                         "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = json.loads(out.read_text())
    assert (written["outcome"], written["steps_used"]) == ("undecided", max_steps - 1)
    return peak - held[0]


def test_simulate_json_memory_is_flat_in_the_flow_length(tmp_path, monkeypatch):
    # The rows go out a chunk at a time: no object per row, no text of the
    # whole array.  Measured: ~95 kB at both lengths (the whole-text writer
    # took 2.5 MB at 2000 steps and 11 MB at 20000).
    short = _simulate_writer_peak_bytes(tmp_path, monkeypatch, 2000)
    long = _simulate_writer_peak_bytes(tmp_path, monkeypatch, 20000)
    assert long <= 1.25 * short, (short, long)


def _zones_json_peak_bytes(tmp_path, config_path, grid):
    tracemalloc.start()
    try:
        assert dispatch(["zones", "--config", config_path, "--grid", str(grid),
                         "--format", "json", "--out", str(tmp_path / "zones.json"),
                         "--quiet"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_zones_json_memory_is_flat_in_the_grid(tmp_path, config_path):
    # Measured: 78 kB at --grid 20 and 86 kB at --grid 200 (the whole-text
    # writer took 0.30 MB and 13.8 MB).
    _zones_json_peak_bytes(tmp_path, config_path, 5)
    short = _zones_json_peak_bytes(tmp_path, config_path, 20)
    long = _zones_json_peak_bytes(tmp_path, config_path, 200)
    assert len(json.loads((tmp_path / "zones.json").read_text())) == 200 * 200
    assert long <= 1.25 * short, (short, long)
