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
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import dualchain
from dualchain import chainsim, cli, dynamics, ingest, replicas
from dualchain.cli import dispatch
from dualchain.core import DualchainError, MiningState, Zone, config_from_json
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


def test_validation_error_json_and_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 1.2, "n_in": 10, "n_de": 10, "powers": [1.0]}))
    code, _, err = run_cli(capsys, "equilibria", "--config", str(bad), "--quiet")
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["code"] == "k_above_one"
    assert "message" in payload
    assert payload["field"] == "k"


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


def test_bad_regime_spec_exits_2(tmp_path, capsys):
    world = tmp_path / "w.json"
    world.write_text(json.dumps({"k": 0.3, "difficulty_a": 1.0, "difficulty_b": 0.3}))
    agents = tmp_path / "a.json"
    agents.write_text(json.dumps([{"id": "a", "power": 1.0, "policy": "a_only"}]))
    code, _, err = run_cli(capsys, "chain-sim", "--config", str(world),
                           "--agents", str(agents), "--duration", "10",
                           "--regime-b", "wavelet:9", "--quiet")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["code"] == "usage"


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


@pytest.mark.parametrize("name,pairs", [
    ("k.json", "[[0, NaN]]"),
    ("k.json", "[[0, 0.3], [5, 2.0]]"),
    ("k.json", "[[0, 0.0]]"),
    ("k.json", "[[NaN, 0.3]]"),
    ("k.csv", "at,value\n0,0.3\ninf,0.4\n"),
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
    assert error["code"] == "invalid_input" and "schedule" in error["message"]


@pytest.mark.parametrize("pairs", ["[[0, 1.0]]", "[[0, -0.1]]", "[[3, NaN]]"])
def test_bad_c_stick_schedule_exits_2(tmp_path, capsys, config_path, pairs):
    schedule = tmp_path / "c.json"
    schedule.write_text(pairs)
    code, out, _ = run_cli(capsys, "simulate", "--config", config_path, "--initial", "0.3,0.2",
                           "--quiet", "--c-stick-schedule", str(schedule))
    assert code == 2
    assert out == ""


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
    extra = [str(tmp_path / a) if a.endswith(".csv") else a for a in extra]
    code, out, err = run_cli(capsys, *sim_inputs, "--duration", "50", *extra)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["code"] == "usage"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("with_events", [False, True])
def test_chain_sim_records_events_only_when_written(sim_inputs, tmp_path, capsys,
                                                    monkeypatch, with_events):
    seen = []
    real_run = chainsim.run

    def spy(*args, **kwargs):
        report = real_run(*args, **kwargs)
        seen.append(kwargs.get("on_event") is not None)
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
    with pytest.raises(ValueError):
        cli._json(cli._merge_replicas(reports))


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
    got = io.StringIO()
    cli._write_csv(got, fields, iter(rows))
    assert got.getvalue() == expected.getvalue()


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
        {"step": i, "r_f": s.r_f, "r_b": s.r_b, "zone": z.value, "k": k, "c_stick": c}
        for i, (s, z, k, c) in enumerate(zip(traj.states, traj.zones, traj.ks, traj.c_sticks))
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


def write_series(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(ingest.SERIES_HEADER) + "\n")
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
    records = ingest.load_series(series_path).records
    periods = ingest.detect_fickle_periods(records)
    estimates, _ = ingest.estimate_state_path(records, periods)
    est_text = dictwriter_text(("timestamp", "basis", "share", "r_f_est", "r_b_est"), [{
        "timestamp": e.timestamp, "basis": e.basis.value, "share": e.share,
        "r_f_est": "" if e.r_f is None else e.r_f,
        "r_b_est": "" if e.r_b is None else e.r_b,
    } for e in estimates])
    try:
        zones, _ = ingest.zone_path(estimates, config_from_json(config_path))
    except ingest.UnresolvableState:
        return est_text, None
    zone_text = dictwriter_text(("timestamp", "zone", "k"), [
        {"timestamp": e.timestamp, "zone": z.value, "k": e.k}
        for e, z in zip(estimates, zones)
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
    assert json.loads(err.strip().splitlines()[-1])["code"] == "unresolvable_state"
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
    assert json.loads(err.strip().splitlines()[-1])["code"] == "unresolvable_state"
    [line] = debug_lines(err)
    assert (line["rows"], line["periods"], line["refused"]) == (10, 0, "unresolvable_state")
    assert "zones" not in line["seconds"]


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


def test_analyze_baseline_whose_sum_overflows_exits_0(analyze_inputs, tmp_path, capsys):
    # The baseline mean overflowed fsum, and the run exited 1 as an internal error.
    config_path, _ = analyze_inputs
    series = write_series(tmp_path / "big.csv", [(0, 0.9, 0.1, 1e308, 5e307, 0.3),
                                                 (600, 0.9, 0.1, 1e308, 5e307, 0.3),
                                                 (1200, 0.9, 0.1, 1e308, 1e307, 0.3)])
    code, out, err = run_cli(capsys, "analyze", "--config", config_path, "--input", series,
                             "--baseline-end", "2", "--quiet")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"records": 3, "periods": 0, "out_of_order": 0}


def test_analyze_scaled_difficulty_that_underflows_exits_0(analyze_inputs, tmp_path, capsys):
    # difficulty_a / scale underflowed to 0, and the run exited 1 dividing by it.
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
    # Both scaled difficulties overflowed to inf, so the ratio read NaN and
    # the period the true ratio 0.1 opens at row 1 went missing.
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
    assert period["trigger_ratio"] == 0.1


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
    assert_exit_2(capsys, ["threshold", "--config", config_path, "--quiet"],
                  "invalid_input")


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
    # Events stream to the file as they happen and series rows are formatted
    # as they are sampled, so an 8x longer run needs no more memory.  Only
    # the epoch regime's short difficulty history grows with the run.
    _chain_sim_peak_bytes(tmp_path, 100)
    short = _chain_sim_peak_bytes(tmp_path, 1000)
    long = _chain_sim_peak_bytes(tmp_path, 8000)
    events = (tmp_path / "events.csv").read_text().count("\n")
    assert events > 10_000
    assert long < 1.5 * short, (short, long)
