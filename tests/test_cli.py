import csv
import io
import json
import os
import subprocess
import sys

import pytest

import dualchain
from dualchain import chainsim
from dualchain.cli import dispatch


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
    rows = list(csv.DictReader(out_file.open()))
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

    header = events.open().readline().strip().split(",")
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
    est_rows = list(csv.DictReader(out_estimates.open()))
    assert list(est_rows[0]) == ["timestamp", "basis", "share", "r_f_est", "r_b_est"]
    zone_rows = list(csv.DictReader(out_zones.open()))
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
        seen.append(report.events is not None)
        return report

    monkeypatch.setattr(chainsim, "run", spy)
    extra = ["--events", str(tmp_path / "events.csv")] if with_events else []
    code, _, _ = run_cli(capsys, *sim_inputs, "--duration", "50", *extra)
    assert code == 0
    assert seen == [with_events]
