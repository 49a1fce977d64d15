"""One rule per input number: the checker in `core`, and what the CLI reports.

Every refused input number raises `InvalidValue` (or one of its typed
subclasses) with a `field`, and `dispatch` reports it as
`{code, message, field}` with exit 2.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from dualchain import chainsim
from dualchain.cli import dispatch
from dualchain.core import (DualchainError, InvalidValue, KAboveOne, MiningState, NegativePower,
                            NonPositiveK, PowerSumMismatch, Strategy, ZeroBlockCount,
                            check_count, check_range, number, validate_config)
from dualchain.equilibrium import finite_deviation


# ---------------------------------------------------------------------------
# the checker


def test_invalid_value_is_both_a_dualchain_error_and_a_value_error():
    for cls in (InvalidValue, NonPositiveK, KAboveOne, ZeroBlockCount, NegativePower,
                PowerSumMismatch):
        assert issubclass(cls, DualchainError) and issubclass(cls, ValueError)
    assert InvalidValue.code == "invalid_input"
    assert InvalidValue("x", field="k").field == "k"


@pytest.mark.parametrize("value", [1, -3, 0.5, -0.0, math.inf, math.nan, 1e308])
def test_number_accepts_ints_and_floats(value):
    got = number(value, "k")
    assert type(got) is float
    assert got == value or (math.isnan(got) and math.isnan(value))


@pytest.mark.parametrize("value", [True, False, "0.4", "1", None, [0.3], {"k": 1}])
def test_number_refuses_everything_else(value):
    with pytest.raises(InvalidValue, match="k must be a number") as info:
        number(value, "k")
    assert info.value.field == "k"


def test_number_reads_an_int_past_the_float_range_as_an_infinity():
    assert number(10 ** 400, "k") == math.inf
    assert number(-10 ** 400, "k") == -math.inf


@pytest.mark.parametrize("value,ok", [
    (0.0, False), (1e-300, True), (1.0, True), (1.0 + 2 ** -52, False), (math.nan, False),
    (-math.inf, False), (math.inf, False),
])
def test_check_range_half_open(value, ok):
    if ok:
        assert check_range(value, "k", 0.0, 1.0, lo_open=True) is value
    else:
        with pytest.raises(InvalidValue, match=r"k must be in \(0, 1\], got") as info:
            check_range(value, "k", 0.0, 1.0, lo_open=True)
        assert info.value.field == "k"


def test_check_range_picks_the_error_by_side():
    rule = {"lo": 0.0, "hi": 1.0, "lo_open": True, "error": NonPositiveK,
            "error_above": KAboveOne}
    with pytest.raises(NonPositiveK):
        check_range(0.0, "k", **rule)
    with pytest.raises(NonPositiveK):  # NaN fails the lower test
        check_range(math.nan, "k", **rule)
    with pytest.raises(KAboveOne):
        check_range(1.5, "k", **rule)
    with pytest.raises(KAboveOne):
        check_range(math.inf, "k", **rule)


def test_check_range_names_the_value_in_its_message():
    with pytest.raises(InvalidValue, match=r"^sampling step must be in \[1, inf\], got 0.5$"):
        check_range(0.5, "series_step", 1.0, name="sampling step")


@pytest.mark.parametrize("value", [0, -1, True, 2.0, 1.5, math.nan, "3", None])
def test_check_count_refuses_all_but_positive_ints(value):
    with pytest.raises(ZeroBlockCount, match=r"n_in must be an int in \[1, inf\]") as info:
        check_count(value, "n_in", error=ZeroBlockCount)
    assert info.value.field == "n_in"


def test_check_count_accepts_positive_ints():
    assert check_count(1, "grid") == 1
    assert check_count(10 ** 30, "grid") == 10 ** 30


def test_validate_config_keeps_its_typed_codes_and_fields():
    base = {"k": 0.3, "n_in": 10, "n_de": 10, "powers": [1.0]}
    for raw, cls, field in [
        ({**base, "k": math.nan}, NonPositiveK, "k"),
        ({**base, "k": 2}, KAboveOne, "k"),
        ({**base, "k": 10 ** 400}, KAboveOne, "k"),
        ({**base, "n_de": 2.5}, ZeroBlockCount, "n_de"),
        ({**base, "n_in": 1.7e308, "n_de": 1.7e308}, InvalidValue, "n_de"),
        ({**base, "c_stick": -0.1, "powers": [1.1]}, NegativePower, "c_stick"),
        ({**base, "powers": [0.5, 0.0]}, NegativePower, "powers"),
        ({**base, "powers": [0.5, 0.4]}, PowerSumMismatch, "powers"),
        ({**base, "c_stick": 1.0, "powers": []}, PowerSumMismatch, "c_stick"),
        ({**base, "k": "0.3"}, InvalidValue, "k"),
        ({**base, "powers": 5}, InvalidValue, "powers"),
    ]:
        with pytest.raises(cls) as info:
            validate_config(raw)
        assert (type(info.value), info.value.field) == (cls, field)


def test_validate_config_refuses_powers_whose_sum_overflows():
    # math.fsum raised OverflowError here.
    with pytest.raises(PowerSumMismatch):
        validate_config({"k": 0.3, "n_in": 10, "n_de": 10, "powers": [1e308, 1e308]})


def test_validate_config_reads_integral_float_block_counts_as_ints():
    cfg = validate_config({"k": 0.3, "n_in": 2016.0, "n_de": 10, "powers": [1.0]})
    assert type(cfg.n_in) is int and cfg.n_in == 2016


@pytest.mark.parametrize("c_i", [math.nan, 0.0, -0.1, math.inf])
def test_finite_deviation_refuses_a_bad_c_i(c_i):
    # A NaN c_i used to pass `c_i <= 0.0` and report no profitable deviation.
    cfg = validate_config({"k": 0.3, "n_in": 10, "n_de": 10, "powers": [0.5, 0.5]})
    with pytest.raises(InvalidValue) as info:
        finite_deviation(MiningState(0.5, 0.2), c_i, Strategy.FICKLE, cfg)
    assert info.value.field == "c_i"


# ---------------------------------------------------------------------------
# what the CLI reports

GAME = {"k": 0.3, "n_in": 10, "n_de": 10, "powers": [1.0]}
WORLD = {"k": 0.4, "difficulty_a": 1.0, "difficulty_b": 0.4}
AGENTS = [{"id": "a", "power": 0.6, "policy": "a_only"},
          {"id": "b", "power": 0.4, "policy": "b_only"}]
FILES = {"game.json": GAME, "world.json": WORLD, "agents.json": AGENTS,
         "k.json": [[0, 0.3]], "c.json": [[0, 0.1]], "assignment.json": ["fickle"]}

SIM = ["chain-sim", "--config", "world.json", "--agents", "agents.json", "--duration", "5"]
SIMULATE = ["simulate", "--config", "game.json", "--initial", "0.3,0.2", "--max-steps", "5"]
ZONES = ["zones", "--config", "game.json", "--grid", "2"]
ANALYZE = ["analyze", "--config", "game.json", "--input", "series.csv"]
BEST_RESPONSE = ["best-response", "--config", "game.json", "--assignment", "assignment.json"]
SERIES = ("timestamp,hashrate_a,hashrate_b,difficulty_a,difficulty_b,price_ratio_k\n"
          "0,0.9,0.1,1.0,0.2,0.3\n600,0.9,0.1,1.0,0.5,0.3\n")


def run(tmp_path, capsys, argv, **files):
    for name, content in {**FILES, **files}.items():
        (tmp_path / name).write_text(content if isinstance(content, str)
                                     else json.dumps(content))
    (tmp_path / "series.csv").write_text(SERIES)
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
    code = dispatch([*argv, "--quiet"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (argv, files, code, field): one case per refused input.  Where a payload
# changed, CHANGES.md lists the old one.
REFUSED = {
    "grid 0": (ZONES[:-1] + ["0"], {}, "invalid_input", "grid"),
    "tol nan": (ZONES + ["--tol", "nan"], {}, "invalid_input", "tol"),
    "replicas 0": (SIM + ["--replicas", "0"], {}, "invalid_input", "replicas"),
    "max-steps 0": (SIMULATE[:-1] + ["0"], {}, "invalid_input", "max_steps"),
    "rate 0.5": (SIMULATE + ["--rate", "0.5"], {}, "invalid_input", "migration_rate"),
    "eps nan": (SIMULATE + ["--eps", "nan"], {}, "invalid_input", "convergence_eps"),
    "initial off simplex": (["simulate", "--config", "game.json", "--initial", "0.8,0.8"], {},
                            "invalid_input", "initial"),
    "state nan": (["payoff", "--config", "game.json", "--state", "nan,0.1"], {},
                  "invalid_input", "state"),
    "state text": (["payoff", "--config", "game.json", "--state", "x,0.1"], {},
                   "invalid_input", "state"),
    "state one part": (["payoff", "--config", "game.json", "--state", "0.3"], {}, "usage", None),
    "hysteresis -1": (ANALYZE + ["--hysteresis", "-1"], {}, "invalid_input", "hysteresis"),
    "duration nan": (SIM[:-1] + ["nan"], {}, "invalid_input", "duration"),
    "series-step 0": (SIM + ["--series", "s.csv", "--series-step", "0"], {}, "invalid_input",
                      "series_step"),
    "epoch length 0": (SIM + ["--regime-b", "epoch:0"], {}, "invalid_input", "n"),
    "epoch length text": (SIM + ["--regime-b", "epoch:x"], {}, "invalid_input", "n"),
    "eda window 0": (SIM + ["--regime-b", "eda:144:0:12:0.8"], {}, "invalid_input",
                     "eda_window"),
    "eda threshold nan": (SIM + ["--regime-b", "eda:144:6:nan:0.8"], {}, "invalid_input",
                          "eda_threshold"),
    "eda factor 1": (SIM + ["--regime-b", "eda:144:6:12:1"], {}, "invalid_input",
                     "eda_factor"),
    "perblock window 1.5": (SIM + ["--regime-b", "perblock:1.5"], {}, "invalid_input",
                            "window"),
    "world k list": (SIM, {"world.json": {"k": [0.3]}}, "invalid_input", "k"),
    "world k null": (SIM, {"world.json": {"k": None}}, "invalid_input", "k"),
    "world k string": (SIM, {"world.json": {"k": "0.4"}}, "invalid_input", "k"),
    "world k true": (SIM, {"world.json": {"k": True}}, "invalid_input", "k"),
    "world k 2": (SIM, {"world.json": {"k": 2}}, "k_above_one", "k"),
    "world k 0": (SIM, {"world.json": {"k": 0}}, "non_positive_k", "k"),
    "world difficulty 0": (SIM, {"world.json": {**WORLD, "difficulty_a": 0}}, "invalid_input",
                           "difficulty_a"),
    "power list": (SIM, {"agents.json": [{**AGENTS[0], "power": [1]}, AGENTS[1]]},
                   "invalid_input", "power"),
    "power null": (SIM, {"agents.json": [{**AGENTS[0], "power": None}, AGENTS[1]]},
                   "invalid_input", "power"),
    "power string": (SIM, {"agents.json": [{**AGENTS[0], "power": "0.6"}, AGENTS[1]]},
                     "invalid_input", "power"),
    "power true": (SIM, {"agents.json": [{**AGENTS[0], "power": True}, AGENTS[1]]},
                   "invalid_input", "power"),
    "empty roster": (SIM, {"agents.json": []}, "power_sum_mismatch", "agents"),
    "power 0": (SIM, {"agents.json": [{**AGENTS[0], "power": 0}, AGENTS[1]]},
                "negative_power", "power"),
    "roster sum 0.5": (SIM, {"agents.json": [{**AGENTS[0], "power": 0.1}, AGENTS[1]]},
                       "power_sum_mismatch", "power"),
    "roster sum overflows": (SIM, {"agents.json": [{**AGENTS[0], "power": 1e308},
                                                   {**AGENTS[1], "power": 1e308}]},
                             "power_sum_mismatch", "power"),
    "game k string": (["equilibria", "--config", "game.json"], {"game.json": {**GAME, "k": "0.3"}},
                      "invalid_input", "k"),
    "game k list": (["equilibria", "--config", "game.json"], {"game.json": {**GAME, "k": [0.3]}},
                    "invalid_input", "k"),
    "game powers 5": (["equilibria", "--config", "game.json"],
                      {"game.json": {**GAME, "powers": 5}}, "invalid_input", "powers"),
    # threshold alone read this n_de and printed k; the payoff forms crashed
    # converting it to a float.
    "game n_de past the float range": (["threshold", "--config", "game.json"],
                                       {"game.json": {**GAME, "n_de": 10 ** 400}},
                                       "zero_block_count", "n_de"),
    # zones streamed its first rows, then exited 2 as divergent_state at an
    # interior point: q overflowed in the payoff forms.
    "game block counts sum past the float range": (
        ZONES[:-1] + ["3"], {"game.json": {**GAME, "n_in": 1.7e308, "n_de": 1.7e308}},
        "invalid_input", "n_de"),
    "game power sum overflows": (["equilibria", "--config", "game.json"],
                                 {"game.json": {**GAME, "powers": [1e308, 1e308]}},
                                 "power_sum_mismatch", "powers"),
    "k schedule 2": (SIMULATE + ["--k-schedule", "k.json"], {"k.json": [[0, 2.0]]},
                     "k_above_one", "k"),
    "chain-sim k schedule 0": (SIM + ["--k-schedule", "k.json"], {"k.json": [[0, 0.0]]},
                               "non_positive_k", "k"),
    "k schedule string": (SIMULATE + ["--k-schedule", "k.json"], {"k.json": [["0", "0.3"]]},
                          "invalid_input", "schedule"),
    "schedule nan": (SIMULATE + ["--k-schedule", "k.json"], {"k.json": "[[0, NaN]]"},
                     "invalid_input", "schedule"),
    "c_stick schedule 1": (SIMULATE + ["--c-stick-schedule", "c.json"], {"c.json": [[0, 1.0]]},
                           "invalid_input", "c_stick"),
    # best-response ran no step and reported a converged run.
    "steps -5": (BEST_RESPONSE + ["--steps", "-5"], {}, "invalid_input", "steps"),
    # float() refused the cell, and the payload named no field.
    "k schedule csv cell": (SIMULATE + ["--k-schedule", "k.csv"], {"k.csv": "at,value\n0,abc\n"},
                            "invalid_input", "schedule"),
    # Every row led by a header word was skipped, so this one was dropped.
    "k schedule csv header word below the header": (
        SIMULATE + ["--k-schedule", "k.csv"], {"k.csv": "at,value\n0,0.3\nt,0.9\n5,0.4\n"},
        "invalid_input", "schedule"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_refused_number_exits_2_naming_its_field(tmp_path, capsys, case):
    argv, files, code_name, field = REFUSED[case]
    code, out, err = run(tmp_path, capsys, argv, **files)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    payload = json.loads(line)
    assert (payload["code"], payload.get("field")) == (code_name, field), payload
    assert payload["message"]


def test_zero_best_response_steps_report_the_assignment_as_given(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, [*BEST_RESPONSE, "--steps", "0"])
    assert code == 0, err
    report = json.loads(out)
    assert (report["assignment"], report["changes"]) == (["fickle"], 0)


# (row written as line 3 of the series, code, field)
BAD_ROWS = {
    "text hash rate": ("600,abc,0.1,1.0,0.5,0.3", "parse_error", "hashrate_a"),
    "text difficulty": ("600,0.9,0.1,1.0,x,0.3", "parse_error", "difficulty_b"),
    "text k": ("600,0.9,0.1,1.0,0.5,", "parse_error", "price_ratio_k"),
    "text timestamp": ("t,0.9,0.1,1.0,0.5,0.3", "parse_error", "timestamp"),
    "infinite timestamp": ("inf,0.9,0.1,1.0,0.5,0.3", "parse_error", "timestamp"),
    "fractional timestamp": ("600.5,0.9,0.1,1.0,0.5,0.3", "parse_error", "timestamp"),
    "five cells": ("600,0.9,0.1,1.0,0.5", "parse_error", None),
    "negative hash rate": ("600,-1,0.1,1.0,0.5,0.3", "invariant_violation", "hashrate"),
    "zero difficulty": ("600,0.9,0.1,0,0.5,0.3", "invariant_violation", "difficulty"),
    "k 2": ("600,0.9,0.1,1.0,0.5,2", "invariant_violation", "price_ratio_k"),
}


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_a_refused_series_row_names_its_line_once_and_its_field(tmp_path, capsys, case):
    row, code_name, field = BAD_ROWS[case]
    series = SERIES.splitlines()[:2] + [row]
    argv = ["analyze", "--config", "game.json", "--input", "bad.csv"]
    code, out, err = run(tmp_path, capsys, argv, **{"bad.csv": "\n".join(series) + "\n"})
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert (payload["code"], payload.get("field")) == (code_name, field), payload
    assert payload["message"].startswith("line 3: ")
    assert payload["message"].count("line ") == 1


def test_a_bad_series_step_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    # The step used to be checked after the whole simulation had run.
    def never(*args, **kwargs):
        raise AssertionError("chainsim.run was entered")

    monkeypatch.setattr(chainsim, "run", never)
    code, out, err = run(tmp_path, capsys, [*SIM, "--events", "e.csv", "--series", "s.csv",
                                            "--series-step", "1e-4"])
    assert (code, out) == (2, "")
    assert json.loads(err)["field"] == "series_step"
    assert not (tmp_path / "e.csv").exists() and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("step", ["1e308", "0.002"])
def test_a_series_step_accepted_before_is_accepted_now(tmp_path, capsys, step):
    code, _, err = run(tmp_path, capsys, [*SIM, "--series", "s.csv", "--series-step", step])
    assert code == 0, err
    assert (tmp_path / "s.csv").read_text().count("\n") >= 2


# ---------------------------------------------------------------------------
# retargets that leave the clock unable to advance

B_ONLY_WORLD = {"k": 0.866, "difficulty_a": 1.08, "difficulty_b": 0.866}
B_ONLY = [{"id": "b", "power": 1.0, "policy": "b_only"}]


@pytest.mark.parametrize("regime_b", [
    # The factor underflows the difficulty to 0: this divided by zero.
    "eda:10:2:1e-300:5e-324",
    # Each trigger cuts the difficulty 15-fold until blocks take less than
    # one ulp of the clock; the run then piled blocks up at one instant and
    # never reached its horizon.
    "eda:9:16:0.1:0.06564761225295633",
])
def test_a_difficulty_below_the_clock_resolution_stops_the_run(tmp_path, regime_b):
    for name, content in {"w.json": B_ONLY_WORLD, "a.json": B_ONLY}.items():
        (tmp_path / name).write_text(json.dumps(content))
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainsim.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "dualchain.cli", "chain-sim", "--config", str(tmp_path / "w.json"),
         "--agents", str(tmp_path / "a.json"), "--regime-b", regime_b, "--duration", "24",
         "--mode", "deterministic", "--quiet"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", "")))
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert json.loads(proc.stderr)["code"] == "difficulty_collapse"
