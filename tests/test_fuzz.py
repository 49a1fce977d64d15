"""Every subcommand's numbers, fuzzed through `dispatch` in process.

Each command has one strategy that builds a valid argv and input files,
then spoils some of its number slots: a JSON number in an input file, or
the text of a numeric flag.  Whatever comes in, the command exits 0 with
parseable output on stdout, or 2 with nothing on stdout and a
`{code, message, field?}` object as the last line of stderr.  A refused
number, and a result that is not finite, names its field.

The runs are derandomized.  `--grid`, `--max-steps`, `--steps` and
`--duration` are capped so that a valid argv stays a toy run.  Run with
`--hypothesis-profile=fuzz` for 2000 examples per command.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualchain.cli import dispatch

EPS = 2.0 ** -52
# Numbers at the edges of the float range and of the unit interval.
EDGE_NUMBERS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, 1.0 - EPS / 2, 1.0 + EPS, 1e308, -1e308,
                0, 1, -1, 2, 10 ** 400]
# JSON values that are not numbers, numeric strings included.
NOT_NUMBERS = ["0.4", "1", "nan", "1e308", True, False, None, [0.3], [], {"x": 1}]
BAD_JSON = st.sampled_from(EDGE_NUMBERS + NOT_NUMBERS)

# Flag texts: the same edges written out, and texts that are no number.
EDGE_TEXTS = ["nan", "inf", "-inf", "0", "-0", "0.0", "-0.0", "5e-324", "-5e-324",
              "2.2250738585072014e-308", "0.9999999999999999", "1.0000000000000002",
              "1e308", "-1e308", "-1", "1.5", "true", "false", "null", "[1]", "x", ""]
BAD_TEXT = st.sampled_from(EDGE_TEXTS)
# A flag that sizes a run (grid, steps, duration) gets no large finite value.
BAD_CAPPED_TEXT = st.sampled_from([t for t in EDGE_TEXTS if t not in ("1e308",)])

# Error codes of a refused input number, and of a result that is not
# finite and so cannot be written as JSON; each carries `field`.
FIELD_CODES = {"invalid_input", "non_positive_k", "k_above_one", "zero_block_count",
               "negative_power", "power_sum_mismatch", "invariant_violation",
               "non_finite_output"}


# A slot is spoilt when this draws its largest value, about one time in
# eight; the simplest draw, 0, keeps the slot valid.
SPOIL = st.integers(0, 7)


def spoilt(draw) -> bool:
    return draw(SPOIL) == 7


def json_value(draw, valid):
    """A JSON number slot: `valid` (a value or a strategy), else an edge
    number or a non-number."""
    if spoilt(draw):
        return draw(BAD_JSON)
    return draw(valid) if isinstance(valid, st.SearchStrategy) else valid


def text_value(draw, valid, bad=BAD_TEXT):
    """A flag's text: drawn from `valid`, else an edge text."""
    return draw(bad if spoilt(draw) else valid)


def floats_text(lo, hi):
    return st.floats(lo, hi).map(repr)


def ints_text(lo, hi):
    return st.integers(lo, hi).map(str)


K = st.floats(0.01, 1.0)
BLOCKS = st.integers(1, 4032)
C_STICK = st.sampled_from([0.0, 0.05, 0.2])
PLAYERS = st.integers(1, 3)
STATE = floats_text(0.0, 0.45)
FORMAT = st.sampled_from([[], ["--format=json"], ["--format=csv"]])
AT = st.integers(0, 100)
K_VALUES, C_STICK_VALUES = st.floats(0.05, 1.0), st.floats(0.0, 0.5)
SCHEDULE_LENGTH = st.integers(1, 3)
SEED = ints_text(0, 9)


def game_config(draw, n=None):
    """A game config; its powers and c_stick sum to 1 unless a slot is spoilt."""
    n = n or draw(PLAYERS)
    c_stick = draw(C_STICK)
    return {
        "k": json_value(draw, K),
        "n_in": json_value(draw, BLOCKS),
        "n_de": json_value(draw, BLOCKS),
        "c_stick": json_value(draw, c_stick),
        "powers": [json_value(draw, (1.0 - c_stick) / n) for _ in range(n)],
    }


def schedule(draw, values):
    return [[json_value(draw, AT), json_value(draw, values)]
            for _ in range(draw(SCHEDULE_LENGTH))]


def state_text(draw):
    return f"{text_value(draw, STATE)},{text_value(draw, STATE)}"


@st.composite
def payoff_case(draw):
    return (["payoff", "--config", "game.json", f"--state={state_text(draw)}", *draw(FORMAT)],
            {"game.json": game_config(draw)})


GRID, TOL = ints_text(1, 12), floats_text(0.0, 1e-6)


@st.composite
def zones_case(draw):
    return (["zones", "--config", "game.json",
             f"--grid={text_value(draw, GRID, BAD_CAPPED_TEXT)}",
             f"--tol={text_value(draw, TOL)}", *draw(FORMAT)],
            {"game.json": game_config(draw)})


@st.composite
def equilibria_case(draw):
    return ["equilibria", "--config", "game.json"], {"game.json": game_config(draw)}


@st.composite
def threshold_case(draw):
    return ["threshold", "--config", "game.json"], {"game.json": game_config(draw)}


RATE, MAX_STEPS, FLOW_EPS = floats_text(1e-4, 0.1), ints_text(1, 150), floats_text(1e-4, 0.05)


@st.composite
def simulate_case(draw):
    argv = ["simulate", "--config", "game.json", f"--initial={state_text(draw)}",
            f"--rate={text_value(draw, RATE)}",
            f"--max-steps={text_value(draw, MAX_STEPS, BAD_CAPPED_TEXT)}",
            f"--eps={text_value(draw, FLOW_EPS)}", *draw(FORMAT)]
    files = {"game.json": game_config(draw)}
    if draw(st.booleans()):
        argv += ["--k-schedule", "k.json"]
        files["k.json"] = schedule(draw, K_VALUES)
    if draw(st.booleans()):
        argv += ["--c-stick-schedule", "c.json"]
        files["c.json"] = schedule(draw, C_STICK_VALUES)
    return argv, files


STRATEGY_NAME = st.sampled_from(["fickle", "a_only", "b_only"])
STEPS = ints_text(-2, 30)


@st.composite
def best_response_case(draw):
    n = draw(PLAYERS)
    return (["best-response", "--config", "game.json", "--assignment", "assignment.json",
             f"--steps={text_value(draw, STEPS, BAD_CAPPED_TEXT)}",
             f"--seed={text_value(draw, SEED)}"],
            {"game.json": game_config(draw, n),
             "assignment.json": [draw(STRATEGY_NAME) for _ in range(n)]})


REGIME_KIND = st.sampled_from(["epoch", "eda", "perblock"])
LENGTH, THRESHOLD, FACTOR = ints_text(1, 40), floats_text(0.1, 20.0), floats_text(0.05, 0.95)
REGIME_SLOTS = {"epoch": [LENGTH], "perblock": [LENGTH],
                "eda": [LENGTH, LENGTH, THRESHOLD, FACTOR]}
POLICY = st.sampled_from(["a_only", "b_only", "fickle", "automatic"])
ROSTER = st.integers(1, 4)
DIFFICULTY = st.floats(0.1, 2.0)
DURATION, SERIES_STEP = floats_text(0.01, 30.0), floats_text(0.01, 5.0)
MODE = st.sampled_from(["exponential", "deterministic"])
REPLICAS = st.sampled_from(["1", "2", "0", "-1", "x"])


def regime(draw):
    kind = draw(REGIME_KIND)
    slots = REGIME_SLOTS[kind]
    n_given = draw(st.integers(0, len(slots)))
    return ":".join([kind, *(text_value(draw, s) for s in slots[:n_given])])


@st.composite
def chain_sim_case(draw):
    n = draw(ROSTER)
    agents = [{"id": f"m{i}", "power": json_value(draw, 1.0 / n), "policy": draw(POLICY)}
              for i in range(n)]
    world = {"k": json_value(draw, K_VALUES)}
    for key in ("difficulty_a", "difficulty_b"):
        if draw(st.booleans()):
            world[key] = json_value(draw, DIFFICULTY)
    argv = ["chain-sim", "--config", "world.json", "--agents", "agents.json",
            f"--regime-a={regime(draw)}", f"--regime-b={regime(draw)}",
            f"--duration={text_value(draw, DURATION, BAD_CAPPED_TEXT)}",
            f"--mode={draw(MODE)}", f"--seed={text_value(draw, SEED)}"]
    files = {"world.json": world, "agents.json": agents}
    if draw(st.booleans()):
        argv += ["--events", "events.csv", "--series", "series.csv"]
        if draw(st.booleans()):
            argv.append(f"--series-step={text_value(draw, SERIES_STEP)}")
    else:
        argv.append(f"--replicas={draw(REPLICAS)}")
    if draw(st.booleans()):
        argv += ["--k-schedule", "k.json"]
        files["k.json"] = schedule(draw, K_VALUES)
    return argv, files


ROWS, ONE_IN_TEN, CELL = st.integers(2, 24), st.integers(0, 9), st.integers(0, 5)
HYSTERESIS = floats_text(0.0, 0.2)


@st.composite
def analyze_case(draw):
    rows = []
    for i in range(draw(ROWS)):
        inside = (i // 4) % 2 == 0  # starts inside a fickle period
        cells = [i * 600, 0.6 if inside else 0.9, 0.4 if inside else 0.1, 1.0,
                 0.2 if inside else 0.5, 0.3]
        if draw(ONE_IN_TEN) == 9:  # spoil one cell of about one row in ten
            cells[draw(CELL)] = draw(BAD_TEXT)
        rows.append(",".join(map(str, cells)))
    series = ("timestamp,hashrate_a,hashrate_b,difficulty_a,difficulty_b,price_ratio_k\n"
              + "\n".join(rows) + "\n")
    return (["analyze", "--config", "game.json", "--input", "series.csv",
             f"--hysteresis={text_value(draw, HYSTERESIS)}",
             "--out-periods", "periods.json", "--out-estimates", "estimates.csv",
             "--out-zones", "zones.csv"],
            {"game.json": game_config(draw), "series.csv": series})


CASES = {
    "payoff": payoff_case(), "zones": zones_case(), "equilibria": equilibria_case(),
    "threshold": threshold_case(), "simulate": simulate_case(),
    "best-response": best_response_case(), "chain-sim": chain_sim_case(),
    "analyze": analyze_case(),
}


def run(argv, files):
    """dispatch(argv + --quiet) with `files` written to a fresh directory."""
    with tempfile.TemporaryDirectory() as root:
        for name, content in files.items():
            with open(os.path.join(root, name), "w") as fh:
                fh.write(content if isinstance(content, str) else json.dumps(content))
        argv = [os.path.join(root, a) if a.endswith((".json", ".csv")) else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch([*argv, "--quiet"])
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise ValueError(f"bare {name} in JSON output")


def check_outcome(argv, code, out, err):
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == "", argv
        payload = json.loads(err.strip().splitlines()[-1])
        assert {"code", "message"} <= set(payload) <= {"code", "message", "field"}, payload
        if payload["code"] in FIELD_CODES:
            assert payload.get("field"), (argv, payload)
        return
    csv_out = {"zones": "--format=json" not in argv, "simulate": "--format=json" not in argv,
               "payoff": "--format=csv" in argv}.get(argv[0], False)
    if csv_out:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(rows[0]) for row in rows), argv
    else:
        json.loads(out, parse_constant=_no_constant)


@pytest.mark.parametrize("command", sorted(CASES))
@settings(derandomize=True, database=None, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_numbers_exit_0_or_2(command, data):
    argv, files = data.draw(CASES[command])
    check_outcome(argv, *run(argv, files))
