"""Success-path output of every subcommand, pinned byte for byte.

Each case runs one command in process at toy size and is compared with
`golden.json`: a SHA-256 of stdout and of every file the command wrote.
Chain-sim's agent rewards and policy densities may move by float
reordering, so they are taken out of its stdout digest and compared within
1e-12 relative instead.

Re-record with `python tests/record_golden.py`, and say in CHANGES.md which
outputs changed and why.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import pytest

from dualchain.cli import dispatch

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# Chain-sim report keys compared as floats, not as bytes.
FLOAT_KEYS = ("agent_rewards", "policy_density")
REL_TOL = 1e-12

GAME = {"k": 0.3, "n_in": 20, "n_de": 10, "c_stick": 0.1, "powers": [0.3, 0.2, 0.4]}
WORLD = {"k": 0.378, "difficulty_a": 0.76, "difficulty_b": 0.2}
AGENTS = [
    {"id": "f1", "power": 0.2, "policy": "fickle"},
    {"id": "f2", "power": 0.1, "policy": "fickle"},
    {"id": "b", "power": 0.2, "policy": "b_only"},
    {"id": "auto", "power": 0.05, "policy": "automatic"},
    {"id": "a", "power": 0.45, "policy": "a_only"},
]
# Loyalists only: the event log opens with a block line and has no switch.
LOYALISTS = [
    {"id": "a", "power": 0.7, "policy": "a_only"},
    {"id": "b", "power": 0.3, "policy": "b_only"},
]
# One automatic crew of three: each of its switches writes three lines.
AUTOMATIC_CREW = [
    {"id": "u1", "power": 0.1, "policy": "automatic"},
    {"id": "u2", "power": 0.1, "policy": "automatic"},
    {"id": "u3", "power": 0.05, "policy": "automatic"},
    {"id": "b", "power": 0.2, "policy": "b_only"},
    {"id": "a", "power": 0.55, "policy": "a_only"},
]
REGIMES_B = {"epoch": "epoch:4", "eda": "eda:6:3:4:0.8", "perblock": "perblock:10"}
MODES = ("exponential", "deterministic")


def _k_ticks():
    """A price tick every 7.3 P_ag, off the block grid of either mode."""
    ks = (0.2, 0.6, 0.378, 0.9, 0.3)
    return "at,value\n" + "".join(f"{7.3 * i + 0.37!r},{ks[i % len(ks)]}\n"
                                   for i in range(60))


def _series_rows():
    """A square wave of fickle episodes: 60 rows, one every 600 s."""
    rows = []
    for i in range(60):
        inside = (i // 10) % 2 == 0
        h_b = 0.45 if inside else 0.15
        d_b = 0.2 if inside else 0.35
        rows.append(f"{i * 600},{1.0 - h_b},{h_b},1.0,{d_b},0.3")
    return "timestamp,hashrate_a,hashrate_b,difficulty_a,difficulty_b,price_ratio_k\n" \
        + "\n".join(rows) + "\n"


def write_inputs(root):
    """Write every input file under `root`."""
    files = {
        "game.json": json.dumps(GAME),
        "game_case1.json": json.dumps({"k": 0.05, "n_in": 2016, "n_de": 2016,
                                       "powers": [1.0]}),
        "world.json": json.dumps(WORLD),
        "agents.json": json.dumps(AGENTS),
        "loyalists.json": json.dumps(LOYALISTS),
        "automatic_crew.json": json.dumps(AUTOMATIC_CREW),
        "assignment.json": json.dumps(["fickle", "a_only", "b_only"]),
        "k_steps.json": json.dumps([[0, 0.3], [40, 0.6], [90, 0.2]]),
        # A c_stick surge above the state's r_b, then back to the config's.
        "c_steps.json": json.dumps([[25, 0.35], [35, 0.1]]),
        "k_times.csv": "at,value\n0,0.378\n150,0.2\n300,0.5\n",
        "k_ticks.csv": _k_ticks(),
        "series.csv": _series_rows(),
    }
    for name, text in files.items():
        with open(os.path.join(root, name), "w") as fh:
            fh.write(text)


def cases():
    """name -> (argv, files written), with paths relative to the input root."""
    out = {}
    for regime, spec in REGIMES_B.items():
        for mode in MODES:
            argv = ["chain-sim", "--config", "world.json", "--agents", "agents.json",
                    "--regime-a", "epoch:40", "--regime-b", spec, "--mode", mode,
                    "--duration", "1800", "--seed", "7", "--events", "events.csv",
                    "--series", "series_out.csv", "--series-step", "5"]
            if regime == "epoch" and mode == "deterministic":
                argv += ["--k-schedule", "k_times.csv"]
            out[f"chain-sim {regime} {mode}"] = (argv, ("events.csv", "series_out.csv"))
    for mode in MODES:  # price ticks between blocks under a per-block retarget
        argv = ["chain-sim", "--config", "world.json", "--agents", "agents.json",
                "--regime-a", "epoch:40", "--regime-b", "perblock:144", "--mode", mode,
                "--duration", "600", "--seed", "7", "--k-schedule", "k_ticks.csv",
                "--events", "events.csv", "--series", "series_out.csv", "--series-step", "5"]
        out[f"chain-sim perblock k ticks {mode}"] = (argv, ("events.csv", "series_out.csv"))
    for name, agents, spec, mode in (("loyalists perblock", "loyalists.json", "perblock:10",
                                      "exponential"),
                                     ("automatic crew eda", "automatic_crew.json",
                                      REGIMES_B["eda"], "exponential")):
        argv = ["chain-sim", "--config", "world.json", "--agents", agents,
                "--regime-a", "epoch:40", "--regime-b", spec, "--mode", mode,
                "--duration", "600", "--seed", "7", "--events", "events.csv",
                "--series", "series_out.csv", "--series-step", "5"]
        out[f"chain-sim {name}"] = (argv, ("events.csv", "series_out.csv"))
    out.update({
        "zones csv": (["zones", "--config", "game.json", "--grid", "12"], ()),
        "zones json": (["zones", "--config", "game.json", "--grid", "9",
                        "--format", "json"], ()),
        "simulate csv": (["simulate", "--config", "game.json", "--initial", "0.5,0.3",
                          "--rate", "0.01", "--max-steps", "150",
                          "--k-schedule", "k_steps.json"], ()),
        "simulate json": (["simulate", "--config", "game.json", "--initial", "0.1,0.15",
                           "--rate", "0.02", "--max-steps", "80", "--format", "json",
                           "--k-schedule", "k_steps.json"], ()),
        # Runs out of steps at a scheduled k of 0.6, so the trailing row is
        # classified at that k, not at the config's 0.3.
        "simulate json max-steps": (["simulate", "--config", "game.json",
                                     "--initial", "0.2,0.3", "--rate", "0.01",
                                     "--max-steps", "60", "--format", "json",
                                     "--k-schedule", "k_steps.json"], ()),
        # Both schedules: the flow's (k, c_stick) pair changes at steps 25,
        # 35, 40 and 90, and at 35 returns to the (0.3, 0.1) of steps 0-24.
        "simulate csv schedules": (["simulate", "--config", "game.json",
                                    "--initial", "0.4,0.2", "--rate", "0.01",
                                    "--max-steps", "130", "--k-schedule", "k_steps.json",
                                    "--c-stick-schedule", "c_steps.json"], ()),
        "simulate json schedules": (["simulate", "--config", "game.json",
                                     "--initial", "0.4,0.2", "--rate", "0.01",
                                     "--max-steps", "130", "--format", "json",
                                     "--k-schedule", "k_steps.json",
                                     "--c-stick-schedule", "c_steps.json"], ()),
        "analyze": (["analyze", "--config", "game.json", "--input", "series.csv",
                     "--hysteresis", "0.05", "--out-periods", "periods.json",
                     "--out-estimates", "estimates.csv", "--out-zones", "zones.csv"],
                    ("periods.json", "estimates.csv", "zones.csv")),
        "payoff json": (["payoff", "--config", "game.json", "--state", "0.2,0.3"], ()),
        "payoff csv": (["payoff", "--config", "game.json", "--state", "0,1",
                        "--format", "csv"], ()),
        "equilibria case 3": (["equilibria", "--config", "game.json"], ()),
        "equilibria case 1": (["equilibria", "--config", "game_case1.json"], ()),
        "threshold": (["threshold", "--config", "game.json"], ()),
        "best-response": (["best-response", "--config", "game.json",
                           "--assignment", "assignment.json", "--steps", "40",
                           "--seed", "3"], ()),
    })
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(root, argv, written):
    """Run one case in `root`; its digests and compared floats."""
    argv = [os.path.join(root, a) if a.endswith((".json", ".csv")) else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dispatch([*argv, "--quiet"])
    assert code == 0, stderr.getvalue()
    text = stdout.getvalue()
    floats = {}
    if argv[0] == "chain-sim":
        report = json.loads(text)
        floats = {key: report.pop(key) for key in FLOAT_KEYS}
        text = json.dumps(report, sort_keys=True)
    files = {}
    for name in written:
        with open(os.path.join(root, name), "rb") as fh:
            files[name] = _sha(fh.read())
    return {"stdout": _sha(text.encode()), "files": files, "floats": floats}


def record(root):
    write_inputs(root)
    return {name: run_case(root, argv, written) for name, (argv, written) in cases().items()}


def _close(actual, expected, where):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            _close(actual[key], expected[key], f"{where}.{key}")
    elif expected is None:
        assert actual is None, where
    else:
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0), \
            (where, actual, expected)


@pytest.fixture(scope="module")
def expected():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("golden"))
    write_inputs(root)
    return root


def test_golden_covers_every_case(expected):
    assert sorted(expected) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_output_matches_golden(inputs, expected, name):
    argv, written = cases()[name]
    got = run_case(inputs, argv, written)
    want = expected[name]
    assert got["stdout"] == want["stdout"]
    assert got["files"] == want["files"]
    _close(got["floats"], want["floats"], name)
