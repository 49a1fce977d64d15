"""Seeded inputs, task lists and output checks for the benchmark workloads.

A workload is a fixed list of tasks.  Each task is one
``dualchain.cli.dispatch(argv)`` call whose outputs land in files under
the run's scratch directory.  ``observe`` reads those files back into a
flat dict, and ``check`` compares that dict with invariants, with
independent recomputations and with the recorded reference in
``reference.json``.  Inputs depend only on the workload seed and the
scale, so one seed always gives the same tasks; the per-round cost of a
workload does not depend on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter

WORKLOADS = ("sim_oracle", "sim_fleet", "analysis")

#: Seed kept out of every run made while the benchmark was written; verify
#: later speed claims on it as well as on the seeds used to tune them.
HELD_OUT_SEED = 90210

#: Error code of the known ingest refusal (README round trip): a series
#: whose first record carries loyal coin_B mining before any fickle period.
KNOWN_REFUSAL = "unresolvable_state"

N_BLOCKS = 144
FIXED_A = "epoch:1000000000"  # chain A never retargets, as in criterion 7
EDA = "eda:144:6:12:0.8"

# Criterion-7 oracle states (r_f, r_b, k).
ORACLE_STATES = (
    (0.30, 0.20, 0.378),
    (0.45, 0.15, 0.34),
    (0.50, 0.10, 0.28),
    (0.20, 0.10, 0.18),
    (0.35, 0.10, 0.22),
)

# sim_oracle slots: (name, chain-B regime, mode, oracle state, horizon).
# A horizon is ("cycles", n) in idealized fickle cycles of the state, or
# ("pag", t) in P_ag.  The deterministic epoch slot runs 52 cycles so that
# empirical_payoffs has its 50 whole cycles and the criterion-7 density
# check applies; the other slots are sized to a similar block count each.
ORACLE_SLOTS = {
    "full": (
        ("epoch-det", "epoch:144", "deterministic", 0, ("cycles", 52)),
        ("epoch-exp", "epoch:144", "exponential", 3, ("cycles", 12)),
        ("perblock-det", "perblock:144", "deterministic", 1, ("pag", 4500)),
        ("perblock-exp", "perblock:144", "exponential", 2, ("pag", 4500)),
        ("eda-det", EDA, "deterministic", 4, ("pag", 3400)),
        ("eda-exp", EDA, "exponential", 0, ("pag", 3200)),
    ),
    "toy": (
        ("epoch-det", "epoch:144", "deterministic", 0, ("cycles", 52)),
        ("perblock-exp", "perblock:144", "exponential", 2, ("pag", 300)),
        ("eda-det", EDA, "deterministic", 4, ("pag", 300)),
    ),
}

# Criterion-7 tolerance for deterministic runs against payoff_triple.
ORACLE_DENSITY_TOL = 0.005

# sim_fleet roster: policy -> (agent count, total power).  About 5% of the
# power mines automatically.
FLEET_POLICIES = {
    "full": {"fickle": (100, 0.35), "a_only": (170, 0.50),
             "b_only": (15, 0.10), "automatic": (15, 0.05)},
    "toy": {"fickle": (10, 0.35), "a_only": (17, 0.50),
            "b_only": (2, 0.10), "automatic": (1, 0.05)},
}
FLEET_K = 0.22
FLEET_DURATION = {"full": 4000.0, "toy": 300.0}
FLEET_REPLICAS = 2
# Exponential runs of a fixed horizon differ in block count by several
# percent from one simulator seed to the next.  Rounds cycle through this
# many seeds, so a run's median round averages over them instead of
# resting on one draw.
FLEET_VARIANTS = {"full": 8, "toy": 2}
# The two replica threads hand the interpreter lock back and forth, so a
# fleet round follows the host's speed only about half as strongly as the
# one-thread reference loop does (measured: slope of log round time on log
# loop time 0.2-0.4 against 0.6 for sim_oracle and analysis).  Correcting
# with the full loop ratio over-corrected: run-to-run spreads of 16-21%.
# With exponent 0.5 the spreads of the same runs were 5-11%.
FLEET_SPEED_EXPONENT = 0.5

# analysis: zones grid configs (k, n_in, n_de); the seed picks three.
ZONE_CONFIGS = (
    (0.05, 2016, 2016), (0.30, 2016, 2016), (0.10, 144, 144),
    (0.50, 2016, 1008), (0.20, 1008, 2016), (0.80, 144, 2016),
)
ZONE_PICK = {"full": 3, "toy": 2}
ZONE_GRID = {"full": 120, "toy": 8}

# Flow pool: (config id, k, n_in, n_de, c_stick) x a grid of initial states.
FLOW_CONFIGS = (
    ("p1", 0.05, 2016, 2016, 0.0),
    ("p2", 0.30, 2016, 2016, 0.1),
)
FLOW_POOL_GRID = 16
FLOW_MAX_STEPS = 20000
# Pool entries slower than this are left out of the draws.
FLOW_POOL_STEP_CAP = 5000
FLOW_DRAWS = {"full": 24, "toy": 4}
# Price pumps on config p1: (initial r_f, r_b, k schedule).
PUMPS = (
    (0.40, 0.20, ((0, 0.05), (300, 0.6), (900, 0.05))),
    (0.20, 0.30, ((0, 0.05), (200, 0.5), (700, 0.05))),
    (0.60, 0.10, ((0, 0.05), (250, 0.7), (800, 0.05))),
)

EQUILIBRIA_SWEEP = {"full": 32, "toy": 6}
BEST_RESPONSE = {"full": (2, 300), "toy": (1, 20)}  # (tasks, steps)
BR_PLAYERS = 8
BR_C_STICK = 0.05

SERIES_ROWS = {"full": 15000, "toy": 600}
SERIES_GOOD = 2
ANALYSIS_CONFIG = {"k": 0.3, "n_in": 2016, "n_de": 2016, "c_stick": 0.0, "powers": [1.0]}
HYSTERESIS = 0.02
JACCARD_MIN = 0.9
RF_TOL = 0.05

# Bounds against the recorded reference.  Deterministic runs: counts
# within one, floats within 1e-4 relative (one block more or less in ~10k).
# Exponential runs: the band recorded from calibration seeds.
DET_INT_TOL = 1
DET_FLOAT_RTOL = 1e-4
SIM_STEPS_TOL = 2
REWARD_RTOL = 1e-9


@dataclass
class Task:
    """One CLI call plus what its check needs."""

    key: str
    kind: str
    argv: list[str]
    info: dict = field(default_factory=dict)

    def clear_outputs(self):
        """Delete an earlier round's outputs, so that no check reads a stale file."""
        paths = [self.info.get(k) for k in ("out", "events", "series")]
        for path in paths + list(self.info.get("outs", {}).values()):
            if path and os.path.exists(path):
                os.remove(path)


@dataclass
class Workload:
    scale: str
    # Task lists run in turn, one per round.  Only sim_fleet has more than
    # one: its rounds differ in the simulator seed (see FLEET_VARIANTS).
    rounds: list[list[Task]] = field(default_factory=lambda: [[]])
    speed_exponent: float = 1.0  # see run.HostSpeed
    import_s: float = 0.0
    config_load_s: float = 0.0
    # Grid points (r_f, r_b, k, n_in, n_de) for the direct payoff timing.
    payoff_points: list[tuple] = field(default_factory=list)

    @property
    def tasks(self) -> list[Task]:
        """Every task of every round."""
        return [task for tasks in self.rounds for task in tasks]


# ---------------------------------------------------------------------------
# input generation


def avg_coin_a_power(r_f: float, r_b: float, n_in: int, n_de: int) -> float:
    """Time-weighted coin_A power over one idealized fickle cycle."""
    s = r_f + r_b
    t_b = n_in * r_b / s
    t_a = n_de * s / r_b
    return ((1 - s) * t_b + (1 - r_b) * t_a) / (t_b + t_a)


def cycle_length(r_f: float, r_b: float, n: int = N_BLOCKS) -> float:
    s = r_f + r_b
    return n * r_b / s + n * s / r_b


def _dump(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _three_agents(r_f: float, r_b: float) -> list[dict]:
    return [
        {"id": "f", "power": r_f, "policy": "fickle"},
        {"id": "b", "power": r_b, "policy": "b_only"},
        {"id": "a", "power": 1.0 - r_f - r_b, "policy": "a_only"},
    ]


def _split(rng: random.Random, total: float, count: int) -> list[float]:
    weights = [rng.uniform(0.2, 1.8) for _ in range(count)]
    scale = total / math.fsum(weights)
    return [w * scale for w in weights]


def build(name: str, seed: int, scale: str, workdir: str, reference: dict,
          load_config) -> Workload:
    """Generate the workload's inputs under `workdir` and list its tasks.

    `load_config` is the program's config loader; every generated game
    config goes through it so that set-up fails on an invalid input.
    """
    rng = random.Random(f"{name}:{seed}")
    builders = {"sim_oracle": _build_oracle, "sim_fleet": _build_fleet,
                "analysis": _build_analysis}
    wl = Workload(scale)
    builders[name](wl, rng, workdir, reference, load_config)
    return wl


def _timed_load(wl: Workload, load_config, path: str):
    t0 = perf_counter()
    cfg = load_config(path)
    wl.config_load_s += perf_counter() - t0
    return cfg


def _build_oracle(wl, rng, workdir, ref, load_config):
    from dualchain.core import MiningState
    from dualchain.payoff import payoff_triple

    for slot, regime_b, mode, si, (unit, amount) in ORACLE_SLOTS[wl.scale]:
        r_f, r_b, k = ORACLE_STATES[si]
        duration = amount * cycle_length(r_f, r_b) if unit == "cycles" else float(amount)
        world = _dump(os.path.join(workdir, f"world_s{si}.json"), {
            "k": k, "difficulty_a": avg_coin_a_power(r_f, r_b, N_BLOCKS, N_BLOCKS),
            "difficulty_b": r_b,
        })
        roster = _dump(os.path.join(workdir, f"roster_s{si}.json"), _three_agents(r_f, r_b))
        game = _dump(os.path.join(workdir, f"game_s{si}.json"), {
            "k": k, "n_in": N_BLOCKS, "n_de": N_BLOCKS, "c_stick": 0.0, "powers": [1.0],
        })
        expected = None
        if mode == "deterministic" and regime_b == "epoch:144":
            triple = payoff_triple(MiningState(r_f, r_b), _timed_load(wl, load_config, game))
            expected = {"fickle": triple.u_f, "a_only": triple.u_a, "b_only": triple.u_b}
        out = os.path.join(workdir, f"{slot}.json")
        events = os.path.join(workdir, f"{slot}.events.csv")
        series = os.path.join(workdir, f"{slot}.series.csv")
        key = f"oracle/{wl.scale}/{slot}"
        wl.rounds[0].append(Task(key, "chain", [
            "chain-sim", "--config", world, "--agents", roster,
            "--regime-a", FIXED_A, "--regime-b", regime_b,
            "--duration", repr(duration), "--seed", str(rng.randrange(1, 2**31)),
            "--mode", mode, "--events", events, "--series", series,
            "--out", out, "--quiet",
        ], {"out": out, "events": events, "series": series, "k": k, "mode": mode,
            "duration": duration, "expected_density": expected,
            "ref": ref.get("chain", {}).get(key)}))


def fleet_roster(rng: random.Random, scale: str) -> list[dict]:
    agents = []
    for policy, (count, total) in FLEET_POLICIES[scale].items():
        for i, power in enumerate(_split(rng, total, count)):
            agents.append({"id": f"{policy}-{i}", "power": power, "policy": policy})
    rng.shuffle(agents)
    # Make the roster sum to 1 within the simulator's 1e-9 tolerance.
    agents[-1]["power"] = 1.0 - math.fsum(a["power"] for a in agents[:-1])
    return agents


def _build_fleet(wl, rng, workdir, ref, load_config):
    pol = FLEET_POLICIES[wl.scale]
    r_switch = pol["fickle"][1] + pol["automatic"][1]
    r_b = pol["b_only"][1]
    world = _dump(os.path.join(workdir, "world.json"), {
        "k": FLEET_K, "difficulty_a": avg_coin_a_power(r_switch, r_b, N_BLOCKS, N_BLOCKS),
        "difficulty_b": r_b,
    })
    roster = _dump(os.path.join(workdir, "roster.json"), fleet_roster(rng, wl.scale))
    out = os.path.join(workdir, "fleet.json")
    key = f"fleet/{wl.scale}"
    wl.speed_exponent = FLEET_SPEED_EXPONENT
    wl.rounds = [[Task(key, "fleet", [
        "chain-sim", "--config", world, "--agents", roster,
        "--regime-a", "epoch:144", "--regime-b", EDA,
        "--duration", repr(FLEET_DURATION[wl.scale]),
        "--seed", str(rng.randrange(1, 2**31)),
        "--replicas", str(FLEET_REPLICAS), "--out", out, "--quiet",
    ], {"out": out, "k": FLEET_K, "ref": ref.get("fleet", {}).get(key)})]
        for _ in range(FLEET_VARIANTS[wl.scale])]


def flow_pool() -> list[dict]:
    """Every initial state the simulate tasks may draw, with a stable id."""
    pool = []
    n = FLOW_POOL_GRID
    for cid, k, n_in, n_de, c in FLOW_CONFIGS:
        for i in range(n):
            r_f = (i + 0.5) / n
            for j in range(n):
                r_b = (j + 0.5) / n * (1.0 - r_f)
                pool.append({"id": f"{cid}/{i}-{j}", "config": cid,
                             "state": (r_f, r_b), "schedule": None})
    for i, (r_f, r_b, sched) in enumerate(PUMPS):
        pool.append({"id": f"pump/{i}", "config": "p1", "state": (r_f, r_b),
                     "schedule": [list(p) for p in sched]})
    return pool


def _game_dict(k, n_in, n_de, c_stick):
    return {"k": k, "n_in": n_in, "n_de": n_de, "c_stick": c_stick,
            "powers": [1.0 - c_stick]}


def _build_analysis(wl, rng, workdir, ref, load_config):
    scale = wl.scale
    # zones on a fixed-config grid
    grid = ZONE_GRID[scale]
    for zi in sorted(rng.sample(range(len(ZONE_CONFIGS)), ZONE_PICK[scale])):
        k, n_in, n_de = ZONE_CONFIGS[zi]
        path = _dump(os.path.join(workdir, f"zones_c{zi}.json"), _game_dict(k, n_in, n_de, 0.0))
        _timed_load(wl, load_config, path)
        out = os.path.join(workdir, f"zones_c{zi}.csv")
        key = f"zones/c{zi}/g{grid}"
        wl.rounds[0].append(Task(key, "zones", [
            "zones", "--config", path, "--grid", str(grid), "--out", out, "--quiet",
        ], {"out": out, "grid": grid, "ref": ref.get("zones", {}).get(key)}))
        for i in range(grid):
            r_f = (i + 0.5) / grid
            for j in range(grid):
                wl.payoff_points.append((r_f, (j + 0.5) / grid * (1.0 - r_f), k, n_in, n_de))

    # simulate: stratified draws from the recorded pool, so every seed
    # integrates about the same number of flow steps, plus one price pump
    recorded = ref.get("simulate", {})
    configs = {}
    for cid, k, n_in, n_de, c in FLOW_CONFIGS:
        configs[cid] = _dump(os.path.join(workdir, f"flow_{cid}.json"),
                             _game_dict(k, n_in, n_de, c))
        _timed_load(wl, load_config, configs[cid])
    pool = flow_pool()
    plain = [e for e in pool if e["schedule"] is None and e["id"] in recorded
             and recorded[e["id"]]["steps_used"] <= FLOW_POOL_STEP_CAP]
    plain.sort(key=lambda e: (recorded[e["id"]]["steps_used"], e["id"]))
    draws = FLOW_DRAWS[scale]
    chosen = []
    if plain:
        width = len(plain) / draws
        chosen = [plain[int(s * width + rng.random() * width)] for s in range(draws)]
    pumps = [e for e in pool if e["schedule"] is not None]
    chosen.append(pumps[rng.randrange(len(pumps))])
    for n, entry in enumerate(chosen):
        out = os.path.join(workdir, f"flow_{n}.json")
        argv = ["simulate", "--config", configs[entry["config"]],
                "--initial", "{!r},{!r}".format(*entry["state"]),
                "--max-steps", str(FLOW_MAX_STEPS), "--format", "json",
                "--out", out, "--quiet"]
        if entry["schedule"] is not None:
            argv += ["--k-schedule", _dump(os.path.join(workdir, f"pump_{n}.json"),
                                           entry["schedule"])]
        wl.rounds[0].append(Task(f"simulate/{entry['id']}", "simulate", argv,
                             {"out": out, "ref": recorded.get(entry["id"])}))

    # equilibria sweep over c_stick on one seeded config
    k = rng.uniform(0.05, 0.6)
    n_in, n_de = rng.randint(144, 2016), rng.randint(144, 2016)
    sweep = [0.0] + [rng.uniform(0.0, 0.9) for _ in range(EQUILIBRIA_SWEEP[scale] - 1)]
    for n, c in enumerate(sweep):
        path = _dump(os.path.join(workdir, f"eq_{n}.json"), _game_dict(k, n_in, n_de, c))
        _timed_load(wl, load_config, path)
        out = os.path.join(workdir, f"eq_{n}.out.json")
        wl.rounds[0].append(Task(f"equilibria/{n}", "equilibria", [
            "equilibria", "--config", path, "--out", out, "--quiet",
        ], {"out": out, "k": k, "n_in": n_in, "n_de": n_de, "c_stick": c}))

    # best-response on seeded player sets
    tasks, steps = BEST_RESPONSE[scale]
    for n in range(tasks):
        powers = _split(rng, 1.0 - BR_C_STICK, BR_PLAYERS)
        cfg = {"k": rng.uniform(0.1, 0.6), "n_in": 2016, "n_de": 2016,
               "c_stick": BR_C_STICK, "powers": powers}
        path = _dump(os.path.join(workdir, f"br_{n}.json"), cfg)
        _timed_load(wl, load_config, path)
        assignment = [rng.choice(("fickle", "a_only", "b_only")) for _ in powers]
        apath = _dump(os.path.join(workdir, f"br_{n}.assign.json"), assignment)
        out = os.path.join(workdir, f"br_{n}.out.json")
        wl.rounds[0].append(Task(f"best-response/{n}", "best_response", [
            "best-response", "--config", path, "--assignment", apath,
            "--steps", str(steps), "--seed", str(rng.randrange(1, 2**31)),
            "--out", out, "--quiet",
        ], {"out": out, "powers": powers, "c_stick": BR_C_STICK, "steps": steps}))

    # analyze on long generated series; the last one has the refusal shape
    game = _dump(os.path.join(workdir, "analysis_game.json"), ANALYSIS_CONFIG)
    _timed_load(wl, load_config, game)
    rows = SERIES_ROWS[scale]
    for n in range(SERIES_GOOD + 1):
        refusal = n == SERIES_GOOD
        path = os.path.join(workdir, f"series_{n}.csv")
        planted = write_series(rng, rows, path, starts_in_period=not refusal)
        outs = {s: os.path.join(workdir, f"series_{n}.{s}") for s in
                ("summary.json", "periods.json", "estimates.csv", "zones.csv")}
        wl.rounds[0].append(Task(f"analyze/{'refusal' if refusal else 'good'}-{n}", "analyze", [
            "analyze", "--config", game, "--input", path,
            "--hysteresis", repr(HYSTERESIS),
            "--out-periods", outs["periods.json"], "--out-estimates", outs["estimates.csv"],
            "--out-zones", outs["zones.csv"], "--out", outs["summary.json"], "--quiet",
        ], {"outs": outs, "rows": rows, "planted": planted, "may_refuse": refusal}))


SERIES_FIELDS = ("timestamp", "hashrate_a", "hashrate_b", "difficulty_a",
                 "difficulty_b", "price_ratio_k")


def write_series(rng: random.Random, rows: int, path: str, starts_in_period: bool) -> dict:
    """Write a hash-rate series with planted fickle spans; return the truth.

    Inside a span the difficulty ratio D_B/D_A sits 10-40% below the
    record's price ratio and the coin_B share is r_f + r_b; outside it sits
    10-60% above and the share is r_b.  Shares carry 3% noise and rare
    spikes; k follows a slow random walk, so zone_path classifies each
    record with its own k.  A series that does not start in a span opens
    with loyal coin_B mining before any fickle period: the shape that
    zone_path refuses.
    """
    r_f = rng.uniform(0.2, 0.45)
    r_b = rng.uniform(0.05, 0.15)
    spans = []
    i, inside = 0, starts_in_period
    while i < rows:
        length = rng.randint(40, 120) if inside else rng.randint(150, 400)
        if inside:
            spans.append((i, min(i + length, rows) - 1))
        i += length
        inside = not inside
    k = rng.uniform(0.2, 0.4)
    span_iter = iter(spans)
    span = next(span_iter, None)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SERIES_FIELDS) + "\n")
        for i in range(rows):
            while span is not None and i > span[1]:
                span = next(span_iter, None)
            inside = span is not None and span[0] <= i
            k = min(0.6, max(0.1, k * math.exp(rng.gauss(0.0, 0.002))))
            d_a = 1e12 * (1.0 + 0.01 * rng.gauss(0.0, 1.0))
            ratio = k * (rng.uniform(0.6, 0.9) if inside else rng.uniform(1.1, 1.6))
            share = (r_f + r_b if inside else r_b) * (1.0 + 0.03 * rng.gauss(0.0, 1.0))
            if rng.random() < 0.005:
                share *= 1.5
            share = min(max(share, 1e-3), 0.95)
            total = 5e18 * (1.0 + 0.02 * rng.gauss(0.0, 1.0))
            fh.write(f"{1500000000 + 600 * i},{total * (1.0 - share)!r},{total * share!r},"
                     f"{d_a!r},{d_a * ratio!r},{k!r}\n")
    return {"r_f": r_f, "r_b": r_b, "spans": spans}


# ---------------------------------------------------------------------------
# observation


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _flat_report(report: dict, prefix: str = "") -> dict:
    obs = {}
    for key in ("blocks", "mean_interval", "final_difficulty"):
        for coin, value in report[key].items():
            obs[f"{prefix}{key}.{coin}"] = value
    obs[prefix + "fickle_cycles"] = report["fickle_cycles"]
    for policy, value in (report["policy_density"] or {}).items():
        obs[f"{prefix}density.{policy}"] = value
    return obs


def observe(task: Task, code: int, stderr: str) -> dict:
    """Read a finished task's outputs into a flat dict of fields.

    Outputs that are missing or malformed leave an "unreadable" field.
    """
    obs = {"exit": code}
    if code != 0:
        try:
            obs["error"] = json.loads(stderr.strip().splitlines()[-1])["code"]
        except (ValueError, IndexError, KeyError, TypeError):
            obs["error"] = None
    try:
        return _OBSERVERS[task.kind](task, obs)
    except (OSError, csv.Error, ValueError, KeyError, IndexError, TypeError) as exc:
        obs["unreadable"] = f"{type(exc).__name__}: {exc}"
        return obs


def _observe_chain(task, obs):
    if obs["exit"] != 0:
        return obs
    report = _read_json(task.info["out"])
    obs.update(_flat_report(report))
    obs["rewards_total"] = math.fsum(report["agent_rewards"].values())
    obs["density_null"] = report["policy_density"] is None
    blocks = {"a": 0, "b": 0}
    retargets = rows = 0
    with open(task.info["events"], newline="") as fh:
        reader = csv.reader(fh)
        obs["events_header"] = next(reader, None)
        for row in reader:
            rows += 1
            if row[2] == "block":
                blocks[row[1]] += 1
            elif row[2] in ("difficulty", "eda"):
                retargets += 1
    obs["events"] = rows
    obs["retargets"] = retargets
    obs["event_blocks.a"], obs["event_blocks.b"] = blocks["a"], blocks["b"]
    with open(task.info["series"], newline="") as fh:
        reader = csv.reader(fh)
        obs["series_header"] = next(reader, None)
        last, ordered, n = None, True, 0
        for row in reader:
            ts = int(row[0])
            ordered = ordered and (last is None or ts > last)
            last, n = ts, n + 1
    obs["series_rows"] = n
    obs["series_ordered"] = ordered
    return obs


def _observe_fleet(task, obs):
    if obs["exit"] != 0:
        return obs
    merged = _read_json(task.info["out"])
    reps = merged["replicas"]
    obs["replicas"] = len(reps)
    obs["seeds"] = [r["seed"] for r in reps]
    for i, rep in enumerate(reps):
        obs.update(_flat_report(rep, f"r{i}."))
        obs[f"r{i}.rewards_total"] = math.fsum(rep["agent_rewards"].values())
    obs["rewards"] = [rep["agent_rewards"] for rep in reps]
    obs["densities"] = [rep["policy_density"] for rep in reps]
    obs["mean_policy_density"] = merged.get("mean_policy_density")
    return obs


def _observe_zones(task, obs):
    if obs["exit"] != 0:
        return obs
    digest = hashlib.sha256()
    counts: dict[str, int] = {}
    with open(task.info["out"], newline="") as fh:
        reader = csv.reader(fh)
        obs["header"] = next(reader, None)
        n = 0
        for row in reader:
            zone = row[2]
            digest.update(zone.encode() + b"\n")
            counts[zone] = counts.get(zone, 0) + 1
            n += 1
    obs["rows"] = n
    obs["sha256"] = digest.hexdigest()
    obs["counts"] = counts
    return obs


def _observe_simulate(task, obs):
    if obs["exit"] != 0:
        return obs
    out = _read_json(task.info["out"])
    obs["outcome"] = out["outcome"]
    obs["steps_used"] = out["steps_used"]
    obs["rows"] = len(out["trajectory"])
    return obs


def _observe_json(task, obs):
    if obs["exit"] != 0:
        return obs
    obs.update(_read_json(task.info["out"]))
    return obs


def _observe_analyze(task, obs):
    outs = task.info["outs"]
    if obs["exit"] == 0:
        obs["summary"] = _read_json(outs["summary.json"])
        with open(outs["zones.csv"], newline="") as fh:
            obs["zone_rows"] = sum(1 for _ in fh) - 1
    # Periods and estimates are written before zone_path runs, so a task
    # refused there still leaves them to check.
    if os.path.exists(outs["periods.json"]):
        obs["periods"] = _read_json(outs["periods.json"])
    if os.path.exists(outs["estimates.csv"]):
        with open(outs["estimates.csv"], newline="") as fh:
            obs["estimate_rows"] = sum(1 for _ in fh) - 1
    return obs


_OBSERVERS = {
    "chain": _observe_chain, "fleet": _observe_fleet, "zones": _observe_zones,
    "simulate": _observe_simulate, "equilibria": _observe_json,
    "best_response": _observe_json, "analyze": _observe_analyze,
}


# ---------------------------------------------------------------------------
# checks


def outcome(task: Task, obs: dict) -> tuple[str, list[str]]:
    """Classify a task: ("ok" | "refused" | "failed", problems).

    "refused" is the known ingest refusal on a series shaped to provoke
    it, with every output written before the refusal still correct.
    """
    if "unreadable" in obs:
        return "failed", [f"unreadable output: {obs['unreadable']}"]
    try:
        problems = _CHECKS[task.kind](task, obs)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if problems:
        return "failed", problems
    if obs["exit"] == 2 and obs.get("error") == KNOWN_REFUSAL:
        return "refused", []
    return "ok", []


def _exit_ok(obs) -> list[str]:
    if obs["exit"] != 0:
        return [f"exit {obs['exit']} ({obs.get('error')})"]
    return []


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _compare_reference(ref: dict | None, obs: dict, prefix: str = "") -> list[str]:
    if ref is None:
        return ["no recorded reference for this task"]
    problems = []
    for name, want in ref["fields"].items():
        got = obs.get(prefix + name)
        if got is None:
            problems.append(f"{prefix}{name} missing")
        elif ref["kind"] == "band":
            lo, hi = want
            if not lo <= got <= hi:
                problems.append(f"{prefix}{name}={got} outside recorded band [{lo}, {hi}]")
        elif isinstance(want, int):
            if abs(got - want) > DET_INT_TOL:
                problems.append(f"{prefix}{name}={got}, reference {want}")
        elif _rel(got, want) > DET_FLOAT_RTOL:
            problems.append(f"{prefix}{name}={got}, reference {want}")
    return problems


def _check_rewards(obs, prefix, k) -> list[str]:
    # Every block pays 1 coin_A on chain A or k coin_A on chain B.
    minted = obs[prefix + "blocks.a"] + k * obs[prefix + "blocks.b"]
    if _rel(obs[prefix + "rewards_total"], minted) > REWARD_RTOL:
        return [f"{prefix}rewards sum {obs[prefix + 'rewards_total']} != minted {minted}"]
    return []


def _check_chain(task, obs):
    problems = _exit_ok(obs)
    if problems:
        return problems
    info = task.info
    problems += _check_rewards(obs, "", info["k"])
    from dualchain.chainsim import EVENT_FIELDS, SERIES_FIELDS as SIM_SERIES
    if tuple(obs["events_header"] or ()) != EVENT_FIELDS:
        problems.append(f"events header {obs['events_header']}")
    if tuple(obs["series_header"] or ()) != SIM_SERIES:
        problems.append(f"series header {obs['series_header']}")
    for coin in ("a", "b"):
        if obs[f"event_blocks.{coin}"] != obs[f"blocks.{coin}"]:
            problems.append(f"event log has {obs[f'event_blocks.{coin}']} chain-{coin} "
                            f"blocks, report has {obs[f'blocks.{coin}']}")
    if obs["series_rows"] != math.ceil(info["duration"]) or not obs["series_ordered"]:
        problems.append(f"series has {obs['series_rows']} rows "
                        f"(ordered={obs['series_ordered']}), expected {math.ceil(info['duration'])}")
    expected = info["expected_density"]
    if expected is not None:
        if obs["density_null"]:
            problems.append("policy_density is null on an oracle run")
        else:
            for policy, want in expected.items():
                got = obs[f"density.{policy}"]
                if _rel(got, want) > ORACLE_DENSITY_TOL:
                    problems.append(f"{policy} density {got} vs analytic {want}")
    return problems + _compare_reference(info["ref"], obs)


def _check_fleet(task, obs):
    problems = _exit_ok(obs)
    if problems:
        return problems
    if obs["replicas"] != FLEET_REPLICAS:
        return [f"{obs['replicas']} replicas, expected {FLEET_REPLICAS}"]
    seed = int(task.argv[task.argv.index("--seed") + 1])
    if obs["seeds"] != list(range(seed, seed + FLEET_REPLICAS)):
        problems.append(f"replica seeds {obs['seeds']}")
    roster = _read_json(task.argv[task.argv.index("--agents") + 1])
    power = {a["id"]: a["power"] for a in roster}
    policy = {a["id"]: a["policy"] for a in roster}
    for i, rewards in enumerate(obs["rewards"]):
        problems += _check_rewards(obs, f"r{i}.", task.info["k"])
        # Crediting is power-proportional: one reward rate per policy.
        by_policy: dict[str, list[float]] = {}
        for aid, reward in rewards.items():
            by_policy.setdefault(policy[aid], []).append(reward / power[aid])
        for pol, rates in by_policy.items():
            if max(rates) - min(rates) > 1e-9 * max(abs(max(rates)), 1.0):
                problems.append(f"r{i}: {pol} agents earned unequal reward per power")
        problems += _compare_reference(task.info["ref"], obs, f"r{i}.")
    dens = [d for d in obs["densities"] if d]
    mean = obs["mean_policy_density"]
    if dens:
        for pol in dens[0]:
            want = math.fsum(d[pol] for d in dens) / len(dens)
            if mean is None or _rel(mean[pol], want) > 1e-12:
                problems.append(f"mean_policy_density[{pol}] is not the replica mean")
    return problems


def _check_zones(task, obs):
    problems = _exit_ok(obs)
    if problems:
        return problems
    if obs["header"] != ["r_f", "r_b", "zone"] or obs["rows"] != task.info["grid"] ** 2:
        problems.append(f"zones CSV header {obs['header']}, {obs['rows']} rows")
    ref = task.info["ref"]
    if ref is None:
        problems.append("no recorded reference map")
    elif obs["sha256"] != ref["sha256"]:
        problems.append(f"zone map differs from the reference: counts {obs['counts']} "
                        f"vs {ref['counts']}")
    return problems


def _check_simulate(task, obs):
    problems = _exit_ok(obs)
    if problems:
        return problems
    ref = task.info["ref"]
    if ref is None:
        return ["no recorded reference outcome"]
    if obs["outcome"] != ref["outcome"]:
        problems.append(f"outcome {obs['outcome']}, reference {ref['outcome']}")
    if abs(obs["steps_used"] - ref["steps_used"]) > SIM_STEPS_TOL:
        problems.append(f"steps_used {obs['steps_used']}, reference {ref['steps_used']}")
    return problems


def solve_alpha(k: float, n_in: int, n_de: int) -> float:
    """Root of n_in r^3 + n_de r (1+k) - k n_de on (0, k/(1+k)), by bisection."""
    lo, hi = 0.0, k / (1.0 + k)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if n_in * mid ** 3 + n_de * mid * (1.0 + k) - k * n_de < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_equilibria(task, obs):
    problems = _exit_ok(obs)
    if problems:
        return problems
    info = task.info
    k, c = info["k"], info["c_stick"]
    alpha = solve_alpha(k, info["n_in"], info["n_de"])
    top = k / (1.0 + k)
    if abs(obs["alpha"] - alpha) > 1e-12:
        problems.append(f"alpha {obs['alpha']} vs {alpha}")
    # Case split: 1 at c=0, 2 up to alpha, 3 up to k/(1+k), 4 beyond.  A c
    # within 1e-9 of a transition may take either side.
    if min(abs(c - alpha), abs(c - top)) > 1e-9:
        want = 1 if c == 0.0 else 2 if c <= alpha else 3 if c <= top else 4
        if obs["case_tag"] != want:
            problems.append(f"case_tag {obs['case_tag']} at c_stick={c}, expected {want}")
    point = obs["coexist_point"]
    if (point is None) != (obs["case_tag"] == 4):
        problems.append("coexist point present iff case < 4 violated")
    elif point is not None and abs(point["r_b"] - top) > 1e-12:
        problems.append(f"coexist r_b {point['r_b']} vs {top}")
    return problems


def _check_best_response(task, obs):
    problems = _exit_ok(obs)
    if problems:
        return problems
    info = task.info
    assignment = obs["assignment"]
    if len(assignment) != len(info["powers"]):
        return [f"assignment has {len(assignment)} players"]
    r_f = math.fsum(p for s, p in zip(assignment, info["powers"]) if s == "fickle")
    r_b = min(1.0, info["c_stick"] + math.fsum(
        p for s, p in zip(assignment, info["powers"]) if s == "b_only"))
    if abs(obs["r_f"] - r_f) > 1e-12 or abs(obs["r_b"] - r_b) > 1e-12:
        problems.append(f"state ({obs['r_f']}, {obs['r_b']}) vs assignment ({r_f}, {r_b})")
    if not 0 <= obs["changes"] <= info["steps"]:
        problems.append(f"{obs['changes']} changes in {info['steps']} steps")
    if obs["max_gain"] < 0.0 or obs["converged"] != (obs["max_gain"] <= 0.0):
        problems.append(f"converged={obs['converged']} with max_gain={obs['max_gain']}")
    return problems


def _check_analyze(task, obs):
    info = task.info
    problems = []
    refused = obs["exit"] == 2 and obs.get("error") == KNOWN_REFUSAL
    if obs["exit"] != 0 and not (refused and info["may_refuse"]):
        return [f"exit {obs['exit']} ({obs.get('error')})"]
    rows = info["rows"]
    if obs.get("estimate_rows") != rows:
        problems.append(f"{obs.get('estimate_rows')} estimate rows, expected {rows}")
    periods = obs.get("periods")
    if periods is None:
        return problems + ["no periods written"]
    planted = info["planted"]
    truth = set()
    for a, b in planted["spans"]:
        truth.update(range(a, b + 1))
    found = set()
    for p in periods:
        found.update(range(p["start_index"], p["end_index"] + 1))
    jaccard = len(truth & found) / len(truth | found) if truth | found else 1.0
    if jaccard < JACCARD_MIN:
        problems.append(f"period Jaccard {jaccard:.3f} < {JACCARD_MIN}")
    if periods:
        rf = statistics.median(p["r_f_estimate"] for p in periods)
        if abs(rf - planted["r_f"]) > RF_TOL:
            problems.append(f"r_f estimate {rf:.4f} vs planted {planted['r_f']:.4f}")
    if obs["exit"] == 0:
        summary = obs["summary"]
        if (summary["records"], summary["periods"], summary["out_of_order"]) != \
                (rows, len(periods), 0):
            problems.append(f"summary {summary}")
        if obs["zone_rows"] != rows:
            problems.append(f"{obs['zone_rows']} zone rows, expected {rows}")
    return problems


_CHECKS = {
    "chain": _check_chain, "fleet": _check_fleet, "zones": _check_zones,
    "simulate": _check_simulate, "equilibria": _check_equilibria,
    "best_response": _check_best_response, "analyze": _check_analyze,
}
