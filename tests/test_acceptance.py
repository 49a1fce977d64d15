"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion
pass/fail lines; each test also prints a one-line summary.
"""

import math
import random
import statistics
import time

import pytest

from dualchain.core import MiningState, Strategy, Zone, coexist_rb, validate_config
from dualchain.chainsim import (
    ChainWorld,
    EpochFixed,
    EpochWithEda,
    MinerAgent,
    avg_b_occupancy,
    b_phase_durations,
    eda_expected_nde,
    empirical_payoffs,
    run,
    sample_series,
)
from dualchain.dynamics import FlowConfig, Outcome, simulate_flow
from dualchain.equilibrium import (
    Segment,
    boundary13_rb,
    boundary23_rb,
    equilibria,
    finite_deviation,
    solve_alpha,
    zone_of,
)
from dualchain.ingest import (
    SERIES_COLUMNS,
    detect_fickle_periods,
    estimate_state_path,
    load_series,
)
from dualchain.payoff import payoff, payoff_triple


def config(k, n_in=2016, n_de=2016, c_stick=0.0, powers=None):
    return validate_config({
        "k": k, "n_in": n_in, "n_de": n_de, "c_stick": c_stick,
        "powers": powers if powers is not None else [1.0 - c_stick],
    })


def report(line):
    print(f"ACCEPTANCE {line}")


def avg_coin_a_power(r_f, r_b, n_in, n_de):
    """Time-weighted coin_A power over one idealized fickle cycle."""
    s = r_f + r_b
    t_b = n_in * r_b / s
    t_a = n_de * s / r_b
    return ((1 - s) * t_b + (1 - r_b) * t_a) / (t_b + t_a)


def loyal_roster(r_f, r_b):
    agents = []
    if r_f > 0:
        agents.append(MinerAgent("f", r_f, Strategy.FICKLE))
    if r_b > 0:
        agents.append(MinerAgent("b", r_b, Strategy.B_ONLY))
    if 1.0 - r_f - r_b > 0:
        agents.append(MinerAgent("a", 1.0 - r_f - r_b, Strategy.A_ONLY))
    return agents


def test_criterion_01_equal_payoff_coexistence_point():
    started = time.monotonic()
    rng = random.Random(101)
    for _ in range(1000):
        k = rng.uniform(0.001, 1.0)
        cfg = config(k, rng.randint(1, 4032), rng.randint(1, 4032))
        triple = payoff_triple(MiningState(0.0, k / (1.0 + k)), cfg)
        expected = 1.0 + k
        assert abs(triple.u_f - expected) <= 1e-9
        assert abs(triple.u_a - expected) <= 1e-9
        assert abs(triple.u_b - expected) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(f"criterion 1 PASS: 1000 configs equal to 1+k within 1e-9 in {elapsed:.2f}s")


def test_criterion_02_worked_example():
    cfg = config(0.3)
    state = MiningState(0.2, 0.0)
    u_b = payoff(Strategy.B_ONLY, state, cfg)
    u_a = payoff(Strategy.A_ONLY, state, cfg)
    u_f = payoff(Strategy.FICKLE, state, cfg)
    assert abs(u_b - 1.5) <= 1e-9
    assert abs(u_a - 1.0) <= 1e-9
    assert abs(u_f - 1.0) <= 1e-9
    # Not an equilibrium: the state classifies into a moving zone and a
    # coin_A-only player profits by defecting to coin_B.
    zone = zone_of(state, cfg)
    assert zone is Zone.ZONE2
    dev = finite_deviation(state, 0.01, Strategy.A_ONLY, cfg)
    assert dev.best_strategy is Strategy.B_ONLY
    assert dev.payoff_gain > 0.0
    report("criterion 2 PASS: (0.2, 0) with k=0.3 gives U_B=1.5, U_A=U_F=1, "
           f"zone={zone.value}, profitable deviation to coin_B")


def test_criterion_03_case_partition_and_deviation_immunity():
    started = time.monotonic()
    rng = random.Random(303)
    n_points = 10_000
    for _ in range(20):
        k = rng.uniform(0.05, 1.0)
        n_in = rng.randint(6, 2016)
        n_de = rng.randint(6, 2016)
        probe = config(k, n_in, n_de)
        alpha = solve_alpha(probe)
        top = coexist_rb(k)
        prev_tag = 0
        for i in range(n_points):
            c = i / n_points
            cfg = config(k, n_in, n_de, c_stick=c, powers=[1.0 - c])
            eq = equilibria(cfg)
            # Tags non-decreasing, transitions exactly at alpha and k/(1+k).
            assert eq.case_tag >= prev_tag
            prev_tag = eq.case_tag
            if c == 0.0:
                assert eq.case_tag == 1
            elif c <= alpha:
                assert eq.case_tag == 2
            elif c <= top:
                assert eq.case_tag == 3
            else:
                assert eq.case_tag == 4
            states = []
            if eq.coexist_point is not None:
                states.append(eq.coexist_point)
            if isinstance(eq.lack_points, Segment):
                states.append(MiningState(eq.lack_points.start, 0.0))
                states.append(MiningState(1.0, 0.0))
            else:
                states.append(eq.lack_points)
            c_i = 1e-9
            for st in states:
                for strategy, present in (
                    (Strategy.FICKLE, st.r_f),
                    (Strategy.A_ONLY, st.r_a),
                    (Strategy.B_ONLY, st.r_b - c),
                ):
                    if present < c_i:
                        continue
                    gain = finite_deviation(st, c_i, strategy, cfg).payoff_gain
                    assert gain <= 1e-6, (k, n_in, n_de, c, st, strategy, gain)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(f"criterion 3 PASS: 20 configs x {n_points} c_stick points in {elapsed:.1f}s")


def test_criterion_04_alpha_oracle():
    def oracle(k, n_in, n_de):
        lo, hi = 0.0, k / (1.0 + k)
        for _ in range(120):
            mid = (lo + hi) / 2
            if n_in * mid**3 + n_de * mid * (1 + k) - k * n_de < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    cfg = config(1.0, 2016, 2016)
    alpha = solve_alpha(cfg)
    expected = oracle(1.0, 2016, 2016)
    assert abs(alpha - expected) <= 1e-10
    assert abs(alpha - 0.453397) <= 1e-6
    report(f"criterion 4 PASS: alpha={alpha:.12f} matches oracle within 1e-10")


def test_criterion_05_boundary_ordering():
    cfg = config(0.3, 144, 2016)
    k = cfg.k
    # Shared start at the coexistence point (equality only at r_f = 0).
    b13_0 = boundary13_rb(0.0, cfg)
    b23_0 = boundary23_rb(0.0, cfg)
    assert abs(b13_0 - b23_0) <= 1e-10
    checked = 0
    for i in range(1, 201):
        r_f = i * k / 200
        upper = boundary13_rb(r_f, cfg)
        lower = boundary23_rb(r_f, cfg)
        if upper is None or lower is None:
            continue
        assert upper - lower > -1e-12
        assert upper > lower, f"ordering violated at r_f={r_f}"
        checked += 1
    assert checked >= 190
    report(f"criterion 5 PASS: boundary_13 above boundary_23 at {checked} grid points")


def test_criterion_06_flow_convergence_map():
    started = time.monotonic()
    k = 0.05
    cfg = config(k)
    flow = FlowConfig(migration_rate=0.001, max_steps=1_000_000, convergence_eps=0.005)
    n = 50
    undecided_far = []
    zone2_failures = []
    for i in range(n):
        r_f = i / (n - 1)
        for j in range(n):
            r_b = j / (n - 1) * (1.0 - r_f)
            if r_f == 0.0 and (r_b == 0.0 or r_b == 1.0):
                continue  # payoffs diverge at these corners
            state = MiningState(r_f, r_b)
            if r_b == 0.0:
                traj = simulate_flow(state, flow, cfg)
                if r_f >= k:
                    assert traj.outcome is Outcome.LOYAL_LACK
                    assert traj.steps_used == 0, "segment states must settle immediately"
                continue
            zone = zone_of(state, cfg)
            # Distance to the zone boundaries along r_b.
            dist = 1.0
            b13 = boundary13_rb(r_f, cfg)
            b23 = boundary23_rb(r_f, cfg)
            if b13 is not None:
                dist = min(dist, abs(r_b - b13))
            if b23 is not None:
                dist = min(dist, abs(r_b - b23))
            traj = simulate_flow(state, flow, cfg)
            if zone is Zone.ZONE2 and dist >= 0.01:
                if traj.outcome is not Outcome.COEXISTENCE:
                    zone2_failures.append((r_f, r_b, traj.outcome))
            if dist >= 0.01 and traj.outcome is Outcome.UNDECIDED:
                undecided_far.append((r_f, r_b))
    elapsed = time.monotonic() - started
    assert not zone2_failures, zone2_failures
    assert not undecided_far, undecided_far
    assert elapsed < 120.0
    report(f"criterion 6 PASS: 50x50 flow map clean in {elapsed:.1f}s")


# Stationary oracle states chosen with k*D_A comfortably between r_b and
# r_f + r_b, so the switching predicate is robust to the difficulty noise
# of the 144-block window in exponential mode.
ORACLE_STATES = [
    (0.30, 0.20, 0.378),
    (0.45, 0.15, 0.34),
    (0.50, 0.10, 0.28),
    (0.20, 0.10, 0.18),
    (0.35, 0.10, 0.22),
]


def test_criterion_07_chainsim_matches_analytic_payoffs():
    started = time.monotonic()
    n = 144
    by_policy = {
        Strategy.FICKLE: "u_f", Strategy.A_ONLY: "u_a", Strategy.B_ONLY: "u_b",
    }
    for r_f, r_b, k in ORACLE_STATES:
        cfg = config(k, n, n)
        analytic = payoff_triple(MiningState(r_f, r_b), cfg)
        world = ChainWorld(
            difficulty_a=avg_coin_a_power(r_f, r_b, n, n), difficulty_b=r_b, k=k
        )
        cycle = n * r_b / (r_f + r_b) + n * (r_f + r_b) / r_b
        agents = loyal_roster(r_f, r_b)

        det = run(world, agents, EpochFixed(10**9), EpochFixed(n), 56 * cycle,
                  seed=7, mode="deterministic")
        det_density = empirical_payoffs(det)
        for policy, attr in by_policy.items():
            expected = getattr(analytic, attr)
            rel = abs(det_density[policy] - expected) / expected
            assert rel <= 0.005, (r_f, r_b, k, policy.value, rel)

        exp = run(world, agents, EpochFixed(10**9), EpochFixed(n), 206 * cycle,
                  seed=17, mode="exponential")
        assert exp.fickle_cycles >= 200
        exp_density = empirical_payoffs(exp)
        for policy, attr in by_policy.items():
            expected = getattr(analytic, attr)
            rel = abs(exp_density[policy] - expected) / expected
            assert rel <= 0.02, (r_f, r_b, k, policy.value, rel)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(f"criterion 7 PASS: 5 states, det<=0.5% exp<=2%, {elapsed:.1f}s")


def test_criterion_08_fickle_cycle_timing():
    r_f, r_b, k, n = 0.4, 0.1, 0.3, 2016
    world = ChainWorld(
        difficulty_a=avg_coin_a_power(r_f, r_b, n, n), difficulty_b=r_b, k=k
    )
    cycle = n * r_b / (r_f + r_b) + n * (r_f + r_b) / r_b
    changes = []
    run(world, loyal_roster(r_f, r_b), EpochFixed(10**9), EpochFixed(n),
        3.5 * cycle, seed=8, mode="deterministic", sinks=[changes.append])
    expected = n * r_b / (r_f + r_b)
    durations = b_phase_durations(changes)
    assert durations
    mean = statistics.fmean(durations)
    assert abs(mean - expected) / expected <= 0.03
    report(f"criterion 8 PASS: B-phase {mean:.2f} P_ag vs {expected:.2f} expected")


def test_criterion_09_eda_expected_block_counts():
    regime = EpochWithEda(n=2016, eda_window=6, eda_threshold=12.0, eda_factor=0.8)
    at_zero_fickle = eda_expected_nde(MiningState(0.0, 0.3), regime, seed=1,
                                      trials=10_000)
    assert at_zero_fickle == 2016.0
    near_axis = eda_expected_nde(MiningState(0.5, 1e-9), regime, seed=2,
                                 trials=10_000)
    assert abs(near_axis - 6.0) <= 1.0
    for state in (MiningState(0.2, 0.2), MiningState(0.05, 0.5), MiningState(0.5, 0.1)):
        value = eda_expected_nde(state, regime, seed=3, trials=10_000)
        assert 6.0 <= value <= 2016.0
    report(f"criterion 9 PASS: E[N_de] endpoints {at_zero_fickle:.0f} / {near_axis:.2f}")


def test_criterion_10_automatic_mining_threshold():
    k, c_stick = 0.05, 0.02

    def occupancy(auto_power, seed):
        loyal_a = 1.0 - c_stick - auto_power
        agents = [
            MinerAgent("auto", auto_power, Strategy.AUTOMATIC),
            MinerAgent("faction", c_stick, Strategy.B_ONLY),
            MinerAgent("loyal_a", loyal_a, Strategy.A_ONLY),
        ]
        world = ChainWorld(difficulty_a=loyal_a, difficulty_b=c_stick + auto_power, k=k)
        changes = []
        run(world, agents, EpochFixed(2016), EpochFixed(72), 4000.0, seed=seed,
            sinks=[changes.append])
        return avg_b_occupancy(changes, 2000.0, 4000.0)

    for seed in range(5):
        drained = occupancy(0.05, seed)
        assert abs(drained - c_stick) < abs(drained - (c_stick + 0.05)), \
            f"seed {seed}: 5% automatic power did not drain to c_stick ({drained})"
    for seed in range(100, 105):
        settled = occupancy(0.02, seed)
        assert abs(settled - (c_stick + 0.02)) < abs(settled - c_stick), \
            f"seed {seed}: 2% automatic power unexpectedly drained ({settled})"
    report("criterion 10 PASS: 5% automatic power drains loyal miners, 2% does not, "
           "5 seeds each")


def _write_rows(fh):
    """A sample_series consumer writing each row as plain comma-joined str()."""
    def on_stretch(state, stamps):
        for ts in stamps:
            fh.write(",".join(map(str, (ts, *state))) + "\n")
    return on_stretch


def test_criterion_11_ingest_round_trip(tmp_path):
    started = time.monotonic()
    r_f, r_b, k, n = 0.3, 0.1, 0.3, 504
    s = r_f + r_b
    world = ChainWorld(
        difficulty_a=avg_coin_a_power(r_f, r_b, n, n), difficulty_b=r_b, k=k
    )
    cycle = n * r_b / s + n * s / r_b
    events = []
    path = tmp_path / "roundtrip.csv"
    with open(path, "w") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        rep = run(world, loyal_roster(r_f, r_b), EpochFixed(10**9), EpochFixed(n),
                  10 * cycle, seed=11, mode="exponential",
                  sinks=[events.append, sample_series(_write_rows(fh), step=1.0)])

    loaded = load_series(str(path))
    periods = detect_fickle_periods(loaded, hysteresis=0.02)
    assert periods
    estimates, period_rf = estimate_state_path(loaded, periods)
    rf_est = statistics.median(period_rf)
    # The non-gray records are those without an r_f; their share observes r_b.
    rb_est = statistics.median(
        share for share, r_f in zip(estimates.columns["share"], estimates.columns["r_f"])
        if r_f is None
    )
    assert abs(rf_est - r_f) <= 0.05
    assert abs(rb_est - r_b) <= 0.05

    # Jaccard between detected periods and the true fickle-on-B spans.
    spans = []
    open_at = None
    for ev in events:
        if ev[2] == "switch_fickle":
            if ev[1] == "b":
                open_at = ev[0]
            elif open_at is not None:
                spans.append((open_at, ev[0]))
                open_at = None
    if open_at is not None:
        spans.append((open_at, rep.duration))
    true_idx = {
        i for i, timestamp in enumerate(loaded.columns["timestamp"])
        if any(a * 600 <= timestamp < b * 600 for a, b in spans)
    }
    detected_idx = set()
    for p in periods:
        detected_idx.update(range(p.start_index, p.end_index + 1))
    jaccard = len(true_idx & detected_idx) / len(true_idx | detected_idx)
    assert jaccard >= 0.9
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(f"criterion 11 PASS: r_f {rf_est:.3f} r_b {rb_est:.3f} recovered, "
           f"Jaccard {jaccard:.3f}, {elapsed:.1f}s")
