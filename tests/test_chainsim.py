import csv
import gc
import io
import math
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dualchain.core import InvalidValue, MiningState, PowerSumMismatch, Strategy, validate_config
from dualchain.chainsim import (
    ChainWorld,
    Coin,
    EpochFixed,
    EpochWithEda,
    InsufficientCycles,
    MIN_CYCLES,
    MinerAgent,
    EVENT_FIELDS,
    SERIES_FIELDS,
    PerBlockWindow,
    SimReport,
    ZeroPowerChain,
    _Chain,
    avg_b_occupancy,
    b_phase_durations,
    eda_expected_nde,
    empirical_payoffs,
    run,
    sample_series,
    write_events_csv,
    write_series_csv,
)
from dualchain.dynamics import Schedule
from dualchain.equilibrium import zone_of
from dualchain.payoff import payoff_triple


def config(k, n_in=2016, n_de=2016):
    return validate_config({"k": k, "n_in": n_in, "n_de": n_de, "powers": [1.0]})


def loyal_roster(r_f, r_b):
    agents = []
    if r_f > 0:
        agents.append(MinerAgent("f", r_f, Strategy.FICKLE))
    if r_b > 0:
        agents.append(MinerAgent("b", r_b, Strategy.B_ONLY))
    if 1.0 - r_f - r_b > 0:
        agents.append(MinerAgent("a", 1.0 - r_f - r_b, Strategy.A_ONLY))
    return agents


def log_to(events):
    """run's on_block and on_event, as keyword arguments, appending each line
    of the event log to `events` as an EVENT_FIELDS-ordered tuple."""
    state = ()

    def on_event(t, chain, kind, d_a, d_b, r_f, r_b, lines):
        nonlocal state
        state = (d_a, d_b, r_f, r_b)
        events.extend([(t, chain, kind, *state)] * lines)

    def on_block(t, chain):
        events.append((t, chain, "block", *state))

    return {"on_block": on_block, "on_event": on_event}


def rows_to(rows):
    """A sample_series consumer appending each row to `rows` as a
    SERIES_FIELDS-ordered tuple."""
    return lambda state, stamps: rows.extend((ts, *state) for ts in stamps)


def avg_coin_a_difficulty(r_f, r_b, n):
    """Time-weighted coin_A power over one fickle cycle."""
    s = r_f + r_b
    t_b = n * r_b / s
    t_a = n * s / r_b
    return ((1 - s) * t_b + (1 - r_b) * t_a) / (t_b + t_a)


def test_all_power_on_a_mean_interval_is_one():
    agents = [MinerAgent("a", 1.0, Strategy.A_ONLY)]
    world = ChainWorld(difficulty_a=1.0, difficulty_b=0.5, k=0.05)
    rep = run(world, agents, EpochFixed(2016), EpochFixed(2016), 3000.0, seed=42)
    assert rep.mean_interval[Coin.A] == pytest.approx(1.0, rel=0.02)
    assert rep.blocks[Coin.B] == 0


def test_difficulty_converges_to_constant_power():
    agents = [
        MinerAgent("a", 0.7, Strategy.A_ONLY),
        MinerAgent("b", 0.3, Strategy.B_ONLY),
    ]
    world = ChainWorld(difficulty_a=1.0, difficulty_b=0.05, k=0.4)
    # Deterministic mode locks on after one epoch.
    rep = run(world, agents, EpochFixed(100), EpochFixed(100), 900.0, seed=1,
              mode="deterministic")
    assert rep.final_difficulty[Coin.A] == pytest.approx(0.7, rel=1e-9)
    assert rep.final_difficulty[Coin.B] == pytest.approx(0.3, rel=1e-9)
    # Exponential mode: within 5% after three epochs at this window size.
    rep = run(world, agents, EpochFixed(2016), EpochFixed(2016), 3.2 * 2016 / 0.7, seed=9)
    assert rep.final_difficulty[Coin.A] == pytest.approx(0.7, rel=0.05)


def test_fickle_phase_duration_matches_cycle_formula():
    r_f, r_b, n = 0.3, 0.2, 144
    agents = loyal_roster(r_f, r_b)
    world = ChainWorld(
        difficulty_a=avg_coin_a_difficulty(r_f, r_b, n), difficulty_b=r_b, k=0.378
    )
    cycle = n * r_b / (r_f + r_b) + n * (r_f + r_b) / r_b
    changes = []
    run(world, agents, EpochFixed(10**9), EpochFixed(n), 10 * cycle, seed=1,
        mode="deterministic", sinks=[changes.append])
    durations = b_phase_durations(changes)
    assert durations, "no fickle cycles observed"
    expected = n * r_b / (r_f + r_b)
    for duration in durations:
        assert duration == pytest.approx(expected, rel=1e-6)


def test_fickle_switches_satisfy_switching_predicate():
    r_f, r_b, n = 0.3, 0.2, 144
    k = 0.378
    agents = loyal_roster(r_f, r_b)
    world = ChainWorld(
        difficulty_a=avg_coin_a_difficulty(r_f, r_b, n), difficulty_b=r_b, k=k
    )
    events, changes = [], []
    run(world, agents, EpochFixed(10**9), EpochFixed(n), 4000.0, seed=5,
        **log_to(events), sinks=[changes.append])
    switches = [e for e in events if e[2] == "switch_fickle"]
    assert switches
    for (t, chain, _, d_a, d_b, rf_active, rb_active) in switches:
        k_t = k
        for at, value in _histories(changes).k_history:
            if at <= t:
                k_t = value
        to_b = d_b < min(rf_active + rb_active, k_t * d_a) or d_b <= rb_active
        assert (chain == "b") == to_b, (t, chain, d_a, d_b)


def test_a_fickle_switch_writes_one_event_line_for_its_whole_crew():
    # Two fickle agents switch together: one line of the event log.  Two
    # automatic agents switching together write one line each.
    world = ChainWorld(difficulty_a=0.76, difficulty_b=0.2, k=0.378)
    for policy, kind, lines in ((Strategy.FICKLE, "switch_fickle", 1),
                                (Strategy.AUTOMATIC, "switch_auto", 2)):
        agents = [MinerAgent("s1", 0.15, policy), MinerAgent("s2", 0.15, policy),
                  MinerAgent("b", 0.2, Strategy.B_ONLY), MinerAgent("a", 0.5, Strategy.A_ONLY)]
        events, changes = [], []
        run(world, agents, EpochFixed(10**9), EpochFixed(144), 2000.0, seed=77,
            **log_to(events), sinks=[changes.append])
        switches = [c for c in changes if c[2] == kind]
        assert len(switches) >= 2, kind
        assert len([e for e in events if e[2] == kind]) == lines * len(switches)


@pytest.mark.parametrize("mode", ["exponential", "deterministic"])
def test_epoch_with_an_eda_that_never_fires_is_the_plain_epoch(mode):
    # No six blocks ever take 10**9 P_ag, so only the epoch retargets.
    world = ChainWorld(difficulty_a=0.76, difficulty_b=0.2, k=0.378)
    agents = loyal_roster(0.3, 0.2)
    runs = []
    for regime in (EpochFixed(144), EpochWithEda(144, 6, 1e9, 0.8)):
        events, changes = [], []
        rep = run(world, agents, regime, regime, 3000.0, seed=21, mode=mode,
                  **log_to(events), sinks=[changes.append])
        runs.append((changes, events, rep.agent_rewards, rep.stats))
    assert runs[1] == runs[0]
    stats = runs[0][3]
    assert stats["retargets"]["a"] > 0 and stats["retargets"]["b"] > 0
    assert stats["eda_triggers"] == {"a": 0, "b": 0}


def test_event_log_deterministic_under_seed():
    agents = loyal_roster(0.3, 0.2)
    world = ChainWorld(difficulty_a=0.76, difficulty_b=0.2, k=0.378)
    events1, events2 = [], []
    rep1 = run(world, agents, EpochFixed(10**9), EpochFixed(144), 2000.0, seed=77,
               **log_to(events1))
    rep2 = run(world, agents, EpochFixed(10**9), EpochFixed(144), 2000.0, seed=77,
               **log_to(events2))
    assert events1 == events2
    assert rep1.agent_rewards == rep2.agent_rewards


def test_reward_conservation():
    agents = loyal_roster(0.3, 0.2)
    world = ChainWorld(
        difficulty_a=0.76, difficulty_b=0.2, k=0.378,
        k_schedule=Schedule.from_pairs([(900.0, 0.5)]),
    )
    events, changes = [], []
    rep = run(world, agents, EpochFixed(10**9), EpochFixed(144), 2000.0, seed=3,
              **log_to(events), sinks=[changes.append])
    expected = 0.0
    k_changes = _histories(changes).k_history
    for (t, chain, kind, *_rest) in events:
        if kind != "block":
            continue
        if chain == "a":
            expected += 1.0
        else:
            k_t = k_changes[0][1]
            for at, value in k_changes:
                if at <= t:
                    k_t = value
            expected += k_t
    assert math.fsum(rep.agent_rewards.values()) == pytest.approx(expected, rel=1e-9)


def test_lone_loyal_b_density_is_k_over_difficulty():
    agents = [MinerAgent("b", 1.0, Strategy.B_ONLY)]
    world = ChainWorld(difficulty_a=1.0, difficulty_b=0.5, k=0.4)
    rep = run(world, agents, EpochFixed(10**9), EpochFixed(10**9), 500.0, seed=2,
              mode="deterministic")
    dens = empirical_payoffs(rep)
    assert dens[Strategy.B_ONLY] == pytest.approx(0.4 / 0.5, rel=1e-3)


def test_all_a_roster_density_is_one():
    agents = [MinerAgent("a", 1.0, Strategy.A_ONLY)]
    world = ChainWorld(difficulty_a=1.0, difficulty_b=0.5, k=0.05)
    rep = run(world, agents, EpochFixed(2016), EpochFixed(2016), 2000.0, seed=4,
              mode="deterministic")
    dens = empirical_payoffs(rep)
    assert dens[Strategy.A_ONLY] == pytest.approx(1.0, rel=1e-3)


def test_insufficient_cycles_raises():
    agents = loyal_roster(0.3, 0.2)
    world = ChainWorld(difficulty_a=0.76, difficulty_b=0.2, k=0.378)
    rep = run(world, agents, EpochFixed(10**9), EpochFixed(144), 300.0, seed=1)
    with pytest.raises(InsufficientCycles):
        empirical_payoffs(rep)


def test_cycle_marks_at_one_instant_are_no_complete_cycle():
    # A run cannot make MIN_CYCLES cycles in no time; a hand-built report can.
    units = {Strategy.FICKLE: 2.0, Strategy.A_ONLY: 2.0}
    rep = SimReport(duration=10.0, mode="deterministic", seed=0,
                    agent_rewards={"f": 1.0, "a": 1.0}, policy_unit=units,
                    blocks={Coin.A: 0, Coin.B: 0},
                    mean_interval={Coin.A: None, Coin.B: None}, fickle_cycles=MIN_CYCLES,
                    final_difficulty={Coin.A: 1.0, Coin.B: 1.0}, stats={},
                    cycle_mark_first=(5.0, units), cycle_mark_last=(5.0, units))
    with pytest.raises(InsufficientCycles, match="no complete fickle cycle"):
        empirical_payoffs(rep)


def _per_agent_densities(agents, rep):
    # The per-agent formula: each policy's earnings, summed over its agents
    # with fsum, over the span and over its agents' total power.  Earnings
    # between the cycle marks are each agent's power times its policy's units.
    totals = {}
    for a in agents:
        totals[a.policy] = totals.get(a.policy, 0.0) + a.power
    if Strategy.FICKLE in totals:
        (t0, start), (t1, end) = rep.cycle_mark_first, rep.cycle_mark_last
        span = t1 - t0
        earned = {a.id: a.power * end[a.policy] - a.power * start[a.policy] for a in agents}
    else:
        span, earned = rep.duration, rep.agent_rewards
    return {policy: math.fsum(earned[a.id] for a in agents if a.policy is policy) / span / total
            for policy, total in totals.items()}


def _pieces(aid, power, policy, n):
    # n agents of `policy` whose powers sum to `power`, unequal so that a
    # per-agent sum rounds differently from the policy's unit.
    weights = [i + 1 for i in range(n)]
    return [MinerAgent(f"{aid}{i}", power * w / sum(weights), policy)
            for i, w in enumerate(weights)]


@pytest.mark.parametrize("mode", ["exponential", "deterministic"])
@pytest.mark.parametrize("fickle", [True, False])
def test_empirical_payoffs_equal_the_per_agent_formula(mode, fickle):
    r_f, r_b, k, n = 0.3, 0.2, 0.378, 144
    world = ChainWorld(difficulty_a=avg_coin_a_difficulty(r_f, r_b, n), difficulty_b=r_b, k=k)
    # Roster order differs from Strategy's, and the densities must follow it.
    agents = [*_pieces("a", 1.0 - r_b - (r_f if fickle else 0.0), Strategy.A_ONLY, 4),
              *_pieces("b", r_b, Strategy.B_ONLY, 3)]
    if fickle:
        agents[4:4] = _pieces("f", r_f, Strategy.FICKLE, 5)
        order = [Strategy.A_ONLY, Strategy.FICKLE, Strategy.B_ONLY]
    else:
        agents = agents[::-1]
        order = [Strategy.B_ONLY, Strategy.A_ONLY]
    cycle = n * r_b / (r_f + r_b) + n * (r_f + r_b) / r_b
    rep = run(world, agents, EpochFixed(10**9), EpochFixed(n), 60 * cycle, seed=11, mode=mode)
    assert (rep.fickle_cycles >= MIN_CYCLES) is fickle
    dens = empirical_payoffs(rep)
    want = _per_agent_densities(agents, rep)
    assert list(dens) == list(want) == order
    for policy, value in want.items():
        assert abs(dens[policy] - value) <= 1e-12 * abs(value), (policy, dens[policy], value)


def test_empirical_matches_analytic_at_stationary_state():
    r_f, r_b, k, n = 0.3, 0.2, 0.378, 144
    cfg = config(k, n, n)
    analytic = payoff_triple(MiningState(r_f, r_b), cfg)
    agents = loyal_roster(r_f, r_b)
    world = ChainWorld(
        difficulty_a=avg_coin_a_difficulty(r_f, r_b, n), difficulty_b=r_b, k=k
    )
    cycle = n * r_b / (r_f + r_b) + n * (r_f + r_b) / r_b
    rep = run(world, agents, EpochFixed(10**9), EpochFixed(n), 55 * cycle, seed=8,
              mode="deterministic")
    dens = empirical_payoffs(rep)
    assert dens[Strategy.FICKLE] == pytest.approx(analytic.u_f, rel=0.005)
    assert dens[Strategy.A_ONLY] == pytest.approx(analytic.u_a, rel=0.005)
    assert dens[Strategy.B_ONLY] == pytest.approx(analytic.u_b, rel=0.005)


def test_empirical_matches_analytic_for_random_states():
    # Ten seeded-random stationary tuples. States are drawn inside the
    # region where k * (average coin_A difficulty) sits well between r_b
    # and r_f + r_b, so the switching predicate is noise-robust and the
    # idealized-cycle comparison is well posed (outside it, arrival noise
    # legitimately stretches phases and the analytic cycle no longer
    # describes the run).
    import random as _random

    rng = _random.Random(1234)
    n = 144
    tuples = []
    while len(tuples) < 10:
        r_f = rng.uniform(0.2, 0.55)
        r_b = rng.uniform(0.08, min(0.3, r_f / 1.6))
        pbar = avg_coin_a_difficulty(r_f, r_b, n)
        lo = 1.45 * r_b / pbar
        hi = 0.55 * (r_f + r_b) / pbar
        if lo >= hi or hi <= 0 or lo >= 1.0:
            continue
        k = min(1.0, rng.uniform(lo, hi))
        tuples.append((r_f, r_b, k))

    by_policy = {
        Strategy.FICKLE: "u_f", Strategy.A_ONLY: "u_a", Strategy.B_ONLY: "u_b",
    }
    for idx, (r_f, r_b, k) in enumerate(tuples):
        cfg = config(k, n, n)
        analytic = payoff_triple(MiningState(r_f, r_b), cfg)
        world = ChainWorld(
            difficulty_a=avg_coin_a_difficulty(r_f, r_b, n), difficulty_b=r_b, k=k
        )
        cycle = n * r_b / (r_f + r_b) + n * (r_f + r_b) / r_b
        rep = run(world, loyal_roster(r_f, r_b), EpochFixed(10**9), EpochFixed(n),
                  55 * cycle, seed=idx, mode="deterministic")
        dens = empirical_payoffs(rep)
        for policy, attr in by_policy.items():
            expected = getattr(analytic, attr)
            assert abs(dens[policy] - expected) / expected <= 0.005, (r_f, r_b, k)
        if idx < 3:  # exponential spot checks; the full sweep lives in acceptance
            rep = run(world, loyal_roster(r_f, r_b), EpochFixed(10**9), EpochFixed(n),
                      206 * cycle, seed=100 + idx, mode="exponential")
            dens = empirical_payoffs(rep)
            for policy, attr in by_policy.items():
                expected = getattr(analytic, attr)
                assert abs(dens[policy] - expected) / expected <= 0.02, (r_f, r_b, k)


def test_eda_fires_on_slow_windows():
    # Heavy fickle power, tiny loyal share: after the post-fill increase the
    # emergency rule must bring the difficulty back down early.
    agents = loyal_roster(0.6, 0.05)
    world = ChainWorld(difficulty_a=0.9, difficulty_b=0.05, k=0.3)
    regime = EpochWithEda(n=500, eda_window=6, eda_threshold=12.0, eda_factor=0.8)
    events = []
    rep = run(world, agents, EpochFixed(10**9), regime, 4000.0, seed=6, **log_to(events))
    kinds = {e[2] for e in events}
    assert "eda" in kinds
    assert rep.fickle_cycles > 0


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_eda_regime_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="eda_threshold"):
        EpochWithEda(144, 6, threshold, 0.8)


@pytest.mark.parametrize("regime,fields", [
    (EpochFixed, {"n": math.nan}),
    (EpochFixed, {"n": 2.5}),
    (EpochFixed, {"n": 144.0}),
    (EpochFixed, {"n": 0}),
    (EpochFixed, {"n": True}),
    (EpochWithEda, {"n": math.nan}),
    (EpochWithEda, {"n": math.inf}),
    (EpochWithEda, {"eda_window": 2.5}),
    (EpochWithEda, {"eda_window": -1}),
    (PerBlockWindow, {"window": 2.5}),
    (PerBlockWindow, {"window": math.nan}),
    (PerBlockWindow, {"window": 0}),
])
def test_regimes_reject_lengths_that_are_not_whole_block_counts(regime, fields):
    # NaN retargeted every block or never, 2.5 rounded up, and fractional
    # windows failed later inside run with a TypeError.
    with pytest.raises(ValueError, match=r"must be an int in \[1, inf\]"):
        regime(**fields)


def test_windows_longer_than_a_deque_holds_never_fill():
    # A window of 2**64 blocks overflowed deque(maxlen=...) and exited 1;
    # like any window longer than the run, it must simply never fill.
    world = ChainWorld(difficulty_a=0.7, difficulty_b=0.2, k=0.3)
    for long, huge in ((PerBlockWindow(10**6), PerBlockWindow(2**64)),
                       (EpochWithEda(144, 10**6, 1.0, 0.8), EpochWithEda(144, 2**64, 1.0, 0.8))):
        runs = []
        for regime in (long, huge):
            changes = []
            rep = run(world, _split_roster(1), EpochFixed(144), regime, 500.0, seed=3,
                      sinks=[changes.append])
            runs.append((changes, rep.agent_rewards))
        assert runs[1] == runs[0]


def test_eda_expected_nde_endpoints_and_interior():
    regime = EpochWithEda()
    assert eda_expected_nde(MiningState(0.0, 0.3), regime, seed=1, trials=50) == 2016.0
    near_axis = eda_expected_nde(MiningState(0.5, 1e-6), regime, seed=2, trials=2000)
    assert abs(near_axis - 6.0) <= 1.0
    mid = eda_expected_nde(MiningState(0.2, 0.2), regime, seed=3, trials=2000)
    assert 6.0 <= mid <= 2016.0
    with pytest.raises(ValueError):
        eda_expected_nde(MiningState(0.2, 0.0), regime, seed=4)


def test_per_block_window_tracks_power_and_keeps_zone_ordering():
    k = 0.3
    cfg = config(k, 144, 144)
    # Stationary loyal split: difficulty follows the allocation.
    r_b = k / (1 + k)
    agents = [
        MinerAgent("a", 1 - r_b, Strategy.A_ONLY),
        MinerAgent("b", r_b, Strategy.B_ONLY),
    ]
    world = ChainWorld(difficulty_a=1 - r_b, difficulty_b=r_b, k=k)
    rep = run(world, agents, PerBlockWindow(144), PerBlockWindow(144), 2000.0, seed=3)
    dens = empirical_payoffs(rep)
    assert dens[Strategy.A_ONLY] == pytest.approx(1 + k, rel=0.03)
    assert dens[Strategy.B_ONLY] == pytest.approx(1 + k, rel=0.03)

    # Per-block difficulty adjustment keeps the zone ordering: the policy
    # that the zone map calls best earns the highest empirical density.
    for state, roster_zone_seed in [
        (MiningState(0.05, 0.1), 5),
        (MiningState(0.45, 0.05), 7),
    ]:
        zone = zone_of(state, cfg)
        best_policy = {
            "1": Strategy.A_ONLY, "2": Strategy.B_ONLY, "3": Strategy.FICKLE,
        }[zone.value]
        agents = loyal_roster(state.r_f, state.r_b)
        world = ChainWorld(difficulty_a=state.r_a, difficulty_b=state.r_b, k=k)
        rep = run(world, agents, PerBlockWindow(16), PerBlockWindow(16), 4000.0,
                  seed=roster_zone_seed)
        dens = empirical_payoffs(rep)
        assert max(dens, key=dens.get) is best_policy, (state, dens)


def test_automatic_agents_respect_price_threshold():
    # k = 0.05: five percent of automatic power drains the loyal side, two
    # percent settles on coin_B instead.
    k, c_stick = 0.05, 0.02

    def occupancy(auto_power, seed):
        loyal_a = 1 - c_stick - auto_power
        agents = [
            MinerAgent("auto", auto_power, Strategy.AUTOMATIC),
            MinerAgent("faction", c_stick, Strategy.B_ONLY),
            MinerAgent("la", loyal_a, Strategy.A_ONLY),
        ]
        world = ChainWorld(difficulty_a=loyal_a, difficulty_b=c_stick + auto_power, k=k)
        changes = []
        run(world, agents, EpochFixed(2016), EpochFixed(72), 4000.0, seed=seed,
            sinks=[changes.append])
        return avg_b_occupancy(changes, 2000.0, 4000.0)

    drained = occupancy(0.05, seed=0)
    settled = occupancy(0.02, seed=100)
    assert abs(drained - c_stick) < abs(drained - (c_stick + 0.05))
    assert abs(settled - (c_stick + 0.02)) < abs(settled - c_stick)


def test_zero_power_chain_guard():
    # Loyal-only rosters may leave a chain unmined.
    run(ChainWorld(1.0, 0.5, 0.05), [MinerAgent("a", 1.0, Strategy.A_ONLY)],
        EpochFixed(100), EpochFixed(100), 50.0, seed=1)
    # Switchable power stuck off a dead coin_B is a misconfiguration.
    with pytest.raises(ZeroPowerChain):
        run(ChainWorld(1.0, 0.9, 0.05),
            [MinerAgent("f", 0.5, Strategy.FICKLE), MinerAgent("a", 0.5, Strategy.A_ONLY)],
            EpochFixed(100), EpochFixed(100), 50.0, seed=1)


@pytest.mark.parametrize("d_a,d_b", [
    (math.nan, 0.4), (0.4, math.nan), (math.inf, 0.4), (0.4, math.inf), (1.0, -math.inf),
    (0.0, 0.4),
])
def test_chain_world_rejects_non_finite_difficulties(d_a, d_b):
    with pytest.raises(ValueError):
        ChainWorld(d_a, d_b, 0.4)


@pytest.mark.parametrize("k", [2.0, 0.0, -0.3])
def test_chain_world_rejects_scheduled_k_out_of_range(k):
    with pytest.raises(ValueError, match="k schedule value"):
        ChainWorld(1.0, 0.4, 0.4, k_schedule=Schedule.from_pairs([(0.0, 0.4), (5.0, k)]))


def test_roster_validation():
    world = ChainWorld(1.0, 0.5, 0.3)
    with pytest.raises(PowerSumMismatch):
        run(world, [MinerAgent("a", 0.7, Strategy.A_ONLY)],
            EpochFixed(10), EpochFixed(10), 10.0, seed=1)
    with pytest.raises(ValueError):
        run(world, [MinerAgent("a", 0.5, Strategy.A_ONLY),
                    MinerAgent("a", 0.5, Strategy.B_ONLY)],
            EpochFixed(10), EpochFixed(10), 10.0, seed=1)


@pytest.mark.parametrize("agents,mode,field,message", [
    ([MinerAgent("a", 0.5, Strategy.A_ONLY), MinerAgent("a", 0.5, Strategy.B_ONLY)],
     "exponential", "id", "duplicate agent id 'a'"),
    ([MinerAgent("a", 0.5, Strategy.A_ONLY), MinerAgent("x", 0.5, None)],
     "exponential", "agents", "agent 'x' has no policy"),
    ([MinerAgent("a", 1.0, Strategy.A_ONLY)], "fixed", "mode", "unknown mode 'fixed'"),
])
def test_run_refusals_name_their_field(agents, mode, field, message):
    with pytest.raises(InvalidValue) as err:
        run(ChainWorld(1.0, 0.5, 0.3), agents, EpochFixed(10), EpochFixed(10), 10.0, seed=1,
            mode=mode)
    assert (err.value.field, str(err.value)) == (field, message)


def test_sample_series_schema_and_monotone_timestamps():
    agents = loyal_roster(0.3, 0.1)
    world = ChainWorld(difficulty_a=0.88, difficulty_b=0.1, k=0.3)
    rows = []
    run(world, agents, EpochFixed(10**9), EpochFixed(504), 3000.0, seed=2,
        sinks=[sample_series(rows_to(rows), step=1.0)])
    assert len(rows) == 3000
    assert SERIES_FIELDS == ("timestamp", "hashrate_a", "hashrate_b",
                             "difficulty_a", "difficulty_b", "price_ratio_k")
    assert all(len(r) == len(SERIES_FIELDS) for r in rows)
    ts = [r[0] for r in rows]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert all(0.0 < r[5] <= 1.0 for r in rows)


@settings(max_examples=200, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=12),
    difficulties=st.lists(
        st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    ),
)
def test_per_block_window_sum_is_bit_identical_to_fsum(window, difficulties):
    # Drive the per-block hook with arbitrary difficulties and check each
    # retarget against the fsum of the window it replaced.
    ch = _Chain(Coin.B, difficulties[0])
    on_block = PerBlockWindow(window)._hook(ch)
    seen = []
    for height, d in enumerate(difficulties, start=1):
        now = float(height)
        ch.difficulty = d
        ch.height = height
        seen.append(d)
        kind = on_block(now)
        if len(seen) < 2:
            assert kind is None
            continue
        last = seen[-(window + 1):]
        span = now - (height - len(last) + 1)
        inferred = math.fsum(last[1:]) / span
        assert kind == "difficulty"
        assert ch.difficulty == min(max(inferred, 0.5 * d), 2.0 * d)


def test_epoch_hook_is_due_every_n_th_block_and_eda_every_block():
    ch = _Chain(Coin.A, 0.5)
    on_block = EpochFixed(4)._hook(ch)
    assert ch.due == 4
    assert on_block(2.0) == "difficulty" and ch.difficulty == 4 * 0.5 / 2.0
    assert ch.due == 8
    assert on_block(3.0) == "difficulty" and ch.difficulty == 4 * 1.0 / 1.0
    assert ch.due == 12
    eda = _Chain(Coin.B, 0.5)
    EpochWithEda(4)._hook(eda)
    assert eda.due == 0


def test_per_block_window_keeps_difficulty_for_blocks_at_one_instant():
    # A window that spans no time infers no power.  In a run this takes an
    # Exp(1) work threshold too small to move the clock.
    ch = _Chain(Coin.B, 0.4)
    on_block = PerBlockWindow(3)._hook(ch)
    assert on_block(5.0) is None
    assert on_block(5.0) is None
    assert ch.difficulty == 0.4
    assert on_block(6.0) == "difficulty"


def _old_events_csv(events, fh):
    """The event log as csv.writer writes its EVENT_FIELDS-ordered tuples:
    the reference for write_events_csv."""
    writer = csv.writer(fh)
    writer.writerow(EVENT_FIELDS)
    writer.writerows(events)


def _old_series_csv(rows, fh):
    writer = csv.DictWriter(fh, fieldnames=SERIES_FIELDS)
    writer.writeheader()
    writer.writerows(rows)


def _histories(changes):
    """The four per-quantity histories a report used to keep, rebuilt from a
    change stream: (time, value...) at the start and after each change of
    that quantity."""
    def history(kinds, *columns, chain=None):
        return [(c[0], *(c[i] for i in columns)) for c in changes
                if c[2] == "start" or (c[2] in kinds and chain in (None, c[1]))]

    return SimpleNamespace(
        duration=changes[-1][0],
        occupancy=history(("switch_fickle", "switch_auto"), 6, 7),
        k_history=history(("price",), 5),
        difficulty_history={Coin.A: history(("difficulty", "eda"), 3, chain="a"),
                            Coin.B: history(("difficulty", "eda"), 4, chain="b")},
    )


def _change_stream(report):
    """The four histories of `report` as one change stream: "start" from
    their first entries, a change per later entry up to the horizon in time
    order, each carrying the state then in effect, and "end"."""
    state = {"occupancy": report.occupancy[0][1:], "a": report.difficulty_history[Coin.A][0][1],
             "b": report.difficulty_history[Coin.B][0][1], "k": report.k_history[0][1]}
    entries = [(e[0], "occupancy", e[1:]) for e in report.occupancy[1:]]
    entries += [(e[0], "k", e[1]) for e in report.k_history[1:]]
    for coin in (Coin.A, Coin.B):
        entries += [(e[0], coin.value, e[1]) for e in report.difficulty_history[coin][1:]]

    def change(t, kind):
        return (t, "-", kind, state["a"], state["b"], state["k"], *state["occupancy"])

    stream = [change(0.0, "start")]
    # A stable sort keeps the order of one history's entries at one time.
    for t, name, value in sorted(entries, key=lambda e: e[0]):
        if t <= report.duration:
            state[name] = value
            stream.append(change(t, name))
    stream.append(change(report.duration, "end"))
    return stream


def _old_sample_series(report, step=1.0, pag_seconds=600, t0_epoch=0):
    """The per-row sampler over the four histories, kept as the reference
    for sample_series."""
    if step <= 0.0 or step * pag_seconds < 1.0:
        raise ValueError("sampling step must map to at least one second")
    rows = []
    occ = report.occupancy
    da = report.difficulty_history[Coin.A]
    db = report.difficulty_history[Coin.B]
    ks = report.k_history
    i_occ = i_da = i_db = i_k = 0
    t = 0.0
    while t < report.duration:
        while i_occ + 1 < len(occ) and occ[i_occ + 1][0] <= t:
            i_occ += 1
        while i_da + 1 < len(da) and da[i_da + 1][0] <= t:
            i_da += 1
        while i_db + 1 < len(db) and db[i_db + 1][0] <= t:
            i_db += 1
        while i_k + 1 < len(ks) and ks[i_k + 1][0] <= t:
            i_k += 1
        rows.append({
            "timestamp": t0_epoch + round(t * pag_seconds),
            "hashrate_a": occ[i_occ][1],
            "hashrate_b": occ[i_occ][2],
            "difficulty_a": da[i_da][1],
            "difficulty_b": db[i_db][1],
            "price_ratio_k": ks[i_k][1],
        })
        t += step
    return rows


_REGIMES = st.one_of(
    st.builds(EpochFixed, st.integers(1, 40)),
    st.builds(EpochWithEda, st.integers(1, 40), st.integers(1, 6),
              st.sampled_from([1.5, 4.0, 12.0]), st.sampled_from([0.5, 0.8])),
    st.builds(PerBlockWindow, st.integers(1, 20)),
)


def _written_and_reference(world, agents, regime_a, regime_b, duration, seed, mode, step):
    """One run streaming its event log and series through write_events_csv
    and write_series_csv, and the same two files from csv.writer, fed with
    the run's blocks and state changes as EVENT_FIELDS tuples and with the
    per-row reference sampler: (written, reference, event tuples), the
    files as (events, series) text."""
    written = io.StringIO(newline=""), io.StringIO(newline="")
    reference = io.StringIO(newline=""), io.StringIO(newline="")
    events, changes = [], []
    to_file = write_events_csv(written[0])
    kept = log_to(events)

    def on_block(t, chain):
        to_file[0](t, chain)
        kept["on_block"](t, chain)

    def on_event(*change):
        to_file[1](*change)
        kept["on_event"](*change)

    run(world, agents, regime_a, regime_b, duration, seed=seed, mode=mode, on_block=on_block,
        on_event=on_event,
        sinks=[changes.append, sample_series(write_series_csv(written[1]), step=step)])
    _old_events_csv(events, reference[0])
    _old_series_csv(_old_sample_series(_histories(changes), step=step), reference[1])
    return tuple(f.getvalue() for f in written), tuple(f.getvalue() for f in reference), events


@pytest.mark.parametrize("mode", ["exponential", "deterministic"])
def test_csv_writers_match_plain_csv_output(mode):
    agents = loyal_roster(0.3, 0.2)
    world = ChainWorld(difficulty_a=0.76, difficulty_b=0.2, k=0.378,
                       k_schedule=Schedule.from_pairs([(0.0, 0.378), (400.0, 0.5)]))
    for regime_b in (EpochFixed(144), EpochWithEda(144, 6, 12.0, 0.8), PerBlockWindow(144)):
        written, reference, events = _written_and_reference(
            world, agents, EpochFixed(10**9), regime_b, 800.0, 11, mode, 0.5)
        assert {e[2] for e in events} >= {"block", "switch_fickle", "price"}
        assert written == reference, regime_b


@st.composite
def _log_rosters(draw):
    """Loyalists only, fickle agents or three or more automatic ones, each
    beside coin_A and coin_B loyalists, with powers summing to 1."""
    kind = draw(st.sampled_from(["loyalists", "fickle", "automatic"]))
    counts = {Strategy.A_ONLY: draw(st.integers(1, 3)), Strategy.B_ONLY: draw(st.integers(1, 3))}
    if kind == "fickle":
        counts[Strategy.FICKLE] = draw(st.integers(1, 3))
    elif kind == "automatic":
        counts[Strategy.AUTOMATIC] = draw(st.integers(3, 6))
        counts[Strategy.FICKLE] = draw(st.integers(0, 2))
    policies = [p for p, n in counts.items() for _ in range(n)]
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(policies),
                            max_size=len(policies)))
    total = math.fsum(weights)
    return [MinerAgent(f"m{i}", w / total, p) for i, (w, p) in enumerate(zip(weights, policies))]


@settings(max_examples=120, deadline=None)
@given(agents=_log_rosters(), d_a=st.floats(0.3, 1.2), d_b=st.floats(0.05, 0.8),
       k=st.floats(0.1, 1.0),
       prices=st.none() | st.lists(st.tuples(st.floats(1.0, 100.0), st.floats(0.05, 1.0)),
                                   min_size=1, max_size=3),
       regime_a=_REGIMES, regime_b=_REGIMES, mode=st.sampled_from(["exponential", "deterministic"]),
       duration=st.floats(5.0, 120.0), step=st.sampled_from([0.25, 0.5, 1.0, 2.5]),
       seed=st.integers(0, 2**16))
def test_csv_writers_match_csv_writer_reference(agents, d_a, d_b, k, prices, regime_a, regime_b,
                                                mode, duration, step, seed):
    schedule = None if prices is None else Schedule.from_pairs([(0.0, k)] + sorted(prices))
    world = ChainWorld(difficulty_a=d_a, difficulty_b=d_b, k=k, k_schedule=schedule)
    written, reference, events = _written_and_reference(
        world, agents, regime_a, regime_b, duration, seed, mode, step)
    assert written == reference
    if all(a.policy in (Strategy.A_ONLY, Strategy.B_ONLY) for a in agents):
        assert not any(e[2].startswith("switch") for e in events)


def test_series_writer_formats_signed_zero_and_non_floats(tmp_path):
    rows = [
        (0, 0.0, -0.0, 0.25, float("nan"), 1),
        (600, -0.0, 0.0, 0.25, 1e-320, "0.5"),
    ]
    # Many distinct floats, each seen twice.
    values = [i / 7.0 for i in range(1, 6000)]
    rows += [(1200 + i, x, x, x / 3.0, -x, 0.5) for i, x in enumerate(values + values)]
    with open(tmp_path / "new.csv", "w", newline="") as fh:
        write = write_series_csv(fh)
        for row in rows:
            write(row[1:], iter(row[:1]))
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        _old_series_csv([dict(zip(SERIES_FIELDS, r)) for r in rows], fh)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_sample_series_checks_step_when_called():
    for step in (0.0, -1.0, 1e-4, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sampling step"):
            sample_series([].append, step=step)


def _history(draw, grid, duration):
    """Sorted change times in [0, duration]: grid points, their neighbours
    and free draws."""
    times = draw(st.lists(st.one_of(
        st.sampled_from(grid),
        st.sampled_from(grid).map(lambda g: math.nextafter(g, math.inf)),
        st.sampled_from(grid).map(lambda g: math.nextafter(g, -math.inf)),
        st.floats(min_value=0.0, max_value=duration, allow_nan=False),
    ), max_size=12))
    return sorted(max(t, 0.0) for t in times)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), step=st.sampled_from([0.1, 0.7, 1.0, 0.25, 1 / 600, 2.5, 0.3]),
       duration=st.floats(min_value=0.01, max_value=40.0))
def test_sample_series_matches_per_row_reference(data, step, duration):
    grid = [0.0]
    while grid[-1] < duration:
        grid.append(grid[-1] + step)
    draw = data.draw
    value = st.floats(min_value=1e-6, max_value=2.0)

    def history(width):
        rows = [(0.0, *(draw(value) for _ in range(width)))]
        for t in _history(draw, grid, duration):
            # Times may repeat, as when a switch follows a retarget at once.
            rows.append((t, *(draw(value) for _ in range(width))))
        return rows

    report = SimpleNamespace(
        duration=duration, occupancy=history(2), k_history=history(1),
        difficulty_history={Coin.A: history(1), Coin.B: history(1)},
    )
    got = []
    sink = sample_series(rows_to(got), step=step)
    for change in _change_stream(report):
        sink(change)
    want = [tuple(r[f] for f in SERIES_FIELDS)
            for r in _old_sample_series(report, step=step)]
    assert got == want
    # The same value objects, so the writer formats the same bytes.
    assert all(a is b for g, w in zip(got, want) for a, b in zip(g[1:], w[1:]))


def _split_roster(n):
    # Pieces on a 2**-40 grid times n - 1 are exact, and so is the remainder,
    # so the pieces sum to the unsplit power exactly: the chains see the same
    # allocation with one agent or n.
    agents = []
    for aid, power, policy in (("f", 0.3, Strategy.FICKLE), ("b", 0.2, Strategy.B_ONLY),
                               ("a", 0.45, Strategy.A_ONLY), ("u", 0.05, Strategy.AUTOMATIC)):
        piece = math.ldexp(round(math.ldexp(power / n, 40)), -40)
        parts = [piece] * (n - 1) + [power - piece * (n - 1)]
        agents += [MinerAgent(f"{aid}{i}", p, policy) for i, p in enumerate(parts)]
    return agents


@pytest.mark.parametrize("regime_b", [EpochWithEda(144, 6, 12.0, 0.8), PerBlockWindow(36)])
@pytest.mark.parametrize("mode", ["exponential", "deterministic"])
def test_splitting_agents_keeps_policy_rewards(regime_b, mode):
    world = ChainWorld(difficulty_a=0.7, difficulty_b=0.2, k=0.3)
    streams = [[] for _ in range(3)]
    rosters = [_split_roster(n) for n in (1, 7, 40)]
    reports = [run(world, agents, EpochFixed(144), regime_b, 1500.0, seed=4,
                   mode=mode, sinks=[changes.append]) for agents, changes in zip(rosters, streams)]

    def policy_reward(agents, rep, policy):
        return math.fsum(rep.agent_rewards[a.id] for a in agents if a.policy is policy)

    base = reports[0]
    for agents, rep, changes in zip(rosters[1:], reports[1:], streams[1:]):
        assert rep.blocks == base.blocks
        assert changes == streams[0]
        for policy in Strategy:
            want = policy_reward(rosters[0], base, policy)
            got = policy_reward(agents, rep, policy)
            assert abs(got - want) <= 1e-12 * abs(want), policy


@pytest.mark.parametrize("regime_b", [EpochFixed(144), EpochWithEda(144, 6, 12.0, 0.8),
                                      PerBlockWindow(144)])
def test_rewards_sum_to_coins_minted(regime_b):
    world = ChainWorld(difficulty_a=0.7, difficulty_b=0.2, k=0.3,
                       k_schedule=Schedule.from_pairs([(700.0, 0.45), (1400.0, 0.3)]))
    events, changes = [], []
    agents = _split_roster(9)
    rep = run(world, agents, EpochFixed(144), regime_b, 2500.0, seed=8,
              **log_to(events), sinks=[changes.append])
    k_history = _histories(changes).k_history
    minted = 0.0
    for (t, chain, kind, *_rest) in events:
        if kind == "block":
            minted += 1.0 if chain == "a" else [k for at, k in k_history if at <= t][-1]
    assert rep.blocks[Coin.A] + rep.blocks[Coin.B] > 1000
    assert math.fsum(rep.agent_rewards.values()) == pytest.approx(minted, rel=1e-9)
    # Power-proportional crediting: one reward rate per policy.
    for policy in Strategy:
        rates = [rep.agent_rewards[a.id] / a.power for a in agents if a.policy is policy]
        assert max(rates) - min(rates) <= 1e-12 * max(rates), policy


def _per_block_rewards(agents, events, changes):
    # Rebuild each agent's reward from the event log, block by block: the
    # share of a block is power * (unit / chain allocation), summed exactly.
    # Agents start where run places them, b_only agents on b and all others
    # on a; a switch event moves every agent of its policy to its chain.
    # Also returns the rewards at the first and last fickle switches to b,
    # the cycle marks, as (time, rewards) or None.
    power = {a.id: a.power for a in agents}
    policy = {a.id: a.policy for a in agents}
    where = {aid: "b" if policy[aid] is Strategy.B_ONLY else "a" for aid in power}
    mover = {"switch_fickle": Strategy.FICKLE, "switch_auto": Strategy.AUTOMATIC}
    ks = iter(_histories(changes).k_history)
    k = next(ks)[1]
    terms = {aid: [] for aid in power}
    marks = []
    for t, chain, kind, *_rest in events:
        if kind == "price":
            k = next(ks)[1]
        elif kind in mover:
            for aid in where:
                if policy[aid] is mover[kind]:
                    where[aid] = chain
            if kind == "switch_fickle" and chain == "b":
                marks.append((t, {aid: len(v) for aid, v in terms.items()}))
        elif kind == "block":
            mining = [aid for aid in where if where[aid] == chain]
            alloc = math.fsum(power[aid] for aid in mining)
            unit = 1.0 if chain == "a" else k
            for aid in mining:
                terms[aid].append(power[aid] * (unit / alloc))

    def upto(mark):
        t, lengths = mark
        return t, {aid: math.fsum(v[:lengths[aid]]) for aid, v in terms.items()}

    rewards = {aid: math.fsum(v) for aid, v in terms.items()}
    if not marks:
        return rewards, None, None
    return rewards, upto(marks[0]), upto(marks[-1])


def _assert_rewards_match(agents, rep, events, changes):
    # Every agent's reward and its share of both cycle marks (its power times
    # its policy's unit there), against the per-block sums.
    want, first, last = _per_block_rewards(agents, events, changes)

    def close(got, expected):
        for aid, value in expected.items():
            assert abs(got[aid] - value) <= 1e-12 * value, (aid, got[aid], value)

    close(rep.agent_rewards, want)
    for mark, expected in ((rep.cycle_mark_first, first), (rep.cycle_mark_last, last)):
        if expected is None:
            assert mark is None
            continue
        assert mark[0] == expected[0]
        close({a.id: a.power * mark[1][a.policy] for a in agents}, expected[1])


def test_long_run_rewards_match_per_block_sum():
    # ~190k blocks and ~800 fickle cycles: the reward accumulators restart at
    # every settlement, so their rounding error does not grow with the run.
    world = ChainWorld(difficulty_a=0.7, difficulty_b=0.2, k=0.3)
    events, changes = [], []
    agents = _split_roster(1)
    rep = run(world, agents, EpochFixed(144), EpochWithEda(144, 6, 12.0, 0.8),
              60000.0, seed=5, **log_to(events), sinks=[changes.append])
    assert rep.blocks[Coin.A] + rep.blocks[Coin.B] > 150_000
    assert rep.fickle_cycles > 500
    _assert_rewards_match(agents, rep, events, changes)


def test_automatic_crew_keeps_coin_a_through_a_tie():
    # 1/d_a == k/d_b, so the automatic agents stay on A, where they start,
    # until a retarget breaks the tie; then both move at once.
    k = 0.4
    agents = [
        MinerAgent("a", 0.4, Strategy.A_ONLY),
        MinerAgent("b", 0.2, Strategy.B_ONLY),
        MinerAgent("f", 0.2, Strategy.FICKLE),
        MinerAgent("u1", 0.1, Strategy.AUTOMATIC),
        MinerAgent("u2", 0.1, Strategy.AUTOMATIC),
    ]
    world = ChainWorld(difficulty_a=1.0, difficulty_b=k, k=k)
    events, changes = [], []
    rep = run(world, agents, EpochFixed(20), EpochFixed(20), 400.0, seed=1,
              mode="deterministic", **log_to(events), sinks=[changes.append])
    assert _histories(changes).occupancy[0] == pytest.approx((0.0, 0.8, 0.2))
    first_retarget = next(e[0] for e in events if e[2] == "difficulty")
    moves = [e[:2] for e in events if e[2] == "switch_auto"]
    assert moves[0][0] >= first_retarget > 0.0 and moves[1] == moves[0]
    assert rep.fickle_cycles >= 2
    _assert_rewards_match(agents, rep, events, changes)


_POLICIES = [Strategy.FICKLE, Strategy.AUTOMATIC, Strategy.A_ONLY, Strategy.B_ONLY]


@st.composite
def _switching_rosters(draw):
    n = draw(st.integers(1, 12))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    agents = []
    for i, w in enumerate(weights):
        agents.append(MinerAgent(f"m{i}", w / total, draw(st.sampled_from(_POLICIES))))
    # At least one agent that switches.
    if not any(a.policy in (Strategy.FICKLE, Strategy.AUTOMATIC) for a in agents):
        agents[0].policy = draw(st.sampled_from([Strategy.FICKLE, Strategy.AUTOMATIC]))
    return agents


_switching_runs = given(
    agents=_switching_rosters(),
    d_a=st.floats(0.2, 1.5),
    d_b=st.floats(0.05, 1.0),
    k=st.floats(0.05, 1.0),
    prices=st.one_of(st.none(), st.lists(
        st.tuples(st.floats(1.0, 150.0), st.floats(0.05, 1.0)), min_size=1, max_size=4)),
    regime_a=_REGIMES,
    regime_b=_REGIMES,
    mode=st.sampled_from(["exponential", "deterministic"]),
    seed=st.integers(0, 2**16),
)


def _switching_run(agents, d_a, d_b, k, prices, regime_a, regime_b, mode, seed):
    # A 150 P_ag run with its event log and change stream, or None where coin_B
    # can never be mined.
    schedule = None
    if prices is not None:
        schedule = Schedule.from_pairs([(0.0, k)] + sorted(prices))
    world = ChainWorld(difficulty_a=d_a, difficulty_b=d_b, k=k, k_schedule=schedule)
    events, changes = [], []
    try:
        rep = run(world, agents, regime_a, regime_b, 150.0, seed=seed, mode=mode,
                  **log_to(events), sinks=[changes.append])
    except ZeroPowerChain:
        return None
    return rep, events, changes


@settings(max_examples=150, deadline=None)
@_switching_runs
def test_switches_happen_only_at_start_retarget_or_price(agents, **world):
    # Both policies read only d_a, d_b and k, so an agent can move only at
    # t = 0 or right after the difficulty, eda or price event that changed
    # one of them; the loop re-evaluates at exactly those events.
    result = _switching_run(agents, **world)
    if result is None:
        return
    prev = None
    for t, _chain, kind, *_rest in result[1]:
        if kind in ("switch_auto", "switch_fickle"):
            if prev is None:
                assert t == 0.0
            else:
                assert prev[1] in ("difficulty", "eda", "price") and prev[0] == t, (prev, t)
        else:
            prev = (t, kind)


@settings(max_examples=150, deadline=None)
@_switching_runs
def test_crew_rewards_match_per_block_sums(agents, **world):
    # Rewards are credited per crew, not per agent; each agent's reward and
    # both cycle marks must still be the exact per-block sums.
    result = _switching_run(agents, **world)
    if result is not None:
        _assert_rewards_match(agents, *result)


@pytest.mark.parametrize("regime", [EpochFixed(36), EpochWithEda(36, 6, 4.0, 0.8),
                                    PerBlockWindow(36)])
def test_run_leaves_no_reference_cycles(regime):
    # A cycle through a chain would keep each finished run alive until the
    # cyclic collector runs, and peak memory would grow with it.
    agents = [
        MinerAgent("f", 0.3, Strategy.FICKLE),
        MinerAgent("u", 0.1, Strategy.AUTOMATIC),
        MinerAgent("b", 0.2, Strategy.B_ONLY),
        MinerAgent("a", 0.4, Strategy.A_ONLY),
    ]
    world = ChainWorld(difficulty_a=0.7, difficulty_b=0.3, k=0.4,
                       k_schedule=Schedule.from_pairs([(0.0, 0.4), (200.0, 0.6)]))
    events = []
    gc.collect()
    gc.disable()
    try:
        rep = run(world, agents, EpochFixed(36), regime, 500.0, seed=2, **log_to(events))
        assert rep.blocks[Coin.B] > 0 and rep.fickle_cycles > 0
        del rep
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("regime_b", [EpochFixed(144), EpochWithEda(144, 6, 12.0, 0.8),
                                      PerBlockWindow(36)])
def test_stats_count_the_event_log_and_repeat(tmp_path, regime_b):
    world = ChainWorld(difficulty_a=0.7, difficulty_b=0.2, k=0.3,
                       k_schedule=Schedule.from_pairs([(700.0, 0.45), (1400.0, 0.3)]))
    stats = []
    for _ in range(2):
        with open(tmp_path / "events.csv", "w", newline="") as fh:
            on_block, on_event = write_events_csv(fh)
            rep = run(world, _split_roster(3), EpochWithEda(144, 6, 12.0, 0.8), regime_b,
                      2500.0, seed=8, on_block=on_block, on_event=on_event)
        stats.append(rep.stats)
    assert stats[0] == stats[1]
    with open(tmp_path / "events.csv", newline="") as fh:
        lines = [(row["chain"], row["event_type"]) for row in csv.DictReader(fh)]

    def per_chain(kind):
        return {chain: lines.count((chain, kind)) for chain in ("a", "b")}

    switches = {kind: sum(per_chain(kind).values()) for kind in ("switch_fickle", "switch_auto")}
    assert rep.stats == {
        "blocks": per_chain("block"),
        "retargets": per_chain("difficulty"),
        "eda_triggers": per_chain("eda"),
        "fickle_switches": switches["switch_fickle"],
        "auto_switches": switches["switch_auto"],
        # At the start, after each difficulty change and after each price tick.
        "reevaluations": 1 + sum(1 for _, kind in lines if kind in ("difficulty", "eda", "price")),
    }
    assert rep.stats["blocks"] == {coin.value: n for coin, n in rep.blocks.items()}
    assert min(rep.stats["retargets"]["b"], rep.stats["fickle_switches"],
               rep.stats["auto_switches"]) > 0


def _peak_bytes(tmp_path, duration):
    """tracemalloc's peak over one run that streams its event log and series
    to files: 3 agents, perblock:144, deterministic."""
    world = ChainWorld(difficulty_a=0.76, difficulty_b=0.2, k=0.378)
    with open(tmp_path / "events.csv", "w", newline="") as events, \
            open(tmp_path / "series.csv", "w", newline="") as series:
        on_block, on_event = write_events_csv(events)
        sinks = [sample_series(write_series_csv(series))]
        tracemalloc.start()
        try:
            rep = run(world, loyal_roster(0.3, 0.2), EpochFixed(10**9), PerBlockWindow(144),
                      duration, seed=1, mode="deterministic", on_block=on_block,
                      on_event=on_event, sinks=sinks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak, rep


def test_run_memory_is_flat_in_the_horizon(tmp_path):
    # Nothing a run keeps grows with the horizon: every change goes out to
    # the sinks as it happens, even when difficulty moves every block.
    short, _ = _peak_bytes(tmp_path, 500.0)
    long, rep = _peak_bytes(tmp_path, 8000.0)
    assert rep.stats["retargets"]["b"] > 5000 and rep.fickle_cycles > 1000
    assert (tmp_path / "series.csv").read_text().count("\n") == 8001
    assert long <= 1.25 * short, (short, long)
