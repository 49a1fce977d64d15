"""Cross-module runs reproducing the qualitative era-level behavior."""

import statistics

from dualchain.core import MiningState, Strategy, coexist_rb, validate_config
from dualchain.chainsim import (
    ChainWorld,
    EpochFixed,
    EpochWithEda,
    MinerAgent,
    PerBlockWindow,
    b_phase_durations,
    run,
)
from dualchain.dynamics import FlowConfig, Outcome, Schedule, simulate_flow


def roster(r_f, r_b):
    return [
        MinerAgent("f", r_f, Strategy.FICKLE),
        MinerAgent("b", r_b, Strategy.B_ONLY),
        MinerAgent("a", 1 - r_f - r_b, Strategy.A_ONLY),
    ]


def test_emergency_decrease_accelerates_fickle_cycling():
    # Same roster and horizon; the emergency rule cuts the slow phase
    # short, so the coin_B chain churns through far more fill cycles and
    # far more blocks than the plain epoch regime.
    r_f, r_b, k = 0.4, 0.1, 0.2
    world = ChainWorld(difficulty_a=0.9, difficulty_b=r_b, k=k)
    horizon = 8000.0
    plain = run(world, roster(r_f, r_b), EpochFixed(10**9), EpochFixed(504),
                horizon, seed=1)
    changes = []
    eda = run(world, roster(r_f, r_b), EpochFixed(10**9),
              EpochWithEda(n=504, eda_window=6, eda_threshold=12.0, eda_factor=0.8),
              horizon, seed=1, sinks=[changes.append])
    assert eda.fickle_cycles > 2 * max(plain.fickle_cycles, 1)
    assert eda.blocks["b"] > 2 * plain.blocks["b"]
    # The emergency decreases show up between the regular epoch updates.
    assert any(c[2] == "eda" for c in changes)


def test_per_block_adjustment_shortens_fickle_phases():
    # The fast-retarget era: switching still happens, but each visit to
    # coin_B is much shorter than under a 504-block epoch.
    r_f, r_b, k = 0.3, 0.15, 0.35
    world = ChainWorld(difficulty_a=0.8, difficulty_b=r_b, k=k)
    slow_changes, fast_changes = [], []
    slow = run(world, roster(r_f, r_b), EpochFixed(10**9), EpochFixed(504),
               12000.0, seed=2, sinks=[slow_changes.append])
    fast = run(world, roster(r_f, r_b), EpochFixed(10**9), PerBlockWindow(16),
               4000.0, seed=2, sinks=[fast_changes.append])
    slow_phases = b_phase_durations(slow_changes)
    fast_phases = b_phase_durations(fast_changes)
    assert slow_phases and fast_phases
    assert statistics.median(fast_phases) < 0.25 * statistics.median(slow_phases)
    assert fast.fickle_cycles > slow.fickle_cycles


def test_faction_surge_and_withdrawal_arc():
    # A faction power surge lifts the state above k/(1+k) (no coexistence
    # equilibrium exists while it lasts); everyone else drains to coin_A.
    # Once the surge ends, the state walks back down to coexistence.
    k = 0.5
    cfg = validate_config({
        "k": k, "n_in": 2016, "n_de": 2016, "c_stick": 0.05, "powers": [0.95],
    })
    flow = FlowConfig(
        migration_rate=0.002,
        max_steps=200_000,
        convergence_eps=0.004,
        c_stick_schedule=Schedule.from_pairs([(0, 0.05), (200, 0.6), (550, 0.05)]),
    )
    traj = simulate_flow(MiningState(0.2, 0.3), flow, cfg)
    during = [(r_f, r_b) for r_f, r_b, c in zip(traj.r_f, traj.r_b, traj.c_sticks) if c == 0.6]
    assert during and all(r_b >= 0.6 for _, r_b in during)
    # While the surge lasts the non-faction power leaves coin_B's side.
    assert during[-1][0] <= during[0][0] - 0.25
    assert traj.outcome is Outcome.COEXISTENCE
    assert abs(traj.r_b[-1] - coexist_rb(k)) <= 2 * flow.convergence_eps
    assert traj.r_f[-1] <= 2 * flow.convergence_eps
