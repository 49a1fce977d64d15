import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dataclasses import replace

from dualchain.core import MiningState, Strategy, Zone, coexist_rb, validate_config
from dualchain import dynamics
from dualchain.dynamics import (
    FlowConfig,
    Outcome,
    Schedule,
    assignment_state,
    automatic_threshold,
    simulate_flow,
    step_best_response,
)
from dualchain.equilibrium import (
    DivergentState, Segment, equilibria, finite_deviation, solve_alpha, solve_beta, zone_at,
    zone_of,
)


def config(k, n_in=2016, n_de=2016, c_stick=0.0, powers=None):
    return validate_config({
        "k": k, "n_in": n_in, "n_de": n_de, "c_stick": c_stick,
        "powers": powers if powers is not None else [1.0 - c_stick],
    })


def one_step(state, cfg, rate=0.01, eps=1e-9):
    """The flow's first step from `state`: its zone and the state it reaches."""
    traj = simulate_flow(state, FlowConfig(migration_rate=rate, max_steps=1,
                                           convergence_eps=eps), cfg)
    assert traj.outcome is Outcome.UNDECIDED
    return traj.zones[0], MiningState(traj.r_f[-1], traj.r_b[-1])


def test_direction_by_zone():
    cfg = config(0.3)

    def sign(x):
        return (x > 0) - (x < 0)

    for state, zone, move in [
        (MiningState(0.1, 0.5), Zone.ZONE1, (-1, -1)),
        (MiningState(0.1, 0.1), Zone.ZONE2, (-1, 1)),
        (MiningState(0.5, 0.15), Zone.ZONE3, (1, -1)),
    ]:
        got_zone, nxt = one_step(state, cfg)
        assert got_zone is zone
        assert (sign(nxt.r_f - state.r_f), sign(nxt.r_b - state.r_b)) == move


def test_step_flow_pins_r_b_on_faction_floor():
    cfg = config(0.3, c_stick=0.15, powers=[0.85])
    state = MiningState(0.4, 0.15)
    zone, nxt = one_step(state, cfg)
    assert zone is Zone.ZONE3
    assert nxt.r_b == 0.15
    assert nxt.r_f > state.r_f


def test_step_flow_fixed_at_coexistence():
    # A three-way tie just off the coexistence point, outside eps of it.
    cfg = config(0.3)
    state = MiningState(0.0, coexist_rb(0.3) + 1e-13)
    traj = simulate_flow(state, FlowConfig(max_steps=5, convergence_eps=1e-300), cfg)
    assert traj.zones[0] is Zone.COEXIST
    assert (traj.r_f, traj.r_b) == ([state.r_f], [state.r_b])
    assert (traj.outcome, traj.steps_used) == (Outcome.UNDECIDED, 0)


def test_step_flow_moves_both_axes_in_zone2():
    cfg = config(0.3)
    state = MiningState(0.1, 0.02)
    zone, nxt = one_step(state, cfg)
    assert zone is Zone.ZONE2
    assert nxt.r_f == pytest.approx(state.r_f - 0.005)
    assert nxt.r_b == pytest.approx(state.r_b + 0.005)


def test_boundary23_step_past_the_outer_edge_trims_only_r_b():
    # A boundary-2/3 step moves only r_b, outward here, so r_b is the axis
    # trimmed back to r_f + r_b = 1 and r_f stays where it was.
    assert dynamics._step(0.5, 0.4995, Zone.BOUNDARY23, 0.001, 0.0) == (0.5, 0.5)
    assert dynamics._step(0.25, 0.75, Zone.BOUNDARY23, 0.01, 0.2) == (0.25, 0.75)


def test_trajectory_l1_step_bound_and_simplex():
    cfg = config(0.3, c_stick=0.05, powers=[0.95])
    flow = FlowConfig(migration_rate=0.002, max_steps=20000)
    traj = simulate_flow(MiningState(0.5, 0.3), flow, cfg)
    for a_f, a_b, b_f, b_b in zip(traj.r_f, traj.r_b, traj.r_f[1:], traj.r_b[1:]):
        assert abs(a_f - b_f) + abs(a_b - b_b) <= flow.migration_rate + 1e-15
    for r_f, r_b in zip(traj.r_f, traj.r_b):
        assert r_f >= 0.0
        assert r_b >= cfg.c_stick - 1e-15
        assert r_f + r_b <= 1.0 + 1e-12


def test_flow_deep_zone2_reaches_coexistence():
    cfg = config(0.05)
    traj = simulate_flow(MiningState(0.01, 0.01), FlowConfig(), cfg)
    assert traj.outcome is Outcome.COEXISTENCE


def test_flow_zone3_case2_reaches_corner_equilibrium():
    c = 0.1
    cfg = config(0.3, c_stick=c, powers=[0.9])
    # c_stick below alpha (case 2): the lack point is (1 - c_stick, c_stick).
    traj = simulate_flow(MiningState(0.5, c), FlowConfig(), cfg)
    assert traj.outcome is Outcome.LOYAL_LACK
    assert traj.r_f[-1] == pytest.approx(1.0 - c, abs=2 * FlowConfig().convergence_eps)
    assert traj.r_b[-1] == pytest.approx(c, abs=1e-12)


def test_flow_from_equilibria_stays_put():
    for k, c_stick in [(0.05, 0.0), (0.3, 0.1), (0.3, 0.226), (0.4, 0.5)]:
        cfg = config(k, c_stick=c_stick, powers=[1.0 - c_stick])
        eq = equilibria(cfg)
        flow = FlowConfig(max_steps=10)
        points = []
        if eq.coexist_point is not None:
            points.append(eq.coexist_point)
        if isinstance(eq.lack_points, Segment):
            points.extend([MiningState(eq.lack_points.start, 0.0), MiningState(0.7, 0.0)])
        else:
            points.append(eq.lack_points)
        for p in points:
            traj = simulate_flow(p, flow, cfg)
            assert traj.outcome is not Outcome.UNDECIDED
            assert traj.steps_used == 0
            assert abs(traj.r_f[-1] - p.r_f) <= flow.convergence_eps
            assert abs(traj.r_b[-1] - p.r_b) <= flow.convergence_eps


def test_flow_determinism():
    cfg = config(0.2)
    flow = FlowConfig(migration_rate=0.003)
    a = simulate_flow(MiningState(0.4, 0.3), flow, cfg)
    b = simulate_flow(MiningState(0.4, 0.3), flow, cfg)
    assert (a.r_f, a.r_b) == (b.r_f, b.r_b)
    assert a.zones == b.zones
    assert a.outcome == b.outcome


def test_k_schedule_changes_zone_without_state_change():
    cfg = config(0.1)
    # Price pump after 50 steps widens zone 2.
    flow = FlowConfig(
        migration_rate=0.001,
        max_steps=200,
        convergence_eps=1e-4,
        k_schedule=Schedule.from_pairs([(50, 0.9)]),
    )
    traj = simulate_flow(MiningState(0.3, 0.08), flow, cfg)
    assert Zone.ZONE3 in traj.zones[:50]
    assert Zone.ZONE2 in traj.zones[50:]
    assert traj.ks[0] == 0.1 and traj.ks[-1] == 0.9


def test_c_stick_schedule_lifts_floor():
    cfg = config(0.3, c_stick=0.05, powers=[0.95])
    flow = FlowConfig(
        max_steps=100,
        c_stick_schedule=Schedule.from_pairs([(10, 0.5)]),
    )
    traj = simulate_flow(MiningState(0.2, 0.06), flow, cfg)
    after = [r_b for r_b, c in zip(traj.r_b, traj.c_sticks) if c == 0.5]
    assert after and all(r_b >= 0.5 - 1e-12 for r_b in after)


def test_schedule_value_lookup():
    sched = Schedule.from_pairs([(10, 0.2), (100, 0.7)])
    assert sched.value_at(0, 0.05) == 0.05
    assert sched.value_at(10, 0.05) == 0.2
    assert sched.value_at(99, 0.05) == 0.2
    assert sched.value_at(500, 0.05) == 0.7


def test_best_response_switches_everyone_toward_coin_b_at_origin():
    cfg = config(0.3, powers=[0.05, 0.05, 0.9])
    assignment = [Strategy.A_ONLY] * 3
    # Player indices 0/1 hold 0.05 < k; whichever is drawn must defect to B.
    rng = random.Random(4)
    updated = step_best_response(assignment, cfg, rng)
    changed = [i for i, (a, b) in enumerate(zip(assignment, updated)) if a is not b]
    if changed:
        assert all(updated[i] is Strategy.B_ONLY for i in changed)


def test_best_response_fixed_at_equilibrium():
    cfg = config(0.3, c_stick=0.94, powers=[0.02, 0.02, 0.02])
    assignment = [Strategy.A_ONLY] * 3
    for seed in range(20):
        assert step_best_response(assignment, cfg, seed) == assignment


def enumerate_nash(cfg):
    """Oracle: exhaustive strategy-profile search for pure equilibria."""
    n = len(cfg.powers)
    nash = []
    options = (Strategy.FICKLE, Strategy.A_ONLY, Strategy.B_ONLY)
    for profile in itertools.product(options, repeat=n):
        state = assignment_state(profile, cfg)
        stable = True
        for i, current in enumerate(profile):
            report = finite_deviation(state, cfg.powers[i], current, cfg)
            if report.payoff_gain > 1e-12:
                stable = False
                break
        if stable:
            nash.append(profile)
    return nash


def test_best_response_converges_to_enumerated_equilibrium():
    # Small faction-dominated game: three players below the small-power
    # regime, c_stick above k/(1+k).
    cfg = config(0.3, c_stick=0.94, powers=[0.02, 0.02, 0.02])
    nash = set(enumerate_nash(cfg))
    assert nash, "oracle found no pure equilibrium"
    options = (Strategy.FICKLE, Strategy.A_ONLY, Strategy.B_ONLY)
    rng = random.Random(11)
    for start in itertools.product(options, repeat=3):
        assignment = list(start)
        for _ in range(400):
            assignment = step_best_response(assignment, cfg, rng)
        profile = tuple(assignment)
        assert profile in nash, f"did not converge from {start}: {profile}"
        state = assignment_state(profile, cfg)
        assert state.r_b == pytest.approx(cfg.c_stick, abs=1e-12)
        for i, current in enumerate(profile):
            gain = finite_deviation(state, cfg.powers[i], current, cfg).payoff_gain
            assert gain <= 1e-12


@pytest.mark.parametrize("k,c_stick", [
    (0.3, 0.10),     # case 2: corner equilibrium
    (0.3, 0.2225),   # case 3 just above alpha, where the curve dip matters
    (0.3, 0.228),    # case 3 mid-band
    (0.3, 0.40),     # case 4: faction alone
    (0.6, 0.30),     # case 3 for a larger k
])
def test_flow_settles_on_predicted_lack_equilibrium(k, c_stick):
    # Approach the r_b = c_stick line from both sides and along it; the
    # terminal state must match the case prediction.
    cfg = config(k, c_stick=c_stick, powers=[1.0 - c_stick])
    eq = equilibria(cfg)
    assert not isinstance(eq.lack_points, Segment)
    target = eq.lack_points
    flow = FlowConfig(migration_rate=0.002, max_steps=400_000, convergence_eps=0.004)
    starts = [
        MiningState(0.6, c_stick),                    # on the line, right side
        MiningState(min(0.9, 1.0 - c_stick), c_stick),
        MiningState(0.55, min(0.95 - 0.55, c_stick + 0.2)),  # above the line
    ]
    if eq.case_tag == 3:
        starts.append(MiningState(max(0.0, eq.beta - 0.05), c_stick))
    for start in starts:
        traj = simulate_flow(start, flow, cfg)
        final = MiningState(traj.r_f[-1], traj.r_b[-1])
        if traj.outcome is Outcome.COEXISTENCE:
            continue  # a basin boundary sent it to the coexistence point
        assert traj.outcome is Outcome.LOYAL_LACK, (start, traj.outcome)
        assert abs(final.r_f - target.r_f) <= 3 * flow.convergence_eps, (start, final)
        assert abs(final.r_b - target.r_b) <= 3 * flow.convergence_eps, (start, final)


def test_oscillating_price_schedule_keeps_state_undecided():
    # A price that flips every 40 steps swings the zone map under the
    # state; running out of steps is an outcome, not an error.
    cfg = config(0.1)
    pairs = [(i * 40, 0.9 if (i % 2) else 0.1) for i in range(50)]
    flow = FlowConfig(
        migration_rate=0.001,
        max_steps=1500,
        convergence_eps=1e-6,
        k_schedule=Schedule.from_pairs(pairs),
    )
    traj = simulate_flow(MiningState(0.3, 0.2), flow, cfg)
    assert traj.outcome is Outcome.UNDECIDED
    assert len(set(zip(traj.r_f, traj.r_b))) > 100
    assert len(traj.r_f) == len(traj.r_b) == len(traj.zones) == len(traj.ks)


def test_automatic_threshold_is_price_ratio():
    assert automatic_threshold(config(0.05)) == 0.05
    assert automatic_threshold(config(1.0)) == 1.0
    assert automatic_threshold(config(0.3)) == 0.3


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_flow_config_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="convergence_eps"):
        FlowConfig(convergence_eps=eps)


def test_trailing_zone_keeps_last_zone_only_for_divergent_state(monkeypatch):
    cfg = config(0.3)
    calls = []

    def failing_second_call(error):
        def fake(r_f, r_b, k, n_in, n_de, tol=1e-10):
            calls.append((r_f, r_b))
            if len(calls) == 2:
                raise error
            return zone_at(r_f, r_b, k, n_in, n_de, tol)
        return fake

    monkeypatch.setattr(dynamics, "zone_at", failing_second_call(DivergentState("corner")))
    traj = simulate_flow(MiningState(0.01, 0.01), FlowConfig(max_steps=1), cfg)
    assert len(calls) == 2 and len(traj.r_f) == len(traj.r_b) == 2
    assert traj.zones == [traj.zones[0]] * 2

    calls.clear()
    monkeypatch.setattr(dynamics, "zone_at", failing_second_call(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        simulate_flow(MiningState(0.01, 0.01), FlowConfig(max_steps=1), cfg)


@pytest.mark.parametrize("max_steps", [1, 2, 5])
def test_flow_that_reaches_the_all_coin_a_corner_stays_there_in_zone_1(max_steps):
    # A zone-1 step lands exactly on (0, 0), where the payoffs diverge; this
    # used to refuse with DivergentState.
    cfg = config(0.015625, n_in=6, n_de=6)
    initial = MiningState(0.015625, 0.015625)
    flow = FlowConfig(migration_rate=0.03125, max_steps=max_steps)
    with pytest.raises(DivergentState):
        zone_at(0.0, 0.0, cfg.k, cfg.n_in, cfg.n_de)
    traj = simulate_flow(initial, flow, cfg)
    assert (traj.r_f, traj.r_b) == ([0.015625, 0.0], [0.015625, 0.0])
    assert traj.zones == [Zone.ZONE1] * 2
    assert traj.outcome is Outcome.UNDECIDED and traj.steps_used == min(max_steps - 1, 1)
    assert traj == reference_simulate_flow(initial, flow, cfg)


def test_trailing_row_is_classified_at_the_k_it_reports():
    # Runs out of steps under a k schedule; the base k (0.05) would read zone 1.
    cfg = config(0.05)
    flow = FlowConfig(max_steps=5, k_schedule=Schedule.from_pairs([(0, 0.6)]))
    traj = simulate_flow(MiningState(0.3, 0.2), flow, cfg)
    assert traj.outcome is Outcome.UNDECIDED and len(traj.zones) == 6
    assert traj.ks[-1] == 0.6
    assert traj.zones[-1] is zone_at(traj.r_f[-1], traj.r_b[-1], 0.6, 2016, 2016) is Zone.ZONE3
    assert zone_at(traj.r_f[-1], traj.r_b[-1], 0.05, 2016, 2016) is Zone.ZONE1


def test_schedule_lives_in_core():
    from dualchain import chainsim, core
    assert dynamics.Schedule is core.Schedule is chainsim.Schedule


@pytest.mark.parametrize("kwargs", [
    {"k_schedule": Schedule.from_pairs([(0, 2.0)])},
    {"k_schedule": Schedule.from_pairs([(0, 0.3), (5, 0.0)])},
    {"k_schedule": Schedule.from_pairs([(0, -0.1)])},
    {"c_stick_schedule": Schedule.from_pairs([(0, 1.0)])},
    {"c_stick_schedule": Schedule.from_pairs([(3, -0.01)])},
])
def test_flow_config_rejects_scheduled_values_out_of_range(kwargs):
    with pytest.raises(ValueError, match="schedule value"):
        FlowConfig(**kwargs)


def test_flow_config_accepts_scheduled_values_at_closed_ends():
    FlowConfig(k_schedule=Schedule.from_pairs([(0, 1.0)]),
               c_stick_schedule=Schedule.from_pairs([(0, 0.0)]))


# ---------------------------------------------------------------------------
# simulate_flow against the MiningState / dataclasses.replace version it
# replaced, kept here as the reference.


def _reference_step(state, zone, rate, c_stick):
    dx, dy = dynamics._DIRECTIONS[zone]
    active = abs(dx) + abs(dy)
    if active == 0:
        return state
    h = rate / active
    r_f = state.r_f + dx * h
    r_b = state.r_b + dy * h
    r_f = max(r_f, 0.0)
    r_b = max(r_b, c_stick)
    if r_f + r_b > 1.0:
        if dx > 0:
            r_f = max(0.0, 1.0 - r_b)
        else:
            r_b = max(c_stick, 1.0 - r_f)
            r_f = min(r_f, 1.0 - r_b)
    return MiningState(r_f, r_b)


def _reference_lack_target(config, cache):
    key = (config.k, config.n_in, config.n_de, config.c_stick)
    if key not in cache:
        c = config.c_stick
        if c == 0.0:
            cache[key] = ("segment", config.k)
        else:
            alpha = solve_alpha(config)
            top = coexist_rb(config.k)
            if c <= alpha:
                cache[key] = ("point", MiningState(1.0 - c, c))
            elif c <= top:
                cache[key] = ("point", MiningState(solve_beta(config), c))
            else:
                cache[key] = ("point", MiningState(0.0, c))
    return cache[key]


def _reference_zone(state, cfg):
    # Everyone on coin_A: the payoffs diverge, and the flow reads zone 1.
    if state.r_f == 0.0 and state.r_b == 0.0:
        return Zone.ZONE1
    return zone_of(state, cfg)


def reference_simulate_flow(initial, flow, config):
    states = [initial]
    zones, ks, c_sticks = [], [], []
    lack_cache = {}
    state = initial
    eps = flow.convergence_eps
    outcome = Outcome.UNDECIDED
    steps = 0
    for t in range(flow.max_steps):
        k_t = flow.k_schedule.value_at(t, config.k) if flow.k_schedule else config.k
        c_t = (flow.c_stick_schedule.value_at(t, config.c_stick)
               if flow.c_stick_schedule else config.c_stick)
        cfg = (config if (k_t == config.k and c_t == config.c_stick)
               else replace(config, k=k_t, c_stick=c_t))
        if state.r_b < c_t:
            r_b = min(c_t, 1.0)
            state = MiningState(min(state.r_f, 1.0 - r_b), r_b)
            states[-1] = state
        zone = _reference_zone(state, cfg)
        zones.append(zone)
        ks.append(k_t)
        c_sticks.append(c_t)
        steps = t
        if cfg.c_stick <= coexist_rb(k_t):
            top = coexist_rb(k_t)
            if state.r_f <= eps and abs(state.r_b - top) <= eps:
                outcome = Outcome.COEXISTENCE
                break
        kind, target = _reference_lack_target(cfg, lack_cache)
        if kind == "segment":
            if state.r_b <= eps and state.r_f >= target - eps:
                outcome = Outcome.LOYAL_LACK
                break
        elif abs(state.r_f - target.r_f) <= eps and abs(state.r_b - target.r_b) <= eps:
            outcome = Outcome.LOYAL_LACK
            break
        nxt = _reference_step(state, zone, flow.migration_rate, c_t)
        if nxt == state:
            break
        if (flow.k_schedule is None and flow.c_stick_schedule is None
                and len(states) >= 2 and nxt == states[-2]):
            break
        state = nxt
        states.append(state)
    if len(states) > len(zones):
        # The trailing row is classified at the k it reports.
        try:
            zones.append(_reference_zone(states[-1], replace(config, k=ks[-1])))
        except DivergentState:
            zones.append(zones[-1])
        ks.append(ks[-1])
        c_sticks.append(c_sticks[-1])
    return dynamics.Trajectory([s.r_f for s in states], [s.r_b for s in states], zones, ks,
                               c_sticks, outcome, steps)


def flow_outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def schedule_of(values):
    return st.none() | st.lists(
        st.tuples(st.integers(0, 120), values), min_size=1, max_size=4,
    ).map(Schedule.from_pairs)


@settings(max_examples=250, deadline=None)
@given(
    k=st.floats(0.02, 1.0),
    c_stick=st.sampled_from([0.0, 0.05, 0.2, 0.2225, 0.228, 0.4]) | st.floats(0.0, 0.7),
    r_f=st.floats(0.0, 1.0),
    frac=st.floats(0.0, 1.0),
    rate=st.sampled_from([0.001, 0.01, 0.05, 0.1]),
    eps=st.sampled_from([1e-4, 0.005, 0.05]),
    k_schedule=schedule_of(st.floats(0.02, 1.0)),
    c_schedule=schedule_of(st.floats(0.0, 0.7)),
)
def test_simulate_flow_matches_reference(k, c_stick, r_f, frac, rate, eps,
                                         k_schedule, c_schedule):
    cfg = config(k, c_stick=c_stick, powers=[1.0 - c_stick])
    initial = MiningState(r_f, frac * (1.0 - r_f))
    flow = FlowConfig(migration_rate=rate, max_steps=150, convergence_eps=eps,
                      k_schedule=k_schedule, c_stick_schedule=c_schedule)
    assert (flow_outcome(simulate_flow, initial, flow, cfg)
            == flow_outcome(reference_simulate_flow, initial, flow, cfg))


@pytest.mark.parametrize("k,c_stick,start,schedules,eps,max_steps", [
    (0.3, 0.0, (0.05, 0.4), {}, 0.004, 20_000),        # deep zone 2 to coexistence
    (0.1, 0.0, (0.3, 0.08), {}, 0.004, 20_000),        # zone 3 down to the axis segment
    (0.3, 0.10, (0.6, 0.1), {}, 0.004, 20_000),        # case 2 corner
    (0.3, 0.2225, (0.6, 0.2225), {}, 0.004, 20_000),   # case 3 near alpha
    (0.3, 0.40, (0.55, 0.4), {}, 0.004, 20_000),       # case 4
    (0.3, 0.0, (0.05, 0.4), {}, 1e-9, 20_000),         # period-2 stop at coexistence
    (0.3, 0.2225, (0.6, 0.2225), {}, 1e-9, 20_000),    # stops short of the case-3 point
    (0.1, 0.0, (0.3, 0.2), {"k": [(i * 40, 0.9 if i % 2 else 0.1) for i in range(50)]},
     1e-6, 1500),                                      # runs out: trailing zone
    (0.3, 0.05, (0.2, 0.06), {"c": [(10, 0.5), (400, 0.1)]}, 0.004, 20_000),
    (0.2, 0.0, (0.4, 0.3), {"k": [(0, 0.2), (300, 0.8)], "c": [(200, 0.15)]}, 0.004, 20_000),
])
def test_simulate_flow_matches_reference_on_long_runs(k, c_stick, start, schedules, eps,
                                                      max_steps):
    cfg = config(k, c_stick=c_stick, powers=[1.0 - c_stick])
    flow = FlowConfig(
        migration_rate=0.001, max_steps=max_steps, convergence_eps=eps,
        k_schedule=Schedule.from_pairs(schedules["k"]) if "k" in schedules else None,
        c_stick_schedule=Schedule.from_pairs(schedules["c"]) if "c" in schedules else None,
    )
    initial = MiningState(*start)
    traj = simulate_flow(initial, flow, cfg)
    assert traj == reference_simulate_flow(initial, flow, cfg)
    assert len(traj.r_f) > 100
