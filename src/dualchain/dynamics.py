"""State-flow simulation in the (r_f, r_b) simplex.

The flow discretizes the qualitative zone dynamics: zone 1 moves (-,-),
zone 2 moves (-,+), zone 3 moves (+,-).  On a boundary the tied
strategies exchange no power and the strictly-worst group drives the
remaining axis, so boundary_13 moves (0,-) and boundary_23 moves (0,+).
Steps are L1-normalized (a diagonal move splits the migration rate
across both axes) so consecutive states never differ by more than the
rate, and are clamped to {r_f >= 0, r_b >= c_stick, r_f + r_b <= 1};
movement continues on unclamped axes.

Piecewise-constant step-indexed schedules override k and c_stick to
model price pumps and hash-war faction surges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import (GameConfig, InvalidValue, MiningState, Schedule, Strategy, Zone,
                   check_count, check_k_schedule, check_range)
from .equilibrium import DivergentState, Segment, equilibria, finite_deviation, zone_at


@dataclass(frozen=True)
class FlowConfig:
    """Knobs of the discretized flow.

    The migration rate is the total power fraction moved per step; the
    zone dynamics fix directions only, not speeds, so the rate is a free
    sensitivity knob.
    """

    migration_rate: float = 0.001
    max_steps: int = 1_000_000
    convergence_eps: float = 0.005
    k_schedule: Schedule | None = None
    c_stick_schedule: Schedule | None = None

    def __post_init__(self):
        check_range(self.migration_rate, "migration_rate", 0.0, 0.1, lo_open=True)
        check_range(self.convergence_eps, "convergence_eps", 0.0, lo_open=True, hi_open=True)
        check_count(self.max_steps, "max_steps")
        check_k_schedule(self.k_schedule)
        if self.c_stick_schedule is not None:
            self.c_stick_schedule.check_values("c_stick", 0.0, 1.0, hi_open=True)


class Outcome(Enum):
    COEXISTENCE = "coexistence"
    LOYAL_LACK = "loyal_lack"
    UNDECIDED = "undecided"


@dataclass
class Trajectory:
    """Recorded flow run as columns: one r_f/r_b/zone/k/c_stick row per step."""

    r_f: list[float]
    r_b: list[float]
    zones: list[Zone]
    ks: list[float]
    c_sticks: list[float]
    outcome: Outcome
    steps_used: int


_DIRECTIONS = {
    Zone.ZONE1: (-1, -1),
    Zone.ZONE2: (-1, 1),
    Zone.ZONE3: (1, -1),
    Zone.BOUNDARY13: (0, -1),
    Zone.BOUNDARY23: (0, 1),
    Zone.COEXIST: (0, 0),
}


# Each zone's move with its count of active axes, for _step.
_MOVES = {zone: (dx, dy, abs(dx) + abs(dy)) for zone, (dx, dy) in _DIRECTIONS.items()}


def _step(r_f: float, r_b: float, zone: Zone, rate: float,
          c_stick: float) -> tuple[float, float]:
    dx, dy, active = _MOVES[zone]
    if active == 0:
        return r_f, r_b
    h = rate / active
    r_f = r_f + dx * h
    r_b = r_b + dy * h
    if r_f < 0.0:
        r_f = 0.0
    if r_b < c_stick:
        r_b = c_stick
    # Cap the sum by trimming whichever axis moved outward.
    if r_f + r_b > 1.0:
        if dx > 0:
            r_f = max(0.0, 1.0 - r_b)
        else:
            r_b = max(c_stick, 1.0 - r_f)
            r_f = min(r_f, 1.0 - r_b)
    return r_f, r_b


def simulate_flow(initial: MiningState, flow: FlowConfig, config: GameConfig) -> Trajectory:
    """Iterate the flow until it settles at an equilibrium or gives up.

    Outcomes: COEXISTENCE within convergence_eps (max-norm) of
    (0, k/(1+k)); LOYAL_LACK within eps of the r_b = c_stick equilibrium
    (point, or the axis segment for c_stick = 0); UNDECIDED at
    max_steps.  Schedules may keep a state moving forever, so running
    out of steps is an outcome, not an error.  The all-coin_A corner (0, 0)
    is zone 1, though its payoffs diverge, so a flow stops there.
    """
    r_fs, r_bs = [initial.r_f], [initial.r_b]
    zones: list[Zone] = []
    ks: list[float] = []
    c_sticks: list[float] = []
    add_rf, add_rb, add_zone, add_k, add_c = (r_fs.append, r_bs.append, zones.append,
                                              ks.append, c_sticks.append)
    # (k, c_stick) -> (coexistence point or None, lack-of-loyal-miners set)
    targets: dict[tuple[float, float], tuple] = {}
    k_sched, c_sched = flow.k_schedule, flow.c_stick_schedule
    scheduled = k_sched is not None or c_sched is not None
    n_in, n_de = config.n_in, config.n_de
    rate, eps = flow.migration_rate, flow.convergence_eps
    r_f, r_b = initial.r_f, initial.r_b
    p_f = p_b = None  # the state before (r_f, r_b), for the period-2 stop
    key_k = key_c = None  # the (k, c_stick) whose targets coexist and lack hold
    outcome = Outcome.UNDECIDED
    steps = 0

    for t in range(flow.max_steps):
        k_t = k_sched.value_at(t, config.k) if k_sched else config.k
        c_t = c_sched.value_at(t, config.c_stick) if c_sched else config.c_stick

        # A c_stick surge lifts the floor under the current state.
        if r_b < c_t:
            r_b = min(c_t, 1.0)
            r_f = min(r_f, 1.0 - r_b)
            r_fs[-1], r_bs[-1] = r_f, r_b

        zone = zone_at(r_f, r_b, k_t, n_in, n_de) if r_f or r_b else Zone.ZONE1
        add_zone(zone)
        add_k(k_t)
        add_c(c_t)
        steps = t

        if k_t != key_k or c_t != key_c:
            key_k, key_c = k_t, c_t
            target = targets.get((k_t, c_t))
            if target is None:
                cfg = (config if (k_t == config.k and c_t == config.c_stick)
                       else GameConfig(k_t, n_in, n_de, c_t, config.powers))
                eq = equilibria(cfg)
                target = targets[k_t, c_t] = (eq.coexist_point, eq.lack_points)
            coexist, lack = target
            on_segment = isinstance(lack, Segment)
        if coexist is not None and r_f <= eps and abs(r_b - coexist.r_b) <= eps:
            outcome = Outcome.COEXISTENCE
            break
        if on_segment:
            if r_b <= eps and r_f >= lack.start - eps:
                outcome = Outcome.LOYAL_LACK
                break
        elif abs(r_f - lack.r_f) <= eps and abs(r_b - lack.r_b) <= eps:
            outcome = Outcome.LOYAL_LACK
            break

        n_f, n_b = _step(r_f, r_b, zone, rate, c_t)
        if n_f == r_f and n_b == r_b:
            # Pinned with nowhere to go and not near a target: give up early.
            break
        if not scheduled and n_f == p_f and n_b == p_b:
            # Exact period-2 oscillation across a boundary; with constant
            # parameters it would repeat until max_steps, so stop now.
            break
        p_f, p_b = r_f, r_b
        r_f, r_b = n_f, n_b
        add_rf(r_f)
        add_rb(r_b)

    if len(r_fs) > len(zones):
        # Ran out of steps with one trailing state: classify it at its row's k.
        try:
            zones.append(zone_at(r_f, r_b, ks[-1], n_in, n_de) if r_f or r_b else Zone.ZONE1)
        except DivergentState:
            zones.append(zones[-1])
        ks.append(ks[-1])
        c_sticks.append(c_sticks[-1])

    return Trajectory(r_fs, r_bs, zones, ks, c_sticks, outcome, steps)


def automatic_threshold(config: GameConfig) -> float:
    """Automatic-mining power fraction beyond which the loyal miners drain.

    A state with r_f >= k cannot sit in zone 2, so once a k-fraction of
    the total power switches coins automatically the state moves toward
    r_b = c_stick.
    """
    return config.k


def assignment_state(assignment: Sequence[Strategy], config: GameConfig) -> MiningState:
    """(r_f, r_b) implied by a per-player strategy assignment.

    The faction's c_stick always counts toward r_b; `assignment` aligns
    with config.powers and may not contain AUTOMATIC.
    """
    if len(assignment) != len(config.powers):
        raise InvalidValue(f"assignment length {len(assignment)} != player count "
                           f"{len(config.powers)}", field="assignment")
    r_f = 0.0
    r_b = config.c_stick
    for strategy, c_i in zip(assignment, config.powers):
        if strategy is Strategy.FICKLE:
            r_f += c_i
        elif strategy is Strategy.B_ONLY:
            r_b += c_i
        elif strategy is not Strategy.A_ONLY:
            raise InvalidValue("assignments use FICKLE / A_ONLY / B_ONLY only", field="assignment")
    return MiningState(r_f, min(r_b, 1.0))


def step_best_response(
    assignment: Sequence[Strategy], config: GameConfig, seed: int | random.Random
) -> list[Strategy]:
    """One best-response update: a uniformly random player re-optimizes.

    Pass an int seed for a deterministic single step, or a
    random.Random to advance one shared stream across repeated calls.
    Ties keep the player's current strategy.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    state = assignment_state(assignment, config)
    updated = list(assignment)
    i = rng.randrange(len(updated))
    report = finite_deviation(state, config.powers[i], updated[i], config)
    updated[i] = report.best_strategy
    return updated
