"""Block-level discrete-event simulator of two PoW-compatible chains.

Difficulties are normalized: a committed power fraction p on a chain
with difficulty d produces blocks at rate p/d per P_ag, so a chain whose
difficulty matches its power averages one block per P_ag.  Block arrival
uses an integrated-progress clock: each chain accumulates work at rate
p/d toward a threshold drawn Exp(1) (exponential mode) or fixed at 1
(deterministic expected-interval mode, for low-variance oracle runs).
Power reallocations simply change the accrual rate, which is exactly the
time-change construction of a non-homogeneous Poisson process.

Difficulty regimes:

  EpochFixed(n)        every n blocks set difficulty to the power inferred
                       from the window (blocks * d / elapsed).
  EpochWithEda(...)    EpochFixed plus an emergency decrease: when the last
                       eda_window blocks took more than eda_threshold P_ag,
                       multiply difficulty by eda_factor (re-checked per
                       block).  The trigger shape mirrors the historical
                       BCH rule; deployments differ on the numbers, so all
                       three knobs are configurable.
  PerBlockWindow(w)    every block set difficulty to the window-average
                       power (sum of per-interval difficulties / span),
                       clamped to x[0.5, 2] per block.

Every difficulty adjustment resets the measurement window, matching a
model in which the adjustment count runs from the last update.  Each
regime builds its chain's per-block hook (`_hook`), so a new rule needs no
change to the event loop.

Agents: coin-only loyalists never move; fickle agents re-evaluate the
switching predicate (to B iff d_b < min(r_f + r_b, k*d_a) or d_b <= r_b,
with r_f/r_b the roster's policy totals) on every difficulty update or
price tick; automatic agents pick argmax(1/d_a, k/d_b) at the same
moments, ties keeping the current coin.  Nothing else moves d_a, d_b or
k, so between those moments both choices stay where they are.

Block rewards are apportioned among the agents mining the chain in
proportion to power (expected-value crediting); coin_B rewards convert
to coin_A units at the k in effect at earn time.
"""

from __future__ import annotations

import math
import random
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .core import (SERIES_COLUMNS, DualchainError, GameConfig, MiningState, NegativePower,
                   PowerSumMismatch, Schedule, Strategy, check_k_schedule)

_INF = math.inf


class ZeroPowerChain(DualchainError):
    code = "zero_power_chain"


class InsufficientCycles(DualchainError):
    code = "insufficient_cycles"


class Coin(Enum):
    A = "a"
    B = "b"


def _check_length(name: str, value) -> None:
    """A regime length counts blocks, so it is an int >= 1 (a bool is not)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


@dataclass(frozen=True)
class EpochFixed:
    """Difficulty recomputed every n blocks from the observed power."""

    n: int = 2016

    def __post_init__(self):
        _check_length("epoch length", self.n)

    def _hook(self, chain: _Chain) -> Callable[[float], str | None]:
        """The chain's on_block(now): the event kind if difficulty changed."""
        n = self.n
        history = chain.history
        since = 0
        anchor = 0.0

        def on_block(now: float) -> str | None:
            nonlocal since, anchor
            since += 1
            if since < n:
                return None
            span = now - anchor
            if span > 0.0:
                chain.difficulty = since * chain.difficulty / span
            since = 0
            anchor = now
            history.append((now, chain.difficulty))
            return "difficulty"

        return on_block


@dataclass(frozen=True)
class EpochWithEda:
    """Epoch regime plus an emergency decrease on slow block windows."""

    n: int = 2016
    eda_window: int = 6
    eda_threshold: float = 12.0
    eda_factor: float = 0.8

    def __post_init__(self):
        _check_length("epoch length", self.n)
        _check_length("eda_window", self.eda_window)
        if not (0.0 < self.eda_factor < 1.0):
            raise ValueError("eda_factor must be in (0, 1)")
        if not (0.0 < self.eda_threshold < math.inf):
            raise ValueError("eda_threshold must be positive and finite, got "
                             f"{self.eda_threshold!r}")

    def _hook(self, chain: _Chain) -> Callable[[float], str | None]:
        """The chain's on_block(now): the event kind if difficulty changed."""
        n = self.n
        threshold = self.eda_threshold
        factor = self.eda_factor
        history = chain.history
        # The times of the last eda_window + 1 blocks.  A window longer than
        # a deque can hold never fills, as no run makes that many blocks.
        full = min(self.eda_window + 1, sys.maxsize)
        window = deque(maxlen=full)
        since = 0
        anchor = 0.0

        def on_block(now: float) -> str | None:
            nonlocal since, anchor
            window.append(now)
            since += 1
            if since >= n:
                span = now - anchor
                if span > 0.0:
                    chain.difficulty = since * chain.difficulty / span
                kind = "difficulty"
            elif len(window) == full and now - window[0] > threshold:
                chain.difficulty *= factor
                kind = "eda"
            else:
                return None
            since = 0
            anchor = now
            history.append((now, chain.difficulty))
            return kind

        return on_block


@dataclass(frozen=True)
class PerBlockWindow:
    """Difficulty retargeted every block from a moving interval window."""

    window: int = 144

    def __post_init__(self):
        _check_length("window", self.window)

    def _hook(self, chain: _Chain) -> Callable[[float], str | None]:
        """The chain's on_block(now): the event kind if difficulty changed."""
        history = chain.history
        # (time, exact difficulty) of the last window + 1 blocks, with
        # total the exact sum of their difficulties.
        full = min(self.window + 1, sys.maxsize)
        window = deque(maxlen=full)
        total = 0

        def on_block(now: float) -> str | None:
            nonlocal total
            d = chain.difficulty
            x = _exact(d)
            if len(window) == full:
                total -= window[0][1]
            window.append((now, x))
            total += x
            if len(window) < 2:
                return None
            first_t, first_x = window[0]
            span = now - first_t
            if not span > 0.0:
                return None
            # The interval ending at the oldest block lies outside the span.
            inferred = (total - first_x) / _ONE / span
            chain.difficulty = d = min(max(inferred, 0.5 * d), 2.0 * d)
            history.append((now, d))
            return "difficulty"

        return on_block


DifficultyRegime = EpochFixed | EpochWithEda | PerBlockWindow


@dataclass
class MinerAgent:
    """One miner: a fixed power fraction driven by a policy.

    current_coin is the live allocation; leave it None to start from the
    policy's own initial choice.
    """

    id: str
    power: float
    policy: Strategy
    current_coin: Coin | None = None


@dataclass(frozen=True)
class ChainWorld:
    """Initial twin-chain state: normalized difficulties and the price ratio.

    k_schedule entries are (P_ag time, k) pairs applied piecewise-constant.
    """

    difficulty_a: float
    difficulty_b: float
    k: float
    k_schedule: Schedule | None = None

    def __post_init__(self):
        if not (0.0 < self.difficulty_a < math.inf and 0.0 < self.difficulty_b < math.inf):
            raise ValueError("difficulties must be positive and finite, got "
                             f"({self.difficulty_a}, {self.difficulty_b})")
        if not (0.0 < self.k <= 1.0):
            raise ValueError(f"k must be in (0, 1], got {self.k}")
        check_k_schedule(self.k_schedule)


@dataclass
class SimReport:
    """Aggregates of one simulation run."""

    duration: float
    mode: str
    seed: int
    agent_power: dict[str, float]
    agent_policy: dict[str, Strategy]
    agent_rewards: dict[str, float]
    blocks: dict[Coin, int]
    mean_interval: dict[Coin, float | None]
    difficulty_history: dict[Coin, list[tuple[float, float]]]
    k_history: list[tuple[float, float]]
    occupancy: list[tuple[float, float, float]]
    fickle_cycles: int
    b_phase_durations: list[float]
    r_f_policy: float
    r_b_policy: float
    final_difficulty: dict[Coin, float]
    # Reward snapshots at the first and last fickle cycle starts, for
    # whole-cycle payoff measurement: (time, {agent: reward}).
    cycle_mark_first: tuple[float, dict[str, float]] | None = None
    cycle_mark_last: tuple[float, dict[str, float]] | None = None

    def policy_power(self) -> dict[Strategy, float]:
        totals: dict[Strategy, float] = {}
        for aid, p in self.agent_power.items():
            pol = self.agent_policy[aid]
            totals[pol] = totals.get(pol, 0.0) + p
        return totals

    def avg_b_occupancy(self, t_from: float, t_to: float) -> float:
        """Time-weighted average power allocated to coin_B on [t_from, t_to]."""
        if t_to <= t_from:
            raise ValueError("empty interval")
        total = 0.0
        steps = self.occupancy
        for i, (t, _, alloc_b) in enumerate(steps):
            t_next = steps[i + 1][0] if i + 1 < len(steps) else self.duration
            lo = max(t, t_from)
            hi = min(t_next, t_to)
            if hi > lo:
                total += alloc_b * (hi - lo)
        return total / (t_to - t_from)


EVENT_FIELDS = ("time", "chain", "event_type", "difficulty_a", "difficulty_b",
                "r_f_active", "r_b_active")

SERIES_FIELDS = SERIES_COLUMNS


# Exact sums: every finite float is an integer multiple of 2**-1074, so a
# running sum kept in those units is exact, and int / _ONE rounds it once,
# correctly, which is what math.fsum returns.
_ONE_BITS = 1074
_ONE = 1 << _ONE_BITS


def _exact(x: float) -> int:
    """x as an exact integer count of 2**-1074 units."""
    n, d = x.as_integer_ratio()
    return n << (_ONE_BITS + 1 - d.bit_length())


class _Chain:
    """Live state of one chain.

    `power` is the exact sum of the powers mining it (2**-1074 units) and
    `alloc` its rounded value.  `acc` is the reward paid since the last
    settlement per unit of power mining the chain; an agent's share of a
    stretch of blocks is its power times the growth of `acc` while it mined
    here.  The chain's regime retargets it through the hook its `_hook`
    returns; the hook refers to the chain, never the other way round, so a
    finished run leaves no reference cycle behind.
    """

    __slots__ = ("coin", "label", "difficulty", "history", "power", "alloc", "acc", "height",
                 "progress", "threshold", "first_ts", "last_ts")

    def __init__(self, coin: Coin, difficulty: float):
        self.coin = coin
        self.label = coin.value
        self.difficulty = difficulty
        self.history = [(0.0, difficulty)]
        self.power = 0
        self.alloc = 0.0
        self.acc = 0.0
        self.height = 0
        self.progress = 0.0
        self.threshold = 1.0
        self.first_ts: float | None = None
        self.last_ts: float | None = None


class _Crew:
    """The agents of one policy that start on one chain.

    A policy moves all its agents to one chain at once, so a crew never
    splits and its agents share one reward per unit of power: `unit`, paid
    up to the last settlement, plus the growth of its chain's `acc` since
    `mark`.  `power` is the crew's exact power sum (2**-1074 units).
    """

    __slots__ = ("policy", "chain", "power", "size", "mark", "unit")

    def __init__(self, policy: Strategy, chain: _Chain):
        self.policy = policy
        self.chain = chain
        self.power = 0
        self.size = 0
        self.mark = 0.0
        self.unit = 0.0


def _validate_agents(agents: Sequence[MinerAgent]) -> list[MinerAgent]:
    if not agents:
        raise PowerSumMismatch("empty roster")
    seen = set()
    roster = []
    for a in agents:
        if a.id in seen:
            raise ValueError(f"duplicate agent id {a.id!r}")
        seen.add(a.id)
        if not (a.power > 0.0):
            raise NegativePower(f"agent {a.id!r} power must be > 0", field="power")
        if not isinstance(a.policy, Strategy):
            raise ValueError(f"agent {a.id!r} has no policy")
        roster.append(a)
    total = math.fsum(a.power for a in roster)
    if abs(total - 1.0) > 1e-9:
        raise PowerSumMismatch(f"roster power sums to {total!r}, expected 1")
    return roster


def run(
    world: ChainWorld,
    agents: Sequence[MinerAgent],
    regime_a: DifficultyRegime,
    regime_b: DifficultyRegime,
    duration: float,
    seed: int,
    mode: str = "exponential",
    on_event: Callable[[tuple], object] | None = None,
) -> SimReport:
    """Run the event loop until the horizon and aggregate a report.

    mode "exponential" draws Exp(1) work thresholds per block;
    "deterministic" uses expected intervals exactly.  Identical inputs
    produce identical reports.  Rewards accrue per chain and are credited
    per crew, the agents of one policy that start on one chain, so blocks,
    switches, settlements and fickle cycle marks cost the same whatever the
    roster size; only set-up and the final split, each agent's power times
    its crew's reward per unit, grow with it.

    on_event, when given, receives each event as it happens, as an
    EVENT_FIELDS-ordered tuple.  Pass `list.append` to keep them, or the
    callback write_events_csv returns to stream them to a file.
    """
    if not (0.0 < duration < _INF):
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    if mode not in ("exponential", "deterministic"):
        raise ValueError(f"unknown mode {mode!r}")
    exponential = mode == "exponential"
    # Exp(1) thresholds are drawn as -log(1 - random()), the body of
    # random.expovariate(1.0), so a seed draws the same thresholds.
    rand = random.Random(seed).random
    ln = math.log
    roster = _validate_agents(agents)

    k = world.k
    A = _Chain(Coin.A, world.difficulty_a)
    B = _Chain(Coin.B, world.difficulty_b)
    # The hooks live only in this frame (see _Chain).
    on_block_a = regime_a._hook(A)
    on_block_b = regime_b._hook(B)

    # Rewards are kept per crew (see _Crew); `member` holds each agent's
    # crew by roster index.  Loyalists take their coin; switchers start on
    # A (or the coin preset on the agent) and make their first decision
    # through the regular re-evaluation below, so an opening move shows up
    # in the event log like any other switch.  Crews never merge: two crews
    # on one chain hold different unsettled stretches.
    ids = [a.id for a in roster]
    powers = [a.power for a in roster]
    crews: list[_Crew] = []
    crew_index: dict[tuple, int] = {}
    member = []
    for a in roster:
        if a.policy is Strategy.B_ONLY or (
                a.policy is not Strategy.A_ONLY and a.current_coin is Coin.B):
            ch = B
        else:
            ch = A
        j = crew_index.setdefault((a.policy, ch), len(crews))
        if j == len(crews):
            crews.append(_Crew(a.policy, ch))
        crews[j].power += _exact(a.power)
        crews[j].size += 1
        member.append(j)
    for c in crews:
        c.chain.power += c.power
    settle_every = 4096
    fickle = [c for c in crews if c.policy is Strategy.FICKLE]
    automatic = [c for c in crews if c.policy is Strategy.AUTOMATIC]
    # Exact sums rounded once: what math.fsum over the agents returns.
    r_f_policy = sum(c.power for c in fickle) / _ONE
    r_b_policy = sum(c.power for c in crews if c.policy is Strategy.B_ONLY) / _ONE
    r_fb_policy = r_f_policy + r_b_policy
    n_automatic = sum(c.size for c in automatic)
    # The fickle cohort's common chain, None while it is split.
    fickle_on = fickle[0].chain if fickle and all(c.chain is fickle[0].chain for c in fickle) \
        else None
    auto_on_b = sum(c.size for c in automatic if c.chain is B)
    A.alloc = A.power / _ONE
    B.alloc = B.power / _ONE

    if exponential:
        A.threshold = -ln(1.0 - rand())
        B.threshold = -ln(1.0 - rand())

    t = 0.0
    price_changes = list(world.k_schedule.entries) if world.k_schedule else []
    price_idx = 0
    while price_idx < len(price_changes) and price_changes[price_idx][0] <= 0.0:
        k = price_changes[price_idx][1]
        price_idx += 1

    k_history = [(0.0, k)]
    occupancy = [(0.0, A.alloc, B.alloc)]
    fickle_cycles = 0
    b_phase_durations: list[float] = []
    fickle_on_b = False
    b_phase_start = 0.0
    # (time, each crew's unit) at the first and last fickle cycle starts.
    cycle_mark_first = None
    cycle_mark_last = None

    def log(label: str, kind: str):
        if on_event is not None:
            on_event((t, label, kind, A.difficulty, B.difficulty, r_f_policy, r_b_policy))

    def shift(group: list[_Crew], dest: _Chain) -> int:
        """Move the crews of `group` not on `dest` there; how many agents moved."""
        src = B if dest is A else A
        moved = 0
        for c in group:
            if c.chain is src:
                c.unit += src.acc - c.mark
                src.power -= c.power
                dest.power += c.power
                c.chain = dest
                c.mark = dest.acc
                moved += c.size
        return moved

    def settle():
        """Pay every crew up to now and restart both accumulators at 0, so
        the rounding error of `acc` never spans more than settle_every
        blocks of its chain, however long the run."""
        for c in crews:
            c.unit += c.chain.acc - c.mark
            c.mark = 0.0
        A.acc = B.acc = 0.0

    def reevaluate():
        """Apply the fickle and automatic policies at the start, after a
        difficulty change and after a price tick.  Both read only d_a, d_b
        and k, so a second call before one of them changes moves nobody."""
        nonlocal fickle_on, fickle_on_b, b_phase_start, fickle_cycles, auto_on_b
        nonlocal cycle_mark_first, cycle_mark_last
        moved = False
        d_a = A.difficulty
        d_b = B.difficulty
        if fickle:
            target = B if d_b < min(r_fb_policy, k * d_a) or d_b <= r_b_policy else A
            if fickle_on is not target:
                shift(fickle, target)
                fickle_on = target
                moved = True
                log(target.label, "switch_fickle")
                if target is B:
                    fickle_on_b = True
                    b_phase_start = t
                    settle()
                    mark = (t, [c.unit for c in crews])
                    if cycle_mark_first is None:
                        cycle_mark_first = mark
                    cycle_mark_last = mark
                elif fickle_on_b:
                    fickle_on_b = False
                    b_phase_durations.append(t - b_phase_start)
                    fickle_cycles += 1
        if automatic:
            gain_a = 1.0 / d_a
            gain_b = k / d_b
            # Ties keep every automatic agent where it is.
            if gain_b > gain_a and auto_on_b < n_automatic:
                target = B
            elif gain_a > gain_b and auto_on_b:
                target = A
            else:
                target = None
            if target is not None:
                # One event per agent moved; without a log nothing counts them.
                moved_agents = shift(automatic, target)
                if on_event is not None:
                    for _ in range(moved_agents):
                        log(target.label, "switch_auto")
                auto_on_b = n_automatic if target is B else 0
                moved = True
        if moved:
            A.alloc = A.power / _ONE
            B.alloc = B.power / _ONE
            occupancy.append((t, A.alloc, B.alloc))

    reevaluate()
    if B.alloc == 0.0 and (fickle or automatic) and world.k_schedule is None:
        # Nobody mines coin_B and its difficulty can never decrease, so the
        # switchable power is permanently stuck waiting for a trigger.
        raise ZeroPowerChain("coin_B starts unmined and can never adjust")

    n_prices = len(price_changes)
    t_price = price_changes[price_idx][0] if price_idx < n_prices else _INF
    while True:
        alloc_a = A.alloc
        alloc_b = B.alloc
        t_a = t + (A.threshold - A.progress) * A.difficulty / alloc_a if alloc_a > 0.0 \
            else _INF
        t_b = t + (B.threshold - B.progress) * B.difficulty / alloc_b if alloc_b > 0.0 \
            else _INF
        t_block = t_a if t_a <= t_b else t_b
        t_next = t_price if t_price < t_block else t_block
        if t_next > duration or t_next == _INF:
            break
        dt = t_next - t
        if alloc_a > 0.0:
            A.progress += alloc_a / A.difficulty * dt
        if alloc_b > 0.0:
            B.progress += alloc_b / B.difficulty * dt
        t = t_next

        if t_price <= t_block:
            k = price_changes[price_idx][1]
            price_idx += 1
            t_price = price_changes[price_idx][0] if price_idx < n_prices else _INF
            k_history.append((t, k))
            log("-", "price")
            reevaluate()
            continue

        if t_a <= t_b:
            ch = A
            ch.acc += 1.0 / alloc_a
            on_block = on_block_a
        else:
            ch = B
            ch.acc += k / alloc_b
            on_block = on_block_b
        ch.height += 1
        if ch.first_ts is None:
            ch.first_ts = t
        ch.last_ts = t
        ch.progress = 0.0
        ch.threshold = -ln(1.0 - rand()) if exponential else 1.0
        if on_event is not None:
            on_event((t, ch.label, "block", A.difficulty, B.difficulty, r_f_policy, r_b_policy))
        if not ch.height % settle_every:
            settle()
        kind = on_block(t)
        if kind is not None:
            log(ch.label, kind)
            reevaluate()

    # An open fickle B-phase at the horizon is not a completed cycle.
    settle()

    def credit(units: list[float]) -> dict[str, float]:
        # The only per-agent pass after set-up: power times its crew's unit.
        return dict(zip(ids, [p * units[j] for p, j in zip(powers, member)]))

    def by_id(mark):
        return None if mark is None else (mark[0], credit(mark[1]))
    mean_interval = {}
    for ch in (A, B):
        if ch.height >= 2:
            mean_interval[ch.coin] = (ch.last_ts - ch.first_ts) / (ch.height - 1)
        else:
            mean_interval[ch.coin] = None

    return SimReport(
        duration=duration,
        mode=mode,
        seed=seed,
        agent_power={a.id: a.power for a in roster},
        agent_policy={a.id: a.policy for a in roster},
        agent_rewards=credit([c.unit for c in crews]),
        blocks={Coin.A: A.height, Coin.B: B.height},
        mean_interval=mean_interval,
        difficulty_history={Coin.A: A.history, Coin.B: B.history},
        k_history=k_history,
        occupancy=occupancy,
        fickle_cycles=fickle_cycles,
        b_phase_durations=b_phase_durations,
        r_f_policy=r_f_policy,
        r_b_policy=r_b_policy,
        final_difficulty={Coin.A: A.difficulty, Coin.B: B.difficulty},
        cycle_mark_first=by_id(cycle_mark_first),
        cycle_mark_last=by_id(cycle_mark_last),
    )


def empirical_payoffs(report: SimReport, min_cycles: int = 50) -> dict[Strategy, float]:
    """Per-policy profit density: reward per P_ag per unit power.

    Rosters containing fickle agents are measured between the first and
    last fickle cycle starts (whole cycles only) and require at least
    `min_cycles` completed cycles; loyal-only rosters use the full
    horizon.
    """
    powers = report.policy_power()
    has_fickle = Strategy.FICKLE in powers
    if has_fickle:
        if report.fickle_cycles < min_cycles or report.cycle_mark_first is None:
            raise InsufficientCycles(
                f"{report.fickle_cycles} fickle cycles < required {min_cycles}"
            )
        t0, rew0 = report.cycle_mark_first
        t1, rew1 = report.cycle_mark_last
        if t1 <= t0:
            raise InsufficientCycles("no complete fickle cycle in report")
        span = t1 - t0
        earned = {
            aid: rew1[aid] - rew0[aid] for aid in report.agent_rewards
        }
    else:
        span = report.duration
        earned = dict(report.agent_rewards)

    densities: dict[Strategy, float] = {}
    for policy, total_power in powers.items():
        total = math.fsum(
            earned[aid]
            for aid, pol in report.agent_policy.items()
            if pol is policy
        )
        densities[policy] = total / span / total_power
    return densities


def eda_expected_nde(
    state: MiningState,
    regime: EpochWithEda,
    config: GameConfig,
    seed: int,
    trials: int = 10_000,
) -> float:
    """Expected block count until the coin_B difficulty first decreases.

    Models the slow phase after a difficulty increase: only r_b power
    mines at difficulty r_f + r_b, so blocks arrive with mean interval
    (r_f + r_b) / r_b.  The count is capped by the epoch length n; with
    r_f = 0 no emergency decrease occurs (the difficulty matches the
    power) and the epoch length is returned exactly.
    """
    if state.r_b <= 0.0:
        raise ValueError("eda_expected_nde requires r_b > 0")
    if state.r_f == 0.0:
        return float(regime.n)
    rng = random.Random(seed)
    mean_dt = (state.r_f + state.r_b) / state.r_b
    rate = 1.0 / mean_dt
    w = regime.eda_window
    threshold = regime.eda_threshold
    cap = regime.n
    total = 0
    for _ in range(trials):
        window = deque()
        wsum = 0.0
        n_blocks = cap
        for i in range(1, cap + 1):
            dt = rng.expovariate(rate)
            window.append(dt)
            wsum += dt
            if len(window) > w:
                wsum -= window.popleft()
            if i >= w and wsum > threshold:
                n_blocks = i
                break
        total += n_blocks
    return total / trials


def sample_series(
    report: SimReport,
    step: float = 1.0,
    pag_seconds: int = 600,
    t0_epoch: int = 0,
) -> Iterator[tuple]:
    """Sample a run into rows matching the analyzer's input schema.

    Rows are SERIES_FIELDS-ordered tuples: timestamp (epoch seconds,
    strictly increasing), hashrate_a/b (allocated power fractions),
    difficulty_a/b (normalized units), price_ratio_k.  `step` is the
    sampling interval in P_ag.  The step is checked when this is called;
    the rows are produced as they are read.
    """
    if not (0.0 < step < _INF) or step * pag_seconds < 1.0:
        raise ValueError("sampling step must be finite and map to at least one second, "
                         f"got {step!r}")
    return _series_rows(report, step, pag_seconds, t0_epoch)


def _series_rows(report: SimReport, step: float, pag_seconds: int,
                 t0_epoch: int) -> Iterator[tuple]:
    # The grid is t = 0, then t += step while t < duration.  Each history
    # is read through a cursor: its entry in effect at t and the next one.
    # Until the earliest next entry every sampled value stays the same, so
    # each such stretch is yielded from one tight loop.
    last = (_INF, None, None)
    occ = iter(report.occupancy)
    da = iter(report.difficulty_history[Coin.A])
    db = iter(report.difficulty_history[Coin.B])
    ks = iter(report.k_history)
    cur_occ, cur_da, cur_db, cur_k = next(occ), next(da), next(db), next(ks)
    nxt_occ, nxt_da, nxt_db, nxt_k = next(occ, last), next(da, last), next(db, last), \
        next(ks, last)
    end = report.duration
    t = 0.0
    while t < end:
        while nxt_occ[0] <= t:
            cur_occ, nxt_occ = nxt_occ, next(occ, last)
        while nxt_da[0] <= t:
            cur_da, nxt_da = nxt_da, next(da, last)
        while nxt_db[0] <= t:
            cur_db, nxt_db = nxt_db, next(db, last)
        while nxt_k[0] <= t:
            cur_k, nxt_k = nxt_k, next(ks, last)
        stop = min(end, nxt_occ[0], nxt_da[0], nxt_db[0], nxt_k[0])
        _, h_a, h_b = cur_occ
        d_a = cur_da[1]
        d_b = cur_db[1]
        k = cur_k[1]
        while t < stop:
            yield t0_epoch + round(t * pag_seconds), h_a, h_b, d_a, d_b, k
            t += step


# Distinct values the series memo holds before it starts over, so its size
# stays flat however many distinct values a run produces.
_MEMO_CAP = 1024


class _ReprMemo(dict):
    """Float -> repr text, formatted once per distinct value.

    A float's repr is what csv writes for it.  Other values pass through
    unchanged.  Zeros are not stored, since 0.0 and -0.0 are equal keys
    with different reprs.
    """

    __slots__ = ()

    def __missing__(self, x):
        if type(x) is not float:
            return x
        text = repr(x)
        if x:
            if len(self) >= _MEMO_CAP:
                self.clear()
            self[x] = text
        return text


_UNSET = object()


def write_series_csv(rows: Iterable[tuple], path: str):
    """Write SERIES_FIELDS-ordered rows, as sample_series yields them.

    Lines are formatted directly, in the bytes csv.writer writes for
    numbers: floats as repr, ints as str, CRLF line ends.  The float
    columns must hold floats, since the memo would print an int equal to an
    earlier float as that float.  The text after the timestamp is built
    again only when one of the five values is a different object.
    """
    m = _ReprMemo()
    h_a0 = h_b0 = d_a0 = d_b0 = k0 = _UNSET
    tail = ""
    with open(path, "w", newline="") as fh:
        write = fh.write
        write(",".join(SERIES_FIELDS) + "\r\n")
        for ts, h_a, h_b, d_a, d_b, k in rows:
            if h_a is not h_a0 or h_b is not h_b0 or d_a is not d_a0 or d_b is not d_b0 \
                    or k is not k0:
                h_a0, h_b0, d_a0, d_b0, k0 = h_a, h_b, d_a, d_b, k
                tail = f",{m[h_a]},{m[h_b]},{m[d_a]},{m[d_b]},{m[k]}\r\n"
            write(f"{ts}{tail}")


def write_events_csv(fh) -> Callable[[tuple], None]:
    """Write the event-log header to fh; return the on_event callback for run.

    The callback writes each event as one line, in the bytes csv.writer
    writes for its numbers and labels.  The difficulty and power columns are formatted again
    only when one of those values is a different object, so most events
    cost the repr of their time.
    """
    d_a0 = d_b0 = r_f0 = r_b0 = _UNSET
    tail = ""
    write = fh.write
    write(",".join(EVENT_FIELDS) + "\r\n")

    def on_event(event: tuple):
        nonlocal d_a0, d_b0, r_f0, r_b0, tail
        t, chain, kind, d_a, d_b, r_f, r_b = event
        if d_a is not d_a0 or d_b is not d_b0 or r_f is not r_f0 or r_b is not r_b0:
            d_a0, d_b0, r_f0, r_b0 = d_a, d_b, r_f, r_b
            tail = f"{d_a},{d_b},{r_f},{r_b}\r\n"
        write(f"{t},{chain},{kind},{tail}")

    return on_event
