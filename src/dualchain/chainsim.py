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

Under EpochWithEda an emergency decrease also restarts the epoch count,
so the next regular retarget comes n blocks after the last adjustment of
either kind, matching a model in which the adjustment count runs from the
last update.  No window restarts: the EDA's last eda_window + 1 block
times and PerBlockWindow's intervals slide on with every block.  Each
regime builds its chain's block hook (`_hook`), so a new rule needs no
change to the event loop, which calls a hook only on blocks where it can
act: from the chain's `due` height on, n blocks ahead under EpochFixed.

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
from typing import Callable, Iterable, Iterator, Sequence

from .core import (K_RANGE, POWER_SUM_TOL, SERIES_COLUMNS, DualchainError, InvalidValue,
                   MiningState, NegativePower, PowerSumMismatch, Schedule, Strategy,
                   check_count, check_k_schedule, check_range, power_sum)

_INF = math.inf
PAG_SECONDS = 600  # series seconds per P_ag; series time starts at epoch 0


class ZeroPowerChain(DualchainError):
    code = "zero_power_chain"


class InsufficientCycles(DualchainError):
    code = "insufficient_cycles"


class DifficultyCollapse(DualchainError):
    """A retarget left a difficulty below the clock's resolution."""

    code = "difficulty_collapse"


def _check_retarget(chain: _Chain, now: float) -> None:
    """Refuse a difficulty below one ulp of `now`.  A mean block interval (at
    least the difficulty) that the clock cannot add would pile blocks up at
    one instant, and the run would never reach its horizon."""
    check_range(chain.difficulty, "difficulty", math.ulp(now), error=DifficultyCollapse,
                name=f"coin_{chain.label} difficulty at t={now!r}")


def _epoch_retarget(chain: _Chain, n: int, span: float, now: float) -> None:
    """Retarget the chain at `now` to the power that n blocks over `span`
    P_ag imply; a span of no time infers none and keeps the difficulty."""
    if span > 0.0:
        chain.difficulty = n * chain.difficulty / span
    _check_retarget(chain, now)


@dataclass(frozen=True)
class EpochFixed:
    """Difficulty recomputed every n blocks from the observed power."""

    n: int = 2016

    def __post_init__(self):
        check_count(self.n, "n", name="epoch length")

    def _hook(self, chain: _Chain) -> Callable[[float], str]:
        """The chain's on_block(now), due every n-th block: a retarget."""
        n = self.n
        anchor = 0.0
        chain.due = n

        def on_block(now: float) -> str:
            nonlocal anchor
            _epoch_retarget(chain, n, now - anchor, now)
            anchor = now
            chain.due += n
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
        check_count(self.n, "n", name="epoch length")
        check_count(self.eda_window, "eda_window")
        check_range(self.eda_factor, "eda_factor", 0.0, 1.0, lo_open=True, hi_open=True)
        check_range(self.eda_threshold, "eda_threshold", 0.0, lo_open=True, hi_open=True)

    def _hook(self, chain: _Chain) -> Callable[[float], str | None]:
        """The chain's on_block(now), due every block: the kind of any retarget."""
        n, threshold, factor = self.n, self.eda_threshold, self.eda_factor
        since, anchor = 0, 0.0
        # The times of the last eda_window + 1 blocks, led by an infinite
        # time until that many have come: now - inf keeps the rule off.  A
        # window longer than a deque can hold never fills, as no run makes
        # that many blocks.
        window = deque([math.inf], maxlen=min(self.eda_window + 1, sys.maxsize))

        def on_block(now: float) -> str | None:
            nonlocal since, anchor
            window.append(now)
            since += 1
            if since >= n:
                _epoch_retarget(chain, n, now - anchor, now)
                kind = "difficulty"
            elif now - window[0] > threshold:
                chain.difficulty *= factor
                _check_retarget(chain, now)
                kind = "eda"
            else:
                return None
            since = 0
            anchor = now
            return kind

        return on_block


@dataclass(frozen=True)
class PerBlockWindow:
    """Difficulty retargeted every block from a moving interval window."""

    window: int = 144

    def __post_init__(self):
        check_count(self.window, "window")

    def _hook(self, chain: _Chain) -> Callable[[float], str | None]:
        """The chain's on_block(now): the event kind if difficulty changed."""
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
            chain.difficulty = min(max(inferred, 0.5 * d), 2.0 * d)
            return "difficulty"

        return on_block


DifficultyRegime = EpochFixed | EpochWithEda | PerBlockWindow


@dataclass
class MinerAgent:
    """One miner: a fixed power fraction driven by a policy.

    A loyalist mines its own coin; a fickle or automatic agent starts on
    coin_A and moves as its policy decides (see run).
    """

    id: str
    power: float
    policy: Strategy


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
        check_range(self.k, "k", **K_RANGE)
        check_range(self.difficulty_a, "difficulty_a", 0.0, lo_open=True, hi_open=True)
        check_range(self.difficulty_b, "difficulty_b", 0.0, lo_open=True, hi_open=True)
        check_k_schedule(self.k_schedule)


@dataclass
class SimReport:
    """Aggregates of one simulation run; none grows with the horizon.

    The per-chain dicts are keyed by chain label, "a" or "b".  `stats`
    counts "blocks" (the dict `blocks`), regular "retargets" and
    "eda_triggers" per chain, "fickle_switches", "auto_switches" (agents
    moved) and "reevaluations" of the switching policies: one at the start
    and one after each retarget of either kind and each price tick.
    `fickle_cycles` counts the fickle switches back to coin_A: switches
    alternate and the first goes to coin_B, so each of them closes a cycle.
    """

    duration: float
    mode: str
    seed: int
    agent_rewards: dict[str, float]
    # Each roster policy's reward per unit of power, in roster order.
    policy_unit: dict[Strategy, float]
    blocks: dict[str, int]
    mean_interval: dict[str, float | None]
    fickle_cycles: int
    final_difficulty: dict[str, float]
    stats: dict[str, int | dict[str, int]]
    # Reward per unit of power at the first and last fickle cycle starts,
    # for whole-cycle payoff measurement: (time, {policy: unit}).
    cycle_mark_first: tuple[float, dict[Strategy, float]] | None = None
    cycle_mark_last: tuple[float, dict[Strategy, float]] | None = None


EVENT_FIELDS = ("time", "chain", "event_type", "difficulty_a", "difficulty_b",
                "r_f_active", "r_b_active")

SERIES_FIELDS = SERIES_COLUMNS  # the series header under the name bench/workloads.py reads


# Exact sums, as PerBlockWindow keeps its window's: every finite float is an
# integer multiple of 2**-1074, so a running sum kept in those units is
# exact, and int / _ONE rounds it once, correctly, as math.fsum does.
_ONE_BITS = 1074
_ONE = 1 << _ONE_BITS


def _exact(x: float) -> int:
    """x as an exact integer count of 2**-1074 units."""
    n, d = x.as_integer_ratio()
    return n << (_ONE_BITS + 1 - d.bit_length())


class _Chain:
    """Live state of one chain.

    `alloc` is the power mining it.  `acc` is the reward paid since the last
    settlement per unit of power mining the chain; an agent's share of a
    stretch of blocks is its power times the growth of `acc` while it mined
    here.  The chain's regime retargets it through the hook its `_hook`
    returns, which the event loop calls once `height` reaches `due` (0 for a
    rule that may act on any block); the hook refers to the chain, never the
    other way round, so a finished run leaves no reference cycle behind.
    """

    __slots__ = ("label", "difficulty", "alloc", "acc", "height", "due", "first_ts", "last_ts")

    def __init__(self, label: str, difficulty: float):
        self.label = label
        self.difficulty = difficulty
        self.alloc = 0.0
        self.acc = 0.0
        self.height = 0
        self.due = 0
        self.first_ts: float | None = None
        self.last_ts: float | None = None


class _Crew:
    """The `size` agents of one policy.

    A policy moves all its agents to one chain at once, so a crew never
    splits and its agents share one reward per unit of power: `unit`, paid
    up to the last settlement, plus the growth of its chain's `acc` since
    `mark`.
    """

    __slots__ = ("chain", "size", "mark", "unit")

    def __init__(self, chain: _Chain, size: int):
        self.chain = chain
        self.size = size
        self.mark = 0.0
        self.unit = 0.0


def _validate_agents(agents: Sequence[MinerAgent]) -> tuple[list, list[float], list[Strategy]]:
    """The roster's ids, powers and policies, in roster order."""
    if not agents:
        raise PowerSumMismatch("empty roster", field="agents")
    seen = set()
    for a in agents:
        if a.id in seen:
            raise InvalidValue(f"duplicate agent id {a.id!r}", field="id")
        seen.add(a.id)
        if not (a.power > 0.0):
            raise NegativePower(f"agent {a.id!r} power must be > 0", field="power")
        if not isinstance(a.policy, Strategy):
            raise InvalidValue(f"agent {a.id!r} has no policy", field="agents")
    powers = [a.power for a in agents]
    check_range(power_sum(powers) - 1.0, "power", -POWER_SUM_TOL, POWER_SUM_TOL,
                error=PowerSumMismatch, name="roster power sum - 1")
    return [a.id for a in agents], powers, [a.policy for a in agents]


def run(
    world: ChainWorld,
    agents: Sequence[MinerAgent],
    regime_a: DifficultyRegime,
    regime_b: DifficultyRegime,
    duration: float,
    seed: int,
    mode: str = "exponential",
    on_block: Callable[[float, str], object] | None = None,
    on_event: Callable[..., object] | None = None,
    sinks: Sequence[Callable[[tuple], object]] = (),
) -> SimReport:
    """Run the event loop until the horizon and aggregate a report.

    mode "exponential" draws Exp(1) work thresholds per block;
    "deterministic" uses expected intervals exactly.  Identical inputs
    produce identical reports.  Rewards accrue per chain and are credited
    per crew, the agents of one policy (at most four crews), so blocks,
    switches, settlements and fickle cycle marks cost the same whatever the
    roster size; only set-up and the final split, each agent's power times
    its crew's reward per unit, grow with it.  A block moves only the other
    chain's clock and calls its chain's hook from the `due` height on; the
    state of both chains is read again only after a retarget or price tick.

    on_block(t, chain label) gets each block of the event log and on_event(t,
    chain, kind, d_a, d_b, r_f, r_b, lines) each state change below with its
    log lines (an automatic switch one per agent moved, "start" and "end"
    none, any other change one); a block line holds the state of the last
    change.  write_events_csv returns both.

    Each of `sinks` receives every state change once, as a tuple (t, chain,
    kind, d_a, d_b, k, alloc_a, alloc_b) holding the state from t on; chain
    is the one retargeted or switched to, else "-".  The kinds: "start" at
    t = 0, "difficulty" and "eda" retargets, "price" ticks, "switch_fickle",
    "switch_auto", and "end" at the horizon.  Collect them with
    `list.append` for avg_b_occupancy or b_phase_durations, or sample a
    series as they come with sample_series.
    """
    check_range(duration, "duration", 0.0, lo_open=True, hi_open=True)
    if mode not in ("exponential", "deterministic"):
        raise InvalidValue(f"unknown mode {mode!r}", field="mode")
    exponential = mode == "exponential"
    # Exp(1) thresholds are drawn as -log(1 - random()), the body of
    # random.expovariate(1.0), so a seed draws the same thresholds.
    rand = random.Random(seed).random
    ln = math.log
    ids, powers, policies = _validate_agents(agents)

    k = world.k
    A = _Chain("a", world.difficulty_a)
    B = _Chain("b", world.difficulty_b)
    # The hooks live only in this frame (see _Chain).
    hook_a = regime_a._hook(A)
    hook_b = regime_b._hook(B)

    # Rewards are kept per crew (see _Crew), one per policy, empty where no
    # agent holds it.  Loyalists take their coin; switchers start on A and
    # make their first decision through the regular re-evaluation below, so
    # an opening move shows up in the event log like any other switch.
    by_policy = {p: [] for p in Strategy}
    for x, p in zip(powers, policies):
        by_policy[p].append(x)
    crews = {p: _Crew(B if p is Strategy.B_ONLY else A, len(xs)) for p, xs in by_policy.items()}
    settle_every = 4096
    fickle = crews[Strategy.FICKLE]
    automatic = crews[Strategy.AUTOMATIC]
    r_f_policy = math.fsum(by_policy[Strategy.FICKLE])
    r_b_policy = math.fsum(by_policy[Strategy.B_ONLY])
    r_fb_policy = r_f_policy + r_b_policy
    # (alloc_a, alloc_b) for each place of the two crews that move, keyed by
    # (fickle on B, automatic on B): each chain's powers summed exactly and
    # rounded once, so a switch back reuses the floats, and the series
    # writer their text.
    allocs = {}
    for on_b in ((False, False), (False, True), (True, False), (True, True)):
        moved = dict(zip((Strategy.FICKLE, Strategy.AUTOMATIC), on_b))
        sides = ([], [])
        for p, xs in by_policy.items():
            sides[moved.get(p, p is Strategy.B_ONLY)].extend(xs)
        allocs[on_b] = (math.fsum(sides[0]), math.fsum(sides[1]))
    A.alloc, B.alloc = allocs[False, False]

    # Block clocks: work done toward each chain's next block, and the work it takes.
    prog_a = prog_b = 0.0
    work_a = -ln(1.0 - rand()) if exponential else 1.0
    work_b = -ln(1.0 - rand()) if exponential else 1.0

    t = 0.0
    # Price ticks as (time, k), ended by one that never comes.
    ticks = iter((*(world.k_schedule.entries if world.k_schedule else ()), (_INF, None)))
    t_price, k_next = next(ticks)
    while t_price <= 0.0:
        k = k_next
        t_price, k_next = next(ticks)

    # Event-log lines by (chain label, event kind), the source of `stats`.
    counts: dict[tuple[str, str], int] = {}
    # (time, {policy: crew unit}) at the first and last fickle cycle starts.
    cycle_mark_first = None
    cycle_mark_last = None

    def emit(label: str, kind: str, lines: int = 1):
        """The one place a state change leaves run: to on_event with its
        `lines` event-log lines, which are counted, and as one change tuple
        to each sink, if any."""
        counts[label, kind] = counts.get((label, kind), 0) + lines
        if on_event is not None:
            on_event(t, label, kind, A.difficulty, B.difficulty, r_f_policy, r_b_policy, lines)
        if sinks:
            change = (t, label, kind, A.difficulty, B.difficulty, k, A.alloc, B.alloc)
            for sink in sinks:
                sink(change)

    def shift(crew: _Crew, dest: _Chain):
        """Move `crew` to `dest`, the other chain, and set both allocations
        for the crews' new places."""
        crew.unit += crew.chain.acc - crew.mark
        crew.chain = dest
        crew.mark = dest.acc
        A.alloc, B.alloc = allocs[fickle.chain is B, automatic.chain is B]

    def settle():
        """Pay every crew up to now and restart both accumulators at 0, so
        the rounding error of `acc` never spans more than settle_every
        blocks of its chain, however long the run."""
        for c in crews.values():
            c.unit += c.chain.acc - c.mark
            c.mark = 0.0
        A.acc = B.acc = 0.0

    def reevaluate():
        """Apply the fickle and automatic policies at the start, after a
        difficulty change and after a price tick.  Both read only d_a, d_b
        and k, so a second call before one of them changes moves nobody."""
        nonlocal cycle_mark_first, cycle_mark_last
        d_a = A.difficulty
        d_b = B.difficulty
        if fickle.size:
            target = B if d_b < min(r_fb_policy, k * d_a) or d_b <= r_b_policy else A
            if fickle.chain is not target:
                shift(fickle, target)
                emit(target.label, "switch_fickle")
                if target is B:
                    settle()
                    mark = (t, {p: c.unit for p, c in crews.items()})
                    if cycle_mark_first is None:
                        cycle_mark_first = mark
                    cycle_mark_last = mark
        if automatic.size:
            gain_a = 1.0 / d_a
            gain_b = k / d_b
            # An exact tie keeps the automatic crew where it is.
            target = B if gain_b > gain_a else A if gain_a > gain_b else automatic.chain
            if automatic.chain is not target:
                shift(automatic, target)
                emit(target.label, "switch_auto", automatic.size)

    emit("-", "start", 0)
    reevaluate()
    if B.alloc == 0.0 and (fickle.size or automatic.size) and world.k_schedule is None:
        # Nobody mines coin_B and its difficulty can never decrease, so the
        # switchable power is permanently stuck waiting for a trigger.
        raise ZeroPowerChain("coin_B starts unmined and can never adjust")

    t_next = 0.0
    while t_next <= duration:
        # Read again after each retarget or price tick, which end the block loop.
        d_a = A.difficulty
        d_b = B.difficulty
        alloc_a = A.alloc
        alloc_b = B.alloc
        rate_a = alloc_a / d_a if alloc_a > 0.0 else 0.0
        rate_b = alloc_b / d_b if alloc_b > 0.0 else 0.0
        while True:
            t_a = t + (work_a - prog_a) * d_a / alloc_a if alloc_a > 0.0 else _INF
            t_b = t + (work_b - prog_b) * d_b / alloc_b if alloc_b > 0.0 else _INF
            t_block = t_a if t_a <= t_b else t_b
            t_next = t_price if t_price < t_block else t_block
            if t_next > duration:  # the horizon is finite, so this holds at _INF
                break
            dt = t_next - t
            t = t_next

            if t_price <= t_block:
                prog_a += rate_a * dt
                prog_b += rate_b * dt
                k = k_next
                t_price, k_next = next(ticks)
                emit("-", "price")
                reevaluate()
                break

            if t_a <= t_b:
                ch = A
                ch.acc += 1.0 / alloc_a
                prog_a = 0.0
                prog_b += rate_b * dt  # only the other chain's clock moves on
                work_a = -ln(1.0 - rand()) if exponential else 1.0
                hook = hook_a
            else:
                ch = B
                ch.acc += k / alloc_b
                prog_b = 0.0
                prog_a += rate_a * dt
                work_b = -ln(1.0 - rand()) if exponential else 1.0
                hook = hook_b
            height = ch.height = ch.height + 1
            if ch.first_ts is None:
                ch.first_ts = t
            ch.last_ts = t
            if on_block is not None:
                on_block(t, ch.label)
            if not height % settle_every:
                settle()
            if height >= ch.due:
                kind = hook(t)
                if kind is not None:
                    emit(ch.label, kind)
                    reevaluate()
                    break

    t = duration
    emit("-", "end", 0)
    # An open fickle B-phase at the horizon is not a completed cycle.
    settle()

    unit = {p: c.unit for p, c in crews.items()}

    def per_chain(kind: str) -> dict[str, int]:
        return {ch.label: counts.get((ch.label, kind), 0) for ch in (A, B)}

    blocks = {A.label: A.height, B.label: B.height}
    retargets = per_chain("difficulty")
    eda_triggers = per_chain("eda")
    return SimReport(
        duration=duration,
        mode=mode,
        seed=seed,
        # The only per-agent pass after set-up: power times its crew's unit.
        agent_rewards=dict(zip(ids, [x * unit[p] for x, p in zip(powers, policies)])),
        policy_unit={p: unit[p] for p in dict.fromkeys(policies)},
        blocks=blocks,
        mean_interval={ch.label: (ch.last_ts - ch.first_ts) / (ch.height - 1)
                       if ch.height >= 2 else None for ch in (A, B)},
        fickle_cycles=counts.get((A.label, "switch_fickle"), 0),
        final_difficulty={A.label: A.difficulty, B.label: B.difficulty},
        stats={"blocks": blocks, "retargets": retargets, "eda_triggers": eda_triggers,
               "fickle_switches": sum(per_chain("switch_fickle").values()),
               "auto_switches": sum(per_chain("switch_auto").values()),
               "reevaluations": 1 + sum(retargets.values()) + sum(eda_triggers.values())
               + counts.get(("-", "price"), 0)},
        cycle_mark_first=cycle_mark_first,
        cycle_mark_last=cycle_mark_last,
    )


# Completed fickle cycles a density needs.
MIN_CYCLES = 50


def empirical_payoffs(report: SimReport) -> dict[Strategy, float]:
    """Per-policy profit density: reward per P_ag per unit power, in roster
    order.

    Rosters containing fickle agents are measured between the first and
    last fickle cycle starts (whole cycles only) and require at least
    MIN_CYCLES completed cycles; loyal-only rosters use the full horizon.
    """
    units = report.policy_unit
    if Strategy.FICKLE not in units:
        return {p: unit / report.duration for p, unit in units.items()}
    if report.fickle_cycles < MIN_CYCLES or report.cycle_mark_first is None:
        raise InsufficientCycles(
            f"{report.fickle_cycles} fickle cycles < required {MIN_CYCLES}"
        )
    t0, start = report.cycle_mark_first
    t1, end = report.cycle_mark_last
    if t1 <= t0:
        raise InsufficientCycles("no complete fickle cycle in report")
    return {p: (end[p] - start[p]) / (t1 - t0) for p in units}


def eda_expected_nde(
    state: MiningState,
    regime: EpochWithEda,
    seed: int,
    trials: int = 10_000,
) -> float:
    """Expected block count until the coin_B difficulty first decreases.

    Models the slow phase after a difficulty increase: only r_b power
    mines at difficulty r_f + r_b, so blocks arrive with mean interval
    (r_f + r_b) / r_b.  The count is capped by the epoch length n; with
    r_f = 0 no emergency decrease occurs (the difficulty matches the
    power) and the epoch length is returned exactly.

    The window here starts at the difficulty increase, so the count is
    never below eda_window.  The hook that `run` calls for `EpochWithEda`
    does not agree: its window slides on through a regular retarget, so an
    emergency decrease can come 1 to eda_window - 1 coin_B blocks after it.
    """
    check_range(state.r_b, "r_b", 0.0, lo_open=True, name="eda_expected_nde r_b")
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
    emit: Callable[[tuple, Iterator[int]], object],
    step: float = 1.0,
) -> Callable[[tuple], None]:
    """A sink for run that samples its changes into rows of the analyzer's
    input schema, handed to `emit` as the run goes.

    Each stretch of unchanged state comes as emit(state, timestamps), which
    must exhaust timestamps; its rows are (timestamp, *state) in
    SERIES_COLUMNS order: epoch seconds, allocated powers, normalized
    difficulties and k.  The grid is t = 0, then t += step (P_ag) while t is
    before the horizon; a row holds the state of the last change at or
    before its t.  check_series_step checks the step at this call.
    """
    check_series_step(step)
    t = 0.0
    last = None  # the change in effect

    def stamps(t_change: float) -> Iterator[int]:
        nonlocal t
        while t < t_change:
            yield round(t * PAG_SECONDS)
            t += step

    def on_change(change: tuple):
        nonlocal last
        t_change = change[0]
        if t < t_change and last is not None:
            _, _, _, d_a, d_b, k, h_a, h_b = last
            emit((h_a, h_b, d_a, d_b, k), stamps(t_change))
        last = change

    return on_change


def check_series_step(step: float) -> None:
    """Refuse a sampling step that is not finite and positive, or that maps
    to less than one second of series time."""
    check_range(step, "series_step", 0.0, lo_open=True, hi_open=True, name="sampling step")
    check_range(step * PAG_SECONDS, "series_step", 1.0, name="sampling step in seconds")


def avg_b_occupancy(changes: Iterable[tuple], t_from: float, t_to: float) -> float:
    """Time-weighted average power allocated to coin_B on [t_from, t_to], from
    the changes a run gave its sinks (the last change, "end", closes the run)."""
    check_range(t_to, "t_to", t_from, lo_open=True, name="t_to (after t_from)")
    total = 0.0
    prev = None
    for change in changes:
        if prev is not None:
            span = min(change[0], t_to) - max(prev[0], t_from)
            if span > 0.0:
                total += prev[7] * span
        prev = change
    return total / (t_to - t_from)


def b_phase_durations(changes: Iterable[tuple]) -> list[float]:
    """How long each completed fickle B-phase lasted, from the changes a run
    gave its sinks: each fickle switch to coin_B up to the one back."""
    durations = []
    start = None
    for t, chain, kind, *_ in changes:
        if kind == "switch_fickle":
            if chain == "b":
                start = t
            elif start is not None:
                durations.append(t - start)
                start = None
    return durations


_UNSET = object()


def write_series_csv(fh) -> Callable[[tuple, Iterable[int]], None]:
    """Write the series header to fh; return the callback that writes each
    stretch of rows as sample_series hands them on.

    Lines are formatted directly, in the bytes csv.writer writes for
    numbers: floats as repr, ints as str, CRLF line ends.  The state's text
    is built once per stretch, formatting again only the columns whose value
    is a different object, so a row costs the str of its timestamp.
    """
    h_a0 = h_b0 = d_a0 = d_b0 = k0 = _UNSET
    s_ha = s_hb = s_da = s_db = s_k = ""
    write = fh.write
    write(",".join(SERIES_COLUMNS) + "\r\n")

    def on_stretch(state: tuple, timestamps: Iterable[int]):
        nonlocal h_a0, h_b0, d_a0, d_b0, k0, s_ha, s_hb, s_da, s_db, s_k
        h_a, h_b, d_a, d_b, k = state
        if h_a is not h_a0:
            h_a0, s_ha = h_a, f"{h_a}"
        if h_b is not h_b0:
            h_b0, s_hb = h_b, f"{h_b}"
        if d_a is not d_a0:
            d_a0, s_da = d_a, f"{d_a}"
        if d_b is not d_b0:
            d_b0, s_db = d_b, f"{d_b}"
        if k is not k0:
            k0, s_k = k, f"{k}"
        tail = f",{s_ha},{s_hb},{s_da},{s_db},{s_k}\r\n"
        for ts in timestamps:
            write(f"{ts}{tail}")

    return on_stretch


def write_events_csv(fh) -> tuple[Callable[[float, str], None], Callable[..., None]]:
    """Write the event-log header to fh; return run's on_block and on_event,
    which write the log's lines to fh as the run goes.

    Lines are formatted directly, in the bytes csv.writer writes for their
    numbers and labels.  A field is formatted again only when its value is a
    different object: a block line costs the repr of its time, and reuses
    the text of the state columns (d_a, d_b, r_f, r_b) of the last change.
    """
    t0 = d_a0 = d_b0 = r_f0 = r_b0 = _UNSET
    s_t = s_da = s_db = s_r = state = ""
    write = fh.write
    write(",".join(EVENT_FIELDS) + "\r\n")

    def on_block(t: float, chain: str):
        nonlocal t0, s_t
        t0, s_t = t, f"{t}"
        write(f"{s_t},{chain},block,{state}")

    def on_event(t, chain, kind, d_a, d_b, r_f, r_b, lines):
        nonlocal t0, d_a0, d_b0, r_f0, r_b0, s_t, s_da, s_db, s_r, state
        if t is not t0:
            t0, s_t = t, f"{t}"
        if d_a is not d_a0:
            d_a0, s_da = d_a, f"{d_a}"
        if d_b is not d_b0:
            d_b0, s_db = d_b, f"{d_b}"
        if r_f is not r_f0 or r_b is not r_b0:
            r_f0, r_b0, s_r = r_f, r_b, f"{r_f},{r_b}"
        state = f"{s_da},{s_db},{s_r}\r\n"
        write(f"{s_t},{chain},{kind},{state}" * lines)

    return on_block, on_event
