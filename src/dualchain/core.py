"""Shared domain types for the two-coin mining game.

Everything downstream (payoffs, equilibria, flow dynamics, the chain
simulator, and the series analyzer) speaks in terms of the types defined
here: a validated parameter set (`GameConfig`), a point in the power
simplex (`MiningState`), the strategy vocabulary, and zone labels.

All types are frozen dataclasses or enums: immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

POWER_SUM_TOL = 1e-9

# Sum r_f + r_b may exceed 1 by float dust after clamped arithmetic.
_SIMPLEX_SLACK = 1e-12

# Columns of a hash-rate series CSV: written by the chain simulator's
# sampler, read by the series analyzer.
SERIES_COLUMNS = ("timestamp", "hashrate_a", "hashrate_b", "difficulty_a",
                  "difficulty_b", "price_ratio_k")


class DualchainError(Exception):
    """Base error. `code` is the stable machine-readable identifier."""

    code = "internal"

    def __init__(self, message: str = "", field: str | None = None):
        super().__init__(message or self.__class__.__name__)
        self.field = field


class NonPositiveK(DualchainError):
    code = "non_positive_k"


class KAboveOne(DualchainError):
    code = "k_above_one"


class ZeroBlockCount(DualchainError):
    code = "zero_block_count"


class PowerSumMismatch(DualchainError):
    code = "power_sum_mismatch"


class NegativePower(DualchainError):
    code = "negative_power"


class EmptyPowers(DualchainError):
    code = "empty_powers"


class Strategy(Enum):
    """Miner strategy.

    AUTOMATIC is an agent policy for the chain simulator only; analytic
    payoff code rejects it with `AutomaticNotAnalytic` (see payoff module).
    """

    FICKLE = "fickle"
    A_ONLY = "a_only"
    B_ONLY = "b_only"
    AUTOMATIC = "automatic"


class Zone(Enum):
    """Region of the (r_f, r_b) simplex by which strategy pays best.

    The boundary labels are tie classifications under the zone tolerance;
    COEXIST marks a three-way tie (it also labels the all-equal point on
    the r_b = 0 axis).
    """

    ZONE1 = "1"
    ZONE2 = "2"
    ZONE3 = "3"
    BOUNDARY13 = "boundary13"
    BOUNDARY23 = "boundary23"
    COEXIST = "coexist"

    # Members are singletons compared by identity, so the identity hash
    # gives the same lookups as Enum's, without a Python-level call.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class GameConfig:
    """Parameters of the two-coin game.

    k        price of one coin_B in coin_A units, 0 < k <= 1
    n_in     block count before the coin_B difficulty increases
    n_de     block count before the coin_B difficulty decreases
    c_stick  total power fraction of the coin_B factions
    powers   per-player power fractions of the non-faction players
             (c_stick + sum(powers) == 1)

    Construct through `validate_config` (or `config_from_json`); the raw
    constructor performs no checking so that internal code can build
    schedule-override variants without re-validating.
    """

    k: float
    n_in: int
    n_de: int
    c_stick: float = 0.0
    powers: tuple[float, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class MiningState:
    """A point (r_f, r_b) in the power simplex; r_a = 1 - r_f - r_b."""

    r_f: float
    r_b: float

    def __post_init__(self):
        # Written so that NaN fails the first test; +inf fails the second.
        if not (self.r_f >= 0.0 and self.r_b >= 0.0):
            raise ValueError(f"power fractions must be >= 0: ({self.r_f}, {self.r_b})")
        if not (self.r_f + self.r_b <= 1.0 + _SIMPLEX_SLACK):
            raise ValueError(f"r_f + r_b > 1: ({self.r_f}, {self.r_b})")

    @property
    def r_a(self) -> float:
        return max(0.0, 1.0 - self.r_f - self.r_b)


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant values keyed by step index or P_ag time.

    `value_at(x, default)` returns the value of the last entry at or
    before x, or `default` before the first entry.  Linear interpolation
    is deliberately not offered.  Every key and value must be finite;
    the consumer checks the value range (`check_values`).
    """

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for at, value in self.entries:
            if not (math.isfinite(at) and math.isfinite(value)):
                raise ValueError(f"schedule entry ({at}, {value}) is not finite")
        ordered = tuple(sorted(self.entries))
        object.__setattr__(self, "entries", ordered)
        object.__setattr__(self, "_ats", tuple(at for at, _ in ordered))

    def value_at(self, x: float, default: float) -> float:
        i = bisect.bisect_right(self._ats, x)
        if i == 0:
            return default
        return self.entries[i - 1][1]

    def check_values(self, name: str, accept: Callable[[float], bool], interval: str) -> None:
        """Raise ValueError at the first value `accept` refuses."""
        for at, value in self.entries:
            if not accept(value):
                raise ValueError(f"{name} schedule value at {at} must be in {interval}, "
                                 f"got {value}")

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "Schedule":
        try:
            entries = tuple((_pair_number(a), _pair_number(v)) for a, v in pairs)
        except TypeError as exc:
            # A number, a bare value or a list where a pair or a number belongs.
            raise ValueError(f"schedule must hold [at, value] number pairs: {exc}") from exc
        return cls(entries)

    @classmethod
    def from_file(cls, path: str) -> "Schedule":
        """Load from JSON ([[at, value], ...]) or two-column CSV."""
        if path.endswith(".json"):
            with open(path) as fh:
                return cls.from_pairs(json.load(fh))
        import csv  # only CSV schedules need it

        with open(path, newline="") as fh:
            rows = []
            for n, row in enumerate(csv.reader(fh), 1):
                if not row or row[0].strip().lower() in ("at", "step", "time", "t"):
                    continue
                if len(row) < 2:
                    raise ValueError(f"schedule row {n} needs two cells (at, value), "
                                     f"got {row!r}")
                rows.append((float(row[0]), float(row[1])))
        return cls.from_pairs(rows)


def _pair_number(value) -> float:
    """float(value) for a schedule pair; JSON true/false are not numbers."""
    if isinstance(value, bool):
        raise ValueError(f"schedule must hold [at, value] number pairs, got {value!r}")
    return float(value)


def check_k_schedule(schedule: Schedule | None) -> None:
    """Raise ValueError unless every scheduled k lies in (0, 1], like `GameConfig.k`."""
    if schedule is not None:
        schedule.check_values("k", lambda k: 0.0 < k <= 1.0, "(0, 1]")


def validate_config(raw: GameConfig | Mapping, normalize: bool = False) -> GameConfig:
    """Check a config candidate against the game's parameter bounds.

    `raw` may be a GameConfig or a mapping with keys k, n_in, n_de,
    c_stick, powers.  With `normalize=True` all power fractions
    (c_stick included) are divided by their observed sum instead of
    requiring the sum to be exactly 1; real hash-rate data never sums
    exactly.  Idempotent: validating a validated config returns an
    equal value.  A k, c_stick or power that is not a number, or powers
    that are not a list, raise ValueError.
    """
    if isinstance(raw, GameConfig):
        k, n_in, n_de = raw.k, raw.n_in, raw.n_de
        c_stick, powers = raw.c_stick, list(raw.powers)
    else:
        k = raw["k"]
        n_in, n_de = raw["n_in"], raw["n_de"]
        c_stick = raw.get("c_stick", 0.0)
        powers = raw.get("powers", ())
        if not isinstance(powers, (list, tuple)):
            raise ValueError(f"powers must be a list of numbers, got {powers!r}")
        powers = list(powers)
    for name, value in (("k", k), ("c_stick", c_stick), *(("powers", p) for p in powers)):
        # bool is an int, but JSON true/false are not numbers.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number, got {value!r}")

    if not (k > 0.0):
        raise NonPositiveK(f"k must be positive, got {k}", field="k")
    if k > 1.0:
        raise KAboveOne(f"k must not exceed 1 (relabel the coins), got {k}", field="k")

    counts = {}
    for name, value in (("n_in", n_in), ("n_de", n_de)):
        if isinstance(value, float):
            if not value.is_integer():
                raise ZeroBlockCount(f"{name} must be an integer, got {value}", field=name)
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ZeroBlockCount(f"{name} must be a positive integer, got {value}", field=name)
        counts[name] = value

    if not (c_stick >= 0.0):
        raise NegativePower(f"c_stick must be >= 0, got {c_stick}", field="c_stick")
    for i, p in enumerate(powers):
        if not (p > 0.0):
            raise NegativePower(f"powers[{i}] must be > 0, got {p}", field="powers")

    total = c_stick + math.fsum(powers)
    if not math.isfinite(total):
        raise PowerSumMismatch(f"c_stick + sum(powers) = {total!r} is not finite",
                               field="powers")
    if abs(total - 1.0) > POWER_SUM_TOL:
        if not normalize:
            raise PowerSumMismatch(
                f"c_stick + sum(powers) = {total!r}, expected 1", field="powers"
            )
        if total <= 0.0:
            raise PowerSumMismatch("total power is not positive", field="powers")
        c_stick = c_stick / total
        powers = [p / total for p in powers]

    if c_stick >= 1.0:
        raise PowerSumMismatch(f"c_stick must be < 1, got {c_stick}", field="c_stick")

    return GameConfig(
        k=float(k),
        n_in=counts["n_in"],
        n_de=counts["n_de"],
        c_stick=float(c_stick),
        powers=tuple(float(p) for p in powers),
    )


def config_from_json(path: str) -> GameConfig:
    """Load and validate a config from a JSON file.

    Expected object: {"k": ..., "n_in": ..., "n_de": ..., "c_stick": ...,
    "powers": [...]}.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return validate_config(data)


def c_max(config: GameConfig) -> float:
    """Maximum single-player power among the non-faction players."""
    if not config.powers:
        raise EmptyPowers("config has no non-faction players")
    return max(config.powers)


def coexist_rb(k: float) -> float:
    """r_b coordinate of the coexistence equilibrium, k/(1+k)."""
    return k / (1.0 + k)
