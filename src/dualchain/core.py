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
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

POWER_SUM_TOL = 1e-9

#: Absolute tie tolerance on payoff differences for zone classification.
ZONE_TOL = 1e-10

# Sum r_f + r_b may exceed 1 by float dust after clamped arithmetic.
_SIMPLEX_SLACK = 1e-12

# Columns of a hash-rate series CSV: written by the chain simulator's
# sampler, read by the series analyzer.
SERIES_COLUMNS = ("timestamp", "hashrate_a", "hashrate_b", "difficulty_a",
                  "difficulty_b", "price_ratio_k")

_PAIRS = "schedule must hold [at, value] number pairs"  # a schedule's shape refusal


class DualchainError(Exception):
    """Base error. `code` is the stable machine-readable identifier."""

    code = "internal"

    def __init__(self, message: str = "", field: str | None = None):
        super().__init__(message or self.__class__.__name__)
        self.field = field


class InvalidValue(DualchainError, ValueError):
    """An input number that breaks its rule; `field` names the input.

    A ValueError too, so callers that catch ValueError still catch it.
    """

    code = "invalid_input"


class NonPositiveK(InvalidValue):
    code = "non_positive_k"


class KAboveOne(InvalidValue):
    code = "k_above_one"


class ZeroBlockCount(InvalidValue):
    code = "zero_block_count"


class PowerSumMismatch(InvalidValue):
    code = "power_sum_mismatch"


class NegativePower(InvalidValue):
    code = "negative_power"


class EmptyPowers(DualchainError):
    code = "empty_powers"


def number(value, field: str, name: str | None = None) -> float:
    """A decoded JSON number as a float: an int or a float, never a bool,
    str, null, list or object (InvalidValue).  An int past the float range
    reads as an infinity of its sign, which no rule accepts."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidValue(f"{name or field} must be a number, got {value!r}", field=field)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_range(value, field: str, lo: float = -math.inf, hi: float = math.inf, *,
                lo_open: bool = False, hi_open: bool = False, error=InvalidValue,
                error_above=None, name: str | None = None):
    """`value` if it lies between lo and hi, else raise `error` with `field`.

    The bounds are closed unless `lo_open`/`hi_open`.  A value above the
    interval raises `error_above` when one is given.  NaN fails the lower
    test, so it raises `error`.  `name` replaces `field` in the message.
    """
    if lo < value if lo_open else lo <= value:
        if value < hi if hi_open else value <= hi:
            return value
        error = error_above or error
    interval = f"{'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"
    raise error(f"{name or field} must be in {interval}, got {value!r}", field=field)


def check_count(value, field: str, error=InvalidValue, name: str | None = None,
                hi: float = math.inf) -> int:
    """`value` if it is an int from 1 to `hi` (a bool is not), else raise `error`."""
    if type(value) is not int or not 1 <= value <= hi:
        raise error(f"{name or field} must be an int in [1, {hi:g}], got {value!r}",
                    field=field)
    return value


# The price ratio's rule wherever a k enters: 0 < k <= 1.
K_RANGE = {"lo": 0.0, "hi": 1.0, "lo_open": True, "error": NonPositiveK,
           "error_above": KAboveOne}


def power_sum(powers) -> float:
    """math.fsum of power fractions, or inf where it overflows."""
    try:
        return math.fsum(powers)
    except OverflowError:  # finite powers whose sum passes the float range
        return math.inf


class Strategy(Enum):
    """Miner strategy.

    AUTOMATIC is an agent policy for the chain simulator only; analytic
    payoff code rejects it with `AutomaticNotAnalytic` (see payoff module).
    """

    FICKLE = "fickle"
    A_ONLY = "a_only"
    B_ONLY = "b_only"
    AUTOMATIC = "automatic"

    __hash__ = object.__hash__  # identity hash, as on Zone


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
            raise InvalidValue(f"power fractions must be >= 0: ({self.r_f}, {self.r_b})",
                               field="r_b" if self.r_f >= 0.0 else "r_f")
        if not (self.r_f + self.r_b <= 1.0 + _SIMPLEX_SLACK):
            raise InvalidValue(f"r_f + r_b > 1: ({self.r_f}, {self.r_b})",
                               field="r_b" if self.r_f <= 1.0 + _SIMPLEX_SLACK else "r_f")

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
            check_range(at, "schedule", lo_open=True, hi_open=True, name="schedule time")
            check_range(value, "schedule", lo_open=True, hi_open=True, name="schedule value")
        ordered = tuple(sorted(self.entries))
        object.__setattr__(self, "entries", ordered)
        object.__setattr__(self, "_ats", tuple(at for at, _ in ordered))

    def value_at(self, x: float, default: float) -> float:
        i = bisect.bisect_right(self._ats, x)
        if i == 0:
            return default
        return self.entries[i - 1][1]

    def check_values(self, field: str, *bounds, **rule) -> None:
        """check_range(value, field, *bounds, **rule) on every value."""
        for at, value in self.entries:
            check_range(value, field, *bounds, name=f"{field} schedule value at {at}", **rule)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "Schedule":
        try:
            entries = tuple((number(a, "schedule"), number(v, "schedule")) for a, v in pairs)
        except InvalidValue:
            raise
        except (TypeError, ValueError) as exc:
            # A number, a bare value or a pair of another length where a pair belongs.
            raise InvalidValue(f"{_PAIRS}: {exc}", field="schedule") from exc
        return cls(entries)

    @classmethod
    def from_file(cls, path: str) -> "Schedule":
        """Load from JSON ([[at, value], ...]) or two-column CSV."""
        if path.endswith(".json"):
            return cls.from_pairs(read_json(path, list, message=_PAIRS, field="schedule"))
        import csv  # only CSV schedules need it

        with open(path, newline="") as fh:
            rows = []
            reader = csv.reader(fh)
            headers = ("at", "step", "time", "t")  # a first row led by one is a header
            try:
                for n, row in enumerate(reader, 1):
                    if not row or n == 1 and row[0].strip().lower() in headers:
                        continue
                    try:
                        rows.append((float(row[0]), float(row[1])))
                    except (IndexError, ValueError):  # fewer than two cells, or not numbers
                        raise InvalidValue(f"schedule row {n} needs two numbers (at, value), "
                                           f"got {row!r}", field="schedule") from None
            except csv.Error as exc:  # a line csv cannot split, such as an oversized cell
                raise InvalidValue(f"schedule row {reader.line_num}: {exc}",
                                   field="schedule") from None
        return cls.from_pairs(rows)


def check_k_schedule(schedule: Schedule | None) -> None:
    """Hold every scheduled k to the rule of `GameConfig.k`."""
    if schedule is not None:
        schedule.check_values("k", **K_RANGE)


def validate_config(raw: GameConfig | Mapping) -> GameConfig:
    """Check a config candidate against the game's parameter bounds.

    `raw` may be a GameConfig or a mapping with keys k, n_in, n_de,
    c_stick, powers.  Idempotent: validating a validated config returns
    an equal value.  A k, c_stick or power that is not a number, or
    powers that are not a list, raise InvalidValue; a missing k, n_in or
    n_de is refused by the check of that key, and block counts whose sum
    is not a finite float by InvalidValue with field n_de.
    """
    if isinstance(raw, GameConfig):
        k, n_in, n_de = raw.k, raw.n_in, raw.n_de
        c_stick, powers = raw.c_stick, list(raw.powers)
    else:
        k = raw.get("k")
        n_in, n_de = raw.get("n_in"), raw.get("n_de")
        c_stick = raw.get("c_stick", 0.0)
        powers = raw.get("powers", ())
        if not isinstance(powers, (list, tuple)):
            raise InvalidValue(f"powers must be a list of numbers, got {powers!r}",
                               field="powers")
    k, c_stick = number(k, "k"), number(c_stick, "c_stick")
    powers = [number(p, "powers") for p in powers]

    check_range(k, "k", **K_RANGE)
    counts = {}
    for name, value in (("n_in", n_in), ("n_de", n_de)):
        if type(value) is float and value.is_integer():
            value = int(value)
        # The payoff forms take the counts as floats.
        counts[name] = check_count(value, name, error=ZeroBlockCount, hi=sys.float_info.max)
    # q, d and the payoff numerators are at most n_in + n_de.
    check_range(float(counts["n_in"]) + counts["n_de"], "n_de", 2.0, sys.float_info.max,
                name="n_in + n_de")
    check_range(c_stick, "c_stick", 0.0, error=NegativePower)
    for i, p in enumerate(powers):
        check_range(p, "powers", 0.0, lo_open=True, error=NegativePower, name=f"powers[{i}]")

    check_range(c_stick + power_sum(powers) - 1.0, "powers", -POWER_SUM_TOL, POWER_SUM_TOL,
                error=PowerSumMismatch, name="c_stick + sum(powers) - 1")
    check_range(c_stick, "c_stick", hi=1.0, hi_open=True, error=PowerSumMismatch)

    return GameConfig(k, counts["n_in"], counts["n_de"], c_stick, tuple(powers))


def read_json(path: str, shape: type = dict, items: type | None = None,
              message: str = "config file must contain a JSON object", field: str = "config"):
    """The JSON value in the file at `path`, by default a config's object.

    A value that is not a `shape`, or with `items` one that holds an item
    of another type, raises InvalidValue(message, field).
    """
    with open(path) as fh:
        value = json.load(fh)
    if not isinstance(value, shape) or items and not all(isinstance(v, items) for v in value):
        raise InvalidValue(message, field=field)
    return value


def config_from_json(path: str) -> GameConfig:
    """Load and validate a config from a JSON file.

    Expected object: {"k": ..., "n_in": ..., "n_de": ..., "c_stick": ...,
    "powers": [...]}.
    """
    return validate_config(read_json(path))


def c_max(config: GameConfig) -> float:
    """Maximum single-player power among the non-faction players."""
    if not config.powers:
        raise EmptyPowers("config has no non-faction players")
    return max(config.powers)


def coexist_rb(k: float) -> float:
    """r_b coordinate of the coexistence equilibrium, k/(1+k)."""
    return k / (1.0 + k)
