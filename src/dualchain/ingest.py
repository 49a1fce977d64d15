"""Hash-rate series loading, fickle-period detection, and state recovery.

The detector mirrors how fickle episodes show up in public data: miners
flood the minor chain from the moment the difficulty ratio D_B/D_A drops
below the price ratio k until it rises back above.  A symmetric
hysteresis band around k suppresses the flip-flopping that real series
exhibit when the ratio hovers near the threshold.

State recovery uses hash-rate shares: inside a detected period the
B-share observes r_f + r_b, outside it observes r_b.  A period's r_f
estimate is the median in-period share minus the median share of the
flanking non-period windows (medians, because the raw series carries
sharp peaks), and r_f is carried forward across non-period stretches
until the next period updates it.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Sequence

from .core import SERIES_COLUMNS, DualchainError, GameConfig, Zone
from .equilibrium import ZONE_TOL, check_tol, zone_at


class ParseError(DualchainError):
    code = "parse_error"

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class InvariantViolation(DualchainError):
    code = "invariant_violation"

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        super().__init__(message, field=field)
        self.line = line


class EmptySeries(DualchainError):
    code = "empty_series"


class NoBaseline(DualchainError):
    code = "no_baseline"


class UnresolvableState(DualchainError):
    code = "unresolvable_state"


SERIES_HEADER = SERIES_COLUMNS

_INF = float("inf")


@dataclass(frozen=True)
class SeriesRecord:
    """One observation: hash rates, difficulties, and the price ratio."""

    timestamp: int
    hashrate_a: float
    hashrate_b: float
    difficulty_a: float
    difficulty_b: float
    price_ratio_k: float


@dataclass(frozen=True)
class FicklePeriod:
    """Index span [start_index, end_index] of one fickle episode.

    trigger_ratio is the normalized D_B/D_A at entry.
    """

    start_index: int
    end_index: int
    trigger_ratio: float


class Basis(Enum):
    GRAY_PERIOD = "gray_period"
    NON_GRAY = "non_gray"

    __hash__ = object.__hash__  # identity hash, as on core.Zone


@dataclass(frozen=True)
class StateEstimate:
    """Per-record power estimate.

    `share` is the observed B fraction of the total hash rate: inside a
    period it measures r_f + r_b, outside it measures r_b.  r_f / r_b
    are filled where the period estimates resolve them; k is copied from
    the record for zone classification.
    """

    timestamp: int
    basis: Basis
    share: float
    r_f: float | None
    r_b: float | None
    k: float


class _Columns:
    """A sequence of `row` records (each with a timestamp) held as
    `columns`, one sequence per field name in field order.  Iterating and
    indexing build records as views; it equals the list of its records."""

    row: type

    def __init__(self, columns: dict[str, Sequence]):
        self.columns = columns

    def __len__(self):
        return len(self.columns["timestamp"])

    def __iter__(self):
        return map(self.row, *self.columns.values())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)({name: col[i] for name, col in self.columns.items()})
        return self.row(*(col[i] for col in self.columns.values()))

    def __eq__(self, other):
        if not isinstance(other, (_Columns, list)):
            return NotImplemented
        return list(self) == list(other)


class StatePath(_Columns):
    """Per-record state estimates, one column per StateEstimate field."""

    row = StateEstimate


class SeriesLoad(_Columns):
    """A loaded series, one column per SERIES_COLUMNS name, sorted by
    timestamp, plus a count of out-of-order rows that were sorted."""

    row = SeriesRecord

    def __init__(self, columns: dict[str, Sequence], out_of_order_count: int = 0):
        super().__init__(columns)
        self.out_of_order_count = out_of_order_count

    @property
    def records(self) -> list[SeriesRecord]:
        """The rows as SeriesRecord views, built on each access."""
        return list(self)


def _column(rows, name: str) -> Sequence:
    """Column `name` of a SeriesLoad or StatePath, or of a record sequence."""
    if isinstance(rows, _Columns):
        return rows.columns[name]
    return list(map(attrgetter(name), rows))


def load_series(path: str) -> SeriesLoad:
    """Parse and validate a series CSV; rows are sorted by timestamp.

    Out-of-order rows are tolerated (the result reports how many);
    duplicate timestamps are rejected, and so are non-finite values and
    hash rates whose sum overflows.
    """
    rows: list[tuple] = []
    append = rows.append
    n_fields = len(SERIES_HEADER)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptySeries(f"{path} is empty")
        if tuple(h.strip() for h in header) != SERIES_HEADER:
            raise ParseError(
                f"expected header {','.join(SERIES_HEADER)}, got {','.join(header)}",
                line=1,
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_fields:
                raise ParseError(f"expected {n_fields} fields", line=lineno)
            try:
                t = float(row[0])
                timestamp = int(t)
                h_a = float(row[1])
                h_b = float(row[2])
                d_a = float(row[3])
                d_b = float(row[4])
                k = float(row[5])
            except (ValueError, OverflowError) as exc:
                # int(float("inf")) overflows; int(float("nan")) is a ValueError.
                raise ParseError(str(exc), line=lineno) from exc
            if timestamp != t:
                raise ParseError(f"line {lineno}: timestamp {row[0]} is not a whole number",
                                 line=lineno)
            # The chained tests are false for NaN as well as out of range.
            # Rates >= 0 with a finite sum are finite, and h_b / (h_a + h_b) is a share.
            if not (0.0 <= h_a and 0.0 <= h_b and h_a + h_b < _INF):
                raise InvariantViolation(
                    f"hash rates ({row[1]}, {row[2]}) and their sum must be finite and >= 0",
                    line=lineno, field="hashrate",
                )
            if h_a == 0.0 and h_b == 0.0:
                raise InvariantViolation("both hash rates zero", line=lineno, field="hashrate")
            if not (0.0 < d_a < _INF and 0.0 < d_b < _INF):
                raise InvariantViolation(
                    f"difficulties ({row[3]}, {row[4]}) must be finite and > 0",
                    line=lineno, field="difficulty",
                )
            if not (0.0 < k <= 1.0):
                raise InvariantViolation(
                    f"price ratio {k} outside (0, 1]",
                    line=lineno, field="price_ratio_k",
                )
            append((timestamp, h_a, h_b, d_a, d_b, k))

    if not rows:
        raise EmptySeries(f"{path} has no data rows")
    out_of_order = sum(1 for a, b in zip(rows, rows[1:]) if b[0] < a[0])
    if out_of_order:
        rows.sort(key=itemgetter(0))
    columns = dict(zip(SERIES_HEADER, zip(*rows)))
    ts = columns["timestamp"]
    for a, b in zip(ts, ts[1:]):
        if a == b:
            raise InvariantViolation(f"duplicate timestamp {a}", field="timestamp")
    return SeriesLoad(columns, out_of_order)


def detect_fickle_periods(
    series: SeriesLoad | Sequence[SeriesRecord],
    hysteresis: float = 0.02,
    baseline: tuple[int, int] = (0, 1),
) -> list[FicklePeriod]:
    """Find spans where the difficulty ratio sits below the price ratio.

    A period opens when normalized D_B/D_A falls below k*(1 - hysteresis)
    and closes when it rises above k*(1 + hysteresis); a period still
    open at the series end closes there.  `baseline` is the [start, end)
    index window over which the chain_A difficulty is taken as the
    all-power-on-A reference; both difficulty columns are divided by
    that single scale, which requires them to share units (true for
    PoW-compatible chains).
    """
    n = len(series)
    if n < 2:
        raise EmptySeries("need at least 2 records to detect periods")
    if not (0.0 <= hysteresis < _INF):
        raise ValueError(f"hysteresis must be finite and >= 0, got {hysteresis}")
    d_a = _column(series, "difficulty_a")
    lo, hi = baseline
    base = d_a[max(lo, 0):min(hi, n)]
    if not base:
        raise NoBaseline(f"baseline window {baseline} selects no records")
    try:
        scale = statistics.fmean(base)
    except OverflowError:
        # The window sums past the float range; its mean, taken relative
        # to its largest value, does not.
        top = max(base)
        scale = top * statistics.fmean([a / top for a in base])

    periods: list[FicklePeriod] = []
    open_start: int | None = None
    open_ratio = 0.0
    for i, (a, b, k) in enumerate(zip(d_a, _column(series, "difficulty_b"),
                                      _column(series, "price_ratio_k"))):
        try:
            ratio = (b / scale) / (a / scale)
        except ZeroDivisionError:
            ratio = 0.0
        if not 0.0 < ratio < _INF:
            # The scale cancels; here it only under- or overflowed.
            ratio = b / a
        if open_start is None:
            if ratio < k * (1.0 - hysteresis):
                open_start = i
                open_ratio = ratio
        else:
            if ratio > k * (1.0 + hysteresis):
                periods.append(FicklePeriod(open_start, i, open_ratio))
                open_start = None
    if open_start is not None and open_start < n - 1:
        periods.append(FicklePeriod(open_start, n - 1, open_ratio))
    return periods


def estimate_state_path(
    series: SeriesLoad | Sequence[SeriesRecord],
    periods: Sequence[FicklePeriod],
    flank: int = 24,
) -> tuple[StatePath, list[float]]:
    """Per-record state estimates plus one r_f estimate per period.

    A period's r_f is the median in-period share minus the median share
    of up to `flank` non-period records on each side, floored at 0.
    Inside a period the share observes r_f + r_b, so r_b is the share
    minus the period's r_f; outside, r_b is the share and r_f is left
    unresolved (zone_path carries the last period estimate forward).
    Raises ValueError for a period that is not 0 <= start <= end < len(series).
    """
    n = len(series)
    for p in periods:
        if not (0 <= p.start_index <= p.end_index < n):
            raise ValueError(f"{p} does not fit a series of {n} records")
    shares = [b / (a + b) for a, b in zip(_column(series, "hashrate_a"),
                                          _column(series, "hashrate_b"))]
    # Each record's period r_f, or None outside every period.  The first
    # pass marks period records with 0.0, so the flanks can skip them.
    rf_at: list[float | None] = [None] * n
    for p in periods:
        rf_at[p.start_index:p.end_index + 1] = [0.0] * (p.end_index + 1 - p.start_index)

    period_rf: list[float] = []
    for p in periods:
        before = (i for i in range(p.start_index - 1, -1, -1) if rf_at[i] is None)
        after = (i for i in range(p.end_index + 1, n) if rf_at[i] is None)
        flanking = [shares[i] for side in (before, after) for i in islice(side, max(flank, 0))]
        base = statistics.median(flanking) if flanking else 0.0
        inside = statistics.median(shares[p.start_index:p.end_index + 1])
        period_rf.append(max(0.0, inside - base))
    for p, rf in zip(periods, period_rf):
        rf_at[p.start_index:p.end_index + 1] = [rf] * (p.end_index + 1 - p.start_index)

    gray, non_gray = Basis.GRAY_PERIOD, Basis.NON_GRAY
    return StatePath({
        "timestamp": _column(series, "timestamp"),
        "basis": [non_gray if rf is None else gray for rf in rf_at],
        "share": shares,
        "r_f": rf_at,
        "r_b": [share if rf is None else max(0.0, share - rf)
                for share, rf in zip(shares, rf_at)],
        "k": _column(series, "price_ratio_k"),
    }), period_rf


def zone_path(
    estimates: StatePath | Sequence[StateEstimate],
    config: GameConfig,
    tol: float = ZONE_TOL,
) -> tuple[list[Zone], list[tuple[int, Zone, Zone]]]:
    """Zone per record (using each record's own k) plus transition events.

    Non-period records inherit the most recent period's r_f.  Records
    with no observed B mining classify as zone 1: with nobody mining
    coin_B its difficulty has nowhere to fall, which is the
    coin_A-dominant downfall reading rather than the analytic near-axis
    bonanza.  A record that does carry B mining before any period has
    provided an r_f estimate is unresolvable.
    """
    check_tol(tol)
    zones: list[Zone] = []
    transitions: list[tuple[int, Zone, Zone]] = []
    carried_rf: float | None = None
    n_in, n_de = config.n_in, config.n_de
    gray, zone1 = Basis.GRAY_PERIOD, Zone.ZONE1
    if not isinstance(estimates, StatePath):
        estimates = list(estimates)  # an iterator is read once, not once per column
    columns = (_column(estimates, c) for c in ("basis", "share", "r_f", "r_b", "k"))
    for i, (basis, share, r_f, r_b, k) in enumerate(zip(*columns)):
        if basis is gray:
            if r_f is None:
                raise UnresolvableState(f"period record {i} lacks an r_f estimate")
            carried_rf = r_f
            r_b = 0.0 if r_b is None else r_b
        else:
            if share <= 0.0:
                if zones and zone1 is not zones[-1]:
                    transitions.append((i, zones[-1], zone1))
                zones.append(zone1)
                continue
            if carried_rf is None:
                raise UnresolvableState(
                    f"record {i}: B mining observed before any fickle period "
                    "provided an r_f estimate"
                )
            r_b = share if r_b is None else r_b
            r_f = min(carried_rf, max(0.0, 1.0 - r_b))
        r_f = min(r_f, 1.0)
        r_b = min(r_b, 1.0 - r_f)
        # The clamps keep r_f + r_b <= 1; the signs come from the estimates.
        if not (r_f >= 0.0 and r_b >= 0.0):
            raise ValueError(f"power fractions must be >= 0: ({r_f}, {r_b})")
        zone = zone_at(r_f, r_b, k, n_in, n_de, tol)
        if zones and zone is not zones[-1]:
            transitions.append((i, zones[-1], zone))
        zones.append(zone)
    return zones, transitions
