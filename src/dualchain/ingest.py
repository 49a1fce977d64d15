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
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Sequence

from .core import SERIES_COLUMNS, DualchainError, GameConfig, InvalidValue, Zone, check_range
from .equilibrium import ZONE_TOL, zone_at


class _RowError(DualchainError):
    """A refusal of one series row: its message starts with the row's line."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        super().__init__(message if line is None else f"line {line}: {message}", field=field)
        self.line = line


class ParseError(_RowError):
    code = "parse_error"


class InvariantViolation(_RowError):
    code = "invariant_violation"


class EmptySeries(DualchainError):
    code = "empty_series"


class UnresolvableState(DualchainError):
    code = "unresolvable_state"


_INF = float("inf")
# Non-period records on each side of a period whose median share is its baseline.
FLANK = 24


@dataclass(frozen=True)
class FicklePeriod:
    """Index span [start_index, end_index] of one fickle episode.

    trigger_ratio is D_B/D_A at entry.
    """

    start_index: int
    end_index: int
    trigger_ratio: float


class Basis(Enum):
    GRAY_PERIOD = "gray_period"
    NON_GRAY = "non_gray"


class _Columns:
    """Rows held as `columns`, one sequence per field name; len() counts the rows."""

    def __init__(self, columns: dict[str, Sequence]):
        self.columns = columns

    def __len__(self):
        return len(self.columns["timestamp"])


class StatePath(_Columns):
    """Per-record state estimates, in the columns timestamp, share, r_f and k.

    `share` is the observed B fraction of the total hash rate: inside a
    period it measures r_f + r_b, outside it measures r_b.  r_f is the
    period's estimate on period records and None elsewhere, so a record
    is gray exactly when its r_f is set; k is copied from the series for
    zone classification.
    """


class SeriesLoad(_Columns):
    """A loaded series, one column per SERIES_COLUMNS name, sorted by
    timestamp, plus a count of out-of-order rows that were sorted.

    `load_series` gives `timestamp` as a tuple of ints and every other
    column as an `array('d')`.
    """

    def __init__(self, columns: dict[str, Sequence], out_of_order_count: int = 0):
        super().__init__(columns)
        self.out_of_order_count = out_of_order_count


def _unread_column(row: list[str]) -> str:
    """The column of the first cell in `row` that float() refuses, or the
    timestamp when every cell reads (an infinite or NaN timestamp)."""
    for name, cell in zip(SERIES_COLUMNS, row):
        try:
            float(cell)
        except ValueError:
            return name
    return "timestamp"


def load_series(path: str) -> SeriesLoad:
    """Parse and validate a series CSV; rows are sorted by timestamp.

    Out-of-order rows are tolerated (the result reports how many);
    duplicate timestamps are rejected, and so are non-finite values and
    hash rates whose sum overflows.
    """
    # Each row goes straight into its columns: an int list for the
    # timestamps, 8 bytes per value for the rest.
    ts: list[int] = []
    floats = [array("d") for _ in SERIES_COLUMNS[1:]]
    add_t = ts.append
    add_h_a, add_h_b, add_d_a, add_d_b, add_k = (column.append for column in floats)
    n_fields = len(SERIES_COLUMNS)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptySeries(f"{path} is empty")
            if tuple(h.strip() for h in header) != SERIES_COLUMNS:
                raise ParseError(
                    f"expected header {','.join(SERIES_COLUMNS)}, got {','.join(header)}",
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
                    raise ParseError(str(exc), line=lineno, field=_unread_column(row)) from exc
                if timestamp != t:
                    raise ParseError(f"timestamp {row[0]} is not a whole number", line=lineno,
                                     field="timestamp")
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
                add_t(timestamp)
                add_h_a(h_a)
                add_h_b(h_b)
                add_d_a(d_a)
                add_d_b(d_b)
                add_k(k)
        except csv.Error as exc:  # a line csv cannot split, such as an oversized cell
            raise ParseError(str(exc), line=reader.line_num, field="input") from None

    if not ts:
        raise EmptySeries(f"{path} has no data rows")
    out_of_order = sum(1 for a, b in zip(ts, islice(ts, 1, None)) if b < a)
    if out_of_order:
        # One stable permutation sorts every column, as sorting the rows did.
        order = sorted(range(len(ts)), key=ts.__getitem__)
        ts = [ts[i] for i in order]
        floats = [array("d", map(column.__getitem__, order)) for column in floats]
    ts = tuple(ts)
    for a, b in zip(ts, islice(ts, 1, None)):
        if a == b:
            # Sorted rows keep no line numbers, so read the file again for
            # them (a pipe reads empty then, and no line is named).
            with open(path, newline="") as fh:
                lines = [n for n, row in enumerate(csv.reader(fh), 1)
                         if n > 1 and row and int(float(row[0])) == a]
            first = f", first on line {lines[0]}" if len(lines) > 1 else ""
            raise InvariantViolation(f"duplicate timestamp {a}{first}",
                                     line=lines[1] if first else None, field="timestamp")
    return SeriesLoad(dict(zip(SERIES_COLUMNS, (ts, *floats))), out_of_order)


def detect_fickle_periods(series: SeriesLoad, hysteresis: float = 0.02) -> list[FicklePeriod]:
    """Find spans where the difficulty ratio sits below the price ratio.

    A period opens when D_B/D_A falls below k*(1 - hysteresis) and closes
    when it rises above k*(1 + hysteresis); one still open at the series
    end closes there, unless it opened on the last record (no period).
    The ratio is taken as is, which requires both difficulty columns to
    share units (true for PoW-compatible chains).
    """
    n = len(series)
    if n < 2:
        raise EmptySeries("need at least 2 records to detect periods")
    check_range(hysteresis, "hysteresis", 0.0, hi_open=True)
    columns = series.columns
    periods: list[FicklePeriod] = []
    open_start: int | None = None
    open_ratio = 0.0
    for i, (a, b, k) in enumerate(zip(columns["difficulty_a"], columns["difficulty_b"],
                                      columns["price_ratio_k"])):
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
    series: SeriesLoad,
    periods: Sequence[FicklePeriod],
) -> tuple[StatePath, list[float]]:
    """Per-record state estimates plus one r_f estimate per period.

    A period's r_f is the median in-period share minus the median share
    of up to FLANK non-period records on each side, floored at 0.  Period
    records carry their period's r_f; the others carry None (zone_path
    carries the last period estimate forward).
    Raises ValueError for a period that is not 0 <= start <= end < len(series).
    """
    n = len(series)
    for p in periods:
        check_range(p.start_index, "periods", 0, p.end_index, name=f"start_index of {p}")
        check_range(p.end_index, "periods", hi=n - 1, name=f"end_index of {p} in {n} records")
    columns = series.columns
    shares = [b / (a + b) for a, b in zip(columns["hashrate_a"], columns["hashrate_b"])]
    # Each record's period r_f, or None outside every period.  The first
    # pass marks period records with 0.0, so the flanks can skip them.
    rf_at: list[float | None] = [None] * n
    for p in periods:
        rf_at[p.start_index:p.end_index + 1] = [0.0] * (p.end_index + 1 - p.start_index)

    period_rf: list[float] = []
    for p in periods:
        before = (i for i in range(p.start_index - 1, -1, -1) if rf_at[i] is None)
        after = (i for i in range(p.end_index + 1, n) if rf_at[i] is None)
        flanking = [shares[i] for side in (before, after) for i in islice(side, FLANK)]
        base = statistics.median(flanking) if flanking else 0.0
        inside = statistics.median(shares[p.start_index:p.end_index + 1])
        period_rf.append(max(0.0, inside - base))
    for p, rf in zip(periods, period_rf):
        rf_at[p.start_index:p.end_index + 1] = [rf] * (p.end_index + 1 - p.start_index)

    return StatePath({
        "timestamp": columns["timestamp"],
        "share": shares,
        "r_f": rf_at,
        "k": columns["price_ratio_k"],
    }), period_rf


def zone_path(
    estimates: StatePath,
    config: GameConfig,
) -> tuple[list[Zone], list[tuple[int, Zone, Zone]]]:
    """Zone per record (using each record's own k) plus transition events.

    A period record (one with an r_f) has r_b = max(0, share - r_f); the
    others inherit the most recent period's r_f and have r_b = share.
    Records with no observed B mining classify as zone 1: with nobody
    mining coin_B its difficulty has nowhere to fall, which is the
    coin_A-dominant downfall reading rather than the analytic near-axis
    bonanza.  A record that does carry B mining before any period has
    provided an r_f estimate is unresolvable, a refusal that names
    `input`.  A negative or NaN share
    or r_f raises InvalidValue naming that column.
    """
    zones: list[Zone] = []
    add = zones.append
    transitions: list[tuple[int, Zone, Zone]] = []
    last = None  # the previous record's zone
    carried_rf: float | None = None
    n_in, n_de = config.n_in, config.n_de
    zone1 = Zone.ZONE1
    columns = (estimates.columns[c] for c in ("share", "r_f", "k"))
    for i, (share, r_f, k) in enumerate(zip(*columns)):
        # The chained tests are false for NaN as well as below 0.
        if not (share >= 0.0 and (r_f is None or r_f >= 0.0)):
            raise InvalidValue(f"record {i}: power fractions must be >= 0: "
                               f"share {share}, r_f {r_f}",
                               field="r_f" if share >= 0.0 else "share")
        if r_f is not None:
            carried_rf = r_f
            r_b = share - r_f if share > r_f else 0.0
            if r_f > 1.0:
                r_f = 1.0
        elif share == 0.0:
            if zone1 is not last and zones:
                transitions.append((i, last, zone1))
            last = zone1
            add(zone1)
            continue
        elif carried_rf is None:
            raise UnresolvableState(
                f"record {i}: B mining observed before any fickle period "
                "provided an r_f estimate", field="input")
        else:
            # The carried r_f, capped by the room 1 - share (below 1: share > 0).
            r_b = share
            room = 1.0 - share if share < 1.0 else 0.0
            r_f = room if room < carried_rf else carried_rf
        # Keep r_f + r_b <= 1.
        room = 1.0 - r_f
        zone = zone_at(r_f, room if room < r_b else r_b, k, n_in, n_de, ZONE_TOL)
        if zone is not last and zones:
            transitions.append((i, last, zone))
        last = zone
        add(zone)
    return zones, transitions
