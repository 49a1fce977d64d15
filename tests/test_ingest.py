import random
import re
import statistics
import tracemalloc
from array import array
from collections import namedtuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualchain.core import GameConfig, InvalidValue, MiningState, Strategy, Zone, validate_config
from dualchain.chainsim import (ChainWorld, EpochFixed, EpochWithEda, MinerAgent, PerBlockWindow,
                                run, sample_series)
from dualchain.equilibrium import zone_of
from dualchain.ingest import (
    EmptySeries,
    FicklePeriod,
    InvariantViolation,
    ParseError,
    SERIES_COLUMNS,
    SeriesLoad,
    StatePath,
    UnresolvableState,
    detect_fickle_periods,
    estimate_state_path,
    load_series,
    zone_path,
)


def write_csv(path, rows, header=SERIES_COLUMNS):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return str(path)


# Rows of a SeriesLoad and of a StatePath, for the record-based references below.
SeriesRecord = namedtuple("SeriesRecord", SERIES_COLUMNS)
StateEstimate = namedtuple("StateEstimate", ("timestamp", "share", "r_f", "k"))
ROW = {SeriesLoad: SeriesRecord, StatePath: StateEstimate}
# A StatePath row with the basis and r_b that the references store.
BasedEstimate = namedtuple("BasedEstimate", ("timestamp", "basis", "share", "r_f", "r_b", "k"))


def with_columns(cls, records):
    """The SeriesLoad or StatePath (`cls`) that holds `records` as its columns."""
    return cls({name: [getattr(r, name) for r in records] for name in ROW[cls]._fields})


def rows_of(loaded):
    """The rows of a SeriesLoad or StatePath, as records."""
    return list(map(ROW[type(loaded)], *loaded.columns.values()))


def with_basis(estimates):
    """StateEstimate rows with basis and r_b derived as the estimator once
    stored them: gray with r_b = max(0, share - r_f) where r_f is set,
    non-gray with r_b = share elsewhere."""
    return [BasedEstimate(e.timestamp, "non_gray", e.share, None, e.share, e.k)
            if e.r_f is None else
            BasedEstimate(e.timestamp, "gray_period", e.share, e.r_f,
                          max(0.0, e.share - e.r_f), e.k)
            for e in estimates]


def synthetic_row(ts, share, d_b_over_d_a, k=0.3, total=1.0, d_a=1.0):
    return (ts, total * (1 - share), total * share, d_a, d_a * d_b_over_d_a, k)


def test_load_series_happy_path(tmp_path):
    path = write_csv(tmp_path / "s.csv", [
        synthetic_row(0, 0.1, 0.5),
        synthetic_row(600, 0.1, 0.5),
        synthetic_row(1200, 0.2, 0.2),
    ])
    loaded = load_series(path)
    assert len(loaded) == 3
    assert loaded.out_of_order_count == 0
    assert loaded.columns["hashrate_b"][0] == pytest.approx(0.1)


def test_load_series_rejects_bad_k(tmp_path):
    path = write_csv(tmp_path / "s.csv", [
        synthetic_row(0, 0.1, 0.5, k=1.3),
    ])
    with pytest.raises(InvariantViolation) as err:
        load_series(path)
    assert err.value.field == "price_ratio_k"


def test_load_series_sorts_and_counts_out_of_order(tmp_path):
    path = write_csv(tmp_path / "s.csv", [
        synthetic_row(1200, 0.1, 0.5),
        synthetic_row(0, 0.1, 0.5),
        synthetic_row(600, 0.1, 0.5),
    ])
    loaded = load_series(path)
    assert list(loaded.columns["timestamp"]) == [0, 600, 1200]
    assert loaded.out_of_order_count > 0


def test_load_series_rejects_duplicates_and_bad_shapes(tmp_path):
    dup = write_csv(tmp_path / "dup.csv", [
        synthetic_row(0, 0.1, 0.5),
        synthetic_row(0, 0.2, 0.5),
    ])
    with pytest.raises(InvariantViolation):
        load_series(dup)
    bad_header = write_csv(tmp_path / "hdr.csv", [], header=("time", "x"))
    with pytest.raises(ParseError):
        load_series(bad_header)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmptySeries):
        load_series(str(empty))
    header_only = write_csv(tmp_path / "ho.csv", [])
    with pytest.raises(EmptySeries):
        load_series(header_only)
    zero = write_csv(tmp_path / "zero.csv", [(0, 0.0, 0.0, 1.0, 0.5, 0.3)])
    with pytest.raises(InvariantViolation):
        load_series(zero)


@pytest.mark.parametrize("cells,field", [
    pytest.param({column: value}, field, id=f"{value}-{column}-{field}")
    for value in ("nan", "inf", "-inf")
    for column, field in ((1, "hashrate"), (2, "hashrate"), (3, "difficulty"), (4, "difficulty"))
] + [
    # Each rate is finite, but h_a + h_b overflows and the B share would be 0.
    pytest.param({1: "1e308", 2: "1e308"}, "hashrate", id="overflowing-sum-hashrate"),
])
def test_load_series_rejects_non_finite_values(tmp_path, cells, field):
    row = list(synthetic_row(600, 0.1, 0.5))
    for column, value in cells.items():
        row[column] = value
    path = write_csv(tmp_path / "s.csv", [synthetic_row(0, 0.1, 0.5), row])
    with pytest.raises(InvariantViolation) as err:
        load_series(path)
    assert (err.value.line, err.value.field) == (3, field)


@pytest.mark.parametrize("body,lines", [
    (["0", "600", "600"], (3, 4)),
    # Out of order, with blank lines and a whole float between the two.
    (["1200", "600", "", "0", "", "600.0"], (3, 7)),
])
def test_a_duplicate_timestamp_names_both_lines(tmp_path, body, lines):
    path = tmp_path / "s.csv"
    path.write_text("\n".join([",".join(SERIES_COLUMNS)] + [
        t and ",".join([t, *map(str, synthetic_row(0, 0.1, 0.5)[1:])]) for t in body]) + "\n")
    with pytest.raises(InvariantViolation) as err:
        load_series(str(path))
    assert (err.value.line, err.value.field) == (lines[1], "timestamp")
    assert str(err.value) == f"line {lines[1]}: duplicate timestamp 600, first on line {lines[0]}"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_series_rejects_non_finite_timestamp(tmp_path, value):
    path = write_csv(tmp_path / "s.csv", [synthetic_row(0, 0.1, 0.5),
                                          (value, *synthetic_row(600, 0.1, 0.5)[1:])])
    with pytest.raises(ParseError) as err:
        load_series(path)
    assert err.value.line == 3


@pytest.mark.parametrize("first,second,bad_line", [
    # 600.9 used to load as 600 without notice.
    ("0", "600.9", 3),
    # Both truncated to 0 and were refused as a duplicate timestamp.
    ("0.4", "0.6", 2),
])
def test_load_series_rejects_fractional_timestamp(tmp_path, first, second, bad_line):
    path = write_csv(tmp_path / "s.csv", [(first, *synthetic_row(0, 0.1, 0.5)[1:]),
                                          (second, *synthetic_row(600, 0.1, 0.5)[1:])])
    with pytest.raises(ParseError) as err:
        load_series(path)
    assert err.value.line == bad_line
    assert f"line {bad_line}: timestamp " in str(err.value)


def test_load_series_reads_whole_float_timestamps_as_before(tmp_path):
    path = write_csv(tmp_path / "s.csv", [("0", *synthetic_row(0, 0.1, 0.5)[1:]),
                                          ("600.0", *synthetic_row(600, 0.1, 0.5)[1:]),
                                          ("1.2e3", *synthetic_row(1200, 0.1, 0.5)[1:])])
    timestamps = load_series(path).columns["timestamp"]
    assert timestamps == (0, 600, 1200)
    assert all(type(t) is int for t in timestamps)


def test_shuffled_series_loads_into_the_same_columns_as_a_sorted_row_reference(tmp_path):
    rows = [synthetic_row(1_500_000_000 + 600 * i, 0.05 + (i % 13) / 40, 0.2 + (i % 7) / 10,
                          k=0.1 + (i % 5) / 10, total=1e18 * (1 + i % 3), d_a=1e12 + i)
            for i in range(500)]
    random.Random(5).shuffle(rows)
    loaded = load_series(write_csv(tmp_path / "s.csv", rows))
    # The per-row reference: the row tuples, sorted by timestamp.
    reference = sorted(rows, key=lambda r: r[0])
    assert loaded.out_of_order_count == sum(b[0] < a[0] for a, b in zip(rows, rows[1:])) > 0
    assert list(loaded.columns) == list(SERIES_COLUMNS)
    for name, column in zip(SERIES_COLUMNS, zip(*reference)):
        assert list(loaded.columns[name]) == list(column), name
    assert type(loaded.columns["timestamp"]) is tuple
    assert all(type(t) is int for t in loaded.columns["timestamp"])
    assert all(type(loaded.columns[name]) is array and loaded.columns[name].typecode == "d"
               for name in SERIES_COLUMNS[1:])


@pytest.mark.parametrize("shuffled,bound", [
    # Measured at 20 000 rows: 92 bytes per row in order and 182 shuffled
    # (the sort's permutation and the sorted copies); 345 with a tuple per row.
    (False, 128),
    (True, 224),
])
def test_load_series_peak_bytes_per_row_is_bounded(tmp_path, shuffled, bound):
    n = 20_000
    rows = [synthetic_row(1_500_000_000 + 600 * i, 0.1 + (i % 9) / 30, 0.3 + (i % 4) / 10,
                          total=5e18, d_a=1e12) for i in range(n)]
    if shuffled:
        random.Random(3).shuffle(rows)
    path = write_csv(tmp_path / "s.csv", rows)
    tracemalloc.start()
    try:
        loaded = load_series(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == n and (loaded.out_of_order_count > 0) == shuffled
    assert peak / n <= bound, peak / n


def test_detect_reads_difficulties_whose_sum_overflows():
    # Near the float maximum any sum of difficulties overflows; their ratio does not.
    series = with_columns(SeriesLoad, [SeriesRecord(i, 0.9, 0.1, 1e308, d_b, 0.3)
                                       for i, d_b in enumerate((5e307, 5e307, 1e307, 5e307))])
    [period] = detect_fickle_periods(series, hysteresis=0.0)
    assert (period.start_index, period.end_index) == (2, 3)
    assert period.trigger_ratio == 1e307 / 1e308


def square_wave_series(k=0.3, low=0.1, high=0.5, period=20, n=100):
    """Difficulty ratio alternating below and above k."""
    rows = []
    for i in range(n):
        ratio = low if (i // period) % 2 == 1 else high
        share = 0.4 if ratio == low else 0.1
        rows.append(synthetic_row(i * 600, share, ratio, k=k))
    return rows


def test_detect_fickle_periods_square_wave(tmp_path):
    path = write_csv(tmp_path / "sq.csv", square_wave_series())
    loaded = load_series(path)
    periods = detect_fickle_periods(loaded, hysteresis=0.02)
    assert len(periods) == 2
    for p in periods:
        assert p.start_index < p.end_index
        assert p.trigger_ratio < 0.3
    # Disjoint and sorted.
    for a, b in zip(periods, periods[1:]):
        assert a.end_index < b.start_index


def test_detect_no_crossings(tmp_path):
    rows = [synthetic_row(i * 600, 0.1, 0.5) for i in range(30)]
    loaded = load_series(write_csv(tmp_path / "flat.csv", rows))
    assert detect_fickle_periods(loaded) == []


def test_detect_unclosed_period_runs_to_end(tmp_path):
    rows = [synthetic_row(i * 600, 0.4, 0.1) for i in range(30)]
    loaded = load_series(write_csv(tmp_path / "low.csv", rows))
    periods = detect_fickle_periods(loaded)
    assert len(periods) == 1
    assert periods[0].start_index == 0
    assert periods[0].end_index == 29


def test_detect_requires_minimum_length(tmp_path):
    rows = [synthetic_row(i * 600, 0.1, 0.5) for i in range(5)]
    loaded = load_series(write_csv(tmp_path / "s.csv", rows))
    with pytest.raises(EmptySeries):
        detect_fickle_periods(with_columns(SeriesLoad, rows_of(loaded)[:1]))


def test_hysteresis_monotone_in_period_count(tmp_path):
    rows = square_wave_series(period=7, n=200)
    loaded = load_series(write_csv(tmp_path / "sq.csv", rows))
    counts = [
        len(detect_fickle_periods(loaded, hysteresis=h))
        for h in (0.0, 0.02, 0.1, 0.5, 2.0)
    ]
    assert counts == sorted(counts, reverse=True)


def test_estimate_state_path_square_wave(tmp_path):
    rows = square_wave_series()
    loaded = load_series(write_csv(tmp_path / "sq.csv", rows))
    periods = detect_fickle_periods(loaded)
    estimates, period_rf = estimate_state_path(loaded, periods)
    assert len(estimates) == len(loaded)
    for rf in period_rf:
        assert rf == pytest.approx(0.3, abs=0.02)
    for e in with_basis(rows_of(estimates)):
        assert 0.0 <= e.share <= 1.0
        if e.basis == "non_gray":
            assert e.r_b == e.share
        else:
            assert e.r_f is not None and e.r_b is not None


def test_estimate_constant_series_no_periods(tmp_path):
    rows = [synthetic_row(i * 600, 0.25, 0.5) for i in range(40)]
    loaded = load_series(write_csv(tmp_path / "c.csv", rows))
    estimates, period_rf = estimate_state_path(loaded, [])
    assert period_rf == []
    assert all(e.basis == "non_gray" and e.r_b == pytest.approx(0.25)
               for e in with_basis(rows_of(estimates)))


def test_estimate_whole_series_period(tmp_path):
    rows = [synthetic_row(i * 600, 0.4, 0.1) for i in range(40)]
    loaded = load_series(write_csv(tmp_path / "g.csv", rows))
    periods = [FicklePeriod(0, 39, 0.1)]
    estimates, _ = estimate_state_path(loaded, periods)
    # Every record is gray: each carries the period's r_f.
    assert all(r_f is not None for r_f in estimates.columns["r_f"])


def test_zone_path_all_a_series(tmp_path):
    cfg = validate_config({"k": 0.3, "n_in": 2016, "n_de": 2016, "powers": [1.0]})
    rows = [(i * 600, 1.0, 0.0, 1.0, 0.5, 0.3) for i in range(20)]
    loaded = load_series(write_csv(tmp_path / "a.csv", rows))
    estimates, _ = estimate_state_path(loaded, [])
    zones, transitions = zone_path(estimates, cfg)
    assert zones == [Zone.ZONE1] * 20
    assert transitions == []


def test_zone_path_unresolvable_before_first_period(tmp_path):
    cfg = validate_config({"k": 0.3, "n_in": 2016, "n_de": 2016, "powers": [1.0]})
    rows = [synthetic_row(i * 600, 0.25, 0.5) for i in range(10)]
    loaded = load_series(write_csv(tmp_path / "u.csv", rows))
    estimates, _ = estimate_state_path(loaded, [])
    with pytest.raises(UnresolvableState) as refused:
        zone_path(estimates, cfg)
    assert refused.value.field == "input"


def test_zone_path_price_step_flips_zone(tmp_path):
    cfg = validate_config({"k": 0.1, "n_in": 2016, "n_de": 6, "powers": [1.0]})
    rows = []
    # One fickle period to pin r_f = 0.3, then a stationary stretch at
    # (0.3, 0.055) during which k jumps: same state, wider zone 2.
    for i in range(10):
        rows.append(synthetic_row(i * 600, 0.355, 0.05, k=0.1))
    for i in range(10, 40):
        k = 0.1 if i < 25 else 0.9
        rows.append(synthetic_row(i * 600, 0.055, 0.5, k=k))
    loaded = load_series(write_csv(tmp_path / "k.csv", rows))
    periods = detect_fickle_periods(loaded)
    estimates, _ = estimate_state_path(loaded, periods)
    zones, transitions = zone_path(estimates, cfg)
    assert zones[24] is Zone.ZONE3
    assert zones[30] is Zone.ZONE2
    assert any(frm is Zone.ZONE3 and to is Zone.ZONE2 for _, frm, to in transitions)


@pytest.mark.parametrize("estimate,field", [
    pytest.param(StateEstimate(0, -0.01, 0.2, 0.3), "share", id="estimate0"),
    pytest.param(StateEstimate(0, 0.3, -0.2, 0.3), "r_f", id="estimate1"),
    # max(0.0, nan - r_f) is 0.0, so a NaN share would pass as r_b 0 unchecked.
    pytest.param(StateEstimate(0, float("nan"), 0.2, 0.3), "share", id="estimate2"),
    pytest.param(StateEstimate(0, 0.3, float("nan"), 0.3), "r_f", id="estimate3"),
    # Outside a period a negative share used to read as zone 1.
    pytest.param(StateEstimate(0, -0.01, None, 0.3), "share", id="estimate4"),
    pytest.param(StateEstimate(0, float("nan"), None, 0.3), "share", id="estimate5"),
    pytest.param(StateEstimate(0, -0.01, -0.2, 0.3), "share", id="estimate6"),
])
def test_zone_path_rejects_hand_built_negative_fractions(estimate, field):
    cfg = validate_config({"k": 0.3, "n_in": 2016, "n_de": 2016, "powers": [1.0]})
    ok = StateEstimate(0, 0.3, 0.2, 0.3)
    with pytest.raises(InvalidValue, match=r"^record 1: power fractions must be >= 0") as err:
        zone_path(with_columns(StatePath, [ok, estimate]), cfg)
    assert (err.value.code, err.value.field) == ("invalid_input", field)


def reference_zone_path(estimates, config, tol=1e-10):
    """zone_path as it stood when it classified through MiningState and zone_of."""
    zones, transitions = [], []
    carried_rf = None
    n_in, n_de, c_stick, powers = config.n_in, config.n_de, config.c_stick, config.powers
    for i, est in enumerate(estimates):
        if est.basis == "gray_period":
            if est.r_f is None:
                raise UnresolvableState(f"period record {i} lacks an r_f estimate")
            carried_rf = est.r_f
            r_f, r_b = est.r_f, est.r_b if est.r_b is not None else 0.0
        else:
            if est.share <= 0.0:
                if zones and Zone.ZONE1 is not zones[-1]:
                    transitions.append((i, zones[-1], Zone.ZONE1))
                zones.append(Zone.ZONE1)
                continue
            if carried_rf is None:
                raise UnresolvableState(
                    f"record {i}: B mining observed before any fickle period "
                    "provided an r_f estimate"
                )
            r_b = est.r_b if est.r_b is not None else est.share
            r_f = min(carried_rf, max(0.0, 1.0 - r_b))
        cfg = config if est.k == config.k else GameConfig(est.k, n_in, n_de, c_stick, powers)
        r_f = min(r_f, 1.0)
        zone = zone_of(MiningState(r_f, min(r_b, 1.0 - r_f)), cfg, tol)
        if zones and zone is not zones[-1]:
            transitions.append((i, zones[-1], zone))
        zones.append(zone)
    return zones, transitions


@st.composite
def estimate_paths(draw):
    out = []
    # Fractions above 1 and a share equal to its record's r_f reach every
    # clamp of zone_path on both sides of its comparison.
    above_one = st.floats(1.0, 3.0, exclude_min=True)
    for t in range(draw(st.integers(1, 60))):
        k = draw(st.sampled_from([0.3, 0.05, 1.0]) | st.floats(0.01, 1.0))
        r_f = draw(st.none() | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) | above_one)
        shares = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) | above_one
        if r_f is not None:
            shares |= st.just(r_f)
        share = draw(shares)
        out.append(StateEstimate(t, share, r_f, k))
    return out


@settings(max_examples=120, deadline=None)
@given(estimate_paths())
def test_zone_path_matches_reference(estimates):
    cfg = validate_config({"k": 0.3, "n_in": 144, "n_de": 2016, "powers": [1.0]})

    def outcome(fn, path):
        try:
            return fn(path, cfg)
        except Exception as exc:
            return type(exc), str(exc)

    assert (outcome(zone_path, with_columns(StatePath, estimates))
            == outcome(reference_zone_path, with_basis(estimates)))


def test_round_trip_recovers_simulated_state(tmp_path):
    r_f, r_b, k, n = 0.3, 0.1, 0.3, 504
    s = r_f + r_b
    t_b, t_a = n * r_b / s, n * s / r_b
    pbar = ((1 - s) * t_b + (1 - r_b) * t_a) / (t_b + t_a)
    agents = [
        MinerAgent("f", r_f, Strategy.FICKLE),
        MinerAgent("b", r_b, Strategy.B_ONLY),
        MinerAgent("a", 1 - s, Strategy.A_ONLY),
    ]
    world = ChainWorld(difficulty_a=pbar, difficulty_b=r_b, k=k)
    path = tmp_path / "sim.csv"
    with open(path, "w") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        run(world, agents, EpochFixed(10**9), EpochFixed(n), 6 * (t_b + t_a), seed=21,
            sinks=[sample_series(lambda state, stamps: fh.writelines(
                ",".join(map(str, (ts, *state))) + "\n" for ts in stamps), step=1.0)])
    loaded = load_series(str(path))
    periods = detect_fickle_periods(loaded, hysteresis=0.02)
    assert periods
    estimates, period_rf = estimate_state_path(loaded, periods)
    assert statistics.median(period_rf) == pytest.approx(r_f, abs=0.05)
    # Outside the periods (no r_f) the share observes r_b.
    non_gray = [e.share for e in rows_of(estimates) if e.r_f is None]
    assert statistics.median(non_gray) == pytest.approx(r_b, abs=0.05)

    # Reconstructed zone path agrees with the generating game state on
    # at least 90% of records.
    cfg = validate_config({"k": k, "n_in": n, "n_de": n, "powers": [1.0]})
    zones, _ = zone_path(estimates, cfg)
    truth = zone_of(MiningState(r_f, r_b), cfg)
    agreement = sum(1 for z in zones if z is truth) / len(zones)
    assert agreement >= 0.9


@pytest.mark.parametrize("seed", [21, 22])
@pytest.mark.parametrize("regime_b,floor", [
    (EpochFixed(504), 0.99),
    (EpochWithEda(504, 6, 12.0, 0.8), 0.95),
    (PerBlockWindow(144), 0.65),
    (PerBlockWindow(36), 0.75),
], ids=["epoch:504", "eda:504:6:12:0.8", "perblock:144", "perblock:36"])
def test_round_trip_agreement_per_coin_b_regime(tmp_path, regime_b, floor, seed):
    """Characterises today's detector, not a bound to keep: the share of
    records whose reconstructed zone is the generating state's, for the
    round trip above under each coin_B regime.  At the default hysteresis
    the per-block figures sit near 0.70 (window 144) and 0.80 (window 36);
    a detector that follows the share jumps is expected to raise those
    floors."""
    r_f, r_b, k, n = 0.3, 0.1, 0.3, 504
    s = r_f + r_b
    t_b, t_a = n * r_b / s, n * s / r_b
    pbar = ((1 - s) * t_b + (1 - r_b) * t_a) / (t_b + t_a)
    agents = [
        MinerAgent("f", r_f, Strategy.FICKLE),
        MinerAgent("b", r_b, Strategy.B_ONLY),
        MinerAgent("a", 1 - s, Strategy.A_ONLY),
    ]
    world = ChainWorld(difficulty_a=pbar, difficulty_b=r_b, k=k)
    path = tmp_path / "sim.csv"
    with open(path, "w") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        run(world, agents, EpochFixed(10**9), regime_b, 6 * (t_b + t_a), seed=seed,
            sinks=[sample_series(lambda state, stamps: fh.writelines(
                ",".join(map(str, (ts, *state))) + "\n" for ts in stamps), step=1.0)])
    loaded = load_series(str(path))
    estimates, _ = estimate_state_path(loaded, detect_fickle_periods(loaded, hysteresis=0.02))
    cfg = validate_config({"k": k, "n_in": n, "n_de": n, "powers": [1.0]})
    zones, _ = zone_path(estimates, cfg)
    truth = zone_of(MiningState(r_f, r_b), cfg)
    assert sum(1 for z in zones if z is truth) / len(zones) >= floor


@pytest.mark.parametrize("start,end", [(30, 45), (-3, 2), (5, 3), (40, 40), (0, -1)])
def test_estimate_rejects_periods_outside_the_series(tmp_path, start, end):
    loaded = load_series(write_csv(tmp_path / "sq.csv", square_wave_series(n=40)))
    period = FicklePeriod(start, end, 0.1)
    with pytest.raises(ValueError, match=re.escape(repr(period))):
        estimate_state_path(loaded, [FicklePeriod(2, 4, 0.1), period])


def reference_estimate_state_path(series, periods, flank=24):
    """estimate_state_path as it stood before shares were computed once."""
    def b_share(rec):
        return rec.hashrate_b / (rec.hashrate_a + rec.hashrate_b)

    in_period = [False] * len(series)
    for p in periods:
        for i in range(p.start_index, p.end_index + 1):
            in_period[i] = True
    period_rf = []
    for p in periods:
        inside = [b_share(series[i]) for i in range(p.start_index, p.end_index + 1)]
        flanking = []
        i = p.start_index - 1
        while i >= 0 and len(flanking) < flank:
            if not in_period[i]:
                flanking.append(b_share(series[i]))
            i -= 1
        after = []
        i = p.end_index + 1
        while i < len(series) and len(after) < flank:
            if not in_period[i]:
                after.append(b_share(series[i]))
            i += 1
        flanking.extend(after)
        base = statistics.median(flanking) if flanking else 0.0
        period_rf.append(max(0.0, statistics.median(inside) - base))
    estimates = []
    period_idx_of = {}
    for pi, p in enumerate(periods):
        for i in range(p.start_index, p.end_index + 1):
            period_idx_of[i] = pi
    for i, rec in enumerate(series):
        share = b_share(rec)
        if in_period[i]:
            rf = period_rf[period_idx_of[i]]
            estimates.append(BasedEstimate(rec.timestamp, "gray_period", share,
                                           r_f=rf, r_b=max(0.0, share - rf),
                                           k=rec.price_ratio_k))
        else:
            estimates.append(BasedEstimate(rec.timestamp, "non_gray", share,
                                           r_f=None, r_b=share, k=rec.price_ratio_k))
    return estimates, period_rf


def test_estimate_adjacent_and_end_periods_equal_reference(tmp_path):
    loaded = load_series(write_csv(tmp_path / "sq.csv", square_wave_series(n=40)))
    periods = [FicklePeriod(0, 3, 0.1), FicklePeriod(4, 9, 0.1), FicklePeriod(15, 39, 0.1)]
    estimates, period_rf = estimate_state_path(loaded, periods)
    assert (with_basis(rows_of(estimates)), period_rf) == reference_estimate_state_path(
        rows_of(loaded), periods)


@st.composite
def series_and_periods(draw):
    n = draw(st.integers(1, 80))
    rate = st.floats(0.0, 10.0, allow_nan=False)
    series = []
    for i in range(n):
        h_a, h_b = draw(rate), draw(rate)
        if h_a == 0.0 and h_b == 0.0:
            h_b = 1.0
        series.append(SeriesRecord(i * 600, h_a, h_b, 1.0, 0.5,
                                   draw(st.floats(0.01, 1.0))))
    # Disjoint sorted periods from cut points; gaps of zero make adjacent
    # periods, and cuts at 0 and n - 1 put periods at both ends.
    cuts = sorted(draw(st.lists(st.integers(0, n - 1), max_size=12)))
    periods = []
    next_free = 0
    for a, b in zip(cuts[::2], cuts[1::2]):
        start = max(a, next_free)
        if start <= b:
            periods.append(FicklePeriod(start, b, 0.1))
            next_free = b + 1
    return series, periods


@settings(max_examples=300, deadline=None)
@given(series_and_periods())
def test_estimate_state_path_equals_reference(case):
    series, periods = case
    estimates, period_rf = estimate_state_path(with_columns(SeriesLoad, series), periods)
    assert (with_basis(rows_of(estimates)), period_rf) == reference_estimate_state_path(
        series, periods)


@st.composite
def series_rows(draw):
    """Rows of a series file in some written order, and the config to classify them.

    Fickle stretches (difficulty ratio well below k) alternate with
    quiet ones; the first and the last stretch may be fickle, some quiet
    rows carry no B mining, k moves between a few values, and a few
    adjacent rows are swapped so the loader has to sort them.
    """
    rows = []
    fickle = draw(st.booleans())
    for _ in range(draw(st.integers(1, 6))):
        for _ in range(draw(st.integers(1, 12))):
            k = draw(st.sampled_from([0.1, 0.3, 1.0]))
            if fickle:
                share, ratio = draw(st.floats(0.2, 0.9)), 0.5 * k
            else:
                share, ratio = draw(st.sampled_from([0.0]) | st.floats(0.0, 0.3)), 1.5 * k
            rows.append(synthetic_row(len(rows) * 600, share, ratio, k=k,
                                      d_a=draw(st.floats(0.5, 2.0))))
        fickle = not fickle
    for i in draw(st.lists(st.integers(0, max(len(rows) - 2, 0)), max_size=6)):
        if i + 1 < len(rows):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return rows, draw(st.sampled_from([(144, 2016), (2016, 6)]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(series_rows())
def test_columnar_path_equals_record_path(tmp_path, case):
    rows, (n_in, n_de) = case
    cfg = validate_config({"k": 0.3, "n_in": n_in, "n_de": n_de, "powers": [1.0]})
    loaded = load_series(write_csv(tmp_path / "s.csv", rows))
    records = rows_of(loaded)
    assert len(loaded) == len(records) == len(rows)
    assert [r.timestamp for r in records] == sorted(r[0] for r in rows)

    def outcome(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            return type(exc), str(exc)

    periods = outcome(detect_fickle_periods, loaded)
    if not isinstance(periods, list):
        assert periods == (EmptySeries, "need at least 2 records to detect periods")
        return
    estimates, period_rf = estimate_state_path(loaded, periods)
    assert isinstance(estimates, StatePath)
    assert (with_basis(rows_of(estimates)), period_rf) == reference_estimate_state_path(
        records, periods)
    zones = outcome(zone_path, estimates, cfg)
    assert zones == outcome(reference_zone_path, with_basis(rows_of(estimates)), cfg)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(0.2, 5.0),
                          st.sampled_from([0.1, 0.3, 1.0])), min_size=2, max_size=40),
       st.integers(-60, 60), st.sampled_from([0.0, 0.02, 0.5]))
def test_detect_depends_only_on_the_difficulty_ratio(rows, m, hysteresis):
    # d_b is drawn as a multiple of k * d_a, so the ratio crosses k often.
    rows = [(d_a, d_a * k * f, k) for d_a, f, k in rows]

    def series(scale):
        # Every difficulty stays a normal float, so the scaling by 2**m is exact.
        return with_columns(SeriesLoad, [SeriesRecord(i, 0.9, 0.1, d_a * scale, d_b * scale, k)
                                         for i, (d_a, d_b, k) in enumerate(rows)])

    periods = detect_fickle_periods(series(1.0), hysteresis)
    assert detect_fickle_periods(series(2.0 ** m), hysteresis) == periods
    for p in periods:
        d_a, d_b, _ = rows[p.start_index]
        assert p.trigger_ratio == d_b / d_a
