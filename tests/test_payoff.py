import math

import pytest
from hypothesis import given, settings, strategies as st

from dualchain.core import MiningState, Strategy, validate_config
from dualchain.payoff import (
    AutomaticNotAnalytic,
    DegenerateState,
    DivergentPayoff,
    DivergentState,
    ap_fickle,
    payoff,
    payoff_triple,
    payoff_values,
)


def config(k, n_in=2016, n_de=2016, c_stick=0.0):
    return validate_config({
        "k": k, "n_in": n_in, "n_de": n_de, "c_stick": c_stick,
        "powers": [1.0 - c_stick],
    })


def raw_payoffs(r_f, r_b, k, n_in, n_de, c_i):
    """Oracle: the raw cycle-accounting payoffs with the player's c_i explicit.

    Phase durations t_b (coin_B mining) and t_a (coin_A mining) come from
    the difficulty cycle; the fickle player's coin_A-phase reward rate is
    c_i times the inverse of the time-averaged coin_A difficulty.
    """
    s = r_f + r_b
    t_b = n_in * r_b / s
    t_a = n_de * s / r_b
    ap_f = c_i * (t_b + t_a) / ((1 - s) * t_b + (1 - r_b) * t_a)
    z = 1.0 / (c_i * (t_b + t_a))
    u_f = ((k * c_i / r_b) * t_b + ap_f * t_a) * z
    u_a = ap_f / c_i
    u_b = (k * n_in / s + k * n_de / r_b) * c_i * z
    return u_f, u_a, u_b


INTERIOR_STATES = [
    (0.3, 0.2), (0.01, 0.7), (0.5, 0.45), (0.2, 0.0001), (0.7, 0.3), (0.05, 0.05),
]


@pytest.mark.parametrize("r_f,r_b", INTERIOR_STATES)
@pytest.mark.parametrize("k", [0.05, 0.3, 1.0])
def test_c_i_cancellation_against_raw_forms(r_f, r_b, k):
    cfg = config(k, n_in=144, n_de=2016)
    triple = payoff_triple(MiningState(r_f, r_b), cfg)
    for c_i in (1e-6, 1e-3, 0.1):
        u_f, u_a, u_b = raw_payoffs(r_f, r_b, k, cfg.n_in, cfg.n_de, c_i)
        assert abs(triple.u_f - u_f) <= 1e-12 * abs(u_f)
        assert abs(triple.u_a - u_a) <= 1e-12 * abs(u_a)
        assert abs(triple.u_b - u_b) <= 1e-12 * abs(u_b)


@pytest.mark.parametrize("k", [0.05, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("n_in,n_de", [(2016, 2016), (144, 2016), (7, 3)])
def test_three_payoffs_equal_at_coexistence_point(k, n_in, n_de):
    cfg = config(k, n_in, n_de)
    triple = payoff_triple(MiningState(0.0, k / (1.0 + k)), cfg)
    expected = 1.0 + k
    assert abs(triple.u_f - expected) <= 1e-9
    assert abs(triple.u_a - expected) <= 1e-9
    assert abs(triple.u_b - expected) <= 1e-9


@pytest.mark.parametrize("k", [0.05, 0.3, 1.0])
def test_three_payoffs_equal_at_axis_point(k):
    cfg = config(k)
    triple = payoff_triple(MiningState(k, 0.0), cfg)
    assert abs(triple.u_f - 1.0) <= 1e-9
    assert abs(triple.u_a - 1.0) <= 1e-9
    assert abs(triple.u_b - 1.0) <= 1e-9


def test_worked_example_b_only_limit():
    # At (0.2, 0) with k = 0.3 a coin_B defector eventually earns 0.3/0.2.
    cfg = config(0.3)
    state = MiningState(0.2, 0.0)
    assert payoff(Strategy.B_ONLY, state, cfg) == pytest.approx(1.5, abs=1e-9)
    assert payoff(Strategy.A_ONLY, state, cfg) == 1.0
    assert payoff(Strategy.FICKLE, state, cfg) == 1.0


def test_b_only_axis_limit_matches_interior_approach():
    cfg = config(0.4)
    limit = payoff(Strategy.B_ONLY, MiningState(0.4, 0.0), cfg)
    assert limit == pytest.approx(1.0, abs=1e-9)
    near = payoff(Strategy.B_ONLY, MiningState(0.4, 1e-8), cfg)
    assert near == pytest.approx(limit, abs=1e-6)


def test_a_only_is_one_anywhere_on_axis():
    cfg = config(0.3)
    for r_f in (0.0, 0.1, 0.6, 1.0):
        assert payoff(Strategy.A_ONLY, MiningState(r_f, 0.0), cfg) == 1.0


def test_triple_at_all_fickle_corner():
    cfg = config(0.4)
    triple = payoff_triple(MiningState(1.0, 0.0), cfg)
    assert triple.u_f == 1.0
    assert triple.u_a == 1.0
    assert triple.u_b == pytest.approx(0.4, abs=1e-12)


def test_triple_flags_divergence_at_origin():
    triple = payoff_triple(MiningState(0.0, 0.0), config(0.3))
    assert triple.divergent == (True, False, True)
    assert triple.u_a == 1.0


def test_payoff_raises_on_divergence():
    cfg = config(0.3)
    with pytest.raises(DivergentPayoff):
        payoff(Strategy.B_ONLY, MiningState(0.0, 0.0), cfg)
    with pytest.raises(DivergentPayoff):
        payoff(Strategy.FICKLE, MiningState(0.0, 0.0), cfg)
    with pytest.raises(DivergentPayoff):
        payoff(Strategy.A_ONLY, MiningState(0.0, 1.0), cfg)


def test_automatic_rejected_by_analytic_payoff():
    with pytest.raises(AutomaticNotAnalytic):
        payoff(Strategy.AUTOMATIC, MiningState(0.3, 0.2), config(0.3))


def test_ap_fickle_at_zero_fickle_share():
    cfg = config(0.3)
    # At r_f = 0 the raw form collapses to c_i / (1 - r_b).
    for r_b, c_i in ((0.25, 0.03), (0.6, 0.2)):
        assert ap_fickle(MiningState(0.0, r_b), cfg, c_i) == pytest.approx(
            c_i / (1.0 - r_b), rel=1e-12
        )
    assert ap_fickle(MiningState(0.0, 0.5), cfg, 0.1) == pytest.approx(0.2, rel=1e-12)


def test_ap_fickle_linear_in_c_i():
    cfg = config(0.7, n_in=144)
    state = MiningState(0.3, 0.25)
    one = ap_fickle(state, cfg, 0.05)
    two = ap_fickle(state, cfg, 0.10)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_ap_fickle_degenerate_without_b_miners():
    with pytest.raises(DegenerateState):
        ap_fickle(MiningState(0.3, 0.0), config(0.3), 0.1)


def test_ap_fickle_raises_typed_errors_at_the_corners():
    cfg = config(0.3)
    # Both divided by zero before ap_fickle went through payoff_values.
    with pytest.raises(DivergentState, match=r"payoffs diverge at \(0.0, 1e-200\)"):
        ap_fickle(MiningState(0.0, 1e-200), cfg, 0.1)
    with pytest.raises(DivergentPayoff, match=r"ap_fickle diverges at \(0.0, 1.0\)"):
        ap_fickle(MiningState(0.0, 1.0), cfg, 0.1)
    for c_i in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"c_i must be in \(0, inf\)"):
            ap_fickle(MiningState(0.3, 0.2), cfg, c_i)


@pytest.mark.parametrize("k,n_in,n_de", [(0.05, 2016, 2016), (0.3, 144, 2016), (1.0, 10, 10)])
def test_boundary_separations_single_crossing_in_r_b(k, n_in, n_de):
    # What the boundary solvers rely on: for fixed r_f, u_f - u_b is
    # strictly increasing in r_b, while u_f - u_a starts positive just
    # above the axis, peaks, and then decreases strictly through its one
    # sign change.  (The difference is not monotone over the whole range:
    # it rises from zero near the axis first.)
    cfg = config(k, n_in, n_de)
    for r_f in (0.05, 0.2, 0.5, 0.8):
        grid = [1e-6 + i / 400 * (1.0 - r_f - 2e-6) for i in range(401)]
        d_fa = []
        d_fb = []
        for r_b in grid:
            t = payoff_triple(MiningState(r_f, r_b), cfg)
            d_fa.append(t.u_f - t.u_a)
            d_fb.append(t.u_f - t.u_b)
        assert all(b > a for a, b in zip(d_fb, d_fb[1:])), \
            f"u_f - u_b not increasing at r_f={r_f}"
        assert d_fa[0] > 0.0
        peak = d_fa.index(max(d_fa))
        tail = d_fa[peak:]
        assert all(b < a for a, b in zip(tail, tail[1:])), \
            f"u_f - u_a not decreasing past its peak at r_f={r_f}"
        sign_changes = sum(
            1 for a, b in zip(d_fa, d_fa[1:]) if (a > 0.0) != (b > 0.0)
        )
        assert sign_changes <= 1


def test_interior_payoffs_strictly_positive():
    cfg = config(0.2, 144, 288)
    for r_f, r_b in INTERIOR_STATES:
        t = payoff_triple(MiningState(r_f, r_b), cfg)
        assert t.u_f > 0.0 and t.u_a > 0.0 and t.u_b > 0.0
        assert not any(t.divergent)


def previous_payoff_values(r_f, r_b, k, n_in, n_de):
    """payoff_values before its underflow branch, kept as the reference."""
    if r_b <= 0.0:
        if r_f <= 0.0:
            return (math.inf, 1.0, math.inf)
        return (1.0, 1.0, k / r_f)
    if r_b >= 1.0:
        return (math.inf, math.inf, k)
    s = r_f + r_b
    rb2 = r_b * r_b
    s2 = s * s
    q = n_in * rb2 + n_de * s2
    d = (1.0 - s) * n_in * rb2 + (1.0 - r_b) * n_de * s2
    return (
        k * n_in * r_b / q + n_de * s2 / d,
        q / d,
        k * (n_in * r_b + n_de * s) / q,
    )


TINY = st.one_of(st.just(0.0), st.floats(5e-324, 1e-140),
                 st.builds(lambda e: 10.0 ** e, st.floats(-323.0, -140.0)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(TINY, st.floats(0.0, 1.0)), st.one_of(TINY, st.floats(0.0, 1.0)),
       st.floats(0.01, 1.0), st.sampled_from([1, 6, 2016]), st.sampled_from([1, 6, 2016]))
def test_payoff_values_unchanged_except_where_the_kernel_divided_by_zero(r_f, r_b, k,
                                                                          n_in, n_de):
    r_b = min(r_b, 1.0 - r_f)
    try:
        want = previous_payoff_values(r_f, r_b, k, n_in, n_de)
    except ZeroDivisionError:
        with pytest.raises(DivergentState, match="payoffs diverge"):
            payoff_values(r_f, r_b, k, n_in, n_de)
    else:
        assert payoff_values(r_f, r_b, k, n_in, n_de) == want


def test_payoff_triple_raises_divergent_state_where_squares_underflow():
    with pytest.raises(DivergentState, match=r"payoffs diverge at \(0.0, 1e-200\)"):
        payoff_triple(MiningState(0.0, 1e-200), config(0.05))
