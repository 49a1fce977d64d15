import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dualchain.core import (GameConfig, MiningState, Strategy, Zone, check_range, coexist_rb,
                            validate_config)
from dualchain.equilibrium import (
    DivergentState,
    _alpha,
    NotCase3,
    PowerExceedsK,
    PowerNotInGroup,
    Segment,
    boundary13_rb,
    boundary23_rb,
    equilibria,
    finite_deviation,
    solve_alpha,
    solve_beta,
    x_threshold,
    zone_at,
    zone_of,
)
from dualchain.payoff import payoff_triple, payoff_values


def config(k, n_in=2016, n_de=2016, c_stick=0.0, powers=None):
    return validate_config({
        "k": k, "n_in": n_in, "n_de": n_de, "c_stick": c_stick,
        "powers": powers if powers is not None else [1.0 - c_stick],
    })


def alpha_oracle(k, n_in, n_de, iters=100):
    """Independent bisection on the cubic, written without the library."""
    lo, hi = 0.0, k / (1.0 + k)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if n_in * mid**3 + n_de * mid * (1 + k) - k * n_de < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_alpha_matches_independent_oracle_for_unit_k():
    cfg = config(1.0)
    # Root of r^3 + 2r - 1 = 0, precomputed with the oracle above.
    assert solve_alpha(cfg) == pytest.approx(0.45339765151640377, abs=1e-12)
    assert solve_alpha(cfg) == pytest.approx(alpha_oracle(1.0, 2016, 2016), abs=1e-10)


def test_alpha_residual_small_for_random_configs():
    rng = random.Random(20816)
    for _ in range(1000):
        k = rng.uniform(0.01, 1.0)
        n_in = rng.randint(1, 4032)
        n_de = rng.randint(1, 4032)
        cfg = config(k, n_in, n_de)
        a = solve_alpha(cfg)
        assert 0.0 < a < coexist_rb(k)
        assert abs(n_in * a**3 + n_de * a * (1 + k) - k * n_de) <= 1e-9


def test_alpha_bracket_for_small_k():
    a = solve_alpha(config(0.05))
    assert 0.0 < a < 0.05 / 1.05


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 4032), st.integers(1, 4032),
       st.floats(0.0, 0.99))
def test_cached_alpha_is_bit_identical_to_a_fresh_solve(k, n_in, n_de, c_stick):
    cfg = config(k, n_in, n_de, c_stick=c_stick)
    fresh = _alpha.__wrapped__(k, n_in, n_de).hex()
    # The first call may solve and cache, the second reads the cache; equilibria
    # (and solve_beta in case 3) read alpha through the same cache.
    assert solve_alpha(cfg).hex() == solve_alpha(cfg).hex() == fresh
    assert equilibria(cfg).alpha.hex() == fresh


def test_zone_of_coexistence_point():
    cfg = config(0.3)
    assert zone_of(MiningState(0.0, coexist_rb(0.3)), cfg) is Zone.COEXIST


def test_zone_of_left_edge_below_coexistence_is_zone2():
    cfg = config(0.3)
    assert zone_of(MiningState(0.0, 0.1), cfg) is Zone.ZONE2
    assert zone_of(MiningState(0.0, 0.22), cfg) is Zone.ZONE2


def test_zone_of_left_edge_above_coexistence_is_zone1():
    cfg = config(0.3)
    assert zone_of(MiningState(0.0, 0.4), cfg) is Zone.ZONE1


def test_zone_golden_point():
    # Frozen from a payoff-ordering evaluation: at (0.5, 0.01) with
    # k = 0.05 the fickle payoff 1.01183 beats a-only 1.01030, so zone 3.
    cfg = config(0.05)
    assert zone_of(MiningState(0.5, 0.01), cfg) is Zone.ZONE3


def test_zone_of_axis_states():
    cfg = config(0.3)
    assert zone_of(MiningState(0.1, 0.0), cfg) is Zone.ZONE2
    assert zone_of(MiningState(0.3, 0.0), cfg) is Zone.COEXIST
    assert zone_of(MiningState(0.8, 0.0), cfg) is Zone.BOUNDARY13


def test_zone_of_divergent_corner():
    with pytest.raises(DivergentState):
        zone_of(MiningState(0.0, 0.0), config(0.3))


def test_zone_consistent_with_payoff_ordering():
    cfg = config(0.37, n_in=144, n_de=288)
    rng = random.Random(7)
    for _ in range(500):
        r_f = rng.uniform(0.0, 1.0)
        r_b = rng.uniform(1e-6, 1.0 - r_f) if r_f < 1.0 else 0.0
        state = MiningState(r_f, r_b)
        zone = zone_of(state, cfg)
        t = payoff_triple(state, cfg)
        best = max(t.u_f, t.u_a, t.u_b)
        if zone is Zone.ZONE1:
            assert best == t.u_a
        elif zone is Zone.ZONE2:
            assert best == t.u_b
        elif zone is Zone.ZONE3:
            assert best == t.u_f


def test_boundary13_endpoints():
    cfg = config(0.3)
    alpha = solve_alpha(cfg)
    assert boundary13_rb(0.0, cfg) == pytest.approx(coexist_rb(0.3), abs=1e-10)
    assert boundary13_rb(1.0 - alpha, cfg) == pytest.approx(alpha, abs=1e-9)
    assert boundary13_rb(min(1.0, 1.0 - alpha + 0.05), cfg) is None
    assert boundary13_rb(1.0, cfg) is None


def test_boundary13_takes_the_edge_at_a_rounding_sized_residual():
    # Just past the curve's end (1 - alpha, alpha), u_f - u_a on the outer
    # edge is positive by less than the residual tolerance: the edge is
    # the crossing.
    cfg = config(0.3)
    r_f = 1.0 - solve_alpha(cfg) + 1e-10
    u_f, u_a, _ = payoff_values(r_f, 1.0 - r_f, cfg.k, cfg.n_in, cfg.n_de)
    assert 0.0 < u_f - u_a < 1e-9
    assert boundary13_rb(r_f, cfg) == 1.0 - r_f


def test_boundary13_exists_near_one_for_small_k():
    cfg = config(0.05)
    value = boundary13_rb(0.9, cfg)
    assert value is not None
    assert 0.0 < value < coexist_rb(0.05)


def test_boundary23_endpoints():
    cfg = config(0.3)
    assert boundary23_rb(0.3, cfg) == 0.0
    assert boundary23_rb(0.0, cfg) == pytest.approx(coexist_rb(0.3), abs=1e-10)
    assert boundary23_rb(0.31, cfg) is None


def test_boundary13_above_boundary23():
    cfg = config(0.3, n_in=144, n_de=2016)
    for i in range(1, 60):
        r_f = i * 0.3 / 60
        upper = boundary13_rb(r_f, cfg)
        lower = boundary23_rb(r_f, cfg)
        assert upper is not None and lower is not None
        assert upper > lower


def test_solve_beta_endpoints():
    k = 0.3
    alpha = solve_alpha(config(k))
    at_top = config(k, c_stick=coexist_rb(k))
    assert solve_beta(at_top) == pytest.approx(0.0, abs=1e-9)
    at_alpha = config(k, c_stick=alpha)
    assert solve_beta(at_alpha) == pytest.approx(1.0 - alpha, abs=1e-7)
    mid = config(k, c_stick=(alpha + coexist_rb(k)) / 2)
    beta = solve_beta(mid)
    assert 0.0 < beta < 1.0 - mid.c_stick
    # beta really does sit on the boundary curve
    assert boundary13_rb(beta, mid) == pytest.approx(mid.c_stick, abs=1e-9)


def test_solve_beta_rejects_other_cases():
    k = 0.3
    alpha = solve_alpha(config(k))
    with pytest.raises(NotCase3):
        solve_beta(config(k, c_stick=alpha / 2))
    with pytest.raises(NotCase3):
        solve_beta(config(k, c_stick=coexist_rb(k) + 0.05))


def test_equilibria_case1_small_k():
    cfg = config(0.05, c_stick=0.0)
    eq = equilibria(cfg)
    assert eq.case_tag == 1
    assert isinstance(eq.lack_points, Segment)
    assert eq.lack_points.start == pytest.approx(0.05)
    assert eq.lack_points.end == 1.0
    assert eq.coexist_point.r_f == 0.0
    assert eq.coexist_point.r_b == pytest.approx(0.05 / 1.05, abs=1e-12)


def test_equilibria_case4_hash_war():
    eq = equilibria(config(0.05, c_stick=0.9, powers=[0.1]))
    assert eq.case_tag == 4
    assert eq.coexist_point is None
    assert eq.lack_points == MiningState(0.0, 0.9)


def test_equilibria_case2_boundary_inclusive():
    k = 0.3
    alpha = solve_alpha(config(k))
    eq = equilibria(config(k, c_stick=alpha, powers=[1.0 - alpha]))
    assert eq.case_tag == 2
    assert eq.lack_points == MiningState(1.0 - alpha, alpha)


def test_equilibria_case3():
    k = 0.3
    cfg = config(k, c_stick=0.225, powers=[0.775])
    eq = equilibria(cfg)
    assert eq.case_tag == 3
    assert eq.beta is not None
    assert eq.lack_points == MiningState(eq.beta, 0.225)
    assert eq.coexist_point is not None


def test_case_partition_ordered_transitions():
    rng = random.Random(99)
    for _ in range(5):
        k = rng.uniform(0.2, 1.0)
        n_in = rng.randint(6, 2016)
        n_de = rng.randint(6, 2016)
        probe = config(k, n_in, n_de)
        alpha = solve_alpha(probe)
        top = coexist_rb(k)
        tags = []
        for c in [0.0, alpha / 2, alpha, (alpha + top) / 2, top, top + 0.01, 0.9]:
            if c >= 1.0:
                continue
            cfg = config(k, n_in, n_de, c_stick=c, powers=[1.0 - c])
            tags.append(equilibria(cfg).case_tag)
        assert tags == sorted(tags)
        assert tags[0] == 1 and tags[-1] == 4


def test_finite_deviation_from_origin():
    cfg = config(0.3)
    report = finite_deviation(MiningState(0.0, 0.0), 0.01, Strategy.A_ONLY, cfg)
    assert report.best_strategy is Strategy.B_ONLY
    assert report.payoff_gain == pytest.approx(0.3 / 0.01 - 1.0, rel=1e-12)
    assert report.binding_inequality == "a_only->b_only"


def test_finite_deviation_zero_at_segment_threshold():
    # At r_f equal to the player's own threshold the coin_B deviation
    # breaks exactly even: for k = 0.5, equal windows and c_i = 0.1 the
    # threshold is 0.25 + sqrt(0.25 + 4*(0.05 - 0.01))/2.
    cfg = config(0.5, powers=[0.1, 0.9])
    x_i = 0.25 + math.sqrt(0.25 + 4 * (0.05 - 0.01)) / 2
    report = finite_deviation(MiningState(x_i, 0.0), 0.1, Strategy.FICKLE, cfg)
    assert report.payoff_gain <= 1e-9
    assert report.best_strategy is Strategy.FICKLE
    # Just inside the threshold the coin_B move turns profitable.
    inside = finite_deviation(MiningState(x_i - 0.01, 0.0), 0.1, Strategy.FICKLE, cfg)
    assert inside.best_strategy is Strategy.B_ONLY
    assert inside.payoff_gain > 0.0


def test_finite_deviation_group_membership_checked():
    cfg = config(0.3, c_stick=0.1, powers=[0.9])
    with pytest.raises(PowerNotInGroup):
        finite_deviation(MiningState(0.0, 0.5), 0.1, Strategy.FICKLE, cfg)
    with pytest.raises(PowerNotInGroup):
        finite_deviation(MiningState(0.5, 0.1), 0.05, Strategy.B_ONLY, cfg)
    with pytest.raises(PowerNotInGroup):
        finite_deviation(MiningState(0.7, 0.25), 0.1, Strategy.A_ONLY, cfg)
    with pytest.raises(PowerNotInGroup, match="automatic"):
        finite_deviation(MiningState(0.3, 0.2), 0.1, Strategy.AUTOMATIC, cfg)


def reference_finite_deviation(state, c_i, current, config):
    """finite_deviation as it stood with one branch per current strategy."""
    check_range(c_i, "c_i", 0.0, lo_open=True, hi_open=True)
    r_f, r_b = state.r_f, state.r_b
    k, n_in, n_de = config.k, config.n_in, config.n_de
    slack = 1e-15
    if current is Strategy.FICKLE:
        if c_i > r_f + slack:
            raise PowerNotInGroup(f"fickle group holds {r_f}, player has {c_i}")
        u_cur = payoff_values(r_f, r_b, k, n_in, n_de)[0]
        moves = (
            (Strategy.A_ONLY, payoff_values(r_f - c_i, r_b, k, n_in, n_de)[1]),
            (Strategy.B_ONLY, payoff_values(r_f - c_i, r_b + c_i, k, n_in, n_de)[2]),
        )
    elif current is Strategy.A_ONLY:
        if c_i > 1.0 - r_f - r_b + slack:
            raise PowerNotInGroup(f"coin_A group holds {1.0 - r_f - r_b}, player has {c_i}")
        u_cur = payoff_values(r_f, r_b, k, n_in, n_de)[1]
        moves = (
            (Strategy.FICKLE, payoff_values(r_f + c_i, r_b, k, n_in, n_de)[0]),
            (Strategy.B_ONLY, payoff_values(r_f, r_b + c_i, k, n_in, n_de)[2]),
        )
    elif current is Strategy.B_ONLY:
        if c_i > r_b - config.c_stick + slack:
            raise PowerNotInGroup(
                f"non-faction coin_B power is {r_b - config.c_stick}, player has {c_i}"
            )
        u_cur = payoff_values(r_f, r_b, k, n_in, n_de)[2]
        moves = (
            (Strategy.FICKLE, payoff_values(r_f + c_i, r_b - c_i, k, n_in, n_de)[0]),
            (Strategy.A_ONLY, payoff_values(r_f, r_b - c_i, k, n_in, n_de)[1]),
        )
    else:
        raise PowerNotInGroup("automatic agents are not part of the analytic game")
    best_strategy, best_gain = current, 0.0
    for target, value in moves:
        gain = value - u_cur
        if gain > best_gain:
            best_strategy, best_gain = target, gain
    binding = None
    if best_gain > 0.0:
        binding = f"{current.value}->{best_strategy.value}"
    return best_strategy, best_gain, binding


@st.composite
def deviation_cases(draw):
    """A state on the simplex with its faction power, a mover's strategy,
    and a power up to or just past what the mover's group holds."""
    c_stick = draw(st.sampled_from([0.0]) | st.floats(0.0, 0.5, exclude_max=True))
    r_b = draw(st.sampled_from([c_stick, 1.0]) | st.floats(c_stick, 1.0))
    r_f = draw(st.sampled_from([0.0, 1.0 - r_b]) | st.floats(0.0, 1.0 - r_b))
    cfg = config(draw(st.sampled_from([0.05, 0.3, 1.0]) | st.floats(0.01, 1.0)),
                 draw(st.sampled_from([6, 144, 2016])), draw(st.sampled_from([6, 144, 2016])),
                 c_stick=c_stick)
    current = draw(st.sampled_from([Strategy.FICKLE, Strategy.A_ONLY, Strategy.B_ONLY]))
    held = {Strategy.FICKLE: r_f, Strategy.A_ONLY: 1.0 - r_f - r_b,
            Strategy.B_ONLY: r_b - c_stick}[current]
    c_i = draw(st.sampled_from([held, held + 5e-16, held + 1e-15, held + 2e-15, held + 1e-9])
               | st.floats(0.0, 1.0).map(lambda f: f * held))
    return MiningState(r_f, r_b), c_i, current, cfg


def deviation_outcome(fn, *args):
    """(best strategy, float.hex of the gain, binding inequality), or the
    refusal: the type of a PowerNotInGroup (its messages were reworded),
    the type and message of any other."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc).__name__ if isinstance(exc, PowerNotInGroup) else (type(exc), str(exc))
    if not isinstance(result, tuple):
        assert result.current_strategy is args[2]
        result = result.best_strategy, result.payoff_gain, result.binding_inequality
    best, gain, binding = result
    return best, gain.hex(), binding


@settings(max_examples=500, deadline=None)
@given(deviation_cases())
def test_finite_deviation_equals_the_three_branch_rule(case):
    assert (deviation_outcome(finite_deviation, *case)
            == deviation_outcome(reference_finite_deviation, *case))


def test_equilibria_immune_to_infinitesimal_deviation():
    for k, c_stick in [(0.05, 0.0), (0.3, 0.1), (0.3, 0.225), (0.5, 0.6)]:
        cfg = config(k, c_stick=c_stick, powers=[1.0 - c_stick])
        eq = equilibria(cfg)
        states = []
        if eq.coexist_point is not None:
            states.append(eq.coexist_point)
        if isinstance(eq.lack_points, Segment):
            seg = eq.lack_points
            states.extend([
                MiningState(seg.start, 0.0),
                MiningState((seg.start + seg.end) / 2, 0.0),
                MiningState(seg.end, 0.0),
            ])
        else:
            states.append(eq.lack_points)
        c_i = 1e-9
        for state in states:
            for strategy, present in (
                (Strategy.FICKLE, state.r_f),
                (Strategy.A_ONLY, state.r_a),
                (Strategy.B_ONLY, state.r_b - cfg.c_stick),
            ):
                if present < c_i:
                    continue
                report = finite_deviation(state, c_i, strategy, cfg)
                assert report.payoff_gain <= 1e-6, (k, c_stick, state, strategy)


def test_x_threshold_limit_and_arithmetic():
    # c_i -> 0 collapses the discriminant to n_de^2 k^2, so X -> k.
    tiny = config(0.3, c_stick=1.0 - 1e-9, powers=[1e-9])
    assert x_threshold(tiny) == pytest.approx(0.3, abs=1e-6)
    # Direct arithmetic for k = 0.5, equal windows, c_i = 0.1:
    # 0.25 + sqrt(0.25 + 4*(0.05 - 0.01))/2.
    assert x_threshold(config(0.5, c_stick=0.9, powers=[0.1])) == pytest.approx(
        0.5701562118716423, abs=1e-12
    )


def test_x_threshold_uniform_powers_equal_single():
    uniform = x_threshold(config(0.5, powers=[0.25] * 4))
    single = 0.25 + math.sqrt(2016**2 * 0.25 + 4 * 2016 * 2016 * (0.5 * 0.25 - 0.0625)) / (2 * 2016)
    assert uniform == pytest.approx(single, rel=1e-12)


def test_x_threshold_requires_small_players():
    with pytest.raises(PowerExceedsK):
        x_threshold(config(0.3, powers=[0.3, 0.7]))
    # validate_config refuses a config with no players; the raw constructor
    # does not check.
    with pytest.raises(PowerExceedsK, match="no non-faction players"):
        x_threshold(GameConfig(0.3, 2016, 2016, 1.0, ()))


# ---------------------------------------------------------------------------
# zone_at against the MiningState classifier it was split out of, kept here
# as the reference.


def reference_zone_of(state, config, tol=1e-10):
    u_f, u_a, u_b = payoff_values(state.r_f, state.r_b, config.k, config.n_in, config.n_de)
    if math.isinf(u_f) or math.isinf(u_a) or math.isinf(u_b):
        raise DivergentState(f"payoffs diverge at ({state.r_f}, {state.r_b})")

    tie_fa = abs(u_f - u_a) <= tol
    tie_fb = abs(u_f - u_b) <= tol
    if tie_fa and tie_fb:
        return Zone.COEXIST
    if tie_fa:
        return Zone.BOUNDARY13 if u_f > u_b + tol else Zone.ZONE2
    if tie_fb:
        return Zone.BOUNDARY23 if u_f > u_a + tol else Zone.ZONE1
    if abs(u_a - u_b) <= tol:
        if u_f > u_a + tol:
            return Zone.ZONE3
        return Zone.ZONE1 if u_a >= u_b else Zone.ZONE2
    best = max(u_f, u_a, u_b)
    if best == u_a:
        return Zone.ZONE1
    if best == u_b:
        return Zone.ZONE2
    return Zone.ZONE3


def classify_both_ways(r_f, r_b, cfg, tol):
    """(reference outcome, zone_at outcome, zone_of outcome); errors as (type, message).

    Any error counts, not only DivergentState: next to the corners r_b**2
    can underflow, and zone_at must fail there exactly as the reference
    does.
    """
    def outcome(fn):
        try:
            return fn()
        except Exception as exc:
            return type(exc), str(exc)

    return (
        outcome(lambda: reference_zone_of(MiningState(r_f, r_b), cfg, tol)),
        outcome(lambda: zone_at(r_f, r_b, cfg.k, cfg.n_in, cfg.n_de, tol)),
        outcome(lambda: zone_of(MiningState(r_f, r_b), cfg, tol)),
    )


GAME = st.builds(
    lambda k, n_in, n_de: config(k, n_in=n_in, n_de=n_de),
    st.floats(0.01, 1.0), st.sampled_from([6, 144, 2016]), st.sampled_from([6, 144, 2016]),
)
# The wide ties reach the COEXIST, A-B tie and boundary branches off the curves.
TOLS = st.sampled_from([0.0, 1e-10, 1e-6, 1e-3, 0.05, 1.0])


def assert_same_zone(r_f, r_b, cfg, tol):
    ref, at, of = classify_both_ways(r_f, r_b, cfg, tol)
    assert at == ref and of == ref


@settings(max_examples=400, deadline=None)
@given(GAME, st.floats(0.0, 1.0), st.floats(0.0, 1.0), TOLS)
def test_zone_at_matches_reference_on_simplex(cfg, r_f, frac, tol):
    assert_same_zone(r_f, frac * (1.0 - r_f), cfg, tol)


@settings(max_examples=300, deadline=None)
@given(GAME, st.floats(0.0, 1.0), st.booleans(), st.integers(-4, 4),
       st.sampled_from([0.0, 1e-12, -1e-12, 1e-11, -1e-11, 5e-11, -5e-11]), TOLS)
def test_zone_at_matches_reference_on_boundaries(cfg, r_f, curve13, ulps, offset, tol):
    r_b = (boundary13_rb if curve13 else boundary23_rb)(r_f, cfg)
    if r_b is None:
        return
    # Step off the curve by a few ulps or a tie-sized offset, inside the simplex.
    for _ in range(abs(ulps)):
        r_b = math.nextafter(r_b, math.inf if ulps > 0 else -math.inf)
    r_b = min(max(r_b + offset, 0.0), 1.0 - r_f)
    assert_same_zone(r_f, r_b, cfg, tol)


@settings(max_examples=200, deadline=None)
@given(GAME, st.floats(0.0, 1.0), TOLS)
def test_zone_at_matches_reference_on_axis(cfg, r_f, tol):
    assert_same_zone(r_f, 0.0, cfg, tol)
    # The axis tie point r_f = k and its neighbours.
    for x in (math.nextafter(cfg.k, 0.0), cfg.k, math.nextafter(cfg.k, 2.0)):
        assert_same_zone(min(x, 1.0), 0.0, cfg, tol)


def test_zone_at_returns_every_zone_over_a_fixed_point_set():
    cfg = config(0.3)
    points = [(0.1, 0.5), (0.1, 0.1), (0.5, 0.15), (0.0, coexist_rb(0.3)),
              (0.2, boundary13_rb(0.2, cfg)), (0.2, boundary23_rb(0.2, cfg))]
    zones = [zone_at(r_f, r_b, cfg.k, cfg.n_in, cfg.n_de) for r_f, r_b in points]
    assert zones == [Zone.ZONE1, Zone.ZONE2, Zone.ZONE3, Zone.COEXIST, Zone.BOUNDARY13,
                     Zone.BOUNDARY23]
    assert set(zones) == set(Zone)
    # A grid under every tie width, against the reference.
    n = 40
    for tol in (0.0, 1e-10, 1e-3, 0.05, 1.0):
        for r_f, r_b in points + [(i / n, j / n) for i in range(n + 1) for j in range(n + 1 - i)]:
            assert_same_zone(r_f, r_b, cfg, tol)


@pytest.mark.parametrize("k,n_in,n_de,r_b", [
    (0.6, 2016, 144, 0.375),
    (0.3, 2016, 2016, 0.23076923076923078),
    (0.05, 144, 2016, 0.04761904761904762),
])
def test_zone_at_exact_ab_tie_below_fickle_is_zone1(k, n_in, n_de, r_b):
    # On the r_f = 0 axis u_f is a weighted mean of u_a and u_b, so in exact
    # arithmetic it can never sit below both.  At these coexistence points
    # (r_b one ulp above k/(1+k) or equal to it) u_a == u_b in floats and
    # u_f rounds one ulp below them: with no tie width, only the A-B tie
    # branch's `u_a >= u_b` test classifies them, and it says zone 1.
    assert abs(r_b - coexist_rb(k)) <= math.ulp(r_b)
    u_f, u_a, u_b = payoff_values(0.0, r_b, k, n_in, n_de)
    assert u_a == u_b and u_f < u_a
    cfg = config(k, n_in=n_in, n_de=n_de)
    assert zone_at(0.0, r_b, k, n_in, n_de, 0.0) is Zone.ZONE1
    assert_same_zone(0.0, r_b, cfg, 0.0)
    # Any tie width wider than the rounding makes it the coexistence point.
    assert zone_at(0.0, r_b, k, n_in, n_de) is Zone.COEXIST


@pytest.mark.parametrize("r_f,r_b", [(0.0, 0.0), (0.0, 1.0)])
def test_zone_at_divergent_corners_raise_like_reference(r_f, r_b):
    ref, at, of = classify_both_ways(r_f, r_b, config(0.3), 1e-10)
    assert ref == (DivergentState, f"payoffs diverge at ({r_f}, {r_b})")
    assert at == ref and of == ref


@pytest.mark.parametrize("r_f,r_b", [(0.0, 7e-264), (0.0, 1e-200), (1e-170, 3e-305),
                                     (0.0, 5e-324)])
def test_zone_at_raises_divergent_state_where_payoffs_underflow(r_f, r_b):
    # r_b**2 and (r_f + r_b)**2 round to 0; this used to be ZeroDivisionError.
    for n in (6, 2016):
        with pytest.raises(DivergentState, match=r"payoffs diverge at \("):
            zone_at(r_f, r_b, 0.3, n, n)
        with pytest.raises(DivergentState):
            zone_of(MiningState(r_f, r_b), config(0.3, n_in=n, n_de=n))
