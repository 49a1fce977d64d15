"""Zone classification, boundary curves, and Nash-equilibrium sets.

Two boundary curves partition the simplex: on boundary_13 the fickle and
coin_A-only payoffs are equal, on boundary_23 the fickle and coin_B-only
payoffs are equal.  Both are solved by bisection, which is safe because
for fixed r_f each difference changes sign exactly once in r_b:
u_f - u_b is strictly increasing, and u_f - u_a is positive just above
the axis and crosses to negative exactly once (it rises before falling,
so it is not globally monotone, but the crossing is unique).

The equilibrium set of the infinitesimal-power game falls into four cases
by the faction power c_stick, with transitions at alpha (the root of
n_in*r^3 + n_de*r*(1+k) - k*n_de = 0) and at k/(1+k):

    case 1  c_stick = 0              coexist point + segment {r_f >= k, r_b = 0}
    case 2  c_stick <= alpha         coexist point + (1 - c_stick, c_stick)
    case 3  alpha < c_stick <= k/(1+k)   coexist point + (beta, c_stick)
    case 4  c_stick > k/(1+k)        (0, c_stick) only

The finite-power game is served by per-state deviation checks
(`finite_deviation`) and the closed-form segment threshold
(`x_threshold`); the finite-power case-split points in c_stick have no
closed form, so none is computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import (ZONE_TOL, DualchainError, GameConfig, MiningState, Strategy, Zone, check_range,
                   coexist_rb)
from .payoff import _INF, _STRATEGY_INDEX, DivergentState, payoff_values

_BISECT_MAX_ITER = 200

_ZONE1, _ZONE2, _ZONE3 = Zone.ZONE1, Zone.ZONE2, Zone.ZONE3
_BOUNDARY13, _BOUNDARY23, _COEXIST = Zone.BOUNDARY13, Zone.BOUNDARY23, Zone.COEXIST


class NotCase3(DualchainError):
    code = "not_case_3"


class PowerNotInGroup(DualchainError):
    code = "power_not_in_group"


class PowerExceedsK(DualchainError):
    code = "power_exceeds_k"


def _bisect(f, lo: float, hi: float, f_lo_negative: bool) -> float:
    """Root of a monotone f on [lo, hi] with a sign change, to float limits."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (f(mid) < 0.0) == f_lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_alpha(config: GameConfig) -> float:
    """Unique root of n_in*r^3 + n_de*r*(1+k) - k*n_de = 0 in (0, k/(1+k)).

    The cubic is strictly increasing on [0, 1] (all derivative terms
    positive), negative at 0 and positive at k/(1+k), so plain bisection
    converges; iterated to float resolution.  Solved once per
    (k, n_in, n_de): a sweep over c_stick reuses the root.
    """
    return _alpha(config.k, config.n_in, config.n_de)


@functools.lru_cache(maxsize=1024)
def _alpha(k: float, n_in: int, n_de: int) -> float:
    one_plus_k = 1.0 + k

    def f(r: float) -> float:
        return n_in * r * r * r + n_de * r * one_plus_k - k * n_de

    return _bisect(f, 0.0, coexist_rb(k), f_lo_negative=True)


def zone_of(state: MiningState, config: GameConfig, tol: float = ZONE_TOL) -> Zone:
    """Classify a state by payoff ordering under tie tolerance `tol`.

    Raises DivergentState where a payoff component diverges (the corners
    (0, 0) and (0, 1)).
    """
    return zone_at(state.r_f, state.r_b, config.k, config.n_in, config.n_de, tol)


def zone_at(r_f: float, r_b: float, k: float, n_in: int, n_de: int,
            tol: float = ZONE_TOL) -> Zone:
    """`zone_of` on plain floats, for callers that classify many points.

    Neither the point nor `tol` is checked: callers that classify many
    points pass a simplex point and check `tol` (finite, >= 0) once.
    """
    u_f, u_a, u_b = payoff_values(r_f, r_b, k, n_in, n_de)
    # Plain comparisons only: this classifies every point of the zone map.
    if u_f == _INF or u_a == _INF or u_b == _INF:
        raise DivergentState(f"payoffs diverge at ({r_f}, {r_b})")
    if -tol <= u_f - u_a <= tol:
        if -tol <= u_f - u_b <= tol:
            return _COEXIST
        return _BOUNDARY13 if u_f > u_b + tol else _ZONE2
    if -tol <= u_f - u_b <= tol:
        return _BOUNDARY23 if u_f > u_a + tol else _ZONE1
    if -tol <= u_a - u_b <= tol:
        # A-B tie away from the fickle boundaries: the fickle payoff decides.
        if u_f > u_a + tol:
            return _ZONE3
        # u_f below both: exact arithmetic never gives it (u_f - u_a and
        # u_f - u_b cannot both be negative), but rounding does next to the
        # coexistence point when tol is under an ulp of the payoffs.
        return _ZONE1 if u_a >= u_b else _ZONE2
    # No two payoffs tie, so the strict maximum names the zone.
    if u_a > u_b:
        return _ZONE1 if u_a > u_f else _ZONE3
    return _ZONE2 if u_b > u_f else _ZONE3


# Upper evaluation bound stays off the singular corner (0, 1); edge roots
# are accepted when the residual there is already this close to zero.
_EDGE_CLEARANCE = 1e-12
_EDGE_RESIDUAL_TOL = 1e-9


def _gap(config: GameConfig, index: int, r_f: float, r_b: float) -> float:
    """u_f minus the payoff at `index` of payoff_values (1: u_a, 2: u_b)."""
    values = payoff_values(r_f, r_b, config.k, config.n_in, config.n_de)
    return values[0] - values[index]


def boundary13_rb(r_f: float, config: GameConfig) -> float | None:
    """r_b where the fickle and coin_A-only payoffs tie, or None.

    The curve runs from (0, k/(1+k)) to (1 - alpha, alpha) on the outer
    edge (dipping slightly below alpha in between); for larger r_f there
    is no solution with r_f + r_b <= 1.  The difference u_f - u_a is
    positive just above the axis and changes sign exactly once, so the
    bisected crossing is the curve.
    """
    g = functools.partial(_gap, config, 1, r_f)  # u_f - u_a at r_b
    hi = min(1.0 - r_f, 1.0 - _EDGE_CLEARANCE)
    if hi <= 0.0:
        return None
    g_hi = g(hi)
    if g_hi > 0.0:
        if g_hi < _EDGE_RESIDUAL_TOL:
            return hi
        return None
    # g > 0 just above the axis (fickle beats A at tiny r_b), g(hi) <= 0.
    return _bisect(g, 1e-15, hi, f_lo_negative=False)


def boundary23_rb(r_f: float, config: GameConfig) -> float | None:
    """r_b where the fickle and coin_B-only payoffs tie, or None.

    The curve runs from (0, k/(1+k)) down to (k, 0); the r_b -> 0 limit
    at r_f = k is returned as 0.0, and r_f > k has no solution.
    """
    if r_f > config.k:
        return None
    if r_f == config.k:
        return 0.0
    hi = min(1.0 - r_f, 1.0 - _EDGE_CLEARANCE)
    # u_f - u_b < 0 just above the axis for r_f < k, > 0 at hi (B-only
    # cannot beat fickle near the outer edge for k <= 1).
    return _bisect(functools.partial(_gap, config, 2, r_f), 1e-15, hi, f_lo_negative=True)


def solve_beta(config: GameConfig) -> float:
    """r_f at which boundary_13 crosses the line r_b = c_stick.

    Defined for alpha <= c_stick <= k/(1+k); the endpoints give
    beta = 1 - alpha and beta = 0 respectively.  For c_stick strictly
    above alpha the crossing is unique (the curve dips below alpha in
    the middle and climbs back only to alpha at its outer end, so the
    line c_stick > alpha is crossed once, on the descending branch).
    """
    alpha = solve_alpha(config)
    top = coexist_rb(config.k)
    c = check_range(config.c_stick, "c_stick", alpha, top, error=NotCase3,
                    name="c_stick (beta needs alpha <= c_stick <= k/(1+k))")
    if c == alpha:
        # Seam with the corner equilibrium (1 - c_stick, c_stick).
        return 1.0 - alpha

    # Walk the line r_b = c_stick instead of re-solving the curve: u_f - u_a
    # is positive at r_f = 0 (c_stick below k/(1+k)) and negative at the
    # outer edge (c_stick above alpha), crossing once.
    return _bisect(lambda r_f: _gap(config, 1, r_f, c), 0.0, 1.0 - c, f_lo_negative=False)


@dataclass(frozen=True)
class Segment:
    """Equilibrium segment {(r_f, 0) : start <= r_f <= end} on the axis."""

    start: float
    end: float = 1.0


@dataclass(frozen=True)
class EquilibriumSet:
    """Nash equilibria of the infinitesimal-power game.

    `lack_points` is the lack-of-loyal-miners part: a Segment on the
    r_b = 0 axis in case 1, a single MiningState otherwise.  The
    coexistence point is absent in case 4.
    """

    case_tag: int
    coexist_point: MiningState | None
    lack_points: MiningState | Segment
    alpha: float
    beta: float | None = None

    def to_dict(self) -> dict:
        if isinstance(self.lack_points, Segment):
            lack = {"kind": "segment", "start_r_f": self.lack_points.start,
                    "end_r_f": self.lack_points.end, "r_b": 0.0}
        else:
            lack = {"kind": "point", "r_f": self.lack_points.r_f,
                    "r_b": self.lack_points.r_b}
        coexist = None
        if self.coexist_point is not None:
            coexist = {"r_f": self.coexist_point.r_f, "r_b": self.coexist_point.r_b}
        return {
            "case_tag": self.case_tag,
            "coexist_point": coexist,
            "lack_points": lack,
            "alpha": self.alpha,
            "beta": self.beta,
        }


def equilibria(config: GameConfig) -> EquilibriumSet:
    """Equilibrium set under the infinitesimal-power interpretation.

    Case boundaries follow the closed/open conventions of the
    characterization: case 2 holds for c_stick <= alpha, case 3 for
    alpha < c_stick <= k/(1+k).
    """
    alpha = solve_alpha(config)
    top = coexist_rb(config.k)
    coexist = MiningState(0.0, top)
    c = config.c_stick

    if c == 0.0:
        return EquilibriumSet(1, coexist, Segment(start=config.k), alpha)
    if c <= alpha:
        return EquilibriumSet(2, coexist, MiningState(1.0 - c, c), alpha)
    if c <= top:
        beta = solve_beta(config)
        return EquilibriumSet(3, coexist, MiningState(beta, c), alpha, beta=beta)
    return EquilibriumSet(4, None, MiningState(0.0, c), alpha)


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of a single-player deviation check at one state.

    best_strategy is the current strategy, and payoff_gain 0, when no
    deviation is profitable.
    """

    best_strategy: Strategy
    payoff_gain: float


# Group-membership slack: a player's power must already be inside its group.
_GROUP_SLACK = 1e-15


def finite_deviation(
    state: MiningState, c_i: float, current: Strategy, config: GameConfig
) -> DeviationReport:
    """Best unilateral deviation of a c_i-power player at `state`.

    Evaluates the shifted-state payoffs of the two alternative
    strategies (the mover's power leaves its group and joins the
    target's) against the current payoff.  Ties keep the current
    strategy; payoff_gain is 0 exactly when no deviation profits.
    """
    check_range(c_i, "c_i", 0.0, lo_open=True, hi_open=True)
    r_f, r_b = state.r_f, state.r_b
    k, n_in, n_de = config.k, config.n_in, config.n_de
    fickle, b_only = Strategy.FICKLE, Strategy.B_ONLY
    try:
        own = _STRATEGY_INDEX[current]
    except KeyError:
        raise PowerNotInGroup("automatic agents are not part of the analytic game") from None
    # The power the mover's group holds; coin_B's factions never move.
    held = (r_f, 1.0 - r_f - r_b, r_b - config.c_stick)[own]
    if c_i > held + _GROUP_SLACK:
        raise PowerNotInGroup(f"{current.value} group holds {held}, player has {c_i}")
    u_cur = payoff_values(r_f, r_b, k, n_in, n_de)[own]
    # The mover's power leaves its group ...
    rf_out = r_f - c_i if current is fickle else r_f
    rb_out = r_b - c_i if current is b_only else r_b
    best_strategy, best_gain = current, 0.0
    for target, index in _STRATEGY_INDEX.items():
        if target is not current:
            # ... and joins the target's.
            value = payoff_values(rf_out + c_i if target is fickle else rf_out,
                                  rb_out + c_i if target is b_only else rb_out,
                                  k, n_in, n_de)[index]
            gain = value - u_cur
            if gain > best_gain:
                best_strategy, best_gain = target, gain
    return DeviationReport(best_strategy, best_gain)


def x_threshold(config: GameConfig) -> float:
    """Start of the finite-power equilibrium segment on the r_b = 0 axis.

    Per-player value k/2 + sqrt(n_de^2 k^2 + 4 n_de n_in (k c_i - c_i^2))
    / (2 n_de), maximized over the non-faction players; requires every
    c_i < k (the discriminant's sign regime).
    """
    k, n_in, n_de = config.k, config.n_in, config.n_de
    if not config.powers:
        raise PowerExceedsK("config has no non-faction players")
    best = 0.0
    for c_i in config.powers:
        check_range(c_i, "powers", hi=k, hi_open=True, error=PowerExceedsK, name="player power")
        disc = n_de * n_de * k * k + 4.0 * n_de * n_in * (k * c_i - c_i * c_i)
        best = max(best, 0.5 * k + math.sqrt(disc) / (2.0 * n_de))
    return best
