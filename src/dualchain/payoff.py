"""Analytic payoff (profit-density) functions of the two-coin game.

Payoffs are coin_A units earned per P_ag time per unit of mining power.
The raw cycle-accounting forms carry the player's own power c_i, but
c_i cancels;
these implementations use the reduced c_i-free forms.  With s = r_f + r_b:

    q = n_in*r_b^2 + n_de*s^2
    d = (1-s)*n_in*r_b^2 + (1-r_b)*n_de*s^2     # avg coin_A power * (cycle scale)

    u_a = q / d                                  # 1 / (average coin_A difficulty)
    u_f = k*n_in*r_b / q + n_de*s^2 / d
    u_b = k*(n_in*r_b + n_de*s) / q

Boundary limits (r_b = 0): u_f = u_a = 1 (fickle miners end up mining
coin_A at difficulty 1) and u_b = k/r_f, the long-run value after the
coin_B difficulty settles at r_f.  The corners (0, 0) and (0, 1) have
payoffs that grow without bound for some strategies; those components
are reported as math.inf by `payoff_triple` and raised as
`DivergentPayoff` by `payoff`.  Next to (0, 0), where r_b^2 and s^2
underflow to zero, the forms cannot be evaluated in floats at all; there
`payoff_values` and the functions built on it raise `DivergentState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DualchainError, GameConfig, MiningState, Strategy, check_range

_INF = math.inf


class DegenerateState(DualchainError):
    code = "degenerate_state"


class DivergentPayoff(DualchainError):
    code = "divergent_payoff"


class AutomaticNotAnalytic(DualchainError):
    code = "automatic_not_analytic"


class DivergentState(DualchainError):
    code = "divergent_state"


@dataclass(frozen=True)
class PayoffTriple:
    """Profit densities of the three strategies at one state.

    Divergent components are math.inf; check `divergent` or compare with
    math.isinf before arithmetic.
    """

    u_f: float
    u_a: float
    u_b: float

    @property
    def divergent(self) -> tuple[bool, bool, bool]:
        return (math.isinf(self.u_f), math.isinf(self.u_a), math.isinf(self.u_b))


def payoff_values(r_f: float, r_b: float, k: float, n_in: int, n_de: int):
    """(u_f, u_a, u_b) as plain floats; divergent components are inf.

    Hot path shared by the equilibrium and dynamics modules; no
    allocation beyond the returned tuple.  Raises DivergentState where
    r_b^2 and s^2 underflow, as at (0, 1e-200).
    """
    if r_b <= 0.0:
        if r_f <= 0.0:
            return (_INF, 1.0, _INF)
        return (1.0, 1.0, k / r_f)
    if r_b >= 1.0:
        return (_INF, _INF, k)
    s = r_f + r_b
    rb2 = r_b * r_b
    s2 = s * s
    q = n_in * rb2 + n_de * s2
    d = (1.0 - s) * n_in * rb2 + (1.0 - r_b) * n_de * s2
    if d == 0.0:
        # Only when rb2 and s2 are both 0, so q is 0 as well.
        raise DivergentState(f"payoffs diverge at ({r_f}, {r_b})")
    return (
        k * n_in * r_b / q + n_de * s2 / d,
        q / d,
        k * (n_in * r_b + n_de * s) / q,
    )


def payoff_triple(state: MiningState, config: GameConfig) -> PayoffTriple:
    """All three payoffs at `state`; divergence flagged, not thrown."""
    u_f, u_a, u_b = payoff_values(state.r_f, state.r_b, config.k, config.n_in, config.n_de)
    return PayoffTriple(u_f, u_a, u_b)


_STRATEGY_INDEX = {Strategy.FICKLE: 0, Strategy.A_ONLY: 1, Strategy.B_ONLY: 2}


def payoff(strategy: Strategy, state: MiningState, config: GameConfig) -> float:
    """Profit density of one strategy at `state`.

    Raises AutomaticNotAnalytic for Strategy.AUTOMATIC and
    DivergentPayoff where the value grows without bound (fickle and
    coin_B-only at (0, 0); fickle and coin_A-only at (0, 1)).
    """
    if strategy is Strategy.AUTOMATIC:
        raise AutomaticNotAnalytic("automatic mining is a simulator policy, not an analytic strategy")
    values = payoff_values(state.r_f, state.r_b, config.k, config.n_in, config.n_de)
    value = values[_STRATEGY_INDEX[strategy]]
    if math.isinf(value):
        raise DivergentPayoff(
            f"{strategy.value} payoff diverges at ({state.r_f}, {state.r_b})"
        )
    return value


def ap_fickle(state: MiningState, config: GameConfig, c_i: float) -> float:
    """Reward per P_ag of a fickle player during its coin_A phase.

    The raw form with the player's power c_i kept explicit: c_i times
    u_a, the inverse of the average coin_A difficulty; linear in c_i.
    """
    check_range(c_i, "c_i", 0.0, lo_open=True, hi_open=True)
    check_range(state.r_b, "r_b", 0.0, lo_open=True, error=DegenerateState, name="ap_fickle r_b")
    u_a = payoff_values(state.r_f, state.r_b, config.k, config.n_in, config.n_de)[1]
    if math.isinf(u_a):
        raise DivergentPayoff(f"ap_fickle diverges at ({state.r_f}, {state.r_b})")
    return c_i * u_a
