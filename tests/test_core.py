import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from dualchain.core import (
    EmptyPowers,
    GameConfig,
    InvalidValue,
    KAboveOne,
    MiningState,
    NegativePower,
    NonPositiveK,
    PowerSumMismatch,
    Schedule,
    Zone,
    ZeroBlockCount,
    c_max,
    validate_config,
)
from dualchain.ingest import Basis


def test_validate_accepts_reference_parameters():
    cfg = validate_config({
        "k": 0.3, "n_in": 2016, "n_de": 2016, "c_stick": 0.0,
        "powers": [0.5, 0.3, 0.2],
    })
    assert cfg.k == 0.3
    assert cfg.n_in == cfg.n_de == 2016
    assert cfg.powers == (0.5, 0.3, 0.2)


def test_validate_accepts_bitcoin_like_parameters():
    # k around 0.05 with a small faction, as in the BTC/BCH reading.
    cfg = validate_config({
        "k": 0.05, "n_in": 2016, "n_de": 2016, "c_stick": 0.02,
        "powers": [0.49, 0.49],
    })
    assert cfg.c_stick == 0.02


@pytest.mark.parametrize("k,exc", [(1.2, KAboveOne), (0.0, NonPositiveK), (-0.3, NonPositiveK)])
def test_validate_rejects_bad_k(k, exc):
    with pytest.raises(exc):
        validate_config({"k": k, "n_in": 2016, "n_de": 2016, "powers": [1.0]})


@pytest.mark.parametrize("field,value", [("n_in", 0), ("n_de", 0), ("n_in", -5), ("n_de", 2016.5)])
def test_validate_rejects_bad_block_counts(field, value):
    raw = {"k": 0.3, "n_in": 2016, "n_de": 2016, "powers": [1.0], field: value}
    with pytest.raises(ZeroBlockCount):
        validate_config(raw)


def test_validate_rejects_power_sum_mismatch():
    with pytest.raises(PowerSumMismatch):
        validate_config({"k": 0.3, "n_in": 10, "n_de": 10, "powers": [0.5, 0.4]})


def test_validate_rejects_nonpositive_powers():
    with pytest.raises(NegativePower):
        validate_config({"k": 0.3, "n_in": 10, "n_de": 10, "powers": [1.1, -0.1]})
    with pytest.raises(NegativePower):
        validate_config({"k": 0.3, "n_in": 10, "n_de": 10, "powers": [1.0, 0.0]})
    with pytest.raises(NegativePower):
        validate_config({"k": 0.3, "n_in": 10, "n_de": 10, "c_stick": -0.1, "powers": [1.1]})


@given(
    k=st.floats(0.01, 1.0),
    n_in=st.integers(1, 4032),
    n_de=st.integers(1, 4032),
    weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    c_frac=st.floats(0.0, 0.9),
)
def test_validate_idempotent(k, n_in, n_de, weights, c_frac):
    total = sum(weights)
    powers = [w / total * (1.0 - c_frac) for w in weights]
    cfg = validate_config(
        {"k": k, "n_in": n_in, "n_de": n_de, "c_stick": c_frac, "powers": powers},
    )
    again = validate_config(cfg)
    assert again == cfg


def test_c_max():
    base = {"k": 0.3, "n_in": 10, "n_de": 10}
    assert c_max(validate_config({**base, "powers": [0.5, 0.3, 0.2]})) == 0.5
    assert c_max(validate_config({**base, "powers": [0.25] * 4})) == 0.25
    assert c_max(validate_config({**base, "powers": [1.0]})) == 1.0


def test_c_max_empty_powers():
    with pytest.raises(EmptyPowers):
        c_max(GameConfig(k=0.3, n_in=10, n_de=10, c_stick=1.0, powers=()))


def test_c_max_bounded_by_non_faction_power():
    cfg = validate_config({
        "k": 0.3, "n_in": 10, "n_de": 10, "c_stick": 0.4, "powers": [0.35, 0.25],
    })
    assert c_max(cfg) <= 1.0 - cfg.c_stick


@given(r_f=st.floats(0.0, 1.0), frac=st.floats(0.0, 1.0))
def test_mining_state_residual_in_unit_interval(r_f, frac):
    state = MiningState(r_f, (1.0 - r_f) * frac)
    assert 0.0 <= state.r_a <= 1.0


@pytest.mark.parametrize("r_f,r_b", [
    (-0.1, 0.2), (0.2, -0.1), (0.7, 0.4),
    (math.nan, 0.1), (0.1, math.nan), (math.inf, 0.0), (0.0, math.inf), (-math.inf, 0.1),
])
def test_mining_state_rejects_invalid(r_f, r_b):
    with pytest.raises(ValueError):
        MiningState(r_f, r_b)


@pytest.mark.parametrize("r_f,r_b,field", [
    (-0.1, 0.2, "r_f"), (0.2, -0.1, "r_b"), (0.7, 0.4, "r_b"), (1.5, 0.0, "r_f"),
    (math.nan, 0.1, "r_f"), (0.1, math.nan, "r_b"), (-0.1, math.nan, "r_f"),
    (math.inf, 0.0, "r_f"), (0.0, math.inf, "r_b"), (-math.inf, 0.1, "r_f"),
])
def test_mining_state_refusal_names_the_first_failing_component(r_f, r_b, field):
    with pytest.raises(InvalidValue) as info:
        MiningState(r_f, r_b)
    assert info.value.field == field


@pytest.mark.parametrize("c_stick,powers,exc", [
    (math.nan, [1.0], NegativePower),
    (-math.inf, [1.0], NegativePower),
    (math.inf, [1.0], PowerSumMismatch),
    (0.0, [math.inf], PowerSumMismatch),
])
def test_validate_rejects_non_finite_powers(c_stick, powers, exc):
    with pytest.raises(exc):
        validate_config({"k": 0.3, "n_in": 10, "n_de": 10, "c_stick": c_stick,
                         "powers": powers})


@pytest.mark.parametrize("pairs", [
    [(0, math.nan)], [(math.nan, 0.3)], [(0, 0.3), (10, math.inf)], [(-math.inf, 0.3)],
])
def test_schedule_rejects_non_finite_entries(pairs):
    with pytest.raises(ValueError, match=r"schedule \w+ must be in \(-inf, inf\)"):
        Schedule.from_pairs(pairs)


@pytest.mark.parametrize("member", [*Zone, *Basis])
def test_enum_members_keep_identity_and_value(member):
    assert pickle.loads(pickle.dumps(member)) is member
    assert copy.deepcopy(member) is member
    assert copy.copy(member) is member
    assert type(member)(member.value) is member
    assert {m: m.value for m in type(member)}[member] == member.value
