import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotune.budgets import ladder, rung_capacity


def test_three_rungs_at_eta_five():
    assert ladder(0.01, 5.0) == (0.04, 0.2, 1.0)


def test_eight_rungs_at_eta_one_point_nine():
    rungs = ladder(0.01, 1.9)
    assert len(rungs) == 8
    assert rungs[-1] == 1.0
    for a, b in zip(rungs, rungs[1:]):
        assert b / a == pytest.approx(1.9, abs=1e-12)
    assert all(r >= 0.01 for r in rungs)


def test_single_rung_when_next_below_min():
    assert ladder(0.5, 3.0) == (1.0,)


def test_ladder_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ladder(0.0, 2.0)
    with pytest.raises(ValueError):
        ladder(1.0, 2.0)  # min_budget not below the full budget
    with pytest.raises(ValueError):
        ladder(0.01, 1.0)


def test_rung_capacity_examples():
    assert [rung_capacity(b) for b in ladder(0.01, 5.0)] == [25, 5, 1]  # floor(1 / 0.04), ...

    rungs10 = ladder(0.05, 10.0)
    assert rungs10[0] == pytest.approx(0.1)
    assert rung_capacity(rungs10[0]) == 10


def test_rung_capacity_full_budget_is_one():
    assert rung_capacity(ladder(0.01, 1.9)[-1]) == 1


def test_capacity_non_increasing_in_rung_index():
    for eta in (1.5, 1.9, 2.0, 3.0, 5.0):
        caps = [rung_capacity(b) for b in ladder(0.003, eta)]
        assert caps == sorted(caps, reverse=True)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-4, 0.5),
    st.floats(1.01, 10.0),
    st.floats(1.01, 10.0),
)
def test_monotonicity_in_eta_and_min_budget(min_budget, eta_a, eta_b):
    lo_eta, hi_eta = sorted((eta_a, eta_b))
    assert len(ladder(min_budget, hi_eta)) <= len(ladder(min_budget, lo_eta))
    # decreasing min_budget never decreases the rung count
    assert len(ladder(min_budget / 2, lo_eta)) >= len(ladder(min_budget, lo_eta))


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-4, 0.9), st.floats(1.01, 20.0))
def test_rung_geometry_invariants(min_budget, eta):
    rungs = ladder(min_budget, eta)
    assert rungs[-1] == 1.0
    assert len(rungs) >= 1
    assert all(r >= min_budget for r in rungs)
    for a, b in zip(rungs, rungs[1:]):
        assert b / a == pytest.approx(eta, rel=1e-12)
