"""Seed plans, method plans, band ranks and the one optimizer contract."""
import inspect

import numpy as np
import pytest

from autotune.budgets import ladder, rung_capacity
from autotune.dehb import run_dehb
from autotune.objectives import SeededValley
from autotune.pbt import run_pbt
from autotune.protocol import MethodSpec, SeedPlan, rank_methods, run_method
from autotune.rs import run_rs
from autotune.runner import TrialRunner, TuneResult

# ---------------------------------------------------------------------------
# band ranks


def test_band_rank_shares_the_anchor_rank_inside_its_std_and_skips_ranks():
    # a anchors rank 1 and its band (mean - std = 8) takes b; c anchors the
    # next free rank, 1 + the two already ranked
    table = rank_methods({"env": {"a": (10.0, 2.0), "b": (8.5, 0.1), "c": (7.0, 3.0)}})
    assert [table.ranks[("env", m)] for m in "abc"] == [1, 1, 3]


def test_band_rank_uses_only_the_anchors_std():
    # a's narrow band leaves b out; b anchors rank 2, and its wide band takes c
    table = rank_methods({"env": {"a": (10.0, 0.5), "b": (9.0, 5.0), "c": (8.0, 0.0)}})
    assert [table.ranks[("env", m)] for m in "abc"] == [1, 2, 2]


def test_band_rank_lower_is_better_bands_upward():
    cells = {"env": {"a": (1.0, 0.5), "b": (1.4, 0.0), "c": (1.6, 0.0)}}
    table = rank_methods(cells, higher_is_better=False)
    assert [table.ranks[("env", m)] for m in "abc"] == [1, 1, 3]


def test_band_rank_ties_share_a_rank():
    table = rank_methods({"env": {"a": (3.0, 0.0), "b": (3.0, 0.0), "c": (2.0, 0.0)}})
    assert [table.ranks[("env", m)] for m in "abc"] == [1, 1, 3]


def test_mean_rank_averages_environments_and_rounds_to_one_decimal():
    cells = {
        "e1": {"a": (1.0, 0.0), "b": (0.0, 0.0)},
        "e2": {"a": (1.0, 0.0), "b": (0.0, 0.0)},
        "e3": {"a": (0.0, 0.0), "b": (1.0, 0.0)},
    }
    table = rank_methods(cells)
    assert table.mean_ranks == {"a": pytest.approx(4 / 3), "b": pytest.approx(5 / 3)}
    assert table.mean_rank_rounded("a") == 1.3 and table.mean_rank_rounded("b") == 1.7
    assert table.cells[("e3", "b")] == (1.0, 0.0)


def test_rank_methods_rejects_missing_cells_and_no_environments():
    with pytest.raises(ValueError, match="missing cell"):
        rank_methods({"e1": {"a": (1.0, 0.0), "b": (0.0, 0.0)}, "e2": {"a": (1.0, 0.0)}})
    with pytest.raises(ValueError, match="at least one environment"):
        rank_methods({})


# ---------------------------------------------------------------------------
# seed plans


def test_seed_plan_keeps_disjoint_seeds_as_int_tuples():
    plan = SeedPlan([0, 1, 2], np.arange(5, 8))
    assert plan.tuning_seeds == (0, 1, 2) and plan.test_seeds == (5, 6, 7)


@pytest.mark.parametrize(
    "tuning, test, message",
    [
        ([0, 1, 2], [2, 3], "overlap"),
        ([0, 0, 1], [5], "duplicates"),
        ([0, 1], [5, 6, 5], "duplicates"),
        ([], [5], "non-empty"),
        ([0], [], "non-empty"),
    ],
)
def test_seed_plan_rejects_overlapping_duplicate_or_empty_seeds(tuning, test, message):
    with pytest.raises(ValueError, match=message):
        SeedPlan(tuning, test)


# ---------------------------------------------------------------------------
# method plans


def test_plan_rejects_a_budget_below_one_full_run():
    for kind in ("rs", "dehb", "pbt"):
        with pytest.raises(ValueError, match="budget_runs must be >= 1"):
            MethodSpec(kind).plan(0)


def test_rs_plan_spends_one_run_per_configuration():
    assert MethodSpec("rs").plan(7) == {"n_configs": 7}
    assert MethodSpec("rs", options={"n_configs": 3}).plan(7) == {"n_configs": 3}
    with pytest.raises(ValueError, match="planned spend of 8 full runs exceeds the budget of 7"):
        MethodSpec("rs", options={"n_configs": 8}).plan(7)


def test_dehb_plan_fits_whole_iterations_into_the_budget():
    # rungs 0.25, 0.5, 1 with capacities 4, 2, 1: iterations spend 3, 2, 1
    spec = MethodSpec("dehb", options={"min_budget": 0.25, "eta": 2.0})
    assert spec.plan(6)["iterations"] == 3
    assert spec.plan(5)["iterations"] == 2
    assert spec.plan(3)["iterations"] == 1
    with pytest.raises(ValueError, match=r"less than one DEHB iteration \(3 full runs\)"):
        spec.plan(2)
    explicit = MethodSpec("dehb", options={"min_budget": 0.25, "eta": 2.0, "iterations": 3})
    assert explicit.plan(6)["iterations"] == 3
    with pytest.raises(ValueError, match="planned spend of 6 full runs exceeds the budget of 5"):
        explicit.plan(5)


def test_dehb_plan_defaults_to_the_eight_rung_ladder():
    opts = MethodSpec("dehb").plan(16)
    assert (opts["eta"], opts["min_budget"]) == (1.9, 0.01)
    assert len(ladder(0.01, 1.9)) == 8
    assert opts["iterations"] == 2  # 8 + 7 rungs fit in 16, a third iteration does not


def test_pbt_plan_spends_population_plus_warmstart():
    opts = MethodSpec("pbt").plan(8)
    assert opts["population_size"] == 8 and opts["warmstart_runs"] == 0
    assert MethodSpec("pbt", options={"warmstart_runs": 3}).plan(8)["population_size"] == 5
    with pytest.raises(ValueError, match="planned spend of 10 full runs"):
        MethodSpec("pbt", options={"population_size": 10}).plan(8)
    with pytest.raises(ValueError, match="planned spend of 2 full runs exceeds the budget of 1"):
        MethodSpec("pbt").plan(1)  # the population floor is 2


def test_method_spec_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown method kind"):
        MethodSpec("grid")


# ---------------------------------------------------------------------------
# the optimizer contract


@pytest.mark.parametrize("tuner", [run_rs, run_dehb, run_pbt])
def test_every_tuner_takes_space_runner_rng_and_keyword_settings(tuner):
    params = list(inspect.signature(tuner).parameters.values())
    assert [p.name for p in params[:3]] == ["space", "runner", "rng"]
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[3:])


DEHB_OPTIONS = {"min_budget": 0.25, "eta": 2.0}
PBT_OPTIONS = {"num_intervals": 3, "quantile": 0.25, "warmstart_runs": 2}


@pytest.mark.parametrize(
    "kind, options, budget",
    [("rs", {}, 4), ("dehb", DEHB_OPTIONS, 5), ("pbt", PBT_OPTIONS, 6)],
)
def test_run_method_journals_exactly_one_complete_record(kind, options, budget):
    objective = SeededValley(dimension=2)
    runner = TrialRunner(objective, [0, 1])
    method = MethodSpec(kind, options=options)
    result = run_method(
        method, objective.space, runner, np.random.default_rng(3), method.plan(budget)
    )
    assert isinstance(result, TuneResult)
    (complete,) = runner.journal.of_type("complete")
    assert complete["incumbent"] == result.incumbent.values
    assert complete["cost"] == result.incumbent_cost
    assert complete["groups"] == runner.groups_run == len(runner.journal.of_type("group"))
    spend = {
        "rs": 4.0,
        # two iterations of the 0.25/0.5/1 ladder, each rung at capacity
        "dehb": sum(
            rung_capacity(b) * b for it in range(2) for b in ladder(0.25, 2.0)[it:]
        ),
        "pbt": 4.0 + 2.0,  # population plus warmstart runs
    }[kind]
    assert complete["spend"] == spend and runner.journal.spend() == pytest.approx(spend)
    incumbents = runner.journal.of_type("incumbent")
    assert incumbents[-1]["config"] == complete["incumbent"]
    assert incumbents[-1]["cost"] == complete["cost"]
