import math

import numpy as np
import pytest

from autotune.objectives import SeededValley
from autotune.pbt import exploit, run_pbt
from autotune.runner import TrialRunner
from autotune.space import Configuration


class NonFinite(SeededValley):
    """Seeded valley whose cost is NaN for x0 < 0.2 and -inf for x0 < 0.35."""

    def evaluate(self, config, budget, seed, resume=None):
        cost, ckpt = super().evaluate(config, budget, seed, resume=resume)
        if config["x0"] < 0.2:
            return math.nan, ckpt
        if config["x0"] < 0.35:
            return -math.inf, ckpt
        return cost, ckpt


@pytest.mark.parametrize("x0, cost", [(0.1, "nan"), (0.3, "-inf")])
def test_runner_turns_a_non_finite_cost_into_a_failed_trial(x0, cost):
    runner = TrialRunner(NonFinite(), seeds=[0, 1])
    res = runner.evaluate_group(Configuration({"x0": x0, "x1": 0.5}), 1.0)
    assert res.failed and res.per_seed_cost == [None, None] and res.checkpoints == {}
    for trial in runner.journal.of_type("trial"):
        assert trial["status"] == "failed" and trial["cost"] is None
        assert trial["error"] == f"non-finite cost {cost}"


def test_pbt_never_exploits_a_member_with_a_non_finite_cost():
    objective = NonFinite()
    runner = TrialRunner(objective, seeds=[0, 1])
    run = run_pbt(
        objective.space, runner, np.random.default_rng(15), population_size=8,
        num_intervals=4, quantile=0.25, explore_mode="perturb", warmstart_runs=0,
    )
    journal = runner.journal
    first = [g for g in journal.of_type("group") if g["tags"]["interval"] == 1]
    assert any(g["config"]["x0"] < 0.2 for g in first)  # a NaN member
    assert any(0.2 <= g["config"]["x0"] < 0.35 for g in first)  # a -inf member
    for trial in journal.of_type("trial"):
        if trial["config"]["x0"] < 0.35:
            assert trial["status"] == "failed" and trial["cost"] is None
    for record in journal.of_type("exploit"):
        failed = {i for i, c in enumerate(record["costs"]) if c is None}
        losers = {loser for loser, _ in record["plan"]}
        assert failed <= losers or losers <= failed  # failed members rank last
        assert not failed & {winner for _, winner in record["plan"]}
    assert math.isfinite(run.incumbent_cost)
    assert run.incumbent["x0"] >= 0.35


@pytest.mark.parametrize("n", range(2, 8))
def test_a_population_under_eight_still_exploits_one_pair(n):
    costs = [float(i) for i in range(n)]  # member 0 is the best, n - 1 the worst
    assert exploit(costs, 0.125) == [(n - 1, 0)]


def test_exploit_plans_floor_q_n_pairs_from_eight_members():
    assert exploit([float(i) for i in range(16)], 0.125) == [(15, 0), (14, 1)]
    assert exploit([0.0], 0.125) == []


def test_a_small_pbt_run_exploits_and_explores_every_interval():
    objective = SeededValley()
    runner = TrialRunner(objective, seeds=[0])
    run_pbt(
        objective.space, runner, np.random.default_rng(4), population_size=4,
        num_intervals=4, quantile=0.125, explore_mode="perturb", warmstart_runs=0,
    )
    plans = [record["plan"] for record in runner.journal.of_type("exploit")]
    assert len(plans) == 3 and all(len(plan) == 1 for plan in plans)
    assert len(runner.journal.of_type("explore")) == 3
