"""Sweeps: trials fail by the runner's rule, rows follow value order, the
CSV layout, the worst-versus-best summary and ``SweepSpec``'s input checks."""
import math

import pytest

from autotune.objectives import CheckpointHandle, EvaluationError
from autotune.space import ConfigSpace, Configuration, continuous
from autotune.sweeps import SweepRow, SweepSpec, SweepTable, run_sweep, worst_vs_best_summary

SPACE = ConfigSpace([continuous("x", 0.0, 1.0), continuous("y", 0.0, 1.0)])
BASE = Configuration({"x": 0.5, "y": 0.5})


class ScriptedCosts:
    """Objective stub: cost by (x, seed); None raises EvaluationError."""

    name = "scripted"

    def __init__(self, costs):
        self.costs = costs

    def evaluate(self, config, budget, seed, resume=None):
        cost = self.costs[(config["x"], seed)]
        if cost is None:
            raise EvaluationError(f"seed {seed} scripted to fail")
        return cost, CheckpointHandle(key=f"scripted:{seed}", trained_fraction=budget, payload=b"")


def sweep(costs, values, seeds=(0, 1)):
    return run_sweep(SweepSpec(SPACE, BASE, "x", values, seeds), ScriptedCosts(costs))


def test_non_finite_costs_are_blank_cells_that_count_leaves_out():
    table = sweep(
        {(0.1, 0): math.nan, (0.1, 1): 2.0, (0.1, 2): 4.0,
         (0.9, 0): 1.0, (0.9, 1): math.inf, (0.9, 2): -math.inf},
        (0.1, 0.9), seeds=(0, 1, 2),
    )
    assert [r.per_seed for r in table.rows] == [[None, 2.0, 4.0], [1.0, None, None]]
    assert [r.count for r in table.rows] == [2, 1]
    assert [r.mean for r in table.rows] == [3.0, 1.0]
    lines = table.to_csv().splitlines()
    assert "0.1,0," in lines and "0.9,1," in lines and "0.9,2," in lines
    assert "0.1,count,2" in lines and "0.9,count,1" in lines
    assert not any("nan" in line or "inf" in line for line in lines)


def test_a_failed_trial_counts_as_failed():
    table = sweep({(0.5, 0): 1.0, (0.5, 1): None}, (0.5,))
    (row,) = table.rows
    assert row.per_seed == [1.0, None]
    assert row.count == 1 and row.survivors == [1.0]


def test_rows_follow_value_order_and_the_csv_is_pinned():
    table = sweep({(0.9, 0): 1.0, (0.9, 1): 3.0, (0.1, 0): 0.5, (0.1, 1): None}, (0.9, 0.1))
    assert [r.value for r in table.rows] == [0.9, 0.1]
    assert table.csv_name() == "sweep_scripted_x.csv"
    assert table.to_csv() == (
        "value,seed,cost\n"
        "0.9,0,1.0\n"
        "0.9,1,3.0\n"
        "0.1,0,0.5\n"
        "0.1,1,\n"
        "0.9,mean,2.0\n"
        "0.9,std,1.0\n"
        "0.9,median,2.0\n"
        "0.9,count,2\n"
        "0.1,mean,0.5\n"
        "0.1,std,0.0\n"
        "0.1,median,0.5\n"
        "0.1,count,1\n"
    )


def table(*per_seed_rows):
    rows = [SweepRow(value=i, per_seed=list(costs)) for i, costs in enumerate(per_seed_rows)]
    return SweepTable(objective="scripted", param="x", seeds=(0, 1), budget=1.0, rows=rows)


def test_worst_vs_best_summary():
    summary = worst_vs_best_summary(
        [
            table([1.0, 3.0], [2.5, 2.5]),  # worst 2.5 inside 2 + 1; drop 25%
            table([1.0, 1.0], [1.1, 1.1]),  # worst 1.1 outside 1 + 0; drop 10%
            table([10.0, 10.0], [12.0, 12.0]),  # a drop of exactly 20% is not below it
            table([10.0, 10.0], [11.5, 11.5]),
            table([None, None], [None, None]),  # every trial failed
        ]
    )
    assert summary.per_table == [
        (True, False), (False, True), (False, False), (False, True), (False, False),
    ]
    assert summary.n_tables == 5
    assert summary.worst_within_best_band == 1
    assert summary.drop_below_20pct == 2


def test_worst_vs_best_summary_needs_a_table():
    with pytest.raises(ValueError):
        worst_vs_best_summary([])


@pytest.mark.parametrize(
    "param, values, seeds, budget",
    [
        ("z", (0.1,), (0,), 1.0),  # unknown parameter
        ("x", (), (0,), 1.0),
        ("x", (0.1, 0.1), (0,), 1.0),  # duplicate values
        ("x", (0.1, 1.5), (0,), 1.0),  # out of bounds
        ("x", (0.1,), (), 1.0),
        ("x", (0.1,), (0, 0), 1.0),
        ("x", (0.1,), (0,), 0.0),
        ("x", (0.1,), (0,), 1.5),
    ],
)
def test_sweep_spec_rejects_bad_input(param, values, seeds, budget):
    with pytest.raises(ValueError):
        SweepSpec(SPACE, BASE, param, values, seeds, budget=budget)
