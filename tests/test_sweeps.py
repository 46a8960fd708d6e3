"""Sweeps: trials fail by the runner's rule, rows follow value order, the
CSV layout, the worst-versus-best summary, ``SweepSpec``'s input checks, and
``autotune sweep`` resuming from its journal."""
import json
import math

import pytest

from autotune.cli import EXIT_OK, main
from autotune.objectives import EvaluationError, SeededValley
from autotune.runner import TrialRunner
from autotune.runs import JOURNAL_NAME
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
        return cost, b""


def sweep(costs, values, seeds=(0, 1)):
    return run_sweep(SweepSpec(SPACE, BASE, "x", values, seeds),
                     TrialRunner(ScriptedCosts(costs), seeds))


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


SWEEP = ["sweep", "--objective", "seeded_valley", "--param", "momentum",
         "--values", "0.1,0.5,0.9", "--seeds", "0,1"]
CSV = "sweep_seeded_valley_momentum.csv"


@pytest.fixture
def run_sweep_into(tmp_path):
    """Run ``autotune sweep`` into a directory under ``tmp_path``; returns
    its exit code."""
    space = tmp_path / "space.txt"
    space.write_text("lr: log(1e-05, 1.0)\nmomentum: (0.0, 0.99)\n")
    return lambda out: main([*SWEEP, "--space", str(space), "--out", str(out)])


class Calls(list):
    """(momentum, seed) per valley evaluation."""

    interrupt_at = None  # the call number that raises KeyboardInterrupt


def recorded_calls(monkeypatch) -> Calls:
    calls = Calls()
    evaluate = SeededValley.evaluate

    def recorded(self, config, budget, seed, resume=None):
        calls.append((config["momentum"], seed))
        if len(calls) == calls.interrupt_at:
            raise KeyboardInterrupt
        return evaluate(self, config, budget, seed, resume=resume)

    monkeypatch.setattr(SeededValley, "evaluate", recorded)
    return calls


def test_an_interrupted_sweep_resumes_without_evaluating_its_journaled_groups(
    tmp_path, monkeypatch, run_sweep_into
):
    assert run_sweep_into(tmp_path / "whole") == EXIT_OK
    out = tmp_path / "run"
    calls = recorded_calls(monkeypatch)
    calls.interrupt_at = 4  # the second seed of the second value
    with pytest.raises(KeyboardInterrupt):
        run_sweep_into(out)
    assert not (out / CSV).exists()
    calls.clear()
    calls.interrupt_at = None
    assert run_sweep_into(out) == EXIT_OK
    assert calls == [(0.5, 0), (0.5, 1), (0.9, 0), (0.9, 1)]
    assert (out / CSV).read_bytes() == (tmp_path / "whole" / CSV).read_bytes()
    calls.clear()
    assert run_sweep_into(out) == EXIT_OK  # a finished sweep replays whole
    assert calls == []


def test_a_sweep_journal_cut_with_a_torn_last_line_resumes(tmp_path, run_sweep_into):
    out = tmp_path / "run"
    assert run_sweep_into(out) == EXIT_OK
    table = (out / CSV).read_bytes()
    path = out / "sweeps" / "seeded_valley_momentum" / JOURNAL_NAME
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 1 + 3 * 3  # the header, then two trials and a group per value
    path.write_text("".join(lines[:4]) + lines[4][:15])  # the first group, a torn trial
    (out / CSV).unlink()
    assert run_sweep_into(out) == EXIT_OK
    assert (out / CSV).read_bytes() == table
    resumed = [json.loads(line) for line in path.read_text().splitlines()]
    assert [{k: v for k, v in r.items() if k != "wall_time"} for r in resumed] == [
        {k: v for k, v in json.loads(line).items() if k != "wall_time"} for line in lines
    ]
