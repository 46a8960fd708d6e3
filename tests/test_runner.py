"""The runner's worker processes: errors, shutdown and how many start.

Every test here starts at most one worker process.
"""
import multiprocessing
import os

import pytest

from autotune.objectives import ObjectiveSpec, SeededValley
from autotune.protocol import MethodSpec, SeedPlan
from autotune.runner import RunInterrupted, TrialRunner
from autotune.runs import run_repetition
from autotune.space import Configuration

PARENT = os.getpid()


def failing_in_a_child(evaluate):
    """``evaluate`` raising ValueError for x0 >= 0.5 in a worker process."""

    def wrapped(self, config, budget, seed, resume=None):
        if os.getpid() != PARENT and config["x0"] >= 0.5:
            raise ValueError(f"scripted failure at x0={config['x0']}")
        return evaluate(self, config, budget, seed, resume=resume)

    return wrapped


class FailsInAChild(SeededValley):
    evaluate = failing_in_a_child(SeededValley.evaluate)


def requests(n):
    return [{"config": Configuration({"x0": i / n, "x1": 0.5}), "budget": 1.0}
            for i in range(n)]


def records(runner):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in runner.journal.records]


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_an_error_in_a_child_is_raised_after_the_groups_before_it(two_cpus):
    sequential = TrialRunner(FailsInAChild(), seeds=[0, 1])
    for req in requests(6)[:3]:  # the child's chunk starts at x0 = 0.5
        sequential.evaluate_group(**req)
    runner = TrialRunner(FailsInAChild(), seeds=[0, 1], workers=2)
    try:
        with pytest.raises(ValueError, match="x0=0.5"):
            runner.evaluate_many(requests(6))
        assert records(runner) == records(sequential)
        # the pipe to the child stays in step: the next batch works, and its
        # ids follow every group the failed batch started
        assert [r.group for r in runner.evaluate_many(requests(6)[:2])] == [6, 7]
    finally:
        runner.close()


def test_close_stops_the_children(two_cpus):
    runner = TrialRunner(SeededValley(), seeds=[0], workers=8)
    runner.evaluate_many(requests(8))
    assert len(multiprocessing.active_children()) == 1  # min(8, 2 CPUs) - 1
    runner.close()
    assert multiprocessing.active_children() == []
    runner.close()  # closing twice is harmless


@pytest.mark.parametrize("workers, cpus", [(1, 2), (4, 1)])
def test_one_worker_or_one_cpu_starts_no_process(monkeypatch, workers, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    sequential = TrialRunner(SeededValley(), seeds=[0])
    sequential.evaluate_many(requests(4))
    runner = TrialRunner(SeededValley(), seeds=[0], workers=workers)
    runner.evaluate_many(requests(4))
    assert multiprocessing.active_children() == []
    assert records(runner) == records(sequential)
    runner.close()


SPACE_TEXT = "x0: (0.0, 1.0)\nx1: (0.0, 1.0)\n"
VALLEY = ObjectiveSpec("seeded_valley", {})
DEHB = MethodSpec("dehb", options={"min_budget": 0.1, "eta": 3.0})


def repetition(directory, **kw):
    return run_repetition(str(directory), DEHB, SPACE_TEXT, VALLEY, SeedPlan([0], [5, 6]), 6,
                          rng_seed=1, repetition=0, workers=2, **kw)


def test_children_stop_when_a_repetition_is_interrupted(tmp_path, two_cpus):
    with pytest.raises(RunInterrupted):
        repetition(tmp_path, max_groups=4)  # inside the first batch of 9 groups
    assert multiprocessing.active_children() == []


def test_children_stop_when_a_child_raises_in_a_repetition(tmp_path, two_cpus, monkeypatch):
    monkeypatch.setattr(SeededValley, "evaluate", failing_in_a_child(SeededValley.evaluate))
    with pytest.raises(ValueError, match="scripted failure"):
        repetition(tmp_path)
    assert multiprocessing.active_children() == []
