"""The runner's worker processes: errors, interruption, shutdown and how
many start.

Every test here starts at most one worker process.
"""
import multiprocessing
import os

import pytest

from autotune.journal import Journal
from autotune.objectives import ObjectiveSpec, SeededValley
from autotune.protocol import MethodSpec, SeedPlan
from autotune.runner import TrialRunner
from autotune.runs import JOURNAL_NAME, run_repetition
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


class FailsAtX1One(SeededValley):
    """Raises ValueError for x1 = 1, in whichever process evaluates it."""

    def evaluate(self, config, budget, seed, resume=None):
        if config["x1"] == 1.0:
            raise ValueError("scripted failure at x1=1")
        return super().evaluate(config, budget, seed, resume=resume)


class CodedError(Exception):
    """An error whose pickle does not load: its ``__init__`` takes two
    arguments, and ``args`` holds one."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class CodedErrorAtX0(SeededValley):
    """Raises CodedError for x0 = 0.75, in whichever process evaluates it."""

    def evaluate(self, config, budget, seed, resume=None):
        if config["x0"] == 0.75:
            raise CodedError(7, "scripted failure at x0=0.75")
        return super().evaluate(config, budget, seed, resume=resume)


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
        # the next batch works, and its ids follow the groups journaled
        assert [r.group for r in runner.evaluate_many(requests(6)[:2])] == [3, 4]
    finally:
        runner.close()


@pytest.mark.parametrize("failing", [3, 1])  # in the child's chunk, in this process's
def test_a_raising_group_ends_the_batch_alike_at_every_worker_count(two_cpus, failing):
    batch = requests(6)
    batch[failing] = {"config": Configuration({"x0": 0.5, "x1": 1.0}), "budget": 1.0}
    outcomes = []
    for workers in (1, 2):
        runner = TrialRunner(FailsAtX1One(), seeds=[0, 1], workers=workers)
        try:
            with pytest.raises(ValueError, match="x1=1"):
                runner.evaluate_many(batch)
            journaled = records(runner)
            next_ids = [r.group for r in runner.evaluate_many(requests(6)[:2])]
        finally:
            runner.close()
        outcomes.append((journaled, next_ids))
    (w1, ids1), (w2, ids2) = outcomes
    assert [r["group"] for r in w1 if r["t"] == "group"] == list(range(failing))
    assert w2 == w1
    assert ids1 == ids2 == [failing, failing + 1]


def test_an_error_that_does_not_unpickle_keeps_the_groups_before_it(two_cpus):
    # this process evaluates x0 = 0 .. 3/8, the child 4/8 .. 7/8; x0 = 6/8 raises
    sequential = TrialRunner(CodedErrorAtX0(), seeds=[0])
    with pytest.raises(CodedError):
        sequential.evaluate_many(requests(8))
    runner = TrialRunner(CodedErrorAtX0(), seeds=[0], workers=2)
    try:
        with pytest.raises(RuntimeError, match="^CodedError: scripted failure at x0=0.75$"):
            runner.evaluate_many(requests(8))
        assert len(runner.journal.of_type("group")) == 6
        assert records(runner) == records(sequential)
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


def repetition(directory):
    return run_repetition(str(directory), DEHB, SPACE_TEXT, VALLEY, SeedPlan([0], [5, 6]), 6,
                          rng_seed=1, repetition=0, workers=2)


def test_children_stop_when_a_repetition_is_interrupted(tmp_path, two_cpus, monkeypatch):
    evaluate, calls = SeededValley.evaluate, []

    def interrupted_on_the_third_call(self, config, budget, seed, resume=None):
        if os.getpid() == PARENT:
            calls.append(config)
            if len(calls) == 3:
                raise KeyboardInterrupt  # as Ctrl-C would
        return evaluate(self, config, budget, seed, resume=resume)

    monkeypatch.setattr(SeededValley, "evaluate", interrupted_on_the_third_call)
    with pytest.raises(KeyboardInterrupt):
        repetition(tmp_path)  # inside the first batch of 9 groups
    assert multiprocessing.active_children() == []
    assert len(Journal.load(str(tmp_path / JOURNAL_NAME)).of_type("group")) == 2


def test_children_stop_when_a_child_raises_in_a_repetition(tmp_path, two_cpus, monkeypatch):
    monkeypatch.setattr(SeededValley, "evaluate", failing_in_a_child(SeededValley.evaluate))
    with pytest.raises(ValueError, match="scripted failure"):
        repetition(tmp_path)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -3])
def test_fewer_than_one_worker_is_refused(workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        TrialRunner(SeededValley(), seeds=[0], workers=workers)
