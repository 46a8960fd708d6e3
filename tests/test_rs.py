import numpy as np
import pytest

from autotune.journal import Journal
from autotune.objectives import EvaluationError, NoisySphere
from autotune.rs import run_rs
from autotune.runner import NoIncumbentError, TrialRunner
from autotune.space import ConfigSpace, Configuration, continuous, sample


def unit_space(d=2):
    return ConfigSpace([continuous(f"x{i}", 0.0, 1.0) for i in range(d)])


def tune(space, obj, n_configs, seeds, rng, journal=None):
    """run_rs on a fresh runner; its result and its group records."""
    runner = TrialRunner(obj, seeds, journal=journal)
    run = run_rs(space, runner, np.random.default_rng(rng), n_configs=n_configs)
    return run, runner.journal.of_type("group")


def test_single_config_is_incumbent():
    obj = NoisySphere(dimension=2, noise=0.0)
    run, groups = tune(unit_space(), obj, 1, [0], rng=3)
    assert run.incumbent == Configuration(groups[0]["config"])
    assert run.incumbent_cost == groups[0]["mean_cost"]


def test_incumbent_matches_brute_force_recomputation():
    obj = NoisySphere(dimension=2, noise=0.0)
    space = unit_space()
    seeds = [0, 1, 2]
    run, groups = tune(space, obj, 64, seeds, rng=11)
    # independent oracle: re-sample the same stream, re-evaluate everything
    rng = np.random.default_rng(11)
    configs = [sample(space, rng) for _ in range(64)]
    costs = [float(np.mean([obj.evaluate(c, 1.0, s)[0] for s in seeds])) for c in configs]
    assert [Configuration(g["config"]) for g in groups] == configs
    best = int(np.argmin(costs))
    assert run.incumbent == configs[best]
    assert run.incumbent_cost == costs[best] == min(costs)


def test_budget_accounting_counts_full_runs_and_trials():
    obj = NoisySphere(dimension=2, noise=0.0)
    journal = Journal()
    journal.write_header({"method": "rs"})
    tune(unit_space(), obj, 16, [0, 1, 2, 3, 4], rng=0, journal=journal)
    assert journal.of_type("complete")[0]["spend"] == 16.0
    assert journal.spend() == 16.0
    trials = journal.of_type("trial")
    assert len(trials) == 16 * 5  # one full-budget evaluation per (config, seed)
    assert all(t["budget"] == 1.0 for t in trials)


def test_deterministic_same_seed_same_everything():
    obj = NoisySphere(dimension=3, noise=0.05)
    a, a_groups = tune(unit_space(3), obj, 8, [0, 1], rng=5)
    b, b_groups = tune(unit_space(3), obj, 8, [0, 1], rng=5)
    assert a.incumbent == b.incumbent
    assert a.incumbent_cost == b.incumbent_cost
    assert [g["mean_cost"] for g in a_groups] == [g["mean_cost"] for g in b_groups]


def test_incumbent_non_increasing_with_more_configs():
    obj = NoisySphere(dimension=4, noise=0.0)
    costs = []
    for n in (4, 8, 16, 32):
        run, _ = tune(unit_space(4), obj, n, [0], rng=9)
        costs.append(run.incumbent_cost)
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_tie_break_prefers_earliest_trial():
    class Constant(NoisySphere):
        def evaluate(self, config, budget, seed, resume=None):
            _, ckpt = super().evaluate(config, budget, seed, resume=resume)
            return 1.0, ckpt

    run, groups = tune(unit_space(), Constant(dimension=2), 5, [0], rng=2)
    assert run.incumbent == Configuration(groups[0]["config"])


def test_all_failures_raise_no_incumbent():
    class AlwaysFails(NoisySphere):
        def evaluate(self, config, budget, seed, resume=None):
            raise EvaluationError("scripted")

    with pytest.raises(NoIncumbentError):
        tune(unit_space(), AlwaysFails(dimension=2), 4, [0], rng=0)


def test_partial_failures_skip_failed_configs():
    class FailsSometimes(NoisySphere):
        def evaluate(self, config, budget, seed, resume=None):
            if config["x0"] < 0.5:
                raise EvaluationError("scripted")
            return super().evaluate(config, budget, seed, resume=resume)

    obj = FailsSometimes(dimension=2, noise=0.0)
    run, _ = tune(unit_space(), obj, 32, [0], rng=1)
    assert run.incumbent["x0"] >= 0.5
    assert np.isfinite(run.incumbent_cost)


def test_incumbent_journal_records_monotone():
    obj = NoisySphere(dimension=2, noise=0.0)
    journal = Journal()
    journal.write_header({"method": "rs"})
    tune(unit_space(), obj, 20, [0], rng=4, journal=journal)
    incs = [r["cost"] for r in journal.of_type("incumbent")]
    assert incs == sorted(incs, reverse=True)
    assert journal.is_complete()
