import math

import numpy as np
import pytest

from autotune.budgets import rung_capacity
from autotune.dehb import (
    DeMember,
    de_crossover,
    de_mutate,
    de_mutate_vectors,
    de_select,
    run_dehb,
)
from autotune.journal import Journal
from autotune.objectives import EvaluationError, NoisySphere
from autotune.rs import run_rs
from autotune.runner import TrialRunner
from autotune.space import ConfigSpace, Configuration, continuous, from_unit


def unit_space(d=2):
    return ConfigSpace([continuous(f"x{i}", 0.0, 1.0) for i in range(d)])


def tune(space, obj, lad, iterations, seeds, rng, journal=None):
    """run_dehb on the ladder ``lad`` = (min_budget, eta) with a fresh
    runner; result and journal."""
    runner = TrialRunner(obj, seeds, journal=journal)
    min_budget, eta = lad
    run = run_dehb(space, runner, np.random.default_rng(rng), min_budget=min_budget,
                   eta=eta, iterations=iterations)
    return run, runner.journal


def iterations_of(journal):
    """Per iteration, from the group tags: its rung budgets, lowest first,
    and its spend."""
    rungs, spend = {}, {}
    for g in journal.of_type("group"):
        it = g["tags"]["iteration"]
        rungs.setdefault(it, {})[g["tags"]["rung"]] = g["budget"]
        spend[it] = spend.get(it, 0.0) + g["spend"]
    return [(tuple(b for _, b in sorted(rungs[it].items())), spend[it]) for it in sorted(rungs)]


def spend_of(journal):
    return journal.of_type("complete")[0]["spend"]


# ---------------------------------------------------------------------------
# mutation


def test_mutate_degenerate_donors_collapse_to_base():
    x = np.array([0.3, 0.7])
    donor = de_mutate_vectors(x, x, x, F=0.5)
    assert np.array_equal(donor, x)


def test_mutate_f_zero_returns_base():
    x1, x2, x3 = np.array([0.2, 0.4]), np.array([0.9, 0.1]), np.array([0.5, 0.5])
    assert np.array_equal(de_mutate_vectors(x1, x2, x3, F=0.0), x1)


def test_mutate_hand_arithmetic_with_clipping():
    donor = de_mutate_vectors(
        np.array([0.9, 0.9]), np.array([1.0, 0.0]), np.array([0.0, 0.0]), F=0.5
    )
    assert donor[0] == 1.0  # 0.9 + 0.5 clipped
    assert donor[1] == pytest.approx(0.9)


def test_mutate_picks_distinct_non_target_members():
    rng = np.random.default_rng(0)
    pop = [np.full(2, i / 10) for i in range(6)]
    for _ in range(50):
        donor = de_mutate(pop, target_index=2, F=0.0, rng=rng)
        # with F=0 the donor equals x_r1, which must not be the target
        assert not np.array_equal(donor, pop[2])
        assert any(np.array_equal(donor, p) for p in pop)


def test_mutate_small_population_falls_back_to_uniform():
    rng = np.random.default_rng(1)
    pop = [np.array([0.5, 0.5])]
    donor = de_mutate(pop, target_index=0, F=0.5, rng=rng)
    assert donor.shape == (2,)
    assert np.all(donor >= 0.0) and np.all(donor <= 1.0)


def test_mutate_always_stays_in_unit_cube():
    rng = np.random.default_rng(2)
    pop = [rng.random(3) for _ in range(6)]
    for i in range(6):
        for F in (0.5, 1.0, 2.0):
            donor = de_mutate(pop, i, F, rng)
            assert np.all(donor >= 0.0) and np.all(donor <= 1.0)


# ---------------------------------------------------------------------------
# crossover


def test_crossover_cr_one_returns_donor():
    rng = np.random.default_rng(0)
    t, d = np.array([0.1, 0.2, 0.3]), np.array([0.7, 0.8, 0.9])
    assert np.array_equal(de_crossover(t, d, CR=1.0, rng=rng), d)


def test_crossover_cr_zero_changes_exactly_one_coordinate():
    rng = np.random.default_rng(3)
    t, d = np.zeros(5), np.ones(5)
    for _ in range(20):
        child = de_crossover(t, d, CR=0.0, rng=rng)
        assert int(np.sum(child != t)) == 1


def test_crossover_transcript_replay():
    t, d = np.zeros(3), np.ones(3)
    child1 = de_crossover(t, d, CR=0.5, rng=np.random.default_rng(42))
    child2 = de_crossover(t, d, CR=0.5, rng=np.random.default_rng(42))
    assert np.array_equal(child1, child2)
    # reproduce by replaying the same stream by hand
    rng = np.random.default_rng(42)
    mask = rng.random(3) < 0.5
    mask[int(rng.integers(3))] = True
    assert np.array_equal(child1, np.where(mask, d, t))


def test_crossover_dimension_mismatch():
    with pytest.raises(ValueError):
        de_crossover(np.zeros(2), np.ones(3), 0.5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# selection


def make_runner(objective=None, seeds=(0,)):
    obj = objective if objective is not None else NoisySphere(dimension=2, noise=0.0)
    return TrialRunner(obj, seeds=list(seeds))


def select(parent, child_vector, space, runner, budget):
    """Evaluate the child at ``budget`` as run_dehb does, then select."""
    result = runner.evaluate_group(from_unit(space, child_vector), budget)
    return de_select(parent, DeMember(vector=np.asarray(child_vector, dtype=float),
                                      cost=result.cost))


def test_select_child_wins_when_better():
    runner = make_runner()
    parent = DeMember(vector=np.array([0.0, 0.0]), cost=0.5)
    child = np.array([0.5, 0.5])  # cost 0 at the optimum
    survivor = select(parent, child, unit_space(), runner, budget=1.0)
    assert np.array_equal(survivor.vector, child)
    assert survivor.cost == 0.0


def test_select_parent_survives_when_child_worse():
    runner = make_runner()
    parent = DeMember(vector=np.array([0.5, 0.5]), cost=0.0)
    survivor = select(parent, np.array([0.0, 0.0]), unit_space(), runner, budget=1.0)
    assert survivor is parent


def test_select_tie_keeps_child():
    class Constant(NoisySphere):
        def evaluate(self, config, budget, seed, resume=None):
            _, ckpt = super().evaluate(config, budget, seed, resume=resume)
            return 1.0, ckpt

    runner = make_runner(Constant(dimension=2))
    parent = DeMember(vector=np.array([0.1, 0.1]), cost=1.0)
    child = np.array([0.9, 0.9])
    survivor = select(parent, child, unit_space(), runner, budget=1.0)
    assert np.array_equal(survivor.vector, child)


def test_select_failed_child_keeps_parent():
    class AlwaysFails(NoisySphere):
        def evaluate(self, config, budget, seed, resume=None):
            raise EvaluationError("scripted")

    runner = make_runner(AlwaysFails(dimension=2))
    parent = DeMember(vector=np.array([0.1, 0.1]), cost=0.7)
    survivor = select(parent, np.array([0.9, 0.9]), unit_space(), runner, budget=1.0)
    assert survivor is parent


def test_select_failed_child_keeps_a_failed_parent():
    parent = DeMember(vector=np.array([0.1, 0.1]), cost=math.inf)
    assert de_select(parent, DeMember(vector=np.array([0.9, 0.9]), cost=math.inf)) is parent


def test_select_monotone_over_100_random_steps():
    rng = np.random.default_rng(7)
    runner = make_runner(NoisySphere(dimension=3, noise=0.1))
    space = unit_space(3)
    pop = []
    for _ in range(10):
        vec = rng.random(3)
        res = runner.evaluate_group(Configuration({f"x{i}": float(v) for i, v in enumerate(vec)}), 1.0)
        pop.append(DeMember(vector=vec, cost=res.cost))
    for step in range(100):
        idx = step % len(pop)
        before = pop[idx].cost
        donor = de_mutate([m.vector for m in pop], idx, 0.5, rng)
        child = de_crossover(pop[idx].vector, donor, 0.5, rng)
        pop[idx] = select(pop[idx], child, space, runner, budget=1.0)
        assert pop[idx].cost <= before


def test_each_generation_is_one_batch_in_slot_order():
    class Counting(TrialRunner):
        batches = []

        def evaluate_many(self, requests):
            self.batches.append([r["tags"] for r in requests])
            return super().evaluate_many(requests)

    runner = Counting(NoisySphere(dimension=2, noise=0.0), [0])
    run_dehb(unit_space(), runner, np.random.default_rng(3), min_budget=1 / 9, eta=3.0,
             iterations=3)
    generations = [tags for tags in runner.batches if "slot" in tags[0]]
    assert [len(tags) for tags in generations] == [3, 1]  # rungs 1/3 and 1 of iterations 1, 2
    for tags in generations:
        assert [t["slot"] for t in tags] == list(range(len(tags)))
        assert len({(t["iteration"], t["rung"]) for t in tags}) == 1


# ---------------------------------------------------------------------------
# full runs


def test_degenerate_single_rung_ladder():
    lad = (0.5, 3.0)
    obj = NoisySphere(dimension=2, noise=0.0)
    run, journal = tune(unit_space(), obj, lad, iterations=1, seeds=[0], rng=0)
    assert len(iterations_of(journal)) == 1
    assert [b for b, _ in iterations_of(journal)] == [(1.0,)]
    assert math.isfinite(run.incumbent_cost)


def test_iteration_budget_schedule_drops_lowest():
    lad = (0.01, 5.0)
    obj = NoisySphere(dimension=2, noise=0.0)
    _, journal = tune(unit_space(), obj, lad, iterations=3, seeds=[0], rng=1)
    assert [b for b, _ in iterations_of(journal)] == [(0.04, 0.2, 1.0), (0.2, 1.0), (1.0,)]


def test_iterations_capped_once_only_full_budget_left():
    lad = (0.01, 5.0)
    obj = NoisySphere(dimension=2, noise=0.0)
    _, journal = tune(unit_space(), obj, lad, iterations=10, seeds=[0], rng=1)
    assert len(iterations_of(journal)) == 3  # ladder has 3 rungs


def test_per_iteration_spend_matches_rung_count_within_flooring():
    lad = (0.01, 5.0)
    obj = NoisySphere(dimension=2, noise=0.0)
    journal = Journal()
    journal.write_header({"method": "dehb"})
    tune(unit_space(), obj, lad, iterations=3, seeds=[0], rng=3, journal=journal)
    for budgets, spend in iterations_of(journal):
        n = len(budgets)
        cap_spend = sum(
            rung_capacity(b) * b for b in budgets
        )
        assert spend == pytest.approx(cap_spend)
        assert spend <= n + 1e-9
        assert spend > n - sum(budgets)  # flooring removes less than one rung each
    assert journal.spend() == pytest.approx(spend_of(journal))


def test_rung_populations_sized_by_capacity():
    lad = (0.01, 5.0)
    obj = NoisySphere(dimension=2, noise=0.0)
    journal = Journal()
    journal.write_header({"method": "dehb"})
    tune(unit_space(), obj, lad, iterations=1, seeds=[0], rng=5, journal=journal)
    groups = journal.of_type("group")
    by_rung = {}
    for g in groups:
        by_rung.setdefault(g["budget"], 0)
        by_rung[g["budget"]] += 1
    assert by_rung == {0.04: 25, 0.2: 5, 1.0: 1}


def test_incumbent_comes_from_full_budget_only():
    lad = (0.01, 5.0)
    obj = NoisySphere(dimension=2, noise=0.0)
    journal = Journal()
    journal.write_header({"method": "dehb"})
    run, _ = tune(unit_space(), obj, lad, iterations=2, seeds=[0], rng=7, journal=journal)
    incs = journal.of_type("incumbent")
    assert incs
    assert all(r["budget"] == 1.0 for r in incs)
    full_groups = [g for g in journal.of_type("group") if g["budget"] == 1.0]
    assert run.incumbent_cost == min(g["mean_cost"] for g in full_groups)


def test_incumbent_cost_monotone_in_journal():
    lad = (0.05, 2.0)
    obj = NoisySphere(dimension=3, noise=0.05)
    journal = Journal()
    journal.write_header({"method": "dehb"})
    tune(unit_space(3), obj, lad, iterations=4, seeds=[0, 1], rng=11, journal=journal)
    incs = [r["cost"] for r in journal.of_type("incumbent")]
    assert incs == sorted(incs, reverse=True)


def test_deterministic_given_seed():
    lad = (0.04, 5.0)
    obj = NoisySphere(dimension=2, noise=0.1)
    a, _ = tune(unit_space(), obj, lad, 2, [0, 1], rng=13)
    b, _ = tune(unit_space(), obj, lad, 2, [0, 1], rng=13)
    assert a.incumbent == b.incumbent and a.incumbent_cost == b.incumbent_cost


def test_dehb_beats_rs_at_equal_spend():
    """Median incumbent over 20 paired repetitions; equal full-run budgets."""
    space = unit_space(8)
    lad = (0.01, 1.9)
    dehb_costs, rs_costs = [], []
    for rep in range(20):
        obj = NoisySphere(dimension=8, noise=0.05)
        run_d, journal = tune(space, obj, lad, iterations=2, seeds=[0], rng=100 + rep)
        budget = int(spend_of(journal)) + 1  # RS gets at least DEHB's spend, 16 runs
        run_r = run_rs(space, TrialRunner(obj, [0]), np.random.default_rng(200 + rep),
                       n_configs=budget)
        dehb_costs.append(run_d.incumbent_cost)
        rs_costs.append(run_r.incumbent_cost)
    assert float(np.median(dehb_costs)) <= float(np.median(rs_costs))
