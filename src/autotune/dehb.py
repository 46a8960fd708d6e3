"""Differential evolution on a fidelity ladder.

Iteration 0 runs the whole ladder: the lowest rung starts from uniform
samples sized by its capacity, and each higher rung is initialised with the
best vectors of the rung below (top capacity-of-next-rung by cost) evaluated
at the higher fidelity. Every following iteration drops its lowest rung and
re-initialises the new lowest rung with a differential-evolution generation
against that rung's previous population (rand/1 mutation, binomial crossover,
one-to-one elitist selection), then sweeps upward again. Each rung spends the
equivalent of one full run per iteration, so an iteration with r active rungs
costs r full-run equivalents (up to capacity flooring). The run stops after
the iteration where only the full budget remains, or after ``iterations``.

Costs at different fidelities are never compared directly; information moves
between rungs only through promotion. Every group is tagged with its
``iteration`` and ``rung``, so the journal holds each iteration's budgets and
spend. The runner keeps the incumbent from the full-budget groups. Like every
optimizer, :func:`run_dehb` takes ``(space, runner, rng, **settings)`` and
returns the runner's :class:`~autotune.runner.TuneResult`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budgets import ladder, rung_capacity
from .runner import TrialRunner, TuneResult
from .space import ConfigSpace, check_settings, from_unit

# run_dehb's settings with a range of their own: name -> (test, its range in
# words); ``ladder`` checks min_budget and eta
RULES = {
    "iterations": (lambda v: v >= 1, ">= 1"),
    "F": (lambda v: 0.0 < v <= 2.0, "in (0, 2]"),
    "CR": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
}


@dataclass
class DeMember:
    vector: np.ndarray
    cost: float  # +inf when the evaluation failed


def de_mutate_vectors(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray, F: float) -> np.ndarray:
    """rand/1 donor: x1 + F * (x2 - x3), clipped to the unit cube."""
    return np.clip(x1 + F * (np.asarray(x2) - np.asarray(x3)), 0.0, 1.0)


def de_mutate(
    pop: list[np.ndarray], target_index: int, F: float, rng: np.random.Generator
) -> np.ndarray:
    """Pick three distinct non-target members as donors; when the population
    is too small, missing donors are drawn uniformly from the cube."""
    dim = len(pop[target_index])
    pool = [i for i in range(len(pop)) if i != target_index]
    picks = []
    for _ in range(3):
        if pool:
            j = int(rng.integers(len(pool)))
            picks.append(np.asarray(pop[pool.pop(j)], dtype=float))
        else:
            picks.append(rng.random(dim))
    return de_mutate_vectors(picks[0], picks[1], picks[2], F)


def de_crossover(
    target: np.ndarray, donor: np.ndarray, CR: float, rng: np.random.Generator
) -> np.ndarray:
    """Binomial crossover; one coordinate (j_rand) always comes from the donor."""
    target = np.asarray(target, dtype=float)
    donor = np.asarray(donor, dtype=float)
    if target.shape != donor.shape:
        raise ValueError("target and donor must have equal dimension")
    d = target.shape[0]
    mask = rng.random(d) < CR
    mask[int(rng.integers(d))] = True
    child = np.where(mask, donor, target)
    return child


def de_select(parent: DeMember, child: DeMember) -> DeMember:
    """One-to-one elitist selection: the child unless it failed (cost +inf)
    or is worse than the parent; ties keep the child."""
    if math.isfinite(child.cost) and child.cost <= parent.cost:
        return child
    return parent


def plan(budget_runs: int, settings: dict) -> float:
    """Fit as many whole iterations into ``budget_runs`` full runs as the
    ladder allows, counting each active rung as one run, unless
    ``iterations`` is given; return the spend run_dehb states."""
    rungs = ladder(settings["min_budget"], settings["eta"])
    n = len(rungs)
    if "iterations" not in settings:
        runs, iters = 0, 0
        while iters < n and runs + (n - iters) <= budget_runs + 1e-9:
            runs += n - iters
            iters += 1
        if iters == 0:
            raise ValueError(
                f"budget of {budget_runs} full runs is less than one DEHB "
                f"iteration ({n} full runs)"
            )
        settings["iterations"] = iters
    return spend(rungs, settings["iterations"])


def spend(rungs: tuple[float, ...], iterations: int) -> float:
    """The full-run equivalents run_dehb spends: every group's budget, each
    active rung filled to capacity, summed in evaluation order."""
    total = 0.0
    for it in range(min(iterations, len(rungs))):
        for budget in rungs[it:]:
            for _ in range(rung_capacity(budget)):
                total += budget
    return total


def run_dehb(
    space: ConfigSpace,
    runner: TrialRunner,
    rng: np.random.Generator,
    *,
    min_budget: float = 0.01,
    eta: float = 1.9,
    iterations: int,
    F: float = 0.5,
    CR: float = 0.5,
) -> TuneResult:
    check_settings(RULES, locals())  # locals() holds just the arguments here
    rungs = ladder(min_budget, eta)
    d = space.dimension
    caps = [rung_capacity(b) for b in rungs]
    pops: dict[int, list[DeMember]] = {}  # rung index -> its latest population

    def evaluate_population(vectors, rung_index, iteration, slots=False) -> list[DeMember]:
        """One batch at the rung's budget; ``slots`` tags each group with its
        index, as a DE generation's children are tagged with their parent's.
        The runner keeps the incumbent from full-budget batches."""
        budget = rungs[rung_index]
        tags = [{"iteration": iteration, "rung": rung_index} for _ in vectors]
        if slots:
            for idx, tag in enumerate(tags):
                tag["slot"] = idx
        results = runner.evaluate_many(
            [
                {"config": from_unit(space, v), "budget": budget, "purpose": "tune", "tags": t}
                for v, t in zip(vectors, tags)
            ]
        )
        if budget == 1.0:
            runner.keep_best(results)
        return [
            DeMember(vector=np.asarray(v, dtype=float), cost=res.cost)
            for v, res in zip(vectors, results)
        ]

    n_rungs = len(rungs)
    for it in range(min(iterations, n_rungs)):
        lowest = it  # this iteration's lowest active rung index
        active = list(range(lowest, n_rungs))

        if it == 0:
            vectors = [rng.random(d) for _ in range(caps[lowest])]
            pops[lowest] = evaluate_population(vectors, lowest, it)
        else:
            # one generation: every child is built first, in slot order, and
            # evaluated in one batch
            prev = pops[lowest]
            vectors = [m.vector for m in prev]
            children = [
                de_crossover(parent.vector, de_mutate(vectors, idx, F, rng), CR, rng)
                for idx, parent in enumerate(prev)
            ]
            evaluated = evaluate_population(children, lowest, it, slots=True)
            pops[lowest] = [de_select(p, c) for p, c in zip(prev, evaluated)]

        for rung_index in active[1:]:
            ranked = sorted(pops[rung_index - 1], key=lambda m: m.cost)
            promoted = [m.vector for m in ranked[: caps[rung_index]]]
            pops[rung_index] = evaluate_population(promoted, rung_index, it)

    return runner.complete(spend(rungs, iterations))
