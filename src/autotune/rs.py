"""Random search: sample n configurations, evaluate all at full budget,
keep the best as incumbent (ties broken by earliest trial)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .journal import COMPLETE, INCUMBENT
from .objectives import Objective
from .runner import GroupResult, NoIncumbentError, TrialRunner
from .space import ConfigSpace, Configuration, sample


@dataclass
class RsRun:
    n_configs: int
    space: ConfigSpace
    results: list  # GroupResult per sampled configuration, in sample order
    incumbent: Configuration
    incumbent_cost: float

    @property
    def spend(self) -> float:
        return float(sum(r.budget for r in self.results))


def run_rs(
    space: ConfigSpace,
    objective: Objective,
    n_configs: int,
    tuning_seeds: list[int],
    rng: np.random.Generator | int,
    *,
    runner: TrialRunner | None = None,
    journal=None,
) -> RsRun:
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    if runner is None:
        runner = TrialRunner(objective, tuning_seeds, journal=journal)

    configs = [sample(space, rng) for _ in range(n_configs)]
    results: list[GroupResult] = runner.evaluate_many(
        [{"config": c, "budget": 1.0, "purpose": "tune"} for c in configs]
    )

    best_index = None
    best_cost = math.inf
    for i, res in enumerate(results):
        if not res.failed and res.cost < best_cost:
            best_index, best_cost = i, res.cost
            runner.journal.append(
                {"t": INCUMBENT, "config": dict(configs[i].values), "cost": best_cost, "budget": 1.0}
            )
    if best_index is None:
        raise NoIncumbentError("no incumbent: every random-search trial failed")
    runner.journal.append(
        {
            "t": COMPLETE,
            "spend": float(sum(r.budget for r in results)),
            "groups": len(results),
            "incumbent": dict(configs[best_index].values),
            "cost": best_cost,
        }
    )
    return RsRun(
        n_configs=n_configs,
        space=space,
        results=results,
        incumbent=configs[best_index],
        incumbent_cost=best_cost,
    )
