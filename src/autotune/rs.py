"""Random search: sample n configurations, evaluate all at full budget on the
runner's tuning seeds, keep the best as incumbent (ties broken by earliest
trial). Like every optimizer it takes ``(space, runner, rng, **settings)``
and returns the runner's :class:`~autotune.runner.TuneResult`."""
from __future__ import annotations

import math

import numpy as np

from .journal import INCUMBENT
from .runner import NoIncumbentError, TrialRunner, TuneResult
from .space import ConfigSpace, check_settings, sample

# run_rs's settings: name -> (test, its range in words)
RULES = {"n_configs": (lambda v: v >= 1, ">= 1")}


def run_rs(
    space: ConfigSpace, runner: TrialRunner, rng: np.random.Generator, *, n_configs: int
) -> TuneResult:
    check_settings(RULES, locals())  # locals() holds just the arguments here
    configs = [sample(space, rng) for _ in range(n_configs)]
    results = runner.evaluate_many(
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
    return runner.complete(
        configs[best_index], best_cost, float(sum(r.budget for r in results))
    )
