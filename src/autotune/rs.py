"""Random search: sample n configurations, evaluate all at full budget on the
runner's tuning seeds, and offer every result to the runner, which keeps the
best as incumbent (ties broken by earliest trial). Like every optimizer it
takes ``(space, runner, rng, **settings)`` and returns the runner's
:class:`~autotune.runner.TuneResult`."""
from __future__ import annotations

import numpy as np

from .runner import TrialRunner, TuneResult
from .space import ConfigSpace, check_settings, sample

# run_rs's settings: name -> (test, its range in words)
RULES = {"n_configs": (lambda v: v >= 1, ">= 1")}


def plan(budget_runs: int, settings: dict) -> float:
    """Size ``settings`` to ``budget_runs`` full runs (one configuration per
    run unless ``n_configs`` is given) and return the spend run_rs states."""
    settings.setdefault("n_configs", int(budget_runs))
    return float(settings["n_configs"])


def run_rs(
    space: ConfigSpace, runner: TrialRunner, rng: np.random.Generator, *, n_configs: int
) -> TuneResult:
    check_settings(RULES, locals())  # locals() holds just the arguments here
    configs = [sample(space, rng) for _ in range(n_configs)]
    runner.keep_best(
        runner.evaluate_many(
            [{"config": c, "budget": 1.0, "purpose": "tune"} for c in configs]
        )
    )
    return runner.complete(float(n_configs))
