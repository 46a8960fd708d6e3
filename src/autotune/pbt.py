"""Population-based training with synchronized intervals.

A population of members trains in lockstep: each round every member trains
from its checkpoint for another 1/num_intervals of the full budget and is
evaluated. The worst k = max(1, floor(quantile * n)) members are then
replaced by copies (configuration and checkpoint, byte-identical) of the best
k members and explored: either by random perturbation of each hyperparameter or
by a Gaussian-process suggestion fitted to the cost history. Survivors keep
their configurations and checkpoints untouched. The incumbent is the best
member after the final interval, which is the one result offered to the
runner that keeps it. The lineage lives in the journal: each
``explore`` record names the interval, the member, the winner it copied and
the configuration it adopted, so the schedule any member trained can be
read back from those records.

The GP's target follows from the warmstart: with ``warmstart_runs > 0`` it
models raw cost, since the warmstart points are full-run costs; without one
it models each interval's change in cost (lower is better), and an interval
that follows no finite cost (a member's first, or one after a failure) adds
no point.

Optional extensions: full-budget warmstart runs that preload the model and
seed the initial population with their best configurations, and model
restarts when the best interval cost stagnates.

Like every optimizer, :func:`run_pbt` takes ``(space, runner, rng,
**settings)`` and returns the runner's :class:`~autotune.runner.TuneResult`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gp import GpFitError, GpModel, fit_gp, suggest_candidate
from .journal import EXPLOIT, EXPLORE
from .runner import TrialRunner, TuneResult
from .space import (
    PERTURB_RULES,
    ConfigSpace,
    Configuration,
    check_settings,
    from_unit,
    perturb,
    sample,
    to_unit,
)

PERTURB = "perturb"
GP = "gp"

# run_pbt's settings: name -> (test, its range in words)
RULES = {
    "population_size": (lambda v: v >= 2, ">= 2"),
    "num_intervals": (lambda v: v >= 1, ">= 1"),
    "quantile": (lambda v: 0.0 < v <= 0.5, "in (0, 0.5]"),
    "explore_mode": (lambda v: v in (PERTURB, GP), "'perturb' or 'gp'"),
    "warmstart_runs": (lambda v: v >= 0, ">= 0"),
    "restart_patience": (lambda v: v is None or v >= 1, ">= 1"),
    "explore_prob": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    **PERTURB_RULES,
}


@dataclass
class Member:
    id: int
    config: Configuration
    checkpoints: dict = field(default_factory=dict)  # seed -> CheckpointHandle
    cost: float = math.inf  # the last interval's, or its winner's after an exploit
    unit: np.ndarray | None = None  # to_unit of config, once a GP point needs it

    def encoded(self, space: ConfigSpace) -> np.ndarray:
        if self.unit is None:
            self.unit = to_unit(space, self.config)
        return self.unit


def exploit(costs: list[float], quantile: float) -> list[tuple[int, int]]:
    """Truncation plan: pair the worst k = max(1, floor(q*n)) members with
    the best k, so every population of two or more exploits; ``quantile``
    lies in (0, 0.5] (see ``RULES``).

    Returns (loser index, winner index) pairs; rank-1 loser (the very worst)
    copies the rank-1 winner (the very best). Ties rank by member index:
    among equal costs the lowest index is the better member.
    """
    n = len(costs)
    if n < 2:
        return []
    k = max(1, int(quantile * n))
    order = sorted(range(n), key=lambda i: (costs[i], i))
    winners = order[:k]
    losers = order[-k:][::-1]  # worst first
    return [(l, w) for l, w in zip(losers, winners)]


# the least drop in the best interval cost that counts as an improvement
RESTART_TOLERANCE = 1e-6


def kernel_restart_check(best_costs: list[float], patience: int) -> str:
    """'restart' iff the best interval cost has not improved by more than
    ``RESTART_TOLERANCE`` for ``patience`` (>= 1) consecutive intervals."""
    if len(best_costs) < 2:
        return "keep"
    best = best_costs[0]
    stagnant = 0
    for cost in best_costs[1:]:
        if cost < best - RESTART_TOLERANCE:
            best = cost
            stagnant = 0
        else:
            stagnant += 1
        if stagnant >= patience:
            return "restart"
    return "keep"


def warmstart(
    space: ConfigSpace, runner: TrialRunner, rng: np.random.Generator, warmstart_runs: int
) -> tuple[list, list[Configuration]]:
    """Evaluate ``warmstart_runs`` random configurations at full budget.

    Returns the completed results (for preloading a model) and the sampled
    configurations ranked best-first by cost; failures are dropped.
    """
    configs = [sample(space, rng) for _ in range(warmstart_runs)]
    results = runner.evaluate_many(
        [{"config": c, "budget": 1.0, "purpose": "warmstart"} for c in configs]
    )
    done = [(r.cost, i) for i, r in enumerate(results) if not r.failed]
    done.sort()
    ranked = [configs[i] for _, i in done]
    return [results[i] for _, i in done], ranked


def plan(budget_runs: int, settings: dict) -> float:
    """Size the population to the full runs ``budget_runs`` leaves after the
    warmstart, at least 2, unless ``population_size`` is given; return the
    spend run_pbt states, a full run per member and per warmstart run."""
    warm = settings["warmstart_runs"]
    settings.setdefault("population_size", max(2, int(budget_runs) - int(warm)))
    return float(settings["population_size"] + warm)


def run_pbt(
    space: ConfigSpace,
    runner: TrialRunner,
    rng: np.random.Generator,
    *,
    population_size: int,
    num_intervals: int = 20,
    quantile: float = 0.125,
    explore_mode: str = PERTURB,
    warmstart_runs: int = 0,
    factor_up: float = 1.2,
    factor_down: float = 0.8,
    resample_prob: float = 0.25,
    explore_prob: float = 1.0,
    restart_patience: int | None = 3,
) -> TuneResult:
    check_settings(RULES, locals())  # locals() holds just the arguments here
    model_cost = warmstart_runs > 0  # the GP's target; see the module docstring
    warm_results, warm_ranked = warmstart(space, runner, rng, warmstart_runs)

    members = []
    for i in range(population_size):
        cfg = warm_ranked[i] if i < len(warm_ranked) else sample(space, rng)
        members.append(Member(id=i, config=cfg))

    # model history: (unit config vector, normalized time, target), kept
    # only when the GP explores
    gp_points: list[tuple[np.ndarray, float, float]] = []
    warm_points: list[tuple[np.ndarray, float, float]] = []
    if model_cost and explore_mode == GP:
        for res in warm_results:
            warm_points.append((to_unit(space, res.config), 1.0, res.cost))
        gp_points = list(warm_points)
    gp_restarts = 0
    grid_scale = 1.0  # re-randomized on every model restart
    best_per_interval: list[float] = []

    # the last fit as ((point count, restart count), model or None): points
    # are only appended between restarts, so the pair names the data
    last_fit: tuple | None = None

    def fitted_model() -> GpModel | None:
        """The GP of the current points, or None where fitting fails."""
        nonlocal last_fit
        key = (len(gp_points), gp_restarts)
        if last_fit is None or last_fit[0] != key:
            try:
                model = fit_gp(
                    np.array([p[0] for p in gp_points]),
                    np.array([p[1] for p in gp_points]),
                    np.array([p[2] for p in gp_points]),
                    length_scale_grid=np.geomspace(0.05, 2.0, 5) * grid_scale,
                    time_scale_grid=np.geomspace(0.05, 2.0, 5) * grid_scale,
                )
            except GpFitError:  # the same data fails the same way
                model = None
            last_fit = (key, model)
        return last_fit[1]

    def explore_config(base: Configuration, interval: int) -> tuple[Configuration, str]:
        if explore_mode == GP:
            model = fitted_model() if len(gp_points) >= 2 else None
            if model is not None:
                vec = suggest_candidate(
                    model,
                    time_value=(interval + 1) / num_intervals,
                    dimension=space.dimension,
                    rng=rng,
                )
                return from_unit(space, vec), GP
            return (
                perturb(space, base, rng, factor_up, factor_down, resample_prob),
                "gp_fallback",
            )
        return perturb(space, base, rng, factor_up, factor_down, resample_prob), PERTURB

    for interval in range(1, num_intervals + 1):
        budget = interval / num_intervals
        results = runner.evaluate_many(
            [
                {
                    "config": m.config,
                    "budget": budget,
                    "purpose": "tune",
                    "resume": m.checkpoints or None,
                    "tags": {"interval": interval, "member": m.id},
                }
                for m in members
            ]
        )
        for m, res in zip(members, results):
            prev, m.cost = m.cost, res.cost
            m.checkpoints.update(res.checkpoints)
            if not res.failed and explore_mode == GP:
                if model_cost:
                    gp_points.append((m.encoded(space), budget, res.cost))
                elif math.isfinite(prev):
                    # cost change, lower (more negative) is better
                    gp_points.append((m.encoded(space), budget, res.cost - prev))

        costs = [m.cost for m in members]
        finite = [c for c in costs if math.isfinite(c)]
        if finite:
            best_per_interval.append(min(finite))

        if interval == num_intervals:
            break  # nothing left to train; exploit/explore would be dead weight

        pairs = exploit(costs, quantile)
        runner.journal.append(
            {
                "t": EXPLOIT,
                "interval": interval,
                "plan": [[l, w] for l, w in pairs],
                "costs": [None if math.isinf(c) else c for c in costs],
            }
        )
        for loser_i, winner_i in pairs:
            loser, winner = members[loser_i], members[winner_i]
            # shared: only the runner writes a handle, filling a replayed one's payload once
            loser.checkpoints = dict(winner.checkpoints)
            loser.cost = winner.cost
            if float(rng.random()) < explore_prob:
                new_cfg, mode = explore_config(winner.config, interval)
                loser.unit = None
            else:
                new_cfg, mode = winner.config, "keep"
                loser.unit = winner.unit
            loser.config = new_cfg
            runner.journal.append(
                {
                    "t": EXPLORE,
                    "interval": interval,
                    "member": loser.id,
                    "source": winner.id,
                    "mode": mode,
                    "config": dict(new_cfg.values),
                }
            )

        if explore_mode == GP and restart_patience is not None and len(best_per_interval) >= 2:
            if kernel_restart_check(best_per_interval, restart_patience) == "restart":
                gp_points = list(warm_points)
                best_per_interval = [best_per_interval[-1]]
                gp_restarts += 1
                grid_scale = float(np.exp(rng.uniform(-0.5, 0.5)))

    # the best member after the final interval, the lowest index among equals
    runner.keep_best([min(results, key=lambda res: res.cost)])
    return runner.complete(float(population_size + warmstart_runs))
