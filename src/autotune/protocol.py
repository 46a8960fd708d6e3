"""Experiment discipline: seed splits, repetitions, held-out testing, ranking.

Tuning and testing use disjoint seed sets. Each repetition runs one optimizer
with an independent rng against the tuning seeds under a fixed full-run budget
(journal-audited), then evaluates the incumbent once per test seed at full
budget. Method comparison uses a band rank: per environment, the best mean
earns rank 1 together with every method whose mean lies within the best's
standard deviation; the next best unranked method anchors the next free rank
(1 + number already ranked), and so on. Mean ranks are averaged across
environments and reported to one decimal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dehb, pbt, rs
from .budgets import ladder, rung_capacity
from .dehb import run_dehb
from .pbt import run_pbt
from .rs import run_rs
from .runner import TrialRunner, TuneResult
from .space import ConfigSpace, Configuration, check_settings


@dataclass(frozen=True)
class SeedPlan:
    """Disjoint tuning and test seeds."""

    tuning_seeds: tuple[int, ...]
    test_seeds: tuple[int, ...]

    def __init__(self, tuning_seeds, test_seeds):
        tuning = tuple(int(s) for s in tuning_seeds)
        test = tuple(int(s) for s in test_seeds)
        if not tuning or not test:
            raise ValueError("both seed sets must be non-empty")
        if len(set(tuning)) != len(tuning) or len(set(test)) != len(test):
            raise ValueError("seed sets must not contain duplicates")
        overlap = set(tuning) & set(test)
        if overlap:
            raise ValueError(f"tuning and test seeds overlap: {sorted(overlap)}")
        object.__setattr__(self, "tuning_seeds", tuning)
        object.__setattr__(self, "test_seeds", test)


@dataclass(frozen=True)
class MethodSpec:
    """An optimizer plus its settings; sized to the run budget at plan time."""

    kind: str  # rs | dehb | pbt
    name: str = ""
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("rs", "dehb", "pbt"):
            raise ValueError(f"unknown method kind {self.kind!r}")
        if not self.name:
            object.__setattr__(self, "name", self.kind)

    def plan(self, budget_runs: int) -> dict:
        """Concrete settings that keep total spend within ``budget_runs``.

        Raises ValueError when a setting lies outside the range its tuner
        takes, or when the settings spend more than the budget: a budget
        below one full run, below one DEHB iteration (a whole ladder), or
        below an explicit DEHB iteration count or PBT population.
        """
        if budget_runs < 1:
            raise ValueError("budget_runs must be >= 1")
        opts = dict(self.options)
        check_settings({"rs": rs, "dehb": dehb, "pbt": pbt}[self.kind].RULES, opts)
        if self.kind == "rs":
            opts.setdefault("n_configs", int(budget_runs))
            spend = opts["n_configs"]
        elif self.kind == "dehb":
            eta = opts.setdefault("eta", 1.9)
            min_budget = opts.setdefault("min_budget", 0.01)
            rungs = ladder(min_budget, eta)
            n = len(rungs)
            if "iterations" not in opts:
                spend, iters = 0.0, 0
                while iters < n and spend + (n - iters) <= budget_runs + 1e-9:
                    spend += n - iters
                    iters += 1
                if iters == 0:
                    raise ValueError(
                        f"budget of {budget_runs} full runs is less than one DEHB "
                        f"iteration ({n} full runs)"
                    )
                opts["iterations"] = iters
            # what run_dehb spends: each active rung filled to capacity
            spend = sum(
                rung_capacity(b) * b
                for it in range(min(opts["iterations"], n))
                for b in rungs[it:]
            )
        else:
            warm = opts.setdefault("warmstart_runs", 0)
            opts.setdefault("population_size", max(2, int(budget_runs) - int(warm)))
            opts.setdefault("num_intervals", 20)
            opts.setdefault("quantile", 0.125)
            opts.setdefault("explore_mode", "perturb")
            spend = opts["population_size"] + warm
        if spend > budget_runs + 1e-9:
            raise ValueError(
                f"planned spend of {spend:.6g} full runs exceeds the budget of "
                f"{budget_runs}"
            )
        return opts


def run_method(
    method: MethodSpec,
    space: ConfigSpace,
    runner: TrialRunner,
    rng: np.random.Generator,
    opts: dict,
) -> TuneResult:
    """Run ``method``'s optimizer on ``runner`` with the settings
    ``method.plan`` gave."""
    return {"rs": run_rs, "dehb": run_dehb, "pbt": run_pbt}[method.kind](
        space, runner, rng, **opts
    )


@dataclass
class RepetitionResult:
    repetition: int
    incumbent: Configuration | None
    tuning_cost: float | None
    test_costs: list
    failed: bool = False
    spend: float = 0.0

    @property
    def test_mean(self) -> float | None:
        return None if self.failed else float(np.mean(self.test_costs))

    @property
    def test_std(self) -> float | None:
        return None if self.failed else float(np.std(self.test_costs))


@dataclass
class IncumbentReport:
    method: str
    objective: str
    repetitions: list

    @property
    def surviving(self) -> list:
        return [r for r in self.repetitions if not r.failed]

    @property
    def aggregate_mean(self) -> float:
        return float(np.mean([r.test_mean for r in self.surviving]))

    @property
    def aggregate_std(self) -> float:
        return float(np.std([r.test_mean for r in self.surviving]))


# ---------------------------------------------------------------------------
# Rank computation


@dataclass
class RankTable:
    environments: list
    methods: list
    cells: dict  # (environment, method) -> (mean, std)
    ranks: dict  # (environment, method) -> rank
    mean_ranks: dict  # method -> float (unrounded)

    def mean_rank_rounded(self, method: str) -> float:
        return round(self.mean_ranks[method], 1)


def rank_methods(cells: dict, higher_is_better: bool = True) -> RankTable:
    """Band ranks from per-environment (mean, std) cells.

    ``cells`` maps environment -> {method: (mean, std)}. Every environment
    must contain every method. The current anchor's std defines the band; a
    method falling inside the bands of two anchors keeps the earlier (better)
    rank.
    """
    environments = list(cells)
    if not environments:
        raise ValueError("need at least one environment")
    methods = list(cells[environments[0]])
    for env in environments:
        missing = set(methods) ^ set(cells[env])
        if missing:
            raise ValueError(f"missing cell for {(env, sorted(missing)[0])}")
    ranks = {}
    for env in environments:
        stats = cells[env]
        sign = -1.0 if higher_is_better else 1.0
        order = sorted(methods, key=lambda m: sign * stats[m][0])
        assigned: dict[str, int] = {}
        while len(assigned) < len(methods):
            anchor = next(m for m in order if m not in assigned)
            rank = 1 + len(assigned)
            a_mean, a_std = stats[anchor]
            for m in order:
                if m in assigned:
                    continue
                mean = stats[m][0]
                inside = mean >= a_mean - a_std if higher_is_better else mean <= a_mean + a_std
                if inside:
                    assigned[m] = rank
        for m, r in assigned.items():
            ranks[(env, m)] = r
    mean_ranks = {
        m: float(np.mean([ranks[(env, m)] for env in environments])) for m in methods
    }
    return RankTable(
        environments=environments,
        methods=methods,
        cells={(e, m): tuple(cells[e][m]) for e in environments for m in methods},
        ranks=ranks,
        mean_ranks=mean_ranks,
    )
