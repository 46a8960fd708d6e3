"""Experiment discipline: seed splits, repetitions, held-out testing, ranking.

Tuning and testing use disjoint seed sets. Each repetition runs one optimizer
with an independent rng against the tuning seeds under a fixed full-run budget,
then evaluates the incumbent once per test seed at full budget. :func:`audit`
states once each rule a repetition's journal is checked against: tune and
warmstart groups use tuning seeds only, test groups use exactly the test
seeds, and tuning spend stays within ``budget_runs``. A run over budget is not
tested, and the checklist reads the same verdicts. Method comparison uses a
band rank: per environment, the best mean earns rank 1 together with every
method whose mean lies within the best's standard deviation; the next best
unranked method anchors the next free rank (1 + number already ranked), and
so on. Mean ranks are averaged across environments and reported to one decimal.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from . import dehb, pbt, rs
from .dehb import run_dehb
from .journal import GROUP, TUNING, Journal
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
class Verdict:
    """Whether a rule holds (None: the journal cannot tell), and why."""

    holds: bool | None
    evidence: str


def audit(journal: Journal) -> dict[str, Verdict]:
    """Judge one repetition's journal against its own header: ``{rule:
    Verdict}`` for ``tuning_seeds_only``, ``test_seeds_exactly`` and
    ``within_budget``. A rule cannot be told when the header lacks what it
    judges by, nor the test seeds before a test group has run."""
    header = journal.header or {}
    plan = header.get("seed_plan") or {}
    tuning, test, budget = plan.get("tuning"), plan.get("test"), header.get("budget_runs")
    tuned, tested = set(), set()
    for g in journal.of_type(GROUP):
        if g.get("purpose") in TUNING:
            tuned.update(g["seeds"])
        elif g.get("purpose") == "test":
            tested.update(g["seeds"])
    verdicts = {
        "tuning_seeds_only": Verdict(None, "the header has no tuning seeds"),
        "test_seeds_exactly": Verdict(None, "the header has no test seeds"),
        "within_budget": Verdict(None, "the header has no budget_runs"),
    }
    if tuning:
        verdicts["tuning_seeds_only"] = Verdict(
            tuned <= set(tuning),
            f"tuning groups ran on seeds {sorted(tuned)}; the tuning seeds are {tuning}",
        )
    if test:
        verdicts["test_seeds_exactly"] = Verdict(
            tested == set(test) if tested else None,
            f"test groups ran on seeds {sorted(tested)}; the test seeds are {test}",
        )
    if budget is not None:
        spend = journal.spend()
        over = spend > budget + 1e-9
        verdicts["within_budget"] = Verdict(
            not over, f"spent {spend} {'>' if over else '<='} {budget} full-run equivalents"
        )
    return verdicts


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
        """Concrete settings that keep total spend within ``budget_runs``:
        the tuner's defaults, then ``options``, then what its ``plan`` sizes
        to the budget.

        Raises ValueError when a setting lies outside the range its tuner
        takes, or when the settings spend more than the budget: a budget
        below one full run, below one DEHB iteration (a whole ladder), or
        below an explicit DEHB iteration count or PBT population.
        """
        if budget_runs < 1:
            raise ValueError("budget_runs must be >= 1")
        module = {"rs": rs, "dehb": dehb, "pbt": pbt}[self.kind]
        opts = {**defaults(self.kind), **self.options}
        check_settings(module.RULES, opts)
        spend = module.plan(budget_runs, opts)
        if spend > budget_runs + 1e-9:
            raise ValueError(
                f"planned spend of {spend:.6g} full runs exceeds the budget of "
                f"{budget_runs}"
            )
        return opts


def _tuner(kind: str):
    """``kind``'s optimizer, looked up when called, so that a wrapper bound
    to its name here (a tracer's, say) is the one called."""
    return {"rs": run_rs, "dehb": run_dehb, "pbt": run_pbt}[kind]


def defaults(kind: str) -> dict:
    """The settings ``kind``'s optimizer has a default for, with that default."""
    return {
        p.name: p.default
        for p in inspect.signature(_tuner(kind)).parameters.values()
        if p.default is not p.empty
    }


def run_method(
    method: MethodSpec,
    space: ConfigSpace,
    runner: TrialRunner,
    rng: np.random.Generator,
    opts: dict,
) -> TuneResult:
    """Run ``method``'s optimizer on ``runner`` with the settings
    ``method.plan`` gave."""
    return _tuner(method.kind)(space, runner, rng, **opts)


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
        """Mean of the surviving test means; NaN when none survived."""
        means = [r.test_mean for r in self.surviving]
        return float(np.mean(means)) if means else math.nan

    @property
    def aggregate_std(self) -> float:
        means = [r.test_mean for r in self.surviving]
        return float(np.std(means)) if means else math.nan


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
    must contain every method, each with a finite mean and std. The current
    anchor's std defines the band; a method falling inside the bands of two
    anchors keeps the earlier (better) rank.
    """
    environments = list(cells)
    if not environments:
        raise ValueError("need at least one environment")
    methods = list(cells[environments[0]])
    for env in environments:
        missing = set(methods) ^ set(cells[env])
        if missing:
            raise ValueError(f"missing cell for {(env, sorted(missing)[0])}")
        for m, (mean, std) in cells[env].items():
            if not (math.isfinite(mean) and math.isfinite(std)):
                raise ValueError(f"{env}: {m} has no finite mean and std; did all its runs fail?")
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
