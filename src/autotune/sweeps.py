"""One-hyperparameter-at-a-time landscape studies.

A sweep holds everything else at a base configuration and varies one
parameter over an explicit value list, running every (value, seed) pair at a
fixed budget. Trials run through the :class:`~autotune.runner.TrialRunner`
the caller gives, so a sweep trial fails by the same rule as a tuning trial,
and a sweep whose runner journals to disk (``autotune sweep`` does, see
:mod:`autotune.runs`) resumes as a tuning run does. Output rows are
ordered by value position and carry per-seed costs plus mean, std and median
over the survivors. A failed or non-finite trial is a blank cell that the
count column leaves out.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import ExternalCommand, Objective
from .runner import TrialRunner
from .space import ConfigSpace, Configuration


@dataclass(frozen=True)
class SweepSpec:
    space: ConfigSpace
    base_config: Configuration
    param: str
    values: tuple
    seeds: tuple[int, ...]
    budget: float = 1.0

    def __init__(self, space, base_config, param, values, seeds, budget=1.0):
        values = tuple(values)
        seeds = tuple(int(s) for s in seeds)
        if param not in space:
            raise ValueError(f"unknown parameter {param!r}")
        if not values:
            raise ValueError("value list must be non-empty")
        if len(set(values)) != len(values):
            raise ValueError("sweep values must be distinct")
        for v in values:
            space.validate(base_config.with_value(param, v))
        if not seeds or len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be non-empty and distinct")
        if not (0.0 < budget <= 1.0):
            raise ValueError("budget must lie in (0, 1]")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "base_config", base_config)
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "budget", float(budget))


@dataclass
class SweepRow:
    value: object
    per_seed: list  # cost per seed, None where the trial failed

    @property
    def survivors(self) -> list:
        return [c for c in self.per_seed if c is not None]

    @property
    def count(self) -> int:
        return len(self.survivors)

    @property
    def mean(self) -> float:
        return float(np.mean(self.survivors)) if self.survivors else math.nan

    @property
    def std(self) -> float:
        return float(np.std(self.survivors)) if self.survivors else math.nan

    @property
    def median(self) -> float:
        return float(np.median(self.survivors)) if self.survivors else math.nan


@dataclass
class SweepTable:
    objective: str
    param: str
    seeds: tuple[int, ...]
    budget: float
    rows: list = field(default_factory=list)

    def csv_name(self) -> str:
        return f"sweep_{self.objective}_{self.param}.csv"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["value", "seed", "cost"])
        for row in self.rows:
            for seed, cost in zip(self.seeds, row.per_seed):
                w.writerow([row.value, seed, "" if cost is None else repr(cost)])
        for row in self.rows:
            w.writerow([row.value, "mean", repr(row.mean)])
            w.writerow([row.value, "std", repr(row.std)])
            w.writerow([row.value, "median", repr(row.median)])
            w.writerow([row.value, "count", row.count])
        return buf.getvalue()


def sweep_label(objective: Objective) -> str:
    """The name a sweep of ``objective`` is filed under: the objective's
    name, or for a command ``external_command-`` and the first 8 hex digits
    of the command's sha256, so sweeps of different commands keep apart."""
    if isinstance(objective, ExternalCommand):
        digest = hashlib.sha256(objective.command.encode("utf-8")).hexdigest()
        return f"{objective.name}-{digest[:8]}"
    return objective.name


def run_sweep(spec: SweepSpec, runner: TrialRunner) -> SweepTable:
    """Evaluate |values| x |seeds| trials on ``runner``; rows ordered by
    value position."""
    results = runner.evaluate_many(
        [
            {"config": spec.base_config.with_value(spec.param, v), "budget": spec.budget,
             "seeds": spec.seeds, "purpose": "sweep"}
            for v in spec.values
        ]
    )
    rows = [SweepRow(value=v, per_seed=r.per_seed_cost) for v, r in zip(spec.values, results)]
    return SweepTable(
        objective=sweep_label(runner.objective), param=spec.param, seeds=spec.seeds,
        budget=spec.budget, rows=rows,
    )


@dataclass
class SweepSummary:
    per_table: list  # (worst_within_best_band, drop_below_20pct) per table
    worst_within_best_band: int = 0
    drop_below_20pct: int = 0

    @property
    def n_tables(self) -> int:
        return len(self.per_table)


def worst_vs_best_summary(tables: list[SweepTable]) -> SweepSummary:
    """Per table: is the worst value's mean inside the best value's std band,
    and does the best-to-worst median drop stay under 20%? Costs are
    lower-is-better, so the worst row has the largest mean."""
    if not tables:
        raise ValueError("need at least one sweep table")
    per_table = []
    within = 0
    small_drop = 0
    for table in tables:
        rows = [r for r in table.rows if r.count > 0]
        if not rows:
            per_table.append((False, False))
            continue
        best = min(rows, key=lambda r: r.mean)
        worst = max(rows, key=lambda r: r.mean)
        in_band = worst.mean <= best.mean + best.std
        denom = max(abs(best.median), 1e-12)
        drop_ok = (worst.median - best.median) / denom < 0.20
        per_table.append((in_band, drop_ok))
        within += in_band
        small_drop += drop_ok
    return SweepSummary(
        per_table=per_table,
        worst_within_best_band=within,
        drop_below_20pct=small_drop,
    )
