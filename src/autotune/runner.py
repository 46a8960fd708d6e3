"""Trial execution: journaling, multi-seed groups, replay, worker pool.

Optimizers evaluate configurations through a :class:`TrialRunner`. One *group*
is a (configuration, budget) evaluated on every tuning seed; its spend is the
budget fraction (seeds are the protocol's price of reliability, not extra
tuning budget). Every trial and group lands in the journal; when the journal
is in replay mode the runner returns recorded results instead of calling the
objective, which is what makes interrupted runs resumable bit-for-bit.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .checkpoints import CheckpointPack
from .journal import GROUP, TRIAL, Journal
from .objectives import (
    DONE,
    FAILED,
    CheckpointHandle,
    EvaluationError,
    Objective,
)
from .space import Configuration


class RunInterrupted(RuntimeError):
    """Raised by the runner when the configured group limit is reached."""


class NoIncumbentError(RuntimeError):
    """Every candidate evaluation failed; no incumbent exists."""


@dataclass
class GroupResult:
    """Outcome of one multi-seed evaluation group."""

    group: int
    config: Configuration
    budget: float
    seeds: tuple[int, ...]
    per_seed_cost: list  # float per seed, None where failed
    failed: bool
    checkpoints: dict  # seed -> CheckpointHandle
    purpose: str = "tune"

    @property
    def mean_cost(self) -> float | None:
        if self.failed:
            return None
        return sum(self.per_seed_cost) / len(self.per_seed_cost)

    @property
    def cost(self) -> float:
        """Mean cost with failures mapped to +inf for ranking."""
        m = self.mean_cost
        return math.inf if m is None else m


@dataclass
class _LiveGroup:
    """A group that was started and is not journaled yet."""

    group: int
    config: Configuration
    budget: float
    seeds: tuple[int, ...]
    purpose: str
    resume: dict | None
    tags: dict | None


class TrialRunner:
    """Evaluates groups against an objective, journaling as it goes.

    Checkpoints go to one pack in ``checkpoint_dir`` (see
    :mod:`autotune.checkpoints`), opened once; :meth:`close` closes it and
    every pack that replayed checkpoints were read from.
    """

    def __init__(
        self,
        objective: Objective,
        seeds: list[int],
        journal: Journal | None = None,
        checkpoint_dir: str | None = None,
        workers: int = 1,
        max_groups: int | None = None,
    ):
        if not seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")
        self.objective = objective
        self.seeds = list(int(s) for s in seeds)
        self.journal = journal if journal is not None else Journal()
        if self.journal.header is None:
            self.journal.write_header({"method": "adhoc"})
        self.checkpoint_dir = checkpoint_dir
        self.workers = max(1, int(workers))
        self.max_groups = max_groups
        # next live group id continues after any groups already in the journal
        self._groups = len(self.journal.of_type(GROUP))
        self._started = 0
        self._packs: dict[str, CheckpointPack] = {}  # by directory

    @property
    def groups_run(self) -> int:
        return self._started

    def evaluate_group(
        self,
        config: Configuration,
        budget: float,
        seeds: list[int] | None = None,
        purpose: str = "tune",
        resume: dict | None = None,
        tags: dict | None = None,
    ) -> GroupResult:
        """Evaluate ``config`` at ``budget`` on each seed; journal everything."""
        started = self._start(config, budget, seeds, purpose, resume, tags)
        if isinstance(started, GroupResult):
            return started
        return self._commit(started, self._run(started))

    def evaluate_many(self, requests: list[dict]) -> list[GroupResult]:
        """Evaluate several groups as ``evaluate_group`` would, one by one.

        With more than one worker the objective runs on a thread pool, but
        group ids, checkpoints and journal records still follow request
        order, so the journal is the one a single worker writes.
        """
        if self.workers == 1 or len(requests) <= 1:
            return [self.evaluate_group(**req) for req in requests]
        started, interrupted = [], None
        for req in requests:
            try:
                started.append(self._start(**req))
            except RunInterrupted as err:
                interrupted = err
                break
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            runs = [
                None if isinstance(s, GroupResult) else pool.submit(self._run, s)
                for s in started
            ]
            results = [
                s if run is None else self._commit(s, run.result())
                for s, run in zip(started, runs)
            ]
        if interrupted is not None:
            raise interrupted
        return results

    def close(self) -> None:
        for pack in self._packs.values():
            pack.close()
        self._packs.clear()

    # -- helpers -------------------------------------------------------------

    def _start(self, config, budget, seeds=None, purpose="tune", resume=None, tags=None):
        """A replayed group's result, or a new group with the next id."""
        seeds = tuple(self.seeds if seeds is None else (int(s) for s in seeds))
        key = {
            "config": _jsonable_config(config),
            "budget": budget,
            "seeds": list(seeds),
            "purpose": purpose,
        }
        replayed = self.journal.take_group_if_pending(key)
        if replayed is not None:
            self._started += 1
            return self._rehydrate(config, budget, seeds, purpose, replayed)
        if self.max_groups is not None and self._started >= self.max_groups:
            raise RunInterrupted(f"group limit {self.max_groups} reached")
        self._started += 1
        self._groups += 1
        return _LiveGroup(self._groups - 1, config, budget, seeds, purpose, resume, tags)

    def _run(self, live: _LiveGroup) -> list[tuple]:
        """(seed, cost, checkpoint, error, wall time) per seed; a failure or
        a non-finite cost leaves cost and checkpoint None."""
        trials = []
        for seed in live.seeds:
            handle = None if live.resume is None else live.resume.get(seed)
            t0 = time.perf_counter()
            cost, ckpt, error = None, None, ""
            try:
                cost, ckpt = self.objective.evaluate(
                    live.config, live.budget, seed, resume=handle
                )
            except EvaluationError as err:
                error = str(err)
            if cost is not None and not math.isfinite(cost):
                cost, ckpt, error = None, None, f"non-finite cost {cost!r}"
            trials.append((seed, cost, ckpt, error, time.perf_counter() - t0))
        return trials

    def _commit(self, live: _LiveGroup, trials: list[tuple]) -> GroupResult:
        """Persist a group's checkpoints, then journal its trials and itself."""
        # spend is the incremental training fraction: resuming from a
        # checkpoint at f and training to b costs b - f, not b
        resumed_from = 0.0
        if live.resume:
            resumed_from = max(
                h.trained_fraction for h in live.resume.values() if h is not None
            )
        checkpoints = self._persist(
            live.group, {seed: ckpt for seed, _, ckpt, _, _ in trials if ckpt is not None}
        )
        config = _jsonable_config(live.config)
        per_seed = [cost for _, cost, _, _, _ in trials]
        failed = any(cost is None for cost in per_seed)
        for seed, cost, _, error, wall in trials:
            ckpt = checkpoints.get(seed)
            self.journal.append(
                {
                    "t": TRIAL,
                    "group": live.group,
                    "config": config,
                    "budget": live.budget,
                    "seed": seed,
                    "cost": cost,
                    "status": DONE if cost is not None else FAILED,
                    "error": error,
                    "wall_time": wall,
                    "ckpt": None if ckpt is None else ckpt.path,
                    "frac": None if ckpt is None else ckpt.trained_fraction,
                    "purpose": live.purpose,
                }
            )
        group_rec = {
            "t": GROUP,
            "group": live.group,
            "config": config,
            "budget": live.budget,
            "seeds": list(live.seeds),
            "mean_cost": None if failed else sum(per_seed) / len(per_seed),
            "failed": failed,
            "spend": live.budget - resumed_from,
            "purpose": live.purpose,
        }
        if live.tags:
            group_rec["tags"] = live.tags
        self.journal.append(group_rec)
        return GroupResult(
            group=live.group,
            config=live.config,
            budget=live.budget,
            seeds=live.seeds,
            per_seed_cost=per_seed,
            failed=failed,
            checkpoints=checkpoints,
            purpose=live.purpose,
        )

    def _pack(self, directory: str) -> CheckpointPack:
        pack = self._packs.get(directory)
        if pack is None:
            if directory == self.checkpoint_dir:
                pack = CheckpointPack.open_for_append(directory)
            else:
                pack = CheckpointPack(directory)
            self._packs[directory] = pack
        return pack

    def _persist(self, group_id: int, checkpoints: dict) -> dict:
        """Append a group's checkpoint payloads to the pack and flush them,
        so every checkpoint its journal records name survives a kill."""
        if self.checkpoint_dir is None or not checkpoints:
            return checkpoints
        pack = self._pack(self.checkpoint_dir)
        persisted = {}
        for seed, ckpt in checkpoints.items():
            if ckpt.payload is None:
                persisted[seed] = ckpt
                continue
            name = f"g{group_id:06d}_s{seed}_f{ckpt.trained_fraction:.6f}.ckpt"
            persisted[seed] = CheckpointHandle(
                key=ckpt.key,
                trained_fraction=ckpt.trained_fraction,
                payload=ckpt.payload,
                path=pack.append(name, ckpt.payload),
            )
        pack.flush()
        return persisted

    def _rehydrate(self, config, budget, seeds, purpose, records) -> GroupResult:
        trials = [r for r in records if r["t"] == TRIAL]
        group_rec = records[-1]
        per_seed = []
        checkpoints = {}
        for rec in trials:
            per_seed.append(rec["cost"])
            if rec.get("ckpt"):
                checkpoints[rec["seed"]] = CheckpointHandle(
                    key=f"replay:g{rec['group']}:s{rec['seed']}",
                    trained_fraction=rec["frac"],
                    path=rec["ckpt"],
                    pack=self._pack(os.path.dirname(rec["ckpt"])),
                )
            elif rec.get("frac") is not None:
                checkpoints[rec["seed"]] = CheckpointHandle(
                    key=f"replay:g{rec['group']}:s{rec['seed']}",
                    trained_fraction=rec["frac"],
                    payload=b"",
                )
        return GroupResult(
            group=group_rec["group"],
            config=config,
            budget=budget,
            seeds=tuple(seeds),
            per_seed_cost=per_seed,
            failed=group_rec["failed"],
            checkpoints=checkpoints,
            purpose=purpose,
        )


def _jsonable_config(config: Configuration) -> dict:
    return dict(config.values)
