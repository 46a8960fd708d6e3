"""Trial execution: journaling, multi-seed groups, replay, worker processes.

Optimizers evaluate configurations through a :class:`TrialRunner`, which owns
the objective, the tuning seeds, the journal and the incumbent: an optimizer
offers its full-budget results to :meth:`TrialRunner.keep_best`, which keeps
the best, and ends with :meth:`TrialRunner.complete`, which journals it with
the optimizer's spend. One *group* is a (configuration, budget) evaluated on
every tuning seed; its spend is the budget fraction (seeds are the protocol's
price of reliability, not extra tuning budget). Every trial and group lands
in the journal; when the journal is in replay mode the runner reads what
the objective produced from the recorded trial records instead of calling
it, and commits the group as a live one (:meth:`TrialRunner._commit`): the
journal builds its records from the same values and checks them whole.
That is what makes interrupted runs resumable bit-for-bit. An objective
returns its state as bytes; the runner gives each checkpoint, live or
replayed, its group's budget and its frame's name. Before a live group
resumes from a replayed checkpoint, the runner reads its payload from
``checkpoint_dir``'s pack when that holds the frame, else from the recorded
pack: a run directory owns its frames, so a copied run never reads a pack
that has replaced the original's.

One rule holds at every worker count: groups are journaled in request order,
a batch stops at the first group that raised (the groups before it are
journaled, it and the rest are not), and a group's id is the count of groups
journaled before it. With ``workers > 1`` the runner forks worker processes
that evaluate part of each :meth:`TrialRunner.evaluate_many` batch;
everything that is written (checkpoints, journal records) stays in the
calling process.
"""
from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
import time
from dataclasses import dataclass

from .checkpoints import CheckpointPack
from .journal import COMPLETE, DONE, INCUMBENT, Journal
from .objectives import CheckpointHandle, EvaluationError, Objective
from .space import Configuration


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


@dataclass(frozen=True)
class TuneResult:
    """What every optimizer returns: its incumbent and that one's cost."""

    incumbent: Configuration
    incumbent_cost: float


@dataclass
class _LiveGroup:
    """A requested group; a live one gets its id when it is journaled."""

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
    every pack that replayed checkpoints were read from, and stops the
    worker processes. Those are forked, and forking a process that runs
    threads can deadlock, so a caller with threads of its own keeps
    ``workers`` at 1.
    """

    def __init__(
        self,
        objective: Objective,
        seeds: list[int],
        journal: Journal | None = None,
        checkpoint_dir: str | None = None,
        workers: int = 1,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.objective = objective
        self.seeds = list(_checked_seeds(seeds))
        self.journal = journal if journal is not None else Journal()
        if self.journal.header is None:
            self.journal.write_header({"method": "adhoc"})
        self.checkpoint_dir = checkpoint_dir
        self.workers = int(workers)
        # replayed or journaled by this runner; as a live group starts only
        # once the replay queue is empty, also the next live group's id
        self.groups_run = 0
        self._packs: dict[str, CheckpointPack] = {}  # by directory
        self._children: list = []  # (process, connection) per forked worker
        self._best: GroupResult | None = None  # the incumbent keep_best kept

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
        return self._commit(started, _run_group(self.objective, self._read_resume(started)))

    def evaluate_many(self, requests: list[dict]) -> list[GroupResult]:
        """Evaluate several groups as ``evaluate_group`` would, one by one.

        Groups are journaled in request order and numbered as they are
        journaled; the first group that raises ends the batch, after the
        groups before it are journaled. The groups the journal replays come
        first, since a live group starts only once the replay queue is empty.
        A malformed live request (bad seeds, budget, purpose or tags) raises
        before any live group runs. The live groups are split into
        contiguous chunks: worker processes, forked on the first batch that
        needs them, evaluate all but the first, which this process evaluates
        meanwhile, one group at a time; then it journals theirs. With no
        worker processes the first chunk is the whole batch.
        """
        results = []
        while len(results) < len(requests) and self.journal.replaying:
            results.append(self.evaluate_group(**requests[len(results)]))
        live = requests[len(results):]
        groups = [self._start(**req) for req in live]  # a malformed request raises here
        if len(live) > 1 and not self._children:
            self._start_children()
        n = max(1, min(len(self._children) + 1, len(live)))
        bounds = [len(live) * i // n for i in range(n + 1)]
        theirs = list(zip(self._children, bounds[1:], bounds[2:]))
        try:
            for (_, conn), a, b in theirs:
                conn.send([self._read_resume(g) for g in groups[a:b]])
            results.extend(self.evaluate_group(**req) for req in live[: bounds[1]])
            for (_, conn), a, b in theirs:
                trials, error = _receive(conn)
                results.extend(self._commit(g, t) for g, t in zip(groups[a:b], trials))
                if error is not None:
                    raise error
        except BaseException:
            self._stop_children()  # a child may still be busy; never reuse its pipe
            raise
        return results

    def keep_best(self, results: list[GroupResult]) -> None:
        """Journal each full-budget result that did not fail and costs
        strictly less than the best kept so far, in order, as the incumbent."""
        for res in results:
            if res.budget != 1.0:
                raise ValueError(f"an incumbent comes from the full budget, not {res.budget}")
            if not res.failed and res.cost < (math.inf if self._best is None else self._best.cost):
                self._best = res
                self.journal.append({"t": INCUMBENT, "config": dict(res.config.values),
                                     "cost": res.cost, "budget": 1.0})

    def complete(self, spend: float) -> TuneResult:
        """Journal the optimizer's ``complete`` record, the best result
        :meth:`keep_best` kept with ``spend``, and return it."""
        if self._best is None:
            raise NoIncumbentError("no incumbent: every full-budget candidate failed")
        best = self._best
        self.journal.append(
            {"t": COMPLETE, "spend": spend, "groups": self.groups_run,
             "incumbent": dict(best.config.values), "cost": best.cost}
        )
        return TuneResult(best.config, best.cost)

    def close(self) -> None:
        self._stop_children()
        for pack in self._packs.values():
            pack.close()
        self._packs.clear()

    # -- helpers -------------------------------------------------------------

    def _start(self, config, budget, seeds=None, purpose="tune", resume=None, tags=None):
        """A replayed group's result, committed from the objective's outputs
        and the pack directory its trial records hold, or a live group. A
        malformed request raises ValueError naming the field."""
        seeds = tuple(self.seeds) if seeds is None else _checked_seeds(seeds)
        if isinstance(budget, bool) or not isinstance(budget, numbers.Real) or not 0 < budget <= 1:
            raise ValueError(f"budget must be a real number in (0, 1], got {budget!r}")
        if type(purpose) is not str:
            raise ValueError(f"purpose must be a str, got {purpose!r}")
        if tags is not None and (type(tags) is not dict or any(
                type(k) is not str or type(v) is not int for k, v in tags.items())):
            raise ValueError(f"tags must be a dict of str keys and int values, got {tags!r}")
        budget = float(budget)
        live = _LiveGroup(config, budget, seeds, purpose, resume, tags)
        if not self.journal.replaying:
            return live
        # a checkpoint's packed payload is read when a live group resumes from it
        trials = []
        recorded = self.journal.take_group_if_pending(len(seeds))
        names = _frame_names(self.groups_run, budget, seeds)
        for seed, rec, name in zip(seeds, recorded, names):
            cost, ckpt, path = _number(rec.get("cost")), None, rec.get("ckpt")
            # a trial whose cost and status both say it failed keeps no
            # checkpoint, as live; one that only its cost or only its status
            # calls failed keeps it, so the mismatch names the edited field.
            # A ckpt that is no path is rebuilt as None
            failed = cost is None and rec.get("status") != DONE
            if rec.get("frac") is not None and not failed:
                path = os.path.join(os.path.dirname(path), name) if isinstance(path, str) else None
                ckpt = CheckpointHandle(budget, None if path else b"", path)
            # a trial with a cost ran without error, live; a failed one keeps its message
            error = "" if cost is not None else rec.get("error")
            trials.append((seed, cost, ckpt, error, rec.get("wall_time")))
        return self._commit(live, trials)

    def _start_children(self) -> None:
        """Fork ``min(workers, CPU count) - 1`` children that inherit the
        objective and evaluate the chunks sent to them."""
        count = min(self.workers, os.cpu_count() or 1) - 1
        if count < 1:
            return
        import multiprocessing  # only runs that fork pay for the import

        context = multiprocessing.get_context("fork")
        for _ in range(count):
            ours, theirs = context.Pipe()
            # a child closes every runner end it inherits, so it sees EOF
            # as soon as this process closes (or loses) its end
            ends = [conn for _, conn in self._children] + [ours]
            proc = context.Process(
                target=_serve, args=(theirs, ends, self.objective), daemon=True
            )
            proc.start()
            theirs.close()
            self._children.append((proc, ours))

    def _stop_children(self) -> None:
        children, self._children = self._children, []
        for _, conn in children:
            conn.close()  # an idle child reads EOF and returns
        for proc, _ in children:
            proc.join(timeout=1.0)
            if proc.exitcode is None:
                proc.terminate()
                proc.join()

    def _commit(self, live: _LiveGroup, trials: list[tuple]) -> GroupResult:
        """Journal a group's trials and itself under the next id and return
        its result, for live and replayed groups alike: ``trials`` are the
        objective's outputs, from :func:`_run_group` or from the journal.
        Only a live group's checkpoints are persisted. The journal builds
        the group's records from the values handed to it; they are of the
        exact types that :meth:`Journal.append_group` lists."""
        group = self.groups_run
        checkpoints = {seed: ckpt for seed, _, ckpt, _, _ in trials if ckpt is not None}
        if not self.journal.replaying:
            self._persist(group, live.budget, checkpoints)
        per_seed = [cost for _, cost, _, _, _ in trials]
        failed = any(cost is None for cost in per_seed)
        result = GroupResult(
            group, live.config, live.budget, live.seeds, per_seed, failed, checkpoints
        )
        # spend is the training added: resuming from f to budget b costs b - f
        handles = (live.resume or {}).values()
        resumed = max((h.trained_fraction for h in handles if h is not None), default=0.0)
        self.journal.append_group(
            live.config.values, group, live.budget, live.purpose, live.tags,
            float(live.budget - resumed), result.mean_cost,
            [(seed, cost, error, wall, None if ckpt is None else ckpt.path,
              None if ckpt is None else ckpt.trained_fraction)
             for seed, cost, ckpt, error, wall in trials],
        )
        self.groups_run += 1
        return result

    def _pack(self, directory: str) -> CheckpointPack:
        if directory not in self._packs:
            own = directory == self.checkpoint_dir
            opened = CheckpointPack.open_for_append if own else CheckpointPack
            self._packs[directory] = opened(directory)
        return self._packs[directory]

    def _persist(self, group_id: int, budget: float, checkpoints: dict) -> None:
        """Pack a group's new checkpoints, each of ``budget``, in one write,
        setting each one's path, and flush them, so every checkpoint its
        journal records name survives a kill."""
        if self.checkpoint_dir is None or not checkpoints:
            return
        pack = self._pack(self.checkpoint_dir)
        handles = checkpoints.values()
        paths = pack.extend(_frame_names(group_id, budget, checkpoints),
                            [h.payload for h in handles])
        for h, path in zip(handles, paths):
            h.path = path
        pack.flush()

    def _read_resume(self, live: _LiveGroup) -> _LiveGroup:
        """``live``, once each replayed checkpoint it resumes from holds its
        payload, read from ``checkpoint_dir``'s pack when that holds its
        frame, else from the pack at its recorded path; this runner keeps
        each pack's index, and worker processes open no pack."""
        for h in (live.resume or {}).values():
            if h is not None and h.payload is None:
                directory, name = os.path.split(h.path)
                if self.checkpoint_dir is not None and name in self._pack(self.checkpoint_dir):
                    directory = self.checkpoint_dir
                h.payload = self._pack(directory).read(name)
        return live


def _frame_names(group: int, budget: float, seeds) -> list[str]:
    """The names of the frames that pack a group's checkpoints on ``seeds``,
    live or replayed: the one definition of a frame's name."""
    prefix, suffix = f"g{group:06d}_s", f"_f{budget:.6f}.ckpt"
    return [f"{prefix}{seed}{suffix}" for seed in seeds]


def _number(cost):
    """``cost`` as the float it equals if it is a finite number, else None:
    any other cost fails its trial, live or replayed, where the rebuilt
    record then differs."""
    try:
        return float(cost) if math.isfinite(cost) else None
    except (TypeError, OverflowError):  # None, not a number, or an int past float range
        return None


def _run_group(objective: Objective, live: _LiveGroup) -> list[tuple]:
    """(seed, cost as a float, checkpoint at the group's budget, error, wall
    time) per seed; a failure or a cost that is not a finite number leaves
    cost and checkpoint None."""
    trials = []
    for seed in live.seeds:
        handle = None if live.resume is None else live.resume.get(seed)
        t0 = time.perf_counter()
        cost, payload, error = None, None, ""
        try:
            cost, payload = objective.evaluate(live.config, live.budget, seed, resume=handle)
        except EvaluationError as err:
            error = str(err)
        number = _number(cost)
        if cost is not None and number is None:
            payload, error = None, f"non-finite cost {cost!r}"
        ckpt = None if payload is None else CheckpointHandle(live.budget, payload)
        trials.append((seed, number, ckpt, error, time.perf_counter() - t0))
    return trials


def _receive(conn) -> tuple[list, Exception | None]:
    try:
        return conn.recv()
    except EOFError:
        raise RuntimeError("a worker process ended before it replied") from None


def _serve(conn, inherited: list, objective) -> None:
    """A worker process: evaluate each chunk of groups received on ``conn``
    and send back the trials of each group up to the first that raised, and
    its exception, until the runner closes its end."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the runner stops its children
    for end in inherited:
        end.close()
    while True:
        try:
            chunk = conn.recv()
        except EOFError:
            return
        done, error = [], None
        try:
            for live in chunk:
                done.append(_run_group(objective, live))
        except Exception as err:
            error = _picklable(err)
        # a reply that does not pickle ends this process, and the runner
        # raises for the missing reply
        try:
            conn.send((done, error))
        except OSError:  # the runner closed its end mid-batch
            return


def _picklable(err: Exception) -> Exception:
    """``err``, or a RuntimeError naming it if ``err`` does not survive a
    pickle round trip, so the trials before it still reach the runner."""
    try:
        pickle.loads(pickle.dumps(err))
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")
    return err


def _checked_seeds(seeds) -> tuple[int, ...]:
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    return seeds
