"""Spans around autotune's layer boundaries, and per-layer metrics from them.

``installed(tracer)`` wraps each traced function at every name it is bound to
in the loaded ``autotune`` modules (``to_unit`` lives in ``space`` and is
imported by name into ``objectives`` and ``pbt``, for example), and restores
the originals on exit. Spans are kept in memory as (id, name, start, end,
parent); a span opened on a worker thread of ``TrialRunner.evaluate_many``
takes that call's span as its parent.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name) for module-level functions
FUNCTIONS = (
    ("autotune.space", "to_unit", "space.to_unit"),
    ("autotune.space", "from_unit", "space.from_unit"),
    ("autotune.space", "sample", "space.sample"),
    ("autotune.space", "perturb", "space.perturb"),
    ("autotune.gp", "fit_gp", "gp.fit"),
    ("autotune.gp", "suggest_candidate", "gp.suggest"),
    ("autotune.dehb", "run_dehb", "dehb.run"),
    ("autotune.pbt", "run_pbt", "pbt.run"),
    ("autotune.rs", "run_rs", "rs.run"),
    ("autotune.runs", "run_repetition", "runs.run_repetition"),
    ("autotune.runs", "export", "runs.export"),
    ("autotune.sweeps", "run_sweep", "sweeps.run_sweep"),
    ("autotune.cli", "main", "cli.main"),
)

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "space.to_unit.calls": ("count", "lower"),
    "space.to_unit.self_s": ("s", "lower"),
    "space.from_unit.self_s": ("s", "lower"),
    "space.sample_perturb.self_s": ("s", "lower"),
    "objectives.evaluate.calls": ("count", "lower"),
    "objectives.train.s": ("s", "lower"),
    "objectives.greedy_eval.s": ("s", "lower"),
    "objectives.s_per_equiv.low": ("s", "lower"),
    "objectives.s_per_equiv.full": ("s", "lower"),
    "runner.groups": ("count", "lower"),
    "runner.self_s": ("s", "lower"),
    "runner.overhead_share": ("share", "lower"),
    "runner.ckpt_write.s": ("s", "lower"),
    "runner.ckpt_files": ("count", "lower"),
    "runner.ckpt_bytes": ("bytes", "lower"),
    "runner.batches": ("count", "lower"),
    "runner.batch_s_per_group": ("s", "lower"),
    "runner.out_of_order_groups": ("count", "lower"),
    "journal.append.calls": ("count", "lower"),
    "journal.append.self_s": ("s", "lower"),
    "journal.bytes": ("bytes", "lower"),
    "journal.open_for_resume.s": ("s", "lower"),
    "journal.replayed_groups": ("count", "lower"),
    "journal.replay.self_s": ("s", "lower"),
    "gp.fit.calls": ("count", "lower"),
    "gp.fit.s": ("s", "lower"),
    "gp.fit.points_mean": ("count", "lower"),
    "gp.fit.repeat_ratio": ("share", "lower"),
    "gp.suggest.s": ("s", "lower"),
    "dehb.self_s": ("s", "lower"),
    "pbt.self_s": ("s", "lower"),
    "rs.self_s": ("s", "lower"),
    "dehb.spend_ratio": ("share", "higher"),
    "pbt.spend_ratio": ("share", "higher"),
    "runs.run_repetition.self_s": ("s", "lower"),
    "runs.export.s": ("s", "lower"),
    "sweeps.run_sweep.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
}

LOW_BUDGET = 0.1


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root span
    attrs: dict | None = None  # set when the call returned

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = 0  # parent of spans opened on worker threads

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, annotate=None, pool: bool = False):
        """``fn`` recording one span per call; ``annotate(args, kwargs,
        result)`` adds attributes, ``pool`` marks a call whose worker threads
        open spans of their own."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            span = Span(next(self._ids), name, 0.0, 0.0, parent)
            stack.append(span.id)
            if pool:
                outer, self._pool_parent = self._pool_parent, span.id
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if pool:
                    self._pool_parent = outer
                self.spans.append(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return traced


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children that ran in parallel on worker threads overlap; the union
    counts that time once.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    return {
        s.id: s.duration - covered(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        )
        for s in spans
    }


# -- annotations --------------------------------------------------------------


def _evaluate_attrs(args, kwargs, result):
    budget = args[2] if len(args) > 2 else kwargs["budget"]
    resume = kwargs.get("resume", args[4] if len(args) > 4 else None)
    return {"budget": budget, "from": 0.0 if resume is None else resume.trained_fraction}


def _take_group_attrs(args, kwargs, result):
    return {"hit": result is not None}


def _fit_attrs(args, kwargs, result):
    h = hashlib.sha256()
    for a in args[:3]:
        h.update(a.tobytes())
    return {"points": len(args[2]), "inputs": h.hexdigest()}


@contextmanager
def installed(tracer: Tracer):
    """Wrap autotune's layer boundaries with ``tracer`` for the duration."""
    from autotune.journal import Journal
    from autotune.objectives import GridworldQ, NoisySphere, SeededValley
    from autotune.runner import TrialRunner

    restore = []

    def patch_function(module_name, attr, name, **kw):
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = tracer.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "autotune" and vars(mod).get(attr) is original:
                restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(cls, attr, name, **kw):
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(tracer.wrap(name, raw.__func__, **kw))
        else:
            wrapped = tracer.wrap(name, raw, **kw)
        restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    try:
        for module_name, attr, name in FUNCTIONS:
            annotate = _fit_attrs if name == "gp.fit" else None
            patch_function(module_name, attr, name, annotate=annotate)
        patch_method(TrialRunner, "evaluate_group", "runner.evaluate_group")
        patch_method(TrialRunner, "evaluate_many", "runner.evaluate_many", pool=True)
        # private, but it is where checkpoint files are written
        patch_method(TrialRunner, "_persist", "runner.persist")
        patch_method(Journal, "append", "journal.append")
        patch_method(Journal, "take_group_if_pending", "journal.take_group",
                     annotate=_take_group_attrs)
        patch_method(Journal, "open_for_resume", "journal.open_for_resume")
        for cls in (NoisySphere, SeededValley, GridworldQ):
            patch_method(cls, "evaluate", "objectives.evaluate", annotate=_evaluate_attrs)
        # private, but it is gridworld's greedy evaluation, timed apart from training
        patch_method(GridworldQ, "_greedy_return", "objectives.greedy_eval")
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# -- metrics ------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics that come from spans alone."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    by_id = {}
    for s in spans:
        by_name[s.name].append(s)
        by_id[s.id] = s

    def count(name):
        return len(by_name[name])

    def total(name, keep=lambda s: True):
        return sum(s.duration for s in by_name[name] if keep(s))

    def self_total(*names):
        return sum(selfs[s.id] for name in names for s in by_name[name])

    def parent_is(name):
        return lambda s: s.parent in by_id and by_id[s.parent].name == name

    def returned(name):
        return [s for s in by_name[name] if s.attrs is not None]

    def s_per_equiv(keep):
        evals = [s for s in returned("objectives.evaluate") if keep(s.attrs["budget"])]
        work = sum(s.attrs["budget"] - s.attrs["from"] for s in evals)
        return _ratio(sum(s.duration for s in evals), work)

    groups_s = total("runner.evaluate_group")
    objective_in_groups = total("objectives.evaluate", parent_is("runner.evaluate_group"))
    batched_groups = len([s for s in by_name["runner.evaluate_group"]
                          if parent_is("runner.evaluate_many")(s)])
    fits = sorted(returned("gp.fit"), key=lambda s: s.start)
    repeats = sum(a.attrs["inputs"] == b.attrs["inputs"] for a, b in zip(fits, fits[1:]))
    return {
        "space.to_unit.calls": count("space.to_unit"),
        "space.to_unit.self_s": self_total("space.to_unit"),
        "space.from_unit.self_s": self_total("space.from_unit"),
        "space.sample_perturb.self_s": self_total("space.sample", "space.perturb"),
        "objectives.evaluate.calls": count("objectives.evaluate"),
        "objectives.train.s": self_total("objectives.evaluate"),
        "objectives.greedy_eval.s": total("objectives.greedy_eval"),
        "objectives.s_per_equiv.low": s_per_equiv(lambda b: b < LOW_BUDGET),
        "objectives.s_per_equiv.full": s_per_equiv(lambda b: b == 1.0),
        "runner.groups": count("runner.evaluate_group"),
        "runner.self_s": self_total("runner.evaluate_group", "runner.evaluate_many"),
        "runner.overhead_share": _ratio(groups_s - objective_in_groups, groups_s),
        "runner.ckpt_write.s": total("runner.persist"),
        "runner.batches": count("runner.evaluate_many"),
        "runner.batch_s_per_group": _ratio(total("runner.evaluate_many"), batched_groups),
        "journal.append.calls": count("journal.append"),
        "journal.append.self_s": self_total("journal.append"),
        "journal.open_for_resume.s": total("journal.open_for_resume"),
        "journal.replayed_groups": sum(s.attrs["hit"] for s in returned("journal.take_group")),
        "journal.replay.self_s": self_total("journal.take_group"),
        "gp.fit.calls": count("gp.fit"),
        "gp.fit.s": total("gp.fit"),
        "gp.fit.points_mean": statistics.fmean(s.attrs["points"] for s in fits) if fits else 0.0,
        "gp.fit.repeat_ratio": _ratio(repeats, len(fits)),
        "gp.suggest.s": total("gp.suggest"),
        "dehb.self_s": self_total("dehb.run"),
        "pbt.self_s": self_total("pbt.run"),
        "rs.self_s": self_total("rs.run"),
        "runs.run_repetition.self_s": self_total("runs.run_repetition"),
        "runs.export.s": total("runs.export"),
        "sweeps.run_sweep.s": total("sweeps.run_sweep"),
    }


def self_time_shares(spans: list[Span], wall: float) -> list[tuple[str, float]]:
    """(span name, share of ``wall``) by self time, largest first."""
    selfs = self_times(spans)
    sums = defaultdict(float)
    for s in spans:
        sums[s.name] += selfs[s.id]
    return sorted(((n, _ratio(v, wall)) for n, v in sums.items()), key=lambda t: -t[1])
