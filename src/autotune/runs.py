"""Run directories: journals on disk, resume, CSV and report export.

Layout for one tuning invocation::

    <out>/
      rep000/journal.log                     one journal per repetition
      rep000/checkpoints/checkpoints.pack    its checkpoint payloads, appended
      exports/                               trials.csv, incumbents.csv, ...

A trial record's ``ckpt`` is ``rep000/checkpoints/<name>``: the pack in that
directory holds the payload in its frame ``<name>`` (see
:mod:`autotune.checkpoints`).

Resuming re-runs the optimizer deterministically against the recorded
journal; the header stores everything needed (method, options, space text,
objective spec, seeds, rng seed), so ``resume`` needs only the directory.
"""
from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .journal import (
    COMPLETE,
    GROUP,
    INCUMBENT,
    TRIAL,
    Journal,
    JournalError,
    space_digest,
)
from .objectives import ObjectiveSpec, make_objective
from .protocol import (
    IncumbentReport,
    MethodSpec,
    RepetitionResult,
    SeedPlan,
    emit_checklist,
    rank_methods,
    run_method,
)
from .runner import TrialRunner
from .space import parse_space

JOURNAL_NAME = "journal.log"


def make_header(
    method: MethodSpec,
    space_text: str,
    objective_spec: ObjectiveSpec,
    cost_metric: str,
    seed_plan: SeedPlan,
    budget_runs: int,
    rng_seed: int,
    repetition: int,
    deterministic: bool,
) -> dict:
    return {
        "method": method.name,
        "kind": method.kind,
        "options": dict(method.options),
        "space_text": space_text,
        "space_digest": space_digest(space_text),
        "objective": objective_spec.as_dict(),
        "cost_metric": cost_metric,
        "seed_plan": {
            "tuning": list(seed_plan.tuning_seeds),
            "test": list(seed_plan.test_seeds),
        },
        "budget_runs": int(budget_runs),
        "rng_seed": int(rng_seed),
        "repetition": int(repetition),
        "deterministic": bool(deterministic),
        "orientation": "cost",
        "package": f"autotune {__version__}",
    }


def rep_dir(out_dir: str, repetition: int) -> str:
    return os.path.join(out_dir, f"rep{repetition:03d}")


def default_run_dir(root: str, method_name: str) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return os.path.join(root, f"{stamp}-{method_name}")


def run_repetition(
    directory: str,
    method: MethodSpec,
    space_text: str,
    objective_spec: ObjectiveSpec,
    seed_plan: SeedPlan,
    budget_runs: int,
    rng_seed: int,
    repetition: int,
    *,
    deterministic: bool = True,
    workers: int = 1,
    max_groups: int | None = None,
) -> RepetitionResult:
    """Run (or resume) one tuning repetition inside ``directory``."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, JOURNAL_NAME)
    header = make_header(
        method, space_text, objective_spec, _metric(objective_spec), seed_plan,
        budget_runs, rng_seed, repetition, deterministic,
    )
    if os.path.exists(path):
        journal = Journal.open_for_resume(path)
        recorded = journal.header or {}
        if recorded.get("space_digest") != header["space_digest"]:
            raise JournalError(
                "space digest mismatch: journal has "
                f"{recorded.get('space_digest')}, current space is {header['space_digest']}"
            )
    else:
        journal = Journal.create(path)
    journal.write_header(header)

    space = parse_space(space_text)
    objective = make_objective(objective_spec, space=space)
    runner = TrialRunner(
        objective,
        list(seed_plan.tuning_seeds),
        journal=journal,
        checkpoint_dir=os.path.join(directory, "checkpoints"),
        workers=1 if deterministic else workers,
        max_groups=max_groups,
    )
    rng = np.random.default_rng(np.random.SeedSequence([int(rng_seed), int(repetition)]))
    try:
        incumbent, tuning_cost, _ = run_method(
            method, space, objective, list(seed_plan.tuning_seeds), budget_runs,
            rng, runner=runner,
        )
        test_costs = []
        for test_seed in seed_plan.test_seeds:
            res = runner.evaluate_group(incumbent, 1.0, seeds=[test_seed], purpose="test")
            test_costs.append(res.cost)
        return RepetitionResult(
            repetition, incumbent, tuning_cost, test_costs, spend=journal.spend()
        )
    finally:
        runner.close()
        journal.close()


def resume(directory: str) -> RepetitionResult:
    """Resume one repetition directory purely from its journal header."""
    path = os.path.join(directory, JOURNAL_NAME)
    header = Journal.load(path).header
    method = MethodSpec(
        kind=header["kind"], name=header["method"], options=dict(header["options"])
    )
    seed_plan = SeedPlan(header["seed_plan"]["tuning"], header["seed_plan"]["test"])
    return run_repetition(
        directory,
        method,
        header["space_text"],
        ObjectiveSpec.from_dict(header["objective"]),
        seed_plan,
        header["budget_runs"],
        header["rng_seed"],
        header["repetition"],
        deterministic=header.get("deterministic", True),
    )


def _metric(objective_spec: ObjectiveSpec) -> str:
    try:
        return make_objective(objective_spec).cost_metric
    except Exception:
        return "cost (lower is better)"


def report_from_directories(directories: list[str]) -> list[IncumbentReport]:
    """Assemble incumbent reports from completed repetition directories,
    grouped by (method, objective)."""
    grouped: dict[tuple[str, str], list[tuple[int, RepetitionResult]]] = {}
    for d in directories:
        journal = Journal.load(os.path.join(d, JOURNAL_NAME))
        h = journal.header
        key = (h["method"], h["objective"]["kind"])
        inc = journal.final_incumbent()
        test = [
            r for r in journal.of_type(GROUP) if r.get("purpose") == "test" and not r["failed"]
        ]
        if inc is None or not test:
            rep = RepetitionResult(h.get("repetition", 0), None, None, [], failed=True)
        else:
            from .space import Configuration

            rep = RepetitionResult(
                h.get("repetition", 0),
                Configuration(dict(inc["config"])),
                inc["cost"],
                [r["mean_cost"] for r in test],
                spend=journal.spend(),
            )
        grouped.setdefault(key, []).append((h.get("repetition", 0), rep))
    reports = []
    for (method, objective), reps in sorted(grouped.items()):
        reps.sort(key=lambda t: t[0])
        reports.append(
            IncumbentReport(method=method, objective=objective, repetitions=[r for _, r in reps])
        )
    return reports


# ---------------------------------------------------------------------------
# Exports

EXPORT_KINDS = ("trials", "incumbents", "sweep", "ranks", "checklist")


def export(run_dir: str, kind: str) -> dict[str, str]:
    """Write deterministic export files under ``run_dir``/exports.

    Returns {relative filename: contents}. ``run_dir`` may be a single
    repetition directory or a parent holding rep*/ subdirectories.
    """
    if kind not in EXPORT_KINDS:
        raise ValueError(f"unknown export kind {kind!r}; pick one of {EXPORT_KINDS}")
    directories = repetition_dirs(run_dir)
    out: dict[str, str] = {}
    if kind == "trials":
        for d in directories:
            journal = Journal.load(os.path.join(d, JOURNAL_NAME))
            name = f"trials_{os.path.basename(d)}.csv" if len(directories) > 1 else "trials.csv"
            out[name] = trials_csv(journal)
    elif kind == "incumbents":
        out["incumbents.csv"] = incumbents_csv(report_from_directories(directories))
    elif kind == "ranks":
        out["ranks.csv"] = ranks_csv(report_from_directories(directories))
    elif kind == "checklist":
        journals = [Journal.load(os.path.join(d, JOURNAL_NAME)) for d in directories]
        out["checklist.txt"] = emit_checklist(journals).render()
    elif kind == "sweep":
        raise ValueError("sweep tables are exported by the sweep command itself")
    export_dir = os.path.join(run_dir, "exports")
    os.makedirs(export_dir, exist_ok=True)
    for name, content in out.items():
        with open(os.path.join(export_dir, name), "w", encoding="utf-8") as fh:
            fh.write(content)
    return out


def repetition_dirs(run_dir: str) -> list[str]:
    if os.path.exists(os.path.join(run_dir, JOURNAL_NAME)):
        return [run_dir]
    reps = sorted(
        os.path.join(run_dir, d)
        for d in os.listdir(run_dir)
        if d.startswith("rep") and os.path.exists(os.path.join(run_dir, d, JOURNAL_NAME))
    )
    if not reps:
        raise JournalError(f"no journals under {run_dir}")
    return reps


def trials_csv(journal: Journal) -> str:
    params = sorted(
        {k for r in journal.of_type(TRIAL) for k in r["config"]}
    ) or sorted(parse_space(journal.header["space_text"]).names)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["seq", *params, "budget", "seed", "cost", "status", "wall_time"])
    for r in journal.of_type(TRIAL):
        w.writerow(
            [
                r["seq"],
                *[r["config"].get(p, "") for p in params],
                repr(r["budget"]),
                r["seed"],
                "" if r["cost"] is None else repr(r["cost"]),
                r["status"],
                repr(r["wall_time"]),
            ]
        )
    return buf.getvalue()


def incumbents_csv(reports: list[IncumbentReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["method", "environment", "repetition", "tuning_cost", "test_mean", "test_std"])
    for rep_report in reports:
        for r in rep_report.repetitions:
            w.writerow(
                [
                    rep_report.method,
                    rep_report.objective,
                    r.repetition,
                    "" if r.tuning_cost is None else repr(r.tuning_cost),
                    "" if r.test_mean is None else repr(r.test_mean),
                    "" if r.test_std is None else repr(r.test_std),
                ]
            )
    return buf.getvalue()


def ranks_csv(reports: list[IncumbentReport]) -> str:
    cells: dict[str, dict[str, tuple[float, float]]] = {}
    for rep_report in reports:
        cells.setdefault(rep_report.objective, {})[rep_report.method] = (
            rep_report.aggregate_mean,
            rep_report.aggregate_std,
        )
    table = rank_methods(cells, higher_is_better=False)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["method", "environment", "mean", "std", "rank"])
    for env in table.environments:
        for m in table.methods:
            mean, std = table.cells[(env, m)]
            w.writerow([m, env, repr(mean), repr(std), table.ranks[(env, m)]])
    for m in table.methods:
        w.writerow([m, "MEAN_RANK", "", "", table.mean_rank_rounded(m)])
    return buf.getvalue()
