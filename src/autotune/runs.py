"""Run directories: journals on disk, resume, CSV and report export.

Layout of one ``--out`` directory::

    <out>/
      rep000/journal.log                     one journal per tuning repetition
      rep000/checkpoints/checkpoints.pack    its checkpoint payloads, appended
      exports/                               trials.csv, incumbents.csv, ...
      sweeps/<objective>_<param>/            one sweep's journal and checkpoints
      sweep_<objective>_<param>.csv          that sweep's table

A sweep's ``<objective>`` is the objective's name, or for a ``cmd:``
objective ``external_command-`` and 8 hex digits of its command's sha256
(:func:`autotune.sweeps.sweep_label`), so sweeps of different commands
share an ``--out``.

A trial record's ``ckpt`` is ``<out>/rep000/checkpoints/<name>``, made
absolute so a run resumes from any working directory, where the pack holds
frame ``<name>`` (see :mod:`autotune.checkpoints`). A resumed run reads a
frame from its own pack when that holds it, since the run directory owns
its frames: a moved or copied run never reads a pack a later run replaced.
Reports read only the rep*/ journals.

Every run, repetition or sweep, opens its directory through
:func:`opened_run`. Resuming re-runs the optimizer or sweep
deterministically against the recorded journal: run ``tune`` or ``sweep``
again with the same ``--out``. The header stores everything the run depends
on (for a repetition: method, options, space text, objective spec, seeds,
rng seed), and a resumed run whose header differs is refused.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os

import numpy as np

from ._version import __version__
from .checklist import emit_checklist
from .journal import DONE, FAILED, GROUP, TRIAL, Journal, JournalError, space_digest
from .objectives import ObjectiveSpec, make_objective
from .protocol import (
    IncumbentReport,
    MethodSpec,
    RepetitionResult,
    SeedPlan,
    audit,
    rank_methods,
    run_method,
)
from .runner import TrialRunner
from .space import Configuration, parse_space

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
        # constant: pooled runs journal in request order, like one worker
        "deterministic": True,
        "orientation": "cost",
        "package": f"autotune {__version__}",
    }


def rep_dir(out_dir: str, repetition: int) -> str:
    return os.path.join(out_dir, f"rep{repetition:03d}")


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
    workers: int = 1,
    exports: TuneExports | None = None,
) -> RepetitionResult:
    """Run (or resume) one tuning repetition inside ``directory``; once it
    ends, its journal goes to ``exports`` when one is given.

    The space, the objective and the method's plan are checked before
    anything is written. Tuning must stay within ``budget_runs``: a journal
    that fails the ``within_budget`` rule of :func:`~autotune.protocol.audit`
    raises ValueError before its incumbent is tested. The result is the one
    its journal gives, which ``report`` and ``exports`` show too: a test
    seed whose group failed does not count.
    """
    space = parse_space(space_text)
    objective = make_objective(objective_spec, space=space)
    opts = method.plan(budget_runs)
    header = make_header(
        method, space_text, objective_spec, objective.cost_metric, seed_plan,
        budget_runs, rng_seed, repetition,
    )
    with opened_run(directory, header, objective, seed_plan.tuning_seeds, workers) as runner:
        rng = np.random.default_rng(np.random.SeedSequence([int(rng_seed), int(repetition)]))
        result = run_method(method, space, runner, rng, opts)
        budget = audit(runner.journal)["within_budget"]
        if not budget.holds:
            raise ValueError(f"budget audit failed: {budget.evidence}")
        runner.evaluate_many(
            [
                {"config": result.incumbent, "budget": 1.0, "seeds": [seed], "purpose": "test"}
                for seed in seed_plan.test_seeds
            ]
        )
        row = _repetition_row(runner.journal)
        if exports is not None:
            exports.add(directory, runner.journal, row)
        return row[2]


@contextlib.contextmanager
def opened_run(directory: str, header: dict, objective, seeds, workers: int = 1):
    """A :class:`TrialRunner` that journals into ``directory`` and packs its
    checkpoints in ``directory``/checkpoints, named by absolute paths in the
    journal. The journal there is resumed,
    and must hold ``header``; with none there, a new one starts with
    ``header``. Runner and journal close on exit."""
    path = os.path.join(directory, JOURNAL_NAME)
    journal = Journal.open_for_resume(path) if os.path.exists(path) else Journal.create(path)
    with contextlib.closing(journal):
        journal.write_header(header)
        with contextlib.closing(
            TrialRunner(
                objective, list(seeds), journal=journal,
                checkpoint_dir=os.path.abspath(os.path.join(directory, "checkpoints")),
                workers=workers,
            )
        ) as runner:
            yield runner


def report_from_directories(directories: list[str]) -> list[IncumbentReport]:
    """Assemble incumbent reports from completed repetition directories,
    grouped by (method, objective)."""
    return _group_rows(
        _repetition_row(Journal.load(os.path.join(d, JOURNAL_NAME))) for d in directories
    )


def _repetition_row(journal: Journal) -> tuple[tuple[str, str], int, RepetitionResult]:
    """(method, objective), repetition number and result of one journal."""
    h = journal.header
    key = (h["method"], h["objective"]["kind"])
    inc = journal.final_incumbent()
    test = [
        r for r in journal.of_type(GROUP) if r.get("purpose") == "test" and not r["failed"]
    ]
    if inc is None or not test:
        rep = RepetitionResult(h.get("repetition", 0), None, None, [], failed=True)
    else:
        rep = RepetitionResult(
            h.get("repetition", 0),
            Configuration(dict(inc["config"])),
            inc["cost"],
            [r["mean_cost"] for r in test],
            spend=journal.spend(),
        )
    return key, h.get("repetition", 0), rep


def _group_rows(rows) -> list[IncumbentReport]:
    grouped: dict[tuple[str, str], list[tuple[int, RepetitionResult]]] = {}
    for key, repetition, rep in rows:
        grouped.setdefault(key, []).append((repetition, rep))
    reports = []
    for (method, objective), reps in sorted(grouped.items()):
        reps.sort(key=lambda t: t[0])
        reports.append(
            IncumbentReport(method=method, objective=objective, repetitions=[r for _, r in reps])
        )
    return reports


# ---------------------------------------------------------------------------
# Exports

EXPORT_KINDS = ("trials", "incumbents", "ranks", "checklist")


def render(kind: str, directories: list[str]) -> dict[str, str]:
    """The ``kind`` export of repetition ``directories``: {filename: text}."""
    if kind not in EXPORT_KINDS:
        raise ValueError(f"unknown export kind {kind!r}; pick one of {EXPORT_KINDS}")
    if kind == "trials":
        return {
            _trials_name(d, directories): trials_csv(Journal.load(os.path.join(d, JOURNAL_NAME)))
            for d in directories
        }
    if kind == "checklist":
        journals = [Journal.load(os.path.join(d, JOURNAL_NAME)) for d in directories]
        return {"checklist.txt": emit_checklist(journals).render()}
    reports = report_from_directories(directories)
    if kind == "incumbents":
        return {"incumbents.csv": incumbents_csv(reports)}
    return {"ranks.csv": ranks_csv(reports)}


def export(run_dir: str, kind: str) -> dict[str, str]:
    """Write deterministic export files under ``run_dir``/exports.

    Returns {relative filename: contents}. ``run_dir`` may be a single
    repetition directory or a parent holding rep*/ subdirectories.
    """
    out = render(kind, repetition_dirs(run_dir))
    _write_exports(run_dir, out)
    return out


class TuneExports:
    """The ``trials`` and ``incumbents`` exports of one tune invocation,
    built from each repetition's journal as the repetition ends.

    The files equal what ``export`` writes from disk afterwards. The
    repetition directories there will then be, which name the trials files,
    are fixed at the start: those ``run_dir`` already holds plus
    ``planned``. :meth:`add` writes one repetition's trials file and keeps
    only its incumbent row, so no journal outlives its repetition;
    :meth:`close` reads the other repetitions from disk and writes
    ``incumbents.csv``.
    """

    def __init__(self, run_dir: str, planned: list[str]):
        self.run_dir = run_dir
        self.directories = repetition_dirs(run_dir, planned)
        self._rows: dict[str, tuple] = {}  # directory -> its _repetition_row

    def add(self, directory: str, journal: Journal, row: tuple | None = None) -> None:
        """Write ``journal``'s trials file and keep its incumbent row:
        ``row`` when given, else the one the journal gives."""
        if directory in self.directories:
            name = _trials_name(directory, self.directories)
            _write_exports(self.run_dir, {name: trials_csv(journal)})
            self._rows[directory] = _repetition_row(journal) if row is None else row

    def close(self) -> None:
        for d in self.directories:
            if d not in self._rows:
                self.add(d, Journal.load(os.path.join(d, JOURNAL_NAME)))
        rows = (self._rows[d] for d in self.directories)
        _write_exports(self.run_dir, {"incumbents.csv": incumbents_csv(_group_rows(rows))})


def _trials_name(directory: str, directories: list[str]) -> str:
    return f"trials_{os.path.basename(directory)}.csv" if len(directories) > 1 else "trials.csv"


def _write_exports(run_dir: str, files: dict[str, str]) -> None:
    export_dir = os.path.join(run_dir, "exports")
    os.makedirs(export_dir, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(export_dir, name), "w", encoding="utf-8") as fh:
            fh.write(content)


def repetition_dirs(run_dir: str, planned: list[str] | tuple[str, ...] = ()) -> list[str]:
    """``run_dir`` when it holds a journal; else its rep*/ subdirectories
    that hold one, and the ``planned`` ones, sorted."""
    if os.path.exists(os.path.join(run_dir, JOURNAL_NAME)):
        return [run_dir]
    found = os.listdir(run_dir) if os.path.isdir(run_dir) else []
    reps = sorted(set(planned).union(
        os.path.join(run_dir, d)
        for d in found
        if d.startswith("rep") and os.path.exists(os.path.join(run_dir, d, JOURNAL_NAME))
    ))
    if not reps:
        raise JournalError(f"no journals under {run_dir}")
    return reps


def trials_csv(journal: Journal) -> str:
    """The ``trials.csv`` text of ``journal``: a header row, then one row per
    trial record in journal order: its ``seq``, its config's value of each
    parameter (every parameter any trial's config names, sorted; the
    space's parameters when no trial exists), ``budget``, ``seed``, ``cost``
    (empty for None), ``status`` and ``wall_time``, each as ``csv.writer``
    prints it. A group's config cells are formatted once; a row whose fields
    have the runner's types (int ``seq`` and ``seed``, float ``budget`` and
    ``wall_time``, float or None ``cost``, status ``done`` or ``failed``) is
    written with them by one format string, any other row cell by cell."""
    trials = journal.of_type(TRIAL)
    params = sorted({k for r in trials for k in r["config"]}) or sorted(
        parse_space(journal.header["space_text"]).names
    )
    rows: list[str] = []
    w = csv.writer(_Lines(rows), lineterminator="\n")
    w.writerow(["seq", *params, "budget", "seed", "cost", "status", "wall_time"])
    group = None
    for r in trials:
        # a group's trials are consecutive and share its config; keyed on the
        # id, as equal values such as 1 and 1.0 print apart
        if r["group"] != group:
            group = r["group"]
            cells = [_cell(r["config"].get(p, "")) for p in params]
            # the cells and a comma, as they print inside a row: the last
            # empty cell keeps a lone empty one from printing as ""
            w.writerow([*cells, ""])
            prefix = rows.pop()[:-1]
        seq, budget, seed, cost = r["seq"], r["budget"], r["seed"], r["cost"]
        status, wall_time = r["status"], r["wall_time"]
        if (type(seq) is int and type(seed) is int and type(budget) is float
                and type(wall_time) is float and (cost is None or type(cost) is float)
                and status in (DONE, FAILED)):  # statuses csv.writer never quotes
            cost_cell = "" if cost is None else repr(cost)
            rows.append(f"{seq},{prefix}{budget!r},{seed},{cost_cell},{status},{wall_time!r}\n")
        else:
            w.writerow([seq, *cells, repr(budget), seed, "" if cost is None else repr(cost),
                        status, repr(wall_time)])
    return "".join(rows)


class _Lines:
    """A file for ``csv.writer`` that keeps each line it writes in a list."""

    def __init__(self, lines: list[str]):
        self.write = lines.append


def _cell(value) -> str:
    """``value`` as a ``csv.writer`` prints it."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


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
