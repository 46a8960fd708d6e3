"""Black-box hyperparameter tuning with a seed-disciplined protocol.

Optimizers: random search (``run_rs``), differential evolution on a fidelity
ladder (``run_dehb``), and population-based training with random or
model-based exploration (``run_pbt``). All three share one contract:
``run_X(space, runner, rng, **settings) -> TuneResult``. A tuner only
searches: it states its settings' defaults once, in its signature, and its
spend once, in its ``plan``. The ``TrialRunner`` owns the objective, the
tuning seeds, the journal and the incumbent, which it keeps from the
full-budget results a tuner offers (``keep_best``) and journals with the
spend in ``complete``. An objective returns its state as bytes, which the
runner packs at the group's budget, and resumes from ``resume.payload``,
which the runner sets. The protocol layer handles tuning/test seed splits,
repetitions, budget audits, method ranking and reproducibility checklist
reports; runs journal to disk and resume after interruption.
"""
from ._version import __version__
from .budgets import ladder, rung_capacity
from .checklist import emit_checklist
from .dehb import de_crossover, de_mutate, de_mutate_vectors, de_select, run_dehb
from .gp import GpFitError, fit_gp, suggest_candidate
from .journal import Journal, JournalCorrupt, JournalError, space_digest
from .objectives import (
    CheckpointHandle,
    EvaluationError,
    Objective,
    ObjectiveSpec,
    make_objective,
)
from .pbt import exploit, kernel_restart_check, run_pbt, warmstart
from .protocol import MethodSpec, SeedPlan, rank_methods
from .rs import run_rs
from .runner import NoIncumbentError, TrialRunner, TuneResult
from .space import (
    ConfigSpace,
    Configuration,
    Hyperparameter,
    SpaceError,
    SpaceParseError,
    categorical,
    continuous,
    from_unit,
    integer,
    log_continuous,
    parse_space,
    perturb,
    render_space,
    sample,
    to_unit,
)
from .sweeps import SweepSpec, SweepTable, run_sweep, worst_vs_best_summary

__all__ = [
    "__version__",
    "ladder", "rung_capacity",
    "emit_checklist",
    "de_crossover", "de_mutate", "de_mutate_vectors", "de_select", "run_dehb",
    "GpFitError", "fit_gp", "suggest_candidate",
    "Journal", "JournalCorrupt", "JournalError", "space_digest",
    "CheckpointHandle", "EvaluationError", "Objective", "ObjectiveSpec",
    "make_objective",
    "exploit", "kernel_restart_check", "run_pbt", "warmstart",
    "MethodSpec", "SeedPlan", "rank_methods",
    "run_rs",
    "NoIncumbentError", "TrialRunner", "TuneResult",
    "ConfigSpace", "Configuration", "Hyperparameter", "SpaceError", "SpaceParseError",
    "categorical", "continuous", "from_unit", "integer", "log_continuous",
    "parse_space", "perturb", "render_space", "sample", "to_unit",
    "SweepSpec", "SweepTable", "run_sweep", "worst_vs_best_summary",
]
