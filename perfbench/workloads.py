"""Workload definitions: the CLI arguments and space files each op receives.

Everything an op sees is derived from the workload seed. The seed selects one
of ``N_VARIANTS`` input sets, so every run can be checked against the golden
digests committed in ``golden.json``; the same seed always gives the same
inputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

N_VARIANTS = 32

VALLEY_SPACE = """\
# seeded_valley on a mixed space: 2 log, 2 continuous, 1 integer, 1 categorical
lr: log(1e-05, 1.0)
weight_decay: log(1e-06, 0.1)
momentum: (0.0, 0.99)
dropout: (0.0, 0.5)
layers: int[1, 8]
activation: {relu, tanh, gelu}
"""

# gridworld_q ignores the space it is given and reads these four names
GRIDWORLD_SPACE = """\
learning_rate: log(1e-07, 1.0)
epsilon: (0.0, 1.0)
gamma: (0.5, 0.999)
epsilon_decay: (0.9, 1.0)
"""

TUNE = "tune"
SWEEP = "sweep"


@dataclass(frozen=True)
class Op:
    """One live CLI invocation; ``argv`` lacks ``--space`` and ``--out``,
    which name files of the run and are added when it starts."""

    name: str
    kind: str  # TUNE or SWEEP
    argv: tuple[str, ...]
    golden: tuple[int, str, str]  # (variant, workload, op) its digests are filed under
    equivalents: float = 0.0  # full-run equivalents of a sweep (rows x seeds x budget)


@dataclass(frozen=True)
class Workload:
    name: str
    space_text: str
    objective: str
    objective_params: dict
    ops: tuple[Op, ...]
    resumed: tuple[str, ...]  # names of the tune ops resumed from a cut journal
    workers: int = 1


WHY = {
    "valley": "microsecond objective, so wall time is the tuner: encoding, "
    "checkpoint and journal writes, GP fits, replay",
    "gridworld": "tabular Q-learning objective dominates and DEHB's 90-wide lowest "
    "rung costs as much per trial as a full run",
    "gridworld-w2": "gridworld's DEHB op at 2 workers, the only workload that runs "
    "the runner's worker pool; its parallel resume is known to fail",
}
NAMES = tuple(WHY)


def variant(seed: int) -> int:
    return int(seed) % N_VARIANTS


def _rng(var: int, tag: str) -> random.Random:
    return random.Random(f"perfbench:{var}:{tag}")


def _seed_lists(var: int, tag: str, n_tuning: int, n_test: int) -> tuple[str, str]:
    picks = _rng(var, tag).sample(range(1000), n_tuning + n_test)
    tuning, test = picks[:n_tuning], picks[n_tuning:]
    return ",".join(map(str, tuning)), ",".join(map(str, test))


def _tune(var: int, tag: str, method: str, objective: tuple[str, dict], budget: int,
          n_tuning: int, extra: tuple[str, ...] = ()) -> tuple[str, ...]:
    tuning, test = _seed_lists(var, tag, n_tuning, 10)
    return (
        "tune", method, *_objective_args(objective),
        "--budget-runs", str(budget),
        "--tuning-seeds", tuning,
        "--test-seeds", test,
        "--rng-seed", str(_rng(var, tag + ":rng").randrange(2**31)),
        *extra,
    )


VALLEY_OBJECTIVE = ("seeded_valley", {"sigma": 0.25})
GRIDWORLD_OBJECTIVE = ("gridworld_q", {})


def _objective_args(objective: tuple[str, dict]) -> tuple[str, ...]:
    kind, params = objective
    args = ["--objective", kind]
    for key, value in params.items():
        args += ["--objective-param", f"{key}={value!r}"]
    return tuple(args)


def _valley(var: int) -> tuple[Op, ...]:
    obj = VALLEY_OBJECTIVE
    sweep_rng = _rng(var, "sweep")
    values = sorted({round(sweep_rng.uniform(0.0, 0.99), 3) for _ in range(6)})
    seeds = sweep_rng.sample(range(1000), 5)
    sweep = (
        "sweep", *_objective_args(obj),
        "--param", "momentum",
        "--values", ",".join(map(repr, values)),
        "--seeds", ",".join(map(str, seeds)),
        "--budget", "1.0",
    )
    return (
        Op("dehb", TUNE, _tune(var, "valley:dehb", "dehb", obj, 32, 5), (var, "valley", "dehb")),
        Op("pbt-gp", TUNE, _tune(var, "valley:pbt-gp", "pbt", obj, 16, 5,
                                 ("--explore", "gp", "--intervals", "10")),
           (var, "valley", "pbt-gp")),
        Op("rs", TUNE, _tune(var, "valley:rs", "rs", obj, 16, 5), (var, "valley", "rs")),
        Op("sweep", SWEEP, sweep, (var, "valley", "sweep"),
           equivalents=len(values) * len(seeds) * 1.0),
    )


def _gridworld_pbt(var: int) -> Op:
    # 16 members over 5 intervals: the cost of a member's greedy evaluation
    # drops once it learns, and more members average that out
    argv = _tune(var, "gridworld:pbt", "pbt", GRIDWORLD_OBJECTIVE, 16, 1,
                 ("--explore", "perturb", "--intervals", "5"))
    return Op("pbt", TUNE, argv, (var, "gridworld", "pbt"))


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with every input derived from ``seed``."""
    var = variant(seed)
    if name == "valley":
        return Workload(name, VALLEY_SPACE, *VALLEY_OBJECTIVE, _valley(var),
                        resumed=("dehb", "pbt-gp", "rs"))
    dehb = Op("dehb", TUNE, _tune(var, "gridworld:dehb", "dehb", GRIDWORLD_OBJECTIVE, 8, 1,
                                  ("--min-budget", "0.01", "--eta", "1.9")),
              (var, "gridworld", "dehb"))
    if name == "gridworld":
        return Workload(name, GRIDWORLD_SPACE, *GRIDWORLD_OBJECTIVE,
                        (dehb, _gridworld_pbt(var)), resumed=("dehb", "pbt"))
    if name == "gridworld-w2":
        # DEHB rather than PBT: its cost hardly depends on the inputs, while a
        # PBT op's cost falls as soon as members learn. Same inputs, and so
        # the same workers=1 golden, as gridworld's op.
        dehb = Op(dehb.name, dehb.kind, dehb.argv + ("--workers", "2"), dehb.golden)
        return Workload(name, GRIDWORLD_SPACE, *GRIDWORLD_OBJECTIVE,
                        (dehb,), resumed=("dehb",), workers=2)
    raise ValueError(f"unknown workload {name!r}; pick one of {', '.join(NAMES)}")
