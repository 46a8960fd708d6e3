"""Black-box objectives: cost as a function of (configuration, budget, seed).

Costs are minimized. Budget is a fraction in (0, 1] of a full training run;
training can resume from a checkpoint so schedulers that change configurations
mid-run (population-based training) get exact continuation: resuming a run at
fraction f and training on to b yields bit-identical cost to a fresh run to b
when the configuration is unchanged.

Built-in objectives:

* ``noisy_sphere``   -- squared distance to a (optionally seed-shifted) optimum
  in unit space plus bounded deterministic noise. Budget has no effect.
* ``seeded_valley``  -- like the sphere but the optimum moves with the seed
  (controlled by ``sigma``) and partial budgets pay a (1 - b) * 0.5 penalty;
  reproduces tuning-seed overfitting at desk scale.
* ``gridworld_q``    -- tabular Q-learning on a 5x5 gridworld; cost is the
  negative mean return of the greedy policy over 100 evaluation episodes.
* ``external_command`` -- run a user command; it must print ``cost=<float>``
  as the final line of stdout. Configuration values are passed as uppercased
  environment variables, plus AUTOTUNE_BUDGET, AUTOTUNE_SEED and
  AUTOTUNE_CHECKPOINT (a file path the command may read and should write).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .checkpoints import CheckpointPack, read_checkpoint
from .space import (
    ConfigSpace,
    Configuration,
    continuous,
    log_continuous,
    to_unit,
)

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class EvaluationError(RuntimeError):
    """A trial failed; carries captured output when available."""

    def __init__(self, message: str, output: str = ""):
        super().__init__(message)
        self.output = output


@dataclass
class Trial:
    """One evaluation of a configuration at a budget on a seed."""

    config: Configuration
    budget: float
    seed: int
    cost: float | None = None
    wall_time: float = 0.0
    status: str = PENDING
    error: str = ""

    def __post_init__(self) -> None:
        if not (0.0 < self.budget <= 1.0):
            raise ValueError(f"budget {self.budget} outside (0, 1]")
        if (self.cost is not None) != (self.status == DONE):
            raise ValueError("cost must be present exactly when status == done")


@dataclass
class CheckpointHandle:
    """Reference to an opaque training-state payload.

    The payload lives in memory (``payload``), in a checkpoint pack
    (``path``), or both. ``path`` is the pack's directory joined with the
    name of the payload's frame (see :mod:`autotune.checkpoints`). A handle
    with a path and no payload reads its frame on :meth:`load`, through
    ``pack`` when one is given (an open pack whose index the holder keeps),
    else with a scan of the pack for this one read.
    ``trained_fraction`` never decreases along one training lineage.
    """

    key: str
    trained_fraction: float
    payload: bytes | None = None
    path: str | None = None
    pack: CheckpointPack | None = field(default=None, repr=False, compare=False)

    def load(self) -> bytes:
        if self.payload is not None:
            return self.payload
        if self.path is None:
            raise EvaluationError(f"checkpoint {self.key} has no payload")
        if self.pack is None:
            return read_checkpoint(self.path)
        return self.pack.read(os.path.basename(self.path))

    def digest(self) -> str:
        return hashlib.sha256(self.load()).hexdigest()


def config_digest(config: Configuration) -> str:
    """Stable digest of a configuration (exact for floats via repr)."""
    blob = json.dumps(config.values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _derived_rng(*entropy) -> np.random.Generator:
    """Deterministic stream keyed on strings/ints; independent of caller rngs."""
    words = []
    for item in entropy:
        h = hashlib.sha256(str(item).encode("utf-8")).digest()
        words.extend(int.from_bytes(h[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass(frozen=True)
class ObjectiveSpec:
    """Declarative description of an objective, storable in run headers."""

    kind: str
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectiveSpec":
        return cls(kind=d["kind"], params=dict(d.get("params", {})))


class Objective:
    """Interface every objective implements."""

    name: str = "objective"
    cost_metric: str = "cost (lower is better)"

    def default_space(self) -> ConfigSpace:
        raise NotImplementedError

    def spec(self) -> ObjectiveSpec:
        raise NotImplementedError

    def evaluate(
        self,
        config: Configuration,
        budget: float,
        seed: int,
        resume: CheckpointHandle | None = None,
    ) -> tuple[float, CheckpointHandle]:
        raise NotImplementedError

    def _check_budget(self, budget: float, resume: CheckpointHandle | None) -> None:
        if not (0.0 < budget <= 1.0):
            raise ValueError(f"budget {budget} outside (0, 1]")
        if resume is not None and not (resume.trained_fraction < budget):
            raise ValueError(
                f"resume fraction {resume.trained_fraction} must be < budget {budget}"
            )


def _unit_space(dimension: int) -> ConfigSpace:
    return ConfigSpace([continuous(f"x{i}", 0.0, 1.0) for i in range(dimension)])


def _bounded_noise(tag: str, config: Configuration, seed: int) -> float:
    """Deterministic zero-mean draw in [-1, 1] keyed on (objective, config, seed)."""
    rng = _derived_rng(tag, config_digest(config), seed)
    return 2.0 * float(rng.random()) - 1.0


def _seed_direction(tag: str, seed: int, dimension: int) -> np.ndarray:
    rng = _derived_rng(tag, "shift", seed)
    v = rng.standard_normal(dimension)
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else v


class NoisySphere(Objective):
    """Squared distance to the optimum in unit space; budget-independent."""

    name = "noisy_sphere"
    cost_metric = "squared distance to optimum in unit space"

    def __init__(
        self,
        dimension: int = 2,
        noise: float = 0.1,
        shift_sigma: float = 0.0,
        space: ConfigSpace | None = None,
    ):
        self.dimension = int(space.dimension if space is not None else dimension)
        self.noise = float(noise)
        self.shift_sigma = float(shift_sigma)
        self.space = space if space is not None else _unit_space(self.dimension)

    def default_space(self) -> ConfigSpace:
        return self.space

    def spec(self) -> ObjectiveSpec:
        return ObjectiveSpec(
            self.name,
            {
                "dimension": self.dimension,
                "noise": self.noise,
                "shift_sigma": self.shift_sigma,
            },
        )

    def optimum(self, seed: int) -> np.ndarray:
        center = np.full(self.dimension, 0.5)
        if self.shift_sigma == 0.0:
            return center
        return center + self.shift_sigma * _seed_direction(self.name, seed, self.dimension)

    def evaluate(self, config, budget, seed, resume=None):
        self._check_budget(budget, resume)
        z = to_unit(self.space, config)
        dist2 = float(np.sum((z - self.optimum(seed)) ** 2))
        cost = dist2 + self.noise * _bounded_noise(self.name, config, seed)
        ckpt = CheckpointHandle(
            key=f"{self.name}:{config_digest(config)[:12]}:{seed}",
            trained_fraction=budget,
            payload=b"",
        )
        return cost, ckpt


class SeededValley(Objective):
    """Sphere with a seed-dependent optimum and a partial-budget penalty.

    cost(z, b, s) = ||z - z*(s)||^2 + (1 - b) * 0.5 + noise * eps(config, s)
    with z*(s) = 0.5 + sigma * u(s) for a unit vector u(s) derived from the
    seed. With sigma = 0 all per-seed optima coincide.
    """

    name = "seeded_valley"
    cost_metric = "seed-shifted squared distance plus partial-budget penalty"

    def __init__(
        self,
        dimension: int = 2,
        sigma: float = 0.25,
        noise: float = 0.05,
        space: ConfigSpace | None = None,
    ):
        self.dimension = int(space.dimension if space is not None else dimension)
        self.sigma = float(sigma)
        self.noise = float(noise)
        self.space = space if space is not None else _unit_space(self.dimension)

    def default_space(self) -> ConfigSpace:
        return self.space

    def spec(self) -> ObjectiveSpec:
        return ObjectiveSpec(
            self.name,
            {"dimension": self.dimension, "sigma": self.sigma, "noise": self.noise},
        )

    def optimum(self, seed: int) -> np.ndarray:
        center = np.full(self.dimension, 0.5)
        if self.sigma == 0.0:
            return center
        return center + self.sigma * _seed_direction(self.name, seed, self.dimension)

    def evaluate(self, config, budget, seed, resume=None):
        self._check_budget(budget, resume)
        z = to_unit(self.space, config)
        dist2 = float(np.sum((z - self.optimum(seed)) ** 2))
        cost = dist2 + (1.0 - budget) * 0.5
        cost += self.noise * _bounded_noise(self.name, config, seed)
        ckpt = CheckpointHandle(
            key=f"{self.name}:{config_digest(config)[:12]}:{seed}",
            trained_fraction=budget,
            payload=b"",
        )
        return cost, ckpt


# ---------------------------------------------------------------------------
# Tabular Q-learning gridworld

_GRID = 5
_GOAL = (_GRID - 1, _GRID - 1)
_STEP_REWARD = -0.01
_GOAL_REWARD = 1.0
_EPISODE_CAP = 50
_EVAL_EPISODES = 100
# action -> (dr, dc): up, down, left, right
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


def _grid_step(pos: tuple[int, int], action: int) -> tuple[tuple[int, int], float, bool]:
    dr, dc = _MOVES[action]
    r = min(max(pos[0] + dr, 0), _GRID - 1)
    c = min(max(pos[1] + dc, 0), _GRID - 1)
    if (r, c) == _GOAL:
        return (r, c), _STEP_REWARD + _GOAL_REWARD, True
    return (r, c), _STEP_REWARD, False


# (next state, reward, done) by state and action, where state = row * _GRID + col
_TRANSITIONS = tuple(
    tuple(
        (nxt[0] * _GRID + nxt[1], reward, done)
        for nxt, reward, done in (_grid_step(divmod(s, _GRID), a) for a in range(len(_MOVES)))
    )
    for s in range(_GRID * _GRID)
)


def _first_max(row: list[float]) -> int:
    """Index of the first maximum of ``row``, or of its first NaN if it has
    one: the index ``np.argmax`` returns."""
    best = 0
    top = row[0]
    for i, v in enumerate(row):
        if v != v:
            return i
        if v > top:
            best, top = i, v
    return best


class GridworldQ(Objective):
    """Tabular Q-learning on a deterministic 5x5 grid.

    Hyperparameters: learning_rate (log), epsilon, gamma, epsilon_decay.
    Budget is the fraction of ``total_steps`` training steps (rounded up);
    checkpoints capture the full training state so continuation is exact.
    Cost = -(mean undiscounted return of the greedy policy over 100 episodes).
    The greedy policy and the grid are deterministic, so all 100 episodes are
    the same: evaluation rolls out one episode and adds its return 100 times,
    which gives the 100-episode mean bit for bit, and ``cost_metric`` keeps
    its meaning.
    """

    name = "gridworld_q"
    cost_metric = "negative mean greedy-policy return over 100 evaluation episodes"

    def __init__(self, total_steps: int = 2000):
        self.total_steps = int(total_steps)
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")

    def default_space(self) -> ConfigSpace:
        return ConfigSpace(
            [
                log_continuous("learning_rate", 1e-7, 1.0),
                continuous("epsilon", 0.0, 1.0),
                continuous("gamma", 0.5, 0.999),
                continuous("epsilon_decay", 0.9, 1.0),
            ]
        )

    def spec(self) -> ObjectiveSpec:
        return ObjectiveSpec(self.name, {"total_steps": self.total_steps})

    def _fresh_state(self, seed: int) -> dict:
        rng = _derived_rng(self.name, "train", seed)
        return {
            "q": np.zeros((_GRID * _GRID, len(_MOVES))),
            "rng": rng.bit_generator.state,
            "step": 0,
            "episode": 0,
            "pos": (0, 0),
            "steps_in_episode": 0,
        }

    def _steps_for(self, budget: float) -> int:
        return int(math.ceil(budget * self.total_steps))

    def evaluate(self, config, budget, seed, resume=None):
        self._check_budget(budget, resume)
        lr = float(config["learning_rate"])
        eps0 = float(config["epsilon"])
        gamma = float(config["gamma"])
        decay = float(config["epsilon_decay"])
        if (
            not (0.0 <= lr < math.inf)
            or not (0.0 <= eps0 <= 1.0)
            or not (0.0 <= gamma <= 1.0)
            or not (0.0 <= decay < math.inf)
        ):
            raise EvaluationError(f"invalid gridworld_q configuration: {config.values}")

        if resume is not None:
            state = pickle.loads(resume.load())
        else:
            state = self._fresh_state(seed)
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng"]
        q = state["q"]
        # nested Python lists: indexing a row and updating a float there costs
        # a fraction of the numpy scalar round trips; the arithmetic is the same
        rows = q.tolist()
        s = state["pos"][0] * _GRID + state["pos"][1]
        step = state["step"]
        episode = state["episode"]
        steps_in_episode = state["steps_in_episode"]

        target_steps = self._steps_for(budget)
        while step < target_steps:
            row = rows[s]
            try:
                eps = eps0 * (decay**episode)
            except OverflowError as err:  # epsilon_decay > 1 over many episodes
                raise EvaluationError(
                    f"gridworld_q: epsilon_decay**{episode} overflows: {config.values}"
                ) from err
            if rng.random() < eps:
                action = min(int(rng.random() * len(_MOVES)), len(_MOVES) - 1)
            else:
                action = _first_max(row)
            ns, reward, done = _TRANSITIONS[s][action]
            steps_in_episode += 1
            capped = steps_in_episode >= _EPISODE_CAP
            if done:
                target = reward
            else:
                next_row = rows[ns]
                target = reward + gamma * next_row[_first_max(next_row)]
            row[action] += lr * (target - row[action])
            step += 1
            if done or capped:
                s = 0
                steps_in_episode = 0
                episode += 1
            else:
                s = ns

        state = {
            "q": np.array(rows, dtype=q.dtype),
            "rng": rng.bit_generator.state,
            "step": step,
            "episode": episode,
            "pos": divmod(s, _GRID),
            "steps_in_episode": steps_in_episode,
        }
        ckpt = CheckpointHandle(
            key=f"{self.name}:{config_digest(config)[:12]}:{seed}",
            trained_fraction=budget,
            payload=pickle.dumps(state, protocol=4),
        )
        return -self._greedy_return(state["q"]), ckpt

    @staticmethod
    def _greedy_return(q: np.ndarray) -> float:
        rows = q.tolist()
        s = 0
        ep = 0.0
        for _ in range(_EPISODE_CAP):
            s, reward, done = _TRANSITIONS[s][_first_max(rows[s])]
            ep += reward
            if done:
                break
        # every evaluation episode returns ep; summing it once per episode keeps
        # the float rounding of the mean over _EVAL_EPISODES episodes
        total = 0.0
        for _ in range(_EVAL_EPISODES):
            total += ep
        return total / _EVAL_EPISODES

    def untrained_cost(self) -> float:
        return -self._greedy_return(np.zeros((_GRID * _GRID, len(_MOVES))))


class ExternalCommand(Objective):
    """Run a user-provided command as the objective.

    The command sees one uppercased environment variable per hyperparameter
    plus AUTOTUNE_BUDGET, AUTOTUNE_SEED and AUTOTUNE_CHECKPOINT (a path; if the
    file exists the command may resume from it, and it should write its own
    state there). The final stdout line must be ``cost=<float>``.
    """

    name = "external_command"
    cost_metric = "cost reported by the external command"

    def __init__(self, command: str, space: ConfigSpace | None = None, workdir: str | None = None):
        if not command.strip():
            raise ValueError("external command must be non-empty")
        self.command = command
        self.space = space
        self.workdir = workdir

    def default_space(self) -> ConfigSpace:
        if self.space is None:
            raise SpaceRequired("external_command needs an explicit space")
        return self.space

    def spec(self) -> ObjectiveSpec:
        return ObjectiveSpec(self.name, {"command": self.command})

    def evaluate(self, config, budget, seed, resume=None):
        self._check_budget(budget, resume)
        env = dict(os.environ)
        for name, value in config.values.items():
            env[name.upper()] = str(value)
        env["AUTOTUNE_BUDGET"] = repr(float(budget))
        env["AUTOTUNE_SEED"] = str(int(seed))
        fd, ckpt_path = tempfile.mkstemp(prefix="autotune_ckpt_")
        os.close(fd)
        os.unlink(ckpt_path)
        if resume is not None:
            with open(ckpt_path, "wb") as fh:
                fh.write(resume.load())
        env["AUTOTUNE_CHECKPOINT"] = ckpt_path
        try:
            proc = subprocess.run(
                shlex.split(self.command),
                env=env,
                cwd=self.workdir,
                capture_output=True,
                text=True,
            )
            output = proc.stdout + proc.stderr
            if proc.returncode != 0:
                raise EvaluationError(
                    f"command exited with status {proc.returncode}", output=output
                )
            lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
            if not lines or not lines[-1].strip().startswith("cost="):
                raise EvaluationError(
                    "final output line must be 'cost=<float>'", output=output
                )
            try:
                cost = float(lines[-1].strip()[len("cost=") :])
            except ValueError as err:
                raise EvaluationError(
                    f"malformed cost output {lines[-1].strip()!r}", output=output
                ) from err
            payload = b""
            if os.path.exists(ckpt_path):
                with open(ckpt_path, "rb") as fh:
                    payload = fh.read()
            ckpt = CheckpointHandle(
                key=f"{self.name}:{config_digest(config)[:12]}:{seed}",
                trained_fraction=budget,
                payload=payload,
            )
            return cost, ckpt
        finally:
            if os.path.exists(ckpt_path):
                os.unlink(ckpt_path)


class SpaceRequired(ValueError):
    pass


_BUILTINS = {
    NoisySphere.name: NoisySphere,
    SeededValley.name: SeededValley,
    GridworldQ.name: GridworldQ,
    ExternalCommand.name: ExternalCommand,
}


def make_objective(spec: ObjectiveSpec | str, space: ConfigSpace | None = None, **params) -> Objective:
    """Build an objective from a spec, a kind name, or a ``cmd:...`` string."""
    if isinstance(spec, ObjectiveSpec):
        kind, kw = spec.kind, dict(spec.params)
    else:
        kind, kw = str(spec), dict(params)
    if kind.startswith("cmd:"):
        kw.setdefault("command", kind[len("cmd:") :])
        kind = ExternalCommand.name
    if kind not in _BUILTINS:
        raise ValueError(f"unknown objective kind {kind!r}")
    cls = _BUILTINS[kind]
    if space is not None and kind in (NoisySphere.name, SeededValley.name, ExternalCommand.name):
        kw["space"] = space
    return cls(**kw)


def evaluate(
    objective: Objective,
    config: Configuration,
    budget: float,
    seed: int,
    resume: CheckpointHandle | None = None,
) -> tuple[float, CheckpointHandle]:
    """Evaluate one (configuration, budget, seed) key. Raises EvaluationError."""
    return objective.evaluate(config, budget, seed, resume=resume)


def evaluate_multi_seed(
    objective: Objective,
    config: Configuration,
    budget: float,
    seeds: list[int],
) -> tuple[float, list[float]]:
    """Mean cost across seeds; any seed failing fails the aggregate."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    costs = []
    for s in seeds:
        cost, _ = objective.evaluate(config, budget, s)
        costs.append(cost)
    return float(np.mean(costs)), costs
