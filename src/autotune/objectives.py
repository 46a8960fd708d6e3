"""Black-box objectives: cost as a function of (configuration, budget, seed).

Costs are minimized. Budget is a fraction in (0, 1] of a full training run;
training can resume from a checkpoint so schedulers that change configurations
mid-run (population-based training) get exact continuation: resuming a run at
fraction f and training on to b yields bit-identical cost to a fresh run to b
when the configuration is unchanged.

Every objective has a ``name``, a ``cost_metric`` and ``evaluate``. The
built-in kinds, with the parameters an :class:`ObjectiveSpec` may give them:

* ``seeded_valley`` (``dimension=2, sigma=0.25, noise=0.05``) -- squared
  distance in unit space to an optimum the seed moves by ``sigma``, plus a
  (1 - b) * 0.5 penalty for partial budgets and bounded deterministic noise;
  reproduces tuning-seed overfitting at desk scale. Given a space,
  :func:`make_objective` measures in it instead of ``dimension`` unit axes.
* ``noisy_sphere`` (``dimension=2, noise=0.1, shift_sigma=0.0``) --
  ``seeded_valley`` without the penalty, with ``shift_sigma`` for ``sigma``.
  Both memoise per instance the distance and noise terms of each
  (configuration, seed) pair, which the budget does not change, so a run
  derives each pair's terms once. ``sigma``, ``shift_sigma`` and ``noise``
  must be finite.
* ``gridworld_q`` (``total_steps=2000``) -- tabular Q-learning on a 5x5
  gridworld; cost is the negative mean return of the greedy policy over 100
  evaluation episodes.
* ``external_command`` (``command, workdir=None, timeout=None``) -- run a
  user command; it must print ``cost=<float>`` as the final line of stdout.
  Configuration values are passed as uppercased environment variables, plus
  AUTOTUNE_BUDGET, AUTOTUNE_SEED and AUTOTUNE_CHECKPOINT (a file path the
  command may read and should write).
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pickle
import shlex
import shutil
import signal
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

DONE = "done"
FAILED = "failed"


class EvaluationError(RuntimeError):
    """A trial failed; carries captured output when available."""

    def __init__(self, message: str, output: str = ""):
        super().__init__(message)
        self.output = output


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
    """Deterministic stream keyed on strings/ints; independent of caller rngs.

    Each item's text is hashed, and the first 16 bytes of each hash are read
    as four little-endian 32-bit words. ``SeedSequence`` takes them as one
    ``uint32`` array, the same words a list of Python ints would give it,
    which it reads several times faster.
    """
    blob = b"".join(hashlib.sha256(str(item).encode("utf-8")).digest()[:16] for item in entropy)
    return np.random.default_rng(np.random.SeedSequence(np.frombuffer(blob, dtype="<u4")))


@dataclass(frozen=True)
class ObjectiveSpec:
    """Declarative description of an objective, storable in run headers."""

    kind: str
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


class Objective:
    """Interface every objective implements."""

    name: str = "objective"
    cost_metric: str = "cost (lower is better)"

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


def _bounded_noise(tag: str, digest: str, seed: int) -> float:
    """Deterministic zero-mean draw in [-1, 1] keyed on (objective, config
    digest, seed)."""
    rng = _derived_rng(tag, digest, seed)
    return 2.0 * float(rng.random()) - 1.0


@functools.lru_cache(maxsize=1024, typed=True)
def _seed_direction(tag: str, seed: int, dimension: int) -> np.ndarray:
    """Unit vector that shifts seed ``seed``'s optimum; read-only.

    It depends only on its arguments, and deriving its stream costs more
    than the rest of an evaluation, so each one is computed once and
    shared. ``typed`` keeps keys that compare equal but print differently
    (``1`` and ``True``) apart, as the stream is keyed on their text.
    """
    rng = _derived_rng(tag, "shift", seed)
    v = rng.standard_normal(dimension)
    norm = float(np.linalg.norm(v))
    v = v / norm if norm > 0 else v
    v.flags.writeable = False
    return v


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


# most (config digest, seed) terms, and most unit vectors, one valley or
# sphere instance remembers; a memo is emptied when it is full
_TERMS_CAP = 1 << 16


class SeededValley(Objective):
    """Sphere with a seed-dependent optimum and a partial-budget penalty.

    cost(z, b, s) = ||z - z*(s)||^2 + (1 - b) * penalty + noise * eps(config, s)
    with z*(s) = 0.5 + sigma * u(s) for a unit vector u(s) derived from the
    seed. With sigma = 0 all per-seed optima coincide.

    Neither ||z - z*(s)||^2 nor eps(config, s) depends on the budget, so
    each instance keeps both per (config digest, seed's text) and derives
    them once for every pair it sees; the seed's text is the key because
    the streams are keyed on it (``1`` and ``True`` compare equal but derive
    different ones). A hit adds the budget's penalty and the noise in the
    order a miss does, so the cost is the same bits. The unit vector z is
    kept per config digest as well, so each distinct configuration is
    encoded once per instance, whichever object carries it.
    """

    name = "seeded_valley"
    cost_metric = "seed-shifted squared distance plus partial-budget penalty"
    penalty = 0.5  # cost of each fraction of a full run left untrained
    _memo: tuple | None = None  # (config, its items, unit vector, digest)

    def __init__(
        self,
        dimension: int = 2,
        sigma: float = 0.25,
        noise: float = 0.05,
        space: ConfigSpace | None = None,
    ):
        self.dimension = int(space.dimension if space is not None else dimension)
        self.sigma = _finite("sigma", sigma)
        self.noise = _finite("noise", noise)
        if space is None:
            space = ConfigSpace([continuous(f"x{i}", 0.0, 1.0) for i in range(self.dimension)])
        self.space = space
        # (config digest, str(seed)) -> (squared distance, noise draw)
        self._terms: dict[tuple[str, str], tuple[float, float]] = {}
        # config digest -> unit vector (read-only)
        self._units: dict[str, np.ndarray] = {}

    def _encoded(self, config: Configuration) -> tuple[np.ndarray, str]:
        """Unit vector (read-only) and digest of ``config``.

        The vector is kept per digest, which tells ``1``, ``1.0`` and
        ``True`` apart and ``0.0`` from ``-0.0``, so a configuration is
        encoded once however many objects carry it. A group evaluates one
        configuration object on every seed, so the last one is remembered
        too and skips the digest. A hit there needs that object holding the
        very same value objects, so after ``values`` changes the digest is
        taken again. Under ``--workers`` each forked worker evaluates on its
        own copy of the objective, so these memos and ``_terms`` fill
        separately in each process and are never shared; a cost never
        depends on what they hold.
        """
        items = tuple(config.values.items())
        memo = self._memo
        if (
            memo is not None
            and memo[0] is config
            and len(memo[1]) == len(items)
            and all(k == j and v is w for (k, v), (j, w) in zip(memo[1], items))
        ):
            return memo[2], memo[3]
        digest = config_digest(config)
        z = self._units.get(digest)
        if z is None:
            z = to_unit(self.space, config)
            z.flags.writeable = False
            if len(self._units) >= _TERMS_CAP:
                self._units.clear()
            self._units[digest] = z
        self._memo = (config, items, z, digest)
        return z, digest

    def optimum(self, seed: int) -> np.ndarray:
        center = np.full(self.dimension, 0.5)
        if self.sigma == 0.0:
            return center
        return center + self.sigma * _seed_direction(self.name, seed, self.dimension)

    def evaluate(self, config, budget, seed, resume=None):
        self._check_budget(budget, resume)
        z, digest = self._encoded(config)
        key = (digest, str(seed))
        terms = self._terms.get(key)
        if terms is None:
            dist2 = float(np.sum((z - self.optimum(seed)) ** 2))
            terms = (dist2, _bounded_noise(self.name, digest, seed))
            if len(self._terms) >= _TERMS_CAP:
                self._terms.clear()
            self._terms[key] = terms
        dist2, eps = terms
        cost = dist2 + (1.0 - budget) * self.penalty
        cost += self.noise * eps
        ckpt = CheckpointHandle(
            key=f"{self.name}:{digest[:12]}:{seed}",
            trained_fraction=budget,
            payload=b"",
        )
        return cost, ckpt


class NoisySphere(SeededValley):
    """The valley without its penalty, so budget has no effect; its optimum
    moves with the seed only when ``shift_sigma`` is set."""

    name = "noisy_sphere"
    cost_metric = "squared distance to optimum in unit space"
    penalty = 0.0  # dist2 + (1 - b) * 0.0 is dist2, bit for bit

    def __init__(
        self,
        dimension: int = 2,
        noise: float = 0.1,
        shift_sigma: float = 0.0,
        space: ConfigSpace | None = None,
    ):
        super().__init__(
            dimension, sigma=_finite("shift_sigma", shift_sigma), noise=noise, space=space
        )

    # bound here as well as in SeededValley: perfbench/spans.py times each
    # objective class's own ``evaluate``
    evaluate = SeededValley.evaluate


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
    one: the index ``np.argmax`` returns.

    On a row without NaN, ``row.index(max(row))`` picks the same index and
    ``max(row)`` is the entry there: ``max`` keeps the first of equal
    maxima, ``index`` finds the first entry equal to it, and ``==`` and
    ``>`` agree on every float but NaN (-0.0 == 0.0 ties, like any other).
    Greedy picks use those C-level forms and call this only on a table that
    holds a NaN, where ``max`` would depend on the NaN's position."""
    best = 0
    top = row[0]
    for i, v in enumerate(row):
        if v != v:
            return i
        if v > top:
            best, top = i, v
    return best


# most uniforms drawn from the training stream at once; bounds the memory a
# trial takes whatever ``total_steps`` is
_DRAW_BLOCK = 4096


@functools.lru_cache(maxsize=None)  # at most 2 * _EPISODE_CAP entries
def _mean_return(length: int, goal: bool) -> float:
    """Mean return over _EVAL_EPISODES greedy episodes that each take
    ``length`` steps, the last reaching the goal when ``goal``.

    Every step is worth _STEP_REWARD and the goal adds _GOAL_REWARD, so the
    return depends on these two alone; it is summed a step at a time, and
    once per episode, to keep the float rounding of a rollout of each.
    """
    ep = 0.0
    for k in range(1, length + 1):
        ep += _STEP_REWARD + _GOAL_REWARD if goal and k == length else _STEP_REWARD
    total = 0.0
    for _ in range(_EVAL_EPISODES):
        total += ep
    return total / _EVAL_EPISODES


class GridworldQ(Objective):
    """Tabular Q-learning on a deterministic 5x5 grid.

    Hyperparameters: learning_rate (log), epsilon, gamma, epsilon_decay.
    Budget is the fraction of ``total_steps`` training steps (rounded up);
    checkpoints capture the full training state so continuation is exact.
    Cost = -(mean undiscounted return of the greedy policy over 100 episodes).
    The greedy policy and the grid are deterministic, so all 100 episodes are
    the same, and an episode that comes back to a state loops until the
    step cap: evaluation rolls out one episode up to the goal or the first
    repeated state, and :func:`_mean_return` gives the 100-episode mean of
    its return bit for bit, so ``cost_metric`` keeps its meaning.

    Each training step takes one uniform from the seed's stream, and a
    second when it explores, in the order a scalar ``rng.random()`` per draw
    would give. Training computes the same bits as that scalar loop:

    * uniforms come in contiguous blocks of ``Generator.random(n)``, which
      yields the values of n scalar draws in turn; at the end the stream is
      set back to where the call found it and advanced by the draws used,
      so the checkpoint's ``rng`` state is the scalar loop's, byte for byte;
    * epsilon, ``epsilon * epsilon_decay**episode``, is fixed within an
      episode, so it is computed at the first step a call takes in each
      episode, and an overflow fails the trial at that same step;
    * greedy picks use ``row.index(max(row))`` and ``max`` while the table
      holds no NaN (see :func:`_first_max`), and ``_first_max`` from the
      step that writes the first NaN on, or from the start when a resumed
      table holds one.
    """

    name = "gridworld_q"
    cost_metric = "negative mean greedy-policy return over 100 evaluation episodes"

    space = ConfigSpace(
        [
            log_continuous("learning_rate", 1e-7, 1.0),
            continuous("epsilon", 0.0, 1.0),
            continuous("gamma", 0.5, 0.999),
            continuous("epsilon_decay", 0.9, 1.0),
        ]
    )

    def __init__(self, total_steps: int = 2000):
        self.total_steps = int(total_steps)
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        # seed's text, on which the stream is keyed -> the start state of its
        # training stream; a derivation costs a good share of a short trial
        self._streams: dict[str, dict] = {}

    def _fresh_state(self, seed: int) -> dict:
        stream = self._streams.get(str(seed))
        if stream is None:
            stream = _derived_rng(self.name, "train", seed).bit_generator.state
            self._streams[str(seed)] = stream
        return {
            "q": np.zeros((_GRID * _GRID, len(_MOVES))),
            "rng": stream,
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
        # a fixed seed spares drawing OS entropy; the state set next replaces it
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = state["rng"]
        q = state["q"]
        # nested Python lists: indexing a row and updating a float there costs
        # a fraction of the numpy scalar round trips; the arithmetic is the same
        rows = q.tolist()
        nan = bool(np.isnan(q).any())
        s = state["pos"][0] * _GRID + state["pos"][1]
        step = state["step"]
        episode = state["episode"]
        steps_in_episode = state["steps_in_episode"]

        target_steps = self._steps_for(budget)
        moves = len(_MOVES)
        # the stream's uniforms from draws[i] on, drawn in contiguous blocks and
        # consumed in order, one or two a step, so each step sees the value a
        # scalar draw would give; used: draws consumed before draws[0]
        draws: list[float] = []
        i = used = 0
        while step < target_steps:
            # one segment: the steps left of this episode, up to the target, all
            # at one epsilon
            try:
                eps = eps0 * (decay**episode)
            except OverflowError as err:  # epsilon_decay > 1 over many episodes
                raise EvaluationError(
                    f"gridworld_q: epsilon_decay**{episode} overflows: {config.values}"
                ) from err
            n = min(target_steps - step, _EPISODE_CAP - steps_in_episode)
            if len(draws) - i < 2 * n:  # each step takes at most two draws
                block = min(2 * (target_steps - step), _DRAW_BLOCK)
                draws = draws[i:] + rng.random(block).tolist()
                used += i
                i = 0
            for taken in range(1, n + 1):
                row = rows[s]
                if draws[i] < eps:
                    action = min(int(draws[i + 1] * moves), moves - 1)
                    i += 2
                else:
                    action = _first_max(row) if nan else row.index(max(row))
                    i += 1
                ns, reward, done = _TRANSITIONS[s][action]
                if done:
                    target = reward
                else:
                    next_row = rows[ns]
                    best = next_row[_first_max(next_row)] if nan else max(next_row)
                    target = reward + gamma * best
                v = row[action]
                v += lr * (target - v)
                row[action] = v
                if v != v:
                    nan = True
                if done:
                    break
                s = ns
            step += taken
            steps_in_episode += taken
            if done or steps_in_episode == _EPISODE_CAP:
                s = 0
                steps_in_episode = 0
                episode += 1
        if draws:
            # the blocks overdraw: leave the stream where the scalar loop would,
            # just past the draws used
            rng.bit_generator.state = state["rng"]
            rng.bit_generator.advance(used + i)

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
        nan = bool(np.isnan(q).any())
        seen = [False] * len(rows)
        s = 0
        for length in range(1, _EPISODE_CAP + 1):
            if seen[s]:  # the policy and the grid are deterministic: a loop
                break
            seen[s] = True
            row = rows[s]
            s, _, done = _TRANSITIONS[s][_first_max(row) if nan else row.index(max(row))]
            if done:
                return _mean_return(length, True)
        return _mean_return(_EPISODE_CAP, False)

    def untrained_cost(self) -> float:
        return -self._greedy_return(np.zeros((_GRID * _GRID, len(_MOVES))))


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the process group ``proc`` leads, then reap ``proc``."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the group is gone already
        pass
    proc.wait()


_COMMAND_VARIABLES = ("AUTOTUNE_BUDGET", "AUTOTUNE_SEED", "AUTOTUNE_CHECKPOINT")


class ExternalCommand(Objective):
    """Run a user-provided command as the objective.

    The command sees one uppercased environment variable per hyperparameter
    plus AUTOTUNE_BUDGET, AUTOTUNE_SEED and AUTOTUNE_CHECKPOINT (a path; if the
    file exists the command may resume from it, and it should write its own
    state there). The final stdout line must be ``cost=<float>``. With a
    ``timeout`` (seconds), a command still running after it is killed,
    together with every process it started, and the trial fails.

    A program that cannot be found (on PATH, or relative to ``workdir`` when
    its name holds a ``/``) is refused when the objective is built, and so is
    a ``space`` with a parameter whose variable would replace one of the
    three above or one the command inherits. A program that cannot start
    later fails its trial.
    """

    name = "external_command"
    cost_metric = "cost reported by the external command"

    def __init__(
        self,
        command: str,
        workdir: str | None = None,
        timeout: float | None = None,
        space: ConfigSpace | None = None,
    ):
        if not command.strip():
            raise ValueError("external command must be non-empty")
        if timeout is not None and not (float(timeout) > 0.0):
            raise ValueError(f"timeout must be > 0 seconds, got {timeout!r}")
        program = shlex.split(command)[0]
        # Popen looks a program with a "/" up relative to its cwd, others on PATH
        lookup = os.path.join(workdir or "", program) if "/" in program else program
        if shutil.which(lookup) is None:
            raise ValueError(f"command {program!r} is not an executable program")
        taken = {*_COMMAND_VARIABLES, *os.environ}
        for name in () if space is None else space.names:
            if name.upper() in taken:
                raise ValueError(
                    f"hyperparameter {name!r} would replace the command's "
                    f"environment variable {name.upper()}"
                )
        self.command = command
        self.workdir = workdir
        self.timeout = None if timeout is None else float(timeout)

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
            # in a session of its own, the command and every process it
            # starts form one process group, which a timeout kills whole
            try:
                proc = subprocess.Popen(
                    shlex.split(self.command),
                    env=env,
                    cwd=self.workdir,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    start_new_session=True,
                )
            except OSError as err:  # such as a program removed since it was found
                raise EvaluationError(f"command could not start: {err}") from err
            with proc:
                try:
                    stdout, stderr = proc.communicate(timeout=self.timeout)
                except subprocess.TimeoutExpired as err:
                    _kill_group(proc)
                    # output captured before the kill comes as bytes, or None
                    captured = (err.stdout or b"") + (err.stderr or b"")
                    raise EvaluationError(
                        f"command timed out after {self.timeout:g} s",
                        output=captured.decode("utf-8", errors="replace"),
                    ) from err
                except BaseException:
                    _kill_group(proc)
                    raise
            output = stdout + stderr
            if proc.returncode != 0:
                raise EvaluationError(
                    f"command exited with status {proc.returncode}", output=output
                )
            lines = [ln for ln in stdout.splitlines() if ln.strip()]
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


_BUILTINS = {
    NoisySphere.name: NoisySphere,
    SeededValley.name: SeededValley,
    GridworldQ.name: GridworldQ,
    ExternalCommand.name: ExternalCommand,
}


def make_objective(spec: ObjectiveSpec, space: ConfigSpace | None = None) -> Objective:
    """Build the objective ``spec`` describes; ``space``, when given, is the
    space ``noisy_sphere`` and ``seeded_valley`` measure distance in, and the
    one whose names ``external_command`` checks against its environment."""
    if spec.kind not in _BUILTINS:
        raise ValueError(f"unknown objective kind {spec.kind!r}")
    cls = _BUILTINS[spec.kind]
    kw = dict(spec.params)
    if space is not None and issubclass(cls, (SeededValley, ExternalCommand)):
        kw["space"] = space
    try:
        return cls(**kw)
    except TypeError as err:  # a parameter the objective does not take
        raise ValueError(f"bad parameters for objective {spec.kind!r}: {err}") from err
