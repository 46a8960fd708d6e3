"""Black-box objectives: cost as a function of (configuration, budget, seed).

Costs are minimized. Budget is a fraction in (0, 1] of a full training run;
training can resume from a checkpoint so schedulers that change configurations
mid-run (population-based training) get exact continuation: resuming a run at
fraction f and training on to b yields bit-identical cost to a fresh run to b
when the configuration is unchanged. An objective returns its state as bytes,
which the runner packs as a :class:`CheckpointHandle` of the group's budget,
and resumes from ``resume.payload``, which the runner sets.

Every objective has a ``name``, a ``cost_metric`` and ``evaluate``. The
built-in kinds, with the parameters an :class:`ObjectiveSpec` may give them:

* ``seeded_valley`` (``dimension=2, sigma=0.25, noise=0.05``) -- squared
  distance in unit space to an optimum the seed moves by ``sigma``, plus a
  (1 - b) * 0.5 penalty for partial budgets and bounded deterministic noise;
  reproduces tuning-seed overfitting at desk scale. Given a space, it
  measures in that space instead, and refuses a ``dimension``.
* ``noisy_sphere`` (``dimension=2, noise=0.1, shift_sigma=0.0``) --
  ``seeded_valley`` without the penalty, with ``shift_sigma`` for ``sigma``.
  Both memoise per instance the distance and noise terms of each
  (configuration, seed) pair, which the budget does not change, so a run
  derives each pair's terms once. ``sigma``, ``shift_sigma`` and ``noise``
  must be finite.
* ``gridworld_q`` (``total_steps=2000``) -- tabular Q-learning on a 5x5
  gridworld; cost is the negative mean return of the greedy policy over 100
  evaluation episodes; it refuses a space that lacks one of its parameters
  and a ``total_steps`` that is not a whole number. A configuration trained
  again on the same seed for more steps trains on from its last run.
* ``external_command`` (``command, workdir=None, timeout=None``) -- run a
  user command; it must print ``cost=<float>`` as the final line of stdout.
  Configuration values are passed as uppercased environment variables, plus
  AUTOTUNE_BUDGET, AUTOTUNE_SEED and AUTOTUNE_CHECKPOINT (a file path the
  command may read and should write).
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import numbers
import operator
import os
import pickle
import shlex
import shutil
import signal
import struct
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

from .journal import _kept_encoder
from .space import (
    ConfigSpace,
    Configuration,
    continuous,
    log_continuous,
    to_unit,
)

class EvaluationError(RuntimeError):
    """A trial failed; carries captured output when available."""

    def __init__(self, message: str, output: str = ""):
        super().__init__(message)
        self.output = output


@dataclass
class CheckpointHandle:
    """An opaque training-state payload and the fraction of a run it holds.

    Only the runner builds one: ``trained_fraction`` is the budget of the
    group whose objective returned ``payload``, and ``path`` the pack's
    directory joined with its frame's name (see :mod:`autotune.checkpoints`).
    A replayed handle holds no payload until a live group resumes from it.
    """

    trained_fraction: float
    payload: bytes | None = None
    path: str | None = None


# json.dumps(values, sort_keys=True, separators=(",", ":")), through one kept
# C encoder per thread
_compact = _kept_encoder(json.JSONEncoder(sort_keys=True, separators=(",", ":")))


def config_digest(config: Configuration) -> str:
    """Stable digest of a configuration (exact for floats via repr)."""
    return hashlib.sha256(_compact(config.values).encode("utf-8")).hexdigest()


def _seed_sequence(*entropy) -> np.random.SeedSequence:
    """The ``SeedSequence`` of a stream keyed on strings/ints.

    Each item's text is hashed, and the first 16 bytes of each hash are read
    as four little-endian 32-bit words. ``SeedSequence`` takes them as one
    ``uint32`` array, the same words a list of Python ints would give it,
    which it reads several times faster.
    """
    blob = b"".join(_text_words(str(item)) for item in entropy)
    return np.random.SeedSequence(np.frombuffer(blob, dtype="<u4"))


def _derived_rng(*entropy) -> np.random.Generator:
    """Deterministic stream keyed on strings/ints; independent of caller rngs
    (see :func:`_seed_sequence`)."""
    return np.random.default_rng(_seed_sequence(*entropy))


@functools.lru_cache(maxsize=1024)
def _text_words(text: str) -> bytes:
    """The first 16 bytes of ``text``'s sha256; an objective's tag and its
    seeds recur in every stream it derives, so each is hashed once."""
    return hashlib.sha256(text.encode("utf-8")).digest()[:16]


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
    ) -> tuple[float, bytes | None]:
        """Cost of ``config`` at ``budget`` on ``seed``, and the training state
        as bytes (None: no checkpoint), which the runner packs at ``budget``."""
        raise NotImplementedError

    def _check_budget(self, budget: float, resume: CheckpointHandle | None) -> None:
        if not (0.0 < budget <= 1.0):
            raise ValueError(f"budget {budget} outside (0, 1]")
        if resume is not None and not (resume.trained_fraction < budget):
            raise ValueError(
                f"resume fraction {resume.trained_fraction} must be < budget {budget}"
            )


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# for each 32-bit word SeedSequence.generate_state(4, np.uint64) outputs, the
# pool word it reads and its hash constant before and after that word:
# INIT_B, multiplied by MULT_B once per word
_STATE_HASHES = tuple(
    (i % 4, 0x8B51F9DD * 0x58F38DED**i & _M32, 0x8B51F9DD * 0x58F38DED ** (i + 1) & _M32)
    for i in range(8)
)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's LCG multiplier


def _bounded_noise(tag: str, digest: str, seed: int) -> float:
    """Deterministic zero-mean draw in [-1, 1] keyed on (objective, config
    digest, seed): ``2 * _derived_rng(tag, digest, seed).random() - 1``.

    It builds no ``Generator``. From the pool numpy's ``SeedSequence``
    mixes, it repeats numpy's integer arithmetic: ``generate_state(4,
    np.uint64)``, PCG64's seeding with those words (``pcg64_set_seed``),
    one XSL-RR output, and ``random()``'s 53-bit double. The bits are
    pinned against numpy by
    ``tests/test_objectives.py::test_bounded_noise_is_the_generators_first_draw``.
    """
    pool = _seed_sequence(tag, digest, seed).pool.tolist()
    words = []
    for i, before, after in _STATE_HASHES:
        word = (pool[i] ^ before) * after & _M32
        words.append(word ^ word >> 16)
    # four 64-bit words, each of two 32-bit words read little-endian: the
    # seed's state and then its stream, each 128 bits with its high word first
    state = (words[1] << 96) | (words[0] << 64) | (words[3] << 32) | words[2]
    inc = ((words[5] << 96) | (words[4] << 64) | (words[7] << 32) | words[6]) << 1 | 1
    # from state 0: one step, add the seed state, one step, and the draw's step
    state = ((inc + state) * _PCG_MULT + inc) & _M128
    state = (state * _PCG_MULT + inc) & _M128
    x, rotation = ((state >> 64) ^ state) & _M64, state >> 122
    x = (x >> rotation | x << (64 - rotation)) & _M64
    return 2.0 * ((x >> 11) * (1.0 / 9007199254740992.0)) - 1.0


@functools.lru_cache(maxsize=1024, typed=True)
def _seed_optimum(tag: str, seed: int, dimension: int, sigma: float) -> np.ndarray:
    """Seed ``seed``'s optimum, ``0.5 + sigma * u`` for a unit vector ``u``
    derived from the seed; read-only.

    It depends only on its arguments, and deriving its stream costs more
    than the rest of an evaluation, so each one is computed once and
    shared. ``typed`` keeps keys that compare equal but print differently
    (``1`` and ``True``) apart, as the stream is keyed on their text.
    """
    opt = np.full(dimension, 0.5)
    if sigma != 0.0:
        v = _derived_rng(tag, "shift", seed).standard_normal(dimension)
        norm = float(np.linalg.norm(v))
        opt = opt + sigma * (v / norm if norm > 0 else v)
    opt.flags.writeable = False
    return opt


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


# most (config digest, seed) terms one valley or sphere instance remembers;
# the memo is emptied when it is full
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
    order a miss does, so the cost is the same bits. Only a miss reads the
    unit vector z, which is encoded once per configuration object a group
    evaluates (see :meth:`_slot`).
    """

    name = "seeded_valley"
    cost_metric = "seed-shifted squared distance plus partial-budget penalty"
    penalty = 0.5  # cost of each fraction of a full run left untrained
    _memo: list | None = None  # [config, its keys, its values, digest, unit vector or None]

    def __init__(
        self,
        dimension: int | None = None,  # 2 without a space; a space sets it
        sigma: float = 0.25,
        noise: float = 0.05,
        space: ConfigSpace | None = None,
    ):
        if space is None:
            n = 2 if dimension is None else int(dimension)
            space = ConfigSpace([continuous(f"x{i}", 0.0, 1.0) for i in range(n)])
        elif dimension is not None:
            n = space.dimension
            raise ValueError(f"dimension {dimension} given with a space of {n} parameters")
        self.dimension = space.dimension
        self.sigma = _finite("sigma", sigma)
        self.noise = _finite("noise", noise)
        self.space = space
        # (config digest, str(seed)) -> (squared distance, noise draw)
        self._terms: dict[tuple[str, str], tuple[float, float]] = {}

    def _slot(self, config: Configuration) -> list:
        """``[config, its keys, its values, its digest, its unit vector or None]``.

        The digest tells ``1``, ``1.0`` and ``True`` apart and ``0.0`` from
        ``-0.0``. A group evaluates one configuration object on every seed,
        so the last slot is kept; its unit vector is encoded on the first
        miss in ``_terms``, its only reader. A hit needs that object holding
        equal keys, in the same order, and the very same value objects. Under
        ``--workers`` each forked worker has its own copy of the objective,
        slot and ``_terms``; a cost never depends on what they hold.
        """
        values = config.values
        memo = self._memo
        if (
            memo is not None
            and memo[0] is config
            and len(memo[2]) == len(values)
            and all(map(operator.is_, memo[2], values.values()))
            and all(map(operator.eq, memo[1], values))
        ):
            return memo
        memo = self._memo = [config, tuple(values), tuple(values.values()),
                             config_digest(config), None]
        return memo

    def optimum(self, seed: int) -> np.ndarray:
        return _seed_optimum(self.name, seed, self.dimension, self.sigma).copy()

    def evaluate(self, config, budget, seed, resume=None):
        self._check_budget(budget, resume)
        slot = self._slot(config)
        key = (slot[3], str(seed))
        terms = self._terms.get(key)
        if terms is None:
            if slot[4] is None:
                slot[4] = to_unit(self.space, config)
            opt = _seed_optimum(self.name, seed, self.dimension, self.sigma)
            dist2 = float(np.sum((slot[4] - opt) ** 2))
            terms = (dist2, _bounded_noise(self.name, slot[3], seed))
            if len(self._terms) >= _TERMS_CAP:
                self._terms.clear()
            self._terms[key] = terms
        dist2, eps = terms
        return dist2 + (1.0 - budget) * self.penalty + self.noise * eps, b""


class NoisySphere(SeededValley):
    """The valley without its penalty, so budget has no effect; its optimum
    moves with the seed only when ``shift_sigma`` is set."""

    name = "noisy_sphere"
    cost_metric = "squared distance to optimum in unit space"
    penalty = 0.0  # dist2 + (1 - b) * 0.0 is dist2, bit for bit

    def __init__(
        self,
        dimension: int | None = None,
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
    Training calls this on each row of a resumed or continued table, which
    may hold a NaN, where ``max`` would depend on the NaN's position."""
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

# most trained states one gridworld instance remembers, about 1.4 KB each; the
# memo is emptied when it is full
_TRAINED_CAP = 512

# the four hyperparameters training reads, as the bytes of their doubles
_TRAINING_BITS = struct.Struct("<4d")

# one scratch generator per thread: training sets its state before drawing,
# so no call sees what another left in it, and building one costs a good
# share of a short trial
_SCRATCH = threading.local()


def _scratch_generator() -> np.random.Generator:
    rng = getattr(_SCRATCH, "rng", None)
    if rng is None:
        # a fixed seed spares drawing OS entropy; every use replaces the state
        rng = _SCRATCH.rng = np.random.Generator(np.random.PCG64(0))
    return rng


def _step_count(value) -> int:
    """``total_steps`` as an int; a bool, a fraction or a non-finite value
    would train a number of steps its run's header does not show."""
    if isinstance(value, bool):
        raise ValueError(f"total_steps must be a whole number, got {value!r}")
    if isinstance(value, numbers.Integral):
        return int(value)
    number = float(value)
    if not (math.isfinite(number) and number.is_integer()):
        raise ValueError(f"total_steps must be a whole number, got {value!r}")
    return int(number)


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
    ``total_steps`` is a whole number, and a bool, a fraction or a
    non-finite value is refused. Checkpoints capture the full training state
    so continuation is exact.
    Cost = -(mean undiscounted return of the greedy policy over 100 episodes).
    The greedy policy and the grid are deterministic, so all 100 episodes are
    the same, and an episode that comes back to a state loops until the
    step cap: evaluation rolls out one episode up to the goal or the first
    repeated state, and :func:`_mean_return` gives the 100-episode mean of
    its return bit for bit, so ``cost_metric`` keeps its meaning. The
    rollout follows the greedy actions training keeps (below).

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
    * each state's greedy action, ``np.argmax``'s pick for its row (see
      :func:`_first_max`), and the entry there are kept in two lists and
      updated after each write. A NaN written before a row's first NaN
      takes the pick; a NaN entry stays NaN under every later update, so a
      row is scanned again, with ``row.index(max(row))``, only when a write
      lowered its greedy entry, which was not NaN, and the row holds none.

    A call without ``resume`` continues a run it trained before. Each
    instance remembers, per exact bits of the four hyperparameters and the
    seed's text, the step count and checkpoint payload of the latest such
    call; a call for as many steps or more unpickles that payload and trains
    on from it, as a resume would, so its cost and payload are a fresh run's
    bits. So a configuration promoted to a higher rung pays only for the
    steps above the rung below. The memo holds at most ``_TRAINED_CAP``
    entries of about 1.4 KB and is emptied when full. Under ``--workers``
    each process keeps its own, so a promotion evaluated in another process
    than its lower rung trains from step 0, to the same bits. A continued
    trial's ``wall_time`` covers only its continuation, while the spend the
    journal records is still its budget. An instance may be shared between
    threads: each draws through a generator of its own, and an entry is
    one (steps, payload) pair, read and replaced whole; threads that fill
    the memo at once may each add an entry past the cap before it empties.
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

    def __init__(self, total_steps: int = 2000, space: ConfigSpace | None = None):
        missing = [] if space is None else [n for n in self.space.names if n not in space]
        if missing:
            raise ValueError(f"gridworld_q reads {', '.join(missing)}, which the space lacks")
        self.total_steps = _step_count(total_steps)
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        # seed's text, on which the stream is keyed -> the start state of its
        # training stream; a derivation costs a good share of a short trial
        self._streams: dict[str, dict] = {}
        # (hyperparameter bits, seed's text) -> (steps, checkpoint payload) of
        # the latest call without ``resume``
        self._trained: dict[tuple[bytes, str], tuple[int, bytes]] = {}

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

        target_steps = self._steps_for(budget)
        key = None
        fresh = False
        if resume is not None:
            state = pickle.loads(resume.payload)
        else:
            key = (_TRAINING_BITS.pack(lr, eps0, gamma, decay), str(seed))
            trained = self._trained.get(key)
            if trained is not None and trained[0] <= target_steps:
                state = pickle.loads(trained[1])
            else:
                state = self._fresh_state(seed)
                fresh = True
        rng = _scratch_generator()
        rng.bit_generator.state = state["rng"]
        q = state["q"]
        # nested Python lists: indexing a row and updating a float there costs
        # a fraction of the numpy scalar round trips; the arithmetic is the same
        rows = q.tolist()
        if fresh:  # an all-zero table: every greedy action is 0, worth 0.0
            first, top = [0] * len(rows), [0.0] * len(rows)
        else:
            first = [_first_max(row) for row in rows]
            top = [row[b] for row, b in zip(rows, first)]
        s = state["pos"][0] * _GRID + state["pos"][1]
        step = state["step"]
        episode = state["episode"]
        steps_in_episode = state["steps_in_episode"]

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
                if draws[i] < eps:
                    # a draw is below 1, so times 4 it is below 4: a move
                    action = int(draws[i + 1] * moves)
                    i += 2
                else:
                    action = first[s]
                    i += 1
                ns, reward, done = _TRANSITIONS[s][action]
                target = reward if done else reward + gamma * top[ns]
                row = rows[s]
                v = row[action]
                v += lr * (target - v)
                row[action] = v
                # keep first[s] the row's _first_max and top[s] the entry
                # there; NaN compares false with all, and a NaN entry stays NaN
                b = first[s]
                if action == b:
                    if v >= top[s] or v != v:
                        top[s] = v
                    else:  # the greedy entry fell, so the row holds no NaN
                        b = first[s] = row.index(max(row))
                        top[s] = row[b]
                elif v >= top[s]:
                    if v > top[s] or action < b:
                        first[s] = action
                        top[s] = v
                elif v != v and (action < b or top[s] == top[s]):
                    first[s] = action
                    top[s] = v
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
            "q": np.fromiter(itertools.chain.from_iterable(rows), q.dtype, q.size).reshape(
                q.shape),
            "rng": rng.bit_generator.state,
            "step": step,
            "episode": episode,
            "pos": divmod(s, _GRID),
            "steps_in_episode": steps_in_episode,
        }
        payload = pickle.dumps(state, protocol=4)
        if key is not None:
            if key not in self._trained and len(self._trained) >= _TRAINED_CAP:
                self._trained.clear()
            self._trained[key] = (step, payload)
        return -self._greedy_return(first), payload

    @staticmethod
    def _greedy_return(greedy: list[int]) -> float:
        """Greedy return of the policy that takes action ``greedy[s]`` in state ``s``."""
        seen = [False] * len(greedy)
        s = 0
        for length in range(1, _EPISODE_CAP + 1):
            if seen[s]:  # the policy and the grid are deterministic: a loop
                break
            seen[s] = True
            s, _, done = _TRANSITIONS[s][greedy[s]]
            if done:
                return _mean_return(length, True)
        return _mean_return(_EPISODE_CAP, False)

    def untrained_cost(self) -> float:
        return -self._greedy_return([0] * (_GRID * _GRID))


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
                fh.write(resume.payload)
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
            if not os.path.exists(ckpt_path):
                return cost, b""
            with open(ckpt_path, "rb") as fh:
                return cost, fh.read()
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
    """Build the objective ``spec`` describes for ``space``, when given: the
    space ``noisy_sphere`` and ``seeded_valley`` measure in, the one that holds
    ``gridworld_q``'s parameters, or whose names ``external_command`` checks."""
    if spec.kind not in _BUILTINS:
        raise ValueError(f"unknown objective kind {spec.kind!r}")
    try:
        return _BUILTINS[spec.kind](**spec.params, space=space)
    except TypeError as err:  # a parameter the objective does not take
        raise ValueError(f"bad parameters for objective {spec.kind!r}: {err}") from err
