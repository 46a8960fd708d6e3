"""Independent tabular Q-learning reference for the 5x5 gridworld objective.

Plain-dict implementation of the documented environment rules, used to
cross-check the packaged objective's learning dynamics and to freeze the
golden cost value. Shares only the random-stream derivation (so both walk the
same trajectory); everything else is written from the environment contract:
5x5 grid, start (0,0), goal (4,4), moves up/down/left/right with walls,
-0.01 per step, +1 on reaching the goal (terminal), 50-step episode cap,
per-episode epsilon decay, greedy ties to the lowest action index.

Two more references keep the objective's earlier numpy form, which runs the
same rules on an ``ndarray`` Q table with ``np.argmax`` and ``np.max`` (a NaN
entry is the maximum of its row): ``reference_greedy_return`` replays all 100
evaluation episodes, and ``numpy_reference_state`` returns the training state
a checkpoint holds.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

GRID = 5
ACTIONS = [(-1, 0), (1, 0), (0, -1), (0, 1)]
STEP_REWARD = -0.01
GOAL_REWARD = 1.0
CAP = 50


def derived_stream(*entropy) -> np.random.Generator:
    """The derivation written out: four little-endian 32-bit words from the
    sha256 of each item's text, as a list of Python ints."""
    words = []
    for item in entropy:
        h = hashlib.sha256(str(item).encode("utf-8")).digest()
        words.extend(int.from_bytes(h[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(words))


def training_stream(seed: int) -> np.random.Generator:
    return derived_stream("gridworld_q", "train", seed)


def _move(pos, action):
    nr = min(max(pos[0] + ACTIONS[action][0], 0), GRID - 1)
    nc = min(max(pos[1] + ACTIONS[action][1], 0), GRID - 1)
    done = (nr, nc) == (GRID - 1, GRID - 1)
    return (nr, nc), STEP_REWARD + (GOAL_REWARD if done else 0.0), done


def reference_cost(lr, epsilon, gamma, decay, budget, seed, total_steps=2000):
    rng = training_stream(seed)
    q = {(r, c): [0.0, 0.0, 0.0, 0.0] for r in range(GRID) for c in range(GRID)}
    pos = (0, 0)
    episode = 0
    steps_in_episode = 0
    for _ in range(math.ceil(budget * total_steps)):
        eps = epsilon * (decay**episode)
        if float(rng.random()) < eps:
            action = min(int(rng.random() * 4), 3)
        else:
            row = q[pos]
            action = row.index(max(row))
        nr = min(max(pos[0] + ACTIONS[action][0], 0), GRID - 1)
        nc = min(max(pos[1] + ACTIONS[action][1], 0), GRID - 1)
        done = (nr, nc) == (GRID - 1, GRID - 1)
        reward = STEP_REWARD + (GOAL_REWARD if done else 0.0)
        steps_in_episode += 1
        if done:
            target = reward
        else:
            target = reward + gamma * max(q[(nr, nc)])
        q[pos][action] += lr * (target - q[pos][action])
        if done or steps_in_episode >= CAP:
            pos = (0, 0)
            steps_in_episode = 0
            episode += 1
        else:
            pos = (nr, nc)

    total = 0.0
    for _ in range(100):
        pos = (0, 0)
        ep = 0.0
        for _ in range(CAP):
            row = q[pos]
            action = row.index(max(row))
            nr = min(max(pos[0] + ACTIONS[action][0], 0), GRID - 1)
            nc = min(max(pos[1] + ACTIONS[action][1], 0), GRID - 1)
            done = (nr, nc) == (GRID - 1, GRID - 1)
            ep += STEP_REWARD + (GOAL_REWARD if done else 0.0)
            if done:
                break
            pos = (nr, nc)
        total += ep
    return -(total / 100.0)


def reference_greedy_return(q: np.ndarray) -> float:
    """Mean return of the greedy policy over 100 episodes, each rolled out."""
    total = 0.0
    for _ in range(100):
        pos = (0, 0)
        ep = 0.0
        for _ in range(CAP):
            pos, reward, done = _move(pos, int(np.argmax(q[pos[0] * GRID + pos[1]])))
            ep += reward
            if done:
                break
        total += ep
    return total / 100


def numpy_reference_state(lr, epsilon, gamma, decay, budget, seed, total_steps=2000, start=None):
    """Training state after ``ceil(budget * total_steps)`` steps from scratch,
    or from the checkpoint state ``start`` when given."""
    if start is None:
        rng = training_stream(seed)
        q = np.zeros((GRID * GRID, len(ACTIONS)))
        pos = (0, 0)
        taken = episode = steps_in_episode = 0
    else:
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = start["rng"]
        q = start["q"].copy()
        pos = tuple(start["pos"])
        taken, episode, steps_in_episode = start["step"], start["episode"], start["steps_in_episode"]
    steps = math.ceil(budget * total_steps)
    with np.errstate(over="ignore", invalid="ignore"):  # a large lr overflows q
        for _ in range(steps - taken):
            s = pos[0] * GRID + pos[1]
            if float(rng.random()) < epsilon * (decay**episode):
                action = min(int(rng.random() * 4), 3)
            else:
                action = int(np.argmax(q[s]))
            nxt, reward, done = _move(pos, action)
            steps_in_episode += 1
            if done:
                target = reward
            else:
                target = reward + gamma * float(np.max(q[nxt[0] * GRID + nxt[1]]))
            q[s, action] += lr * (target - q[s, action])
            if done or steps_in_episode >= CAP:
                pos = (0, 0)
                steps_in_episode = 0
                episode += 1
            else:
                pos = nxt
    return {
        "q": q,
        "rng": rng.bit_generator.state,
        "step": steps,
        "episode": episode,
        "pos": pos,
        "steps_in_episode": steps_in_episode,
    }
