import hashlib
import json
import math
import os
import pickle
import stat
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import autotune.objectives as objectives_module
from autotune.objectives import (
    CheckpointHandle,
    EvaluationError,
    ExternalCommand,
    GridworldQ,
    NoisySphere,
    ObjectiveSpec,
    SeededValley,
    _derived_rng,
    _first_max,
    _seed_optimum,
    config_digest,
    make_objective,
)
from autotune.cli import _objective_spec
from autotune.journal import Journal
from autotune.rs import run_rs
from autotune.runner import TrialRunner
from autotune.space import (
    ConfigSpace,
    Configuration,
    continuous,
    from_unit,
    log_continuous,
    to_unit,
)

sys.path.insert(0, os.path.dirname(__file__))
from reference_q import (  # noqa: E402
    derived_stream,
    numpy_reference_state,
    reference_cost,
    reference_greedy_return,
    training_stream,
)

GOLDEN = json.load(open(os.path.join(os.path.dirname(__file__), "data", "gridworld_golden.json")))


# ---------------------------------------------------------------------------
# noisy_sphere


def test_sphere_cost_zero_at_optimum():
    obj = NoisySphere(dimension=3, noise=0.0)
    cfg = Configuration({"x0": 0.5, "x1": 0.5, "x2": 0.5})
    for budget in (0.1, 0.5, 1.0):
        cost, _ = obj.evaluate(cfg, budget, seed=4)
        assert cost == 0.0


def test_sphere_hand_value():
    obj = NoisySphere(dimension=2, noise=0.0)
    cfg = Configuration({"x0": 0.75, "x1": 0.25})
    cost, _ = obj.evaluate(cfg, 1.0, seed=0)
    assert cost == pytest.approx(0.125, abs=1e-15)  # (0.25)^2 + (-0.25)^2


def test_sphere_seed_shifted_optimum():
    obj = NoisySphere(dimension=2, noise=0.0, shift_sigma=0.2)
    for seed in range(3):
        z = obj.optimum(seed)
        cfg = from_unit(obj.space, z)
        cost, _ = obj.evaluate(cfg, 1.0, seed)
        assert cost < 1e-20


def test_sphere_noise_bounded_and_deterministic():
    obj = NoisySphere(dimension=2, noise=0.05)
    cfg = Configuration({"x0": 0.5, "x1": 0.5})
    costs = {obj.evaluate(cfg, 1.0, 7)[0] for _ in range(100)}
    assert len(costs) == 1
    assert abs(costs.pop()) <= 0.05


# ---------------------------------------------------------------------------
# seeded_valley


def test_valley_budget_penalty():
    obj = SeededValley(dimension=2, sigma=0.0, noise=0.0)
    cfg = Configuration({"x0": 0.5, "x1": 0.5})
    full, _ = obj.evaluate(cfg, 1.0, 0)
    half, _ = obj.evaluate(cfg, 0.5, 0)
    assert full == 0.0
    assert half == pytest.approx(0.25)  # (1 - 0.5) * 0.5


def test_valley_sigma_zero_minimizers_coincide():
    obj = SeededValley(dimension=3, sigma=0.0, noise=0.0)
    for seed in range(5):
        assert np.array_equal(obj.optimum(seed), np.full(3, 0.5))


def test_valley_optima_spread_with_sigma():
    obj = SeededValley(dimension=2, sigma=0.25, noise=0.0)
    opts = [obj.optimum(s) for s in range(5)]
    dists = [
        float(np.linalg.norm(a - b)) for i, a in enumerate(opts) for b in opts[i + 1 :]
    ]
    assert max(dists) >= 0.2


def test_valley_mean_over_seeds_at_least_best_single():
    obj = SeededValley(dimension=2, sigma=0.3, noise=0.0)
    cfg = Configuration({"x0": 0.5, "x1": 0.5})
    per_seed = [obj.evaluate(cfg, 1.0, s)[0] for s in range(5)]
    group = TrialRunner(obj, list(range(5))).evaluate_group(cfg, 1.0)
    assert group.per_seed_cost == per_seed
    assert group.mean_cost >= min(per_seed)
    assert group.mean_cost == pytest.approx(float(np.mean(per_seed)))


# ---------------------------------------------------------------------------
# the seed's optimum, computed once per (tag, seed, dimension)


def _fresh_seed_direction(tag, seed, dimension):
    rng = _derived_rng(tag, "shift", seed)
    v = rng.standard_normal(dimension)
    return v / float(np.linalg.norm(v))


def _fresh_seed_optimum(tag, seed, dimension, sigma):
    optimum = np.full(dimension, 0.5)
    if sigma != 0.0:
        optimum = optimum + sigma * _fresh_seed_direction(tag, seed, dimension)
    return optimum


def test_seed_optimum_is_cached_read_only_and_exact():
    keys = [("seeded_valley", 3, 2, 0.25), ("noisy_sphere", 3, 2, 0.25),
            ("seeded_valley", 3, 6, 0.25), ("seeded_valley", 3, 2, 0.0)]
    for key in keys:
        cached = _seed_optimum(*key)
        assert _seed_optimum(*key) is cached
        assert cached.tobytes() == _fresh_seed_optimum(*key).tobytes()
        with pytest.raises(ValueError):
            cached[0] = 0.0
        with pytest.raises(ValueError):
            cached += 1.0
        assert cached.tobytes() == _fresh_seed_optimum(*key).tobytes()


def test_seed_optimum_keys_do_not_share_entries():
    valley = _seed_optimum("seeded_valley", 5, 2, 0.25)
    assert not np.array_equal(valley, _seed_optimum("noisy_sphere", 5, 2, 0.25))
    assert not np.array_equal(valley, _seed_optimum("seeded_valley", 5, 2, 0.5))
    assert _seed_optimum("seeded_valley", 5, 3, 0.25).shape == (3,)
    # 1 == True, but the stream is keyed on their text
    one = _seed_optimum("seeded_valley", 1, 2, 0.25)
    assert not np.array_equal(one, _seed_optimum("seeded_valley", True, 2, 0.25))
    sphere = NoisySphere(dimension=2, noise=0.0, shift_sigma=0.25)
    assert not np.array_equal(SeededValley(dimension=2, sigma=0.25).optimum(5), sphere.optimum(5))


# ---------------------------------------------------------------------------
# sphere and valley costs, bit for bit against a formula written here


def reference_unit_cost(kind, space, config, budget, seed, sigma, noise):
    """||z - z*(s)||^2 [+ (1 - b) * 0.5 for the valley] + noise * eps(config, s)."""
    z = to_unit(space, config)
    dist2 = float(np.sum((z - _fresh_seed_optimum(kind, seed, len(z), sigma)) ** 2))
    eps = 2.0 * float(_derived_rng(kind, config_digest(config), seed).random()) - 1.0
    if kind == "seeded_valley":
        return dist2 + (1.0 - budget) * 0.5 + noise * eps
    return dist2 + noise * eps


MIXED_SPACE = ConfigSpace([continuous("x", -1.0, 2.0), log_continuous("lr", 1e-4, 1.0)])


@st.composite
def _unit_cases(draw):
    """(space, config, budget, seed, sigma, noise): the unit cube of 1 to 4
    dimensions, or a space with a shifted and a log parameter."""
    if draw(st.booleans()):
        space = ConfigSpace([continuous(f"x{i}", 0.0, 1.0) for i in range(draw(st.integers(1, 4)))])
    else:
        space = MIXED_SPACE
    values = {p.name: draw(st.floats(p.lower, p.upper)) for p in space.params}
    return (
        space,
        Configuration(values),
        draw(st.floats(0.0, 1.0, exclude_min=True)),
        draw(st.integers(0, 2**31)),
        draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 1.0)),
        draw(st.sampled_from([0.0, 0.1]) | st.floats(0.0, 1.0)),
    )


@settings(max_examples=150, deadline=None)
@given(_unit_cases())
def test_sphere_and_valley_costs_match_the_reference_bit_for_bit(case):
    space, config, budget, seed, sigma, noise = case
    sphere = NoisySphere(noise=noise, shift_sigma=sigma, space=space)
    valley = SeededValley(sigma=sigma, noise=noise, space=space)
    for kind, obj in (("noisy_sphere", sphere), ("seeded_valley", valley)):
        want = reference_unit_cost(kind, space, config, budget, seed, sigma, noise)
        for _ in range(2):  # the second call reuses the encoded configuration
            cost, payload = obj.evaluate(config, budget, seed)
            assert cost == want
            assert payload == b""


def test_each_objective_class_binds_its_own_evaluate():
    # the benchmark's tracer wraps ``evaluate`` in each class's own namespace
    for cls in (NoisySphere, SeededValley, GridworldQ):
        assert "evaluate" in vars(cls)


def test_optimum_is_the_uncached_value_and_writable_by_its_caller():
    obj = SeededValley(dimension=4, sigma=0.25, noise=0.0)
    want = np.full(4, 0.5) + 0.25 * _fresh_seed_direction("seeded_valley", 9, 4)
    first = obj.optimum(9)
    assert first.tobytes() == want.tobytes()
    first[:] = 0.0
    assert obj.optimum(9).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# stream derivation, and the valley's terms derived once per (config, seed)

_entropy_items = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, True, False, -1, 2**32, 2**64 + 3, 1.0, -0.0, "", "seeded_valley"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_entropy_items, min_size=1, max_size=4))
@example([0])
@example(["gridworld_q", "train", True])
@example(["seeded_valley", "0" * 64, -(2**40)])
def test_derived_rng_is_the_list_of_ints_derivation(entropy):
    got, want = _derived_rng(*entropy), derived_stream(*entropy)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(4).tobytes() == want.random(4).tobytes()


def _memo_objective(cls):
    if cls is SeededValley:
        return SeededValley(sigma=0.25, noise=0.1, space=MIXED_SPACE)
    return NoisySphere(shift_sigma=0.2, noise=0.1, space=MIXED_SPACE)


_mixed_configs = st.builds(
    lambda x, lr: Configuration({"x": x, "lr": lr}),
    st.floats(-1.0, 2.0) | st.sampled_from([0.0, -0.0]),
    st.floats(1e-4, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(
    cls=st.sampled_from([SeededValley, NoisySphere]),
    configs=st.lists(_mixed_configs, min_size=1, max_size=3),
    calls=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from([0.1, 0.5, 1.0]) | st.floats(0.0, 1.0, exclude_min=True),
            st.sampled_from([0, 1, True, 1.0, 7]),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_repeated_reordered_and_budget_varied_calls_give_a_fresh_instance_costs(
    cls, configs, calls
):
    obj = _memo_objective(cls)
    for i, budget, seed in calls:
        config = configs[i % len(configs)]
        cost, _ = obj.evaluate(config, budget, seed)
        want, _ = _memo_objective(cls).evaluate(
            Configuration(dict(config.values)), budget, seed
        )
        assert cost.hex() == want.hex()


@pytest.mark.parametrize("cls", [SeededValley, NoisySphere])
def test_terms_are_derived_once_per_config_and_seed(cls, monkeypatch):
    derived = []
    real = objectives_module._bounded_noise

    def counting(tag, digest, seed):
        derived.append((digest, seed))
        return real(tag, digest, seed)

    monkeypatch.setattr(objectives_module, "_bounded_noise", counting)
    obj = _memo_objective(cls)
    configs = [Configuration({"x": k / 3, "lr": 0.01}) for k in range(3)]
    for budget in (0.25, 1.0, 0.5):
        for config in configs:
            for seed in range(4):
                obj.evaluate(config, budget, seed)
    # an equal configuration in another object hits the same entries
    obj.evaluate(Configuration({"x": 0.0, "lr": 0.01}), 0.75, 2)
    assert len(derived) == len(set(derived)) == 12 == len(obj._terms)
    # the memo lives on the instance: another one derives the pair again
    _memo_objective(cls).evaluate(configs[0], 1.0, 0)
    assert len(derived) == 13


def test_seeds_and_zeros_that_compare_equal_never_share_a_memo_entry():
    zero, negative_zero = (Configuration({"x": v, "lr": 0.01}) for v in (0.0, -0.0))
    calls = [(zero, 1), (zero, True), (zero, 1.0), (negative_zero, 1)]
    for order in (calls, calls[::-1]):
        obj = _memo_objective(SeededValley)
        costs = [obj.evaluate(config, 0.5, seed)[0] for config, seed in order]
        fresh = [_memo_objective(SeededValley).evaluate(config, 0.5, seed)[0]
                 for config, seed in order]
        assert [c.hex() for c in costs] == [c.hex() for c in fresh]
        assert len(obj._terms) == 4 and len(set(costs)) == 4


def test_the_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(objectives_module, "_TERMS_CAP", 5)
    obj = _memo_objective(SeededValley)
    for k in range(23):
        config = Configuration({"x": k / 23, "lr": 0.01})
        for seed in range(3):
            cost = obj.evaluate(config, 1.0, seed)[0]
            assert 1 <= len(obj._terms) <= 5
            want = _memo_objective(SeededValley).evaluate(config, 1.0, seed)[0]
            assert cost.hex() == want.hex()


# the valley's noise draw and config digest, without per-call builders


def test_bounded_noise_is_the_generators_first_draw():
    configs = [Configuration({"x": k / 7, "name": "naïve ☃ gélu"[: k % 13], "on": k % 2 == 0})
               for k in range(50)]
    digests = [config_digest(c) for c in configs]
    seeds = [True, False, -1, -(2**31), -(2**70), 2**64, 2**64 + 1, 2**80, *range(-20, 80)]
    keys = [(tag, d, seed) for tag in ("seeded_valley", "noisy_sphere") for d in digests
            for seed in seeds]
    assert len(keys) >= 10_000
    for tag, digest, seed in keys:
        want = 2.0 * derived_stream(tag, digest, seed).random() - 1.0
        assert objectives_module._bounded_noise(tag, digest, seed).hex() == want.hex()


_digest_values = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, "", "gélu", "☃\u2028\x00"]),
    st.integers(), st.floats(), st.text(max_size=8),
)


@settings(max_examples=100, deadline=None)
@given(values=st.dictionaries(st.text(max_size=6), _digest_values, min_size=1, max_size=5))
def test_config_digest_is_the_compact_dumps_digest_from_every_thread(values):
    config = Configuration(values)
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    want = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda _: config_digest(config), range(16)))
    assert got == [want] * 16


def test_a_reordered_or_mutated_configuration_misses_the_valleys_slot():
    obj = SeededValley(sigma=0.25, noise=0.1, space=MIXED_SPACE)
    config = Configuration({"x": 0.25, "lr": 0.01})
    slot = obj._slot(config)
    assert obj._slot(config) is slot
    config.values["x"] = 0.5  # another value object under the same key
    assert obj._slot(config) is not slot
    slot = obj._slot(config)
    config.values.pop("x")
    config.values["x"] = 0.5  # the same objects, in another order
    assert obj._slot(config) is not slot
    other = Configuration(dict(config.values))
    slot = obj._slot(other)
    other.values["extra"] = 1  # one more key after the same ones
    assert obj._slot(other) is not slot
    slot = obj._slot(other)
    other.values["renamed"] = other.values.pop("extra")  # the same value under another key
    assert obj._slot(other) is not slot
    fresh = SeededValley(sigma=0.25, noise=0.1, space=MIXED_SPACE)
    for seed in range(3):
        want = fresh.evaluate(Configuration(dict(config.values)), 1.0, seed)[0]
        assert obj.evaluate(config, 1.0, seed)[0].hex() == want.hex()


# ---------------------------------------------------------------------------
# multi-seed groups: TrialRunner.evaluate_group


class FixedCosts:
    """Objective stub returning scripted per-seed costs."""

    name = "fixed"

    def __init__(self, by_seed):
        self.by_seed = by_seed

    def evaluate(self, config, budget, seed, resume=None):
        value = self.by_seed[seed]
        if value is None:
            raise EvaluationError(f"seed {seed} scripted to fail")
        return value, b""


def group(by_seed, seeds):
    return TrialRunner(FixedCosts(by_seed), seeds).evaluate_group(Configuration({"x": 1}), 1.0)


def test_multi_seed_mean():
    res = group({0: 100.0, 1: 200.0, 2: 300.0}, [0, 1, 2])
    assert res.mean_cost == 200.0
    assert res.per_seed_cost == [100.0, 200.0, 300.0]


def test_multi_seed_single():
    res = group({5: 42.0}, [5])
    assert res.mean_cost == 42.0 and res.per_seed_cost == [42.0]


def test_multi_seed_failure_fails_aggregate():
    res = group({0: 1.0, 1: None}, [0, 1])
    assert res.failed and res.mean_cost is None and res.cost == math.inf
    assert res.per_seed_cost == [1.0, None]


def test_multi_seed_rejects_bad_seed_lists():
    with pytest.raises(ValueError):
        group({0: 1.0}, [])
    with pytest.raises(ValueError):
        group({0: 1.0}, [0, 0])


def test_evaluate_resume_precondition():
    obj = NoisySphere(dimension=1, noise=0.0)
    cfg = Configuration({"x0": 0.5})
    _, payload = obj.evaluate(cfg, 0.5, 0)
    with pytest.raises(ValueError):  # not strictly past the checkpoint
        obj.evaluate(cfg, 0.5, 0, resume=CheckpointHandle(0.5, payload))
    with pytest.raises(ValueError):
        obj.evaluate(cfg, 1.5, 0)


# ---------------------------------------------------------------------------
# gridworld_q


def golden_config():
    return Configuration(dict(GOLDEN["config"]))


def test_gridworld_matches_independent_reference_and_golden():
    obj = GridworldQ(total_steps=GOLDEN["total_steps"])
    cfg = golden_config()
    for case in GOLDEN["cases"]:
        cost, _ = obj.evaluate(cfg, case["budget"], case["seed"])
        ref = reference_cost(
            cfg["learning_rate"], cfg["epsilon"], cfg["gamma"], cfg["epsilon_decay"],
            case["budget"], case["seed"], total_steps=GOLDEN["total_steps"],
        )
        assert cost == ref
        assert cost == case["cost"]


# sha256 of each golden case's checkpoint payload, written when training still
# updated an ndarray in place; pickles name numpy's module path, which numpy 2
# moved, so the digests hold from numpy 2 on
GOLDEN_CHECKPOINT_SHA256 = [
    "e62a38da49970822c59e5396912077809a5c2694fc4400e891ad0c401577b47d",
    "637ae123e0e429f7b65aac5f83abb9b328ace9b0714d49485b71b80f0ed1242d",
    "eefabf7d2b9b30ea8adf2adab502cc25798cb9b501a1c3f16452b75d01a618b6",
]


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="digests of numpy 2 pickles"
)
def test_gridworld_golden_checkpoint_payloads_are_frozen():
    obj = GridworldQ(total_steps=GOLDEN["total_steps"])
    for case, digest in zip(GOLDEN["cases"], GOLDEN_CHECKPOINT_SHA256, strict=True):
        _, payload = obj.evaluate(golden_config(), case["budget"], case["seed"])
        assert hashlib.sha256(payload).hexdigest() == digest


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["learning_rate", "epsilon", "gamma", "epsilon_decay"])
def test_gridworld_rejects_non_finite_hyperparameters(name, value):
    values = dict(GOLDEN["config"])
    values[name] = value
    with pytest.raises(EvaluationError, match="invalid gridworld_q configuration"):
        GridworldQ(total_steps=50).evaluate(Configuration(values), 1.0, 0)


@pytest.mark.parametrize("value", [20.7, math.inf, -math.inf, math.nan, True, False, "20.5"])
def test_gridworld_refuses_a_total_steps_that_is_not_a_whole_number(value):
    with pytest.raises(ValueError, match="total_steps must be a whole number"):
        GridworldQ(total_steps=value)


def test_gridworld_takes_a_whole_total_steps_of_any_type():
    for value in (300, 300.0, np.int64(300), np.float64(300.0), "300"):
        steps = GridworldQ(total_steps=value).total_steps
        assert type(steps) is int and steps == 300


_SPECIAL = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, -math.nan]
_entries = st.one_of(st.sampled_from(_SPECIAL), st.floats(-2.0, 2.0))


@st.composite
def _q_tables(draw):
    """Tables whose greedy path runs down and right to the goal, overwritten
    in a few places: a tie, a zero row, a NaN or an infinity on the path then
    decides the return."""
    q = np.zeros((25, 4))
    for s in range(25):
        q[s, draw(st.sampled_from([1, 3]))] = 1.0
    for s, a, v in draw(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 3), _entries))):
        q[s, a] = v
    return q


@settings(max_examples=500, deadline=None)
@given(st.lists(_entries, min_size=4, max_size=4))
def test_first_max_picks_what_argmax_picks(row):
    assert _first_max(row) == int(np.argmax(row))


_finite_or_inf = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]) | st.floats(
    -2.0, 2.0, allow_nan=False
)


@settings(max_examples=500, deadline=None)
@example([-0.0, 0.0, -1.0, -0.0])
@example([0.0, -0.0, 0.0, 0.0])
@example([-math.inf] * 4)
@example([1.0, math.inf, 2.0, math.inf])
@given(st.lists(_finite_or_inf, min_size=4, max_size=4))
def test_index_of_max_is_first_max_on_rows_without_nan(row):
    # the pick and the bootstrap value training and evaluation use on NaN-free tables
    i = _first_max(row)
    assert row.index(max(row)) == i
    assert max(row).hex() == row[i].hex()  # the sign of a zero too


def _cycle(*steps):
    """Zero table whose greedy policy takes (state, action) ``steps``."""
    q = np.zeros((25, 4))
    for s, a in steps:
        q[s, a] = 1.0
    return q


@settings(max_examples=100, deadline=None)
@example(np.zeros((25, 4)))  # up from the start, into the wall, for 50 steps
@example(_cycle((0, 3), (1, 2)))  # right, left, right, ...
@example(_cycle((0, 3), (1, 1), (6, 2), (5, 0)))  # a loop through four states
# down the left edge, then along the bottom to the goal in 8 steps
@example(_cycle((0, 1), (5, 1), (10, 1), (15, 1), (20, 3), (21, 3), (22, 3), (23, 3)))
@given(_q_tables())
def test_greedy_return_matches_the_100_episode_reference(q):
    got = GridworldQ._greedy_return([_first_max(r) for r in q.tolist()])
    assert got.hex() == reference_greedy_return(q).hex()


_unit = st.floats(0.0, 1.0)
_budgets = st.floats(1e-3, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(_unit, _unit, _unit, _unit),
    _budgets,
    st.floats(0.01, 0.99),
    st.integers(0, 2**31 - 1),
    st.integers(1, 2000),
)
def test_gridworld_matches_reference_inside_default_space(unit, budget, split, seed, total):
    obj = GridworldQ(total_steps=total)
    cfg = from_unit(obj.space, np.array(unit))
    want = reference_cost(
        cfg["learning_rate"], cfg["epsilon"], cfg["gamma"], cfg["epsilon_decay"],
        budget, seed, total_steps=total,
    )
    cost, payload = obj.evaluate(cfg, budget, seed)
    assert cost.hex() == want.hex()
    _, part = obj.evaluate(cfg, budget * split, seed)
    resumed, resumed_payload = obj.evaluate(
        cfg, budget, seed, resume=CheckpointHandle(budget * split, part)
    )
    assert resumed.hex() == want.hex()
    assert resumed_payload == payload


@settings(max_examples=40, deadline=None)
@example(100.0, 0.5, 0.9, 0.99, 1.0, 3, 600)  # NaN entries whose sign bits differ
@given(
    st.floats(2.0, 1e3),
    _unit,
    st.floats(0.5, 0.999),
    st.floats(0.9, 1.0),
    _budgets,
    st.integers(0, 2**31 - 1),
    st.integers(1, 600),
)
def test_divergent_q_tables_match_numpy_training(lr, epsilon, gamma, decay, budget, seed, total):
    """lr > 1 (outside every shipped space) can overflow the table to NaN.
    The sign bit of a NaN entry may differ from numpy training: on a row
    holding a NaN, ``np.max`` returns a NaN whose sign depends on where the
    NaN sits, and numpy and Python keep different operands' NaNs when adding
    two. Every other bit of the state, and the cost, match."""
    cfg = Configuration(
        {"learning_rate": lr, "epsilon": epsilon, "gamma": gamma, "epsilon_decay": decay}
    )
    cost, payload = GridworldQ(total_steps=total).evaluate(cfg, budget, seed)
    got = pickle.loads(payload)
    want = numpy_reference_state(lr, epsilon, gamma, decay, budget, seed, total)
    got_q, want_q = got.pop("q"), want.pop("q")
    assert got_q.dtype == want_q.dtype
    assert np.array_equal(got_q, want_q, equal_nan=True)
    assert got == want
    assert cost.hex() == (-reference_greedy_return(want_q)).hex()


# the training kernel draws its uniforms in blocks, fixes epsilon per episode
# and keeps each row's greedy pick across writes, NaN or not; each must give
# the bits of one scalar draw, one epsilon and one ``_first_max`` per step


def test_a_block_of_draws_is_the_scalar_draws_in_turn():
    for seed in (0, 7):
        block, scalar = training_stream(seed), training_stream(seed)
        assert block.random(5000).tolist() == [scalar.random() for _ in range(5000)]
        assert block.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize(
    "epsilon, decay",
    [(0.5, 0.999), (1.0, 1.0), (0.0, 1.0)],  # explore often, always (two draws), never
)
def test_training_across_several_draw_blocks_matches_the_references(epsilon, decay):
    # 12,000 steps take 12,000 to 24,000 draws: several blocks of at most 4,096
    total, seed = 12_000, 4
    values = {"learning_rate": 0.2, "epsilon": epsilon, "gamma": 0.95, "epsilon_decay": decay}
    cfg = Configuration(values)
    obj = GridworldQ(total_steps=total)
    cost, payload = obj.evaluate(cfg, 1.0, seed)
    assert cost == reference_cost(0.2, epsilon, 0.95, decay, 1.0, seed, total_steps=total)
    got = pickle.loads(payload)
    want = numpy_reference_state(0.2, epsilon, 0.95, decay, 1.0, seed, total)
    assert got.pop("q").tobytes() == want.pop("q").tobytes()
    assert got == want
    _, part = obj.evaluate(cfg, 0.37, seed)
    assert obj.evaluate(cfg, 1.0, seed, resume=CheckpointHandle(0.37, part))[1] == payload


def test_a_resume_chain_leaves_the_scalar_loops_stream_state():
    cfg = golden_config()
    values = [cfg[k] for k in ("learning_rate", "epsilon", "gamma", "epsilon_decay")]
    obj = GridworldQ(total_steps=5000)
    resume = None
    for budget in (0.013, 0.4, 0.41, 1.0):
        _, payload = obj.evaluate(cfg, budget, 6, resume=resume)
        resume = CheckpointHandle(budget, payload)
        got = pickle.loads(payload)
        want = numpy_reference_state(*values, budget, 6, 5000)
        assert got["rng"] == want["rng"]
        assert got["step"] == want["step"]


def test_epsilon_overflow_fails_at_the_step_the_scalar_loop_fails():
    # the third episode's epsilon overflows: a run that ends before its first
    # step succeeds, one that takes that step fails
    cfg = Configuration(
        {"learning_rate": 0.1, "epsilon": 0.5, "gamma": 0.9, "epsilon_decay": 1e200}
    )
    outcomes = set()
    for total in range(1, 160):
        try:
            numpy_reference_state(0.1, 0.5, 0.9, 1e200, 1.0, 0, total)
            want = "ok"
        except OverflowError:
            want = "overflow"
        try:
            GridworldQ(total_steps=total).evaluate(cfg, 1.0, 0)
            got = "ok"
        except EvaluationError:
            got = "overflow"
        assert got == want, total
        outcomes.add(got)
    assert outcomes == {"ok", "overflow"}


# lr 1000 on seed 3 over 600 steps: the first NaN enters the table at step 315
NAN_CONFIG = {"learning_rate": 1000.0, "epsilon": 0.5, "gamma": 0.9, "epsilon_decay": 0.99}
# sha256 of that run's checkpoint, fresh or resumed, as the scalar loop wrote it
NAN_RUN_SHA256 = "3243ddb05e0eda3f009318b86c283dea6a69720e57fca174abd198634f6e3737"


@pytest.mark.parametrize(
    "split, resumed",
    [(None, False), (0.5, True), (2 / 3, True), (0.5, False)],
    ids=["fresh", "nan-mid-call", "nan-resumed", "nan-continued"],
)
def test_nan_and_finite_tables_train_through_one_greedy_rule(split, resumed):
    # the full run in one call, resumed from a checkpoint taken before or
    # after the first NaN, or continued from the instance's memo of the 0.5 run
    cfg = Configuration(NAN_CONFIG)
    obj = GridworldQ(total_steps=600)
    resume = None
    if split is not None:
        _, part = obj.evaluate(cfg, split, 3)
        assert np.isnan(pickle.loads(part)["q"]).any() == (split > 315 / 600)
        resume = CheckpointHandle(split, part) if resumed else None
    cost, payload = obj.evaluate(cfg, 1.0, 3, resume=resume)
    got = pickle.loads(payload)
    want = numpy_reference_state(1000.0, 0.5, 0.9, 0.99, 1.0, 3, 600)
    got_q, want_q = got.pop("q"), want.pop("q")
    assert np.isnan(got_q).any()
    assert np.array_equal(got_q, want_q, equal_nan=True)  # NaN sign bits may differ
    assert got == want
    assert cost.hex() == (-reference_greedy_return(want_q)).hex()
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":  # digests of numpy 2 pickles
        assert hashlib.sha256(payload).hexdigest() == NAN_RUN_SHA256


def test_fresh_streams_are_kept_per_seed_text():
    # the stream is keyed on the seed's text, so 1 and True train apart
    cfg = golden_config()
    obj = GridworldQ(total_steps=300)
    for seed in (1, True, 1, True):
        _, payload = obj.evaluate(cfg, 0.5, seed)
        assert payload == GridworldQ(total_steps=300).evaluate(cfg, 0.5, seed)[1]
    assert obj.evaluate(cfg, 0.5, 1)[1] != obj.evaluate(cfg, 0.5, True)[1]


def test_gridworld_zero_learning_rate_never_improves():
    obj = GridworldQ(total_steps=400)
    cfg = Configuration(
        {"learning_rate": 0.0, "epsilon": 0.3, "gamma": 0.9, "epsilon_decay": 0.99}
    )
    untrained = obj.untrained_cost()
    assert untrained == GOLDEN["untrained_cost"]
    for budget in (0.1, 0.5, 1.0):
        cost, _ = obj.evaluate(cfg, budget, seed=3)
        assert cost == untrained


def test_gridworld_epsilon_decay_overflow_fails_the_trial_only():
    # 1e200**2 overflows a float, so the third episode's epsilon raises
    cfg = Configuration(
        {"learning_rate": 0.1, "epsilon": 0.5, "gamma": 0.9, "epsilon_decay": 1e200}
    )
    with pytest.raises(EvaluationError, match="overflows"):
        GridworldQ(total_steps=500).evaluate(cfg, 1.0, seed=0)

    from autotune.runner import TrialRunner

    runner = TrialRunner(GridworldQ(total_steps=500), seeds=[0, 1])
    failed = runner.evaluate_group(cfg, 1.0)
    assert failed.failed and failed.per_seed_cost == [None, None]
    assert all("overflows" in t["error"] for t in runner.journal.of_type("trial"))
    assert not runner.evaluate_group(golden_config(), 1.0).failed


def test_gridworld_determinism():
    obj = GridworldQ(total_steps=500)
    cfg = golden_config()
    costs = {obj.evaluate(cfg, 1.0, 2)[0] for _ in range(20)}
    assert len(costs) == 1


def test_gridworld_continuation_consistency():
    obj = GridworldQ(total_steps=600)
    cfg = golden_config()
    fresh, fresh_payload = obj.evaluate(cfg, 1.0, 5)
    for split in (0.2, 0.5, 0.85):
        _, part = obj.evaluate(cfg, split, 5)
        resumed, resumed_payload = obj.evaluate(cfg, 1.0, 5, resume=CheckpointHandle(split, part))
        assert resumed == fresh  # bit-identical continuation
        assert resumed_payload == fresh_payload


def test_synthetic_continuation_consistency():
    for obj in (NoisySphere(dimension=2, noise=0.1), SeededValley(dimension=2)):
        cfg = Configuration({"x0": 0.3, "x1": 0.8})
        fresh, _ = obj.evaluate(cfg, 1.0, 9)
        _, part = obj.evaluate(cfg, 0.4, 9)
        resumed, _ = obj.evaluate(cfg, 1.0, 9, resume=CheckpointHandle(0.4, part))
        assert resumed == fresh


# a call without ``resume`` continues the latest such call of the same
# hyperparameters and seed, when that one trained no more steps; it must give
# a fresh instance's cost and payload, or fail as a fresh instance fails


def _outcome(obj, cfg, budget, seed):
    try:
        cost, payload = obj.evaluate(cfg, budget, seed)
    except EvaluationError as err:
        return "failed", str(err)
    return cost.hex(), payload


def _gridworld_config(lr, epsilon, gamma, decay):
    return Configuration(
        {"learning_rate": lr, "epsilon": epsilon, "gamma": gamma, "epsilon_decay": decay}
    )


_continued_configs = st.one_of(
    st.tuples(_unit, _unit, _unit, _unit).map(lambda u: from_unit(GridworldQ.space, np.array(u))),
    # divergent tables, which can hold NaN
    st.builds(_gridworld_config, st.floats(2.0, 1e3), _unit, st.floats(0.5, 1.0),
              st.floats(0.9, 1.0)),
    # never explores, or bootstraps undiscounted
    st.builds(_gridworld_config, st.floats(1e-3, 1.0), st.just(0.0), st.floats(0.5, 1.0),
              st.floats(0.9, 1.0)),
    st.builds(_gridworld_config, st.floats(1e-3, 1.0), _unit, st.just(1.0),
              st.floats(0.9, 1.0)),
    # epsilon_decay**episode overflows within a few episodes
    st.builds(_gridworld_config, st.floats(1e-3, 1.0), st.floats(0.01, 1.0),
              st.floats(0.5, 1.0), st.sampled_from([1e100, 1e200])),
)


@settings(max_examples=60, deadline=None)
@example(Configuration(NAN_CONFIG), [0.3, 0.6, 1.0, 1.0, 0.5, 0.9], 3, 600)  # NaN at step 315
@example(_gridworld_config(0.1, 0.5, 0.9, 1e200), [0.2, 0.5, 1.0, 0.1, 1.0], 0, 160)
@example(_gridworld_config(0.3, 0.0, 1.0, 0.95), [0.1, 0.1, 0.7, 0.4, 1.0], 9, 300)
@given(
    _continued_configs,
    st.lists(st.sampled_from([0.1, 0.5, 1.0]) | _budgets, min_size=2, max_size=6),
    st.integers(0, 2**31 - 1),
    st.integers(1, 600),
)
def test_calls_at_any_budgets_on_one_instance_give_a_fresh_instances_outcomes(
    cfg, budgets, seed, total
):
    obj = GridworldQ(total_steps=total)
    for budget in budgets:
        fresh = GridworldQ(total_steps=total)
        assert _outcome(obj, cfg, budget, seed) == _outcome(fresh, cfg, budget, seed)


def test_a_higher_budget_trains_on_from_the_latest_lower_one(monkeypatch):
    started = []
    real = GridworldQ._fresh_state
    monkeypatch.setattr(GridworldQ, "_fresh_state",
                        lambda obj, seed: started.append(seed) or real(obj, seed))
    obj, cfg = GridworldQ(total_steps=500), golden_config()
    for budget in (0.1, 0.3, 0.3, 1.0):  # up, again, up: one run
        obj.evaluate(cfg, budget, 4)
    assert started == [4]
    obj.evaluate(cfg, 0.2, 4)  # fewer steps than the memo holds: from step 0
    obj.evaluate(cfg, 0.5, 4)
    obj.evaluate(cfg, 0.5, True)  # another seed's text: its own run
    other = Configuration({**cfg.values, "gamma": math.nextafter(cfg["gamma"], 1.0)})
    obj.evaluate(other, 1.0, 4)  # one bit apart: its own run
    assert started == [4, 4, True, 4]
    _, part = obj.evaluate(cfg, 0.1, 5)
    # a resume neither reads nor fills the memo
    obj.evaluate(cfg, 0.6, 5, resume=CheckpointHandle(0.1, part))
    obj.evaluate(cfg, 0.7, 5)
    assert started == [4, 4, True, 4, 5]
    # the latest step count of (cfg, 4), (cfg, True), (other, 4) and (cfg, 5)
    assert [steps for steps, _ in obj._trained.values()] == [250, 250, 500, 350]


def test_the_trained_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(objectives_module, "_TRAINED_CAP", 5)
    obj = GridworldQ(total_steps=200)
    rng = np.random.default_rng(3)
    for _ in range(11):
        cfg = from_unit(obj.space, rng.random(4))
        for seed in range(3):
            for budget in (0.2, 0.6):
                got = _outcome(obj, cfg, budget, seed)
                assert 1 <= len(obj._trained) <= 5
                assert got == _outcome(GridworldQ(total_steps=200), cfg, budget, seed)


_table_entries = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -0.01])


@settings(max_examples=60, deadline=None)
@example(np.zeros(100).tolist(), 0, 0, 0, 0.3)
@example([-0.0, 0.0, 0.0, -0.0] * 25, 7, 3, 12, 0.0)
@given(
    st.lists(_table_entries, min_size=100, max_size=100),
    st.integers(0, 24),  # the state the run stands in
    st.integers(0, 40),  # episode
    st.integers(0, 49),  # steps taken in it
    st.sampled_from([0.0, 0.3, 1.0]),  # epsilon
)
def test_a_resumed_table_with_ties_and_signed_zeros_trains_as_numpy_does(
    entries, pos, episode, steps_in_episode, epsilon
):
    # the greedy lists start from a scan of the resumed rows
    total, seed = 400, 6
    start = {
        "q": np.array(entries).reshape(25, 4),
        "rng": training_stream(seed).bit_generator.state,
        "step": 120,
        "episode": episode,
        "pos": divmod(pos, 5),
        "steps_in_episode": steps_in_episode,
    }
    resume = CheckpointHandle(trained_fraction=0.3, payload=pickle.dumps(start, protocol=4))
    cost, payload = GridworldQ(total_steps=total).evaluate(
        _gridworld_config(0.5, epsilon, 0.9, 0.99), 0.75, seed, resume=resume
    )
    got = pickle.loads(payload)
    want = numpy_reference_state(0.5, epsilon, 0.9, 0.99, 0.75, seed, total, start=start)
    assert got.pop("q").tobytes() == want["q"].tobytes()
    assert cost.hex() == (-reference_greedy_return(want.pop("q"))).hex()
    assert got == want


# ---------------------------------------------------------------------------
# external_command


def _write_script(tmp_path, body: str) -> str:
    path = tmp_path / "objective.py"
    path.write_text(body)
    return f"{sys.executable} {path}"


def test_external_command_reads_env_and_reports_cost(tmp_path):
    cmd = _write_script(
        tmp_path,
        "import os\n"
        "x = float(os.environ['X'])\n"
        "b = float(os.environ['AUTOTUNE_BUDGET'])\n"
        "s = int(os.environ['AUTOTUNE_SEED'])\n"
        "print('log line')\n"
        "print(f'cost={(x - 0.25) ** 2 + (1 - b) * 0.1 + s * 0.0}')\n",
    )
    space = ConfigSpace([continuous("x", 0.0, 1.0)])
    obj = ExternalCommand(cmd)
    cost, payload = obj.evaluate(Configuration({"x": 0.75}), 0.5, 3)
    assert cost == pytest.approx(0.25 + 0.05)
    assert payload == b""  # the command wrote no checkpoint


def test_external_command_checkpoint_round_trip(tmp_path):
    cmd = _write_script(
        tmp_path,
        "import os\n"
        "p = os.environ['AUTOTUNE_CHECKPOINT']\n"
        "n = 0\n"
        "if os.path.exists(p):\n"
        "    n = int(open(p).read())\n"
        "open(p, 'w').write(str(n + 1))\n"
        "print(f'cost={float(n)}')\n",
    )
    space = ConfigSpace([continuous("x", 0.0, 1.0)])
    obj = ExternalCommand(cmd)
    cost0, payload = obj.evaluate(Configuration({"x": 0.5}), 0.5, 0)
    assert cost0 == 0.0
    assert payload == b"1"
    resume = CheckpointHandle(0.5, payload)
    cost1, payload = obj.evaluate(Configuration({"x": 0.5}), 1.0, 0, resume=resume)
    assert cost1 == 1.0
    assert payload == b"2"


def test_external_command_nonzero_exit_fails_with_output(tmp_path):
    cmd = _write_script(tmp_path, "import sys\nprint('boom')\nsys.exit(3)\n")
    obj = ExternalCommand(cmd)
    with pytest.raises(EvaluationError) as err:
        obj.evaluate(Configuration({"x": 0.5}), 1.0, 0)
    assert "status 3" in str(err.value)
    assert "boom" in err.value.output


def test_external_command_malformed_cost_fails(tmp_path):
    cmd = _write_script(tmp_path, "print('cost=not-a-number')\n")
    obj = ExternalCommand(cmd)
    with pytest.raises(EvaluationError, match="malformed cost"):
        obj.evaluate(Configuration({"x": 0.5}), 1.0, 0)
    cmd2 = _write_script(tmp_path, "print('no cost line here')\n")
    obj2 = ExternalCommand(cmd2)
    with pytest.raises(EvaluationError, match="cost="):
        obj2.evaluate(Configuration({"x": 0.5}), 1.0, 0)


def test_external_command_timeout_fails_with_output():
    obj = ExternalCommand(
        "sh -c 'echo started; exec sleep 5'",
        timeout=0.2,
    )
    t0 = time.perf_counter()
    with pytest.raises(EvaluationError, match=r"timed out after 0\.2 s") as err:
        obj.evaluate(Configuration({"x": 0.5}), 1.0, 0)
    assert time.perf_counter() - t0 < 4.0
    assert "started" in err.value.output


def test_external_command_timeout_fails_the_trial_and_the_run_goes_on():
    # configurations with x < 0.5 sleep past the timeout; the others report x
    cmd = "sh -c 'case \"$X\" in 0.[0-4]*) exec sleep 5;; esac; echo cost=$X'"
    space = ConfigSpace([continuous("x", 0.0, 1.0)])
    journal = Journal()
    journal.write_header({"method": "rs"})
    obj = ExternalCommand(cmd, timeout=0.2)
    run = run_rs(space, TrialRunner(obj, [0], journal=journal), np.random.default_rng(0),
                 n_configs=6)
    trials = journal.of_type("trial")
    slow = [t for t in trials if t["config"]["x"] < 0.5]
    assert len(trials) == 6 and slow and len(slow) < 6
    for t in trials:
        if t in slow:
            assert t["status"] == "failed" and "timed out" in t["error"]
        else:
            assert t["cost"] == t["config"]["x"]
    assert run.incumbent_cost == min(t["config"]["x"] for t in trials if t not in slow)
    assert journal.is_complete()


def test_external_command_takes_a_positive_timeout_from_its_spec():
    spec = ObjectiveSpec("external_command", {"command": "echo cost=1", "timeout": 2})
    assert make_objective(spec).timeout == 2.0
    assert ExternalCommand("echo cost=1").timeout is None
    for bad in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="timeout"):
            ExternalCommand("echo cost=1", timeout=bad)


# ---------------------------------------------------------------------------
# registry


def test_make_objective_round_trips_spec():
    space = ConfigSpace([continuous("x", 0.0, 1.0)])
    params = {"dimension": 3, "sigma": 0.1, "noise": 0.0}
    valley = make_objective(ObjectiveSpec("seeded_valley", params))
    assert isinstance(valley, SeededValley)
    assert (valley.dimension, valley.sigma, valley.noise) == (3, 0.1, 0.0)
    assert valley.space.dimension == 3
    sphere = make_objective(ObjectiveSpec("noisy_sphere", {"shift_sigma": 0.2}), space=space)
    assert type(sphere) is NoisySphere
    assert (sphere.space, sphere.dimension, sphere.sigma, sphere.noise) == (space, 1, 0.2, 0.1)
    wider = ConfigSpace([*GridworldQ.space, *space])
    grid = make_objective(ObjectiveSpec("gridworld_q", {"total_steps": 50}), space=wider)
    assert grid.total_steps == 50 and grid.space is GridworldQ.space
    # each kind takes the parameters of its own constructor only
    with pytest.raises(ValueError, match="bad parameters for objective 'noisy_sphere'"):
        make_objective(ObjectiveSpec("noisy_sphere", {"sigma": 0.2}))


def test_an_objective_refuses_a_space_it_cannot_run_on():
    space = ConfigSpace([continuous("x", 0.0, 1.0), continuous("epsilon", 0.0, 1.0)])
    with pytest.raises(ValueError, match="reads learning_rate, gamma, epsilon_decay"):
        make_objective(ObjectiveSpec("gridworld_q"), space=space)
    for kind in ("seeded_valley", "noisy_sphere"):
        # the space sets the dimension; a given one was recorded, then ignored
        with pytest.raises(ValueError, match="dimension 5 given with a space of 2"):
            make_objective(ObjectiveSpec(kind, {"dimension": 5}), space=space)
        assert make_objective(ObjectiveSpec(kind, {"dimension": 5})).dimension == 5
        assert make_objective(ObjectiveSpec(kind), space=space).dimension == 2


def test_make_objective_cmd_prefix():
    # the command line turns ``cmd:<command>`` into an external_command spec
    spec = _objective_spec("cmd:echo cost=1.0", {"timeout": 2})
    assert spec == ObjectiveSpec("external_command", {"command": "echo cost=1.0", "timeout": 2})
    obj = make_objective(spec, space=ConfigSpace([continuous("x", 0, 1)]))
    assert isinstance(obj, ExternalCommand)
    assert (obj.command, obj.timeout) == ("echo cost=1.0", 2.0)


def test_make_objective_unknown_kind():
    for kind in ("nope", "cmd:echo cost=1"):  # the command line parses the cmd: form
        with pytest.raises(ValueError, match="unknown objective kind"):
            make_objective(ObjectiveSpec(kind))
