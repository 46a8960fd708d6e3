import json
import math
import os
import pickle
import stat
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autotune.objectives import (
    CheckpointHandle,
    EvaluationError,
    ExternalCommand,
    GridworldQ,
    NoisySphere,
    ObjectiveSpec,
    SeededValley,
    _first_max,
    evaluate,
    evaluate_multi_seed,
    make_objective,
)
from autotune.space import ConfigSpace, Configuration, continuous, from_unit

sys.path.insert(0, os.path.dirname(__file__))
from reference_q import (  # noqa: E402
    numpy_reference_state,
    reference_cost,
    reference_greedy_return,
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
        cfg = from_unit(obj.default_space(), z)
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
    mean, returned = evaluate_multi_seed(obj, cfg, 1.0, list(range(5)))
    assert returned == per_seed
    assert mean >= min(per_seed)
    assert mean == pytest.approx(float(np.mean(per_seed)))


# ---------------------------------------------------------------------------
# evaluate / evaluate_multi_seed contract


class FixedCosts:
    """Objective stub returning scripted per-seed costs."""

    name = "fixed"

    def __init__(self, by_seed):
        self.by_seed = by_seed

    def evaluate(self, config, budget, seed, resume=None):
        value = self.by_seed[seed]
        if value is None:
            raise EvaluationError(f"seed {seed} scripted to fail")
        return value, CheckpointHandle(key=f"fixed:{seed}", trained_fraction=budget, payload=b"")


def test_multi_seed_mean():
    obj = FixedCosts({0: 100.0, 1: 200.0, 2: 300.0})
    mean, per_seed = evaluate_multi_seed(obj, Configuration({"x": 1}), 1.0, [0, 1, 2])
    assert mean == 200.0
    assert per_seed == [100.0, 200.0, 300.0]


def test_multi_seed_single():
    obj = FixedCosts({5: 42.0})
    mean, per_seed = evaluate_multi_seed(obj, Configuration({"x": 1}), 1.0, [5])
    assert mean == 42.0 and per_seed == [42.0]


def test_multi_seed_failure_fails_aggregate():
    obj = FixedCosts({0: 1.0, 1: None})
    with pytest.raises(EvaluationError):
        evaluate_multi_seed(obj, Configuration({"x": 1}), 1.0, [0, 1])


def test_multi_seed_rejects_bad_seed_lists():
    obj = FixedCosts({0: 1.0})
    with pytest.raises(ValueError):
        evaluate_multi_seed(obj, Configuration({"x": 1}), 1.0, [])
    with pytest.raises(ValueError):
        evaluate_multi_seed(obj, Configuration({"x": 1}), 1.0, [0, 0])


def test_evaluate_resume_precondition():
    obj = NoisySphere(dimension=1, noise=0.0)
    cfg = Configuration({"x0": 0.5})
    _, ckpt = obj.evaluate(cfg, 0.5, 0)
    with pytest.raises(ValueError):
        evaluate(obj, cfg, 0.5, 0, resume=ckpt)  # not strictly past the checkpoint
    with pytest.raises(ValueError):
        evaluate(obj, cfg, 1.5, 0)


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
        _, ckpt = obj.evaluate(golden_config(), case["budget"], case["seed"])
        assert ckpt.digest() == digest


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["learning_rate", "epsilon", "gamma", "epsilon_decay"])
def test_gridworld_rejects_non_finite_hyperparameters(name, value):
    values = dict(GOLDEN["config"])
    values[name] = value
    with pytest.raises(EvaluationError, match="invalid gridworld_q configuration"):
        GridworldQ(total_steps=50).evaluate(Configuration(values), 1.0, 0)


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


@settings(max_examples=100, deadline=None)
@given(_q_tables())
def test_greedy_return_matches_the_100_episode_reference(q):
    assert GridworldQ._greedy_return(q).hex() == reference_greedy_return(q).hex()


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
    cfg = from_unit(obj.default_space(), np.array(unit))
    want = reference_cost(
        cfg["learning_rate"], cfg["epsilon"], cfg["gamma"], cfg["epsilon_decay"],
        budget, seed, total_steps=total,
    )
    cost, ckpt = obj.evaluate(cfg, budget, seed)
    assert cost.hex() == want.hex()
    _, part = obj.evaluate(cfg, budget * split, seed)
    resumed, resumed_ckpt = obj.evaluate(cfg, budget, seed, resume=part)
    assert resumed.hex() == want.hex()
    assert resumed_ckpt.load() == ckpt.load()


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
    cost, ckpt = GridworldQ(total_steps=total).evaluate(cfg, budget, seed)
    got = pickle.loads(ckpt.load())
    want = numpy_reference_state(lr, epsilon, gamma, decay, budget, seed, total)
    got_q, want_q = got.pop("q"), want.pop("q")
    assert got_q.dtype == want_q.dtype
    assert np.array_equal(got_q, want_q, equal_nan=True)
    assert got == want
    assert cost.hex() == (-reference_greedy_return(want_q)).hex()


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
    fresh, fresh_ckpt = obj.evaluate(cfg, 1.0, 5)
    for split in (0.2, 0.5, 0.85):
        part, ckpt = obj.evaluate(cfg, split, 5)
        resumed, resumed_ckpt = obj.evaluate(cfg, 1.0, 5, resume=ckpt)
        assert resumed == fresh  # bit-identical continuation
        assert resumed_ckpt.load() == fresh_ckpt.load()
        assert ckpt.trained_fraction == split


def test_synthetic_continuation_consistency():
    for obj in (NoisySphere(dimension=2, noise=0.1), SeededValley(dimension=2)):
        cfg = Configuration({"x0": 0.3, "x1": 0.8})
        fresh, _ = obj.evaluate(cfg, 1.0, 9)
        _, ckpt = obj.evaluate(cfg, 0.4, 9)
        resumed, _ = obj.evaluate(cfg, 1.0, 9, resume=ckpt)
        assert resumed == fresh


def test_gridworld_checkpoint_fraction_advances():
    obj = GridworldQ(total_steps=300)
    cfg = golden_config()
    _, c1 = obj.evaluate(cfg, 0.3, 0)
    _, c2 = obj.evaluate(cfg, 0.7, 0, resume=c1)
    assert c1.trained_fraction < c2.trained_fraction


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
    obj = ExternalCommand(cmd, space=space)
    cost, ckpt = obj.evaluate(Configuration({"x": 0.75}), 0.5, 3)
    assert cost == pytest.approx(0.25 + 0.05)
    assert ckpt.trained_fraction == 0.5


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
    obj = ExternalCommand(cmd, space=space)
    cost0, ckpt = obj.evaluate(Configuration({"x": 0.5}), 0.5, 0)
    assert cost0 == 0.0
    assert ckpt.load() == b"1"
    cost1, ckpt2 = obj.evaluate(Configuration({"x": 0.5}), 1.0, 0, resume=ckpt)
    assert cost1 == 1.0
    assert ckpt2.load() == b"2"


def test_external_command_nonzero_exit_fails_with_output(tmp_path):
    cmd = _write_script(tmp_path, "import sys\nprint('boom')\nsys.exit(3)\n")
    obj = ExternalCommand(cmd, space=ConfigSpace([continuous("x", 0.0, 1.0)]))
    with pytest.raises(EvaluationError) as err:
        obj.evaluate(Configuration({"x": 0.5}), 1.0, 0)
    assert "status 3" in str(err.value)
    assert "boom" in err.value.output


def test_external_command_malformed_cost_fails(tmp_path):
    cmd = _write_script(tmp_path, "print('cost=not-a-number')\n")
    obj = ExternalCommand(cmd, space=ConfigSpace([continuous("x", 0.0, 1.0)]))
    with pytest.raises(EvaluationError, match="malformed cost"):
        obj.evaluate(Configuration({"x": 0.5}), 1.0, 0)
    cmd2 = _write_script(tmp_path, "print('no cost line here')\n")
    obj2 = ExternalCommand(cmd2, space=ConfigSpace([continuous("x", 0.0, 1.0)]))
    with pytest.raises(EvaluationError, match="cost="):
        obj2.evaluate(Configuration({"x": 0.5}), 1.0, 0)


# ---------------------------------------------------------------------------
# registry


def test_make_objective_round_trips_spec():
    obj = make_objective("seeded_valley", dimension=3, sigma=0.1, noise=0.0)
    assert isinstance(obj, SeededValley)
    spec = obj.spec()
    again = make_objective(spec)
    assert again.spec() == spec


def test_make_objective_cmd_prefix():
    obj = make_objective("cmd:echo cost=1.0", space=ConfigSpace([continuous("x", 0, 1)]))
    assert isinstance(obj, ExternalCommand)
    assert obj.command == "echo cost=1.0"


def test_make_objective_unknown_kind():
    with pytest.raises(ValueError):
        make_objective("nope")
