"""The paper's two claims, as a seeded regression suite through the
repetition path (``runs.run_repetition``):

* tuning on fewer seeds overfits them: the gap between a repetition's test
  mean and its tuning cost shrinks from 1 tuning seed to 5;
* at equal budget an HPO method (DEHB, and PBT with perturb exploration)
  beats random search on the test seeds.

Each claim is gated by an effect size, the difference of two means over
their pooled standard error, on every base seed. The base seeds and the
gates were fixed before the first run; a failing gate is a finding, not a
reason to pick other seeds; PBT's gates were fixed the same way when it
was added. DEHB plans whole iterations, so it spends less than its budget;
"equal budget" means a method never spends more, as every run's audit
checks, and each assertion message carries the mean spend the journals
record.
"""
import math
import os

import numpy as np
import pytest

from autotune.journal import Journal
from autotune.objectives import ObjectiveSpec
from autotune.protocol import MethodSpec, SeedPlan, audit
from autotune.runs import JOURNAL_NAME, run_repetition

SPACE_TEXT = "".join(f"x{i}: (0.0, 1.0)\n" for i in range(4))
OBJECTIVE = ObjectiveSpec("seeded_valley", {"sigma": 0.25, "noise": 0.05})
BUDGET = 16
TEST_SEEDS = range(100, 120)
REPETITIONS = 20
BASE_SEEDS = (3, 11, 29)
# each at its defaults: PBT explores by perturbing, its population sized to the budget
METHODS = {"rs": MethodSpec("rs"), "dehb": MethodSpec("dehb"), "pbt": MethodSpec("pbt")}
TUNING_SEED_COUNTS = (1, 5)
GATE = 3.0  # pooled standard errors


def runs(directory, method, tuning_seeds, base_seed):
    """``REPETITIONS`` repetitions of ``method``, each audited, as
    (test − tuning gaps, test means, mean journaled spend)."""
    plan = SeedPlan(range(tuning_seeds), TEST_SEEDS)
    gaps, tests, spends = [], [], []
    for rep in range(REPETITIONS):
        rep_dir = os.path.join(directory, f"{method}-{tuning_seeds}", f"rep{rep:03d}")
        result = run_repetition(
            rep_dir, METHODS[method], SPACE_TEXT, OBJECTIVE, plan, BUDGET,
            rng_seed=base_seed, repetition=rep,
        )
        verdicts = audit(Journal.load(os.path.join(rep_dir, JOURNAL_NAME)))
        assert all(v.holds for v in verdicts.values()), (rep_dir, verdicts)
        gaps.append(result.test_mean - result.tuning_cost)
        tests.append(result.test_mean)
        spends.append(result.spend)
    return np.array(gaps), np.array(tests), float(np.mean(spends))


def z_score(larger, smaller) -> float:
    """(mean(larger) − mean(smaller)) over their pooled standard error."""
    se2 = sum(np.var(x, ddof=1) / len(x) for x in (larger, smaller))
    return float((np.mean(larger) - np.mean(smaller)) / math.sqrt(se2))


@pytest.fixture(scope="module", params=BASE_SEEDS, ids=lambda s: f"base{s}")
def measured(request, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp(f"claims-{request.param}"))
    return {
        (method, n): runs(directory, method, n, request.param)
        for method in METHODS
        for n in TUNING_SEED_COUNTS
    }


@pytest.mark.parametrize("method", METHODS)
def test_one_tuning_seed_overfits_more_than_five(measured, method):
    (gap1, _, spend1), (gap5, _, spend5) = measured[method, 1], measured[method, 5]
    z = z_score(gap1, gap5)
    assert z > GATE, (
        f"{method}: 1-seed gap {gap1.mean():.4f}, 5-seed gap {gap5.mean():.4f}, z {z:.1f} "
        f"(spend {spend1:.2f} and {spend5:.2f} of {BUDGET} runs)"
    )


def beats_random_search(measured, method):
    (_, rs, rs_spend), (_, hpo, spend) = measured["rs", 5], measured[method, 5]
    z = z_score(rs, hpo)
    assert z > GATE, (
        f"5-seed test means: RS {rs.mean():.4f} (spend {rs_spend:.2f}), "
        f"{method.upper()} {hpo.mean():.4f} (spend {spend:.2f}), z {z:.1f}"
    )


def test_dehb_beats_random_search_on_the_test_seeds(measured):
    assert measured["dehb", 5][2] <= BUDGET
    beats_random_search(measured, "dehb")


def test_pbt_beats_random_search_on_the_test_seeds(measured):
    assert measured["pbt", 5][2] <= BUDGET
    beats_random_search(measured, "pbt")
