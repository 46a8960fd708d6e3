"""Seed plans, method plans, band ranks and the one optimizer contract."""
import contextlib
import functools
import hashlib
import inspect
import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from autotune.budgets import ladder, rung_capacity
from autotune.dehb import run_dehb
from autotune.journal import Journal
from autotune.objectives import EvaluationError, SeededValley
from autotune.pbt import run_pbt
from autotune import dehb, pbt, protocol, rs
from autotune.protocol import MethodSpec, SeedPlan, audit, defaults, rank_methods, run_method
from autotune.rs import run_rs
from autotune.space import Configuration
from autotune.runner import GroupResult, NoIncumbentError, TrialRunner, TuneResult

# ---------------------------------------------------------------------------
# band ranks


def test_band_rank_shares_the_anchor_rank_inside_its_std_and_skips_ranks():
    # a anchors rank 1 and its band (mean - std = 8) takes b; c anchors the
    # next free rank, 1 + the two already ranked
    table = rank_methods({"env": {"a": (10.0, 2.0), "b": (8.5, 0.1), "c": (7.0, 3.0)}})
    assert [table.ranks[("env", m)] for m in "abc"] == [1, 1, 3]


def test_band_rank_uses_only_the_anchors_std():
    # a's narrow band leaves b out; b anchors rank 2, and its wide band takes c
    table = rank_methods({"env": {"a": (10.0, 0.5), "b": (9.0, 5.0), "c": (8.0, 0.0)}})
    assert [table.ranks[("env", m)] for m in "abc"] == [1, 2, 2]


def test_band_rank_lower_is_better_bands_upward():
    cells = {"env": {"a": (1.0, 0.5), "b": (1.4, 0.0), "c": (1.6, 0.0)}}
    table = rank_methods(cells, higher_is_better=False)
    assert [table.ranks[("env", m)] for m in "abc"] == [1, 1, 3]


def test_band_rank_ties_share_a_rank():
    table = rank_methods({"env": {"a": (3.0, 0.0), "b": (3.0, 0.0), "c": (2.0, 0.0)}})
    assert [table.ranks[("env", m)] for m in "abc"] == [1, 1, 3]


def test_mean_rank_averages_environments_and_rounds_to_one_decimal():
    cells = {
        "e1": {"a": (1.0, 0.0), "b": (0.0, 0.0)},
        "e2": {"a": (1.0, 0.0), "b": (0.0, 0.0)},
        "e3": {"a": (0.0, 0.0), "b": (1.0, 0.0)},
    }
    table = rank_methods(cells)
    assert table.mean_ranks == {"a": pytest.approx(4 / 3), "b": pytest.approx(5 / 3)}
    assert table.mean_rank_rounded("a") == 1.3 and table.mean_rank_rounded("b") == 1.7
    assert table.cells[("e3", "b")] == (1.0, 0.0)


@pytest.mark.parametrize("cell", [(math.nan, math.nan), (1.0, math.nan), (math.inf, 0.0)])
def test_rank_methods_rejects_a_non_finite_mean_or_std_by_name(cell):
    # a NaN mean once left every band without its own anchor, and the loop spun
    with pytest.raises(ValueError, match="env: b has no finite mean and std"):
        rank_methods({"env": {"a": (1.0, 0.0), "b": cell}}, higher_is_better=False)


def test_rank_methods_rejects_missing_cells_and_no_environments():
    with pytest.raises(ValueError, match="missing cell"):
        rank_methods({"e1": {"a": (1.0, 0.0), "b": (0.0, 0.0)}, "e2": {"a": (1.0, 0.0)}})
    with pytest.raises(ValueError, match="at least one environment"):
        rank_methods({})


# ---------------------------------------------------------------------------
# seed plans


def test_seed_plan_keeps_disjoint_seeds_as_int_tuples():
    plan = SeedPlan([0, 1, 2], np.arange(5, 8))
    assert plan.tuning_seeds == (0, 1, 2) and plan.test_seeds == (5, 6, 7)


@pytest.mark.parametrize(
    "tuning, test, message",
    [
        ([0, 1, 2], [2, 3], "overlap"),
        ([0, 0, 1], [5], "duplicates"),
        ([0, 1], [5, 6, 5], "duplicates"),
        ([], [5], "non-empty"),
        ([0], [], "non-empty"),
    ],
)
def test_seed_plan_rejects_overlapping_duplicate_or_empty_seeds(tuning, test, message):
    with pytest.raises(ValueError, match=message):
        SeedPlan(tuning, test)


# ---------------------------------------------------------------------------
# the audit: each rule holds, fails, or cannot be told from a journal

PLAN = {"seed_plan": {"tuning": [0, 1], "test": [5, 6]}, "budget_runs": 2}
# (purpose, seeds, spend) of a run that keeps the protocol; test groups are
# not tuning spend
KEPT = [("warmstart", [0], 0.5), ("tune", [0, 1], 1.0), ("test", [5], 1.0), ("test", [6], 1.0)]


def audited(groups, **header):
    """The audit of an in-memory journal of ``header`` and ``groups``."""
    journal = Journal()
    journal.write_header({"method": "rs", **header})
    for purpose, seeds, spend in groups:
        journal.append({"t": "group", "purpose": purpose, "seeds": seeds, "spend": spend})
    return audit(journal)


def test_audit_holds_on_a_run_that_keeps_the_protocol():
    verdicts = audited(KEPT, **PLAN)
    assert {rule: v.holds for rule, v in verdicts.items()} == {
        "tuning_seeds_only": True, "test_seeds_exactly": True, "within_budget": True}
    assert verdicts["within_budget"].evidence == "spent 1.5 <= 2 full-run equivalents"


def test_a_tune_group_on_a_test_seed_breaks_the_tuning_seed_rule():
    verdict = audited([*KEPT, ("tune", [5], 0.25)], **PLAN)["tuning_seeds_only"]
    assert verdict.holds is False
    assert verdict.evidence == "tuning groups ran on seeds [0, 1, 5]; the tuning seeds are [0, 1]"


def test_a_missing_or_extra_test_seed_breaks_the_test_seed_rule():
    verdict = audited(KEPT[:-1], **PLAN)["test_seeds_exactly"]
    assert verdict.holds is False
    assert verdict.evidence == "test groups ran on seeds [5]; the test seeds are [5, 6]"
    assert audited([*KEPT, ("test", [0], 1.0)], **PLAN)["test_seeds_exactly"].holds is False


def test_spend_over_budget_breaks_the_budget_rule_and_names_spend_and_budget():
    verdict = audited([*KEPT, ("tune", [0, 1], 1.0)], **PLAN)["within_budget"]
    assert verdict.holds is False
    assert verdict.evidence == "spent 2.5 > 2 full-run equivalents"


def test_the_audit_cannot_tell_without_a_seed_plan_or_a_budget():
    verdicts = audited(KEPT)
    assert {rule: (v.holds, v.evidence) for rule, v in verdicts.items()} == {
        "tuning_seeds_only": (None, "the header has no tuning seeds"),
        "test_seeds_exactly": (None, "the header has no test seeds"),
        "within_budget": (None, "the header has no budget_runs"),
    }


def test_the_test_seed_rule_cannot_tell_before_a_test_group_has_run():
    verdicts = audited(KEPT[:2], **PLAN)
    assert verdicts["test_seeds_exactly"].holds is None
    assert verdicts["tuning_seeds_only"].holds is True and verdicts["within_budget"].holds is True


# ---------------------------------------------------------------------------
# method plans


def test_plan_rejects_a_budget_below_one_full_run():
    for kind in ("rs", "dehb", "pbt"):
        with pytest.raises(ValueError, match="budget_runs must be >= 1"):
            MethodSpec(kind).plan(0)


def test_rs_plan_spends_one_run_per_configuration():
    assert MethodSpec("rs").plan(7) == {"n_configs": 7}
    assert MethodSpec("rs", options={"n_configs": 3}).plan(7) == {"n_configs": 3}
    with pytest.raises(ValueError, match="planned spend of 8 full runs exceeds the budget of 7"):
        MethodSpec("rs", options={"n_configs": 8}).plan(7)


def test_dehb_plan_fits_whole_iterations_into_the_budget():
    # rungs 0.25, 0.5, 1 with capacities 4, 2, 1: iterations spend 3, 2, 1
    spec = MethodSpec("dehb", options={"min_budget": 0.25, "eta": 2.0})
    assert spec.plan(6)["iterations"] == 3
    assert spec.plan(5)["iterations"] == 2
    assert spec.plan(3)["iterations"] == 1
    with pytest.raises(ValueError, match=r"less than one DEHB iteration \(3 full runs\)"):
        spec.plan(2)
    explicit = MethodSpec("dehb", options={"min_budget": 0.25, "eta": 2.0, "iterations": 3})
    assert explicit.plan(6)["iterations"] == 3
    with pytest.raises(ValueError, match="planned spend of 6 full runs exceeds the budget of 5"):
        explicit.plan(5)


def test_dehb_plan_defaults_to_the_eight_rung_ladder():
    opts = MethodSpec("dehb").plan(16)
    assert (opts["eta"], opts["min_budget"]) == (1.9, 0.01)
    assert len(ladder(0.01, 1.9)) == 8
    assert opts["iterations"] == 2  # 8 + 7 rungs fit in 16, a third iteration does not


def test_pbt_plan_spends_population_plus_warmstart():
    opts = MethodSpec("pbt").plan(8)
    assert opts["population_size"] == 8 and opts["warmstart_runs"] == 0
    assert MethodSpec("pbt", options={"warmstart_runs": 3}).plan(8)["population_size"] == 5
    with pytest.raises(ValueError, match="planned spend of 10 full runs"):
        MethodSpec("pbt", options={"population_size": 10}).plan(8)
    with pytest.raises(ValueError, match="planned spend of 2 full runs exceeds the budget of 1"):
        MethodSpec("pbt").plan(1)  # the population floor is 2


def test_method_spec_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown method kind"):
        MethodSpec("grid")


# ---------------------------------------------------------------------------
# the optimizer contract


@pytest.mark.parametrize("tuner", [run_rs, run_dehb, run_pbt])
def test_every_tuner_takes_space_runner_rng_and_keyword_settings(tuner):
    params = list(inspect.signature(tuner).parameters.values())
    assert [p.name for p in params[:3]] == ["space", "runner", "rng"]
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[3:])


def test_run_method_and_defaults_look_the_tuner_up_when_called(monkeypatch):
    # a tracer wraps the module attribute; a tuner held elsewhere would skip it
    calls = []

    @functools.wraps(run_dehb)
    def traced(*args, **kwargs):
        calls.append(kwargs)
        return run_dehb(*args, **kwargs)

    # a default of its own, so that reading it shows which signature was read
    sig = inspect.signature(run_dehb)
    traced.__signature__ = sig.replace(parameters=[
        p.replace(default=0.25) if p.name == "min_budget" else p for p in sig.parameters.values()
    ])
    monkeypatch.setattr(protocol, "run_dehb", traced)
    assert defaults("dehb") == {"min_budget": 0.25, "eta": 1.9, "F": 0.5, "CR": 0.5}
    objective = SeededValley(dimension=2)
    method = MethodSpec("dehb", options={"eta": 2.0})
    opts = method.plan(3)
    assert opts["min_budget"] == 0.25
    run_method(method, objective.space, TrialRunner(objective, [0]), np.random.default_rng(0),
               opts)
    assert calls == [opts]


@pytest.mark.parametrize("kind", ["rs", "dehb", "pbt"])
def test_every_default_is_written_once_in_the_tuner_signature(kind):
    # the settings a tuner sizes to the budget have none
    sized = {"rs": "n_configs", "dehb": "iterations", "pbt": "population_size"}[kind]
    tuner = {"rs": run_rs, "dehb": run_dehb, "pbt": run_pbt}[kind]
    names = list(inspect.signature(tuner).parameters)[3:]
    assert sorted(defaults(kind)) == sorted(n for n in names if n != sized)
    assert {**defaults(kind), **MethodSpec(kind).plan(20)} == MethodSpec(kind).plan(20)


tuner_plans = st.one_of(
    st.tuples(st.just("rs"), st.fixed_dictionaries({}), st.integers(1, 6)),
    st.tuples(
        st.just("dehb"),
        st.fixed_dictionaries({"min_budget": st.sampled_from([0.01, 0.05, 0.1, 0.25]),
                               "eta": st.sampled_from([1.9, 2.0, 3.0])}),
        st.integers(1, 16),
    ),
    st.tuples(
        st.just("pbt"),
        st.fixed_dictionaries({"num_intervals": st.integers(1, 3),
                               "warmstart_runs": st.integers(0, 2)}),
        st.integers(2, 6),
    ),
)


@settings(max_examples=40, deadline=None)
@given(tuner_plans)
@example(("dehb", {"min_budget": 0.01, "eta": 1.9}, 16))  # the default eight-rung ladder
def test_complete_states_the_spend_plan_gives_bit_for_bit(case):
    kind, options, budget = case
    try:
        opts = MethodSpec(kind, options=options).plan(budget)
    except ValueError:  # the budget buys no DEHB iteration, or no warmstart and two members
        assume(False)
    want = {"rs": rs, "dehb": dehb, "pbt": pbt}[kind].plan(budget, dict(opts))
    objective = SeededValley(dimension=2)
    runner = TrialRunner(objective, [0])
    run_method(MethodSpec(kind), objective.space, runner, np.random.default_rng(1), opts)
    (complete,) = runner.journal.of_type("complete")
    assert complete["spend"].hex() == want.hex()
    assert runner.journal.spend() == pytest.approx(want)


DEHB_OPTIONS = {"min_budget": 0.25, "eta": 2.0}
PBT_OPTIONS = {"num_intervals": 3, "quantile": 0.25, "warmstart_runs": 2}


@pytest.mark.parametrize(
    "kind, options, budget",
    [("rs", {}, 4), ("dehb", DEHB_OPTIONS, 5), ("pbt", PBT_OPTIONS, 6)],
)
def test_run_method_journals_exactly_one_complete_record(kind, options, budget):
    objective = SeededValley(dimension=2)
    runner = TrialRunner(objective, [0, 1])
    method = MethodSpec(kind, options=options)
    result = run_method(
        method, objective.space, runner, np.random.default_rng(3), method.plan(budget)
    )
    assert isinstance(result, TuneResult)
    (complete,) = runner.journal.of_type("complete")
    assert complete["incumbent"] == result.incumbent.values
    assert complete["cost"] == result.incumbent_cost
    assert complete["groups"] == runner.groups_run == len(runner.journal.of_type("group"))
    spend = {
        "rs": 4.0,
        # two iterations of the 0.25/0.5/1 ladder, each rung at capacity
        "dehb": sum(
            rung_capacity(b) * b for it in range(2) for b in ladder(0.25, 2.0)[it:]
        ),
        "pbt": 4.0 + 2.0,  # population plus warmstart runs
    }[kind]
    assert complete["spend"] == spend and runner.journal.spend() == pytest.approx(spend)
    incumbents = runner.journal.of_type("incumbent")
    assert incumbents[-1]["config"] == complete["incumbent"]
    assert incumbents[-1]["cost"] == complete["cost"]


# ---------------------------------------------------------------------------
# Journal digests of every tuner on an objective that fails some full-budget
# groups and ties costs, so the incumbent rules (failures never count, the
# earliest of equal costs wins) and the spend are pinned byte for byte


class Scripted(SeededValley):
    """The valley with costs rounded to one decimal, so equal costs are
    common; a full-budget trial on seed 1 fails when int(100 * x0) is a
    multiple of 3."""

    def evaluate(self, config, budget, seed, resume=None):
        if budget == 1.0 and seed == 1 and int(100 * config["x0"]) % 3 == 0:
            raise EvaluationError("scripted failure")
        cost, ckpt = super().evaluate(config, budget, seed, resume=resume)
        return round(cost, 1), ckpt


TUNER_PINS = {  # kind -> (options, budget, rng seed, journal digest)
    "rs": ({}, 12, 3, "5b52bdd51a302af93a78fcf686122e199ef49478f6464bfa44dae7cd67b9356e"),
    "dehb": ({"min_budget": 0.1, "eta": 2.0}, 10, 2,
             "e397d4b95dba2835821c952296582b51139f42e6341dc4eac1eeb9cb7e383699"),
    "pbt": ({"population_size": 5, "num_intervals": 3, "quantile": 0.25}, 5, 5,
            "bf47a3956d77578f4c76fe5cb31c53c2d63968a788c00846a52e7e422d9aa7fb"),
}


def scripted_journal(tmp_path, kind, workers):
    """The journal of ``kind`` on Scripted, with its pinned settings."""
    options, budget, rng_seed, _ = TUNER_PINS[kind]
    objective = Scripted(dimension=2)
    method = MethodSpec(kind, options=options)
    journal = Journal.create(str(tmp_path / "journal.log"))
    with contextlib.closing(journal), contextlib.closing(
        TrialRunner(objective, [0, 1], journal=journal,
                    checkpoint_dir=str(tmp_path / "checkpoints"), workers=workers)
    ) as runner:
        result = run_method(method, objective.space, runner, np.random.default_rng(rng_seed),
                            method.plan(budget))
    return Journal.load(str(tmp_path / "journal.log")), result


def journal_digest(journal):
    """sha256 of the header and records, without wall time and with checkpoint
    names only, since each run writes into its own directory."""
    records = []
    for record in [journal.header, *journal.records]:
        record = {k: v for k, v in record.items() if k != "wall_time"}
        if record.get("ckpt"):
            record["ckpt"] = os.path.basename(record["ckpt"])
        records.append(record)
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(TUNER_PINS))
def test_every_tuner_writes_its_pinned_journal_on_failures_and_ties(tmp_path, kind, workers):
    journal, result = scripted_journal(tmp_path, kind, workers)
    full = [g for g in journal.of_type("group") if g["budget"] == 1.0 and g["purpose"] == "tune"]
    if kind == "pbt":  # only the last interval's members are candidates
        full = [g for g in full if g["tags"]["interval"] == TUNER_PINS[kind][0]["num_intervals"]]
    assert any(g["failed"] for g in full)
    costs = [g["mean_cost"] for g in full if not g["failed"]]
    best = min(costs)
    assert costs.count(best) >= 2  # the earliest of the tied groups is the incumbent
    first = next(g for g in full if g["mean_cost"] == best)
    assert result.incumbent.values == first["config"] and result.incumbent_cost == best
    assert journal_digest(journal) == TUNER_PINS[kind][3]


def test_keep_best_journals_strict_improvements_in_the_order_given():
    def result(i, cost, budget=1.0):
        return GroupResult(i, Configuration({"i": i}), budget, (0,), [cost], cost is None, {})

    runner = TrialRunner(SeededValley(dimension=2), [0])
    with pytest.raises(NoIncumbentError, match="every full-budget candidate failed"):
        runner.complete(1.0)
    runner.keep_best([result(0, None), result(1, 0.5), result(2, 0.5), result(3, 0.7)])
    runner.keep_best([result(4, 0.2), result(5, 0.2)])
    with pytest.raises(ValueError, match="an incumbent comes from the full budget, not 0.5"):
        runner.keep_best([result(6, 0.1, budget=0.5)])
    incumbents = runner.journal.of_type("incumbent")
    assert [(r["config"], r["cost"], r["budget"]) for r in incumbents] == [
        ({"i": 1}, 0.5, 1.0), ({"i": 4}, 0.2, 1.0)]
    assert runner.complete(3.0) == TuneResult(Configuration({"i": 4}), 0.2)
    (complete,) = runner.journal.of_type("complete")
    assert (complete["incumbent"], complete["cost"], complete["spend"]) == ({"i": 4}, 0.2, 3.0)
