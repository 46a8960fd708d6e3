import hashlib
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotune.checkpoints import CheckpointPack
from autotune.journal import Journal
from autotune.objectives import GridworldQ, ObjectiveSpec, SeededValley
from autotune.pbt import exploit, run_pbt
from autotune.protocol import MethodSpec, SeedPlan
from autotune.runner import TrialRunner
from autotune.runs import JOURNAL_NAME, run_repetition
from autotune.space import Configuration


class NonFinite(SeededValley):
    """Seeded valley whose cost is NaN for x0 < 0.2 and -inf for x0 < 0.35."""

    def evaluate(self, config, budget, seed, resume=None):
        cost, ckpt = super().evaluate(config, budget, seed, resume=resume)
        if config["x0"] < 0.2:
            return math.nan, ckpt
        if config["x0"] < 0.35:
            return -math.inf, ckpt
        return cost, ckpt


@pytest.mark.parametrize("x0, cost", [(0.1, "nan"), (0.3, "-inf")])
def test_runner_turns_a_non_finite_cost_into_a_failed_trial(x0, cost):
    runner = TrialRunner(NonFinite(), seeds=[0, 1])
    res = runner.evaluate_group(Configuration({"x0": x0, "x1": 0.5}), 1.0)
    assert res.failed and res.per_seed_cost == [None, None] and res.checkpoints == {}
    for trial in runner.journal.of_type("trial"):
        assert trial["status"] == "failed" and trial["cost"] is None
        assert trial["error"] == f"non-finite cost {cost}"


def test_pbt_never_exploits_a_member_with_a_non_finite_cost():
    objective = NonFinite()
    runner = TrialRunner(objective, seeds=[0, 1])
    run = run_pbt(
        objective.space, runner, np.random.default_rng(15), population_size=8,
        num_intervals=4, quantile=0.25, explore_mode="perturb", warmstart_runs=0,
    )
    journal = runner.journal
    first = [g for g in journal.of_type("group") if g["tags"]["interval"] == 1]
    assert any(g["config"]["x0"] < 0.2 for g in first)  # a NaN member
    assert any(0.2 <= g["config"]["x0"] < 0.35 for g in first)  # a -inf member
    for trial in journal.of_type("trial"):
        if trial["config"]["x0"] < 0.35:
            assert trial["status"] == "failed" and trial["cost"] is None
    for record in journal.of_type("exploit"):
        failed = {i for i, c in enumerate(record["costs"]) if c is None}
        losers = {loser for loser, _ in record["plan"]}
        assert failed <= losers or losers <= failed  # failed members rank last
        assert not failed & {winner for _, winner in record["plan"]}
    assert math.isfinite(run.incumbent_cost)
    assert run.incumbent["x0"] >= 0.35


@pytest.mark.parametrize("n", range(2, 8))
def test_a_population_under_eight_still_exploits_one_pair(n):
    costs = [float(i) for i in range(n)]  # member 0 is the best, n - 1 the worst
    assert exploit(costs, 0.125) == [(n - 1, 0)]


def test_exploit_plans_floor_q_n_pairs_from_eight_members():
    assert exploit([float(i) for i in range(16)], 0.125) == [(15, 0), (14, 1)]
    assert exploit([0.0], 0.125) == []


def test_a_small_pbt_run_exploits_and_explores_every_interval():
    objective = SeededValley()
    runner = TrialRunner(objective, seeds=[0])
    run_pbt(
        objective.space, runner, np.random.default_rng(4), population_size=4,
        num_intervals=4, quantile=0.125, explore_mode="perturb", warmstart_runs=0,
    )
    plans = [record["plan"] for record in runner.journal.of_type("exploit")]
    assert len(plans) == 3 and all(len(plan) == 1 for plan in plans)
    assert len(runner.journal.of_type("explore")) == 3


# ---------------------------------------------------------------------------
# Journal digests of PBT branches no golden covers: GP with a warmstart (the
# GP models raw cost), perturb with explore_prob < 1 (some losers keep the
# winner's configuration), and GP on a mixed valley space with model restarts

GRIDWORLD_SPACE = """\
learning_rate: log(1e-07, 1.0)
epsilon: (0.0, 1.0)
gamma: (0.5, 0.999)
epsilon_decay: (0.9, 1.0)
"""
MIXED_SPACE = "lr: log(1e-05, 1.0)\nmomentum: (0.0, 0.99)\nlayers: int[1, 8]\nact: {a, b, c}\n"
# at 300 steps every trial cost the same, and a digest could not tell which
# checkpoint a PBT loser resumed from; at 1000 the costs differ
GRIDWORLD = ObjectiveSpec("gridworld_q", {"total_steps": 1000})
PINNED = {  # name -> (space, objective, options, budget, digest, explore modes)
    "gp-warmstart": (
        GRIDWORLD_SPACE, GRIDWORLD,
        {"explore_mode": "gp", "warmstart_runs": 3, "num_intervals": 5, "quantile": 0.25}, 9,
        "c7634fe78b3e96310e176ea68d41a10127be52bf2f7bf8b16d379e0595236032", {"gp"},
    ),
    "perturb-half": (
        GRIDWORLD_SPACE, GRIDWORLD,
        {"explore_mode": "perturb", "explore_prob": 0.5, "num_intervals": 5, "quantile": 0.25},
        8, "056e71026bd68c7e51a4fee0010381395da707ee28667b3fc7cfd1c718f0747a",
        {"keep", "perturb"},
    ),
    "gp-valley-restarts": (
        MIXED_SPACE, ObjectiveSpec("seeded_valley", {"sigma": 0.25}),
        {"explore_mode": "gp", "warmstart_runs": 2, "restart_patience": 1, "num_intervals": 8,
         "quantile": 0.25}, 10,
        "87c69d0bfb71033e3fae4917bf6505eca6e506ebf18b72ef753cbd44c3bb61c7", {"gp"},
    ),
}


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
@pytest.mark.parametrize("case", sorted(PINNED))
def test_pbt_branches_write_their_pinned_journals(tmp_path, case, workers):
    space_text, objective, options, budget, digest, modes = PINNED[case]
    run_repetition(str(tmp_path), MethodSpec("pbt", options=options), space_text, objective,
                   SeedPlan([1, 2], [7, 8]), budget, rng_seed=5, repetition=0,
                   workers=workers)
    journal = Journal.load(str(tmp_path / JOURNAL_NAME))
    assert {r["mode"] for r in journal.of_type("explore")} == modes
    assert journal_digest(journal) == digest


# ---------------------------------------------------------------------------
# Lineage invariants on a small gridworld, read back from the journal


class RecordingGridworld(GridworldQ):
    """Gridworld that records, per evaluation, the sha256 of the checkpoint
    it resumes from (None for a fresh start)."""

    def __init__(self):
        super().__init__(total_steps=60)
        self.resumed = []

    def evaluate(self, config, budget, seed, resume=None):
        self.resumed.append(None if resume is None else hashlib.sha256(resume.payload).hexdigest())
        return super().evaluate(config, budget, seed, resume=resume)


pbt_settings = st.fixed_dictionaries({
    "population_size": st.integers(2, 5),
    "num_intervals": st.integers(2, 4),
    "quantile": st.sampled_from([0.125, 0.25, 0.5]),
    "explore_mode": st.sampled_from(["perturb", "gp"]),
    "warmstart_runs": st.integers(0, 2),
    "explore_prob": st.sampled_from([0.0, 0.5, 1.0]),
})


def traced_pbt(settings_, seeds, rng_seed):
    """Run PBT on a small gridworld with a file-backed checkpoint pack.

    Returns the journal, the digest each evaluation resumed from (in
    evaluation order, which is journal order at one worker), the sha256 of
    every checkpoint frame by path, and per trial record the checkpoint its
    member held when it started, as (path, fraction), or None.
    """
    objective = RecordingGridworld()
    with tempfile.TemporaryDirectory() as directory:
        runner = TrialRunner(objective, seeds=seeds, checkpoint_dir=directory)
        run_pbt(objective.space, runner, np.random.default_rng(rng_seed), **settings_)
        runner.close()
        journal = runner.journal
        pack = CheckpointPack(directory)
        frames = {t["ckpt"]: hashlib.sha256(pack.read(os.path.basename(t["ckpt"]))).hexdigest()
                  for t in journal.of_type("trial") if t["ckpt"]}
        pack.close()
    held = {}  # member -> {seed: (path, fraction)} of its latest checkpoints
    sources, trials = [], []
    for record in journal.records:
        if record["t"] == "trial":
            trials.append(record)
        elif record["t"] == "group":
            member = record.get("tags", {}).get("member")
            mine = held.setdefault(member, {}) if member is not None else {}
            sources.extend(mine.get(t["seed"]) for t in trials)
            mine.update({t["seed"]: (t["ckpt"], t["frac"]) for t in trials if t["ckpt"]})
            trials = []
        elif record["t"] == "exploit":
            held.update({loser: dict(held[winner]) for loser, winner in record["plan"]})
    return journal, objective.resumed, frames, sources


def tune_trials(journal):
    """(interval, member, seed) -> trial record of every PBT interval."""
    groups = {g["group"]: g["tags"] for g in journal.of_type("group") if "tags" in g}
    return {(groups[t["group"]]["interval"], groups[t["group"]]["member"], t["seed"]): t
            for t in journal.of_type("trial") if t["group"] in groups}


@settings(max_examples=15, deadline=None)
@given(pbt_settings, st.sampled_from([[0], [3, 4]]), st.integers(0, 2**16))
def test_a_loser_resumes_from_the_bytes_of_its_winners_checkpoint(settings_, seeds, rng_seed):
    journal, resumed, frames, sources = traced_pbt(settings_, seeds, rng_seed)
    assert resumed == [None if s is None else frames[s[0]] for s in sources]
    trials = tune_trials(journal)
    explores = journal.of_type("explore")
    assert explores  # every interval but the last exploits at least one pair
    for record in explores:
        for seed in seeds:
            winner = trials[record["interval"], record["source"], seed]
            loser_next = trials[record["interval"] + 1, record["member"], seed]
            index = journal.of_type("trial").index(loser_next)
            assert resumed[index] == frames[winner["ckpt"]]


@settings(max_examples=15, deadline=None)
@given(pbt_settings, st.sampled_from([[0], [3, 4]]), st.integers(0, 2**16))
def test_checkpoint_fractions_never_decrease_along_a_lineage(settings_, seeds, rng_seed):
    journal, _, _, sources = traced_pbt(settings_, seeds, rng_seed)
    trials = journal.of_type("trial")
    for trial, source in zip(trials, sources):
        if source is not None and trial["frac"] is not None:
            assert source[1] <= trial["frac"]
    for group in journal.of_type("group"):
        if "tags" in group:
            # spend is the training past the checkpoint the member held
            start = max((s[1] for t, s in zip(trials, sources)
                         if t["group"] == group["group"] and s is not None), default=0.0)
            assert group["spend"] == group["budget"] - start


@settings(max_examples=15, deadline=None)
@given(pbt_settings, st.integers(0, 2**16))
def test_pbt_spends_one_run_per_member_and_warmstart(settings_, rng_seed):
    objective = GridworldQ(total_steps=60)
    runner = TrialRunner(objective, seeds=[0])
    run_pbt(objective.space, runner, np.random.default_rng(rng_seed), **settings_)
    want = settings_["population_size"] + settings_["warmstart_runs"]
    assert runner.journal.spend() == pytest.approx(want)
