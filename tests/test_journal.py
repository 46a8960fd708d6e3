import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import autotune
from autotune.journal import (
    Journal,
    JournalCorrupt,
    JournalError,
    ReplayMismatch,
    space_digest,
)
from autotune.objectives import NoisySphere, SeededValley
from autotune.runner import TrialRunner
from autotune.runs import trials_csv
from autotune.space import ConfigSpace, Configuration, continuous

HEADER = {"method": "rs", "space_digest": "abc", "budget_runs": 4}


def make_journal(path=None):
    j = Journal.create(path)
    j.write_header(HEADER)
    return j


def test_append_assigns_sequence_numbers():
    j = make_journal()
    assert j.append({"t": "group", "group": 0, "spend": 1.0}) == 1
    assert j.append({"t": "group", "group": 1, "spend": 1.0}) == 2
    seqs = [r["seq"] for r in j.records]
    assert seqs == [1, 2]


def test_header_required_before_records():
    j = Journal.create(None)
    with pytest.raises(JournalError):
        j.append({"t": "group"})


def test_round_trip_to_disk(tmp_path):
    path = str(tmp_path / "journal.log")
    j = make_journal(path)
    j.append({"t": "trial", "cost": 0.1234567890123456789, "config": {"x": 1e-7}})
    j.close()
    loaded = Journal.load(path)
    assert loaded.header["method"] == "rs"
    rec = loaded.records[0]
    assert rec["cost"] == 0.1234567890123456789  # exact float round trip
    assert rec["config"]["x"] == 1e-7


def test_create_refuses_existing_file(tmp_path):
    path = str(tmp_path / "journal.log")
    make_journal(path).close()
    with pytest.raises(JournalError):
        Journal.create(path)


def test_crash_after_append_record_survives(tmp_path):
    """Kill the writing process immediately after append returns."""
    path = str(tmp_path / "journal.log")
    # The child imports the same autotune package as this test, whatever the
    # working directory or a relative PYTHONPATH would resolve to.
    package_dir = os.path.dirname(os.path.abspath(autotune.__file__))
    package_root = os.path.dirname(package_dir)
    crash_code = 57  # distinct from 1, the exit code of an uncaught exception
    script = f"""
import os, sys
sys.path.insert(0, {json.dumps(package_root)})
from autotune.journal import Journal
j = Journal.create({json.dumps(path)})
j.write_header({json.dumps(HEADER)})
for i in range(3):
    j.append({{"t": "group", "group": i, "spend": 1.0}})
os._exit({crash_code})  # no graceful close, no flush beyond append's own
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.stderr == ""
    assert proc.returncode == crash_code
    loaded = Journal.load(path)
    assert [r["group"] for r in loaded.records] == [0, 1, 2]


def test_torn_trailing_record_dropped_with_warning(tmp_path):
    path = str(tmp_path / "journal.log")
    j = make_journal(path)
    j.append({"t": "group", "group": 0, "spend": 1.0})
    j.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"t": "group", "seq": 2, "gro')  # torn write
    loaded = Journal.load(path)
    assert len(loaded.records) == 1
    assert any("torn" in w for w in loaded.warnings)


@pytest.mark.corrupt_journal
def test_mid_journal_corruption_is_hard_error(tmp_path):
    path = str(tmp_path / "journal.log")
    j = make_journal(path)
    j.append({"t": "group", "group": 0, "spend": 1.0})
    j.append({"t": "group", "group": 1, "spend": 1.0})
    j.close()
    lines = open(path).read().splitlines()
    lines[1] = lines[1][:10]  # corrupt a non-trailing record
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(JournalCorrupt):
        Journal.load(path)


@pytest.mark.corrupt_journal
def test_sequence_break_is_corruption(tmp_path):
    path = str(tmp_path / "journal.log")
    j = make_journal(path)
    j.append({"t": "group", "group": 0, "spend": 1.0})
    j.close()
    with open(path, "a") as fh:
        fh.write(json.dumps({"t": "group", "seq": 7, "group": 1}) + "\n")
    with pytest.raises(JournalCorrupt, match="sequence"):
        Journal.load(path)


def test_replay_verifies_appends(tmp_path):
    path = str(tmp_path / "journal.log")
    j = make_journal(path)
    j.append({"t": "incumbent", "cost": 1.0, "config": {"x": 0.5}, "budget": 1.0})
    j.close()
    resumed = Journal.open_for_resume(path)
    resumed.write_header(HEADER)
    assert resumed.replaying
    seq = resumed.append({"t": "incumbent", "cost": 1.0, "config": {"x": 0.5}, "budget": 1.0})
    assert seq == 1
    assert not resumed.replaying
    # once replay is exhausted, appends go live with increasing seq
    assert resumed.append({"t": "complete", "spend": 1.0}) == 2
    resumed.close()


def test_replay_divergence_is_rejected(tmp_path):
    path = str(tmp_path / "journal.log")
    j = make_journal(path)
    j.append({"t": "incumbent", "cost": 1.0, "config": {"x": 0.5}, "budget": 1.0})
    j.close()
    resumed = Journal.open_for_resume(path)
    resumed.write_header(HEADER)
    with pytest.raises(ReplayMismatch):
        resumed.append({"t": "incumbent", "cost": 2.0, "config": {"x": 0.5}, "budget": 1.0})


def test_a_replayed_record_is_checked_whole_but_for_seq_and_wall_time(tmp_path):
    path = str(tmp_path / "journal.log")
    j = make_journal(path)
    j.append({"t": "exploit", "interval": 1, "wall_time": 0.5, "pair": [1, 2]})
    j.append({"t": "exploit", "interval": 2})
    j.close()
    resumed = Journal.open_for_resume(path)
    resumed.write_header(HEADER)
    assert resumed.append({"t": "exploit", "interval": 1, "wall_time": 9.0, "pair": (1, 2)}) == 1
    message = "diverged on its exploit record: extra=None recorded vs 1 requested"
    with pytest.raises(ReplayMismatch, match=re.escape(message)):
        resumed.append({"t": "exploit", "interval": 2, "extra": 1})
    assert resumed.append({"t": "exploit", "interval": 2}) == 2  # the mismatch consumed nothing
    assert not resumed.replaying
    resumed.close()


def test_a_replayed_group_must_hold_one_trial_record_per_seed(tmp_path):
    path = str(tmp_path / "journal.log")
    j = make_journal(path)
    j.append_group({"x": 0.5}, 0, 1.0, "tune", None, 1.0, 0.5,
                   [(s, 0.5, "", 1e-5, None, 1.0) for s in (0, 1)])
    j.close()
    resumed = Journal.open_for_resume(path)
    for seeds in (1, 3):
        with pytest.raises(ReplayMismatch, match="expected .* trial records and a group record"):
            resumed.take_group_if_pending(seeds)
    assert [r["seed"] for r in resumed.take_group_if_pending(2)] == [0, 1]
    resumed.close()


def test_resume_header_mismatch_rejected(tmp_path):
    path = str(tmp_path / "journal.log")
    make_journal(path).close()
    for header, message in [
        ({**HEADER, "budget_runs": 99}, "budget_runs is 4 in the journal, 99 now"),
        # the first key in sorted order that differs is named
        ({**HEADER, "space_digest": "xyz", "budget_runs": 5}, "budget_runs is 4 in the journal"),
        ({**HEADER, "space_digest": "xyz"}, "space_digest is 'abc' in the journal, 'xyz' now"),
        ({**HEADER, "extra": None}, "extra is None in the journal"),  # absent is not None
    ]:
        resumed = Journal.open_for_resume(path)
        with pytest.raises(ReplayMismatch, match=f"different header: {re.escape(message)}"):
            resumed.write_header(header)
        resumed.close()


def test_space_digest_stability():
    text = "x: (0, 1)\n"
    assert space_digest(text) == space_digest(text)
    assert space_digest(text) != space_digest("x: (0, 2)\n")


# ---------------------------------------------------------------------------
# runner integration


def sphere_runner(journal=None, **kw):
    objective = NoisySphere(dimension=1, noise=0.0)
    return TrialRunner(objective, seeds=[0, 1], journal=journal, **kw), objective


def test_runner_groups_and_spend():
    runner, _ = sphere_runner()
    cfg = Configuration({"x0": 0.25})
    res = runner.evaluate_group(cfg, 1.0)
    assert not res.failed
    assert res.mean_cost == pytest.approx(0.0625)
    assert res.seeds == (0, 1)
    assert runner.journal.spend() == 1.0
    trials = runner.journal.of_type("trial")
    assert [t["seed"] for t in trials] == [0, 1]
    assert all(t["status"] == "done" for t in trials)


def test_spend_is_summed_without_rounding_error():
    # one float at a time, ten spends of 0.1 sum to 0.9999999999999999
    j = make_journal()
    for i in range(10):
        j.append({"t": "group", "group": i, "spend": 0.1, "purpose": "tune"})
    assert j.spend() == 1.0


def test_runner_spend_counts_training_increment():
    runner, _ = sphere_runner()
    cfg = Configuration({"x0": 0.5})
    r1 = runner.evaluate_group(cfg, 0.25)
    r2 = runner.evaluate_group(cfg, 0.75, resume=r1.checkpoints)
    groups = runner.journal.of_type("group")
    assert groups[0]["spend"] == 0.25
    assert groups[1]["spend"] == pytest.approx(0.5)
    assert runner.journal.spend() == pytest.approx(0.75)


def test_a_resume_of_none_handles_starts_fresh_and_spends_its_budget():
    # raised "max() arg is an empty sequence" after evaluating, journaling nothing
    runner = TrialRunner(SeededValley(), [0, 1])
    cfg = Configuration({"x0": 0.25, "x1": 0.75})
    res = runner.evaluate_group(cfg, 0.5, resume={0: None, 1: None})
    assert res.per_seed_cost == TrialRunner(SeededValley(), [0, 1]).evaluate_group(
        cfg, 0.5
    ).per_seed_cost
    [group] = runner.journal.of_type("group")
    assert group["spend"] == group["budget"] == 0.5


@pytest.mark.parametrize("seeds, message", [([], "non-empty"), ([1, 1], "distinct")])
def test_runner_rejects_bad_per_call_seeds_before_using_a_group_id(seeds, message):
    runner, _ = sphere_runner()
    with pytest.raises(ValueError, match=message):
        runner.evaluate_group(Configuration({"x0": 0.5}), 1.0, seeds=seeds)
    assert runner.groups_run == 0 and runner.journal.records == []
    res = runner.evaluate_group(Configuration({"x0": 0.5}), 1.0, seeds=[1])
    assert res.group == 0 and res.seeds == (1,)
    assert [t["seed"] for t in runner.journal.of_type("trial")] == [1]


@pytest.mark.parametrize("field, edit", [
    ("budget", {"budget": math.nan}), ("budget", {"budget": True}), ("budget", {"budget": 2}),
    ("budget", {"budget": 0.0}), ("budget", {"budget": -0.5}), ("budget", {"budget": "1.0"}),
    ("budget", {"budget": None}), ("purpose", {"purpose": 5}), ("purpose", {"purpose": None}),
    ("tags", {"tags": {"k": True}}), ("tags", {"tags": {"k": 1.0}}), ("tags", {"tags": {1: 2}}),
    ("tags", {"tags": [("k", 1)]}),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_a_malformed_request_is_refused_before_any_group_of_its_batch_runs(tmp_path, field, edit):
    path = tmp_path / "journal.log"
    runner, _ = sphere_runner(make_journal(str(path)))
    good = {"config": Configuration({"x0": 0.5}), "budget": 1.0}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        runner.evaluate_many([good, {**good, **edit}])
    runner.journal.close()
    assert runner.groups_run == 0 and runner.journal.records == []
    assert len(path.read_text().splitlines()) == 1  # the header alone


class ScriptedCost:
    """Returns one cost, whatever it is asked."""

    name = "scripted"

    def __init__(self, cost):
        self.cost = cost

    def evaluate(self, config, budget, seed, resume=None):
        return self.cost, b""


@pytest.mark.parametrize("cost, text", [(3, "3.0"), (True, "1.0"), (np.float64(0.1), "0.1")])
def test_a_custom_cost_is_journaled_and_exported_as_the_float_it_equals(tmp_path, cost, text):
    path = str(tmp_path / "journal.log")
    j = make_journal(path)
    j.header["space_text"] = "x0: (0.0, 1.0)\n"
    runner = TrialRunner(ScriptedCost(cost), [0, 1], journal=j)
    res = runner.evaluate_group(Configuration({"x0": 0.5}), 1.0)
    j.close()
    assert res.per_seed_cost == [float(cost)] * 2
    assert all(type(c) is float for c in res.per_seed_cost)
    lines = open(path, encoding="utf-8").read().splitlines()[1:]
    assert [json.loads(line)["cost"] for line in lines[:2]] == [float(cost)] * 2
    assert all(f'"cost": {text}, ' in line for line in lines[:2])
    assert f'"mean_cost": {text}, ' in lines[2]
    rows = trials_csv(Journal.load(path)).splitlines()
    assert [row.split(",")[4] for row in rows[1:]] == [text, text]  # seq, x0, budget, seed, cost


def test_a_journal_with_an_int_cost_resumes_to_the_end(tmp_path):
    # an objective returning 3 once journaled "cost": 3; such a journal
    # replays, and the groups after it journal 3.0
    path = str(tmp_path / "journal.log")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**HEADER, "t": "header"}, sort_keys=True) + "\n")
    configs = [Configuration({"x0": x}) for x in (0.25, 0.5)]
    runner = TrialRunner(ScriptedCost(3), [0, 1], journal=Journal.open_for_resume(path))
    runner.evaluate_group(configs[0], 1.0)
    runner.journal.close()
    text = open(path, encoding="utf-8").read()
    assert text.count('"cost": 3.0, ') == 2
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace('"cost": 3.0, ', '"cost": 3, '))
    runner = TrialRunner(ScriptedCost(3), [0, 1], journal=Journal.open_for_resume(path))
    replayed, live = [runner.evaluate_group(cfg, 1.0) for cfg in configs]
    runner.journal.close()
    assert replayed.per_seed_cost == live.per_seed_cost == [3.0, 3.0]
    trials = Journal.load(path).of_type("trial")
    assert [type(t["cost"]) for t in trials] == [int, int, float, float]


def test_a_resumed_runners_first_live_group_id_is_the_replayed_count(tmp_path):
    path = str(tmp_path / "journal.log")
    configs = [Configuration({"x0": x}) for x in (0.25, 0.5, 0.75)]
    runner, _ = sphere_runner(make_journal(path))
    for cfg in configs[:2]:
        runner.evaluate_group(cfg, 1.0)
    runner.journal.close()
    runner, _ = sphere_runner(Journal.open_for_resume(path))
    replayed = [runner.evaluate_group(cfg, 1.0) for cfg in configs[:2]]
    assert not runner.journal.replaying and runner.groups_run == 2
    live = runner.evaluate_group(configs[2], 1.0)
    runner.journal.close()
    assert [res.group for res in [*replayed, live]] == [0, 1, 2]
    assert [g["group"] for g in Journal.load(path).of_type("group")] == [0, 1, 2]


def test_runner_failure_becomes_inf_cost():
    from autotune.objectives import EvaluationError

    class Failing(NoisySphere):
        def evaluate(self, config, budget, seed, resume=None):
            if seed == 1:
                raise EvaluationError("scripted failure")
            return super().evaluate(config, budget, seed, resume=resume)

    runner = TrialRunner(Failing(dimension=1, noise=0.0), seeds=[0, 1])
    res = runner.evaluate_group(Configuration({"x0": 0.5}), 1.0)
    assert res.failed
    assert res.mean_cost is None
    assert res.cost == float("inf")
    statuses = [t["status"] for t in runner.journal.of_type("trial")]
    assert statuses == ["done", "failed"]


@pytest.mark.parametrize("cost", ["abc", [1], 10**400], ids=["str", "list", "huge-int"])
def test_runner_fails_a_trial_whose_cost_is_not_a_finite_number(cost):
    class Odd(NoisySphere):
        def evaluate(self, config, budget, seed, resume=None):
            _, ckpt = super().evaluate(config, budget, seed, resume=resume)
            return cost, ckpt

    runner = TrialRunner(Odd(dimension=1, noise=0.0), seeds=[0])
    res = runner.evaluate_group(Configuration({"x0": 0.5}), 1.0)
    assert res.failed and res.per_seed_cost == [None] and res.checkpoints == {}
    [trial] = runner.journal.of_type("trial")
    assert trial["status"] == "failed" and trial["error"] == f"non-finite cost {cost!r}"


def test_runner_parallel_matches_sequential_results():
    runner_seq, _ = sphere_runner()
    runner_par, _ = sphere_runner(workers=4)
    cfgs = [Configuration({"x0": 0.1 * i}) for i in range(8)]
    reqs = [{"config": c, "budget": 1.0} for c in cfgs]
    seq = [r.mean_cost for r in runner_seq.evaluate_many(reqs)]
    par = [r.mean_cost for r in runner_par.evaluate_many(reqs)]
    runner_par.close()
    assert seq == par


def test_runner_replay_skips_objective_calls(tmp_path):
    path = str(tmp_path / "journal.log")
    journal = Journal.create(path)
    journal.write_header(HEADER)
    runner, _ = sphere_runner(journal=journal)
    cfg = Configuration({"x0": 0.25})
    live = runner.evaluate_group(cfg, 1.0)
    journal.close()

    calls = {"n": 0}

    class Counting(NoisySphere):
        def evaluate(self, config, budget, seed, resume=None):
            calls["n"] += 1
            return super().evaluate(config, budget, seed, resume=resume)

    resumed = Journal.open_for_resume(path)
    resumed.write_header(HEADER)
    runner2 = TrialRunner(Counting(dimension=1, noise=0.0), seeds=[0, 1], journal=resumed)
    replayed = runner2.evaluate_group(cfg, 1.0)
    assert calls["n"] == 0
    assert replayed.per_seed_cost == live.per_seed_cost
    assert replayed.group == live.group
    # next group is live again
    fresh = runner2.evaluate_group(Configuration({"x0": 0.75}), 1.0)
    assert calls["n"] == 2
    assert fresh.group == live.group + 1
    resumed.close()


def test_runner_replay_rejects_key_mismatch(tmp_path):
    path = str(tmp_path / "journal.log")
    journal = Journal.create(path)
    journal.write_header(HEADER)
    runner, _ = sphere_runner(journal=journal)
    runner.evaluate_group(Configuration({"x0": 0.25}), 1.0)
    journal.close()

    resumed = Journal.open_for_resume(path)
    resumed.write_header(HEADER)
    runner2, _ = sphere_runner(journal=resumed)
    with pytest.raises(ReplayMismatch):
        runner2.evaluate_group(Configuration({"x0": 0.5}), 1.0)


def test_trailing_trials_without_group_are_trimmed(tmp_path):
    path = str(tmp_path / "journal.log")
    journal = Journal.create(path)
    journal.write_header(HEADER)
    runner, _ = sphere_runner(journal=journal)
    runner.evaluate_group(Configuration({"x0": 0.25}), 1.0)
    journal.append(
        {"t": "trial", "group": 1, "config": {"x0": 0.5}, "budget": 1.0, "seed": 0,
         "cost": 0.0, "status": "done", "error": "", "wall_time": 0.0, "ckpt": None,
         "frac": 1.0, "purpose": "tune"}
    )
    journal.close()
    resumed = Journal.open_for_resume(path)
    assert any("without a group" in w for w in resumed.warnings)
    assert resumed.records[-1]["t"] == "group"
    # on-disk file was truncated to match
    lines = open(path).read().splitlines()
    assert json.loads(lines[-1])["t"] == "group"
    resumed.close()
