"""Resumed runs in file-backed run directories equal uninterrupted ones."""
import json
import os
import shutil
import sys

import pytest

from autotune.checkpoints import PACK_NAME, read_checkpoint
from autotune.journal import Journal
from autotune.objectives import ObjectiveSpec
from autotune.protocol import MethodSpec, SeedPlan
from autotune.runner import RunInterrupted
from autotune.runs import JOURNAL_NAME, run_repetition

SPACE_TEXT = """\
learning_rate: log(1e-07, 1.0)
epsilon: (0.0, 1.0)
gamma: (0.5, 0.999)
epsilon_decay: (0.9, 1.0)
"""
# gridworld checkpoints carry training state, so PBT resumes read them back
OBJECTIVE = ObjectiveSpec("gridworld_q", {"total_steps": 200})
SEEDS = SeedPlan([3, 8], [11, 12])
PBT = {"num_intervals": 4, "population_size": 4, "quantile": 0.25}
METHODS = {  # name -> (method, budget in full runs)
    "rs": (MethodSpec("rs"), 4),
    "dehb": (MethodSpec("dehb", options={"min_budget": 0.1, "eta": 3.0}), 6),
    "pbt": (MethodSpec("pbt", options={**PBT, "explore_mode": "perturb"}), 4),
    "pbt-gp": (MethodSpec("pbt", name="pbt-gp", options={**PBT, "explore_mode": "gp"}), 4),
}


def run(directory, method, workers=1, max_groups=None):
    spec, budget = METHODS[method]
    return run_repetition(
        str(directory), spec, SPACE_TEXT, OBJECTIVE, SEEDS, budget, rng_seed=7, repetition=0,
        deterministic=workers == 1, workers=workers, max_groups=max_groups,
    )


def journal(directory):
    return Journal.load(os.path.join(directory, JOURNAL_NAME))


def records(directory):
    """Journal records after the header, without wall time and with checkpoint
    names only, since a resumed run names another directory's checkpoints."""
    out = []
    for rec in journal(directory).records:
        rec = {k: v for k, v in rec.items() if k != "wall_time"}
        if rec["t"] == "trial" and rec["ckpt"]:
            rec["ckpt"] = os.path.basename(rec["ckpt"])
        out.append(rec)
    return out


def interrupted(directory, method, workers, max_groups):
    with pytest.raises(RunInterrupted):
        run(directory, method, workers, max_groups)
    assert len(journal(directory).of_type("group")) == max_groups


@pytest.mark.parametrize("method", METHODS)
def test_parallel_journal_equals_the_sequential_one(tmp_path, method):
    run(tmp_path / "w1", method, workers=1)
    run(tmp_path / "w2", method, workers=2)
    assert records(tmp_path / "w2") == records(tmp_path / "w1")
    for directory in ("w1", "w2"):
        groups = [r["group"] for r in journal(tmp_path / directory).of_type("group")]
        assert groups == list(range(len(groups)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method", METHODS)
def test_resume_from_a_cut_journal_in_a_new_directory(tmp_path, method, workers):
    full, cut, resumed = tmp_path / "full", tmp_path / "cut", tmp_path / "resumed"
    run(full, method, workers)
    expected = records(full)
    interrupted(cut, method, workers, max_groups=len(journal(full).of_type("group")) // 2)
    os.makedirs(resumed)
    shutil.copy(cut / JOURNAL_NAME, resumed / JOURNAL_NAME)  # the journal alone

    run(resumed, method, workers)
    assert records(resumed) == expected
    for rec in journal(resumed).of_type("trial"):
        replayed = os.path.dirname(rec["ckpt"]) == str(cut / "checkpoints")
        assert replayed or os.path.dirname(rec["ckpt"]) == str(resumed / "checkpoints")
        assert read_checkpoint(rec["ckpt"]) == read_checkpoint(
            str(full / "checkpoints" / os.path.basename(rec["ckpt"]))
        )


def test_resume_trims_a_pack_cut_inside_its_last_frame(tmp_path):
    full, cut = tmp_path / "full", tmp_path / "cut"
    run(full, "pbt")
    interrupted(cut, "pbt", 1, max_groups=len(journal(full).of_type("group")) // 2)
    # as after a kill while the last group's frames were written: the pack
    # ends inside its last frame, and the group's journal records never landed
    path = cut / JOURNAL_NAME
    lines = path.read_text().splitlines()
    last = max(i for i, line in enumerate(lines) if json.loads(line)["t"] == "group")
    first = last - len(SEEDS.tuning_seeds)
    assert [json.loads(line)["t"] for line in lines[first:last]] == ["trial", "trial"]
    path.write_text("\n".join(lines[:first]) + "\n")
    pack = cut / "checkpoints" / PACK_NAME
    os.truncate(pack, os.path.getsize(pack) - 10)  # gridworld payloads are ~1 KB

    run(cut, "pbt")
    assert records(cut) == records(full)
    assert os.listdir(cut / "checkpoints") == [PACK_NAME]
    for rec in journal(cut).of_type("trial"):
        assert read_checkpoint(rec["ckpt"]) == read_checkpoint(
            str(full / "checkpoints" / os.path.basename(rec["ckpt"]))
        )


@pytest.mark.parametrize("where", ["same", "new"])
def test_parallel_resume_reads_checkpoints_while_the_pack_grows(tmp_path, where):
    """Worker threads read replayed checkpoints from a pack while the calling
    thread appends to its own; more workers than cores and frequent thread
    switches give a lost update or a torn read every chance to show."""
    full, cut = tmp_path / "full", tmp_path / "cut"
    run(full, "pbt")
    interrupted(cut, "pbt", 4, max_groups=len(journal(full).of_type("group")) // 4)
    target = cut if where == "same" else tmp_path / "resumed"
    if where == "new":
        os.makedirs(target)
        shutil.copy(cut / JOURNAL_NAME, target / JOURNAL_NAME)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run(target, "pbt", workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert records(target) == records(full)
