"""Resumed runs in file-backed run directories equal uninterrupted ones."""
import json
import multiprocessing
import os
import shutil
import sys

import pytest

from autotune.checkpoints import PACK_NAME, CheckpointPack
from autotune.journal import Journal
from autotune.objectives import GridworldQ, ObjectiveSpec
from autotune.protocol import MethodSpec, SeedPlan
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
    "pbt-gp-warmstart": (MethodSpec("pbt", name="pbt-gp", options={
        **PBT, "explore_mode": "gp", "warmstart_runs": 2}), 6),
}
RESUMED = [method for method in METHODS if method != "pbt-gp-warmstart"]


EVALUATE = GridworldQ.evaluate


def run(directory, method, workers=1, rng_seed=7, objective=OBJECTIVE):
    spec, budget = METHODS[method]
    return run_repetition(
        str(directory), spec, SPACE_TEXT, objective, SEEDS, budget, rng_seed=rng_seed,
        repetition=0, workers=workers,
    )


class CtrlC:
    """Counts the gridworld evaluations this process makes; the one that
    brings them to ``stop_at`` raises KeyboardInterrupt, as Ctrl-C would.
    Worker processes never raise."""

    def __init__(self):
        self.pid, self.calls, self.stop_at = os.getpid(), 0, None

    def evaluate(self, objective, *args, **kwargs):
        if os.getpid() == self.pid:
            self.calls += 1
            if self.calls == self.stop_at:
                raise KeyboardInterrupt
        return EVALUATE(objective, *args, **kwargs)


@pytest.fixture
def ctrl_c(monkeypatch):
    interrupter = CtrlC()
    monkeypatch.setattr(GridworldQ, "evaluate",
                        lambda objective, *a, **kw: interrupter.evaluate(objective, *a, **kw))
    return interrupter


def journal(directory):
    return Journal.load(os.path.join(directory, JOURNAL_NAME))


def read_checkpoint(path):
    """The payload of the checkpoint at ``path``, from one scan of its pack."""
    pack = CheckpointPack(os.path.dirname(path))
    try:
        return pack.read(os.path.basename(path))
    finally:
        pack.close()


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


def interrupted(directory, method, workers, ctrl_c, share):
    """Run ``method`` in ``directory`` until Ctrl-C arrives in the first
    evaluation past ``share`` of those this process makes in a run at
    ``workers`` that is not interrupted."""
    uninterrupted = f"{directory}-uninterrupted"
    ctrl_c.calls = 0
    run(uninterrupted, method, workers)
    ctrl_c.calls, ctrl_c.stop_at = 0, int(ctrl_c.calls * share) + 1
    try:
        with pytest.raises(KeyboardInterrupt):
            run(directory, method, workers)
    finally:
        ctrl_c.stop_at = None
    assert multiprocessing.active_children() == []
    groups = len(journal(directory).of_type("group"))
    assert 0 < groups < len(journal(uninterrupted).of_type("group"))


@pytest.mark.parametrize("method", METHODS)
def test_parallel_journal_equals_the_sequential_one(tmp_path, method):
    run(tmp_path / "w1", method, workers=1)
    run(tmp_path / "w2", method, workers=2)
    assert records(tmp_path / "w2") == records(tmp_path / "w1")
    # a promotion trains on in the process that trained its lower rung, or
    # from step 0 in another, to the same payloads
    packs = [(tmp_path / w / "checkpoints" / PACK_NAME).read_bytes() for w in ("w1", "w2")]
    assert packs[0] == packs[1]
    for directory in ("w1", "w2"):
        groups = journal(tmp_path / directory).of_type("group")
        assert [g["group"] for g in groups] == list(range(len(groups)))
        # a checkpoint's fraction is the budget of the group that wrote it
        for trial in journal(tmp_path / directory).of_type("trial"):
            assert trial["frac"] == groups[trial["group"]]["budget"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method", RESUMED)
def test_resume_from_a_cut_journal_in_a_new_directory(tmp_path, method, workers, ctrl_c):
    full, cut, resumed = tmp_path / "full", tmp_path / "cut", tmp_path / "resumed"
    run(full, method, workers)
    expected = records(full)
    interrupted(cut, method, workers, ctrl_c, share=1 / 2)
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


def frames(directory):
    """Each frame name the journal in ``directory`` records, with the payload
    that directory's own pack holds under it."""
    names = [os.path.basename(rec["ckpt"]) for rec in journal(directory).of_type("trial")]
    return {name: read_checkpoint(str(directory / "checkpoints" / name)) for name in names}


def test_a_copied_run_resumes_from_its_own_pack_after_the_original_is_replaced(tmp_path):
    # at the default 2,000 steps, a resume from the wrong frames changes
    # trial costs as well as frames
    objective = ObjectiveSpec("gridworld_q", {})
    original, copy = tmp_path / "original", tmp_path / "copy"
    run(original, "pbt", objective=objective)
    expected, expected_frames = records(original), frames(original)
    shutil.copytree(original, copy)
    path = copy / JOURNAL_NAME
    lines = path.read_text().splitlines(keepends=True)
    ends = [i for i, line in enumerate(lines) if json.loads(line)["t"] == "group"]
    path.write_text("".join(lines[: ends[5] + 1]))  # the copy is cut after 6 groups
    # another run now packs other payloads under the names the copy's journal
    # records in the original directory
    shutil.rmtree(original)
    run(original, "pbt", rng_seed=5, objective=objective)
    assert frames(original) != expected_frames

    run(copy, "pbt", objective=objective)
    assert records(copy) == expected
    assert frames(copy) == expected_frames


def test_resume_trims_a_pack_cut_inside_its_last_frame(tmp_path, ctrl_c):
    full, cut = tmp_path / "full", tmp_path / "cut"
    run(full, "pbt")
    interrupted(cut, "pbt", 1, ctrl_c, share=1 / 2)
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
def test_parallel_resume_reads_checkpoints_while_the_pack_grows(tmp_path, where, ctrl_c):
    """The calling process reads replayed checkpoints from a pack, and sends
    them to its worker processes, while it appends to its own pack; asking
    for more workers than cores must not change the journal. The short
    switch interval dates from when the workers were threads."""
    full, cut = tmp_path / "full", tmp_path / "cut"
    run(full, "pbt")
    interrupted(cut, "pbt", 4, ctrl_c, share=1 / 4)
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
