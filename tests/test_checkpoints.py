import json
import os
import subprocess
import sys

import pytest

import autotune
from autotune.checkpoints import PACK_NAME, CheckpointPack, PackError, read_checkpoint
from autotune.journal import Journal
from autotune.objectives import CheckpointHandle, GridworldQ, SeededValley
from autotune.runner import TrialRunner
from autotune.space import Configuration

GRID_CONFIG = {"learning_rate": 0.3, "epsilon": 0.2, "gamma": 0.95, "epsilon_decay": 0.99}


def write_pack(directory, frames):
    pack = CheckpointPack.open_for_append(str(directory))
    paths = [pack.append(name, payload) for name, payload in frames]
    pack.flush()
    pack.close()
    return paths


def test_frames_round_trip_and_the_later_frame_wins(tmp_path):
    frames = [("a.ckpt", b"first"), ("b.ckpt", b"line\nbreaks\n"), ("a.ckpt", b"second")]
    paths = write_pack(tmp_path, frames)
    assert paths == [str(tmp_path / name) for name, _ in frames]
    assert os.listdir(tmp_path) == [PACK_NAME]
    assert read_checkpoint(paths[0]) == b"second"
    assert read_checkpoint(paths[1]) == b"line\nbreaks\n"
    with open(tmp_path / PACK_NAME, "rb") as fh:
        first_line = fh.readline()
    assert json.loads(first_line) == {"name": "a.ckpt", "size": 5}
    assert first_line == json.dumps({"name": "a.ckpt", "size": 5}).encode() + b"\n"


def test_empty_payload_round_trips(tmp_path):
    [path] = write_pack(tmp_path, [("empty.ckpt", b"")])
    assert read_checkpoint(path) == b""
    appended = CheckpointPack.open_for_append(str(tmp_path))
    appended.append("after.ckpt", b"x")
    assert appended.read("empty.ckpt") == b""
    assert appended.read("after.ckpt") == b"x"  # readable before an explicit flush
    appended.close()

    # through the runner: a valley trial's checkpoint is empty, and it resolves
    runner = TrialRunner(SeededValley(), seeds=[0], checkpoint_dir=str(tmp_path / "ckpts"))
    res = runner.evaluate_group(Configuration({"x0": 0.3, "x1": 0.6}), 0.5)
    runner.close()
    [trial] = runner.journal.of_type("trial")
    handle = CheckpointHandle(key="k", trained_fraction=trial["frac"], path=trial["ckpt"])
    assert handle.load() == b"" == res.checkpoints[0].payload


def test_missing_checkpoint_is_an_error(tmp_path):
    [path] = write_pack(tmp_path, [("a.ckpt", b"1")])
    with pytest.raises(PackError, match="no checkpoint 'b.ckpt'"):
        read_checkpoint(os.path.join(os.path.dirname(path), "b.ckpt"))
    with pytest.raises(PackError, match="no checkpoint pack"):
        read_checkpoint(str(tmp_path / "elsewhere" / "a.ckpt"))


@pytest.mark.parametrize("cut", [1, 4, 7, 12])  # inside the payload, then the header
def test_torn_last_frame_is_ignored_on_read_and_trimmed_on_append(tmp_path, cut):
    paths = write_pack(tmp_path, [("a.ckpt", b"alpha"), ("b.ckpt", b"beta!")])
    pack_path = tmp_path / PACK_NAME
    whole = os.path.getsize(pack_path)
    os.truncate(pack_path, whole - cut)

    assert read_checkpoint(paths[0]) == b"alpha"
    with pytest.raises(PackError):
        read_checkpoint(paths[1])
    assert os.path.getsize(pack_path) == whole - cut  # reading changes nothing

    pack = CheckpointPack.open_for_append(str(tmp_path))
    assert pack.warnings and "torn" in pack.warnings[0]
    pack.append("b.ckpt", b"again")
    pack.flush()
    pack.close()
    assert read_checkpoint(paths[0]) == b"alpha"
    assert read_checkpoint(paths[1]) == b"again"


def test_bad_frame_header_is_an_error(tmp_path):
    write_pack(tmp_path, [("a.ckpt", b"alpha")])
    with open(tmp_path / PACK_NAME, "ab") as fh:
        fh.write(b"not a header\n")
    with pytest.raises(PackError, match="bad frame header"):
        CheckpointPack.open_for_append(str(tmp_path))


def test_crash_after_journal_append_leaves_every_checkpoint_loadable(tmp_path):
    """Kill the writing process right after a group's journal records land."""
    path = str(tmp_path / "journal.log")
    ckpt_dir = str(tmp_path / "checkpoints")
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(autotune.__file__)))
    crash_code = 57
    budgets = [0.25, 0.5, 1.0]
    script = f"""
import os, sys
sys.path.insert(0, {json.dumps(package_root)})
from autotune.journal import Journal
from autotune.objectives import GridworldQ
from autotune.runner import TrialRunner
from autotune.space import Configuration
j = Journal.create({json.dumps(path)})
j.write_header({{"method": "adhoc"}})
runner = TrialRunner(GridworldQ(total_steps=200), seeds=[0, 1], journal=j,
                     checkpoint_dir={json.dumps(ckpt_dir)})
for budget in {budgets!r}:
    runner.evaluate_group(Configuration({GRID_CONFIG!r}), budget)
os._exit({crash_code})  # no close of the journal or the pack
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.stderr == ""
    assert proc.returncode == crash_code
    trials = Journal.load(path).of_type("trial")
    assert len(trials) == 2 * len(budgets)
    objective = GridworldQ(total_steps=200)
    for trial in trials:
        _, fresh = objective.evaluate(Configuration(GRID_CONFIG), trial["budget"], trial["seed"])
        handle = CheckpointHandle(key="k", trained_fraction=trial["frac"], path=trial["ckpt"])
        assert handle.load() == fresh.payload


def test_replayed_handles_read_through_the_runners_pack(tmp_path):
    ckpt_dir = str(tmp_path / "checkpoints")
    journal = Journal.create(str(tmp_path / "journal.log"))
    journal.write_header({"method": "adhoc"})
    runner = TrialRunner(GridworldQ(total_steps=200), [0, 1], journal=journal,
                         checkpoint_dir=ckpt_dir)
    live = runner.evaluate_group(Configuration(GRID_CONFIG), 0.5)
    runner.close()
    journal.close()

    resumed = Journal.open_for_resume(str(tmp_path / "journal.log"))
    resumed.write_header({"method": "adhoc"})
    runner = TrialRunner(GridworldQ(total_steps=200), [0, 1], journal=resumed,
                         checkpoint_dir=ckpt_dir)
    replayed = runner.evaluate_group(Configuration(GRID_CONFIG), 0.5)
    packs = [h.pack for h in replayed.checkpoints.values()]
    assert packs[0] is not None and all(p is packs[0] for p in packs)  # one index
    for seed, handle in replayed.checkpoints.items():
        assert handle.payload is None
        assert handle.load() == live.checkpoints[seed].payload
    runner.close()
    resumed.close()
