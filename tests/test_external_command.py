"""ExternalCommand ends every process a timed-out command started, refuses
a program it cannot find and a parameter that would replace a variable of
the command's environment, and fails the trial of a program that cannot
start."""
import os
import signal
import time

import pytest

from autotune.objectives import EvaluationError, ExternalCommand
from autotune.runner import TrialRunner
from autotune.space import ConfigSpace, Configuration, continuous


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie waiting to be reaped does not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return not os.path.isdir("/proc")


def test_timeout_kills_the_children_of_the_command(tmp_path):
    obj = ExternalCommand(
        "sh -c 'sleep 30 & echo $! > pidfile; wait'",
        workdir=str(tmp_path),
        timeout=0.2,
    )
    t0 = time.monotonic()
    with pytest.raises(EvaluationError, match="timed out"):
        obj.evaluate(Configuration({"x": 0.5}), 1.0, 0)
    assert time.monotonic() - t0 < 10.0  # not the 30 s the child sleeps
    pid = int((tmp_path / "pidfile").read_text())
    try:
        deadline = time.monotonic() + 5.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _alive(pid)
    finally:
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)



def script(path, body="echo cost=1\n"):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return path


def test_a_program_that_cannot_be_found_is_refused_when_built(tmp_path):
    with pytest.raises(ValueError, match="'no_such_prog'"):
        ExternalCommand("no_such_prog --flag")
    script(tmp_path / "cost.sh")
    ExternalCommand("./cost.sh", workdir=str(tmp_path))  # found relative to workdir
    with pytest.raises(ValueError, match="'./cost.sh'"):
        ExternalCommand("./cost.sh", workdir=str(tmp_path / "elsewhere"))


def test_a_program_removed_after_it_was_found_fails_its_trial(tmp_path):
    path = script(tmp_path / "cost.sh")
    runner = TrialRunner(ExternalCommand(str(path)), [0, 1])
    path.unlink()
    result = runner.evaluate_group(Configuration({"x": 0.5}), 1.0)
    assert result.failed and result.per_seed_cost == [None, None]
    for trial in runner.journal.of_type("trial"):
        assert trial["error"].startswith("command could not start: ")


def test_a_parameter_that_would_replace_the_commands_environment_is_refused(monkeypatch):
    monkeypatch.delenv("LR", raising=False)
    monkeypatch.setenv("PATH", os.environ.get("PATH", os.defpath))
    lr = ConfigSpace([continuous("lr", 0.0, 1.0)])
    ExternalCommand("true", space=lr)
    monkeypatch.setenv("LR", "0.5")
    with pytest.raises(ValueError, match="'lr' would replace .* LR"):
        ExternalCommand("true", space=lr)
    for name in ("path", "autotune_seed", "Autotune_Budget", "AUTOTUNE_CHECKPOINT"):
        with pytest.raises(ValueError, match=name.upper()):
            ExternalCommand("true", space=ConfigSpace([continuous(name, 0.0, 1.0)]))
