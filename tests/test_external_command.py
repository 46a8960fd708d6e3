"""ExternalCommand ends every process a timed-out command started."""
import os
import signal
import time

import pytest

from autotune.objectives import EvaluationError, ExternalCommand
from autotune.space import Configuration


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

