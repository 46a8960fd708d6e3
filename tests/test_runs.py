"""The exports ``tune`` writes from memory equal ``report`` run afterwards."""
import gc
import os
import shutil
import weakref

import pytest

from autotune.cli import main
from autotune.journal import Journal
from autotune.runs import JOURNAL_NAME, TuneExports

SPACE_TEXT = """\
lr: log(1e-05, 1.0)
momentum: (0.0, 0.99)
layers: int[1, 8]
activation: {relu, tanh, gelu}
"""
COMMON = ["--objective", "seeded_valley", "--objective-param", "sigma=0.25",
          "--tuning-seeds", "0,1,2", "--test-seeds", "5..7", "--rng-seed", "4"]
METHODS = {
    "rs": ["rs", "--budget-runs", "4"],
    "dehb": ["dehb", "--budget-runs", "8"],
    "pbt-gp": ["pbt", "--explore", "gp", "--population", "8", "--intervals", "4",
               "--budget-runs", "8"],
}


@pytest.fixture
def space(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text(SPACE_TEXT)
    return str(path)


def tune(space, out, method="rs", *extra):
    assert main(["tune", *METHODS[method], *COMMON, "--space", space, "--out", str(out),
                 *extra]) == 0


def files(directory):
    exports = os.path.join(directory, "exports")
    out = {}
    for name in sorted(os.listdir(exports)):
        with open(os.path.join(exports, name), "rb") as fh:
            out[name] = fh.read()
    return out


def assert_report_matches(out):
    """``out``'s exports equal those ``report trials`` and ``report
    incumbents`` write from disk into an empty exports directory."""
    written = files(out)
    shutil.rmtree(os.path.join(out, "exports"))
    assert main(["report", "trials", str(out)]) == 0
    assert main(["report", "incumbents", str(out)]) == 0
    assert files(out) == written
    return written


@pytest.mark.parametrize("method", sorted(METHODS))
def test_fresh_run(space, tmp_path, method):
    tune(space, tmp_path / "run", method)
    written = assert_report_matches(tmp_path / "run")
    assert sorted(written) == ["incumbents.csv", "trials.csv"]
    assert written["trials.csv"].count(b"\n") > 10


@pytest.mark.parametrize("method", ["dehb", "pbt-gp"])
def test_resumed_from_a_cut_journal(space, tmp_path, method):
    tune(space, tmp_path / "full", method)
    src = tmp_path / "full" / "rep000"
    dst = tmp_path / "cut" / "rep000"
    shutil.copytree(src, dst)
    with open(dst / JOURNAL_NAME, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    groups = [i for i, line in enumerate(lines) if '"t": "group"' in line]
    cut = groups[len(groups) // 2]
    # half of the groups, one trial of the next, and a torn line
    with open(dst / JOURNAL_NAME, "w", encoding="utf-8") as fh:
        fh.writelines(lines[: cut + 2])
        fh.write('{"t": "tri')
    tune(space, tmp_path / "cut", method)
    written = assert_report_matches(tmp_path / "cut")
    full = files(tmp_path / "full")
    assert sorted(written) == sorted(full)
    assert written["incumbents.csv"] == full["incumbents.csv"]


def test_two_repetitions(space, tmp_path):
    tune(space, tmp_path / "run", "rs", "--repetitions", "2")
    written = assert_report_matches(tmp_path / "run")
    assert sorted(written) == ["incumbents.csv", "trials_rep000.csv", "trials_rep001.csv"]
    assert written["incumbents.csv"].count(b"\n") == 3


def test_out_already_holding_another_repetition(space, tmp_path):
    tune(space, tmp_path / "other", "dehb", "--repetitions", "2")
    os.makedirs(tmp_path / "run")
    shutil.copytree(tmp_path / "other" / "rep001", tmp_path / "run" / "rep007")
    shutil.copytree(tmp_path / "other" / "rep000", tmp_path / "run" / "rep_dehb")
    tune(space, tmp_path / "run", "rs")
    written = assert_report_matches(tmp_path / "run")
    assert sorted(written) == [
        "incumbents.csv", "trials_rep000.csv", "trials_rep007.csv", "trials_rep_dehb.csv",
    ]
    rows = written["incumbents.csv"].decode().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["dehb", "dehb", "rs"]


def test_exports_keep_no_journal(space, tmp_path):
    tune(space, tmp_path / "run", "rs")
    journal = Journal.load(os.path.join(tmp_path, "run", "rep000", JOURNAL_NAME))
    exports = TuneExports(str(tmp_path / "run"), [])
    alive = weakref.ref(journal)
    exports.add(exports.directories[0], journal)
    del journal
    gc.collect()
    assert alive() is None
    exports.close()
