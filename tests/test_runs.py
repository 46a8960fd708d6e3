"""The exports ``tune`` writes from memory equal ``report`` run afterwards."""
import csv
import gc
import hashlib
import io
import math
import os
import shutil
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotune.cli import main
from autotune.journal import Journal
from autotune.runs import JOURNAL_NAME, TuneExports, trials_csv
from autotune.space import parse_space

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


def _trials_journal():
    """A journal whose consecutive groups hold equal values that print apart
    (1 and 1.0 and True, 0.0 and -0.0), a categorical value holding a comma
    and one holding a quote, a failed trial and a missing parameter."""
    j = Journal()
    j.write_header({"method": "x", "space_text": SPACE_TEXT})
    configs = [
        {"lr": 0.001, "momentum": 0.0, "layers": 1, "activation": "relu,tanh"},
        {"lr": 0.001, "momentum": -0.0, "layers": 1.0, "activation": "relu,tanh"},
        {"lr": 0.001, "momentum": -0.0, "layers": True, "activation": 'say "gelu"'},
        {"lr": 1e-05, "momentum": 0.5, "activation": "relu"},
    ]
    for group, config in enumerate(configs):
        for seed in (0, 1):
            failed = group == 3 and seed == 1
            j.append({"t": "trial", "group": group, "config": config, "budget": 0.25,
                      "seed": seed, "cost": None if failed else group + seed / 3,
                      "status": "failed" if failed else "done", "wall_time": 0.125 * seed})
        j.append({"t": "group", "group": group, "config": config})
    return j


# sha256 of trials_csv(_trials_journal()), as the code wrote it when it read
# every row's parameters from its own record
TRIALS_CSV_DIGEST = "e9fc3cb4a43406fb3c06e8d324005059407cc1de9c356c2ea8b4676d5955c398"


def test_trials_csv_keeps_its_pinned_bytes():
    text = trials_csv(_trials_journal())
    assert hashlib.sha256(text.encode()).hexdigest() == TRIALS_CSV_DIGEST
    rows = list(csv.reader(io.StringIO(text)))
    assert [[row[2], row[4]] for row in rows[1:7]] == [  # layers, momentum
        ["1", "0.0"], ["1", "0.0"], ["1.0", "-0.0"], ["1.0", "-0.0"],
        ["True", "-0.0"], ["True", "-0.0"],
    ]
    assert rows[1][1] == "relu,tanh" and rows[5][1] == 'say "gelu"' and rows[7][2] == ""


def _reference_trials_csv(journal):
    """trials_csv as it was when every row went through csv.writer."""
    trials = journal.of_type("trial")
    params = sorted({k for r in trials for k in r["config"]}) or sorted(
        parse_space(journal.header["space_text"]).names
    )
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["seq", *params, "budget", "seed", "cost", "status", "wall_time"])
    group = None
    for r in trials:
        if r["group"] != group:
            group = r["group"]
            cells = []
            for p in params:
                value = r["config"].get(p, "")
                cells.append("" if value is None else
                             repr(value) if isinstance(value, float) else str(value))
        w.writerow([r["seq"], *cells, repr(r["budget"]), r["seed"],
                    "" if r["cost"] is None else repr(r["cost"]), r["status"],
                    repr(r["wall_time"])])
    return buf.getvalue()


def _journal_of(space_text, groups):
    """A journal holding, for each (config, trials) of ``groups``, a trial
    record per dict in ``trials``, which holds the fields that differ from a
    runner's trial, and a group record."""
    records = []
    for group, (config, trials) in enumerate(groups):
        for trial in trials:
            records.append({"t": "trial", "group": group, "config": config,
                            "seq": len(records) + 1, "budget": 0.5, "seed": 0, "cost": 0.25,
                            "status": "done", "wall_time": 1e-05, **trial})
        records.append({"t": "group", "group": group, "config": config, "seq": len(records) + 1})
    return Journal(header={"t": "header", "space_text": space_text}, records=records)


_ODD_TRIALS = [
    {"cost": None, "status": "failed"}, {"cost": 3}, {"cost": np.float64(0.1)},
    {"status": "pruned"}, {"status": 'a,"b"\n'}, {"budget": 1}, {"wall_time": np.float64(2.5)},
    {"seed": True}, {"seq": "7"}, {"cost": -0.0, "budget": math.inf, "wall_time": math.nan},
    # fields whose text needs quoting
    {"seq": "7,8"}, {"seed": "1,2"}, {"budget": [0.5, 1]}, {"cost": "x,y"}, {"wall_time": "a,b"},
]


@pytest.mark.parametrize("space_text, groups", [
    (SPACE_TEXT, [
        ({"lr": 0.001, "momentum": -0.0, "layers": 3, "activation": "relu,tanh"}, [{}, {}]),
        ({"lr": 1e-05, "layers": 1.0, "activation": 'say "gelu"'}, _ODD_TRIALS),
        ({"lr": None, "momentum": 0.5, "layers": True, "activation": "line\nbreak\r"}, [{}]),
        ({}, [{}, {"cost": None, "status": "failed"}]),
    ]),
    ("lr: log(1e-05, 1.0)\n", [({"lr": 0.5}, [{}]), ({}, [{}, *_ODD_TRIALS]),
                               ({"lr": ""}, [{}]), ({"lr": "a,b"}, [{}])]),
    ("activation: {relu, tanh}\n", [({}, [{}])]),  # every cell from the space, empty
], ids=["four-params", "one-param", "one-param-from-space"])
def test_trials_csv_writes_what_csv_writer_writes(space_text, groups):
    journal = _journal_of(space_text, groups)
    assert trials_csv(journal) == _reference_trials_csv(journal)


_cell_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(alphabet=' a,"\n\r\'é', max_size=5),
)


@settings(max_examples=100, deadline=None)
@given(names=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True),
       data=st.data())
def test_trials_csv_writes_what_csv_writer_writes_for_any_values(names, data):
    groups = []
    for _ in range(data.draw(st.integers(1, 4))):
        config = data.draw(st.dictionaries(st.sampled_from(names), _cell_values))
        trials = data.draw(st.lists(st.fixed_dictionaries({}, optional={
            "cost": st.one_of(st.none(), st.floats(), st.integers()),
            "status": st.sampled_from(["done", "failed", "x,y"]),
            "budget": st.floats(), "wall_time": st.floats(),
        }), min_size=1, max_size=3))
        groups.append((config, trials))
    journal = _journal_of("".join(f"{n}: (0.0, 1.0)\n" for n in names), groups)
    assert trials_csv(journal) == _reference_trials_csv(journal)
