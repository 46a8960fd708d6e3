"""``cli.main`` exit codes: 0 success, 2 usage error, 3 objective failure,
4 journal corruption; and the journal a worker pool writes."""
import argparse
import csv
import gc
import hashlib
import io
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import warnings

import pytest

import autotune
from autotune.cli import EXIT_CORRUPT, EXIT_OBJECTIVE, EXIT_OK, EXIT_USAGE, build_parser, main
from autotune.journal import Journal
from autotune.protocol import MethodSpec
from autotune.runs import JOURNAL_NAME

SPACE_TEXT = """\
lr: log(1e-05, 1.0)
momentum: (0.0, 0.99)
layers: int[1, 8]
activation: {relu, tanh, gelu}
"""
VALLEY = ["--objective", "seeded_valley", "--objective-param", "sigma=0.25"]
SEEDS = ["--tuning-seeds", "0,1", "--test-seeds", "5,6"]


@pytest.fixture
def space(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text(SPACE_TEXT)
    return str(path)


def tune(space, out, *args):
    return main(["tune", *args, "--space", space, "--out", str(out)])


def journal(out):
    return Journal.load(os.path.join(out, "rep000", JOURNAL_NAME))


def test_fresh_run_exits_0(space, tmp_path, capsys):
    sphere = ["--objective", "noisy_sphere", "--objective-param", "shift_sigma=0.2"]
    for name, objective in (("valley", VALLEY), ("sphere", sphere)):
        out = tmp_path / name
        assert tune(space, out, "rs", *objective, *SEEDS, "--budget-runs", "3") == EXIT_OK
        assert "repetition 0: incumbent cost" in capsys.readouterr().out
        assert journal(out).spend() == 3.0


def test_overlapping_seeds_exit_2(space, tmp_path, capsys):
    out = tmp_path / "run"
    rc = tune(space, out, "rs", *VALLEY, "--tuning-seeds", "0,1", "--test-seeds", "1,2")
    assert rc == EXIT_USAGE
    assert "overlap" in capsys.readouterr().err
    assert not out.exists()


def test_budget_below_one_dehb_iteration_exits_2_and_writes_nothing(space, tmp_path, capsys):
    out = tmp_path / "run"
    assert tune(space, out, "dehb", *VALLEY, *SEEDS, "--budget-runs", "6") == EXIT_USAGE
    assert "less than one DEHB iteration" in capsys.readouterr().err
    assert not out.exists()


def test_overspent_budget_fails_the_audit_before_testing(space, tmp_path, capsys):
    # the plan's spend is known before the first evaluation, so nothing is written
    seeds = ["--tuning-seeds", "0", "--test-seeds", "5"]
    for i, args in enumerate(
        (["dehb", "--iterations", "10", "--budget-runs", "2"], ["pbt", "--budget-runs", "1"])
    ):
        out = tmp_path / f"run{i}"
        assert tune(space, out, *args, *VALLEY, *seeds) == EXIT_USAGE
        assert "exceeds the budget" in capsys.readouterr().err
        assert not out.exists()


VALLEY4 = ["--objective", "seeded_valley", "--budget-runs", "4", *SEEDS]
LADDER = ["--min-budget", "0.25", "--eta", "2"]


@pytest.mark.parametrize(
    "bad, good",
    [
        (["pbt", "--population", "1"], ["pbt", "--population", "2"]),
        (["pbt", "--intervals", "0"], ["pbt", "--intervals", "2"]),
        (["dehb", *LADDER, "--iterations", "0"], ["dehb", *LADDER, "--iterations", "1"]),
        (["pbt", "--quantile", "0.9"], ["pbt", "--quantile", "0.5"]),
        (["pbt", "--factor-up", "-1"], ["pbt", "--factor-up", "1.5"]),
        (["pbt", "--resample-prob", "2"], ["pbt", "--resample-prob", "0.5"]),
        (["pbt", "--explore", "gp", "--restart-patience", "0", "--intervals", "6"],
         ["pbt", "--explore", "gp", "--restart-patience", "1", "--intervals", "6"]),
        (["pbt", "--warmstart-runs", "-1"], ["pbt", "--warmstart-runs", "1"]),
        (["dehb", *LADDER, "--de-f", "-3"], ["dehb", *LADDER, "--de-f", "2"]),
        (["dehb", *LADDER, "--de-cr", "5"], ["dehb", *LADDER, "--de-cr", "1"]),
        (["pbt", "--explore-prob", "7"], ["pbt", "--explore-prob", "0"]),
        # a run of no repetitions used to end in "no journals under DIR", exit 4
        (["rs", "--repetitions", "0"], ["rs", "--repetitions", "1"]),
        # the runner used to run -3 workers as 1
        (["rs", "--workers", "-3"], ["rs", "--workers", "1"]),
    ],
    ids=["population", "intervals", "iterations", "quantile", "factor-up", "resample-prob",
         "restart-patience", "warmstart-runs", "de-f", "de-cr", "explore-prob", "repetitions",
         "workers"],
)
def test_a_tuner_setting_out_of_range_exits_2_before_writing(space, tmp_path, capsys, bad, good):
    out = tmp_path / "run"
    assert tune(space, out, *bad, *VALLEY4) == EXIT_USAGE
    assert " must be " in capsys.readouterr().err
    assert not out.exists()
    assert tune(space, out, *good, *VALLEY4) == EXIT_OK


def test_budget_audit_fails_before_testing(space, tmp_path, capsys, monkeypatch):
    plan = MethodSpec.plan
    monkeypatch.setattr(MethodSpec, "plan", lambda self, budget_runs: plan(self, 100))
    out = tmp_path / "run"
    rc = tune(space, out, "dehb", *VALLEY, "--tuning-seeds", "0", "--test-seeds", "5",
              "--iterations", "10", "--budget-runs", "2")
    assert rc == EXIT_USAGE
    assert "budget audit failed" in capsys.readouterr().err
    groups = journal(out).of_type("group")
    assert groups and all(g["purpose"] == "tune" for g in groups)
    assert not os.path.exists(out / "exports")


def test_unknown_objective_parameter_exits_2_and_writes_nothing(space, tmp_path, capsys):
    out = tmp_path / "run"
    rc = tune(space, out, "rs", "--objective", "seeded_valley", "--objective-param", "bogus=1")
    assert rc == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()


def test_a_descending_seed_range_exits_2_before_writing(space, tmp_path, capsys):
    # "0,3..1" used to tune on seed 0 alone
    out = tmp_path / "run"
    rc = tune(space, out, "rs", *VALLEY, "--tuning-seeds", "0,3..1", "--test-seeds", "5")
    assert rc == EXIT_USAGE
    assert "'3..1'" in capsys.readouterr().err
    assert not out.exists()
    assert tune(space, out, "rs", *VALLEY, "--tuning-seeds", "0,1..3", "--test-seeds", "5",
                "--budget-runs", "2") == EXIT_OK


@pytest.mark.parametrize(
    "objective, param",
    [("seeded_valley", "sigma=nan"), ("seeded_valley", "sigma=inf"),
     ("seeded_valley", "noise=-inf"), ("noisy_sphere", "shift_sigma=nan"),
     ("noisy_sphere", "noise=inf")],
)
def test_a_non_finite_objective_parameter_exits_2_before_writing(
    space, tmp_path, capsys, objective, param
):
    out = tmp_path / "run"
    rc = tune(space, out, "rs", "--objective", objective, "--objective-param", param,
              *SEEDS, "--budget-runs", "2")
    assert rc == EXIT_USAGE
    assert f"{param.split('=')[0]} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["20.7", "inf", "-inf", "nan", "1e400"])
def test_a_fractional_or_non_finite_total_steps_exits_2_before_writing(tmp_path, capsys, value):
    # 20.7 trained 20 steps under a header that said 20.7; inf raised OverflowError
    space = tmp_path / "g.txt"
    space.write_text(GRIDWORLD_SPACE)
    out = tmp_path / "run"
    rc = tune(str(space), out, "rs", "--objective", "gridworld_q", "--objective-param",
              f"total_steps={value}", *SEEDS, "--budget-runs", "2")
    assert rc == EXIT_USAGE
    assert "total_steps must be a whole number" in capsys.readouterr().err
    assert not out.exists()


def sweep(space, out, values):
    return main(["sweep", "--space", space, "--objective", "seeded_valley", "--param", "layers",
                 "--values", values, "--seeds", "0,1", "--out", str(out)])


def test_sweep_refuses_a_non_integral_value_for_an_integer_parameter(space, tmp_path, capsys):
    # 2.7 used to be truncated to 2 and swept as 2
    out = tmp_path / "sweep"
    assert sweep(space, out, "2.7,3") == EXIT_USAGE
    assert "'2.7'" in capsys.readouterr().err
    assert not out.exists()
    assert sweep(space, out, "2.0,3") == EXIT_OK
    [path] = out.glob("sweep_*.csv")
    rows = csv.DictReader(io.StringIO(path.read_text()))
    assert [row["value"] for row in rows if row["seed"] == "0"] == ["2", "3"]


@pytest.mark.parametrize(
    "base, value",
    # a choice is text, 3.0 is an integer's 3, and 0 is a continuous 0.0,
    # whose digest differs from the int 0's
    [("bs=32", "32"), ("layers=3.0", 3), ("momentum=0", 0.0)],
)
def test_sweep_base_values_take_their_parameter_kind(tmp_path, base, value):
    space = tmp_path / "space.txt"
    space.write_text("bs: {16, 32, 64}\nlayers: int[1, 8]\nmomentum: (0.0, 0.99)\n")
    out = tmp_path / "run"
    assert main(["sweep", "--space", str(space), "--objective", "seeded_valley", "--param", "bs",
                 "--values", "16,64", "--seeds", "0", "--base", base, "--out", str(out)]) == EXIT_OK
    header = Journal.load(str(out / "sweeps" / "seeded_valley_bs" / JOURNAL_NAME)).header
    got = header["base"][base.split("=")[0]]
    assert got == value and type(got) is type(value)


SWEEP = ["sweep", "--objective", "seeded_valley", "--param", "momentum", "--values", "0.1,0.5",
         "--seeds", "0,1"]
SWEEP_CSV = "sweep_seeded_valley_momentum.csv"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--param", "decay"], "unknown parameter 'decay'"),
        (["--values", ","], "value list must be non-empty"),
        (["--values", "0.1,0.1"], "sweep values must be distinct"),
        (["--values", "0.1,1.5"], "momentum: value 1.5 outside"),
        (["--seeds", "0,0"], "seeds must be non-empty and distinct"),
        (["--seeds", "3..1"], "'3..1'"),
        (["--budget", "0"], "budget must lie in (0, 1]"),
        (["--base", "lr=2.0"], "lr: value 2.0 outside"),
        (["--base", "decay=0.5"], "unknown parameters in configuration: ['decay']"),
        (["--objective", "no_such_objective"], "unknown objective kind"),
        (["--objective-param", "bogus=1"], "bogus"),
        (["--objective", "cmd:no_such_prog"], "'no_such_prog'"),
        (["--objective", "cmd:true"], "'layers' would replace"),
    ],
)
def test_a_sweep_usage_error_exits_2_before_writing(space, tmp_path, capsys, monkeypatch,
                                                    args, message):
    monkeypatch.setenv("LAYERS", "4")  # a variable a cmd: objective would lose
    out = tmp_path / "run"
    assert main([*SWEEP, *args, "--space", space, "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "change",
    [["--values", "0.1,0.6"], ["--seeds", "0,2"], ["--base", "lr=0.01"], ["--budget", "0.5"],
     ["--objective-param", "sigma=0.5"]],
)
def test_a_changed_sweep_into_the_same_out_exits_4_and_keeps_its_table(
    space, tmp_path, capsys, change
):
    out = tmp_path / "run"
    assert main([*SWEEP, "--space", space, "--out", str(out)]) == EXIT_OK
    table = (out / SWEEP_CSV).read_bytes()
    assert main([*SWEEP, *change, "--space", space, "--out", str(out)]) == EXIT_CORRUPT
    assert "resumed run has a different header" in capsys.readouterr().err
    assert (out / SWEEP_CSV).read_bytes() == table


def test_a_sweep_beside_a_tune_run_leaves_its_reports_unchanged(space, tmp_path, capsys):
    out = tmp_path / "run"
    assert tune(space, out, "rs", *VALLEY, *SEEDS, "--budget-runs", "3") == EXIT_OK

    def reports():
        for kind in ("ranks", "incumbents"):
            assert main(["report", kind, str(out)]) == EXIT_OK
        return {name: (out / "exports" / name).read_bytes()
                for name in ("ranks.csv", "incumbents.csv")}

    before = reports()
    assert main([*SWEEP, "--space", space, "--out", str(out)]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["exports", "rep000", SWEEP_CSV, "sweeps"]
    assert reports() == before


def test_a_program_that_cannot_be_found_exits_2_before_writing(space, tmp_path, capsys):
    out = tmp_path / "run"
    assert tune(space, out, "rs", "--objective", "cmd:no_such_prog") == EXIT_USAGE
    assert "'no_such_prog' is not an executable program" in capsys.readouterr().err
    assert not out.exists()


def test_a_parameter_named_after_an_inherited_variable_exits_2_before_writing(
    space, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("MOMENTUM", "0.9")
    out = tmp_path / "run"
    assert tune(space, out, "rs", "--objective", "cmd:true") == EXIT_USAGE
    assert "environment variable MOMENTUM" in capsys.readouterr().err
    assert not out.exists()


def test_gridworld_on_a_space_without_its_parameters_exits_2_before_writing(
    space, tmp_path, capsys
):
    out = tmp_path / "run"
    assert tune(space, out, "rs", "--objective", "gridworld_q", *SEEDS) == EXIT_USAGE
    assert ("gridworld_q reads learning_rate, epsilon, gamma, epsilon_decay, which the "
            "space lacks") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("objective", ["seeded_valley", "noisy_sphere"])
def test_a_dimension_beside_a_space_exits_2_before_writing(space, tmp_path, capsys, objective):
    # the run measured in the space's 4 dimensions, and its header said 5
    out = tmp_path / "run"
    rc = tune(space, out, "rs", "--objective", objective, "--objective-param", "dimension=5",
              *SEEDS)
    assert rc == EXIT_USAGE
    assert "dimension 5 given with a space of 4 parameters" in capsys.readouterr().err
    assert not out.exists()


COMMANDS = {"tune": ["tune", "rs", *VALLEY, *SEEDS, "--budget-runs", "2"], "sweep": SWEEP}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_missing_space_file_exits_2_before_writing(tmp_path, capsys, command):
    # the FileNotFoundError used to end in a traceback and exit 1
    out = tmp_path / "run"
    space = str(tmp_path / "nope.txt")
    assert main([*COMMANDS[command], "--space", space, "--out", str(out)]) == EXIT_USAGE
    assert f"cannot read space file {space!r}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "run"])
@pytest.mark.parametrize("command", COMMANDS)
def test_an_out_at_or_below_a_file_exits_2_and_keeps_the_file(
    space, tmp_path, capsys, command, below
):
    # tune used to end in NotADirectoryError: .../afile/rep000, exit 1
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = str(afile / below)
    assert main([*COMMANDS[command], "--space", space, "--out", out]) == EXIT_USAGE
    assert f"--out {out!r} is not a directory: " in capsys.readouterr().err
    assert afile.read_text() == "kept"


@pytest.mark.parametrize("command", COMMANDS)
def test_a_run_without_out_exits_2_and_writes_nothing(space, tmp_path, monkeypatch, command):
    # tune named the run after the clock, run/<YYYYmmdd-HHMMSS>-rs, so the
    # same command resumed or not by the second it started in; sweep wrote to .
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main([*COMMANDS[command], "--space", space])
    assert err.value.code == EXIT_USAGE
    assert os.listdir(tmp_path) == ["space.txt"]


def test_no_environment_variable_names_the_run_directory(space, tmp_path, monkeypatch):
    # AUTOTUNE_RUN_DIR used to override --out
    monkeypatch.setenv("AUTOTUNE_RUN_DIR", str(tmp_path / "elsewhere"))
    for command, args in COMMANDS.items():
        assert main([*args, "--space", space, "--out", str(tmp_path / command)]) == EXIT_OK
    assert sorted(os.listdir(tmp_path)) == ["space.txt", "sweep", "tune"]


def test_deterministic_flag_is_a_usage_error(space, tmp_path):
    with pytest.raises(SystemExit) as err:
        tune(space, tmp_path / "run", "rs", *VALLEY, "--deterministic")
    assert err.value.code == EXIT_USAGE


def test_failing_command_exits_3(space, tmp_path, capsys):
    rc = tune(space, tmp_path / "run", "rs", "--objective", "cmd:false", "--budget-runs", "2",
              "--tuning-seeds", "0", "--test-seeds", "1")
    assert rc == EXIT_OBJECTIVE
    assert "every full-budget candidate failed" in capsys.readouterr().err


def test_ranks_of_a_run_whose_every_repetition_failed_exit_2(space, tmp_path):
    # the method's mean was NaN, and the band ranking never ended
    out = tmp_path / "run"
    assert tune(space, out, "rs", "--objective", "cmd:false", "--budget-runs", "2",
                "--tuning-seeds", "0", "--test-seeds", "1") == EXIT_OBJECTIVE
    src = os.path.dirname(os.path.dirname(autotune.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "autotune.cli", "report", "ranks", str(out)],
                          capture_output=True, text=True, timeout=20, env=env)
    assert done.returncode == EXIT_USAGE
    assert "external_command: rs has no finite mean and std" in done.stderr
    assert "Warning" not in done.stderr  # no mean of an empty list is taken


def failing_on_test_seeds(tmp_path, seeds):
    """An external command that exits 1 for ``seeds`` and costs ``lr`` otherwise."""
    script = tmp_path / "cost.sh"
    script.write_text("".join(f'[ "$AUTOTUNE_SEED" = {s} ] && exit 1\n' for s in seeds)
                      + 'echo "cost=$LR"\n')
    return ["--objective", f"cmd:sh {script}", "--budget-runs", "2",
            "--tuning-seeds", "0", "--test-seeds", "5,6,7"]


def test_a_failed_test_seed_leaves_tune_and_the_exports_one_result(space, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tune(space, tmp_path / "run", "rs", *failing_on_test_seeds(tmp_path, [6])) == 0
    [row] = csv.DictReader(io.StringIO((tmp_path / "run/exports/incumbents.csv").read_text()))
    # the mean over seeds 5 and 7, which cost the same
    assert float(row["test_mean"]) > 0.0 and row["test_std"] == "0.0"
    assert (f"test mean {float(row['test_mean']):.6g} +- 0, "
            in capsys.readouterr().out)


def test_a_repetition_whose_every_test_seed_failed_prints_failed(space, tmp_path, capsys):
    args = failing_on_test_seeds(tmp_path, [5, 6, 7])
    assert tune(space, tmp_path / "run", "rs", *args) == 0
    assert "repetition 0: failed\n" in capsys.readouterr().out
    [row] = csv.DictReader(io.StringIO((tmp_path / "run/exports/incumbents.csv").read_text()))
    assert row["tuning_cost"] == row["test_mean"] == ""


def test_a_resume_names_the_torn_records_it_drops_on_stderr(space, tmp_path, capsys):
    args = ["rs", *VALLEY, *SEEDS, "--budget-runs", "3"]
    assert tune(space, tmp_path / "whole", *args) == EXIT_OK
    out = tmp_path / "run"
    assert tune(space, out, *args) == EXIT_OK
    path = out / "rep000" / JOURNAL_NAME
    text = path.read_text()
    mid = text.index("\n", len(text) // 2) + 10  # ten bytes into a record
    path.write_text(text[:mid])
    with open(out / "rep000" / "checkpoints" / "checkpoints.pack", "ab") as fh:
        fh.write(b"{\"")
    capsys.readouterr()
    assert tune(space, out, *args) == EXIT_OK
    captured = capsys.readouterr()
    assert "dropped torn trailing record" in captured.err
    assert "dropped a torn last frame of 2 bytes" in captured.err
    assert "dropped" not in captured.out and "repetition 0: incumbent cost" in captured.out
    whole = (tmp_path / "whole" / "exports" / "incumbents.csv").read_bytes()
    assert (out / "exports" / "incumbents.csv").read_bytes() == whole


GRIDWORLD_SPACE = """\
learning_rate: log(1e-07, 1.0)
epsilon: (0.0, 1.0)
gamma: (0.5, 0.999)
epsilon_decay: (0.9, 1.0)
"""
GRIDWORLD_PBT = ["pbt", "--objective", "gridworld_q", "--budget-runs", "4", "--intervals", "4",
                 "--tuning-seeds", "0", "--test-seeds", "1"]


def cut_after_group(out, count):
    """Cut ``out``'s journal after its ``count``-th group record, whose later
    groups resume from checkpoints in its pack, and drop its exports if it wrote any."""
    path = out / "rep000" / JOURNAL_NAME
    lines = path.read_text().splitlines(keepends=True)
    ends = [i for i, line in enumerate(lines) if json.loads(line)["t"] == "group"]
    path.write_text("".join(lines[: ends[count - 1] + 1]))
    if (out / "exports").exists():
        shutil.rmtree(out / "exports")


STATEFUL_COMMAND = os.path.join(os.path.dirname(__file__), "data", "stateful_command.py")
RESUMABLE = {  # name -> (space, tune arguments) of a PBT run that resumes from checkpoints
    "gridworld": (GRIDWORLD_SPACE, GRIDWORLD_PBT),
    # a training run that keeps its state in the file AUTOTUNE_CHECKPOINT names
    "stateful-command": (
        "lr: log(1e-05, 1.0)\nmomentum: (0.0, 0.99)\n",
        ["pbt", "--objective", f"cmd:{shlex.join([sys.executable, STATEFUL_COMMAND])}",
         "--budget-runs", "4", "--intervals", "4", "--tuning-seeds", "0", "--test-seeds", "1"],
    ),
}


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The exports directory of an uninterrupted run of each RESUMABLE run."""
    exports = {}
    for name, (space_text, args) in RESUMABLE.items():
        root = tmp_path_factory.mktemp(name)
        (root / "space.txt").write_text(space_text)
        assert tune(str(root / "space.txt"), root / "run", *args) == EXIT_OK
        exports[name] = root / "run" / "exports"
    return exports


def without_wall_time(trials_csv) -> list[list[str]]:
    return [row[:-1] for row in csv.reader(io.StringIO(trials_csv.read_text()))]


def assert_same_exports(exports, expected):
    assert (exports / "incumbents.csv").read_bytes() == (expected / "incumbents.csv").read_bytes()
    assert without_wall_time(exports / "trials.csv") == without_wall_time(
        expected / "trials.csv"
    )


def test_a_run_with_a_relative_out_resumes_from_another_directory(
    tmp_path, monkeypatch, uninterrupted
):
    for name, (space_text, args) in RESUMABLE.items():
        root = tmp_path / name
        for here in ("a", "b"):
            (root / here).mkdir(parents=True)
        (root / "s.txt").write_text(space_text)
        monkeypatch.chdir(root / "a")
        assert tune("../s.txt", "run", *args) == EXIT_OK
        cut_after_group(root / "a" / "run", 9)
        # the journal names its checkpoints by absolute paths, not from a/
        monkeypatch.chdir(root / "b")
        assert tune("../s.txt", "../a/run", *args) == EXIT_OK
        assert_same_exports(root / "a" / "run" / "exports", uninterrupted[name])


def test_a_resume_whose_pack_is_gone_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(GRIDWORLD_SPACE)
    assert tune("g.txt", "run", *GRIDWORLD_PBT) == EXIT_OK
    cut_after_group(tmp_path / "run", 9)
    os.remove(tmp_path / "run" / "rep000" / "checkpoints" / "checkpoints.pack")
    capsys.readouterr()
    assert tune("g.txt", "run", *GRIDWORLD_PBT) == EXIT_CORRUPT  # returned, not raised
    err = capsys.readouterr().err
    assert err.startswith("journal error: no checkpoint ")
    assert os.path.join("run", "rep000", "checkpoints", "checkpoints.pack") in err


def test_a_journal_naming_checkpoints_relatively_resumes_from_another_directory(
    tmp_path, monkeypatch, uninterrupted
):
    # older journals name each checkpoint from where their run started; from
    # b/ this one ended in "no checkpoint pack at run/rep000/...", exit 4
    (tmp_path / "g.txt").write_text(GRIDWORLD_SPACE)
    for name in ("a", "b"):  # ends in b
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        if name != "b":
            assert tune("../g.txt", "run", *GRIDWORLD_PBT) == EXIT_OK
    cut_after_group(tmp_path / "a" / "run", 9)
    path = tmp_path / "a" / "run" / "rep000" / JOURNAL_NAME
    checkpoints = os.path.join("run", "rep000", "checkpoints", "")
    absolute = os.path.join(os.path.realpath(tmp_path / "a"), checkpoints)
    text = path.read_text()
    assert absolute in text
    path.write_text(text.replace(absolute, checkpoints))
    assert tune("../g.txt", "../a/run", *GRIDWORLD_PBT) == EXIT_OK
    whole = (uninterrupted["gridworld"] / "incumbents.csv").read_bytes()
    assert (tmp_path / "a" / "run" / "exports" / "incumbents.csv").read_bytes() == whole


def test_a_moved_run_directory_resumes_from_its_own_pack(tmp_path, monkeypatch, uninterrupted):
    # the journal names checkpoints in run/, which no longer exists; this
    # ended in "no checkpoint pack at .../run/rep000/...", exit 4
    for name, (space_text, args) in RESUMABLE.items():
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        (root / "s.txt").write_text(space_text)
        assert tune("s.txt", "run", *args) == EXIT_OK
        cut_after_group(root / "run", 9)
        shutil.move(root / "run", root / "moved")
        assert tune("s.txt", "moved", *args) == EXIT_OK
        assert_same_exports(root / "moved" / "exports", uninterrupted[name])


def test_a_report_names_a_torn_last_record_on_stderr(space, tmp_path, capsys):
    out = tmp_path / "run"
    assert tune(space, out, "rs", *VALLEY, *SEEDS, "--budget-runs", "3") == EXIT_OK
    path = out / "rep000" / JOURNAL_NAME
    path.write_text(path.read_text()[:-10])
    capsys.readouterr()
    assert main(["report", "trials", str(out)]) == EXIT_OK
    assert "dropped torn trailing record" in capsys.readouterr().err


def test_report_on_a_missing_directory_exits_4(tmp_path, capsys):
    assert main(["report", "trials", str(tmp_path / "missing")]) == EXIT_CORRUPT
    assert "no journals under" in capsys.readouterr().err


@pytest.mark.corrupt_journal
def test_corrupt_line_in_the_middle_exits_4(space, tmp_path, capsys):
    out = tmp_path / "run"
    assert tune(space, out, "rs", *VALLEY, *SEEDS, "--budget-runs", "3") == EXIT_OK
    path = out / "rep000" / JOURNAL_NAME
    lines = path.read_text().splitlines()
    lines[len(lines) // 2] = lines[len(lines) // 2][:20]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "trials", str(out)]) == EXIT_CORRUPT
    assert "corrupt record" in capsys.readouterr().err
    assert tune(space, out, "rs", *VALLEY, *SEEDS, "--budget-runs", "3") == EXIT_CORRUPT


@pytest.mark.parametrize(
    "change, message",
    [("budget", "budget_runs is 3 in the journal, 4 now"), ("space", "space_digest is '")],
    ids=["budget", "space"],
)
def test_a_refused_resume_closes_its_journal(space, tmp_path, capsys, change, message):
    args = ["rs", *VALLEY, *SEEDS, "--budget-runs", "3"]
    assert tune(space, tmp_path / "run", *args) == EXIT_OK
    if change == "budget":
        args[-1] = "4"
    else:
        with open(space, "a", encoding="utf-8") as fh:
            fh.write("decay: (0.0, 1.0)\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert tune(space, tmp_path / "run", *args) == EXIT_CORRUPT
        gc.collect()
    assert f"journal error: resumed run has a different header: {message}" in (
        capsys.readouterr().err
    )
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.fixture
def two_runs(space, tmp_path):
    """Runs A and B, and C holding A's repetition as rep000 and B's as rep001."""
    for name, rng_seed in (("A", "1"), ("B", "2")):
        args = ("rs", *VALLEY, *SEEDS, "--budget-runs", "3", "--rng-seed", rng_seed)
        assert tune(space, tmp_path / name, *args) == EXIT_OK
    for rep, name in enumerate(("A", "B")):
        shutil.copytree(tmp_path / name / "rep000", tmp_path / "C" / f"rep{rep:03d}")
    return tmp_path / "A", tmp_path / "B", tmp_path / "C"


@pytest.mark.parametrize(
    "kind, name",
    [("incumbents", "incumbents.csv"), ("ranks", "ranks.csv"), ("checklist", "checklist.txt")],
)
def test_report_on_several_directories_prints_the_combined_export(two_runs, capsys, kind, name):
    a, b, c = two_runs
    assert main(["report", kind, str(c)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", kind, str(a), str(b)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed and printed == (c / "exports" / name).read_text()


def test_trials_report_on_several_directories_exits_2(two_runs, capsys):
    a, b, _ = two_runs
    assert main(["report", "trials", str(a), str(b)]) == EXIT_USAGE
    assert "single directory" in capsys.readouterr().err


def normalised(out):
    """Journal lines, header included, without wall time and with checkpoint
    names only, since each run writes its own directory."""
    records = []
    for line in (out / "rep000" / JOURNAL_NAME).read_text().splitlines():
        rec = json.loads(line)
        rec.pop("wall_time", None)
        if rec.get("ckpt"):
            rec["ckpt"] = os.path.basename(rec["ckpt"])
        records.append(rec)
    return records


def test_worker_pool_writes_the_single_worker_journal(space, tmp_path):
    assert tune(space, tmp_path / "w1", *DEHB, "--workers", "1") == EXIT_OK
    assert tune(space, tmp_path / "w2", *DEHB, "--workers", "2") == EXIT_OK
    w1, w2 = normalised(tmp_path / "w1"), normalised(tmp_path / "w2")
    assert w1[0]["t"] == "header" and w1[0]["deterministic"] is True
    assert len(w1) > 30
    assert w2 == w1
    # a finished run replayed at two workers writes nothing new
    before = {path: path.read_bytes() for path in (tmp_path / "w1").rglob("*") if path.is_file()}
    assert tune(space, tmp_path / "w1", *DEHB, "--workers", "2") == EXIT_OK
    assert {path: path.read_bytes() for path in before} == before


DEHB = ["dehb", *VALLEY, *SEEDS, "--min-budget", "0.1", "--eta", "3", "--budget-runs", "6"]
PBT = ["pbt", *VALLEY, *SEEDS, "--budget-runs", "4", "--intervals", "4"]


def edit_group(out, index, **fields):
    """Set ``fields`` in the ``index``-th group record of ``out``'s journal."""
    path = out / "rep000" / JOURNAL_NAME
    lines = path.read_text().splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if json.loads(line)["t"] == "group"][index]
    lines[at] = json.dumps({**json.loads(lines[at]), **fields}, sort_keys=True) + "\n"
    path.write_text("".join(lines))


def test_an_unedited_cut_journal_resumes_to_the_uninterrupted_run(space, tmp_path):
    for args in (DEHB, PBT):
        whole, out = tmp_path / f"{args[0]}-whole", tmp_path / args[0]
        assert tune(space, whole, *args) == tune(space, out, *args) == EXIT_OK
        cut_after_group(out, 5)
        assert tune(space, out, *args) == EXIT_OK
        assert normalised(out) == normalised(whole)
        assert (out / "exports" / "incumbents.csv").read_bytes() == (
            whole / "exports" / "incumbents.csv"
        ).read_bytes()


def test_a_run_killed_after_its_first_group_record_resumes_to_the_uninterrupted_run(
    space, tmp_path
):
    whole, out = tmp_path / "whole", tmp_path / "run"
    assert tune(space, whole, *DEHB) == EXIT_OK
    pid = os.fork()
    if pid == 0:  # the child is killed as soon as its first group record is flushed
        try:
            append_group = Journal.append_group

            def append_group_then_die(self, *args):
                append_group(self, *args)
                os.kill(os.getpid(), signal.SIGKILL)

            Journal.append_group = append_group_then_die
            tune(space, out, *DEHB)
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert len(journal(out).of_type("group")) == 1 < len(journal(whole).of_type("group"))
    assert tune(space, out, *DEHB) == EXIT_OK
    assert_same_exports(out / "exports", whole / "exports")


def test_a_cut_journal_whose_group_tags_were_edited_exits_4(space, tmp_path, capsys):
    out = tmp_path / "run"
    assert tune(space, out, *DEHB) == EXIT_OK
    cut_after_group(out, 5)
    path = out / "rep000" / JOURNAL_NAME
    path.write_text(path.read_text().replace('"rung": 0', '"rung": 7', 1))
    capsys.readouterr()
    assert tune(space, out, *DEHB) == EXIT_CORRUPT
    assert (
        "resumed run diverged on group 0: tags={'iteration': 0, 'rung': 7} recorded vs "
        "{'iteration': 0, 'rung': 0} requested"
    ) in capsys.readouterr().err


def test_a_cut_journal_whose_resumed_spend_was_edited_exits_4(space, tmp_path, capsys):
    out = tmp_path / "run"
    assert tune(space, out, *PBT) == EXIT_OK
    groups = journal(out).of_type("group")
    index = next(i for i, g in enumerate(groups) if g["spend"] != g["budget"])  # resumed
    cut_after_group(out, index + 1)
    edit_group(out, index, spend=groups[index]["budget"])
    capsys.readouterr()
    assert tune(space, out, *PBT) == EXIT_CORRUPT
    spend, budget = groups[index]["spend"], groups[index]["budget"]
    assert (
        f"resumed run diverged on group {index}: spend={budget!r} recorded vs {spend!r} requested"
    ) in capsys.readouterr().err


def test_a_cut_journal_whose_group_id_was_edited_exits_4(space, tmp_path, capsys):
    out = tmp_path / "run"
    assert tune(space, out, *DEHB) == EXIT_OK
    cut_after_group(out, 5)
    edit_group(out, 2, group=7)
    capsys.readouterr()
    assert tune(space, out, *DEHB) == EXIT_CORRUPT
    assert "resumed run diverged on group 7: group=7 recorded vs 2 requested" in (
        capsys.readouterr().err
    )


RS = ["rs", *VALLEY, *SEEDS, "--budget-runs", "4"]


def edit_first(out, kind, edit):
    """Update the first ``kind`` record of ``out``'s journal with
    ``edit(record)``."""
    path = out / "rep000" / JOURNAL_NAME
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if json.loads(line)["t"] == kind)
    record = json.loads(lines[at])
    lines[at] = json.dumps({**record, **edit(record)}, sort_keys=True) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("kind, edit, named", [
    ("trial", lambda r: {"seed": 77}, "group 0: seed=77 recorded vs 0 requested"),
    ("trial", lambda r: {"budget": 0.5}, "group 0: budget=0.5 recorded vs 1.0 requested"),
    ("trial", lambda r: {"purpose": "test"}, "group 0: purpose='test' recorded vs 'tune'"),
    ("trial", lambda r: {"group": 5}, "group 5: group=5 recorded vs 0 requested"),
    ("trial", lambda r: {"config": {**r["config"], "layers": r["config"]["layers"] % 8 + 1}},
     "group 0: config="),
    ("trial", lambda r: {"status": "failed"}, "group 0: status='failed' recorded vs 'done'"),
    ("group", lambda r: {"tags": {"rung": 3}}, "group 0: tags={'rung': 3} recorded vs None"),
    ("group", lambda r: {"mean_cost": r["mean_cost"] + 1}, "group 0: mean_cost="),
    ("group", lambda r: {"failed": True}, "group 0: failed=True recorded vs False requested"),
    # a cost that is not a number fails its trial, replayed as live
    ("trial", lambda r: {"cost": "abc"}, "group 0: cost='abc' recorded vs None requested"),
    ("trial", lambda r: {"cost": [1]}, "group 0: cost=[1] recorded vs None requested"),
    ("trial", lambda r: {"cost": {"a": 1}}, "group 0: cost={'a': 1} recorded vs None requested"),
    # a checkpoint's fraction is its group's budget, and its frame's name is derived
    ("trial", lambda r: {"frac": "abc"}, "group 0: frac='abc' recorded vs 1.0 requested"),
    ("trial", lambda r: {"frac": 0.5}, "group 0: frac=0.5 recorded vs 1.0 requested"),
    ("trial", lambda r: {"ckpt": os.path.join(os.path.dirname(r["ckpt"]), "renamed.ckpt")},
     "group 0: ckpt="),
    ("trial", lambda r: {"ckpt": 5}, "group 0: ckpt=5 recorded vs None requested"),
    # a trial with a cost ran without error, live
    ("trial", lambda r: {"error": "edited"}, "group 0: error='edited' recorded vs '' requested"),
], ids=["seed", "budget", "purpose", "trial-group", "config", "status", "tags", "mean_cost",
        "failed", "cost-str", "cost-list", "cost-dict", "frac-str", "frac", "ckpt-name",
        "ckpt-int", "error"])
def test_a_cut_journal_with_an_edited_record_exits_4_naming_the_field(
    space, tmp_path, capsys, kind, edit, named
):
    out = tmp_path / "run"
    assert tune(space, out, *RS) == EXIT_OK
    cut_after_group(out, 3)
    edit_first(out, kind, edit)
    capsys.readouterr()
    assert tune(space, out, *RS) == EXIT_CORRUPT
    assert f"resumed run diverged on {named}" in capsys.readouterr().err


def test_a_cut_pbt_journal_whose_frac_was_edited_exits_4(space, tmp_path, capsys):
    # the fraction of a checkpoint a later group resumes from; this raised TypeError
    out = tmp_path / "run"
    assert tune(space, out, *PBT) == EXIT_OK
    cut_after_group(out, 3)
    edit_first(out, "trial", lambda r: {"frac": "abc"})
    capsys.readouterr()
    assert tune(space, out, *PBT) == EXIT_CORRUPT
    assert "resumed run diverged on group 0: frac='abc' recorded vs 0.25 requested" in (
        capsys.readouterr().err
    )


def test_a_cut_journal_whose_failed_trial_was_given_a_checkpoint_exits_4(
    space, tmp_path, capsys
):
    # a live failed trial keeps no checkpoint; this replayed one as kept and exited 3
    script = tmp_path / "cost.sh"
    script.write_text('[ "$AUTOTUNE_SEED" = 0 ] && exit 1\necho "cost=$LR"\n')
    args = ["rs", "--objective", f"cmd:sh {script}", "--budget-runs", "2",
            "--tuning-seeds", "0,1", "--test-seeds", "5"]
    out = tmp_path / "run"
    assert tune(space, out, *args) == EXIT_OBJECTIVE
    cut_after_group(out, 1)
    failed, kept = journal(out).of_type("trial")[:2]
    assert failed["status"] == "failed" and kept["ckpt"]
    ckpt = os.path.join(os.path.dirname(kept["ckpt"]), "g000000_s0_f1.000000.ckpt")
    edit_first(out, "trial", lambda r: {"frac": 1.0, "ckpt": ckpt})
    capsys.readouterr()
    assert tune(space, out, *args) == EXIT_CORRUPT
    assert f"resumed run diverged on group 0: ckpt={ckpt!r} recorded vs None requested" in (
        capsys.readouterr().err
    )


def test_a_failed_trial_replays_its_recorded_error(space, tmp_path, capsys):
    # only a live run can say why a trial failed, so replay keeps its message
    script = tmp_path / "cost.sh"
    script.write_text('[ "$AUTOTUNE_SEED" = 0 ] && exit 1\necho "cost=$LR"\n')
    args = ["rs", "--objective", f"cmd:sh {script}", "--budget-runs", "2",
            "--tuning-seeds", "0,1", "--test-seeds", "5"]
    out = tmp_path / "run"
    assert tune(space, out, *args) == EXIT_OBJECTIVE
    cut_after_group(out, 1)
    edit_first(out, "trial", lambda r: {"error": "another message"})
    assert tune(space, out, *args) == EXIT_OBJECTIVE
    failed = journal(out).of_type("trial")[0]
    assert failed["status"] == "failed" and failed["error"] == "another message"
    assert len(journal(out).of_type("group")) == 2


def _parsers(parser, words=()):
    """The words that select each parser, ``parser`` and those below it, and
    the parser."""
    yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                yield from _parsers(sub, (*words, word))


@pytest.mark.parametrize("columns", ["52", "137"])
def test_every_commands_help_is_argparses_at_the_terminal_width(monkeypatch, capsys, columns):
    monkeypatch.setenv("COLUMNS", columns)
    want = {}
    for words, parser in _parsers(build_parser()):
        parser.formatter_class = argparse.HelpFormatter  # reads the width itself
        want[words] = parser.format_help()
    assert len(want) == 7 and all(text.count("\n") > 3 for text in want.values())
    for words, text in want.items():
        with pytest.raises(SystemExit) as exit_:
            main([*words, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == text


def test_a_parser_reads_the_terminal_width_once(monkeypatch):
    widths = []
    real = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: widths.append(a) or real(*a))
    build_parser().parse_args(["tune", "rs", "--space", "s", "--objective", "o", "--out", "d"])
    assert len(widths) == 1


def test_a_cut_journal_whose_trial_cost_was_nulled_exits_4_naming_the_status(
    space, tmp_path, capsys
):
    out = tmp_path / "run"
    assert tune(space, out, *RS) == EXIT_OK
    cut_after_group(out, 3)
    edit_first(out, "trial", lambda r: {"cost": None})
    capsys.readouterr()
    assert tune(space, out, *RS) == EXIT_CORRUPT
    assert "resumed run diverged on group 0: status='done' recorded vs 'failed' requested" in (
        capsys.readouterr().err
    )


def test_sweeps_of_two_commands_share_an_out_and_each_resumes(space, tmp_path, capsys):
    out = tmp_path / "run"
    commands = []
    for name, cost in (("a.sh", "$MOMENTUM"), ("b.sh", "$AUTOTUNE_SEED")):
        script = tmp_path / name
        script.write_text(f'echo "cost={cost}"\n')
        commands.append(f"sh {script}")
    labels = ["external_command-" + hashlib.sha256(c.encode()).hexdigest()[:8] for c in commands]

    def sweep_with(command):
        args = ["sweep", "--objective", f"cmd:{command}", "--param", "momentum",
                "--values", "0.1,0.5", "--seeds", "0,1", "--space", space, "--out", str(out)]
        assert main(args) == EXIT_OK

    for command in commands:
        sweep_with(command)
    tables = {label: (out / f"sweep_{label}_momentum.csv").read_bytes() for label in labels}
    assert tables[labels[0]] != tables[labels[1]]
    journals = [out / "sweeps" / f"{label}_momentum" / JOURNAL_NAME for label in labels]

    def records(path):
        return [{k: v for k, v in r.items() if k != "wall_time"}
                for r in Journal.load(str(path)).records]

    whole = [records(path) for path in journals]
    for i, (path, command) in enumerate(zip(journals, commands)):
        # header, two trials and the first group: the rerun evaluates the second
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]))
        other = journals[1 - i].read_bytes()
        sweep_with(command)
        assert journals[1 - i].read_bytes() == other
        assert [records(p) for p in journals] == whole
        assert {label: (out / f"sweep_{label}_momentum.csv").read_bytes()
                for label in labels} == tables
