"""``cli.main`` exit codes: 0 success, 2 usage error, 3 objective failure,
4 journal corruption; and the journal a worker pool writes."""
import csv
import gc
import hashlib
import io
import json
import os
import shutil
import warnings

import pytest

from autotune.cli import EXIT_CORRUPT, EXIT_OBJECTIVE, EXIT_OK, EXIT_USAGE, main
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
    assert tune(space, tmp_path / "run", "rs", *VALLEY, *SEEDS, "--budget-runs", "3") == EXIT_OK
    assert "repetition 0: incumbent cost" in capsys.readouterr().out
    assert journal(tmp_path / "run").spend() == 3.0


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


def test_deterministic_flag_is_a_usage_error(space, tmp_path):
    with pytest.raises(SystemExit) as err:
        tune(space, tmp_path / "run", "rs", *VALLEY, "--deterministic")
    assert err.value.code == EXIT_USAGE


def test_failing_command_exits_3(space, tmp_path, capsys):
    rc = tune(space, tmp_path / "run", "rs", "--objective", "cmd:false", "--budget-runs", "2",
              "--tuning-seeds", "0", "--test-seeds", "1")
    assert rc == EXIT_OBJECTIVE
    assert "every random-search trial failed" in capsys.readouterr().err


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
    dehb = ["dehb", *VALLEY, *SEEDS, "--min-budget", "0.1", "--eta", "3", "--budget-runs", "6"]
    assert tune(space, tmp_path / "w1", *dehb, "--workers", "1") == EXIT_OK
    assert tune(space, tmp_path / "w2", *dehb, "--workers", "2") == EXIT_OK
    w1, w2 = normalised(tmp_path / "w1"), normalised(tmp_path / "w2")
    assert w1[0]["t"] == "header" and w1[0]["deterministic"] is True
    assert len(w1) > 30
    assert w2 == w1


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
