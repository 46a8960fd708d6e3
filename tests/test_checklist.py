"""The reproducibility checklist renders the same bytes from the same runs,
and its configuration spaces parse back as space files."""
import pytest

from autotune.checklist import UNANSWERED, emit_checklist
from autotune.cli import main
from autotune.journal import Journal
from autotune.runs import render, repetition_dirs
from autotune.space import parse_space, render_space

SPACE_TEXT = """\
lr: log(1e-05, 1.0)
momentum: (0.0, 0.99)
layers: int[1, 8]
activation: {relu, tanh, gelu}
"""
COMMON = ["--objective", "seeded_valley", "--tuning-seeds", "0,1", "--test-seeds", "5..7",
          "--budget-runs", "4"]


@pytest.fixture
def runs(tmp_path):
    """Two random-search runs with the same settings and one DEHB run."""
    space = tmp_path / "space.txt"
    space.write_text(SPACE_TEXT)
    outs = {}
    for name, method in (("a", ["rs"]), ("b", ["rs"]),
                         ("dehb", ["dehb", "--min-budget", "0.25", "--eta", "2"])):
        outs[name] = str(tmp_path / name)
        argv = ["tune", *method, *COMMON, "--space", str(space), "--out", outs[name]]
        assert main(argv) == 0
    return outs


def checklist(*run_dirs):
    dirs = [d for run_dir in run_dirs for d in repetition_dirs(run_dir)]
    return render("checklist", dirs)["checklist.txt"]


def test_checklist_bytes_are_the_same_across_renders_and_repeated_runs(runs):
    text = checklist(runs["a"], runs["dehb"])
    assert checklist(runs["a"], runs["dehb"]) == text
    assert checklist(runs["b"], runs["dehb"]) == text  # wall times never reach it
    assert main(["report", "checklist", runs["a"]]) == 0
    with open(f"{runs['a']}/exports/checklist.txt", encoding="utf-8") as fh:
        assert fh.read() == checklist(runs["a"])


def test_item_three_parses_back_as_each_methods_space(runs):
    text = checklist(runs["a"], runs["dehb"])
    assert "    - lr: log(1e-05, 1)\n" in text
    assert "    - layers: int[1, 8]\n" in text
    journals = [Journal.load(f"{d}/journal.log")
                for run_dir in (runs["a"], runs["dehb"]) for d in repetition_dirs(run_dir)]
    first, *lines = dict(emit_checklist(journals).items)[3]
    assert first == "The configuration space was:"
    assert lines[0] == "dehb:" and lines[5] == "rs:" and len(lines) == 10
    for block in (lines[1:5], lines[6:]):
        assert all(line.startswith("- ") for line in block)
        parsed = parse_space("\n".join(line[2:] for line in block))
        assert render_space(parsed) == render_space(parse_space(SPACE_TEXT))


def test_item_three_is_unanswered_without_a_space_in_the_headers():
    journal = Journal()
    journal.write_header({"method": "rs"})
    assert dict(emit_checklist([journal]).items)[3] == ["The configuration space was:",
                                                         UNANSWERED]
