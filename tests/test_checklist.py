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


def item(text, number):
    """Item ``number``'s lines of a rendered checklist."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"{number:2d}. "))
    end = next((i for i, line in enumerate(lines[start + 1:], start + 1)
                if not line.startswith("    ")), len(lines))
    return "\n".join(lines[start:end])


SPACE_LINES = """\
    - lr: log(1e-05, 1)
    - momentum: (0, 0.99)
    - layers: int[1, 8]
    - activation: {relu, tanh, gelu}
"""
INCUMBENT_LINES = """\
    - activation: gelu
    - layers: 5
    - lr: 0.11650677907562479
    - momentum: 0.9036280215049445
"""


def pinned(methods):
    """The checklist of the fixture's runs of ``methods``, as the journals
    alone tell it: every run keeps the seed plan and the budget."""
    spaces = "".join(f"    {m}:\n" + SPACE_LINES for m in sorted(methods))
    incumbents = "".join(f"    {m} on seeded_valley:\n" + INCUMBENT_LINES for m in methods)
    return f"""\
Reproducibility checklist
=========================

 1. Are there training and test settings available? yes
    - Is only the training setting used for training? yes
    - Is only the training setting used for tuning? yes
    - Are final results reported on the test setting? yes
 2. Hyperparameters were tuned using autotune, based on: {", ".join(sorted(methods))}
 3. The configuration space was:
{spaces}\
 4. Search spaces and ranges are shared wherever methods share hyperparameters: yes
 5. Cost metric(s) optimized: seed-shifted squared distance plus partial-budget penalty
 6. The tuning budget was: 4 full runs
 7. The tuning budget was the same for all tuned methods: yes
 8. Budget given in time, hardware comparable: not applicable (budget counted in full runs, not time)
 9. All reported methods were tuned with the settings above: yes
10. Tuning was done across 2 tuning seeds which were: [0, 1]
11. Testing was done across 3 test seeds which were: [5, 6, 7]
12. Are all results reported on the test seeds? yes
13. The final incumbent configurations reported were:
{incumbents}\
14. Code for reproducing these experiments: UNANSWERED
15. The code includes the tuning process: yes
16. An exact software environment is bundled with the code: UNANSWERED
17. The following hardware was used:
    UNANSWERED
"""


def test_runs_with_the_same_plan_render_the_pinned_text(runs):
    assert checklist(runs["a"], runs["dehb"]) == pinned(["rs", "dehb"])
    assert checklist(runs["a"]) == pinned(["rs"])


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


def test_each_run_is_judged_against_its_own_seed_plan(tmp_path):
    space = tmp_path / "space.txt"
    space.write_text(SPACE_TEXT)
    dirs = []
    for name, tuning, test in (("p", "0,1", "5,6"), ("q", "2,3", "7,8")):
        dirs.append(str(tmp_path / name))
        assert main(["tune", "rs", "--objective", "seeded_valley", "--budget-runs", "2",
                     "--tuning-seeds", tuning, "--test-seeds", test,
                     "--space", str(space), "--out", dirs[-1]]) == 0
    text = checklist(*dirs)
    assert item(text, 1) == (
        " 1. Are there training and test settings available? yes\n"
        "    - Is only the training setting used for training? yes\n"
        "    - Is only the training setting used for tuning? yes\n"
        "    - Are final results reported on the test setting? yes")
    assert item(text, 12) == "12. Are all results reported on the test seeds? yes"
    assert item(text, 9) == " 9. All reported methods were tuned with the settings above: no"
    assert item(text, 10) == ("10. Tuning was done across 2 tuning seeds which were: [0, 1]; "
                              "2 tuning seeds which were: [2, 3]")
    assert item(text, 11) == ("11. Testing was done across 2 test seeds which were: [5, 6]; "
                              "2 test seeds which were: [7, 8]")
