"""Checks made after every tier-1 test."""
import json

import pytest

from autotune.runs import JOURNAL_NAME


def noncanonical_lines(root) -> list[str]:
    """``path:number`` of each line of a journal under ``root`` that is not
    the sorted ``json.dumps`` of the record it holds. A last line without
    its newline is a record torn by a kill, which a resume drops, and is
    left out."""
    bad = []
    for path in sorted(root.rglob(JOURNAL_NAME)):
        text = path.read_text(encoding="utf-8")
        for number, line in enumerate(text.split("\n")[:-1], 1):
            try:
                canonical = line == json.dumps(json.loads(line), sort_keys=True)
            except ValueError:
                canonical = False
            if not canonical:
                bad.append(f"{path}:{number}")
    return bad


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "corrupt_journal: the test leaves a journal line the journal never writes"
    )


@pytest.fixture(autouse=True)
def canonical_journals(request):
    """Every journal line a test leaves under its ``tmp_path`` is the sorted
    ``json.dumps`` of its record, as the journal writes it, unless the test
    is marked ``corrupt_journal``."""
    if "tmp_path" not in request.fixturenames or request.node.get_closest_marker(
        "corrupt_journal"
    ):
        yield
        return
    root = request.getfixturevalue("tmp_path")
    yield
    assert noncanonical_lines(root) == []
