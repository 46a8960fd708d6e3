"""Rules the code base keeps as a whole: ``src/`` imports no scipy, and a
test that leaves a journal line the journal never writes fails."""
import ast
import pathlib

pytest_plugins = ["pytester"]

TESTS = pathlib.Path(__file__).parent


def test_src_imports_no_scipy():
    # scipy is a test-only extra
    found = []
    for path in sorted((TESTS.parent / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_a_journal_line_with_reordered_keys_fails_its_test(pytester):
    pytester.makeconftest((TESTS / "conftest.py").read_text(encoding="utf-8"))
    pytester.makepyfile(
        """
        import pytest

        def test_sorted(tmp_path):
            (tmp_path / "journal.log").write_text('{"a": 1, "b": 2}\\n{"a": 3, "b": 4}\\n{"a"')

        def test_reordered(tmp_path):
            (tmp_path / "journal.log").write_text('{"a": 1, "b": 2}\\n{"b": 4, "a": 3}\\n')

        @pytest.mark.corrupt_journal
        def test_marked(tmp_path):
            (tmp_path / "journal.log").write_text('{"b": 4, "a": 3}\\n')
        """
    )
    # the inner session imports the hypothesis plugin afresh, about 1.2 s, and needs none of it
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider", "-p", "no:hypothesispytest")
    # the reordered test passes its call and errors in its teardown
    result.assert_outcomes(passed=3, errors=1)
    result.stdout.fnmatch_lines(["*ERROR at teardown of test_reordered*", "*journal.log:2*"])
