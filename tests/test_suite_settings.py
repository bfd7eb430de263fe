"""The suite's own settings: a failing property test is reported like any other failure."""

import shutil
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails_for_some_draw(k):
    assert k < 5


def test_runs_after_it():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(pytester):
    # Hypothesis formats its failure report with libcst where that is
    # installed; a warning from that import must not become an INTERNALERROR.
    shutil.copy(PYPROJECT, pytester.path / "pyproject.toml")
    pytester.makepyfile(test_planted=PLANTED)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_planted.py")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1, passed=1)
