"""The repository's pytest configuration, run on throwaway test files."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# In file order: a failing property, a test that warns, a passing test.
TESTS = '''
import warnings

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_warning_fails():
    warnings.warn("raised by the test", DeprecationWarning)


def test_runs_after_the_failures():
    pass
'''


def test_failing_hypothesis_test_fails_only_itself(tmp_path):
    # Hypothesis's failure report imports modules that warn on import; under
    # filterwarnings = error that must fail the one test, not abort the session
    (tmp_path / "test_throwaway.py").write_text(TESTS)
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_throwaway.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "2 failed, 1 passed" in proc.stdout
