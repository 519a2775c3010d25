"""Repository tooling: the pytest configuration, run on throwaway test files,
what a fresh `import sconelab.cli` loads, and the package's unused imports."""

import ast
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = Path(__file__).resolve().parents[1] / "src"

# Prints, one a line, the top-level modules that importing sconelab.cli adds.
IMPORT_CLI = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import sconelab.cli
print("\\n".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""

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


def test_cli_import_loads_only_stdlib_numpy_and_sconelab():
    # Every command starts with this import, so a third-party module reached
    # from it (scipy, say) is start-up time that each run pays
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_CLI, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"numpy", "sconelab"} <= added
    assert added - set(sys.stdlib_module_names) == {"numpy", "sconelab"}


def test_every_imported_name_is_used():
    # a leftover import of a deleted code path is dead weight that reads as live
    unused = []
    for path in sorted((SRC / "sconelab").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
