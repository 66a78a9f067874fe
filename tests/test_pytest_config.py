"""The suite's own pytest configuration, run on a throwaway test file."""
import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_stop_the_run(tmp_path):
    # hypothesis's failure report imports libcst, and that import warns
    # through mypy_extensions: under filterwarnings = error the warning
    # must not end the session before the next test is run
    (tmp_path / "test_two.py").write_text(ONE_FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert re.match(r"1 failed, 1 passed in ", proc.stdout.strip().splitlines()[-1])
