"""The repository's pytest configuration reports a failing test as one
failure.

``pyproject.toml`` turns warnings into errors. While hypothesis reports a
falsifying example it imports a deprecated ``mypy_extensions`` name; as an
error inside that report hook, the warning aborted the whole run with
``INTERNALERROR``, and the tests after it never ran. This runs pytest with
the repository's configuration on a failing ``@given`` test in a
subprocess, since a pytest run inside this one would share its plugins and
warning filters.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_not_fatal(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out[-4000:]
    assert "1 failed, 1 passed" in out, out[-4000:]
