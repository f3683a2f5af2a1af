"""The repository's pytest configuration must let a failing test report itself.

``filterwarnings`` turns every DeprecationWarning into an error.  When a
hypothesis test fails, hypothesis's reporter imports ``libcst``, which
warns through ``mypy_extensions``; unless that one warning is ignored, the
failure ends in an INTERNALERROR and the falsifying example is never shown.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_TEST = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None, max_examples=5)
    @given(st.integers())
    def test_fails(x):
        assert x != x
""")


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_TEST, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert done.returncode == 1, output
