import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers(0, 10))
def test_below_five(n):
    assert n < 5
"""


def test_a_failing_property_reports_its_example(tmp_path):
    # on a failure the hypothesis plugin imports libcst, whose import raised
    # mypy_extensions' DeprecationWarning; filterwarnings turned it into an
    # INTERNALERROR, and the run lost its failure report
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "test_property.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example: test_below_five(" in out
    assert "INTERNALERROR" not in out
